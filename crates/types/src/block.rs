//! Blocks: header, transaction list, and metadata with validity flags.

use crate::identity::Identity;
use crate::transaction::{Transaction, TxValidationCode};
use fabric_crypto::{sha256, Hash256, Sha256, Signature};
use fabric_wire::Encode;
use std::sync::Arc;

/// A block header chaining to the previous block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height of this block (genesis is 0).
    pub number: u64,
    /// Hash of the previous block's header; all-zero for genesis.
    pub previous_hash: Hash256,
    /// Hash over the transactions' digests; see
    /// [`Block::compute_data_hash`].
    pub data_hash: Hash256,
}

impl_wire_struct!(BlockHeader {
    number,
    previous_hash,
    data_hash
});

impl BlockHeader {
    /// The hash of this header, used as `previous_hash` by the next block.
    pub fn hash(&self) -> Hash256 {
        sha256(&self.to_wire())
    }
}

/// Block metadata: the per-transaction validity vector written by
/// committing peers, plus the orderer's signature.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockMetadata {
    /// One code per transaction, aligned with `Block::transactions`. Empty
    /// until a committing peer validates the block.
    pub validation_codes: Vec<TxValidationCode>,
    /// Identity of the orderer that cut the block.
    pub orderer: Option<Identity>,
    /// Orderer signature over the block header.
    pub orderer_signature: Option<Signature>,
}

impl_wire_struct!(BlockMetadata {
    validation_codes,
    orderer,
    orderer_signature
});

/// A block: header, transactions, metadata (Fig. 3).
///
/// The transaction list is `Arc`-shared: cloning a block (the network
/// fans each cut block out to every peer) bumps a reference count
/// instead of deep-copying every transaction, and all receivers see the
/// same instances — so per-transaction digests
/// ([`crate::transaction::TxMemo`]) are computed once network-wide.
/// The wire form is unchanged (`Arc<[T]>` encodes exactly like
/// `Vec<T>`); per-block mutable state lives in `metadata`, which stays
/// owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The chained header.
    pub header: BlockHeader,
    /// Ordered transactions, shared across every clone of this block.
    pub transactions: Arc<[Transaction]>,
    /// Validity flags and orderer signature.
    pub metadata: BlockMetadata,
}

impl_wire_struct!(Block {
    header,
    transactions,
    metadata
});

impl Block {
    /// Builds a block over `transactions`, computing the data hash and
    /// chaining to `previous_hash`. Accepts either owned (`Vec`) or
    /// already-shared (`Arc<[_]>`) transaction storage.
    pub fn new(
        number: u64,
        previous_hash: Hash256,
        transactions: impl Into<Arc<[Transaction]>>,
    ) -> Self {
        let transactions = transactions.into();
        let data_hash = Self::compute_data_hash(&transactions);
        Block {
            header: BlockHeader {
                number,
                previous_hash,
                data_hash,
            },
            transactions,
            metadata: BlockMetadata::default(),
        }
    }

    /// The two-level hash of a transaction list:
    /// `SHA-256(varint(n) ‖ tx_digest₁ ‖ … ‖ tx_digestₙ)` with
    /// `tx_digest = SHA-256(canonical transaction wire)`.
    ///
    /// The per-transaction digests are memoized on the (shared)
    /// transactions, so the first holder of a block hashes every
    /// transaction's bytes and each later one hashes 32 bytes per
    /// transaction, against the header it received.
    pub fn compute_data_hash(transactions: &[Transaction]) -> Hash256 {
        let mut hasher = Sha256::new();
        hasher.update(&(transactions.len() as u64).to_wire());
        for tx in transactions {
            hasher.update(tx.tx_digest().as_bytes());
        }
        hasher.finalize()
    }

    /// Hash of this block's header.
    pub fn hash(&self) -> Hash256 {
        self.header.hash()
    }

    /// Structural integrity: the stored data hash matches the transactions.
    pub fn data_hash_is_consistent(&self) -> bool {
        self.header.data_hash == Self::compute_data_hash(&self.transactions)
    }

    /// Whether this block correctly chains onto `previous`.
    pub fn chains_onto(&self, previous: &Block) -> bool {
        self.header.number == previous.header.number + 1
            && self.header.previous_hash == previous.hash()
    }

    /// The validation code of transaction `idx`, if the block has been
    /// validated.
    pub fn validation_code(&self, idx: usize) -> Option<TxValidationCode> {
        self.metadata.validation_codes.get(idx).copied()
    }

    /// Iterates over `(transaction, validation_code)` pairs of a validated
    /// block; yields nothing when metadata is absent.
    pub fn validated_transactions(
        &self,
    ) -> impl Iterator<Item = (&Transaction, TxValidationCode)> + '_ {
        self.transactions
            .iter()
            .zip(self.metadata.validation_codes.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_wire::Decode;

    #[test]
    fn genesis_and_chaining() {
        let genesis = Block::new(0, Hash256::default(), vec![]);
        assert!(genesis.data_hash_is_consistent());
        let next = Block::new(1, genesis.hash(), vec![]);
        assert!(next.chains_onto(&genesis));

        let forged = Block::new(2, genesis.hash(), vec![]);
        assert!(!forged.chains_onto(&genesis));
        let wrong_parent = Block::new(1, Hash256::default(), vec![]);
        assert!(!wrong_parent.chains_onto(&genesis));
    }

    #[test]
    fn data_hash_is_the_two_level_hash_recomputed_from_cold_memos() {
        use crate::identity::{Identity, Role};
        use crate::ids::{ChaincodeId, ChannelId, TxId};
        use crate::proposal::{PayloadCommitment, ProposalResponsePayload, Response};
        use crate::rwset::TxRwSet;
        use fabric_crypto::Keypair;

        let txs: Vec<Transaction> = (0..3)
            .map(|i| {
                let kp = Keypair::generate_from_seed(40 + i);
                Transaction {
                    tx_id: TxId::new(format!("tx-{i}")),
                    channel: ChannelId::new("ch1"),
                    chaincode: ChaincodeId::new("cc1"),
                    creator: Identity::new("Org1MSP", Role::Client, kp.public_key()),
                    payload: ProposalResponsePayload {
                        proposal_hash: sha256(format!("prop-{i}").as_bytes()),
                        response: Response::ok(vec![i as u8; 3]),
                        results: TxRwSet::new(),
                        event: None,
                    },
                    commitment: PayloadCommitment::Plain,
                    endorsements: vec![],
                    client_signature: kp.sign(b"sig"),
                    memo: Default::default(),
                }
            })
            .collect();
        // Warm or cold, the data hash is the hash over the count and the
        // digests of the transactions' encodings, for every prefix length.
        for n in 0..=txs.len() {
            let mut preimage = (n as u64).to_wire();
            for tx in &txs[..n] {
                // A clone's memo is cold: encoded and hashed from scratch.
                preimage.extend_from_slice(sha256(&tx.clone().to_wire()).as_bytes());
            }
            let cold: Vec<Transaction> = txs[..n].iter().map(Transaction::clone).collect();
            assert_eq!(
                Block::compute_data_hash(&cold),
                sha256(&preimage),
                "cold, prefix {n}"
            );
            assert_eq!(
                Block::compute_data_hash(&txs[..n]),
                sha256(&preimage),
                "warm after the first pass, prefix {n}"
            );
        }
    }

    #[test]
    fn data_hash_detects_tx_tampering() {
        let block = Block::new(0, Hash256::default(), vec![]);
        let mut tampered = block.clone();
        tampered.header.data_hash = sha256(b"other");
        assert!(!tampered.data_hash_is_consistent());
    }

    #[test]
    fn wire_roundtrip() {
        let block = Block::new(5, sha256(b"prev"), vec![]);
        assert_eq!(Block::from_wire(&block.to_wire()).unwrap(), block);
    }

    #[test]
    fn cloned_blocks_share_transaction_storage() {
        // Fan-out relies on `Block::clone` being a reference-count bump,
        // not a deep copy of the transaction list.
        let block = Block::new(0, Hash256::default(), vec![]);
        let copy = block.clone();
        assert!(Arc::ptr_eq(&block.transactions, &copy.transactions));
    }

    #[test]
    fn validated_transactions_empty_without_metadata() {
        let block = Block::new(0, Hash256::default(), vec![]);
        assert_eq!(block.validated_transactions().count(), 0);
        assert_eq!(block.validation_code(0), None);
    }
}
