//! The hash-chained block store ("the blockchain" half of the ledger).

use fabric_crypto::Hash256;
use fabric_types::{Block, Transaction, TxId, TxValidationCode};
use fabric_wire::IdMap;
use std::fmt;

/// Errors appending to a [`BlockStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockStoreError {
    /// The block number is not exactly one past the current height.
    NonSequentialNumber {
        /// Expected block number.
        expected: u64,
        /// Number found in the header.
        found: u64,
    },
    /// The block's `previous_hash` does not match the chain tip.
    BrokenChain {
        /// Hash of the current tip.
        expected: Hash256,
        /// `previous_hash` found in the header.
        found: Hash256,
    },
    /// The header's data hash does not match the transactions.
    DataHashMismatch,
}

impl fmt::Display for BlockStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockStoreError::NonSequentialNumber { expected, found } => {
                write!(f, "expected block number {expected}, found {found}")
            }
            BlockStoreError::BrokenChain { .. } => {
                write!(f, "previous-hash does not match chain tip")
            }
            BlockStoreError::DataHashMismatch => write!(f, "data hash does not match transactions"),
        }
    }
}

impl std::error::Error for BlockStoreError {}

/// An append-only, hash-verified chain of blocks with a tx-id index.
///
/// Every peer in a channel holds one; since blocks contain transactions in
/// full — including the plaintext `payload` of proposal responses — any
/// peer can mine its local block store for leaked private data (§IV-B).
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    blocks: Vec<Block>,
    /// `tx_id -> (block number, tx index)`.
    tx_index: IdMap<TxId, (u64, usize)>,
}

impl BlockStore {
    /// An empty chain.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Current chain height (number of blocks).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Hash of the chain tip, or the all-zero hash for an empty chain
    /// (used as `previous_hash` of the genesis block).
    pub fn tip_hash(&self) -> Hash256 {
        self.blocks.last().map(|b| b.hash()).unwrap_or_default()
    }

    /// Verifies that `block` would extend this chain: sequential number,
    /// matching previous-hash, and consistent data hash. Borrows only, so
    /// callers can pre-validate without cloning the store.
    ///
    /// # Errors
    ///
    /// Returns [`BlockStoreError`] describing the first failing check.
    pub fn check_extends(&self, block: &Block) -> Result<(), BlockStoreError> {
        let expected_number = self.height();
        if block.header.number != expected_number {
            return Err(BlockStoreError::NonSequentialNumber {
                expected: expected_number,
                found: block.header.number,
            });
        }
        let expected_prev = self.tip_hash();
        if block.header.previous_hash != expected_prev {
            return Err(BlockStoreError::BrokenChain {
                expected: expected_prev,
                found: block.header.previous_hash,
            });
        }
        if !block.data_hash_is_consistent() {
            return Err(BlockStoreError::DataHashMismatch);
        }
        Ok(())
    }

    /// Appends a block after verifying number, chain hash, and data hash.
    ///
    /// # Errors
    ///
    /// Returns [`BlockStoreError`] when any structural check fails; the
    /// store is unchanged on error.
    pub fn append(&mut self, block: Block) -> Result<(), BlockStoreError> {
        self.check_extends(&block)?;
        self.append_unchecked(block);
        Ok(())
    }

    /// Appends a block whose structural checks the caller has already run
    /// via [`BlockStore::check_extends`] on this same store and block.
    ///
    /// The commit pipeline validates linkage once up front (before any
    /// state mutation) and appends after the per-transaction merge; this
    /// entry point lets it skip re-hashing the whole transaction list a
    /// second time. Debug builds still assert the contract.
    pub fn append_unchecked(&mut self, block: Block) {
        debug_assert!(
            self.check_extends(&block).is_ok(),
            "append_unchecked caller must have verified check_extends"
        );
        for (i, tx) in block.transactions.iter().enumerate() {
            self.tx_index
                .insert(tx.tx_id.clone(), (block.header.number, i));
        }
        self.blocks.push(block);
    }

    /// The block at `number`, if present.
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.blocks.get(number as usize)
    }

    /// Looks up a transaction and its validation code by ID.
    pub fn transaction(&self, tx_id: &TxId) -> Option<(&Transaction, Option<TxValidationCode>)> {
        let (block_num, idx) = *self.tx_index.get(tx_id)?;
        let block = self.block(block_num)?;
        let tx = block.transactions.get(idx)?;
        Some((tx, block.validation_code(idx)))
    }

    /// Whether a transaction ID has been committed (in any block, valid or
    /// not — Fabric stores invalid transactions too, flagged in metadata).
    pub fn contains_tx(&self, tx_id: &TxId) -> bool {
        self.tx_index.contains_key(tx_id)
    }

    /// Iterates blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Verifies the whole chain's hashes from genesis; `true` when intact.
    pub fn verify_chain(&self) -> bool {
        let mut prev: Option<&Block> = None;
        for block in &self.blocks {
            if !block.data_hash_is_consistent() {
                return false;
            }
            match prev {
                None => {
                    if block.header.number != 0 || block.header.previous_hash != Hash256::default()
                    {
                        return false;
                    }
                }
                Some(p) => {
                    if !block.chains_onto(p) {
                        return false;
                    }
                }
            }
            prev = Some(block);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(number: u64, prev: Hash256) -> Block {
        Block::new(number, prev, vec![])
    }

    #[test]
    fn append_and_chain_verification() {
        let mut store = BlockStore::new();
        assert_eq!(store.height(), 0);
        let b0 = block(0, Hash256::default());
        let h0 = b0.hash();
        store.append(b0).unwrap();
        store.append(block(1, h0)).unwrap();
        assert_eq!(store.height(), 2);
        assert!(store.verify_chain());
    }

    #[test]
    fn rejects_non_sequential_number() {
        let mut store = BlockStore::new();
        let err = store.append(block(5, Hash256::default())).unwrap_err();
        assert_eq!(
            err,
            BlockStoreError::NonSequentialNumber {
                expected: 0,
                found: 5
            }
        );
    }

    #[test]
    fn rejects_broken_chain() {
        let mut store = BlockStore::new();
        store.append(block(0, Hash256::default())).unwrap();
        let err = store
            .append(block(1, fabric_crypto::sha256(b"wrong")))
            .unwrap_err();
        assert!(matches!(err, BlockStoreError::BrokenChain { .. }));
        assert_eq!(store.height(), 1);
    }

    #[test]
    fn rejects_tampered_data_hash() {
        let mut store = BlockStore::new();
        let mut b = block(0, Hash256::default());
        b.header.data_hash = fabric_crypto::sha256(b"tampered");
        assert_eq!(store.append(b), Err(BlockStoreError::DataHashMismatch));
    }

    #[test]
    fn check_extends_matches_append_without_mutating() {
        let mut store = BlockStore::new();
        let b0 = block(0, Hash256::default());
        let h0 = b0.hash();
        assert_eq!(store.check_extends(&b0), Ok(()));
        store.append(b0).unwrap();

        let good = block(1, h0);
        assert_eq!(store.check_extends(&good), Ok(()));
        let broken = block(1, fabric_crypto::sha256(b"wrong"));
        assert!(matches!(
            store.check_extends(&broken),
            Err(BlockStoreError::BrokenChain { .. })
        ));
        let skipped = block(7, h0);
        assert!(matches!(
            store.check_extends(&skipped),
            Err(BlockStoreError::NonSequentialNumber { .. })
        ));
        // The store itself is untouched by any of the checks.
        assert_eq!(store.height(), 1);
    }

    #[test]
    fn missing_lookups_return_none() {
        let store = BlockStore::new();
        assert!(store.block(0).is_none());
        assert!(store.transaction(&TxId::new("nope")).is_none());
        assert!(!store.contains_tx(&TxId::new("nope")));
    }
}
