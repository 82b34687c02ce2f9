//! Assembled transactions and their validation codes.

use crate::identity::Identity;
use crate::ids::{ChaincodeId, ChannelId, TxId};
use crate::proposal::{Endorsement, PayloadCommitment, ProposalResponsePayload};
use crate::rwset::{TxKind, TxRwSet};
use fabric_crypto::{BatchVerifier, PublicKey, Signature};
use fabric_wire::Encode;
use std::fmt;
use std::sync::OnceLock;

/// Why a transaction was marked valid or invalid during the validation
/// phase. Mirrors Fabric's `TxValidationCode`, restricted to the outcomes
/// the simulator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxValidationCode {
    /// Passed endorsement policy and version-conflict checks.
    Valid,
    /// A read version no longer matches the world state (MVCC conflict).
    MvccReadConflict,
    /// Endorsements do not satisfy the applicable endorsement policy.
    EndorsementPolicyFailure,
    /// An endorsement signature failed cryptographic verification.
    InvalidEndorserSignature,
    /// The client signature failed verification.
    InvalidClientSignature,
    /// Rejected by the supplemental defense: an endorsement was produced by
    /// a peer that is not a member of a touched collection.
    NonMemberEndorsement,
    /// A transaction with the same ID was already committed.
    DuplicateTxId,
    /// Structurally bad payload (e.g. endorsers disagreed, missing fields).
    BadPayload,
}

impl_wire_enum!(TxValidationCode {
    Valid = 0,
    MvccReadConflict = 1,
    EndorsementPolicyFailure = 2,
    InvalidEndorserSignature = 3,
    InvalidClientSignature = 4,
    NonMemberEndorsement = 5,
    DuplicateTxId = 6,
    BadPayload = 7,
});

impl TxValidationCode {
    /// True only for [`TxValidationCode::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, TxValidationCode::Valid)
    }
}

impl fmt::Display for TxValidationCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxValidationCode::Valid => "VALID",
            TxValidationCode::MvccReadConflict => "MVCC_READ_CONFLICT",
            TxValidationCode::EndorsementPolicyFailure => "ENDORSEMENT_POLICY_FAILURE",
            TxValidationCode::InvalidEndorserSignature => "INVALID_ENDORSER_SIGNATURE",
            TxValidationCode::InvalidClientSignature => "INVALID_CLIENT_SIGNATURE",
            TxValidationCode::NonMemberEndorsement => "NON_MEMBER_ENDORSEMENT",
            TxValidationCode::DuplicateTxId => "DUPLICATE_TXID",
            TxValidationCode::BadPayload => "BAD_PAYLOAD",
        };
        f.write_str(s)
    }
}

/// Lazily-populated per-transaction byte caches.
///
/// Three canonical encodings are recomputed over and over on the commit
/// path — the payload bytes every endorsement signature covers, the
/// client-signed tuple, and the full transaction wire form (hashed into
/// every block's data hash). With `Arc`-shared blocks, one transaction
/// instance is verified by every peer it fans out to, so caching these
/// on first use turns N-peer validation into one encode total instead of
/// one per peer per signature.
///
/// The cache is invisible everywhere that matters: it is excluded from
/// the wire format, compares equal to any other cache, and `Clone`
/// deliberately yields a *fresh* (empty) cache — a cloned transaction is
/// independently mutable, so carried bytes could go stale.
#[derive(Default)]
pub struct TxMemo {
    payload_wire: OnceLock<Vec<u8>>,
    client_wire: OnceLock<Vec<u8>>,
    tx_wire: OnceLock<Vec<u8>>,
}

impl TxMemo {
    /// A fresh, unpopulated cache.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reads `cell`, filling it from `compute` on a miss.
///
/// Unlike `OnceLock::get_or_init`, a thread that arrives while another is
/// still encoding does not sleep behind it: both encode, the first `set`
/// wins and the loser's identical bytes are dropped. Peers committing one
/// shared block on several threads walk the same transactions in
/// lockstep, so the blocking form would serialize them on every memo.
fn memoized(cell: &OnceLock<Vec<u8>>, compute: impl FnOnce() -> Vec<u8>) -> &[u8] {
    if let Some(bytes) = cell.get() {
        return bytes;
    }
    let _ = cell.set(compute());
    cell.get()
        .expect("set above, by this thread or a racing one")
}

impl Clone for TxMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for TxMemo {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for TxMemo {}

impl fmt::Debug for TxMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxMemo")
            .field("payload_cached", &self.payload_wire.get().is_some())
            .field("client_cached", &self.client_wire.get().is_some())
            .field("tx_cached", &self.tx_wire.get().is_some())
            .finish()
    }
}

/// An assembled transaction as submitted to the ordering service and stored
/// in blocks (Fig. 3): header fields, the representative proposal-response
/// payload, and the collected endorsements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Transaction ID (from the proposal).
    pub tx_id: TxId,
    /// Channel the transaction belongs to.
    pub channel: ChannelId,
    /// Chaincode that produced it.
    pub chaincode: ChaincodeId,
    /// The client that assembled and submitted the transaction.
    pub creator: Identity,
    /// The proposal-response payload all endorsers agreed on. Under
    /// [`PayloadCommitment::HashedPayload`] (New Feature 2) the chaincode
    /// response payload inside is the SHA-256 digest, not the plaintext.
    pub payload: ProposalResponsePayload,
    /// Which payload form the endorsement signatures cover.
    pub commitment: PayloadCommitment,
    /// Collected endorsements.
    pub endorsements: Vec<Endorsement>,
    /// Client signature over the transaction content.
    pub client_signature: Signature,
    /// Lazily-computed byte caches ([`TxMemo`]); excluded from the wire
    /// form and from equality.
    pub memo: TxMemo,
}

// `memo` is a cache, not data: the wire form is exactly the eight
// payload-bearing fields, byte-identical to what `impl_wire_struct!`
// produced before the cache existed (the macro can't skip fields, hence
// the manual impls). Encoding populates — and afterwards reuses — the
// full-transaction cache.
impl fabric_wire::Encode for Transaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        let bytes = memoized(&self.memo.tx_wire, || {
            let mut b = Vec::new();
            self.tx_id.encode(&mut b);
            self.channel.encode(&mut b);
            self.chaincode.encode(&mut b);
            self.creator.encode(&mut b);
            b.extend_from_slice(self.payload_wire());
            self.commitment.encode(&mut b);
            self.endorsements.encode(&mut b);
            self.client_signature.encode(&mut b);
            b
        });
        buf.extend_from_slice(bytes);
    }
}

impl fabric_wire::Decode for Transaction {
    fn decode(r: &mut fabric_wire::Reader<'_>) -> Result<Self, fabric_wire::WireError> {
        Ok(Transaction {
            tx_id: fabric_wire::Decode::decode(r)?,
            channel: fabric_wire::Decode::decode(r)?,
            chaincode: fabric_wire::Decode::decode(r)?,
            creator: fabric_wire::Decode::decode(r)?,
            payload: fabric_wire::Decode::decode(r)?,
            commitment: fabric_wire::Decode::decode(r)?,
            endorsements: fabric_wire::Decode::decode(r)?,
            client_signature: fabric_wire::Decode::decode(r)?,
            memo: TxMemo::default(),
        })
    }
}

/// Which signature failed in [`Transaction::verify_signatures`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureFailure {
    /// The client signature over the assembled transaction is invalid.
    Client,
    /// An endorsement signature is invalid (or there are no endorsements).
    Endorsement,
}

impl Transaction {
    /// The bytes the client signs when assembling the transaction.
    pub fn client_signed_bytes(
        tx_id: &TxId,
        payload: &ProposalResponsePayload,
        endorsements: &[Endorsement],
    ) -> Vec<u8> {
        (tx_id, payload, endorsements).to_wire()
    }

    /// Canonical wire bytes of the payload — the message every
    /// endorsement signature covers — computed once per instance.
    fn payload_wire(&self) -> &[u8] {
        memoized(&self.memo.payload_wire, || self.payload.to_wire())
    }

    /// The client-signed tuple bytes (see
    /// [`Transaction::client_signed_bytes`]), computed once per instance.
    fn client_wire(&self) -> &[u8] {
        memoized(&self.memo.client_wire, || {
            // `signed_bytes(Plain)` is the payload's canonical wire form,
            // so the payload cache doubles as the tuple's middle segment.
            let payload_bytes = self.payload_wire();
            let mut buf =
                Vec::with_capacity(payload_bytes.len() + 96 * self.endorsements.len() + 24);
            self.tx_id.encode(&mut buf);
            buf.extend_from_slice(payload_bytes);
            self.endorsements.encode(&mut buf);
            buf
        })
    }

    /// The read/write sets carried by this transaction.
    pub fn rwset(&self) -> &TxRwSet {
        &self.payload.results
    }

    /// Table-I classification of the carried rwset.
    pub fn kind(&self) -> TxKind {
        self.payload.results.kind()
    }

    /// Verifies every endorsement signature against the stored payload.
    ///
    /// The stored payload is always exactly what the endorsers signed: the
    /// plaintext form originally, or — when the client assembled under New
    /// Feature 2 — the hashed-payload form (`commitment` records which).
    /// Note this is *cryptographic* verification only; whether the
    /// endorsers satisfy the endorsement policy is the committer's policy
    /// check.
    pub fn verify_endorsement_signatures(&self) -> bool {
        let signed = self.payload.signed_bytes(PayloadCommitment::Plain);
        self.endorsements
            .iter()
            .all(|e| e.signature.verify(&e.endorser.public_key, &signed))
    }

    /// Verifies the client signature.
    pub fn verify_client_signature(&self) -> bool {
        let bytes = Self::client_signed_bytes(&self.tx_id, &self.payload, &self.endorsements);
        self.client_signature
            .verify(&self.creator.public_key, &bytes)
    }

    /// Verifies the client signature and every endorsement signature in one
    /// pass; `None` means all of them check out.
    ///
    /// Equivalent to [`Transaction::verify_client_signature`] followed by
    /// an endorsements-present check and
    /// [`Transaction::verify_endorsement_signatures`], but the payload —
    /// the bulk of the signed bytes, shared by every signature — is
    /// serialized once instead of once per verification. This is the
    /// commit pipeline's hot path: every transaction in every block passes
    /// through here.
    pub fn verify_signatures(&self) -> Option<SignatureFailure> {
        self.verify_signatures_impl(|pk, msg, sig| sig.verify(pk, msg))
    }

    /// [`Transaction::verify_signatures`] through a [`BatchVerifier`]:
    /// identical outcome, but each signer's verification material is
    /// resolved from the CA registry once per verifier instead of once per
    /// signature. The overlap commit scheduler keeps one verifier per
    /// validation worker across a whole block stream, so the handful of
    /// endorsing identities that sign every transaction are resolved a
    /// handful of times total.
    pub fn verify_signatures_batched(&self, batch: &mut BatchVerifier) -> Option<SignatureFailure> {
        self.verify_signatures_impl(|pk, msg, sig| batch.verify(pk, msg, sig))
    }

    /// Shared body of the combined signature checks, parameterized over
    /// the primitive verification call.
    ///
    /// Both signed-bytes encodings come from the [`TxMemo`] caches, so
    /// when an `Arc`-shared block fans the same transaction instance out
    /// to N validating peers the serialization work is paid exactly once.
    fn verify_signatures_impl(
        &self,
        mut verify: impl FnMut(&PublicKey, &[u8], &Signature) -> bool,
    ) -> Option<SignatureFailure> {
        let client_bytes = self.client_wire();
        if !verify(
            &self.creator.public_key,
            client_bytes,
            &self.client_signature,
        ) {
            return Some(SignatureFailure::Client);
        }
        if self.endorsements.is_empty() {
            return Some(SignatureFailure::Endorsement);
        }
        let payload_bytes = self.payload_wire();
        for e in &self.endorsements {
            if !verify(&e.endorser.public_key, payload_bytes, &e.signature) {
                return Some(SignatureFailure::Endorsement);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Role;
    use crate::proposal::Response;
    use fabric_crypto::{sha256, Keypair};
    use fabric_wire::Decode;

    fn sample_tx() -> Transaction {
        let client_kp = Keypair::generate_from_seed(21);
        let client = Identity::new("Org1MSP", Role::Client, client_kp.public_key());
        let endorser_kp = Keypair::generate_from_seed(22);
        let endorser = Identity::new("Org1MSP", Role::Peer, endorser_kp.public_key());
        let payload = ProposalResponsePayload {
            proposal_hash: sha256(b"prop"),
            response: Response::ok(b"value".to_vec()),
            results: TxRwSet::new(),
            event: None,
        };
        let commitment = PayloadCommitment::Plain;
        let endorsement = Endorsement {
            endorser,
            signature: endorser_kp.sign(&payload.signed_bytes(commitment)),
        };
        let tx_id = TxId::new("tx-1");
        let endorsements = vec![endorsement];
        let client_signature = client_kp.sign(&Transaction::client_signed_bytes(
            &tx_id,
            &payload,
            &endorsements,
        ));
        Transaction {
            tx_id,
            channel: ChannelId::new("ch1"),
            chaincode: ChaincodeId::new("cc1"),
            creator: client,
            payload,
            commitment,
            endorsements,
            client_signature,
            memo: TxMemo::default(),
        }
    }

    /// The wire format is the ledger's hash pre-image and what Raft
    /// replicates, so it must not move when a type's in-memory form does.
    /// Digests recorded from the `String`-backed identifiers.
    #[test]
    fn golden_bytes_of_a_fixed_transaction_and_block() {
        use crate::rwset::{CollectionHashedRwSet, HashedWrite, NsRwSet};
        use crate::{Block, CollectionName, OrgId};
        use fabric_crypto::Hash256;

        assert_eq!(TxId::new("tx-1").to_wire(), b"\x04tx-1");
        assert_eq!(ChannelId::from("ch1").to_wire(), b"\x03ch1");
        assert_eq!(ChaincodeId::new("cc1").to_wire(), "cc1".to_wire());
        assert_eq!(OrgId::new("Org1MSP").to_wire(), b"\x07Org1MSP");
        assert_eq!(CollectionName::default().to_wire(), [0]);

        let mut tx = sample_tx();
        tx.payload.results.ns_rwsets.push(NsRwSet {
            namespace: ChaincodeId::new("cc1"),
            public: Default::default(),
            metadata_writes: vec![],
            collections: vec![CollectionHashedRwSet {
                collection: CollectionName::new("collectionPDC1"),
                reads: vec![],
                writes: vec![HashedWrite {
                    key_hash: sha256(b"k"),
                    value_hash: Some(sha256(b"v")),
                    is_delete: false,
                }],
            }],
        });
        let wire = tx.to_wire();
        assert_eq!(wire.len(), 295);
        assert_eq!(
            sha256(&wire).to_hex(),
            "b6a65ae3917b7d7c8793303f01ceecbc2af1285ace84a2087fd7ef33ce65067b"
        );
        assert_eq!(Transaction::from_wire(&wire).unwrap(), tx);
        let block = Block::new(7, Hash256::default(), vec![tx]);
        assert_eq!(
            sha256(&block.to_wire()).to_hex(),
            "7d095e20de908c5cf6204c260b6feaa75c7dbfb7a5532cca9080b4e2560d3162"
        );
    }

    #[test]
    fn signatures_verify() {
        let tx = sample_tx();
        assert!(tx.verify_endorsement_signatures());
        assert!(tx.verify_client_signature());
        assert_eq!(tx.verify_signatures(), None);
    }

    #[test]
    fn tampering_payload_breaks_endorsements() {
        let mut tx = sample_tx();
        tx.payload.response.payload = b"forged".to_vec();
        assert!(!tx.verify_endorsement_signatures());
        // The client signature also covered the payload, so the combined
        // check reports the client failure first.
        assert_eq!(tx.verify_signatures(), Some(SignatureFailure::Client));
    }

    #[test]
    fn tampering_endorsements_breaks_client_signature() {
        let mut tx = sample_tx();
        tx.endorsements.clear();
        assert!(!tx.verify_client_signature());
        assert_eq!(tx.verify_signatures(), Some(SignatureFailure::Client));
    }

    #[test]
    fn combined_verify_matches_separate_checks() {
        // A valid transaction, a forged endorsement signature, and a forged
        // client signature must agree between the combined one-pass check
        // and the two original ones.
        let good = sample_tx();
        let mut bad_endorsement = sample_tx();
        bad_endorsement.endorsements[0].signature =
            Keypair::generate_from_seed(99).sign(b"wrong bytes");
        // Re-sign as the client so only the endorsement is at fault.
        let client_kp = Keypair::generate_from_seed(21);
        bad_endorsement.client_signature = client_kp.sign(&Transaction::client_signed_bytes(
            &bad_endorsement.tx_id,
            &bad_endorsement.payload,
            &bad_endorsement.endorsements,
        ));
        let mut bad_client = sample_tx();
        bad_client.client_signature = Keypair::generate_from_seed(98).sign(b"wrong bytes");

        assert_eq!(good.verify_signatures(), None);
        assert_eq!(
            bad_endorsement.verify_signatures(),
            Some(SignatureFailure::Endorsement)
        );
        assert!(bad_endorsement.verify_client_signature());
        assert!(!bad_endorsement.verify_endorsement_signatures());
        assert_eq!(
            bad_client.verify_signatures(),
            Some(SignatureFailure::Client)
        );
    }

    #[test]
    fn batched_verify_matches_per_call_verify() {
        let good = sample_tx();
        let mut bad_endorsement = sample_tx();
        bad_endorsement.endorsements[0].signature =
            Keypair::generate_from_seed(99).sign(b"wrong bytes");
        let client_kp = Keypair::generate_from_seed(21);
        bad_endorsement.client_signature = client_kp.sign(&Transaction::client_signed_bytes(
            &bad_endorsement.tx_id,
            &bad_endorsement.payload,
            &bad_endorsement.endorsements,
        ));
        let mut bad_client = sample_tx();
        bad_client.client_signature = Keypair::generate_from_seed(98).sign(b"wrong bytes");
        let mut no_endorsements = sample_tx();
        no_endorsements.endorsements.clear();
        no_endorsements.client_signature = client_kp.sign(&Transaction::client_signed_bytes(
            &no_endorsements.tx_id,
            &no_endorsements.payload,
            &no_endorsements.endorsements,
        ));

        // One shared verifier across all four transactions, twice over, so
        // every identity is exercised both cold and cached.
        let mut batch = BatchVerifier::new();
        for _ in 0..2 {
            for tx in [&good, &bad_endorsement, &bad_client, &no_endorsements] {
                assert_eq!(
                    tx.verify_signatures_batched(&mut batch),
                    tx.verify_signatures()
                );
            }
        }
    }

    #[test]
    fn wire_roundtrip() {
        let tx = sample_tx();
        assert_eq!(Transaction::from_wire(&tx.to_wire()).unwrap(), tx);
    }

    #[test]
    fn memoized_signed_bytes_match_fresh_encodings() {
        let tx = sample_tx();
        assert_eq!(tx.verify_signatures(), None); // populates the caches
        assert_eq!(
            tx.memo.payload_wire.get().unwrap().as_slice(),
            tx.payload.to_wire()
        );
        assert_eq!(
            tx.memo.client_wire.get().unwrap().as_slice(),
            Transaction::client_signed_bytes(&tx.tx_id, &tx.payload, &tx.endorsements)
        );
        // A second verification must reuse the caches and agree.
        assert_eq!(tx.verify_signatures(), None);
    }

    #[test]
    fn racing_threads_fill_the_memos_with_a_fresh_encodes_bytes() {
        // Many cold instances, two threads released together on each, so
        // the memo race (both miss, both encode, one `set` wins) actually
        // happens; whoever wins, both must read a fresh encode's bytes.
        let expected = sample_tx();
        let fresh = (
            expected.to_wire(),
            expected.payload.to_wire(),
            Transaction::client_signed_bytes(
                &expected.tx_id,
                &expected.payload,
                &expected.endorsements,
            ),
        );
        let txs: Vec<Transaction> = (0..256).map(|_| sample_tx()).collect();
        let barriers: Vec<std::sync::Barrier> =
            (0..txs.len()).map(|_| std::sync::Barrier::new(2)).collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for (tx, barrier) in txs.iter().zip(&barriers) {
                        barrier.wait();
                        assert_eq!(tx.verify_signatures(), None);
                        assert_eq!(tx.to_wire(), fresh.0);
                        assert_eq!(tx.payload_wire(), fresh.1);
                        assert_eq!(tx.client_wire(), fresh.2);
                    }
                });
            }
        });
    }

    #[test]
    fn memo_is_reset_on_clone_and_excluded_from_equality() {
        let tx = sample_tx();
        let bytes = tx.to_wire(); // populates the full-tx cache
        assert!(tx.memo.tx_wire.get().is_some());
        let cloned = tx.clone();
        // The clone starts cold — it may be mutated independently — yet
        // still encodes to the same bytes and compares equal.
        assert!(cloned.memo.tx_wire.get().is_none());
        assert_eq!(cloned.to_wire(), bytes);
        assert_eq!(cloned, tx);
    }

    #[test]
    fn clone_then_tamper_reencodes_honestly() {
        // The cache must never leak a pre-mutation encoding: cloning
        // resets it, so a tampered clone hashes to different bytes.
        let tx = sample_tx();
        let original = tx.to_wire();
        let mut forged = tx.clone();
        forged.payload.response.payload = b"forged".to_vec();
        assert_ne!(forged.to_wire(), original);
    }

    #[test]
    fn validation_code_display_and_validity() {
        assert!(TxValidationCode::Valid.is_valid());
        assert!(!TxValidationCode::MvccReadConflict.is_valid());
        assert_eq!(
            TxValidationCode::EndorsementPolicyFailure.to_string(),
            "ENDORSEMENT_POLICY_FAILURE"
        );
    }
}
