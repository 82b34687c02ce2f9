//! Assembled transactions and their validation codes.

use crate::identity::Identity;
use crate::ids::{ChaincodeId, ChannelId, TxId};
use crate::proposal::{Endorsement, PayloadCommitment, ProposalResponsePayload};
use crate::rwset::{TxKind, TxRwSet};
use fabric_crypto::{sha256, BatchVerifier, Hash256, PublicKey, Sha256, Signature};
use fabric_wire::{Decode, Encode, Reader, WireBytes, WireError};
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
    /// Every code, in declaration order: `ALL[code as usize] == code`.
    pub const ALL: [TxValidationCode; 8] = [
        TxValidationCode::Valid,
        TxValidationCode::MvccReadConflict,
        TxValidationCode::EndorsementPolicyFailure,
        TxValidationCode::InvalidEndorserSignature,
        TxValidationCode::InvalidClientSignature,
        TxValidationCode::NonMemberEndorsement,
        TxValidationCode::DuplicateTxId,
        TxValidationCode::BadPayload,
    ];

    /// True only for [`TxValidationCode::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, TxValidationCode::Valid)
    }

    /// Fabric's name for the code, e.g. `MVCC_READ_CONFLICT`.
    pub fn as_str(&self) -> &'static str {
        match self {
            TxValidationCode::Valid => "VALID",
            TxValidationCode::MvccReadConflict => "MVCC_READ_CONFLICT",
            TxValidationCode::EndorsementPolicyFailure => "ENDORSEMENT_POLICY_FAILURE",
            TxValidationCode::InvalidEndorserSignature => "INVALID_ENDORSER_SIGNATURE",
            TxValidationCode::InvalidClientSignature => "INVALID_CLIENT_SIGNATURE",
            TxValidationCode::NonMemberEndorsement => "NON_MEMBER_ENDORSEMENT",
            TxValidationCode::DuplicateTxId => "DUPLICATE_TXID",
            TxValidationCode::BadPayload => "BAD_PAYLOAD",
        }
    }
}

impl fmt::Display for TxValidationCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-transaction digests, seeded by decode or filled on first use.
///
/// Every peer checks the same three things about a committed transaction:
/// the endorsement signatures over the payload, the client signature over
/// the `(tx_id, payload, endorsements)` tuple, and the block's data hash
/// over the transaction. Signatures cover SHA-256 digests, and with
/// `Arc`-shared blocks one transaction instance reaches every peer, so the
/// three digests are computed once and read by everyone after: a decoded
/// transaction (every one the orderer cuts into a block) arrives with them
/// hashed from the bytes it was decoded from, and one built in memory
/// fills them when first touched. Each peer still runs its own keyed check
/// against them and compares against its own header: what is shared is a
/// function of immutable bytes, not a verdict.
///
/// `payload_wire` stays as bytes: it is the middle segment of both the
/// client tuple and the transaction encoding. Encoding reads it but never
/// fills it.
///
/// The memo is invisible everywhere that matters: it is excluded from
/// the wire format, compares equal to any other memo, and `Clone`
/// deliberately yields a *fresh* (empty) one — a cloned transaction is
/// independently mutable, so carried digests could go stale.
#[derive(Default)]
pub struct TxMemo {
    payload_wire: OnceLock<WireBytes>,
    payload_digest: OnceLock<Hash256>,
    client_digest: OnceLock<Hash256>,
    tx_digest: OnceLock<Hash256>,
}

impl TxMemo {
    /// A fresh, unpopulated memo.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reads `cell`, filling it from `compute` on a miss.
///
/// Unlike `OnceLock::get_or_init`, a thread that arrives while another is
/// still computing does not sleep behind it: both compute, the first `set`
/// wins and the loser's identical value is dropped. Peers committing one
/// shared block on several threads walk the same transactions in
/// lockstep, so the blocking form would serialize them on every memo.
fn memoized<T>(cell: &OnceLock<T>, compute: impl FnOnce() -> T) -> &T {
    if let Some(value) = cell.get() {
        return value;
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
            .field("payload_digest", &self.payload_digest.get())
            .field("client_digest", &self.client_digest.get())
            .field("tx_digest", &self.tx_digest.get())
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
    /// Memoized digests ([`TxMemo`]); excluded from the wire form and from
    /// equality.
    pub memo: TxMemo,
}

// `memo` is a cache, not data: the wire form is exactly the eight
// payload-bearing fields, byte-identical to what `impl_wire_struct!`
// would produce (the macro can't skip fields, hence the manual impls).
impl Encode for Transaction {
    /// Copies a warm `payload_wire`; with a cold memo the payload is
    /// encoded straight into `buf` and the memo stays cold, since the
    /// orderer encodes a batch only to drop it.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tx_id.encode(buf);
        self.channel.encode(buf);
        self.chaincode.encode(buf);
        self.creator.encode(buf);
        match self.memo.payload_wire.get() {
            Some(wire) => buf.extend_from_slice(wire),
            None => self.payload.encode(buf),
        }
        self.commitment.encode(buf);
        self.endorsements.encode(buf);
        self.client_signature.encode(buf);
    }
}

impl Decode for Transaction {
    /// Decodes the eight fields and seeds every memo cell from the byte
    /// ranges they were read from, without encoding anything: the payload
    /// range is `payload_wire` (a range of the input when `r` reads shared
    /// bytes), and the digests are hashes of the ranges. Decoding is
    /// canonical (`crates/wire/tests/decode_canonical.rs`), so the ranges
    /// are the bytes a fresh encode would produce; debug builds check
    /// that byte for byte.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let start = r.position();
        let tx_id = TxId::decode(r)?;
        let tx_id_wire = r.consumed_since(start);
        let channel = ChannelId::decode(r)?;
        let chaincode = ChaincodeId::decode(r)?;
        let creator = Identity::decode(r)?;
        let at = r.position();
        let payload = ProposalResponsePayload::decode(r)?;
        let payload_wire = r.wire_since(at);
        let commitment = PayloadCommitment::decode(r)?;
        let at = r.position();
        let endorsements = Vec::<Endorsement>::decode(r)?;
        let endorsements_wire = r.consumed_since(at);
        let client_signature = Signature::decode(r)?;
        let wire = r.consumed_since(start);
        let cold = Transaction {
            tx_id,
            channel,
            chaincode,
            creator,
            payload,
            commitment,
            endorsements,
            client_signature,
            memo: TxMemo::default(),
        };
        #[cfg(debug_assertions)]
        {
            assert_reencodes(&cold.tx_id, tx_id_wire);
            assert_reencodes(&cold.payload, &payload_wire);
            assert_reencodes(&cold.endorsements, endorsements_wire);
            assert_reencodes(&cold, wire);
        }
        let memo = TxMemo {
            payload_digest: sha256(&payload_wire).into(),
            client_digest: tuple_digest(tx_id_wire, &payload_wire, endorsements_wire).into(),
            tx_digest: sha256(wire).into(),
            payload_wire: payload_wire.into(),
        };
        Ok(Transaction { memo, ..cold })
    }
}

/// Panics unless `value` encodes to exactly `consumed`, the bytes it was
/// decoded from.
#[cfg(debug_assertions)]
fn assert_reencodes(value: &impl Encode, consumed: &[u8]) {
    thread_local! {
        // Reused, so the check allocates nothing per transaction and the
        // allocation budgets read the same in debug and release builds.
        static FRESH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    FRESH.with_borrow_mut(|fresh| {
        fresh.clear();
        value.encode(fresh);
        assert!(
            fresh.as_slice() == consumed,
            "decoded bytes are not the one encoding of their value"
        );
    });
}

/// `SHA-256` of the client-signed tuple, from its three encoded segments.
fn tuple_digest(tx_id_wire: &[u8], payload_wire: &[u8], endorsements_wire: &[u8]) -> Hash256 {
    let mut hasher = Sha256::new();
    hasher.update(tx_id_wire);
    hasher.update(payload_wire);
    hasher.update(endorsements_wire);
    hasher.finalize()
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

    /// `SHA-256` of [`Transaction::client_signed_bytes`] given the
    /// payload's canonical bytes: the digest the client signs. The tuple
    /// is streamed segment by segment, so the payload is not encoded
    /// again.
    pub fn client_signed_digest(
        tx_id: &TxId,
        payload_wire: &[u8],
        endorsements: &[Endorsement],
    ) -> Hash256 {
        let mut segments = Vec::with_capacity(96 * endorsements.len() + 72);
        tx_id.encode(&mut segments);
        let split = segments.len();
        endorsements.encode(&mut segments);
        tuple_digest(&segments[..split], payload_wire, &segments[split..])
    }

    /// Canonical wire bytes of the payload — the message every
    /// endorsement signature covers — computed once per instance.
    fn payload_wire(&self) -> &[u8] {
        let wire: &WireBytes = memoized(&self.memo.payload_wire, || self.payload.to_wire().into());
        wire
    }

    /// `SHA-256` of the payload bytes: what the endorsers signed.
    fn payload_digest(&self) -> &Hash256 {
        memoized(&self.memo.payload_digest, || sha256(self.payload_wire()))
    }

    /// `SHA-256` of the client-signed tuple: `signed_bytes(Plain)` is the
    /// payload's canonical wire form, so the memoized payload bytes are the
    /// tuple's middle segment.
    fn client_digest(&self) -> &Hash256 {
        memoized(&self.memo.client_digest, || {
            Self::client_signed_digest(&self.tx_id, self.payload_wire(), &self.endorsements)
        })
    }

    /// `SHA-256` of the canonical transaction encoding: this
    /// transaction's contribution to a block's data hash.
    pub(crate) fn tx_digest(&self) -> &Hash256 {
        memoized(&self.memo.tx_digest, || {
            let payload_len = self.payload_wire().len();
            let mut wire = Vec::with_capacity(payload_len + 96 * self.endorsements.len() + 256);
            self.encode(&mut wire);
            sha256(&wire)
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
    /// [`Transaction::verify_endorsement_signatures`], but against the
    /// memoized digests: whoever touches a shared instance first hashes
    /// the signed bytes, and every later verification costs two
    /// compressions per signature.
    pub fn verify_signatures(&self) -> Option<SignatureFailure> {
        self.verify_signatures_impl(|pk, digest, sig| sig.verify_digest(pk, digest))
    }

    /// [`Transaction::verify_signatures`] through a [`BatchVerifier`]:
    /// identical outcome, but each signer's verification material is
    /// resolved from the CA registry once per verifier instead of once per
    /// signature. This is the commit path's form: one verifier per block.
    pub fn verify_signatures_batched(&self, batch: &mut BatchVerifier) -> Option<SignatureFailure> {
        self.verify_signatures_impl(|pk, digest, sig| batch.verify_digest(pk, digest, sig))
    }

    /// Shared body of the combined signature checks, parameterized over
    /// the primitive verification call.
    fn verify_signatures_impl(
        &self,
        mut verify: impl FnMut(&PublicKey, &Hash256, &Signature) -> bool,
    ) -> Option<SignatureFailure> {
        if !verify(
            &self.creator.public_key,
            self.client_digest(),
            &self.client_signature,
        ) {
            return Some(SignatureFailure::Client);
        }
        if self.endorsements.is_empty() {
            return Some(SignatureFailure::Endorsement);
        }
        let payload_digest = self.payload_digest();
        for e in &self.endorsements {
            if !verify(&e.endorser.public_key, payload_digest, &e.signature) {
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
    use fabric_crypto::Keypair;
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
    ///
    /// Re-recorded twice. When signatures became hash-then-sign and the
    /// data hash two-level, the 32 signature bytes of each signer, the
    /// header's data hash and with it the header hash moved. When the
    /// delete flag left the write (a delete is a write with no value),
    /// each write lost its flag byte. The `PARENT_*` constants are what
    /// the definitions before both changes produced: with the flag byte
    /// put back and them spliced over the new values, the encodings must
    /// reproduce the first recorded ones byte for byte, which pins the
    /// lengths and every other field.
    #[test]
    fn golden_bytes_of_a_fixed_transaction_and_block() {
        use crate::rwset::{CollectionHashedRwSet, HashedWrite, NsRwSet};
        use crate::{Block, CollectionName, OrgId};

        const PARENT_ENDORSER_SIG: &str =
            "90fc6033bbd5a7806356bf4114dc1d67590ab6b4f5c9a23b0ef17dc412dd676a";
        const PARENT_CLIENT_SIG: &str =
            "de185dac9c78954d3e3f4bafa6e000135e256fd5a1e584db9e0b38a427a67235";
        const PARENT_DATA_HASH: &str =
            "264ae8d517f89d77bebe5978326562371f6a1ed12c9fc64bfb3b605350f0273e";
        /// Where the one occurrence of `value` in `wire` starts.
        fn find(wire: &[u8], value: &[u8; 32]) -> usize {
            let at: Vec<usize> = (0..=wire.len() - 32)
                .filter(|&i| wire[i..i + 32] == value[..])
                .collect();
            assert_eq!(at.len(), 1, "value occurs once");
            at[0]
        }
        /// Overwrites the one occurrence of `new` in `wire` with `parent`.
        fn splice(wire: &mut [u8], new: &[u8; 32], parent: &str) {
            let parent = Hash256::from_hex(parent).expect("hex constant");
            let at = find(wire, new);
            wire[at..at + 32].copy_from_slice(parent.as_bytes());
        }
        /// `wire` with the write's delete flag (`false`) back after its
        /// value hash, where the parent encoding held it.
        fn with_delete_flag(mut wire: Vec<u8>) -> Vec<u8> {
            wire.insert(find(&wire, sha256(b"v").as_bytes()) + 32, 0);
            wire
        }

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
                }],
            }],
        });
        let wire = tx.to_wire();
        assert_eq!(wire.len(), 294);
        assert_eq!(
            sha256(&wire).to_hex(),
            "ee77ea9c6db7a72ba1552f601559f23245176d4afb9a306fb0a8f2dab2c7af49"
        );
        assert_eq!(*tx.tx_digest(), sha256(&wire));
        assert_eq!(Transaction::from_wire(&wire).unwrap(), tx);
        let endorser_sig = *tx.endorsements[0].signature.as_bytes();
        let client_sig = *tx.client_signature.as_bytes();
        let mut as_parent = with_delete_flag(wire);
        splice(&mut as_parent, &endorser_sig, PARENT_ENDORSER_SIG);
        splice(&mut as_parent, &client_sig, PARENT_CLIENT_SIG);
        assert_eq!(
            sha256(&as_parent).to_hex(),
            "b6a65ae3917b7d7c8793303f01ceecbc2af1285ace84a2087fd7ef33ce65067b"
        );

        let block = Block::new(7, Hash256::default(), vec![tx]);
        let block_wire = block.to_wire();
        assert_eq!(block_wire.len(), 363);
        assert_eq!(
            block.header.data_hash.to_hex(),
            "04b07cd44dd89674395acd4736aed2c52d57dcd06cb66a583d45690b625fdd93"
        );
        assert_eq!(
            block.hash().to_hex(),
            "814792e8f002364dcdfe958aa73dc5b75c39781df00af7db77a4ec766864bd73"
        );
        assert_eq!(
            sha256(&block_wire).to_hex(),
            "0ad6085bf69a0acfff56c7b191ab52acb7e34b911b62944b12be91ca21603a45"
        );
        let mut as_parent = with_delete_flag(block_wire);
        splice(&mut as_parent, &endorser_sig, PARENT_ENDORSER_SIG);
        splice(&mut as_parent, &client_sig, PARENT_CLIENT_SIG);
        splice(
            &mut as_parent,
            block.header.data_hash.as_bytes(),
            PARENT_DATA_HASH,
        );
        assert_eq!(
            sha256(&as_parent).to_hex(),
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
        let wire = tx.to_wire();
        assert!(
            tx.memo.payload_wire.get().is_none(),
            "encoding fills no memo"
        );
        assert_eq!(tx.verify_signatures(), None); // fills the signature memos
        assert_eq!(tx.memo.tx_digest.get(), None);
        assert_eq!(**tx.memo.payload_wire.get().unwrap(), tx.payload.to_wire());
        assert_eq!(tx.to_wire(), wire, "a warm memo encodes the same bytes");
        assert_eq!(
            tx.memo.payload_digest.get(),
            Some(&sha256(&tx.payload.to_wire()))
        );
        assert_eq!(
            tx.memo.client_digest.get(),
            Some(&sha256(&Transaction::client_signed_bytes(
                &tx.tx_id,
                &tx.payload,
                &tx.endorsements
            )))
        );
        assert_eq!(*tx.tx_digest(), sha256(&tx.clone().to_wire()));
        // A second verification must reuse the memos and agree.
        assert_eq!(tx.verify_signatures(), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_warm_memo_costs_two_compressions_per_signature() {
        let tx = sample_tx();
        let mut batch = BatchVerifier::new();
        assert_eq!(tx.verify_signatures_batched(&mut batch), None);
        tx.tx_digest();
        let before = fabric_crypto::compressions_on_this_thread();
        assert_eq!(tx.verify_signatures_batched(&mut batch), None);
        assert_eq!(tx.verify_signatures(), None);
        tx.tx_digest();
        // Client + one endorser, twice over.
        assert_eq!(fabric_crypto::compressions_on_this_thread() - before, 8);
    }

    #[test]
    fn racing_threads_fill_the_memos_with_a_fresh_encodes_bytes() {
        // Many cold instances, two threads released together on each, so
        // the memo race (both miss, both hash, one `set` wins) actually
        // happens; whoever wins, both must read what a fresh hash gives.
        let expected = sample_tx();
        let fresh = (
            expected.to_wire(),
            sha256(&expected.to_wire()),
            sha256(&expected.payload.to_wire()),
            sha256(&Transaction::client_signed_bytes(
                &expected.tx_id,
                &expected.payload,
                &expected.endorsements,
            )),
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
                        assert_eq!(*tx.tx_digest(), fresh.1);
                        assert_eq!(*tx.payload_digest(), fresh.2);
                        assert_eq!(*tx.client_digest(), fresh.3);
                    }
                });
            }
        });
    }

    #[test]
    fn memo_is_reset_on_clone_and_excluded_from_equality() {
        let tx = sample_tx();
        let digest = *tx.tx_digest();
        assert_eq!(tx.verify_signatures(), None);
        let cloned = tx.clone();
        // The clone starts cold — it may be mutated independently — yet
        // still hashes to the same digest and compares equal.
        assert!(cloned.memo.payload_wire.get().is_none());
        assert!(cloned.memo.payload_digest.get().is_none());
        assert!(cloned.memo.client_digest.get().is_none());
        assert!(cloned.memo.tx_digest.get().is_none());
        assert_eq!(*cloned.tx_digest(), digest);
        assert_eq!(cloned, tx);
    }

    #[test]
    fn clone_then_tamper_reencodes_honestly() {
        // The memo must never leak a pre-mutation digest: cloning resets
        // it, so a tampered clone encodes, hashes and verifies as what it
        // now is.
        let tx = sample_tx();
        let original = (tx.to_wire(), *tx.tx_digest());
        assert_eq!(tx.verify_signatures(), None);
        let mut forged = tx.clone();
        forged.payload.response.payload = b"forged".to_vec();
        assert_ne!(forged.to_wire(), original.0);
        assert_ne!(*forged.tx_digest(), original.1);
        assert_eq!(forged.verify_signatures(), Some(SignatureFailure::Client));
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

    /// `ALL` is indexed by `code as usize` (per-code metric handles), so it
    /// must list every code the wire format knows, at its tag.
    #[test]
    fn all_lists_every_code_at_its_wire_tag() {
        for (tag, code) in TxValidationCode::ALL.iter().enumerate() {
            assert_eq!(*code as usize, tag);
            assert_eq!(TxValidationCode::from_wire(&[tag as u8]).as_ref(), Ok(code));
        }
        assert!(TxValidationCode::from_wire(&[TxValidationCode::ALL.len() as u8]).is_err());
    }
}

/// Memo soundness: whatever a [`TxMemo`] holds, every way of checking a
/// transaction gives the answer a from-scratch check gives.
#[cfg(test)]
mod memo_proptests {
    use super::*;
    use crate::identity::Role;
    use crate::proposal::{ChaincodeEvent, Response};
    use crate::rwset::{KvWrite, NsRwSet};
    use crate::Block;
    use fabric_crypto::Keypair;
    use fabric_wire::Decode;
    use proptest::prelude::*;

    /// What is wrong with a generated transaction, if anything.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        None,
        EndorserSignature,
        ClientSignature,
        UnknownEndorser,
        UnknownClient,
    }

    #[derive(Debug, Clone)]
    struct TxSpec {
        id: u64,
        endorsers: usize,
        value: Vec<u8>,
        writes: usize,
        event: bool,
        fault: Fault,
    }

    fn arb_tx() -> impl Strategy<Value = TxSpec> {
        (
            any::<u64>(),
            0usize..4,
            proptest::collection::vec(any::<u8>(), 0..80),
            0usize..4,
            any::<bool>(),
            0u8..8,
        )
            .prop_map(|(id, endorsers, value, writes, event, fault)| TxSpec {
                id,
                endorsers,
                value,
                writes,
                event,
                // Half the transactions are sound.
                fault: match fault {
                    0 => Fault::EndorserSignature,
                    1 => Fault::ClientSignature,
                    2 => Fault::UnknownEndorser,
                    3 => Fault::UnknownClient,
                    _ => Fault::None,
                },
            })
    }

    fn unregistered_key() -> PublicKey {
        PublicKey::from_wire(&[9u8; 32]).expect("32 bytes")
    }

    fn build(spec: &TxSpec) -> Transaction {
        let client_kp = Keypair::generate_from_seed(700);
        let mut creator = Identity::new("Org1MSP", Role::Client, client_kp.public_key());
        let mut results = TxRwSet::new();
        if spec.writes > 0 {
            let mut ns = NsRwSet {
                namespace: ChaincodeId::new("cc1"),
                public: Default::default(),
                metadata_writes: vec![],
                collections: vec![],
            };
            ns.public.writes = (0..spec.writes)
                .map(|i| KvWrite {
                    key: format!("k{i}"),
                    value: Some(spec.value.clone()),
                })
                .collect();
            results.ns_rwsets.push(ns);
        }
        let payload = ProposalResponsePayload {
            proposal_hash: sha256(&spec.id.to_be_bytes()),
            response: Response::ok(spec.value.clone()),
            results,
            event: spec.event.then(|| ChaincodeEvent {
                name: "e".into(),
                payload: spec.value.clone(),
            }),
        };
        let signed = payload.signed_bytes(PayloadCommitment::Plain);
        let mut endorsements: Vec<Endorsement> = (0..spec.endorsers)
            .map(|i| {
                let kp = Keypair::generate_from_seed(701 + i as u64);
                Endorsement {
                    endorser: Identity::new(format!("Org{i}MSP"), Role::Peer, kp.public_key()),
                    signature: kp.sign(&signed),
                }
            })
            .collect();
        if let Some(last) = endorsements.last_mut() {
            match spec.fault {
                Fault::EndorserSignature => last.signature = client_kp.sign(&signed),
                Fault::UnknownEndorser => last.endorser.public_key = unregistered_key(),
                _ => {}
            }
        }
        let tx_id = TxId::new(format!("{:016x}", spec.id));
        let tuple = Transaction::client_signed_bytes(&tx_id, &payload, &endorsements);
        let client_signature = match spec.fault {
            Fault::ClientSignature => client_kp.sign(b"something else"),
            _ => client_kp.sign(&tuple),
        };
        if spec.fault == Fault::UnknownClient {
            creator.public_key = unregistered_key();
        }
        Transaction {
            tx_id,
            channel: ChannelId::new("ch1"),
            chaincode: ChaincodeId::new("cc1"),
            creator,
            payload,
            commitment: PayloadCommitment::Plain,
            endorsements,
            client_signature,
            memo: TxMemo::default(),
        }
    }

    /// The verdict of the two un-memoized checks, in the combined check's
    /// order.
    fn from_scratch(tx: &Transaction) -> Option<SignatureFailure> {
        if !tx.verify_client_signature() {
            Some(SignatureFailure::Client)
        } else if tx.endorsements.is_empty() || !tx.verify_endorsement_signatures() {
            Some(SignatureFailure::Endorsement)
        } else {
            None
        }
    }

    fn memo_is_cold(tx: &Transaction) -> bool {
        let memo = &tx.memo;
        memo.payload_wire.get().is_none()
            && memo.payload_digest.get().is_none()
            && memo.client_digest.get().is_none()
            && memo.tx_digest.get().is_none()
    }

    type Cells = (
        Option<Vec<u8>>,
        Option<Hash256>,
        Option<Hash256>,
        Option<Hash256>,
    );

    /// What the four memo cells hold right now.
    fn cells(tx: &Transaction) -> Cells {
        let memo = &tx.memo;
        (
            memo.payload_wire.get().map(|wire| wire.to_vec()),
            memo.payload_digest.get().copied(),
            memo.client_digest.get().copied(),
            memo.tx_digest.get().copied(),
        )
    }

    /// What a cold copy of `tx` fills its four cells with.
    fn cold_cells(tx: &Transaction) -> Cells {
        let cold = tx.clone();
        assert!(memo_is_cold(&cold));
        (
            Some(cold.payload_wire().to_vec()),
            Some(*cold.payload_digest()),
            Some(*cold.client_digest()),
            Some(*cold.tx_digest()),
        )
    }

    /// A batch decoded through a borrowing and through a sharing reader.
    fn decode_both_ways(wire: &[u8]) -> [Result<Vec<Transaction>, fabric_wire::WireError>; 2] {
        let shared: std::sync::Arc<[u8]> = wire.into();
        [
            Vec::<Transaction>::from_wire(wire),
            Vec::<Transaction>::from_shared_wire(&shared),
        ]
    }

    /// Everything some signature covers, the signers' keys included.
    fn signed_fields(
        tx: &Transaction,
    ) -> (
        &TxId,
        &ProposalResponsePayload,
        &[Endorsement],
        &Signature,
        &PublicKey,
    ) {
        (
            &tx.tx_id,
            &tx.payload,
            &tx.endorsements,
            &tx.client_signature,
            &tx.creator.public_key,
        )
    }

    /// Every way to change something a signature covers; `which` picks.
    fn tamper(tx: &mut Transaction, which: usize) {
        let last = tx.endorsements.len() - 1;
        match which % 9 {
            0 => tx.tx_id = TxId::new(format!("{}0", tx.tx_id)),
            1 => tx.payload.proposal_hash.0[31] ^= 1,
            2 => tx.payload.response.payload.push(0),
            3 => tx.payload.response.status ^= 1,
            4 => tx.payload.results.ns_rwsets.push(NsRwSet {
                namespace: ChaincodeId::new("cc2"),
                public: Default::default(),
                metadata_writes: vec![],
                collections: vec![],
            }),
            5 => {
                tx.payload.event = match tx.payload.event.take() {
                    Some(_) => None,
                    None => Some(ChaincodeEvent {
                        name: "forged".into(),
                        payload: vec![],
                    }),
                }
            }
            6 => tx.endorsements[last].endorser.org = crate::OrgId::new("OrgXMSP"),
            7 => {
                let mut bytes = *tx.endorsements[last].signature.as_bytes();
                bytes[0] ^= 1;
                tx.endorsements[last].signature = Signature::from_bytes(bytes);
            }
            _ => {
                let again = tx.endorsements[last].clone();
                tx.endorsements.push(again);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cold_warm_batched_and_from_scratch_checks_agree(
            specs in proptest::collection::vec(arb_tx(), 1..8),
        ) {
            let txs: Vec<Transaction> = specs.iter().map(build).collect();
            let mut batch = BatchVerifier::new();
            for (tx, spec) in txs.iter().zip(&specs) {
                let expected = from_scratch(tx);
                prop_assert_eq!(
                    expected.is_none(),
                    spec.endorsers > 0 && spec.fault == Fault::None
                );
                prop_assert!(memo_is_cold(tx), "the un-memoized checks leave no memo");
                prop_assert_eq!(tx.clone().verify_signatures_batched(&mut batch), expected);
                prop_assert_eq!(tx.verify_signatures(), expected);
                prop_assert_eq!(tx.verify_signatures(), expected);
                prop_assert_eq!(tx.verify_signatures_batched(&mut batch), expected);
                prop_assert_eq!(from_scratch(tx), expected);
            }

            // The block's hash over warm, shared transactions is the hash
            // over their cold deep copies.
            let block = Block::new(1, Hash256::default(), txs);
            let copies: Vec<Transaction> = block.transactions.to_vec();
            prop_assert!(copies.iter().all(memo_is_cold));
            prop_assert_eq!(Block::compute_data_hash(&copies), block.header.data_hash);
            prop_assert!(block.data_hash_is_consistent());
        }

        #[test]
        fn a_tampered_clone_fails_and_rehashes(
            spec in arb_tx(),
            endorsers in 1usize..4,
            which in 0usize..9,
            others in proptest::collection::vec(arb_tx(), 0..4),
            position in 0usize..4,
        ) {
            let tx = build(&TxSpec { fault: Fault::None, endorsers, ..spec });
            prop_assert_eq!(tx.verify_signatures(), None);
            let digest = *tx.tx_digest();

            let mut forged = tx.clone();
            prop_assert!(memo_is_cold(&forged));
            tamper(&mut forged, which);
            prop_assert_eq!(forged.verify_signatures(), from_scratch(&forged));
            prop_assert!(forged.verify_signatures().is_some(), "mutation {which} verifies");
            prop_assert_ne!(*forged.tx_digest(), digest);
            prop_assert_eq!(*forged.tx_digest(), sha256(&forged.to_wire()));

            // Swapped into a block under the honest header, it is caught.
            let mut txs: Vec<Transaction> = others.iter().map(build).collect();
            let position = position.min(txs.len());
            txs.insert(position, tx);
            let honest = Block::new(1, Hash256::default(), txs.clone());
            txs[position] = forged;
            let swapped = Block {
                transactions: txs.into(),
                ..honest.clone()
            };
            prop_assert!(honest.data_hash_is_consistent());
            prop_assert!(!swapped.data_hash_is_consistent());
        }

        #[test]
        fn decoding_seeds_what_a_cold_instance_computes(
            specs in proptest::collection::vec(arb_tx(), 1..8),
        ) {
            let batch: Vec<Transaction> = specs.iter().map(build).collect();
            for decoded in decode_both_ways(&batch.to_wire()) {
                let decoded = decoded.expect("an encoding decodes");
                prop_assert_eq!(&decoded, &batch);
                for tx in &decoded {
                    prop_assert_eq!(cells(tx), cold_cells(tx));
                }
            }
        }

        #[test]
        fn a_flipped_byte_decodes_to_sound_memos_or_not_at_all(
            specs in proptest::collection::vec(arb_tx(), 1..8),
            at in any::<usize>(),
            bit in 0u32..8,
        ) {
            let batch: Vec<Transaction> = specs.iter().map(build).collect();
            let honest = Block::new(1, Hash256::default(), batch.clone());
            let mut wire = batch.to_wire();
            let at = at % wire.len();
            wire[at] ^= 1 << bit;
            for decoded in decode_both_ways(&wire) {
                let Ok(decoded) = decoded else { continue };
                for tx in &decoded {
                    prop_assert_eq!(cells(tx), cold_cells(tx));
                }
                if decoded.len() == batch.len() {
                    for (tx, original) in decoded.iter().zip(&batch) {
                        let verdict = tx.verify_signatures();
                        prop_assert_eq!(verdict, from_scratch(tx));
                        if signed_fields(tx) == signed_fields(original) {
                            prop_assert_eq!(verdict, original.verify_signatures());
                        } else if original.verify_signatures().is_none() {
                            prop_assert!(verdict.is_some(), "byte {at} flipped, still verifies");
                        }
                    }
                }
                let swapped = Block {
                    transactions: decoded.into(),
                    ..honest.clone()
                };
                prop_assert!(!swapped.data_hash_is_consistent());
            }
        }
    }
}
