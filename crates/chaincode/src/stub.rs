//! The chaincode stub: the shim handed to chaincode during simulation.

use crate::definition::ChaincodeDefinition;
use crate::error::ChaincodeError;
use fabric_crypto::Hash256;
use fabric_ledger::{HistoryDb, HistoryEntry, WorldState};
use fabric_types::{
    ChaincodeEvent, CollectionName, CollectionPvtRwSet, Identity, KvRead, KvRwSet, KvWrite,
    MetadataWrite, Proposal,
};
use std::collections::{BTreeMap, HashSet};

/// One shim-API call observed during a traced simulation.
///
/// Recording is off by default; [`ChaincodeStub::enable_op_log`] turns it
/// on and [`ChaincodeStub::into_results_and_ops`] yields the log. The
/// `fabric_lint::flow` analyzer replays this log to attach provenance to every
/// data sink (public writes, events, response payloads) and to render
/// source→sink flow paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StubOp {
    /// `GetState(key)` returning `value`.
    GetState {
        /// Public key read.
        key: String,
        /// Value returned, when the key existed.
        value: Option<Vec<u8>>,
    },
    /// `PutState(key, value)`.
    PutState {
        /// Public key written.
        key: String,
        /// Value staged for the public write set.
        value: Vec<u8>,
    },
    /// `DelState(key)`.
    DelState {
        /// Public key deleted.
        key: String,
    },
    /// One `GetStateByRange` scan.
    RangeScan {
        /// Range start (inclusive).
        start: String,
        /// Range end (exclusive; empty = unbounded).
        end: String,
        /// Number of keys returned.
        returned: usize,
    },
    /// `GetPrivateData(collection, key)` returning `value` (only recorded
    /// when the membership guards passed).
    GetPrivateData {
        /// Collection read.
        collection: CollectionName,
        /// Private key read.
        key: String,
        /// Plaintext value returned, when the key existed.
        value: Option<Vec<u8>>,
    },
    /// `GetPrivateDataHash(collection, key)`.
    GetPrivateDataHash {
        /// Collection whose hashed store was read.
        collection: CollectionName,
        /// Private key queried.
        key: String,
        /// Whether a hash entry existed.
        found: bool,
    },
    /// `PutPrivateData(collection, key, value)`.
    PutPrivateData {
        /// Collection written.
        collection: CollectionName,
        /// Private key written.
        key: String,
        /// Plaintext value staged for the collection write set.
        value: Vec<u8>,
    },
    /// `DelPrivateData(collection, key)`.
    DelPrivateData {
        /// Collection the delete targets.
        collection: CollectionName,
        /// Private key deleted.
        key: String,
    },
    /// `SetEvent(name, payload)`.
    SetEvent {
        /// Event name.
        name: String,
        /// Event payload (committed into the public block).
        payload: Vec<u8>,
    },
}

impl StubOp {
    /// The bytes this operation carried (read results, staged writes,
    /// event payloads), when any. Taint analysis scans these for
    /// sentinels.
    pub fn carried(&self) -> Option<&[u8]> {
        match self {
            StubOp::GetState { value, .. } | StubOp::GetPrivateData { value, .. } => {
                value.as_deref()
            }
            StubOp::PutState { value, .. } | StubOp::PutPrivateData { value, .. } => {
                Some(value.as_slice())
            }
            StubOp::SetEvent { payload, .. } => Some(payload.as_slice()),
            StubOp::DelState { .. }
            | StubOp::DelPrivateData { .. }
            | StubOp::RangeScan { .. }
            | StubOp::GetPrivateDataHash { .. } => None,
        }
    }
}

impl std::fmt::Display for StubOp {
    /// Compact value-free rendering used in flow-path diagnostics (values
    /// are omitted so rendered paths stay deterministic even for
    /// nondeterministic chaincode).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StubOp::GetState { key, .. } => write!(f, "GetState({key:?})"),
            StubOp::PutState { key, .. } => write!(f, "PutState({key:?})"),
            StubOp::DelState { key } => write!(f, "DelState({key:?})"),
            StubOp::RangeScan {
                start,
                end,
                returned,
            } => write!(
                f,
                "GetStateByRange({start:?}, {end:?}) -> {returned} key(s)"
            ),
            StubOp::GetPrivateData {
                collection, key, ..
            } => write!(f, "GetPrivateData({}, {key:?})", collection.as_str()),
            StubOp::GetPrivateDataHash {
                collection, key, ..
            } => write!(f, "GetPrivateDataHash({}, {key:?})", collection.as_str()),
            StubOp::PutPrivateData {
                collection, key, ..
            } => write!(f, "PutPrivateData({}, {key:?})", collection.as_str()),
            StubOp::DelPrivateData { collection, key } => {
                write!(f, "DelPrivateData({}, {key:?})", collection.as_str())
            }
            StubOp::SetEvent { name, .. } => write!(f, "SetEvent({name:?})"),
        }
    }
}

/// The rwsets produced by one simulated invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimulationResult {
    /// Public-data rwset.
    pub public: KvRwSet,
    /// Key-metadata writes (state-based endorsement parameters).
    pub metadata_writes: Vec<MetadataWrite>,
    /// Plaintext per-collection rwsets, in collection-name order.
    pub collections: Vec<CollectionPvtRwSet>,
    /// Event set via [`ChaincodeStub::set_event`], if any.
    pub event: Option<ChaincodeEvent>,
}

/// The shim API chaincode programs against, backed by the endorsing peer's
/// world-state snapshot. Mirrors Fabric's `ChaincodeStubInterface`:
///
/// * [`get_state`](Self::get_state) / [`put_state`](Self::put_state) /
///   [`del_state`](Self::del_state) for public data;
/// * [`get_private_data`](Self::get_private_data) /
///   [`put_private_data`](Self::put_private_data) /
///   [`del_private_data`](Self::del_private_data) for PDC data;
/// * [`get_private_data_hash`](Self::get_private_data_hash) — works at
///   **every** peer (members and non-members) and records the same
///   `(key, version)` read entry as `get_private_data`, which is exactly
///   the property the paper's endorsement forgery abuses (§IV-A1).
///
/// Reads resolve against the committed snapshot (no read-your-writes
/// within one simulation, as in Fabric).
#[derive(Debug)]
pub struct ChaincodeStub<'a> {
    state: &'a WorldState,
    history: Option<&'a HistoryDb>,
    definition: &'a ChaincodeDefinition,
    /// Collections this *peer* stores plaintext for.
    peer_memberships: &'a HashSet<CollectionName>,
    function: String,
    args: Vec<Vec<u8>>,
    transient: BTreeMap<String, Vec<u8>>,
    creator: Identity,
    public_rwset: KvRwSet,
    metadata_writes: Vec<MetadataWrite>,
    pvt_rwsets: BTreeMap<CollectionName, KvRwSet>,
    event: Option<ChaincodeEvent>,
    /// Traced shim calls; `None` (the default) disables recording so the
    /// endorsement hot path pays nothing.
    op_log: Option<Vec<StubOp>>,
}

impl<'a> ChaincodeStub<'a> {
    /// Builds a stub for one proposal against a peer's snapshot.
    pub fn new(
        state: &'a WorldState,
        definition: &'a ChaincodeDefinition,
        peer_memberships: &'a HashSet<CollectionName>,
        proposal: &Proposal,
    ) -> Self {
        ChaincodeStub {
            state,
            history: None,
            definition,
            peer_memberships,
            function: proposal.function.clone(),
            args: proposal.args.clone(),
            transient: proposal.transient.clone(),
            creator: proposal.creator.clone(),
            public_rwset: KvRwSet::new(),
            metadata_writes: Vec::new(),
            pvt_rwsets: BTreeMap::new(),
            event: None,
            op_log: None,
        }
    }

    /// Turns on shim-call tracing: every subsequent data operation is
    /// recorded as a [`StubOp`], retrievable via
    /// [`into_results_and_ops`](Self::into_results_and_ops). Used by the
    /// `fabric_lint::flow` taint analyzer; normal endorsement leaves this off.
    pub fn enable_op_log(&mut self) {
        self.op_log = Some(Vec::new());
    }

    fn record(&mut self, op: impl FnOnce() -> StubOp) {
        if let Some(log) = &mut self.op_log {
            log.push(op());
        }
    }

    /// Builds a stub that can also serve history queries
    /// (`GetHistoryForKey`).
    pub fn with_history(
        state: &'a WorldState,
        history: &'a HistoryDb,
        definition: &'a ChaincodeDefinition,
        peer_memberships: &'a HashSet<CollectionName>,
        proposal: &Proposal,
    ) -> Self {
        let mut stub = Self::new(state, definition, peer_memberships, proposal);
        stub.history = Some(history);
        stub
    }

    /// The invoked function name.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// The invocation arguments.
    pub fn args(&self) -> &[Vec<u8>] {
        &self.args
    }

    /// Argument `i` as UTF-8.
    ///
    /// # Errors
    ///
    /// [`ChaincodeError::InvalidArguments`] when absent or not UTF-8.
    pub fn arg_str(&self, i: usize) -> Result<String, ChaincodeError> {
        let bytes = self
            .args
            .get(i)
            .ok_or_else(|| ChaincodeError::InvalidArguments(format!("missing argument {i}")))?;
        String::from_utf8(bytes.clone())
            .map_err(|_| ChaincodeError::InvalidArguments(format!("argument {i} is not utf-8")))
    }

    /// A transient-map entry (private values travel here, not in args).
    pub fn transient(&self, key: &str) -> Option<&[u8]> {
        self.transient.get(key).map(Vec::as_slice)
    }

    /// The proposing client's identity.
    pub fn creator(&self) -> &Identity {
        &self.creator
    }

    /// The chaincode definition (collection configs etc.).
    pub fn definition(&self) -> &ChaincodeDefinition {
        self.definition
    }

    /// Whether this peer stores plaintext for `collection`.
    pub fn peer_is_member(&self, collection: &CollectionName) -> bool {
        self.peer_memberships.contains(collection)
    }

    // ---- public data ----

    /// Reads a public key, recording `(key, version)` in the read set.
    pub fn get_state(&mut self, key: &str) -> Option<Vec<u8>> {
        let entry = self.state.get_public(&self.definition.id, key);
        self.public_rwset.reads.push(KvRead {
            key: key.to_string(),
            version: entry.map(|e| e.version),
        });
        let value = entry.map(|e| e.value.clone());
        self.record(|| StubOp::GetState {
            key: key.to_string(),
            value: value.clone(),
        });
        value
    }

    /// Stages a public write.
    pub fn put_state(&mut self, key: &str, value: Vec<u8>) {
        self.record(|| StubOp::PutState {
            key: key.to_string(),
            value: value.clone(),
        });
        self.public_rwset.writes.push(KvWrite {
            key: key.to_string(),
            value: Some(value),
        });
    }

    /// Stages a public delete (a write with a null value, per Table I).
    pub fn del_state(&mut self, key: &str) {
        self.record(|| StubOp::DelState {
            key: key.to_string(),
        });
        self.public_rwset.writes.push(KvWrite {
            key: key.to_string(),
            value: None,
        });
    }

    /// Reads public keys in `[start, end)` in key order
    /// (`GetStateByRange`), recording a read-set entry for every returned
    /// key.
    ///
    /// Note: like this simulator's MVCC check, only *returned* keys are
    /// version-protected; phantom inserts into the range between
    /// endorsement and commit are not detected (Fabric closes this with
    /// range-query info records — a known sharp edge of chaincode range
    /// queries, cf. Yamashita et al., cited in the paper's related work).
    pub fn get_state_by_range(&mut self, start: &str, end: &str) -> Vec<(String, Vec<u8>)> {
        let hits: Vec<(String, Vec<u8>, fabric_types::Version)> = self
            .state
            .public_range(&self.definition.id)
            .filter(|(k, _)| *k >= start && (end.is_empty() || *k < end))
            .map(|(k, v)| (k.to_string(), v.value.clone(), v.version))
            .collect();
        let mut out = Vec::with_capacity(hits.len());
        for (key, value, version) in hits {
            self.public_rwset.reads.push(KvRead {
                key: key.clone(),
                version: Some(version),
            });
            out.push((key, value));
        }
        self.record(|| StubOp::RangeScan {
            start: start.to_string(),
            end: end.to_string(),
            returned: out.len(),
        });
        out
    }

    /// The committed write history of a public key (`GetHistoryForKey`),
    /// oldest first. Empty when the stub was built without history access
    /// or the key has never been written.
    pub fn get_history_for_key(&self, key: &str) -> Vec<HistoryEntry> {
        self.history
            .map(|h| h.key_history(&self.definition.id, key).to_vec())
            .unwrap_or_default()
    }

    /// Sets the chaincode event for this invocation (`SetEvent`). Like
    /// Fabric, one event per transaction: a later call replaces an earlier
    /// one. The event commits with the transaction and is delivered to
    /// listeners only if the transaction validates.
    pub fn set_event(&mut self, name: &str, payload: Vec<u8>) {
        self.record(|| StubOp::SetEvent {
            name: name.to_string(),
            payload: payload.clone(),
        });
        self.event = Some(ChaincodeEvent {
            name: name.to_string(),
            payload,
        });
    }

    // ---- state-based endorsement (key-level policies) ----

    /// Stages a key-level endorsement policy for a public key
    /// (`SetStateValidationParameter`). Once committed, writes to the key
    /// are validated against this policy *instead of* the chaincode-level
    /// policy — but PDC/key-level policies never govern read-only
    /// transactions, per the `validator_keylevel.go` behaviour the paper's
    /// Use Case 2 builds on.
    pub fn set_state_validation_parameter(&mut self, key: &str, policy: &str) {
        self.metadata_writes.push(MetadataWrite {
            key: key.to_string(),
            validation_parameter: Some(policy.to_string()),
        });
    }

    /// Stages removal of a key-level endorsement policy.
    pub fn delete_state_validation_parameter(&mut self, key: &str) {
        self.metadata_writes.push(MetadataWrite {
            key: key.to_string(),
            validation_parameter: None,
        });
    }

    /// Reads the committed key-level endorsement policy of a public key
    /// (`GetStateValidationParameter`).
    pub fn get_state_validation_parameter(&self, key: &str) -> Option<String> {
        self.state
            .get_validation_parameter(&self.definition.id, key)
            .map(str::to_string)
    }

    // ---- private data ----

    /// Reads plaintext private data (`GetPrivateData`).
    ///
    /// Records `(key, version)` in the collection's read set on success.
    ///
    /// # Errors
    ///
    /// * [`ChaincodeError::PrivateDataUnavailable`] when this peer is not a
    ///   member of the collection — the error a non-member endorser hits on
    ///   read proposals (§III-B2);
    /// * [`ChaincodeError::MemberOnlyRead`] when the collection restricts
    ///   reads to member orgs and the client is from a non-member org.
    pub fn get_private_data(
        &mut self,
        collection: &CollectionName,
        key: &str,
    ) -> Result<Option<Vec<u8>>, ChaincodeError> {
        if !self.peer_is_member(collection) {
            return Err(ChaincodeError::PrivateDataUnavailable {
                collection: collection.clone(),
                key: key.to_string(),
            });
        }
        if let Some(cfg) = self.definition.collection(collection) {
            if cfg.member_only_read && !self.definition.org_is_member(&self.creator.org, collection)
            {
                return Err(ChaincodeError::MemberOnlyRead {
                    collection: collection.clone(),
                });
            }
        }
        let entry = self.state.get_private(&self.definition.id, collection, key);
        self.pvt_rwsets
            .entry(collection.clone())
            .or_default()
            .reads
            .push(KvRead {
                key: key.to_string(),
                version: entry.map(|e| e.version),
            });
        let value = entry.map(|e| e.value.clone());
        self.record(|| StubOp::GetPrivateData {
            collection: collection.clone(),
            key: key.to_string(),
            value: value.clone(),
        });
        Ok(value)
    }

    /// Reads the hash of private data (`GetPrivateDataHash`).
    ///
    /// Available at **all** peers in the channel — the hashed store is
    /// replicated everywhere — and it records the *same* `(key, version)`
    /// read entry that `get_private_data` would. A malicious non-member
    /// endorser uses this to fabricate read endorsements with a valid
    /// version (the paper's Endorsement Forgery).
    pub fn get_private_data_hash(
        &mut self,
        collection: &CollectionName,
        key: &str,
    ) -> Option<Hash256> {
        let entry = self
            .state
            .get_private_hash(&self.definition.id, collection, key);
        self.pvt_rwsets
            .entry(collection.clone())
            .or_default()
            .reads
            .push(KvRead {
                key: key.to_string(),
                version: entry.map(|(_, v)| v),
            });
        self.record(|| StubOp::GetPrivateDataHash {
            collection: collection.clone(),
            key: key.to_string(),
            found: entry.is_some(),
        });
        entry.map(|(h, _)| h)
    }

    /// Stages a private write (`PutPrivateData`). Works at any peer: a
    /// write-only result needs no state, so non-members endorse it without
    /// errors (Use Case 1).
    pub fn put_private_data(&mut self, collection: &CollectionName, key: &str, value: Vec<u8>) {
        self.record(|| StubOp::PutPrivateData {
            collection: collection.clone(),
            key: key.to_string(),
            value: value.clone(),
        });
        self.pvt_rwsets
            .entry(collection.clone())
            .or_default()
            .writes
            .push(KvWrite {
                key: key.to_string(),
                value: Some(value),
            });
    }

    /// Stages a private delete (`DelPrivateData`) — like a write, endorsable
    /// by non-members (§IV-A4).
    pub fn del_private_data(&mut self, collection: &CollectionName, key: &str) {
        self.record(|| StubOp::DelPrivateData {
            collection: collection.clone(),
            key: key.to_string(),
        });
        self.pvt_rwsets
            .entry(collection.clone())
            .or_default()
            .writes
            .push(KvWrite {
                key: key.to_string(),
                value: None,
            });
    }

    /// Finishes the simulation, yielding the accumulated rwsets.
    pub fn into_results(self) -> SimulationResult {
        self.into_results_and_ops().0
    }

    /// Finishes a traced simulation, yielding the rwsets plus the shim-call
    /// log (empty unless [`enable_op_log`](Self::enable_op_log) was called).
    pub fn into_results_and_ops(self) -> (SimulationResult, Vec<StubOp>) {
        let results = SimulationResult {
            public: self.public_rwset,
            metadata_writes: self.metadata_writes,
            event: self.event,
            collections: self
                .pvt_rwsets
                .into_iter()
                .map(|(collection, rwset)| CollectionPvtRwSet { collection, rwset })
                .collect(),
        };
        (results, self.op_log.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::{sha256, Keypair};
    use fabric_types::{CollectionConfig, OrgId, Role, TxKind, Version};

    fn setup() -> (WorldState, ChaincodeDefinition) {
        let mut ws = WorldState::new();
        let def = ChaincodeDefinition::new("cc").with_collection(CollectionConfig::membership_of(
            "PDC1",
            &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
        ));
        ws.put_public(&def.id, "pub1", b"v".to_vec(), Version::new(1, 0));
        ws.put_private(
            &def.id,
            &CollectionName::new("PDC1"),
            "k1",
            b"secret".to_vec(),
            Version::new(2, 0),
        );
        (ws, def)
    }

    fn proposal(function: &str, org: &str) -> Proposal {
        let kp = Keypair::generate_from_seed(77);
        Proposal::new(
            "ch1",
            "cc",
            function,
            vec![],
            BTreeMap::new(),
            Identity::new(org, Role::Client, kp.public_key()),
            1,
        )
    }

    fn member_set() -> HashSet<CollectionName> {
        [CollectionName::new("PDC1")].into_iter().collect()
    }

    #[test]
    fn public_reads_record_versions() {
        let (ws, def) = setup();
        let members = member_set();
        let prop = proposal("f", "Org1MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &members, &prop);
        assert_eq!(stub.get_state("pub1"), Some(b"v".to_vec()));
        assert_eq!(stub.get_state("missing"), None);
        let results = stub.into_results();
        assert_eq!(results.public.reads.len(), 2);
        assert_eq!(results.public.reads[0].version, Some(Version::new(1, 0)));
        assert_eq!(results.public.reads[1].version, None);
        assert_eq!(results.public.kind(), TxKind::ReadOnly);
    }

    #[test]
    fn member_peer_reads_private_data() {
        let (ws, def) = setup();
        let members = member_set();
        let prop = proposal("f", "Org1MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &members, &prop);
        let v = stub
            .get_private_data(&CollectionName::new("PDC1"), "k1")
            .unwrap();
        assert_eq!(v, Some(b"secret".to_vec()));
        let results = stub.into_results();
        assert_eq!(results.collections.len(), 1);
        assert_eq!(
            results.collections[0].rwset.reads[0].version,
            Some(Version::new(2, 0))
        );
    }

    #[test]
    fn non_member_peer_errors_on_private_read() {
        let (ws, def) = setup();
        let no_memberships = HashSet::new();
        let prop = proposal("f", "Org1MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &no_memberships, &prop);
        let err = stub
            .get_private_data(&CollectionName::new("PDC1"), "k1")
            .unwrap_err();
        assert!(matches!(err, ChaincodeError::PrivateDataUnavailable { .. }));
    }

    #[test]
    fn get_private_data_hash_works_at_non_members_with_correct_version() {
        // The attack precondition: a non-member obtains hash AND version.
        let (_, def) = setup();
        // Model the non-member's state: hashed entries only.
        let ws = {
            let mut nm = WorldState::new();
            nm.put_private_hash(
                &def.id,
                &CollectionName::new("PDC1"),
                sha256(b"k1"),
                sha256(b"secret"),
                Version::new(2, 0),
            );
            nm
        };
        let no_memberships = HashSet::new();
        let prop = proposal("f", "Org3MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &no_memberships, &prop);
        let h = stub.get_private_data_hash(&CollectionName::new("PDC1"), "k1");
        assert_eq!(h, Some(sha256(b"secret")));
        let results = stub.into_results();
        // Identical read-set entry to what a member endorser records.
        assert_eq!(
            results.collections[0].rwset.reads[0],
            KvRead {
                key: "k1".into(),
                version: Some(Version::new(2, 0)),
            }
        );
    }

    #[test]
    fn non_member_peer_endorses_private_writes_without_error() {
        // Use Case 1: write-only needs no state.
        let (ws, def) = setup();
        let no_memberships = HashSet::new();
        let prop = proposal("f", "Org3MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &no_memberships, &prop);
        stub.put_private_data(&CollectionName::new("PDC1"), "k1", b"forged".to_vec());
        let results = stub.into_results();
        assert_eq!(results.collections[0].rwset.kind(), TxKind::WriteOnly);
    }

    #[test]
    fn delete_records_null_value() {
        let (ws, def) = setup();
        let members = member_set();
        let prop = proposal("f", "Org1MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &members, &prop);
        stub.del_private_data(&CollectionName::new("PDC1"), "k1");
        let results = stub.into_results();
        let w = &results.collections[0].rwset.writes[0];
        assert!(w.is_delete());
        assert_eq!(w.value, None);
        assert_eq!(results.collections[0].rwset.kind(), TxKind::DeleteOnly);
    }

    #[test]
    fn member_only_read_blocks_non_member_clients() {
        let (ws, def) = setup();
        let members = member_set();
        // Client from Org3 (non-member); the collection is memberOnlyRead.
        let prop = proposal("f", "Org3MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &members, &prop);
        let err = stub
            .get_private_data(&CollectionName::new("PDC1"), "k1")
            .unwrap_err();
        assert!(matches!(err, ChaincodeError::MemberOnlyRead { .. }));
    }

    #[test]
    fn op_log_is_off_by_default() {
        let (ws, def) = setup();
        let members = member_set();
        let prop = proposal("f", "Org1MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &members, &prop);
        stub.get_state("pub1");
        stub.put_state("out", b"x".to_vec());
        let (_, ops) = stub.into_results_and_ops();
        assert!(ops.is_empty());
    }

    #[test]
    fn op_log_records_shim_calls_in_order() {
        let (ws, def) = setup();
        let members = member_set();
        let prop = proposal("f", "Org1MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &members, &prop);
        stub.enable_op_log();
        stub.get_state("pub1");
        stub.get_private_data(&CollectionName::new("PDC1"), "k1")
            .unwrap();
        stub.put_state("out", b"copied".to_vec());
        stub.set_event("evt", b"payload".to_vec());
        stub.del_private_data(&CollectionName::new("PDC1"), "k1");
        let (_, ops) = stub.into_results_and_ops();
        assert_eq!(ops.len(), 5);
        assert_eq!(
            ops[0],
            StubOp::GetState {
                key: "pub1".into(),
                value: Some(b"v".to_vec()),
            }
        );
        assert_eq!(ops[1].carried(), Some(b"secret".as_slice()));
        assert_eq!(ops[2].to_string(), "PutState(\"out\")");
        assert_eq!(ops[3].to_string(), "SetEvent(\"evt\")");
        assert_eq!(ops[4].carried(), None);
        // Display never renders carried values (determinism of rendered
        // flow paths for nondeterministic chaincode depends on this).
        for op in &ops {
            assert!(!op.to_string().contains("secret"));
            assert!(!op.to_string().contains("copied"));
        }
    }

    #[test]
    fn failed_private_reads_are_not_recorded() {
        let (ws, def) = setup();
        let no_memberships = HashSet::new();
        let prop = proposal("f", "Org1MSP");
        let mut stub = ChaincodeStub::new(&ws, &def, &no_memberships, &prop);
        stub.enable_op_log();
        stub.get_private_data(&CollectionName::new("PDC1"), "k1")
            .unwrap_err();
        let (_, ops) = stub.into_results_and_ops();
        assert!(ops.is_empty());
    }

    #[test]
    fn transient_and_args_accessors() {
        let (ws, def) = setup();
        let members = member_set();
        let kp = Keypair::generate_from_seed(9);
        let mut transient = BTreeMap::new();
        transient.insert("secret".to_string(), b"hidden".to_vec());
        let prop = Proposal::new(
            "ch1",
            "cc",
            "f",
            vec![b"arg0".to_vec()],
            transient,
            Identity::new("Org1MSP", Role::Client, kp.public_key()),
            1,
        );
        let stub = ChaincodeStub::new(&ws, &def, &members, &prop);
        assert_eq!(stub.arg_str(0).unwrap(), "arg0");
        assert!(stub.arg_str(1).is_err());
        assert_eq!(stub.transient("secret"), Some(b"hidden".as_slice()));
        assert_eq!(stub.transient("nope"), None);
        assert_eq!(stub.function(), "f");
    }
}
