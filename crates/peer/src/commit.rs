//! The validation phase: proof-of-policy checks, MVCC, and commit.
//!
//! [`Peer::process_block`] is one ordered walk over the block, the order
//! of Fabric's validator (§II-B3, Fig. 2). Each transaction is checked in
//! turn for an in-block duplicate tx-id, its signatures, its channel, a
//! committed duplicate, its endorsement policies (chaincode-level,
//! collection-level, key-level/SBE, and the defense filters) against the
//! state the block's earlier transactions left, and MVCC version
//! conflicts. A valid transaction is applied before the next one is
//! checked. Policies are evaluated in the forms the chaincode definition
//! parsed once, and key-level expressions through the peer's interned SBE
//! cache, instead of re-parsing expressions per transaction.
//!
//! The walk runs on the calling thread; the only threads on the commit
//! path are the cross-peer workers of `FabricNetwork::deliver`.

use crate::node::{InstalledChaincode, Peer};
use crate::telemetry::PeerTelemetry;
use fabric_crypto::BatchVerifier;
use fabric_ledger::{BlockStoreError, HistoryDb, WorldState};
use fabric_policy::EndorserSet;
use fabric_telemetry::{trace_id, AuditEvent};
use fabric_types::{
    Block, ChaincodeEvent, ChaincodeId, OrgId, PayloadCommitment, PvtDataPackage, SignatureFailure,
    Transaction, TxId, TxValidationCode, Version,
};
use fabric_wire::IdSet;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Supplies plaintext private data for a transaction being committed
/// (backed by the gossip transient store plus anti-entropy pull). The
/// package comes back `Arc`-shared: providers forward the transient
/// store's handle instead of deep-copying the rwsets per requesting peer.
pub type PvtDataProvider<'a> = dyn FnMut(&TxId) -> Option<Arc<PvtDataPackage>> + 'a;

/// Errors that abort block processing entirely (individual transaction
/// failures are recorded as validation codes instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// The block does not extend this peer's chain.
    BlockStore(BlockStoreError),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::BlockStore(e) => write!(f, "block rejected: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

impl CommitError {
    /// A stable snake_case name for the failure, for metric labels.
    pub fn kind(&self) -> &'static str {
        match self {
            CommitError::BlockStore(BlockStoreError::NonSequentialNumber { .. }) => {
                "non_sequential_number"
            }
            CommitError::BlockStore(BlockStoreError::BrokenChain { .. }) => "broken_chain",
            CommitError::BlockStore(BlockStoreError::DataHashMismatch) => "data_hash_mismatch",
        }
    }
}

impl From<BlockStoreError> for CommitError {
    fn from(e: BlockStoreError) -> Self {
        CommitError::BlockStore(e)
    }
}

/// The result of validating and committing one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCommitOutcome {
    /// Per-transaction validation codes, in block order.
    pub validation_codes: Vec<TxValidationCode>,
    /// Valid PDC transactions for which this (member) peer could not obtain
    /// matching plaintext private data; only hashes were committed and the
    /// transaction awaits reconciliation from other members
    /// ([`Peer::reconcile_from`]).
    pub missing_private_data: Vec<TxId>,
    /// Chaincode events of the VALID transactions, in block order
    /// (invalid transactions' events are never delivered, as in Fabric).
    pub events: Vec<(TxId, ChaincodeEvent)>,
}

impl Peer {
    /// Validates every transaction in `block` through the proof-of-policy
    /// checks (endorsement policy + MVCC version conflict, §II-B3), commits
    /// the effects of valid ones, and appends the block with its validity
    /// vector to the local chain. See the module docs for the order of the
    /// checks.
    ///
    /// `pvt_provider` supplies plaintext private rwsets (transient store /
    /// gossip pull) for collections this peer is a member of.
    ///
    /// # Errors
    ///
    /// [`CommitError::BlockStore`] when the block does not chain onto the
    /// local ledger (nothing is committed in that case).
    pub fn process_block(
        &mut self,
        block: Block,
        pvt_provider: &mut PvtDataProvider<'_>,
    ) -> Result<BlockCommitOutcome, CommitError> {
        // Verify chain linkage *before* mutating any state; afterwards the
        // final append cannot fail.
        self.block_store.check_extends(&block)?;

        let block_num = block.header.number;
        let mut missing = Vec::new();
        let mut events = Vec::new();

        // One handle clone (a single `Arc` bump) up front: telemetry must
        // stay alive across the mutable borrows of `self` below. Without
        // telemetry attached this is the only cost the commit path pays.
        let telemetry = self.telemetry.clone();
        let block_span = telemetry.as_ref().map(|t| {
            let mut s = t.span("peer.process_block");
            s.node(self.gossip_id.as_arc());
            s.field("block", block_num);
            s.field("txs", block.transactions.len());
            s
        });

        // The validity vector is written straight into the block's
        // metadata.
        let mut block = block;
        let Block {
            transactions,
            metadata,
            ..
        } = &mut block;
        {
            let mut batch = BatchVerifier::new();
            let mut seen_in_block: IdSet<&TxId> =
                IdSet::with_capacity_and_hasher(transactions.len(), Default::default());
            // `(namespace, key)` pairs whose SBE validation parameter was
            // rewritten by an earlier valid transaction of this block; only
            // the `SbeReCheck` audit event reads them.
            let mut dirty_params: Option<HashSet<(&ChaincodeId, &str)>> =
                telemetry.is_some().then(HashSet::new);
            for (i, tx) in transactions.iter().enumerate() {
                let validate_span = telemetry
                    .as_ref()
                    .map(|t| self.tx_span(t, "peer.validate", tx));
                let mut sbe_rechecked = false;
                let code = if !seen_in_block.insert(&tx.tx_id) {
                    TxValidationCode::DuplicateTxId
                } else if let Some(failure) = self.structural_checks(tx, &mut batch) {
                    failure
                } else {
                    sbe_rechecked = dirty_params
                        .as_ref()
                        .is_some_and(|dirty| touches_dirty_params(tx, dirty));
                    self.policy_checks(tx)
                        .or_else(|| self.mvcc_checks(tx))
                        .unwrap_or(TxValidationCode::Valid)
                };
                drop(validate_span);

                let commit_span = telemetry
                    .as_ref()
                    .map(|t| self.tx_span(t, "peer.commit", tx));
                if code.is_valid() {
                    let version = Version::new(block_num, i as u64);
                    let complete = apply_transaction(
                        &mut self.world_state,
                        &mut self.history,
                        &self.chaincodes,
                        tx,
                        version,
                        pvt_provider,
                    );
                    if !complete {
                        missing.push(tx.tx_id.clone());
                    }
                    if let Some(event) = &tx.payload.event {
                        events.push((tx.tx_id.clone(), event.clone()));
                    }
                    if let Some(dirty) = &mut dirty_params {
                        for ns in &tx.payload.results.ns_rwsets {
                            for m in &ns.metadata_writes {
                                dirty.insert((&ns.namespace, m.key.as_str()));
                            }
                        }
                    }
                }
                if let Some(t) = &telemetry {
                    audit_transaction(t, &self.chaincodes, tx, code, sbe_rechecked);
                }
                if let Some(mut s) = commit_span {
                    s.field("code", code.as_str());
                    s.finish();
                }
                metadata.validation_codes.push(code);
            }
        }

        // `check_extends` already ran before any mutation, so the append
        // cannot fail and the transaction list needs no second hashing.
        self.block_store.append_unchecked(block);
        self.purge_expired(block_num);

        let validation_codes = self
            .block_store
            .block(block_num)
            .expect("block was just appended")
            .metadata
            .validation_codes
            .clone();
        if let (Some(t), Some(span)) = (&telemetry, &block_span) {
            t.commit_block.observe_duration(span.elapsed());
            record_block_metrics(t, block_num, &validation_codes, missing.len());
        }
        Ok(BlockCommitOutcome {
            validation_codes,
            missing_private_data: missing,
            events,
        })
    }

    /// Opens `tx`'s per-transaction span `name` on this peer.
    fn tx_span(
        &self,
        t: &PeerTelemetry,
        name: &'static str,
        tx: &Transaction,
    ) -> fabric_telemetry::SpanGuard {
        let mut s = t.span(name);
        s.trace(trace_id(tx.tx_id.as_str()));
        s.node(self.gossip_id.as_arc());
        s
    }

    /// The checks that read neither policies nor versions: signatures
    /// (through the block's [`BatchVerifier`], so the CA registry's lock is
    /// taken once per signing identity instead of once per signature),
    /// channel, and committed-duplicate lookup; `None` = passed.
    fn structural_checks(
        &self,
        tx: &Transaction,
        batch: &mut BatchVerifier,
    ) -> Option<TxValidationCode> {
        match tx.verify_signatures_batched(batch) {
            Some(SignatureFailure::Client) => Some(TxValidationCode::InvalidClientSignature),
            Some(SignatureFailure::Endorsement) => Some(TxValidationCode::InvalidEndorserSignature),
            None if tx.channel != self.channel => Some(TxValidationCode::BadPayload),
            None if self.block_store.contains_tx(&tx.tx_id) => {
                Some(TxValidationCode::DuplicateTxId)
            }
            None => None,
        }
    }

    /// Proof-of-policy check 1 — endorsement policies, evaluated in their
    /// parsed forms; `None` = satisfied.
    ///
    /// Key-level (state-based) endorsement first: a public write to a key
    /// with a committed validation parameter is governed by that key's
    /// policy (Fabric's `validator_keylevel.go` — the code the paper cites
    /// for Use Case 2), and changing a key's parameter itself requires
    /// satisfying the existing parameter. The chaincode-level policy then
    /// applies to everything not fully covered by key-level parameters:
    /// reads (always — Use Case 2), non-SBE public writes, collection
    /// rwsets, and empty results. Note it does NOT distinguish member from
    /// non-member endorsements (Use Case 1).
    fn policy_checks(&self, tx: &Transaction) -> Option<TxValidationCode> {
        // De-duplicated once; every policy below is evaluated against it.
        let endorsers: EndorserSet<'_> = tx.endorsements.iter().map(|e| &e.endorser).collect();

        for ns in &tx.payload.results.ns_rwsets {
            let Some(installed) = self.chaincodes.get(&ns.namespace) else {
                return Some(TxValidationCode::BadPayload);
            };
            let definition = &installed.definition;

            let mut non_sbe_public_writes = false;
            let touched_keys = ns
                .public
                .writes
                .iter()
                .map(|w| w.key.as_str())
                .chain(ns.metadata_writes.iter().map(|m| m.key.as_str()));
            for key in touched_keys {
                match self
                    .world_state
                    .get_validation_parameter(&ns.namespace, key)
                {
                    Some(expr) => {
                        let Some(key_policy) = self.sbe_policies.get_or_parse(expr) else {
                            return Some(TxValidationCode::BadPayload);
                        };
                        if !key_policy.satisfied_by_set(&endorsers) {
                            return Some(TxValidationCode::EndorsementPolicyFailure);
                        }
                    }
                    None => non_sbe_public_writes = true,
                }
            }

            let needs_chaincode_policy = !ns.public.reads.is_empty()
                || non_sbe_public_writes
                || !ns.collections.is_empty()
                || (ns.public.writes.is_empty() && ns.metadata_writes.is_empty());
            if needs_chaincode_policy
                && !definition
                    .endorsement()
                    .evaluate_set(&self.channel_policies, &endorsers)
            {
                return Some(TxValidationCode::EndorsementPolicyFailure);
            }

            for col in &ns.collections {
                if definition.collection(&col.collection).is_none() {
                    return Some(TxValidationCode::BadPayload);
                }
                let has_writes = !col.writes.is_empty();
                let has_reads = !col.reads.is_empty();
                // Original Fabric: the collection-level policy (when
                // defined) governs transactions that *write* the
                // collection; read-only transactions are always validated
                // with the chaincode-level policy (Use Case 2, per the
                // key-level validator in the Fabric source).
                // New Feature 1 extends the collection-level policy to
                // read-only transactions (§IV-C1).
                if has_writes || (self.defense.collection_policy_for_reads && has_reads) {
                    if let Some(col_policy) = definition.collection_endorsement(&col.collection) {
                        if !col_policy.satisfied_by_set(&endorsers) {
                            return Some(TxValidationCode::EndorsementPolicyFailure);
                        }
                    }
                }
                // Supplemental defense: reject endorsements by peers whose
                // org is not a member of the touched collection.
                if self.defense.filter_non_member_endorsers {
                    let all_members = endorsers
                        .iter()
                        .all(|e| definition.org_is_member(&e.org, &col.collection));
                    if !all_members {
                        return Some(TxValidationCode::NonMemberEndorsement);
                    }
                }
            }
        }
        None
    }

    /// Proof-of-policy check 2 — MVCC version conflicts against the
    /// current state; `None` = no conflict. Only versions are compared;
    /// chaincode is never re-executed, so fabricated values with correct
    /// versions pass (§IV-A1).
    fn mvcc_checks(&self, tx: &Transaction) -> Option<TxValidationCode> {
        for ns in &tx.payload.results.ns_rwsets {
            if self
                .world_state
                .check_mvcc_public(&ns.namespace, &ns.public.reads)
                .is_err()
            {
                return Some(TxValidationCode::MvccReadConflict);
            }
            for col in &ns.collections {
                if self
                    .world_state
                    .check_mvcc_hashed(&ns.namespace, &col.collection, &col.reads)
                    .is_err()
                {
                    return Some(TxValidationCode::MvccReadConflict);
                }
            }
        }
        None
    }

    /// Reconciles the plaintext of every collection this peer's org is a
    /// member of with `source`'s, checked against this peer's own committed
    /// hashes ([`WorldState::reconcile_private`]): stale entries go and
    /// missing ones come from `source` when they hash to what the block
    /// committed. A non-member `source` holds no plaintext to offer.
    pub fn reconcile_from(&mut self, source: &Peer) {
        for (ns, installed) in &self.chaincodes {
            for collection in &installed.memberships {
                self.world_state
                    .reconcile_private(ns, collection, &source.world_state);
            }
        }
    }

    /// Purges expired private data for every collection with a
    /// block-to-live bound.
    fn purge_expired(&mut self, current_block: u64) {
        for cc in self.chaincodes.values() {
            let ns = &cc.definition.id;
            for c in cc.definition.collections() {
                if c.block_to_live > 0 {
                    self.world_state.purge_expired_private(
                        ns,
                        &c.name,
                        c.block_to_live,
                        current_block,
                    );
                }
            }
        }
    }
}

/// Applies a valid transaction's writes at `version`, through the peer
/// fields it writes so the block's audit memo can keep borrowing
/// `chaincodes`. Returns `false` when this peer is a member of a written
/// collection but could not obtain matching plaintext (hashes were
/// committed regardless).
fn apply_transaction(
    world_state: &mut WorldState,
    history: &mut HistoryDb,
    chaincodes: &HashMap<ChaincodeId, InstalledChaincode>,
    tx: &Transaction,
    version: Version,
    pvt_provider: &mut PvtDataProvider<'_>,
) -> bool {
    let mut plaintext_complete = true;
    let mut package: Option<Option<Arc<PvtDataPackage>>> = None;

    for ns in &tx.payload.results.ns_rwsets {
        world_state.apply_public_writes(&ns.namespace, &ns.public, version);
        world_state.apply_metadata_writes(&ns.namespace, &ns.metadata_writes);
        for w in &ns.public.writes {
            history.record(
                &ns.namespace,
                &w.key,
                &tx.tx_id,
                version,
                w.value.clone(),
                w.is_delete,
            );
        }
        for col in &ns.collections {
            if col.writes.is_empty() {
                continue;
            }
            let is_member = chaincodes
                .get(&ns.namespace)
                .is_some_and(|cc| cc.memberships.contains(&col.collection));
            let mut applied_plaintext = false;
            if is_member {
                let pkg = package
                    .get_or_insert_with(|| pvt_provider(&tx.tx_id))
                    .as_ref();
                if let Some(pkg) = pkg {
                    // Verify plaintext against committed hashes before
                    // updating the ledger (Fig. 2, step 18). The
                    // verify-and-apply entry point hashes each key and
                    // value exactly once instead of materializing a
                    // full hashed copy of the plaintext rwset.
                    let matching = pkg
                        .namespaces
                        .iter()
                        .zip(&pkg.collections)
                        .find(|(n, c)| **n == ns.namespace && c.collection == col.collection)
                        .map(|(_, c)| c);
                    if let Some(pvt) = matching {
                        applied_plaintext = world_state.apply_private_writes_verified(
                            &ns.namespace,
                            pvt,
                            col,
                            version,
                        );
                    }
                }
            }
            if !applied_plaintext {
                world_state.apply_hashed_writes(
                    &ns.namespace,
                    &col.collection,
                    &col.writes,
                    version,
                );
                if is_member {
                    plaintext_complete = false;
                }
            }
        }
    }
    plaintext_complete
}

/// Whether `tx` touches (writes or re-parameterizes) a key whose SBE
/// validation parameter changed earlier in the current block.
fn touches_dirty_params(tx: &Transaction, dirty: &HashSet<(&ChaincodeId, &str)>) -> bool {
    if dirty.is_empty() {
        return false;
    }
    tx.payload.results.ns_rwsets.iter().any(|ns| {
        ns.public
            .writes
            .iter()
            .map(|w| w.key.as_str())
            .chain(ns.metadata_writes.iter().map(|m| m.key.as_str()))
            .any(|key| dirty.contains(&(&ns.namespace, key)))
    })
}

/// Emits `tx`'s audit events. First come the signals observable on the
/// transaction and the chaincode definitions: non-member endorsements and
/// chaincode-policy fallbacks on touched collections (Use Cases 1–2), and
/// plaintext payloads riding PDC transactions (Use Case 3). Then come the
/// outcome-dependent ones: SBE re-checks, MVCC conflicts and defense
/// rejections. The common no-signal case allocates nothing.
fn audit_transaction(
    t: &PeerTelemetry,
    chaincodes: &HashMap<ChaincodeId, InstalledChaincode>,
    tx: &Transaction,
    code: TxValidationCode,
    sbe_rechecked: bool,
) {
    let mut touches_collection = false;
    for ns in &tx.payload.results.ns_rwsets {
        let Some(installed) = chaincodes.get(&ns.namespace) else {
            continue; // Unknown namespace: BadPayload, nothing to attribute.
        };
        for col in &ns.collections {
            touches_collection = true;
            let members = installed.definition.members(&col.collection);
            if members.is_some()
                && installed
                    .definition
                    .collection_endorsement(&col.collection)
                    .is_none()
            {
                t.emit(AuditEvent::PolicyFallbackToChaincodeLevel {
                    tx_id: tx.tx_id.clone(),
                    chaincode: ns.namespace.clone(),
                    collection: col.collection.clone(),
                });
            }
            let mut flagged: Vec<&OrgId> = Vec::new();
            for e in &tx.endorsements {
                let org = &e.endorser.org;
                if !members.is_some_and(|m| m.contains(org)) && !flagged.contains(&org) {
                    flagged.push(org);
                    t.emit(AuditEvent::EndorsementByNonMember {
                        tx_id: tx.tx_id.clone(),
                        collection: col.collection.clone(),
                        endorser_org: org.clone(),
                    });
                }
            }
        }
    }
    if touches_collection
        && tx.commitment == PayloadCommitment::Plain
        && !tx.payload.response.payload.is_empty()
    {
        t.emit(AuditEvent::PlaintextPayloadInTx {
            tx_id: tx.tx_id.clone(),
            chaincode: tx.chaincode.clone(),
            payload_bytes: tx.payload.response.payload.len(),
        });
    }
    if sbe_rechecked {
        t.emit(AuditEvent::SbeReCheck {
            tx_id: tx.tx_id.clone(),
            chaincode: tx.chaincode.clone(),
            outcome: code,
        });
    }
    match code {
        TxValidationCode::MvccReadConflict => t.emit(AuditEvent::MvccConflict {
            tx_id: tx.tx_id.clone(),
            chaincode: tx.chaincode.clone(),
        }),
        TxValidationCode::NonMemberEndorsement => t.emit(AuditEvent::DefenseRejected {
            tx_id: tx.tx_id.clone(),
            code,
        }),
        _ => {}
    }
}

/// Flushes per-block counters and gauges after a successful commit.
/// Validation codes are tallied locally first so each series costs one
/// atomic add per block, not one per transaction.
fn record_block_metrics(
    t: &PeerTelemetry,
    block_num: u64,
    codes: &[TxValidationCode],
    missing: usize,
) {
    let mut tally = [0u64; TxValidationCode::ALL.len()];
    for code in codes {
        tally[*code as usize] += 1;
    }
    for (code, n) in TxValidationCode::ALL.into_iter().zip(tally) {
        if n > 0 {
            t.validation_result(code).inc_by(n);
        }
    }
    t.blocks_committed.inc();
    t.txs_processed.inc_by(codes.len() as u64);
    if missing > 0 {
        t.missing_private.inc_by(missing as u64);
    }
    t.block_height.set((block_num + 1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_chaincode::samples::GuardedPdc;
    use fabric_chaincode::ChaincodeDefinition;
    use fabric_crypto::Keypair;
    use fabric_policy::ChannelPolicies;
    use fabric_types::{
        CollectionConfig, CollectionName, CollectionPvtRwSet, DefenseConfig, Endorsement, Identity,
        KvWrite, OrgId, Proposal, Role,
    };
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const COL: &str = "PDC1";

    fn orgs() -> Vec<OrgId> {
        (1..=3).map(|i| OrgId::new(format!("Org{i}MSP"))).collect()
    }

    fn make_peer(name: &str, org: &str, seed: u64) -> Peer {
        let mut p = Peer::new(
            name,
            org,
            "ch1",
            ChannelPolicies::default_for(&orgs()),
            Keypair::generate_from_seed(seed),
            DefenseConfig::original(),
        );
        let def = ChaincodeDefinition::new("guarded")
            .with_collection(CollectionConfig::membership_of(COL, &orgs()[..2]));
        p.install_chaincode(def, Arc::new(GuardedPdc::unconstrained(COL)))
            .unwrap();
        p
    }

    /// Builds a valid write transaction endorsed by the given peers.
    fn write_tx(
        endorsing_peers: &[&Peer],
        value: i64,
        nonce: u64,
    ) -> (Transaction, Arc<PvtDataPackage>) {
        let client_kp = Keypair::generate_from_seed(1000 + nonce);
        let creator = Identity::new("Org1MSP", Role::Client, client_kp.public_key());
        let proposal = Proposal::new(
            "ch1",
            "guarded",
            "write",
            vec![b"k1".to_vec(), value.to_string().into_bytes()],
            BTreeMap::new(),
            creator.clone(),
            nonce,
        );
        let mut responses = Vec::new();
        let mut pvt = None;
        for p in endorsing_peers {
            let (resp, pkg) = p.endorse(&proposal).expect("endorse");
            if pvt.is_none() {
                pvt = pkg;
            }
            responses.push(resp);
        }
        let payload = responses[0].payload.clone();
        let commitment = responses[0].commitment;
        let endorsements: Vec<Endorsement> = responses.into_iter().map(|r| r.endorsement).collect();
        let client_signature = client_kp.sign(&Transaction::client_signed_bytes(
            &proposal.tx_id,
            &payload,
            &endorsements,
        ));
        (
            Transaction {
                tx_id: proposal.tx_id.clone(),
                channel: proposal.channel.clone(),
                chaincode: proposal.chaincode.clone(),
                creator,
                payload,
                commitment,
                endorsements,
                client_signature,
                memo: Default::default(),
            },
            Arc::new(pvt.expect("write produces private data")),
        )
    }

    fn block_of(peer: &Peer, txs: Vec<Transaction>) -> Block {
        Block::new(peer.block_store.height(), peer.block_store.tip_hash(), txs)
    }

    #[test]
    fn valid_write_commits_plaintext_at_members_hashes_at_non_members() {
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 51);
        let mut p2 = make_peer("peer0.org2", "Org2MSP", 52);
        let mut p3 = make_peer("peer0.org3", "Org3MSP", 53);
        let (tx, pkg) = write_tx(&[&p1, &p2], 7, 1);
        let block = block_of(&p1, vec![tx.clone()]);

        let mut with_pkg = |_: &TxId| Some(pkg.clone());
        let outcome = p1.process_block(block.clone(), &mut with_pkg).unwrap();
        assert_eq!(outcome.validation_codes, vec![TxValidationCode::Valid]);
        p2.process_block(block.clone(), &mut with_pkg).unwrap();
        let mut no_pkg = |_: &TxId| None;
        p3.process_block(block, &mut no_pkg).unwrap();

        let ns = fabric_types::ChaincodeId::new("guarded");
        let col = CollectionName::new(COL);
        // Members hold plaintext.
        assert_eq!(
            p1.world_state().get_private(&ns, &col, "k1").unwrap().value,
            b"7"
        );
        assert_eq!(
            p2.world_state().get_private(&ns, &col, "k1").unwrap().value,
            b"7"
        );
        // Non-member holds only hashes, same version.
        assert!(p3.world_state().get_private(&ns, &col, "k1").is_none());
        assert_eq!(
            p3.world_state().get_private_hash(&ns, &col, "k1"),
            p1.world_state().get_private_hash(&ns, &col, "k1")
        );
    }

    #[test]
    fn member_missing_plaintext_commits_hashes_and_reports() {
        let p1 = make_peer("peer0.org1", "Org1MSP", 54);
        let mut p2 = make_peer("peer0.org2", "Org2MSP", 55);
        let (tx, _) = write_tx(&[&p1, &p2.clone()], 9, 2);
        let block = block_of(&p2, vec![tx.clone()]);
        let mut no_pkg = |_: &TxId| None;
        let outcome = p2.process_block(block, &mut no_pkg).unwrap();
        assert_eq!(outcome.validation_codes, vec![TxValidationCode::Valid]);
        assert_eq!(outcome.missing_private_data, vec![tx.tx_id.clone()]);
        let ns = fabric_types::ChaincodeId::new("guarded");
        let col = CollectionName::new(COL);
        assert!(p2.world_state().get_private(&ns, &col, "k1").is_none());
        assert!(p2.world_state().get_private_hash(&ns, &col, "k1").is_some());
    }

    /// A member handed plaintext that does not hash to the transaction's
    /// committed private writes keeps none of it (Fig. 2, step 18): the
    /// transaction is still valid, only its hashes are committed, and it
    /// awaits reconciliation.
    #[test]
    fn forged_plaintext_is_refused_at_commit() {
        let p1 = make_peer("peer0.org1", "Org1MSP", 75);
        let p2 = make_peer("peer0.org2", "Org2MSP", 76);
        let (tx, honest) = write_tx(&[&p1, &p2], 7, 19);
        let ns = fabric_types::ChaincodeId::new("guarded");
        let col = CollectionName::new(COL);

        let mut reference = p2.clone();
        let mut with_honest = |_: &TxId| Some(honest.clone());
        reference
            .process_block(block_of(&p2, vec![tx.clone()]), &mut with_honest)
            .unwrap();
        let state = reference.world_state();
        assert_eq!(state.get_private(&ns, &col, "k1").unwrap().value, b"7");

        type Forgery = fn(&mut CollectionPvtRwSet);
        let forgeries: [(&str, Forgery); 5] = [
            ("changed value", |c| {
                c.rwset.writes[0].value = Some(b"8".to_vec())
            }),
            ("changed key", |c| c.rwset.writes[0].key = "k2".into()),
            ("flipped delete flag", |c| {
                c.rwset.writes[0].is_delete ^= true
            }),
            ("wrong collection", |c| {
                c.collection = CollectionName::new("PDC2")
            }),
            ("extra write", |c| {
                c.rwset.writes.push(KvWrite {
                    key: "k2".into(),
                    value: Some(b"8".to_vec()),
                    is_delete: false,
                })
            }),
        ];
        for (forgery, forge) in forgeries {
            let mut forged = (*honest).clone();
            forge(&mut forged.collections[0]);
            let forged = Arc::new(forged);
            let mut member = p2.clone();
            let mut with_forged = |_: &TxId| Some(forged.clone());
            let outcome = member
                .process_block(block_of(&p2, vec![tx.clone()]), &mut with_forged)
                .unwrap();
            assert_eq!(
                outcome.validation_codes,
                vec![TxValidationCode::Valid],
                "{forgery}"
            );
            assert_eq!(
                outcome.missing_private_data,
                vec![tx.tx_id.clone()],
                "{forgery}"
            );
            let held = member.world_state();
            for key in ["k1", "k2"] {
                assert!(held.get_private(&ns, &col, key).is_none(), "{forgery}");
            }
            assert_eq!(
                held.get_private_hash(&ns, &col, "k1"),
                state.get_private_hash(&ns, &col, "k1"),
                "{forgery}"
            );
            assert!(
                held.get_private_hash(&ns, &col, "k2").is_none(),
                "{forgery}"
            );
        }
    }

    #[test]
    fn insufficient_endorsements_fail_policy() {
        // MAJORITY of 3 orgs needs 2; one endorsement fails.
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 56);
        let (tx, pkg) = write_tx(&[&p1.clone()], 7, 3);
        let block = block_of(&p1, vec![tx]);
        let mut with_pkg = |_: &TxId| Some(pkg.clone());
        let outcome = p1.process_block(block, &mut with_pkg).unwrap();
        assert_eq!(
            outcome.validation_codes,
            vec![TxValidationCode::EndorsementPolicyFailure]
        );
    }

    #[test]
    fn tampered_payload_fails_endorser_signatures() {
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 57);
        let p2 = make_peer("peer0.org2", "Org2MSP", 58);
        let (mut tx, pkg) = write_tx(&[&p1.clone(), &p2], 7, 4);
        tx.payload.response.payload = b"forged".to_vec();
        // Re-sign as client so the failure isolates to endorsements.
        let client_kp = Keypair::generate_from_seed(1004);
        tx.client_signature = client_kp.sign(&Transaction::client_signed_bytes(
            &tx.tx_id,
            &tx.payload,
            &tx.endorsements,
        ));
        tx.creator = Identity::new("Org1MSP", Role::Client, client_kp.public_key());
        let block = block_of(&p1, vec![tx]);
        let mut with_pkg = |_: &TxId| Some(pkg.clone());
        let outcome = p1.process_block(block, &mut with_pkg).unwrap();
        assert_eq!(
            outcome.validation_codes,
            vec![TxValidationCode::InvalidEndorserSignature]
        );
    }

    #[test]
    fn duplicate_txid_rejected_within_and_across_blocks() {
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 59);
        let p2 = make_peer("peer0.org2", "Org2MSP", 60);
        let (tx, pkg) = write_tx(&[&p1.clone(), &p2], 7, 5);
        let block = block_of(&p1, vec![tx.clone(), tx.clone()]);
        let mut with_pkg = |_: &TxId| Some(pkg.clone());
        let outcome = p1.process_block(block, &mut with_pkg).unwrap();
        assert_eq!(
            outcome.validation_codes,
            vec![TxValidationCode::Valid, TxValidationCode::DuplicateTxId]
        );
        // Same tx in a later block is also rejected.
        let block2 = block_of(&p1, vec![tx]);
        let outcome2 = p1.process_block(block2, &mut with_pkg).unwrap();
        assert_eq!(
            outcome2.validation_codes,
            vec![TxValidationCode::DuplicateTxId]
        );
    }

    #[test]
    fn three_copies_of_one_txid_yield_two_duplicates() {
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 65);
        let p2 = make_peer("peer0.org2", "Org2MSP", 66);
        let (tx, pkg) = write_tx(&[&p1.clone(), &p2], 7, 9);
        let block = block_of(&p1, vec![tx.clone(), tx.clone(), tx.clone()]);
        let mut with_pkg = |_: &TxId| Some(pkg.clone());
        let outcome = p1.process_block(block, &mut with_pkg).unwrap();
        assert_eq!(
            outcome.validation_codes,
            vec![
                TxValidationCode::Valid,
                TxValidationCode::DuplicateTxId,
                TxValidationCode::DuplicateTxId,
            ]
        );

        // Later copies are duplicates even when the first copy is invalid
        // (Fabric marks by tx-id occurrence, not by validity).
        let mut p3 = make_peer("peer0.org1", "Org1MSP", 67);
        let p4 = make_peer("peer0.org2", "Org2MSP", 68);
        let (mut bad, pkg2) = write_tx(&[&p3.clone(), &p4], 7, 10);
        bad.payload.response.payload = b"forged".to_vec();
        let block = block_of(&p3, vec![bad.clone(), bad.clone(), bad]);
        let mut with_pkg2 = |_: &TxId| Some(pkg2.clone());
        let outcome = p3.process_block(block, &mut with_pkg2).unwrap();
        assert_eq!(
            outcome.validation_codes,
            vec![
                TxValidationCode::InvalidClientSignature,
                TxValidationCode::DuplicateTxId,
                TxValidationCode::DuplicateTxId,
            ]
        );
    }

    #[test]
    fn non_chaining_block_rejected_without_commit() {
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 61);
        let p2 = make_peer("peer0.org2", "Org2MSP", 62);
        // One committed block first, so "unchanged" is not "empty".
        let (first, first_pkg) = write_tx(&[&p1.clone(), &p2], 7, 6);
        let mut with_first = |_: &TxId| Some(first_pkg.clone());
        p1.process_block(block_of(&p1, vec![first]), &mut with_first)
            .unwrap();

        // A transaction that would commit on a block that extends the chain.
        let (tx, pkg) = write_tx(&[&p1.clone(), &p2], 8, 16);
        let height = p1.block_store().height();
        let tip = p1.block_store().tip_hash();
        let bogus = fabric_crypto::sha256(b"bogus");
        let mut wrong_data_hash = Block::new(height, tip, vec![tx.clone()]);
        wrong_data_hash.header.data_hash = bogus;
        let cases = [
            (
                "non_sequential_number",
                Block::new(height + 4, tip, vec![tx.clone()]),
            ),
            ("broken_chain", Block::new(height, bogus, vec![tx.clone()])),
            ("data_hash_mismatch", wrong_data_hash),
        ];

        let digest = p1.world_state().digest();
        let mut with_pkg = |_: &TxId| Some(pkg.clone());
        for (kind, bad) in cases {
            let err = p1.process_block(bad, &mut with_pkg).unwrap_err();
            assert_eq!(err.kind(), kind);
            assert_eq!(p1.block_store().height(), height, "{kind}");
            assert_eq!(p1.block_store().tip_hash(), tip, "{kind}");
            assert_eq!(p1.world_state().digest(), digest, "{kind}");
            assert!(!p1.block_store().contains_tx(&tx.tx_id), "{kind}");
        }
    }

    #[test]
    fn mvcc_conflict_between_blocks() {
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 63);
        let mut p2 = make_peer("peer0.org2", "Org2MSP", 64);
        // Commit k1 = 5 first.
        let (tx1, pkg1) = write_tx(&[&p1, &p2], 5, 7);
        let block1 = block_of(&p1, vec![tx1]);
        let mut with_pkg1 = |_: &TxId| Some(pkg1.clone());
        p1.process_block(block1.clone(), &mut with_pkg1).unwrap();
        p2.process_block(block1, &mut with_pkg1).unwrap();

        // An "add" endorsed now reads version (0,0)... build it before the
        // next write commits, then commit a conflicting write first.
        let (add_tx, add_pkg) = add_tx(&p1, &p2, 50);

        // A conflicting write commits in between.
        let (tx2, pkg2) = write_tx(&[&p1, &p2], 6, 8);
        let block2 = block_of(&p1, vec![tx2]);
        let mut with_pkg2 = |_: &TxId| Some(pkg2.clone());
        p1.process_block(block2, &mut with_pkg2).unwrap();

        // Now the add's read version is stale.
        let block3 = block_of(&p1, vec![add_tx]);
        let mut with_add = |_: &TxId| add_pkg.clone();
        let outcome = p1.process_block(block3, &mut with_add).unwrap();
        assert_eq!(
            outcome.validation_codes,
            vec![TxValidationCode::MvccReadConflict]
        );
    }

    /// An `add` of 1 to `k1`, endorsed by `p1` and `p2` against their
    /// current state.
    fn add_tx(p1: &Peer, p2: &Peer, nonce: u64) -> (Transaction, Option<Arc<PvtDataPackage>>) {
        let client_kp = Keypair::generate_from_seed(1950 + nonce);
        let creator = Identity::new("Org1MSP", Role::Client, client_kp.public_key());
        let add_proposal = Proposal::new(
            "ch1",
            "guarded",
            "add",
            vec![b"k1".to_vec(), b"1".to_vec()],
            BTreeMap::new(),
            creator.clone(),
            nonce,
        );
        let (r1, add_pkg) = p1.endorse(&add_proposal).unwrap();
        let (r2, _) = p2.endorse(&add_proposal).unwrap();
        let endorsements = vec![r1.endorsement.clone(), r2.endorsement];
        let client_signature = client_kp.sign(&Transaction::client_signed_bytes(
            &add_proposal.tx_id,
            &r1.payload,
            &endorsements,
        ));
        let add_tx = Transaction {
            tx_id: add_proposal.tx_id.clone(),
            channel: add_proposal.channel.clone(),
            chaincode: add_proposal.chaincode.clone(),
            creator,
            payload: r1.payload,
            commitment: r1.commitment,
            endorsements,
            client_signature,
            memo: Default::default(),
        };
        (add_tx, add_pkg.map(Arc::new))
    }

    /// Each code's `fabric_validation_results_total` series is resolved
    /// once, and exists only after the code first occurs.
    #[test]
    fn validation_code_series_appear_when_their_code_occurs() {
        let telemetry = fabric_telemetry::Telemetry::new();
        let mut p1 = make_peer("peer0.org1", "Org1MSP", 73);
        let mut p2 = make_peer("peer0.org2", "Org2MSP", 74);
        p1.set_telemetry(telemetry.clone());
        let (tx1, pkg1) = write_tx(&[&p1, &p2], 5, 18);
        let block1 = block_of(&p1, vec![tx1]);
        let mut with_pkg1 = |_: &TxId| Some(pkg1.clone());
        p1.process_block(block1.clone(), &mut with_pkg1).unwrap();
        p2.process_block(block1, &mut with_pkg1).unwrap();

        // Three adds read k1 at one version: the first commits, the other
        // two conflict with it.
        let adds: Vec<_> = (60..63).map(|nonce| add_tx(&p1, &p2, nonce)).collect();
        let block2 = block_of(&p1, adds.iter().map(|(tx, _)| tx.clone()).collect());
        let mut provider = |id: &TxId| {
            adds.iter()
                .find(|(tx, _)| tx.tx_id == *id)
                .and_then(|(_, pkg)| pkg.clone())
        };
        let outcome = p1.process_block(block2, &mut provider).unwrap();
        assert_eq!(
            outcome.validation_codes,
            vec![
                TxValidationCode::Valid,
                TxValidationCode::MvccReadConflict,
                TxValidationCode::MvccReadConflict,
            ]
        );

        let exposition = telemetry.metrics().render_prometheus();
        let series = |code: TxValidationCode| {
            format!(
                "fabric_validation_results_total{{code=\"{}\"}}",
                code.as_str()
            )
        };
        assert!(
            exposition.contains(&format!("{} 2\n", series(TxValidationCode::Valid))),
            "{exposition}"
        );
        assert!(
            exposition.contains(&format!(
                "{} 2\n",
                series(TxValidationCode::MvccReadConflict)
            )),
            "{exposition}"
        );
        // The six codes after VALID and MVCC_READ_CONFLICT never occurred.
        for code in &TxValidationCode::ALL[2..] {
            assert!(!exposition.contains(&series(*code)), "{exposition}");
        }
    }
}
