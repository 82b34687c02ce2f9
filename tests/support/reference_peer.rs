//! The reference validator: the oracle the equivalence tests compare
//! [`Peer::process_block`] against.
//!
//! A [`ReferencePeer`] is a replica of one peer's ledger, built from the
//! peer's public accessors. It validates with none of the shipped commit
//! path's logic: it is strictly sequential, parses every policy expression
//! from its text at the point of use (never the definition's parsed forms), verifies signatures in two
//! passes, hashes the whole transaction list on both the pre-check and the
//! append, and applies writes through the original clone-heavy path. Its
//! independence from `process_block` is what makes agreement meaningful.

use fabric_pdc::chaincode::ChaincodeDefinition;
use fabric_pdc::crypto::sha256;
use fabric_pdc::ledger::{BlockStore, BlockStoreError, HistoryDb, WorldState};
use fabric_pdc::peer::{BlockCommitOutcome, CommitError, Peer, PvtDataProvider};
use fabric_pdc::policy::{ChannelPolicies, Policy, SignaturePolicy};
use fabric_pdc::types::{
    Block, ChaincodeId, ChannelId, CollectionConfig, CollectionName, DefenseConfig, Identity,
    OrgId, PvtDataPackage, Transaction, TxId, TxValidationCode, Version,
};
use fabric_pdc::wire::Encode;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A chaincode as the reference sees it: the channel-agreed definition and
/// the collections the replicated peer's org belongs to.
struct ReferenceChaincode {
    definition: ChaincodeDefinition,
    memberships: HashSet<CollectionName>,
}

/// A replica of one peer's ledger, advanced by the reference validator.
pub struct ReferencePeer {
    /// The replicated world state.
    pub world_state: WorldState,
    /// The replicated chain.
    pub block_store: BlockStore,
    /// The replicated `GetHistoryForKey` index.
    pub history: HistoryDb,
    channel: ChannelId,
    chaincodes: HashMap<ChaincodeId, ReferenceChaincode>,
    channel_policies: ChannelPolicies,
    defense: DefenseConfig,
}

/// The orgs `cfg`'s membership policy names, parsed from its text; none
/// when it does not parse.
fn member_orgs(cfg: &CollectionConfig) -> Vec<OrgId> {
    SignaturePolicy::parse(&cfg.member_policy)
        .map(|p| p.organizations())
        .unwrap_or_default()
}

impl From<&Peer> for ReferencePeer {
    fn from(peer: &Peer) -> Self {
        ReferencePeer {
            world_state: peer.world_state().clone(),
            block_store: peer.block_store().clone(),
            history: peer.history().clone(),
            channel: peer.channel().clone(),
            chaincodes: peer
                .chaincodes()
                .map(|cc| {
                    (
                        cc.definition.id.clone(),
                        ReferenceChaincode {
                            definition: cc.definition.clone(),
                            memberships: cc
                                .definition
                                .collections()
                                .filter(|c| member_orgs(c).contains(peer.org()))
                                .map(|c| c.name.clone())
                                .collect(),
                        },
                    )
                })
                .collect(),
            channel_policies: peer.channel_policies().clone(),
            defense: peer.defense(),
        }
    }
}

impl ReferencePeer {
    /// Validates and commits `block`, with the same contract as
    /// [`Peer::process_block`].
    pub fn process_block(
        &mut self,
        block: Block,
        pvt_provider: &mut PvtDataProvider<'_>,
    ) -> Result<BlockCommitOutcome, CommitError> {
        check_extends(&self.block_store, &block)?;

        let block_num = block.header.number;
        let mut codes = Vec::with_capacity(block.transactions.len());
        let mut missing = Vec::new();
        let mut events = Vec::new();
        let mut seen_in_block: HashSet<TxId> = HashSet::new();

        for (i, tx) in block.transactions.iter().enumerate() {
            let code = if seen_in_block.contains(&tx.tx_id) {
                TxValidationCode::DuplicateTxId
            } else {
                self.validate(tx)
            };
            seen_in_block.insert(tx.tx_id.clone());
            if code.is_valid() {
                let version = Version::new(block_num, i as u64);
                if !self.apply_transaction(tx, version, pvt_provider) {
                    missing.push(tx.tx_id.clone());
                }
                if let Some(event) = &tx.payload.event {
                    events.push((tx.tx_id.clone(), event.clone()));
                }
            }
            codes.push(code);
        }

        let mut block = block;
        block.metadata.validation_codes = codes.clone();
        // The original `append` re-ran every structural check, re-hashing
        // the whole transaction list a second time.
        check_extends(&self.block_store, &block)?;
        self.block_store.append_unchecked(block);
        self.purge_expired(block_num);

        Ok(BlockCommitOutcome {
            validation_codes: codes,
            missing_private_data: missing,
            events,
        })
    }

    /// One transaction: signatures, channel, committed duplicate, every
    /// endorsement policy parsed afresh, then MVCC.
    fn validate(&self, tx: &Transaction) -> TxValidationCode {
        if !tx.verify_client_signature() {
            return TxValidationCode::InvalidClientSignature;
        }
        if tx.endorsements.is_empty() || !tx.verify_endorsement_signatures() {
            return TxValidationCode::InvalidEndorserSignature;
        }
        if tx.channel != self.channel {
            return TxValidationCode::BadPayload;
        }
        if self.block_store.contains_tx(&tx.tx_id) {
            return TxValidationCode::DuplicateTxId;
        }

        let endorsers: Vec<Identity> = tx.endorsements.iter().map(|e| e.endorser.clone()).collect();

        for ns in &tx.payload.results.ns_rwsets {
            let Some(installed) = self.chaincodes.get(&ns.namespace) else {
                return TxValidationCode::BadPayload;
            };
            let def = &installed.definition;

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
                        let Ok(key_policy) = SignaturePolicy::parse(expr) else {
                            return TxValidationCode::BadPayload;
                        };
                        if !key_policy.satisfied_by(&endorsers) {
                            return TxValidationCode::EndorsementPolicyFailure;
                        }
                    }
                    None => non_sbe_public_writes = true,
                }
            }

            let needs_chaincode_policy = !ns.public.reads.is_empty()
                || non_sbe_public_writes
                || !ns.collections.is_empty()
                || (ns.public.writes.is_empty() && ns.metadata_writes.is_empty());
            if needs_chaincode_policy {
                let Ok(cc_policy) = Policy::parse(def.endorsement_policy()) else {
                    return TxValidationCode::BadPayload;
                };
                if !cc_policy.evaluate(&self.channel_policies, &endorsers) {
                    return TxValidationCode::EndorsementPolicyFailure;
                }
            }

            for col in &ns.collections {
                let Some(cfg) = def.collection(&col.collection) else {
                    return TxValidationCode::BadPayload;
                };
                let has_writes = !col.writes.is_empty();
                let has_reads = !col.reads.is_empty();
                let apply_collection_policy = cfg.endorsement_policy.is_some()
                    && (has_writes || (self.defense.collection_policy_for_reads && has_reads));
                if apply_collection_policy {
                    let expr = cfg
                        .endorsement_policy
                        .as_deref()
                        .expect("checked is_some above");
                    let Ok(col_policy) = SignaturePolicy::parse(expr) else {
                        return TxValidationCode::BadPayload;
                    };
                    if !col_policy.satisfied_by(&endorsers) {
                        return TxValidationCode::EndorsementPolicyFailure;
                    }
                }
                if self.defense.filter_non_member_endorsers {
                    let members = member_orgs(cfg);
                    let all_members = endorsers.iter().all(|e| members.contains(&e.org));
                    if !all_members {
                        return TxValidationCode::NonMemberEndorsement;
                    }
                }
            }
        }

        for ns in &tx.payload.results.ns_rwsets {
            if self
                .world_state
                .check_mvcc_public(&ns.namespace, &ns.public.reads)
                .is_err()
            {
                return TxValidationCode::MvccReadConflict;
            }
            for col in &ns.collections {
                if self
                    .world_state
                    .check_mvcc_hashed(&ns.namespace, &col.collection, &col.reads)
                    .is_err()
                {
                    return TxValidationCode::MvccReadConflict;
                }
            }
        }
        TxValidationCode::Valid
    }

    /// The original apply path: clones the namespace rwsets and the
    /// private-data package, and verifies plaintext by materializing a
    /// fully hashed copy (`to_hashed`) before applying. Returns `false`
    /// when a member could not obtain matching plaintext.
    fn apply_transaction(
        &mut self,
        tx: &Transaction,
        version: Version,
        pvt_provider: &mut PvtDataProvider<'_>,
    ) -> bool {
        let mut plaintext_complete = true;
        let mut package: Option<Option<Arc<PvtDataPackage>>> = None;

        let ns_rwsets = tx.payload.results.ns_rwsets.clone();
        for ns in &ns_rwsets {
            self.world_state
                .apply_public_writes(&ns.namespace, &ns.public, version);
            self.world_state
                .apply_metadata_writes(&ns.namespace, &ns.metadata_writes);
            for w in &ns.public.writes {
                self.history.record(
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
                let is_member = self
                    .chaincodes
                    .get(&ns.namespace)
                    .is_some_and(|cc| cc.memberships.contains(&col.collection));
                let mut applied_plaintext = false;
                if is_member {
                    let pkg = package
                        .get_or_insert_with(|| pvt_provider(&tx.tx_id))
                        .as_ref()
                        .map(|p| (**p).clone());
                    if let Some(pkg) = pkg {
                        // Verify plaintext against committed hashes before
                        // updating the ledger (Fig. 2, step 18).
                        let matching = pkg
                            .namespaces
                            .iter()
                            .zip(&pkg.collections)
                            .find(|(n, c)| **n == ns.namespace && c.collection == col.collection)
                            .map(|(_, c)| c);
                        if let Some(pvt) = matching {
                            if pvt.to_hashed() == *col {
                                self.world_state
                                    .apply_private_writes(&ns.namespace, pvt, version);
                                applied_plaintext = true;
                            }
                        }
                    }
                }
                if !applied_plaintext {
                    self.world_state.apply_hashed_writes(
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

/// The structural block checks: the data hash is recomputed from a deep
/// copy of the transaction list, so no memoized digest is trusted or left
/// behind.
fn check_extends(store: &BlockStore, block: &Block) -> Result<(), CommitError> {
    let expected_number = store.height();
    if block.header.number != expected_number {
        return Err(BlockStoreError::NonSequentialNumber {
            expected: expected_number,
            found: block.header.number,
        }
        .into());
    }
    let expected_prev = store.tip_hash();
    if block.header.previous_hash != expected_prev {
        return Err(BlockStoreError::BrokenChain {
            expected: expected_prev,
            found: block.header.previous_hash,
        }
        .into());
    }
    let mut preimage = (block.transactions.len() as u64).to_wire();
    for tx in block.transactions.iter() {
        preimage.extend_from_slice(sha256(&tx.clone().to_wire()).as_bytes());
    }
    if block.header.data_hash != sha256(&preimage) {
        return Err(BlockStoreError::DataHashMismatch.into());
    }
    Ok(())
}
