//! Cross-block pipelined commit scheduling.
//!
//! [`Peer::process_block`] barrier-synchronizes its two stages per block:
//! the stateless pass over block N must finish before N's stateful merge
//! starts, and N's merge must finish before N+1's stateless pass starts.
//! The scheduler in this module removes the second barrier: a *producer*
//! thread runs the stateless stage of block N+1 while the committer thread
//! merges block N, so the two stages of consecutive blocks overlap.
//!
//! ```text
//!                 time ─────────────────────────────────────▶
//! per-block:   [stateless N][merge N][stateless N+1][merge N+1]
//!
//! overlapped:  [stateless N][stateless N+1][stateless N+2]   producer
//!                           [merge N]      [merge N+1]  …    committer
//! ```
//!
//! The split of work between the stages differs from the per-block
//! pipeline in one deliberate way: the producer performs **only**
//! state-independent checks — batched signature verification, channel
//! membership, the data-hash integrity of the block, and the stateless
//! audit signals — because the ledger state it would need for anything
//! else is concurrently advancing under the merge of the previous block.
//! Everything state-dependent (committed-duplicate lookup, every
//! endorsement-policy evaluation, MVCC, and the writes) runs in the
//! sequential merge against the live state. Policy evaluation against the
//! live mid-block state is equivalent to the per-block pipeline's
//! pre-block-verdict-plus-dirty-recheck scheme: policies read the world
//! state only through key-level validation parameters, so a transaction
//! whose touched parameters were *not* rewritten earlier in the block
//! sees exactly the pre-block values, and one whose parameters *were*
//! rewritten is exactly the case the pipeline re-checks live.
//!
//! Signature verification is the producer's dominant cost, and it is where
//! the batching win lands: one [`BatchVerifier`] persists across the whole
//! stream, so each endorser identity's HMAC pad midstates are fetched from
//! the CA registry once per stream instead of once per signature.
//!
//! Equivalence with [`Peer::process_block`] and the frozen reference path
//! — identical validation codes, state digests, audit-event order, and
//! chain tips — is proven by `tests/pipeline_equivalence.rs`.

use crate::channel::ChannelPolicies;
use crate::commit::{
    apply_transaction_parts, audit_transaction, mvcc_checks_parts, policy_checks_parts,
    purge_expired_parts, record_block_metrics, signature_check_batched, stateless_audit,
    touches_dirty_params, AuditFactsCache, BlockCommitOutcome, CommitError, PvtDataProvider,
};
use crate::node::{InstalledChaincode, Peer};
use crate::telemetry::PeerTelemetry;
use fabric_crypto::BatchVerifier;
use fabric_gossip::PeerId;
use fabric_ledger::{BlockStore, BlockStoreError, HistoryDb, WorldState};
use fabric_policy::PolicyCache;
use fabric_telemetry::{AuditEvent, TraceContext};
use fabric_types::{Block, ChaincodeId, ChannelId, DefenseConfig, TxId, TxValidationCode, Version};
use fabric_wire::IdSet;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::time::Instant;

/// Blocks the producer may run ahead of the merge. Small on purpose: the
/// stages are roughly balanced, so a deep queue only grows memory without
/// adding overlap.
const PIPELINE_DEPTH: usize = 2;

/// Minimum transactions per block before the producer fans its stateless
/// pass out across threads (mirrors the per-block pipeline's threshold).
const MIN_PARALLEL: usize = 4;

/// Per-transaction result of the producer's stateless pass. Narrower than
/// the per-block pipeline's verdict: committed-duplicate lookup and policy
/// evaluation are state-dependent and belong to the merge.
#[derive(Debug, Clone, Default)]
struct OverlapVerdict {
    /// Failure from signature or channel checks; `None` = passed.
    structural: Option<TxValidationCode>,
    /// Audit events derived from the transaction and the (immutable)
    /// chaincode definitions; emitted by the merge, in block order.
    audit: Vec<AuditEvent>,
}

/// A block that has been through the producer stage and is queued for the
/// sequential merge.
struct StagedBlock {
    block: Block,
    verdicts: Vec<OverlapVerdict>,
    /// Outcome of the (stateless, hashing-heavy) data-hash integrity
    /// check, carried to the merge which owns the chain-linkage decision.
    data_hash_ok: bool,
}

/// The shared, read-only parts of a peer the producer stage needs.
struct StatelessCtx<'a> {
    chaincodes: &'a HashMap<ChaincodeId, InstalledChaincode>,
    channel: &'a ChannelId,
    telemetry: Option<PeerTelemetry>,
    /// Fan the per-transaction pass out across scoped threads (the peer's
    /// `parallel_validation` knob).
    parallel: bool,
    /// Worker budget for the fan-out; the committer thread is excluded so
    /// the merge keeps a core while the producer runs.
    workers: usize,
}

/// The mutable ledger parts plus read-only context the merge stage needs.
/// Split borrows of one [`Peer`]: the producer holds the chaincode map and
/// channel id while the merge holds the state, chain, and history.
struct MergeParts<'a> {
    world_state: &'a mut WorldState,
    block_store: &'a mut BlockStore,
    history: &'a mut HistoryDb,
    chaincodes: &'a HashMap<ChaincodeId, InstalledChaincode>,
    channel_policies: &'a ChannelPolicies,
    defense: DefenseConfig,
    sbe_policies: &'a PolicyCache,
    telemetry: Option<PeerTelemetry>,
    gossip_id: &'a PeerId,
}

impl StatelessCtx<'_> {
    /// The producer stage for one block: data-hash integrity, batched
    /// signatures, channel membership, and the stateless audit signals.
    /// `batch` persists across the stream's sequential path so each
    /// endorser identity resolves against the CA registry once.
    fn stage_block(&self, block: Block, batch: &mut BatchVerifier) -> StagedBlock {
        let tracing = self.telemetry.as_ref().is_some_and(|t| t.tracing_enabled());
        let mark = tracing.then(Instant::now);
        let data_hash_ok = block.data_hash_is_consistent();
        let verdicts =
            if self.parallel && block.transactions.len() >= MIN_PARALLEL && self.workers >= 2 {
                self.stage_parallel(&block.transactions)
            } else {
                let mut audit_cache = AuditFactsCache::default();
                block
                    .transactions
                    .iter()
                    .map(|tx| self.stage_tx(tx, batch, &mut audit_cache))
                    .collect()
            };
        if let (Some(t), Some(mark)) = (&self.telemetry, mark) {
            // Per-block attribution: the stateless histogram observes this
            // block's own pass, wherever it ran, so the distribution is
            // identical to the per-block pipeline's.
            t.stage_stateless.observe_duration(mark.elapsed());
        }
        StagedBlock {
            block,
            verdicts,
            data_hash_ok,
        }
    }

    /// The per-transaction stateless checks of one block, fanned out
    /// across scoped threads. Each worker keeps its own [`BatchVerifier`],
    /// amortizing identity resolution within its chunk.
    fn stage_parallel(&self, transactions: &[fabric_types::Transaction]) -> Vec<OverlapVerdict> {
        let workers = self.workers.min(transactions.len());
        let chunk_size = transactions.len().div_ceil(workers);
        let mut results = vec![OverlapVerdict::default(); transactions.len()];
        std::thread::scope(|scope| {
            let chunks = transactions.chunks(chunk_size);
            let result_chunks = results.chunks_mut(chunk_size);
            for (txs, out) in chunks.zip(result_chunks) {
                scope.spawn(move || {
                    let mut batch = BatchVerifier::new();
                    let mut audit_cache = AuditFactsCache::default();
                    for (tx, slot) in txs.iter().zip(out.iter_mut()) {
                        *slot = self.stage_tx(tx, &mut batch, &mut audit_cache);
                    }
                });
            }
        });
        results
    }

    fn stage_tx<'a>(
        &'a self,
        tx: &'a fabric_types::Transaction,
        batch: &mut BatchVerifier,
        audit_cache: &mut AuditFactsCache<'a>,
    ) -> OverlapVerdict {
        let audit = if self.telemetry.is_some() {
            stateless_audit(self.chaincodes, tx, audit_cache)
        } else {
            Vec::new()
        };
        let structural = if let Some(code) = signature_check_batched(tx, batch) {
            Some(code)
        } else if tx.channel != *self.channel {
            Some(TxValidationCode::BadPayload)
        } else {
            None
        };
        OverlapVerdict { structural, audit }
    }
}

impl MergeParts<'_> {
    /// The sequential merge of one staged block: chain linkage, the
    /// state-dependent per-transaction checks, the writes, and the append.
    /// Identical effect order to [`Peer::process_block`]'s stage 2, so the
    /// audit-event sequence and state digests match exactly.
    fn merge_block(
        &mut self,
        staged: StagedBlock,
        pvt_provider: &mut PvtDataProvider<'_>,
    ) -> Result<BlockCommitOutcome, CommitError> {
        let StagedBlock {
            block,
            mut verdicts,
            data_hash_ok,
        } = staged;

        // Chain linkage against the *live* tip (the producer cannot know
        // it); the data-hash leg was pre-computed statelessly. Checked
        // before any mutation, so a failing block commits nothing.
        let expected_number = self.block_store.height();
        if block.header.number != expected_number {
            return Err(BlockStoreError::NonSequentialNumber {
                expected: expected_number,
                found: block.header.number,
            }
            .into());
        }
        let expected_prev = self.block_store.tip_hash();
        if block.header.previous_hash != expected_prev {
            return Err(BlockStoreError::BrokenChain {
                expected: expected_prev,
                found: block.header.previous_hash,
            }
            .into());
        }
        if !data_hash_ok {
            return Err(BlockStoreError::DataHashMismatch.into());
        }

        let block_num = block.header.number;
        let mut missing = Vec::new();
        let mut events = Vec::new();
        let telemetry = self.telemetry.clone();
        let tracing = telemetry.as_ref().is_some_and(|t| t.tracing_enabled());
        let block_span = if tracing {
            telemetry.as_ref().map(|t| {
                let mut s = t.span("peer.process_block");
                s.node(self.gossip_id.as_str());
                s.field("block", block_num);
                s.field("txs", block.transactions.len());
                s
            })
        } else {
            None
        };
        let mark = tracing.then(Instant::now);
        if let Some(t) = &telemetry {
            // New block entering the merge: re-arm per-block collector
            // state (the flight recorder's trigger dedup).
            t.block_boundary();
        }

        let mut block = block;
        let Block {
            transactions,
            metadata,
            ..
        } = &mut block;
        {
            let mut seen_in_block: IdSet<&TxId> =
                IdSet::with_capacity_and_hasher(transactions.len(), Default::default());
            let mut dirty_params: HashSet<(&ChaincodeId, &str)> = HashSet::new();
            for (i, tx) in transactions.iter().enumerate() {
                let commit_span = if tracing {
                    telemetry.as_ref().map(|t| {
                        let mut s = t.span("peer.commit");
                        s.trace(TraceContext::for_tx(tx.tx_id.as_str()));
                        s.node(self.gossip_id.as_str());
                        s
                    })
                } else {
                    None
                };
                let mut sbe_rechecked = false;
                let code = if !seen_in_block.insert(&tx.tx_id) {
                    TxValidationCode::DuplicateTxId
                } else if let Some(failure) = verdicts[i].structural {
                    failure
                } else if self.block_store.contains_tx(&tx.tx_id) {
                    // Committed-duplicate lookup is state-dependent under
                    // overlap (the chain advances while the producer
                    // runs), so it lives here rather than in stage 1.
                    TxValidationCode::DuplicateTxId
                } else {
                    // All policy evaluation runs against the live state;
                    // the dirty-params set is kept solely so the audit
                    // stream carries the same SBE re-check events as the
                    // per-block pipeline.
                    sbe_rechecked = touches_dirty_params(tx, &dirty_params);
                    let policy = policy_checks_parts(
                        self.chaincodes,
                        self.channel_policies,
                        self.defense,
                        self.sbe_policies,
                        self.world_state,
                        tx,
                    );
                    match policy {
                        Some(failure) => failure,
                        None => mvcc_checks_parts(self.world_state, tx)
                            .unwrap_or(TxValidationCode::Valid),
                    }
                };
                if code.is_valid() {
                    let version = Version::new(block_num, i as u64);
                    if !apply_transaction_parts(
                        self.chaincodes,
                        self.world_state,
                        self.history,
                        tx,
                        version,
                        pvt_provider,
                    ) {
                        missing.push(tx.tx_id.clone());
                    }
                    if let Some(event) = &tx.payload.event {
                        events.push((tx.tx_id.clone(), event.clone()));
                    }
                    for ns in &tx.payload.results.ns_rwsets {
                        for m in &ns.metadata_writes {
                            dirty_params.insert((&ns.namespace, m.key.as_str()));
                        }
                    }
                }
                if let Some(t) = &telemetry {
                    let stateless = std::mem::take(&mut verdicts[i].audit);
                    audit_transaction(t, tx, code, sbe_rechecked, stateless);
                }
                if let Some(mut s) = commit_span {
                    s.field("code", code);
                    s.finish();
                }
                metadata.validation_codes.push(code);
            }
        }
        drop(block_span);
        if let (Some(t), Some(mark)) = (&telemetry, mark) {
            // Per-block attribution: only this block's own merge time, so
            // the stateful histogram is invariant under overlap.
            t.stage_stateful.observe_duration(mark.elapsed());
        }

        // Linkage and data hash were checked above; the append cannot fail.
        self.block_store.append_unchecked(block);
        purge_expired_parts(self.chaincodes, self.world_state, block_num);

        let validation_codes = self
            .block_store
            .block(block_num)
            .expect("block was just appended")
            .metadata
            .validation_codes
            .clone();
        if let Some(t) = &telemetry {
            record_block_metrics(t, block_num, &validation_codes, missing.len());
        }
        Ok(BlockCommitOutcome {
            validation_codes,
            missing_private_data: missing,
            events,
        })
    }
}

impl Peer {
    /// Commits a stream of consecutive blocks through the overlapped
    /// pipeline: block N+1's stateless pass runs on a producer thread
    /// while block N's stateful merge runs on the calling thread, and one
    /// [`BatchVerifier`] amortizes endorser-identity resolution across
    /// the whole stream. Results — validation codes, state, audit-event
    /// order, chain tip — are identical to committing each block through
    /// [`Peer::process_block`].
    ///
    /// Falls back to an inline (single-threaded, still batch-verified)
    /// loop when the stream is shorter than two blocks or the host has a
    /// single hardware thread, where overlap cannot help.
    ///
    /// # Errors
    ///
    /// [`CommitError::BlockStore`] for the first block that does not
    /// chain onto the local ledger (or fails its data-hash check).
    /// Earlier blocks of the stream remain committed; the failing block
    /// and everything after it commit nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use fabric_peer::{ChannelPolicies, Peer};
    /// use fabric_crypto::Keypair;
    /// use fabric_types::{Block, DefenseConfig, OrgId};
    ///
    /// let orgs = vec![OrgId::new("Org1MSP")];
    /// let mut peer = Peer::new(
    ///     "peer0.org1",
    ///     "Org1MSP",
    ///     "ch1",
    ///     ChannelPolicies::default_for(&orgs),
    ///     Keypair::generate_from_seed(1),
    ///     DefenseConfig::original(),
    /// );
    /// // Two empty blocks, pre-chained: header hashes do not cover
    /// // metadata, so a stream can be built ahead of the commit.
    /// let b0 = Block::new(0, peer.block_store().tip_hash(), vec![]);
    /// let b1 = Block::new(1, b0.hash(), vec![]);
    /// let outcomes = peer
    ///     .process_blocks_overlapped(vec![b0, b1], &mut |_| None)
    ///     .unwrap();
    /// assert_eq!(outcomes.len(), 2);
    /// assert_eq!(peer.block_store().height(), 2);
    /// ```
    pub fn process_blocks_overlapped(
        &mut self,
        blocks: Vec<Block>,
        pvt_provider: &mut PvtDataProvider<'_>,
    ) -> Result<Vec<BlockCommitOutcome>, CommitError> {
        let cores = crate::host_cores();
        let Peer {
            gossip_id,
            channel,
            world_state,
            block_store,
            history,
            chaincodes,
            channel_policies,
            defense,
            parallel_validation,
            sbe_policies,
            telemetry,
            ..
        } = self;
        let ctx = StatelessCtx {
            chaincodes,
            channel,
            telemetry: telemetry.clone(),
            parallel: *parallel_validation,
            workers: cores.saturating_sub(1).max(1),
        };
        let mut parts = MergeParts {
            world_state,
            block_store,
            history,
            chaincodes,
            channel_policies,
            defense: *defense,
            sbe_policies,
            telemetry: telemetry.clone(),
            gossip_id,
        };

        if blocks.len() < 2 || cores < 2 {
            // Overlap cannot help; run the same two stages back to back on
            // this thread. The stream-wide batch verifier still applies.
            let mut batch = BatchVerifier::new();
            let mut outcomes = Vec::with_capacity(blocks.len());
            for block in blocks {
                let staged = ctx.stage_block(block, &mut batch);
                outcomes.push(parts.merge_block(staged, pvt_provider)?);
            }
            return Ok(outcomes);
        }

        let (staged_tx, staged_rx) = mpsc::sync_channel::<StagedBlock>(PIPELINE_DEPTH);
        std::thread::scope(|scope| {
            let producer_ctx = &ctx;
            let producer = scope.spawn(move || {
                let mut batch = BatchVerifier::new();
                for block in blocks {
                    let staged = producer_ctx.stage_block(block, &mut batch);
                    // The merge dropped its receiver after an error; stop
                    // staging, the remaining blocks will not commit.
                    if staged_tx.send(staged).is_err() {
                        break;
                    }
                }
            });
            let mut outcomes = Vec::new();
            let mut failure = None;
            for staged in staged_rx {
                match parts.merge_block(staged, pvt_provider) {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(e) => {
                        // Dropping the receiver (by leaving the loop)
                        // disconnects the producer.
                        failure = Some(e);
                        break;
                    }
                }
            }
            producer.join().expect("overlap producer thread panicked");
            match failure {
                Some(e) => Err(e),
                None => Ok(outcomes),
            }
        })
    }
}
