//! The ordering service: Raft-backed block cutting.
//!
//! Orderers bundle transactions into blocks *blindly* — they never inspect
//! or validate transaction contents (paper §II-A2); all semantic checks
//! happen at peers in the validation phase. This is why fabricated
//! transactions sail through ordering in the paper's attacks.
//!
//! [`OrderingService`] models a Raft ordering cluster plus the block
//! cutter: transactions are queued, batches are cut on
//! `max_message_count` or `batch_timeout_ticks`, replicated through
//! [`fabric_raft`], and emitted as signed [`Block`]s in Raft commit order.
//!
//! # Examples
//!
//! ```
//! use fabric_orderer::{BatchConfig, OrderingService};
//!
//! let mut orderer = OrderingService::new(3, 7, BatchConfig::default());
//! // (transactions would be submitted here)
//! orderer.run_until_ready(100);
//! assert!(orderer.take_blocks().is_empty());
//! ```

use fabric_crypto::{Hash256, Keypair};
use fabric_raft::{Cluster, NodeId};
use fabric_telemetry::{trace_id, SpanGuard, Telemetry};
use fabric_types::{Block, Identity, Role, Transaction};
use fabric_wire::{derive_seed, Decode, Encode};
use std::collections::VecDeque;
use std::sync::Arc;

/// Block-cutting parameters (Fabric's `BatchSize`/`BatchTimeout`). The
/// default cuts at 10 transactions or 2 ticks, the `MaxMessageCount: 10`
/// and `BatchTimeout: 2s` of Fabric's sample channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Cut a block when this many transactions are pending.
    pub max_message_count: usize,
    /// Cut a non-empty batch after this many ticks regardless of size.
    pub batch_timeout_ticks: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_message_count: 10,
            batch_timeout_ticks: 2,
        }
    }
}

/// A shared [`Telemetry`] pipeline plus the node name the orderer's
/// spans carry.
#[derive(Debug)]
struct OrdererTelemetry {
    telemetry: Telemetry,
    /// `"orderer"`, the node the `orderer.order` spans name.
    node: Arc<str>,
}

/// A Raft-replicated ordering service for one channel.
#[derive(Debug)]
pub struct OrderingService {
    config: BatchConfig,
    raft: Cluster,
    observer: NodeId,
    delivered_cursor: usize,
    pending: VecDeque<Transaction>,
    pending_age: u64,
    next_number: u64,
    prev_hash: Hash256,
    identity: Identity,
    keypair: Keypair,
    ready: VecDeque<Block>,
    /// Committed Raft entries that did not decode as a batch.
    decode_failures: u64,
    telemetry: Option<OrdererTelemetry>,
    /// Transactions cut into batches so far. A submission's sequence
    /// number is this plus the pending count when it arrives.
    cut_txs: u64,
    /// Open `orderer.order` spans (queue wait: submit → batch cut) by
    /// submission sequence number, oldest first. Populated only when span
    /// tracing is enabled.
    order_spans: VecDeque<(u64, SpanGuard)>,
}

impl OrderingService {
    /// Creates an ordering cluster of `orderer_count` Raft nodes. The
    /// signing key is `"orderer.key"` under `seed`; the Raft cluster gets
    /// `seed` itself ([`Cluster::new`] derives its own streams).
    ///
    /// # Panics
    ///
    /// Panics if `config.max_message_count` is 0: no batch could ever
    /// carry a transaction. Fabric's channel configuration rejects a zero
    /// `MaxMessageCount` too.
    pub fn new(orderer_count: usize, seed: u64, config: BatchConfig) -> Self {
        assert!(
            config.max_message_count > 0,
            "a batch must hold at least one transaction"
        );
        let keypair = Keypair::generate_from_seed(derive_seed(seed, "orderer.key"));
        let identity = Identity::new("OrdererMSP", Role::Orderer, keypair.public_key());
        OrderingService {
            config,
            raft: Cluster::new(orderer_count, seed),
            observer: 1,
            delivered_cursor: 0,
            pending: VecDeque::new(),
            pending_age: 0,
            next_number: 0,
            prev_hash: Hash256::default(),
            identity,
            keypair,
            ready: VecDeque::new(),
            decode_failures: 0,
            telemetry: None,
            cut_txs: 0,
            order_spans: VecDeque::new(),
        }
    }

    /// The ordering service's signing identity.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Attaches a shared telemetry pipeline: queue-wait and replication
    /// spans, and the decode-failure counter, are then reported.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.raft.set_telemetry(telemetry.clone());
        self.telemetry = Some(OrdererTelemetry {
            telemetry,
            node: Arc::from("orderer"),
        });
    }

    /// The attached telemetry pipeline, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().map(|t| &t.telemetry)
    }

    /// Queues a transaction for ordering. Contents are not inspected
    /// (only the tx id is read, to trace the span).
    pub fn submit(&mut self, tx: Transaction) {
        if let Some(t) = &self.telemetry {
            let mut span = t.telemetry.span("orderer.order");
            span.trace(trace_id(tx.tx_id.as_str()));
            span.node(&t.node);
            let seq = self.cut_txs + self.pending.len() as u64;
            self.order_spans.push_back((seq, span));
        }
        self.pending.push_back(tx);
    }

    /// Number of transactions waiting to be cut into a block.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Blocks cut so far — the chain height every peer should converge
    /// to (monitors score committed-height lag against this).
    pub fn ordered_height(&self) -> u64 {
        self.next_number
    }

    /// Committed Raft entries skipped because they did not decode as a
    /// batch of transactions. The service only proposes valid encodings,
    /// so anything but zero means corrupted or foreign log entries; with
    /// telemetry attached the same count is
    /// `fabric_orderer_decode_failures_total`.
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }

    /// Runs ticks until the Raft cluster has a leader (start-up helper).
    pub fn run_until_ready(&mut self, max_ticks: usize) -> bool {
        self.raft.run_until_leader(max_ticks).is_some()
    }

    /// Advances one tick: Raft timers/messages, batch timeout, block
    /// cutting, and collection of committed batches into signed blocks.
    pub fn tick(&mut self) {
        self.raft.tick();

        if !self.pending.is_empty() {
            self.pending_age += 1;
        }
        let cut_by_size = self.pending.len() >= self.config.max_message_count;
        let cut_by_timeout =
            !self.pending.is_empty() && self.pending_age >= self.config.batch_timeout_ticks;
        if cut_by_size || cut_by_timeout {
            self.try_cut_batch();
        }
        self.collect_committed();
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: usize) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Drains blocks that finished ordering, in commit order.
    pub fn take_blocks(&mut self) -> Vec<Block> {
        self.ready.drain(..).collect()
    }

    /// Crashes a Raft orderer node (fault injection).
    pub fn crash_orderer(&mut self, node: NodeId) {
        self.raft.crash(node);
        if self.observer == node {
            self.observer = *self
                .raft
                .node_ids()
                .first()
                .expect("at least one orderer remains");
            // The new observer exposes the full committed history; skip what
            // we already delivered.
        }
    }

    fn try_cut_batch(&mut self) {
        let Some(leader) = self.raft.leader() else {
            return; // No leader yet; retry next tick.
        };
        let batch_size = self.pending.len().min(self.config.max_message_count);
        let batch: Vec<Transaction> = self.pending.drain(..batch_size).collect();
        let encoded = batch.to_wire();
        let tracing = !self.order_spans.is_empty();
        let traces: Vec<u64> = if tracing {
            batch.iter().map(|tx| trace_id(tx.tx_id.as_str())).collect()
        } else {
            Vec::new()
        };
        if self
            .raft
            .propose_with_trace(leader, encoded, &traces)
            .is_err()
        {
            // Leadership changed between `leader()` and `propose`; requeue
            // (any order spans stay open — the txs are still queued).
            for tx in batch.into_iter().rev() {
                self.pending.push_front(tx);
            }
            return;
        }
        self.cut_txs += batch.len() as u64;
        let cut_end = self.cut_txs;
        while self
            .order_spans
            .front()
            .is_some_and(|(seq, _)| *seq < cut_end)
        {
            // Dropping the guard records the queue-wait span.
            self.order_spans.pop_front();
        }
        self.pending_age = 0;
    }

    fn collect_committed(&mut self) {
        // Only the entries past the delivery cursor are visited, so a tick
        // is O(new entries) rather than O(committed history).
        let newly = self
            .raft
            .committed_since(self.observer, self.delivered_cursor);
        let newly_count = newly.len();
        self.delivered_cursor += newly_count;
        for raw in newly {
            // Decoding through a sharing reader leaves each transaction's
            // memo warm, its payload bytes a range of the entry the Raft
            // log keeps anyway.
            let Ok(batch) = Vec::<Transaction>::from_shared_wire(raw) else {
                // No block can be cut from it; the next good entry takes
                // the block number this one would have had.
                self.decode_failures += 1;
                if let Some(t) = &self.telemetry {
                    // Registered on first use, so a healthy run's
                    // exposition does not list it.
                    t.telemetry
                        .metrics()
                        .counter(
                            "fabric_orderer_decode_failures_total",
                            "Committed Raft entries that did not decode as a batch",
                            &[],
                        )
                        .inc();
                }
                continue;
            };
            let mut block = Block::new(self.next_number, self.prev_hash, batch);
            block.metadata.orderer = Some(self.identity.clone());
            block.metadata.orderer_signature = Some(self.keypair.sign(&block.header.to_wire()));
            self.next_number += 1;
            self.prev_hash = block.hash();
            self.ready.push_back(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::sha256;
    use fabric_telemetry::MetricValue;
    use fabric_types::{
        ChaincodeId, ChannelId, PayloadCommitment, ProposalResponsePayload, Response, TxId, TxRwSet,
    };

    fn dummy_tx(n: u64) -> Transaction {
        let kp = Keypair::generate_from_seed(9000 + n);
        let creator = Identity::new("Org1MSP", Role::Client, kp.public_key());
        let payload = ProposalResponsePayload {
            proposal_hash: sha256(&n.to_be_bytes()),
            response: Response::ok(vec![]),
            results: TxRwSet::new(),
            event: None,
        };
        let tx_id = TxId::new(format!("tx{n}"));
        let client_signature = kp.sign(&Transaction::client_signed_bytes(&tx_id, &payload, &[]));
        Transaction {
            tx_id,
            channel: ChannelId::new("ch1"),
            chaincode: ChaincodeId::new("cc"),
            creator,
            payload,
            commitment: PayloadCommitment::Plain,
            endorsements: vec![],
            client_signature,
            memo: Default::default(),
        }
    }

    #[test]
    fn cuts_block_on_batch_size() {
        let mut o = OrderingService::new(
            3,
            1,
            BatchConfig {
                max_message_count: 3,
                batch_timeout_ticks: 1000,
            },
        );
        assert!(o.run_until_ready(1000));
        for n in 0..3 {
            o.submit(dummy_tx(n));
        }
        o.run_ticks(50);
        let blocks = o.take_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].transactions.len(), 3);
        assert_eq!(blocks[0].header.number, 0);
        assert!(blocks[0].metadata.orderer_signature.is_some());
    }

    #[test]
    fn cuts_partial_block_on_timeout() {
        let mut o = OrderingService::new(
            3,
            2,
            BatchConfig {
                max_message_count: 100,
                batch_timeout_ticks: 4,
            },
        );
        assert!(o.run_until_ready(1000));
        o.submit(dummy_tx(0));
        o.run_ticks(50);
        let blocks = o.take_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].transactions.len(), 1);
    }

    #[test]
    fn blocks_chain_in_order() {
        let mut o = OrderingService::new(
            3,
            3,
            BatchConfig {
                max_message_count: 2,
                batch_timeout_ticks: 3,
            },
        );
        assert!(o.run_until_ready(1000));
        for n in 0..6 {
            o.submit(dummy_tx(n));
        }
        o.run_ticks(80);
        let blocks = o.take_blocks();
        assert_eq!(blocks.len(), 3);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.header.number, i as u64);
            assert!(b.data_hash_is_consistent());
            if i > 0 {
                assert!(b.chains_onto(&blocks[i - 1]));
            }
        }
        // Transactions preserved in submission order.
        let ids: Vec<String> = blocks
            .iter()
            .flat_map(|b| b.transactions.iter().map(|t| t.tx_id.to_string()))
            .collect();
        assert_eq!(ids, vec!["tx0", "tx1", "tx2", "tx3", "tx4", "tx5"]);
    }

    #[test]
    fn survives_orderer_crash() {
        let mut o = OrderingService::new(
            5,
            4,
            BatchConfig {
                max_message_count: 1,
                batch_timeout_ticks: 2,
            },
        );
        assert!(o.run_until_ready(1000));
        o.submit(dummy_tx(0));
        o.run_ticks(50);
        assert_eq!(o.take_blocks().len(), 1);

        // Crash the observer (node 1) and a second node; 3 of 5 remain.
        o.crash_orderer(1);
        o.crash_orderer(2);
        assert!(o.run_until_ready(2000));
        o.submit(dummy_tx(1));
        o.run_ticks(200);
        let blocks = o.take_blocks();
        // The new observer replays history; block numbering stays chained.
        assert!(blocks
            .iter()
            .any(|b| b.transactions.iter().any(|t| t.tx_id == TxId::new("tx1"))));
    }

    /// A good block, then garbage proposed straight into the Raft cluster,
    /// then another good block.
    fn order_around_garbage(o: &mut OrderingService) -> Vec<Block> {
        assert!(o.run_until_ready(1000));
        o.submit(dummy_tx(0));
        o.run_ticks(50);
        let leader = o.raft.leader().expect("ready");
        o.raft
            .propose(leader, vec![0xff, 0xff, 0xff])
            .expect("proposed at the leader");
        o.run_ticks(50);
        o.submit(dummy_tx(1));
        o.run_ticks(50);
        o.take_blocks()
    }

    #[test]
    fn undecodable_entry_is_counted_and_numbering_continues() {
        let config = BatchConfig {
            max_message_count: 1,
            batch_timeout_ticks: 2,
        };
        let mut o = OrderingService::new(3, 6, config);
        let blocks = order_around_garbage(&mut o);
        assert_eq!(o.decode_failures(), 1);
        assert_eq!(blocks.len(), 2, "the garbage entry cuts no block");
        assert_eq!(blocks[1].header.number, 1);
        assert!(blocks[1].chains_onto(&blocks[0]));
        assert!(blocks[1].data_hash_is_consistent());
        assert_eq!(blocks[1].transactions[0].tx_id, TxId::new("tx1"));
        assert_eq!(o.ordered_height(), 2);

        // With telemetry the same count is exported, and only once it is
        // non-zero does the series exist.
        let telemetry = Telemetry::new();
        let mut o = OrderingService::new(3, 6, config);
        o.set_telemetry(telemetry.clone());
        let exported = |t: &Telemetry| {
            let mut samples = t.metrics().samples().into_iter();
            samples
                .find(|s| s.name == "fabric_orderer_decode_failures_total")
                .map(|s| s.value)
        };
        assert_eq!(exported(&telemetry), None);
        assert_eq!(order_around_garbage(&mut o).len(), 2);
        assert_eq!(o.decode_failures(), 1);
        assert_eq!(exported(&telemetry), Some(MetricValue::Counter(1)));
    }

    /// Each submission's queue-wait span closes when the batch carrying it
    /// is cut, not before and not with a later batch — duplicates included.
    #[test]
    fn order_spans_close_at_their_own_cut() {
        let telemetry = Telemetry::new();
        let mut o = OrderingService::new(
            3,
            8,
            BatchConfig {
                max_message_count: 2,
                batch_timeout_ticks: 1000,
            },
        );
        o.set_telemetry(telemetry.clone());
        assert!(o.run_until_ready(1000));
        let order_spans = || {
            let records = telemetry.trace().records();
            records
                .iter()
                .filter(|r| r.name == "orderer.order")
                .map(|r| (r.trace_id, r.node.to_string()))
                .collect::<Vec<_>>()
        };
        for n in [0, 1, 1] {
            o.submit(dummy_tx(n));
        }
        o.tick();
        let trace = |n: u64| trace_id(&format!("tx{n}"));
        let orderer = || "orderer".to_string();
        assert_eq!(
            order_spans(),
            vec![(trace(0), orderer()), (trace(1), orderer())]
        );
        o.submit(dummy_tx(2));
        o.tick();
        assert_eq!(order_spans().len(), 4);
        assert_eq!(
            order_spans()[2..],
            [(trace(1), orderer()), (trace(2), orderer())]
        );
    }

    #[test]
    #[should_panic(expected = "at least one transaction")]
    fn a_zero_batch_size_is_rejected() {
        OrderingService::new(
            3,
            1,
            BatchConfig {
                max_message_count: 0,
                batch_timeout_ticks: 2,
            },
        );
    }

    #[test]
    fn orderer_never_rejects_content() {
        // Orderers bundle blindly: a transaction with no endorsements and
        // an arbitrary payload is ordered without complaint.
        let mut o = OrderingService::new(3, 5, BatchConfig::default());
        assert!(o.run_until_ready(1000));
        o.submit(dummy_tx(42));
        o.run_ticks(50);
        assert_eq!(o.take_blocks().len(), 1);
    }
}
