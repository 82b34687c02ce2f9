//! End-to-end network throughput: the full submit → order → replicate →
//! validate → commit path through a live [`FabricNetwork`], measured
//! open-loop across peer counts and block sizes.
//!
//! Where `commit_throughput` isolates one peer's validation pipeline,
//! this bench drives the whole network: transactions are pre-endorsed and
//! pre-assembled (the client-side cost is not under test), then submitted
//! in one burst, and the network is ticked until every block lands on
//! every peer. The measured region covers Raft block cutting and
//! replication, the per-peer block fan-out, signature validation at every
//! peer, and the transient-store purge.
//!
//! Each configuration runs twice, once per [`FanoutMode`]:
//!
//! * `shared` — the production path: one block whose `Arc`-backed
//!   transaction storage is refcount-bumped per peer, with per-transaction
//!   digests computed once and reused by every peer's verification.
//! * `deep-clone` — the pre-sharing cost model: every peer receives an
//!   owned copy of every transaction (empty digest memos included), so
//!   each peer re-allocates, re-encodes and re-hashes everything it
//!   verifies.
//!
//! A counting allocator reports `allocs_per_tx`: heap allocations inside
//! the timed window per transaction, all peers included — the number the
//! allocation discipline of DESIGN.md is held to end to end.
//!
//! Writes `BENCH_e2e.json` at the repository root. Pass `--smoke` for a
//! seconds-long CI run that skips the file write.

use fabric_bench::{COL, NS};
use fabric_pdc::orderer::BatchConfig;
use fabric_pdc::prelude::*;
use fabric_pdc::wire::Encode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, counting every allocation and reallocation.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One measured epoch: a (peer count, block size, fan-out mode) cell.
#[derive(Debug, Clone, Copy)]
struct Sample {
    peers: usize,
    block_txs: usize,
    blocks: usize,
    mode: FanoutMode,
    elapsed: Duration,
    txs_per_sec: f64,
    /// Transaction bytes deep-copied per delivered block across all
    /// peers (0 in shared mode: fan-out is a refcount bump).
    bytes_cloned_per_block: usize,
    /// Heap allocations between submit and full commit, per transaction.
    allocs_per_tx: f64,
}

fn mode_label(mode: FanoutMode) -> &'static str {
    match mode {
        FanoutMode::Shared => "shared",
        FanoutMode::DeepClone => "deep-clone",
    }
}

/// A 2-org network with `peers` total peers (extra peers join via
/// `add_peer`, alternating orgs) and blocks cut at exactly `block_txs`
/// transactions. Both orgs are members of the PDC, so private data
/// fans out to every peer.
fn build_net(peers: usize, block_txs: usize, seed: u64) -> FabricNetwork {
    assert!(peers >= 2, "the endorsement policy needs both orgs");
    let mut net = NetworkBuilder::new("e2e")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(seed)
        .batch(BatchConfig {
            max_message_count: block_txs,
            batch_timeout_ticks: 1_000_000,
        })
        .build();
    let def = ChaincodeDefinition::new(NS)
        .with_endorsement_policy("MAJORITY Endorsement")
        .with_collection(
            CollectionConfig::membership_of(COL, &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
                .with_member_only_read(false)
                .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')"),
        );
    net.deploy_chaincode(def, std::sync::Arc::new(GuardedPdc::unconstrained(COL)));
    for extra in 0..peers - 2 {
        let org = if extra % 2 == 0 { "Org1MSP" } else { "Org2MSP" };
        net.add_peer(org);
    }
    assert_eq!(net.peer_names().len(), peers);
    net
}

/// Pre-endorses and assembles `count` distinct-key PDC writes through the
/// network's dissemination path (so every member peer's transient store
/// holds the private data, exactly as after a live endorsement round).
fn prepare_txs(net: &mut FabricNetwork, count: usize, first_nonce: u64) -> Vec<Transaction> {
    let mut txs = Vec::with_capacity(count);
    for i in 0..count {
        let nonce = first_nonce + i as u64;
        let mut client = Client::new(
            "Org1MSP",
            Keypair::generate_from_seed(9_400_000 + nonce),
            DefenseConfig::original(),
        );
        let proposal = client.create_proposal(
            net.channel().clone(),
            ChaincodeId::new(NS),
            "write",
            vec![format!("ek{nonce}").into_bytes(), b"12".to_vec()],
            Default::default(),
        );
        let r1 = net.endorse("peer0.org1", &proposal).expect("endorse org1");
        let r2 = net.endorse("peer0.org2", &proposal).expect("endorse org2");
        let (tx, _) = client
            .assemble_transaction(&proposal, &[r1, r2])
            .expect("assemble");
        txs.push(tx);
    }
    txs
}

/// Submits every transaction in one burst, then ticks the network until
/// all `blocks` expected blocks committed on every peer. Returns the
/// wall-clock time of the submit-to-fully-committed window.
fn run_epoch(net: &mut FabricNetwork, txs: Vec<Transaction>, blocks: usize) -> Duration {
    let names = net.peer_names();
    let target: u64 = net.peer(&names[0]).block_store().height() + blocks as u64;
    let start = Instant::now();
    for tx in txs {
        net.submit(tx);
    }
    for _ in 0..100_000 {
        net.advance(1);
        if names
            .iter()
            .all(|n| net.peer(n).block_store().height() >= target)
        {
            let elapsed = start.elapsed();
            let tip = net.peer(&names[0]).block_store().tip_hash();
            for n in &names {
                assert_eq!(
                    net.peer(n).block_store().tip_hash(),
                    tip,
                    "all peers converge on one tip"
                );
            }
            return elapsed;
        }
    }
    panic!("blocks did not commit within the tick budget");
}

/// Measures one (peers, block size, mode) cell: a fresh network, `blocks`
/// blocks of `block_txs` pre-assembled writes, one timed epoch.
fn measure_cell(peers: usize, block_txs: usize, blocks: usize, mode: FanoutMode) -> Sample {
    let mut net = build_net(peers, block_txs, 7);
    net.set_fanout_mode(mode);
    let txs = prepare_txs(&mut net, blocks * block_txs, (block_txs * 10) as u64);
    // Transaction bytes a deep-clone fan-out copies per block, per peer
    // (measured on memo-free clones so the count reflects the wire form,
    // not cache state).
    let tx_bytes: usize = txs[..block_txs]
        .iter()
        .map(|t| t.clone().to_wire().len())
        .sum();
    let bytes_cloned_per_block = match mode {
        FanoutMode::Shared => 0,
        FanoutMode::DeepClone => peers * tx_bytes,
    };
    let total = txs.len();
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let elapsed = run_epoch(&mut net, txs, blocks);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    Sample {
        peers,
        block_txs,
        blocks,
        mode,
        elapsed,
        txs_per_sec: total as f64 / elapsed.as_secs_f64(),
        bytes_cloned_per_block,
        allocs_per_tx: allocs as f64 / total as f64,
    }
}

/// Runs `txs` traced transactions through the full submission path on a
/// 4-peer network and returns `(phase, p50_ms, p99_ms)` per lifecycle
/// phase from the tx-timeline histograms — the latency-vs-load lens of
/// the paper's Fig. 7–10 applied to the in-process network.
fn measure_phase_latencies(txs: usize) -> Vec<(&'static str, f64, f64)> {
    let traced = Telemetry::new();
    let mut net = NetworkBuilder::new("e2e-traced")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(11)
        .with_telemetry(traced.clone())
        .build();
    let def = ChaincodeDefinition::new(NS)
        .with_endorsement_policy("MAJORITY Endorsement")
        .with_collection(
            CollectionConfig::membership_of(COL, &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
                .with_member_only_read(false)
                .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')"),
        );
    net.deploy_chaincode(def, std::sync::Arc::new(GuardedPdc::unconstrained(COL)));
    net.add_peer("Org1MSP");
    net.add_peer("Org2MSP");
    let mut tx_ids = Vec::with_capacity(txs);
    for i in 0..txs {
        let key = format!("tk{i}");
        let outcome = net
            .submit_transaction(
                "client0.org1",
                NS,
                "write",
                &[&key, "12"],
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .expect("traced write");
        assert!(outcome.validation_code.is_valid());
        tx_ids.push(outcome.tx_id);
    }
    let records = traced.trace().expect("in-memory sink").records();
    for tx_id in &tx_ids {
        let timeline = TxTimeline::collect(&records, tx_id.as_str());
        assert!(timeline.complete(), "traced tx must have all five phases");
        timeline.record_phase_metrics(traced.metrics());
    }
    fabric_pdc::telemetry::PHASES
        .iter()
        .map(|phase| {
            let h = traced
                .metrics()
                .find_histogram("fabric_tx_phase_seconds", &[("phase", phase)]);
            let q = |q: f64| {
                h.as_ref()
                    .and_then(|h| h.quantile(q))
                    .map(|s| s * 1e3)
                    .unwrap_or(f64::NAN)
            };
            (*phase, q(0.5), q(0.99))
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cells: &[(usize, usize, usize)] = if smoke {
        // (peers, block_txs, blocks)
        &[(2, 8, 1)]
    } else {
        &[
            (2, 100, 2),
            (4, 100, 2),
            (8, 100, 2),
            (2, 1000, 2),
            (4, 1000, 2),
            (8, 1000, 2),
        ]
    };

    let mut results: Vec<Sample> = Vec::new();
    for &(peers, block_txs, blocks) in cells {
        for mode in [FanoutMode::DeepClone, FanoutMode::Shared] {
            let s = measure_cell(peers, block_txs, blocks, mode);
            println!(
                "peers={peers} block_txs={block_txs:>5} blocks={blocks} fanout={:<10} \
                 elapsed={:>10.3?}  txs/sec={:>10.0}  bytes_cloned_per_block={}  \
                 allocs_per_tx={:.1}",
                mode_label(s.mode),
                s.elapsed,
                s.txs_per_sec,
                s.bytes_cloned_per_block,
                s.allocs_per_tx,
            );
            results.push(s);
        }
    }

    let tps = |peers: usize, block_txs: usize, mode: FanoutMode| {
        results
            .iter()
            .find(|s| s.peers == peers && s.block_txs == block_txs && s.mode == mode)
            .map(|s| s.txs_per_sec)
    };
    let mut speedups: Vec<(usize, usize, f64)> = Vec::new();
    for &(peers, block_txs, _) in cells {
        if let (Some(shared), Some(deep)) = (
            tps(peers, block_txs, FanoutMode::Shared),
            tps(peers, block_txs, FanoutMode::DeepClone),
        ) {
            let speedup = shared / deep;
            println!("peers={peers} block_txs={block_txs:>5} shared vs deep-clone: {speedup:.2}x");
            speedups.push((peers, block_txs, speedup));
        }
    }

    let phase_stats = measure_phase_latencies(if smoke { 3 } else { 25 });
    for (phase, p50, p99) in &phase_stats {
        println!("phase={phase:<10} p50={p50:.3}ms p99={p99:.3}ms");
    }

    if smoke {
        println!("partial run: skipping BENCH_e2e.json");
        return;
    }

    let mut json = String::from("{\n  \"bench\": \"e2e_throughput\",\n");
    json.push_str(
        "  \"workload\": \"pre-assembled distinct-key PDC writes, open-loop submit then \
         tick-to-full-commit across all peers\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, s) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"peers\": {}, \"block_txs\": {}, \"blocks\": {}, \"fanout\": \"{}\", \
             \"elapsed_ms\": {:.3}, \"txs_per_sec\": {:.0}, \"bytes_cloned_per_block\": {}, \
             \"allocs_per_tx\": {:.1}}}{sep}\n",
            s.peers,
            s.block_txs,
            s.blocks,
            mode_label(s.mode),
            s.elapsed.as_secs_f64() * 1e3,
            s.txs_per_sec,
            s.bytes_cloned_per_block,
            s.allocs_per_tx,
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedups_shared_vs_deep_clone\": [\n");
    for (i, (peers, block_txs, speedup)) in speedups.iter().enumerate() {
        let sep = if i + 1 == speedups.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"peers\": {peers}, \"block_txs\": {block_txs}, \"speedup\": {speedup:.2}}}{sep}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"phase_latency_ms\": {");
    for (i, (phase, p50, p99)) in phase_stats.iter().enumerate() {
        let sep = if i + 1 == phase_stats.len() { "" } else { ", " };
        json.push_str(&format!(
            "\"{phase}\": {{\"p50\": {p50:.3}, \"p99\": {p99:.3}}}{sep}"
        ));
    }
    json.push_str("},\n");
    let headline = speedups
        .iter()
        .find(|(p, b, _)| *p == 4 && *b == 1000)
        .map(|(_, _, s)| *s)
        .unwrap_or(f64::NAN);
    json.push_str(&format!(
        "  \"speedup_4peers_1000tx_shared_vs_deep_clone\": {headline:.2}\n}}\n"
    ));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json");
    std::fs::write(path, json).expect("write BENCH_e2e.json");
    println!("wrote {path}");
}
