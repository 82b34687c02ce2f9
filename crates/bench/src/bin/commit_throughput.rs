//! Commit-throughput baseline for the staged validation pipeline.
//!
//! Measures block-commit throughput (txs/sec) over blocks of 1/100/1000
//! PDC-write transactions in two modes:
//!
//! * `reference` — the pre-pipeline sequential validator
//!   (`process_block_reference`): every policy expression parsed at use.
//! * `pipeline` — `Peer::process_block`, the shipped path (compiled-policy
//!   caches, batched signature verification).
//!
//! Two further instrumented passes re-time `pipeline`: one with a no-op
//! telemetry collector attached (interleaved with bare runs), yielding
//! the disabled-instrumentation overhead, and one with a live collector,
//! yielding the per-stage (stateless vs stateful) breakdown from the
//! `fabric_commit_stage_seconds` histograms.
//!
//! Writes `BENCH_commit.json` at the repository root so future changes
//! have a perf trajectory. Pass `--smoke` for a seconds-long CI run that
//! skips the file write.
//!
//! ```text
//! cargo run --release -p fabric-bench --bin commit_throughput
//! ```

use fabric_bench::{fixture_network, prepared_commit_block, traced_fixture_network, NS};
use fabric_pdc::prelude::*;
use fabric_pdc::telemetry::PHASES;
use fabric_pdc::types::{Block, PvtDataPackage};
use std::collections::HashMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Reference,
    Pipeline,
}

impl Mode {
    fn all() -> [Mode; 2] {
        [Mode::Reference, Mode::Pipeline]
    }

    fn label(&self) -> &'static str {
        match self {
            Mode::Reference => "reference",
            Mode::Pipeline => "pipeline",
        }
    }
}

struct Sample {
    block_txs: usize,
    mode: Mode,
    median: Duration,
    txs_per_sec: f64,
}

/// Per-stage timing of one instrumented `pipeline` configuration.
struct StageBreakdown {
    block_txs: usize,
    /// Mean per-block stateless-stage time under a live collector,
    /// milliseconds.
    stateless_ms: f64,
    /// Mean per-block stateful-stage time under a live collector,
    /// milliseconds.
    stateful_ms: f64,
    /// Minimum block time with the no-op collector attached.
    instrumented: Duration,
    /// Instrumented-vs-bare overhead (interleaved min-to-min), percent;
    /// noise can make this slightly negative.
    overhead_pct: f64,
    /// Monitored-vs-unmonitored overhead on a live collector (interleaved
    /// min-to-min), percent: the cost of draining the block's audit
    /// events, stepping every rate detector, and re-scoring node health
    /// once per block.
    monitor_overhead_pct: f64,
    /// Security-audit events one commit of this block emits.
    audit_events_per_block: usize,
}

/// Times `process_block` on fresh clones of `peer` (clones and block
/// copies are made outside the measured region).
fn time_mode(
    peer: &Peer,
    block: &Block,
    pkgs: &HashMap<TxId, PvtDataPackage>,
    mode: Mode,
    runs: usize,
    warmup: usize,
    telemetry: Option<&Telemetry>,
) -> Duration {
    let mut base = peer.clone();
    if let Some(t) = telemetry {
        base.set_telemetry(t.clone());
    }
    let mut samples = Vec::with_capacity(runs);
    for i in 0..warmup + runs {
        let mut p = base.clone();
        let b = block.clone();
        // The provider clones each package out of the shared fixture map:
        // a small per-transaction cost paid identically by every mode,
        // without rebuilding (and cache-evicting) a fresh map per run.
        let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(std::sync::Arc::new);
        let start = Instant::now();
        let outcome = match mode {
            Mode::Reference => p.process_block_reference(b, &mut provider),
            Mode::Pipeline => p.process_block(b, &mut provider),
        }
        .expect("block chains");
        let elapsed = start.elapsed();
        assert!(
            outcome.validation_codes.iter().all(|c| c.is_valid()),
            "workload transactions must all validate"
        );
        if i >= warmup {
            samples.push(elapsed);
        }
    }
    // Median: robust against scheduler noise on shared hardware.
    samples.sort();
    samples[samples.len() / 2]
}

/// Times bare vs telemetry-instrumented `pipeline` with interleaved
/// runs (bare, instrumented, bare, ...), so slow drift — thermal, cache,
/// scheduler — biases both distributions equally. Returns each side's
/// *minimum*: instrumentation is deterministic extra work, so the
/// min-to-min delta isolates it from contention spikes that medians on a
/// shared box still absorb.
fn time_overhead_pair(
    peer: &Peer,
    block: &Block,
    pkgs: &HashMap<TxId, PvtDataPackage>,
    runs: usize,
    warmup: usize,
    noop: &Telemetry,
) -> (Duration, Duration) {
    let mut instrumented = peer.clone();
    instrumented.set_telemetry(noop.clone());
    let mut bare_samples = Vec::with_capacity(runs);
    let mut inst_samples = Vec::with_capacity(runs);
    for i in 0..warmup + runs {
        for (base, samples) in [
            (peer, &mut bare_samples),
            (&instrumented, &mut inst_samples),
        ] {
            let mut p = base.clone();
            let b = block.clone();
            let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(std::sync::Arc::new);
            let start = Instant::now();
            p.process_block(b, &mut provider).expect("block chains");
            let elapsed = start.elapsed();
            if i >= warmup {
                samples.push(elapsed);
            }
        }
    }
    (
        bare_samples.iter().copied().min().expect("runs > 0"),
        inst_samples.iter().copied().min().expect("runs > 0"),
    )
}

/// Times `pipeline` under a live collector with and without a
/// streaming monitor ticking once per block, interleaved min-to-min as
/// in [`time_overhead_pair`]. The monitored side runs the full online-
/// alerting path of `FabricNetwork::advance`: drain the block's audit
/// events, step every rate detector, re-score per-node health, and
/// advance the alert state machine. Both sides pay the same collector,
/// so the delta isolates the monitor.
fn time_monitor_pair(
    peer: &Peer,
    block: &Block,
    pkgs: &HashMap<TxId, PvtDataPackage>,
    runs: usize,
    warmup: usize,
) -> (Duration, Duration) {
    // A fixture-shaped node roster (three peers and an orderer), all
    // healthy: the steady-state health-scoring cost, with no alert churn.
    let samples: Vec<NodeSample> = (0..4)
        .map(|i| NodeSample {
            node: format!("node{i}"),
            committed_height: 5,
            ordered_height: 5,
            ..NodeSample::default()
        })
        .collect();
    let mut plain_samples = Vec::with_capacity(runs);
    let mut monitored_samples = Vec::with_capacity(runs);
    for i in 0..warmup + runs {
        for (monitored, out) in [(false, &mut plain_samples), (true, &mut monitored_samples)] {
            let telemetry = Telemetry::new();
            let mut p = peer.clone();
            p.set_telemetry(telemetry.clone());
            let monitor = monitored.then(|| Monitor::new(&telemetry));
            let b = block.clone();
            let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(std::sync::Arc::new);
            let start = Instant::now();
            p.process_block(b, &mut provider).expect("block chains");
            if let Some(m) = &monitor {
                m.observe_tick(&samples);
            }
            let elapsed = start.elapsed();
            if i >= warmup {
                out.push(elapsed);
            }
        }
    }
    (
        plain_samples.iter().copied().min().expect("runs > 0"),
        monitored_samples.iter().copied().min().expect("runs > 0"),
    )
}

/// Runs `txs` traced transactions through a fresh fixture network and
/// returns the median latency (milliseconds) of each lifecycle phase,
/// in [`PHASES`] order, from the `fabric_tx_phase_seconds` histograms.
fn measure_phase_latencies(txs: usize) -> Vec<(&'static str, f64)> {
    let traced = Telemetry::new();
    let mut net = traced_fixture_network(DefenseConfig::original(), 11, traced.clone());
    let mut tx_ids = Vec::with_capacity(txs);
    for i in 0..txs {
        let key = format!("pk{i}");
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
    PHASES
        .iter()
        .map(|phase| {
            let p50 = traced
                .metrics()
                .find_histogram("fabric_tx_phase_seconds", &[("phase", phase)])
                .and_then(|h| h.quantile(0.5))
                .unwrap_or(f64::NAN);
            (*phase, p50 * 1e3)
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // `--sizes=1,100` restricts the block sizes measured (full run counts,
    // no JSON write) — for iterating on one configuration.
    let explicit_sizes: Option<Vec<usize>> = std::env::args()
        .find_map(|a| a.strip_prefix("--sizes=").map(str::to_owned))
        .map(|list| {
            list.split(',')
                .map(|n| n.parse().expect("--sizes takes comma-separated integers"))
                .collect()
        });
    let sizes: &[usize] = match &explicit_sizes {
        Some(sizes) => sizes,
        None if smoke => &[1, 8],
        None => &[1, 100, 1000],
    };

    let mut results: Vec<Sample> = Vec::new();
    let mut breakdowns: Vec<StageBreakdown> = Vec::new();
    for &n in sizes {
        let mut net = fixture_network(DefenseConfig::original(), 7);
        let (peer, block, pkgs) = prepared_commit_block(&mut net, n, 1);
        let (runs, warmup) = match (smoke, n) {
            (true, _) => (3, 1),
            (false, 1) => (400, 50),
            (false, 100) => (60, 6),
            _ => (15, 2),
        };
        for mode in Mode::all() {
            let median = time_mode(&peer, &block, &pkgs, mode, runs, warmup, None);
            let txs_per_sec = n as f64 / median.as_secs_f64();
            println!(
                "block_txs={n:>5}  mode={:<13} median={:>10.3?}  txs/sec={txs_per_sec:>10.0}",
                mode.label(),
                median,
            );
            results.push(Sample {
                block_txs: n,
                mode,
                median,
                txs_per_sec,
            });
        }

        // Instrumented pass: pipeline again, now with a no-op
        // collector attached. Bare and instrumented runs interleave so
        // clock-speed drift hits both distributions equally, and the
        // min-to-min delta is the instrumentation overhead. Small blocks
        // get many extra runs — their minima sit at single-digit
        // microseconds, where a stable floor needs a deep sample.
        let noop = Telemetry::noop();
        let pair_runs = if smoke {
            runs
        } else {
            (200_000 / n).clamp(200, 2000)
        };
        let (bare, instrumented) =
            time_overhead_pair(&peer, &block, &pkgs, pair_runs, warmup, &noop);
        let overhead_pct =
            (instrumented.as_secs_f64() - bare.as_secs_f64()) / bare.as_secs_f64() * 100.0;
        // Monitor pass: live collector on both sides, one monitor tick
        // per block on the monitored side.
        let (unmonitored, monitored) = time_monitor_pair(&peer, &block, &pkgs, pair_runs, warmup);
        let monitor_overhead_pct = (monitored.as_secs_f64() - unmonitored.as_secs_f64())
            / unmonitored.as_secs_f64()
            * 100.0;
        // Stage breakdown from a short pass with a live collector: the
        // no-op pipeline skips timing instrumentation entirely (that is
        // the point of the overhead number above), so the stage
        // histograms only fill when spans are actually recorded.
        let traced = Telemetry::new();
        let stage_runs = if smoke { runs } else { 10 };
        time_mode(
            &peer,
            &block,
            &pkgs,
            Mode::Pipeline,
            stage_runs,
            warmup.min(2),
            Some(&traced),
        );
        let stage_ms = |stage: &str| {
            traced
                .metrics()
                .find_histogram("fabric_commit_stage_seconds", &[("stage", stage)])
                .map(|h| h.sum() / h.count() as f64 * 1e3)
                .unwrap_or(f64::NAN)
        };
        // Audit-event volume per committed block, on a fresh collector.
        let audit_events_per_block = {
            let t = Telemetry::noop();
            let mut p = peer.clone();
            p.set_telemetry(t.clone());
            let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(std::sync::Arc::new);
            p.process_block(block.clone(), &mut provider)
                .expect("block chains");
            t.audit().len()
        };

        let breakdown = StageBreakdown {
            block_txs: n,
            stateless_ms: stage_ms("stateless"),
            stateful_ms: stage_ms("stateful"),
            instrumented,
            overhead_pct,
            monitor_overhead_pct,
            audit_events_per_block,
        };
        println!(
            "block_txs={n:>5}  mode=pipeline+telemetry min={:>10.3?}  \
             stateless={:.3}ms stateful={:.3}ms overhead={overhead_pct:+.2}% \
             monitor_overhead={monitor_overhead_pct:+.2}% audit_events={}",
            breakdown.instrumented,
            breakdown.stateless_ms,
            breakdown.stateful_ms,
            breakdown.audit_events_per_block,
        );
        breakdowns.push(breakdown);
    }

    let throughput = |txs: usize, mode: Mode| {
        results
            .iter()
            .find(|s| s.block_txs == txs && s.mode == mode)
            .map(|s| s.txs_per_sec)
    };
    let largest = *sizes.last().expect("sizes not empty");
    let speedup = match (
        throughput(largest, Mode::Pipeline),
        throughput(largest, Mode::Reference),
    ) {
        (Some(pipeline), Some(reference)) => pipeline / reference,
        _ => f64::NAN,
    };
    println!("speedup {largest}-tx pipeline vs reference: {speedup:.2}x");

    // Per-phase lifecycle latencies: a traced end-to-end workload through
    // a full network (client → endorse → order → replicate → validate →
    // commit), aggregated per phase via the tx-timeline histograms.
    let phase_p50 = measure_phase_latencies(if smoke { 5 } else { 30 });
    for (phase, p50_ms) in &phase_p50 {
        println!("phase={phase:<10} p50={p50_ms:.3}ms");
    }

    if smoke || explicit_sizes.is_some() {
        println!("partial run: skipping BENCH_commit.json");
        return;
    }

    let mut json = String::from("{\n  \"bench\": \"commit_throughput\",\n");
    json.push_str(
        "  \"workload\": \"distinct-key PDC writes (chaincode MAJORITY + collection AND policy)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, s) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"block_txs\": {}, \"mode\": \"{}\", \"median_ms\": {:.3}, \"txs_per_sec\": {:.0}}}{sep}\n",
            s.block_txs,
            s.mode.label(),
            s.median.as_secs_f64() * 1e3,
            s.txs_per_sec
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"stage_breakdowns\": [\n");
    for (i, b) in breakdowns.iter().enumerate() {
        let sep = if i + 1 == breakdowns.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"block_txs\": {}, \"mode\": \"pipeline+noop-telemetry\", \
             \"min_block_ms\": {:.3}, \"stateless_ms\": {:.3}, \"stateful_ms\": {:.3}, \
             \"telemetry_overhead_pct\": {:.2}, \"monitor_overhead_pct\": {:.2}, \
             \"audit_events_per_block\": {}}}{sep}\n",
            b.block_txs,
            b.instrumented.as_secs_f64() * 1e3,
            b.stateless_ms,
            b.stateful_ms,
            b.overhead_pct,
            b.monitor_overhead_pct,
            b.audit_events_per_block
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"phase_latency_p50_ms\": {");
    for (i, (phase, p50_ms)) in phase_p50.iter().enumerate() {
        let sep = if i + 1 == phase_p50.len() { "" } else { ", " };
        json.push_str(&format!("\"{phase}\": {p50_ms:.3}{sep}"));
    }
    json.push_str("},\n");
    // Headline overhead: the largest block size, where per-block span
    // costs are amortized and the per-transaction instrumentation cost
    // dominates — the number the <3% budget is judged against.
    let headline = breakdowns
        .iter()
        .find(|b| b.block_txs == largest)
        .map(|b| b.overhead_pct)
        .unwrap_or(f64::NAN);
    json.push_str(&format!(
        "  \"telemetry_overhead_pct_{largest}tx\": {headline:.2},\n"
    ));
    // Monitor headline under the same convention: one monitor tick per
    // block, amortized over the largest block — judged against a <3%
    // budget for the online-alerting path.
    let monitor_headline = breakdowns
        .iter()
        .find(|b| b.block_txs == largest)
        .map(|b| b.monitor_overhead_pct)
        .unwrap_or(f64::NAN);
    json.push_str(&format!(
        "  \"monitor_overhead_pct_{largest}tx\": {monitor_headline:.2},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_{largest}tx_pipeline_vs_reference\": {speedup:.2}\n}}\n"
    ));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_commit.json");
    std::fs::write(path, json).expect("write BENCH_commit.json");
    println!("wrote {path}");
}
