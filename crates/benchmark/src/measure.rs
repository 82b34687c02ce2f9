//! Runs rounds of a workload and turns them into named metrics.
//!
//! A run repeats whole rounds, each on a freshly set-up network and a
//! seed derived from the run's seed, until a stop condition holds.
//! Wall-clock metrics are medians over the rounds; tick-denominated
//! metrics are pooled over the rounds and repeat exactly for a seed and
//! a round count.

use crate::driver::{run_round, Round};
use crate::stats::{median, percentile, quartiles, ratio};
use crate::sut::{self, Blackbox, Composed, Counts, LedgerView, Probes};
use crate::trace::{Call, Layer, Tracer};
use crate::verify;
use crate::workload::Spec;
use std::time::Instant;

/// When a run stops starting new rounds.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Repeats(u32),
    Seconds(f64),
}

/// One reported metric. `n` is the number of samples behind `value`;
/// the quartiles equal the value where there is no spread to report.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: u64,
    pub q1: f64,
    pub q3: f64,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// An end-to-end metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may get worse.
    pub bound: f64,
    /// Tick-denominated: repeats exactly for a seed and a round count.
    pub exact: bool,
    /// Two medians this close, in the metric's unit, are not told apart
    /// by `compare` whatever the bound says.
    pub slack: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact,
        slack: 0.0,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    // Set-up takes milliseconds, where scheduling noise is a large share.
    EndToEnd {
        slack: 0.05,
        ..e2e("setup_s", "s", false, 0.25, false)
    },
    // Wall-clock on a shared 2-core host: slow spells of a minute or more
    // move whole runs by up to a fifth, so a tighter bound would not hold.
    e2e("goodput_tps", "ops/s", true, 0.25, false),
    e2e("goodput_per_tick", "tx/tick", true, 0.02, true),
    e2e("commit_latency_ticks_p50", "ticks", false, 0.02, true),
    e2e("commit_latency_ticks_p99", "ticks", false, 0.02, true),
    e2e("peak_in_flight", "txs", false, 0.02, true),
    e2e("ok_share", "ratio", true, 0.02, true),
    e2e("peak_rss_mb", "MB", false, 0.10, false),
];

/// A value with the number of samples behind it and their quartiles.
#[derive(Debug, Clone, Copy)]
struct Sample {
    value: f64,
    n: u64,
    q1: f64,
    q3: f64,
}

impl Sample {
    /// A single reading or a pooled count: no spread to report.
    fn exact(value: f64, n: u64) -> Self {
        Sample {
            value,
            n,
            q1: value,
            q3: value,
        }
    }

    /// The median of per-round samples.
    fn median_of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Sample {
            value: median(samples),
            n: samples.len() as u64,
            q1,
            q3,
        }
    }

    fn named(self, name: &'static str, unit: &'static str) -> Metric {
        Metric {
            name,
            unit,
            value: self.value,
            n: self.n,
            q1: self.q1,
            q3: self.q3,
        }
    }
}

/// The seed of round `r` of a run: distinct run seeds never share one.
fn round_seed(seed: u64, r: u32) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(u64::from(r))
}

struct Stopper {
    stop: Stop,
    started: Instant,
    rounds: u32,
}

impl Stopper {
    fn new(stop: Stop) -> Self {
        Stopper {
            stop,
            started: Instant::now(),
            rounds: 0,
        }
    }

    /// Call after each round; true when the run is over.
    fn done(&mut self) -> bool {
        self.rounds += 1;
        match self.stop {
            Stop::Repeats(n) => self.rounds >= n.max(1),
            // Stop where the total lands closest to the asked time.
            Stop::Seconds(s) => {
                let elapsed = self.started.elapsed().as_secs_f64();
                elapsed + 0.5 * elapsed / f64::from(self.rounds) >= s
            }
        }
    }
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, kB.
fn vm_hwm_kb() -> f64 {
    proc_status_kb("VmHWM:")
}

fn vm_rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

fn pooled_sorted<'a>(samples: impl Iterator<Item = &'a Vec<u32>>) -> Vec<u32> {
    let mut all: Vec<u32> = samples.flatten().copied().collect();
    all.sort_unstable();
    all
}

fn goodput_tps(round: &Round) -> f64 {
    ratio(round.ok() as f64, round.wall_s)
}

/// The end-to-end metrics of one workload, measured on the black box
/// with tracing off.
pub fn end_to_end(spec: &Spec, seed: u64, stop: Stop, smoke: bool) -> Report {
    let mut report = Report::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut setup_s = Vec::new();
    let mut stopper = Stopper::new(stop);
    loop {
        let seed = round_seed(seed, stopper.rounds);
        let start = Instant::now();
        let mut sut = Blackbox::setup(spec);
        setup_s.push(start.elapsed().as_secs_f64());
        let round = run_round(&mut sut, spec, seed, smoke);
        for e in verify::check(&sut, spec, &round) {
            report.errors.push(format!("round {}: {e}", stopper.rounds));
        }
        drop(sut);
        rounds.push(round);
        if stopper.done() {
            break;
        }
    }
    let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let latency = pooled_sorted(rounds.iter().map(|r| &r.commit_latency_ticks));
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_in_flight as f64).collect();
    let tps: Vec<f64> = rounds.iter().map(goodput_tps).collect();
    let n = rounds.len() as u64;
    let offered = sum(|r| r.offered);
    // In the order of `END_TO_END`.
    let values = [
        Sample::median_of(&setup_s),
        Sample::median_of(&tps),
        Sample::exact(ratio(sum(|r| r.ok_txs), sum(Round::total_ticks)), n),
        Sample::exact(f64::from(percentile(&latency, 0.5)), latency.len() as u64),
        Sample::exact(f64::from(percentile(&latency, 0.99)), latency.len() as u64),
        Sample::exact(median(&peaks), n),
        Sample::exact(ratio(sum(Round::ok), offered), offered as u64),
        Sample::exact(vm_hwm_kb() / 1024.0, 1),
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| v.named(m.name, m.unit))
        .collect();
    report.attempted = offered as u64;
    report.failed = sum(Round::failed) as u64;
    report
}

/// One traced round with its black-box twin.
struct TracedRound {
    tracer: Tracer,
    counts: Counts,
    round: Round,
    twin: Round,
    /// Goodput of the composition with telemetry and monitor taken off.
    unobserved_tps: Option<f64>,
}

/// Spans kept for the trace file (the ledger covers all of them).
const SPANS_KEPT: usize = 2_000_000;
/// Blocks the wire, crypto and raft probes replay.
const PROBE_BATCHES: usize = 32;

/// The ways the composition must end like the black box for one seed.
fn equivalence_errors(
    twin: &LedgerView,
    twin_round: &Round,
    own: &LedgerView,
    own_round: &Round,
) -> Vec<String> {
    let mut errors = Vec::new();
    if twin.tips != own.tips || twin.heights != own.heights {
        errors.push("composition and black box end on different chain tips".to_string());
    }
    if twin.digests != own.digests {
        errors.push("composition and black box end on different state digests".to_string());
    }
    if (twin.valid, twin.mvcc_conflict, twin.invalid_other)
        != (own.valid, own.mvcc_conflict, own.invalid_other)
    {
        errors.push("composition and black box count validation codes differently".to_string());
    }
    fn exact(r: &Round) -> (u64, u64, u64, u64, &[u32]) {
        (
            r.offered,
            r.ok(),
            r.total_ticks(),
            r.peak_in_flight,
            &r.commit_latency_ticks,
        )
    }
    if exact(twin_round) != exact(own_round) {
        errors.push("composition and black box differ in tick-exact results".to_string());
    }
    errors
}

/// The per-layer metrics of one workload, from the traced composition.
/// Each round also runs the black box on the same seed, to check that
/// both end alike and to price the tracing. With `keep_spans`, also
/// returns the first round's spans as Chrome-trace JSON.
pub fn per_layer(
    spec: &Spec,
    seed: u64,
    stop: Stop,
    smoke: bool,
    keep_spans: bool,
) -> (Report, Option<String>) {
    let mut report = Report::default();
    let mut rounds: Vec<TracedRound> = Vec::new();
    let mut probes = Probes::default();
    let mut trace_json = None;
    let mut rss_kb_per_tx = 0.0;
    let mut stopper = Stopper::new(stop);
    loop {
        let r = stopper.rounds;
        let seed = round_seed(seed, r);

        let mut blackbox = Blackbox::setup(spec);
        let rss_after_setup = vm_rss_kb();
        let twin = run_round(&mut blackbox, spec, seed, smoke);
        if r == 0 {
            // Nothing bigger ran in this process yet, so the high-water
            // mark is this round's.
            let committed = twin.ok_txs + twin.mvcc_conflict + twin.invalid_other;
            rss_kb_per_tx = ratio(vm_hwm_kb() - rss_after_setup, committed as f64);
        }
        let twin_view = sut::ledger_view(&blackbox, twin.first_block);
        drop(blackbox);

        let keep = if keep_spans && r == 0 { SPANS_KEPT } else { 0 };
        let mut composed = Composed::setup(spec, spec.observed, keep);
        let round = run_round(&mut composed, spec, seed, smoke);
        let view = sut::ledger_view(&composed, round.first_block);
        let mut errors = verify::check_view(&view, spec, &round);
        errors.extend(equivalence_errors(&twin_view, &twin, &view, &round));
        report
            .errors
            .extend(errors.into_iter().map(|e| format!("round {r}: {e}")));
        if r == 0 {
            probes = sut::probes(&composed, round.first_block, PROBE_BATCHES);
            trace_json = keep_spans.then(|| composed.tracer.chrome_trace_json());
        }
        let Composed { tracer, counts, .. } = composed;

        let unobserved_tps = spec.observed.then(|| {
            let mut bare = Composed::setup(spec, false, 0);
            goodput_tps(&run_round(&mut bare, spec, seed, smoke))
        });
        rounds.push(TracedRound {
            tracer,
            counts,
            round,
            twin,
            unobserved_tps,
        });
        if stopper.done() {
            break;
        }
    }
    report.attempted = rounds.iter().map(|r| r.round.offered).sum();
    report.failed = rounds.iter().map(|r| r.round.failed()).sum();
    report.metrics = layer_metrics(spec, &rounds, &probes, rss_kb_per_tx);
    (report, trace_json)
}

fn layer_metrics(
    spec: &Spec,
    rounds: &[TracedRound],
    probes: &Probes,
    rss_kb_per_tx: f64,
) -> Vec<Metric> {
    let n = rounds.len() as u64;
    let wall_ns: f64 = rounds.iter().map(|r| r.round.wall_s * 1e9).sum();
    let stat = |call: Call, f: fn(&crate::trace::CallStats) -> u64| -> f64 {
        rounds.iter().map(|r| f(r.tracer.stats(call))).sum::<u64>() as f64
    };
    let calls = |call: Call| stat(call, |s| s.count);
    let total_ns = |call: Call| stat(call, |s| s.total_ns);
    let mean_us = |call: Call| ratio(total_ns(call), calls(call)) / 1e3;
    let busy = |layer: Layer| {
        let ns: u64 = rounds.iter().map(|r| r.tracer.layer_self_ns(layer)).sum();
        ratio(ns as f64, wall_ns)
    };
    let durations =
        |call: Call| pooled_sorted(rounds.iter().map(|r| &r.tracer.stats(call).durations_ns));
    let count = |f: fn(&Counts) -> u64| rounds.iter().map(|r| f(&r.counts)).sum::<u64>() as f64;
    let peak =
        |f: fn(&Counts) -> u64| rounds.iter().map(|r| f(&r.counts)).max().unwrap_or(0) as f64;

    let endorse = durations(Call::PeerEndorse);
    let mut process_block: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.counts.process_block_ns.iter().copied())
        .collect();
    process_block.sort_unstable();
    let commit_ns: u64 = process_block.iter().sum();
    let skew: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.counts.peer_skew.iter().copied())
        .collect();
    let queue_wait = pooled_sorted(rounds.iter().map(|r| &r.round.queue_wait_ticks));
    let mut raft_ticks = probes.raft_ticks_to_commit.clone();
    raft_ticks.sort_unstable();
    let mut advance: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.twin.advance_ms_per_block.iter().copied())
        .collect();
    advance.sort_by(f64::total_cmp);

    let blocks = count(|c| c.blocks);
    let ordered = count(|c| c.block_txs);
    let codes = count(|c| c.valid) + count(|c| c.mvcc_conflict) + count(|c| c.invalid_other);
    let peers = ratio(calls(Call::PeerProcessBlock), blocks);
    let traced_tps: Vec<f64> = rounds.iter().map(|r| goodput_tps(&r.round)).collect();
    let twin_tps: Vec<f64> = rounds.iter().map(|r| goodput_tps(&r.twin)).collect();
    let unobserved: Vec<f64> = rounds.iter().filter_map(|r| r.unobserved_tps).collect();
    let offered: f64 = rounds.iter().map(|r| r.round.offered as f64).sum();
    let ok: f64 = rounds.iter().map(|r| r.round.ok() as f64).sum();
    let root_ns: f64 = rounds.iter().map(|r| r.tracer.root_ns() as f64).sum();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);

    let m = |name, unit, value: f64| Sample::exact(value, n).named(name, unit);
    vec![
        m("client.propose_us", "us", mean_us(Call::ClientPropose)),
        m("client.assemble_us", "us", mean_us(Call::ClientAssemble)),
        m("client.busy_share", "ratio", busy(Layer::Client)),
        m("endorse.calls", "count", calls(Call::PeerEndorse)),
        m(
            "endorse.us_p50",
            "us",
            f64::from(percentile(&endorse, 0.5)) / 1e3,
        ),
        m(
            "endorse.us_p95",
            "us",
            f64::from(percentile(&endorse, 0.95)) / 1e3,
        ),
        m("endorse.busy_share", "ratio", busy(Layer::Endorse)),
        m("endorse.rejected", "count", count(|c| c.endorse_rejected)),
        m(
            "gossip.disseminate_us",
            "us",
            mean_us(Call::GossipDisseminate),
        ),
        m("gossip.fetch_us", "us", mean_us(Call::GossipFetch)),
        m(
            "gossip.pull_share",
            "ratio",
            ratio(count(|c| c.pulls), count(|c| c.fetches)),
        ),
        m(
            "gossip.purge_us_per_block",
            "us",
            mean_us(Call::GossipPurge),
        ),
        m("gossip.busy_share", "ratio", busy(Layer::Gossip)),
        m("gossip.transient_peak", "count", peak(|c| c.transient_peak)),
        m("orderer.submit_us", "us", mean_us(Call::OrdererSubmit)),
        m(
            "orderer.tick_us_per_tx",
            "us",
            ratio(
                total_ns(Call::OrdererTick) + total_ns(Call::OrdererTakeBlocks),
                ordered,
            ) / 1e3,
        ),
        m("orderer.busy_share", "ratio", busy(Layer::Orderer)),
        m("orderer.blocks", "count", blocks),
        m(
            "orderer.block_fill",
            "ratio",
            ratio(ordered, blocks * spec.block_txs as f64),
        ),
        m(
            "orderer.queue_wait_ticks_p50",
            "ticks",
            f64::from(percentile(&queue_wait, 0.5)),
        ),
        m(
            "orderer.queue_wait_ticks_p99",
            "ticks",
            f64::from(percentile(&queue_wait, 0.99)),
        ),
        m("orderer.pending_peak", "txs", peak(|c| c.pending_peak)),
        m("wire.encode_us_per_tx", "us", probes.encode_us_per_tx),
        m("wire.decode_us_per_tx", "us", probes.decode_us_per_tx),
        m("wire.bytes_per_tx", "bytes", probes.bytes_per_tx),
        m("crypto.sign_header_us", "us", probes.sign_header_us),
        m(
            "raft.replicate_us_per_entry",
            "us",
            probes.raft_replicate_us_per_entry,
        ),
        m(
            "raft.ticks_to_commit_p50",
            "ticks",
            percentile(&raft_ticks, 0.5) as f64,
        ),
        m(
            "raft.ticks_to_commit_p99",
            "ticks",
            percentile(&raft_ticks, 0.99) as f64,
        ),
        m(
            "raft.messages_per_entry",
            "count",
            probes.raft_messages_per_entry,
        ),
        m(
            "network.fanout_us_per_block",
            "us",
            ratio(total_ns(Call::NetworkFanout), blocks) / 1e3,
        ),
        m(
            "network.blocks_per_delivering_tick",
            "count",
            ratio(blocks, count(|c| c.delivering_ticks)),
        ),
        m(
            "network.advance_ms_per_block_p50",
            "ms",
            percentile(&advance, 0.5),
        ),
        m(
            "network.advance_ms_per_block_p95",
            "ms",
            percentile(&advance, 0.95),
        ),
        m("network.busy_share", "ratio", busy(Layer::Network)),
        m(
            "commit.process_block_ms_p50",
            "ms",
            percentile(&process_block, 0.5) as f64 / 1e6,
        ),
        m(
            "commit.process_block_ms_p95",
            "ms",
            percentile(&process_block, 0.95) as f64 / 1e6,
        ),
        m(
            "commit.us_per_tx",
            "us",
            ratio(commit_ns as f64, ordered * peers) / 1e3,
        ),
        m("commit.busy_share", "ratio", busy(Layer::Commit)),
        m(
            "commit.peer_skew",
            "ratio",
            ratio(skew.iter().sum(), skew.len() as f64),
        ),
        m("commit.errors", "count", count(|c| c.commit_errors)),
        m("commit.valid", "count", count(|c| c.valid)),
        m("commit.mvcc_conflict", "count", count(|c| c.mvcc_conflict)),
        m("commit.invalid_other", "count", count(|c| c.invalid_other)),
        m(
            "commit.valid_share",
            "ratio",
            ratio(count(|c| c.valid), codes),
        ),
        m("commit.missing_pvt", "count", count(|c| c.missing_pvt)),
        m("ledger.rss_kb_per_tx", "kB", rss_kb_per_tx),
        m(
            "monitor.observe_tick_us",
            "us",
            mean_us(Call::MonitorObserveTick),
        ),
        m("monitor.busy_share", "ratio", busy(Layer::Monitor)),
        m(
            "observability.overhead_share",
            "ratio",
            if unobserved.is_empty() {
                0.0
            } else {
                1.0 - ratio(median(&traced_tps), median(&unobserved))
            },
        ),
        m("driver.busy_share", "ratio", busy(Layer::Driver)),
        m(
            "trace.overhead_share",
            "ratio",
            1.0 - ratio(median(&traced_tps), median(&twin_tps)),
        ),
        m(
            "trace.unattributed_share",
            "ratio",
            ratio(wall_ns - root_ns, wall_ns),
        ),
        m("e2e.failed_share", "ratio", ratio(offered - ok, offered)),
        m("host.sha256_mb_s", "MB/s", probes.sha256_mb_s),
        m("host.nproc", "count", nproc as f64),
    ]
}
