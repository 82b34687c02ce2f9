//! The benchmark's own guarantees, at smoke size: every workload passes
//! its correctness checks, a seed names one exact run, the traced
//! composition ends like the black box, a cooked ledger is caught, and
//! `BENCHMARK.json` lists exactly what the binary reports.

use fabric_benchmark::driver::{run_round, Round};
use fabric_benchmark::json::Json;
use fabric_benchmark::measure::{self, Stop, END_TO_END};
use fabric_benchmark::sut::Blackbox;
use fabric_benchmark::verify;
use fabric_benchmark::workload::{by_name, Spec, WORKLOADS};

const SMOKE: bool = true;

fn spec(name: &str) -> &'static Spec {
    by_name(name).expect("a named workload")
}

/// One smoke round on a fresh black box.
fn round(spec: &Spec, seed: u64) -> (Blackbox, Round) {
    let mut sut = Blackbox::setup(spec);
    let round = run_round(&mut sut, spec, seed, SMOKE);
    (sut, round)
}

/// The part of a round that must repeat exactly for a seed.
fn exact(mut round: Round) -> Round {
    round.wall_s = 0.0;
    round.advance_ms_per_block.clear();
    round
}

fn passes_end_to_end(name: &str) {
    let report = measure::end_to_end(spec(name), 1, Stop::Repeats(1), SMOKE);
    assert!(report.correct(), "{name}: {:?}", report.errors);
    assert_eq!(report.failed, 0, "{name}: no operation may fail");
    assert_eq!(report.attempted, spec(name).ops(SMOKE));
    for metric in END_TO_END {
        let value = report.value(metric.name);
        assert!(
            value.is_some_and(|v| v > 0.0),
            "{name}: {} must be reported and never 0, got {value:?}",
            metric.name
        );
    }
}

#[test]
fn wide_fanout_passes_its_checks() {
    passes_end_to_end("wide_fanout");
}

#[test]
fn narrow_pipeline_passes_its_checks() {
    passes_end_to_end("narrow_pipeline");
}

#[test]
fn mixed_small_blocks_passes_its_checks() {
    passes_end_to_end("mixed_small_blocks");
}

#[test]
fn read_defended_passes_its_checks() {
    passes_end_to_end("read_defended");
}

#[test]
fn mixed_overload_passes_its_checks() {
    passes_end_to_end("mixed_overload");
}

#[test]
fn clean_workloads_lose_nothing_and_contended_ones_conflict() {
    let (_, clean) = round(spec("read_defended"), 4);
    assert_eq!(clean.ok(), clean.offered);
    assert!(
        clean.ok_queries > clean.ok_txs,
        "four reads in five are queries"
    );
    let (_, contended) = round(spec("mixed_overload"), 4);
    assert!(contended.mvcc_conflict > 0, "hot-key adds conflict");
    assert_eq!(
        contended.failed(),
        0,
        "a conflict is not a failed operation"
    );
    assert!(contended.ok() < contended.offered);
}

#[test]
fn a_seed_names_one_exact_run() {
    let spec = spec("mixed_small_blocks");
    let (_, first) = round(spec, 7);
    let (_, again) = round(spec, 7);
    let (_, other) = round(spec, 8);
    assert!(!first.first_tx_id.is_empty());
    assert_eq!(exact(first.clone()), exact(again));
    assert_eq!(
        first.offered, other.offered,
        "the schedule is the seed's, not the inputs'"
    );
    assert_ne!(first.first_tx_id, other.first_tx_id);
}

fn composition_matches(name: &str) -> measure::Report {
    let (report, trace_json) = measure::per_layer(spec(name), 3, Stop::Repeats(1), SMOKE, true);
    // `correct` here includes: same chain tips, state digests, validation
    // code counts and tick-exact results as the black box on this seed.
    assert!(report.correct(), "{name}: {:?}", report.errors);
    let trace = Json::parse(&trace_json.expect("spans kept")).expect("the trace file is JSON");
    let events = trace.get("traceEvents").expect("chrome trace").items();
    assert!(events.len() > 100, "{name}: spans are recorded");
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("peer.process_block")));
    let share = |metric: &str| report.value(metric).expect(metric);
    assert!(share("trace.unattributed_share") < 0.25, "{name}");
    let layers: f64 = [
        "driver", "client", "endorse", "gossip", "orderer", "network", "commit", "monitor",
    ]
    .iter()
    .map(|l| share(&format!("{l}.busy_share")))
    .sum();
    let total = layers + share("trace.unattributed_share");
    assert!(
        (total - 1.0).abs() < 1e-6,
        "{name}: the ledger sums to the wall: {total}"
    );
    report
}

#[test]
fn composition_ends_like_the_black_box_on_wide_fanout() {
    let report = composition_matches("wide_fanout");
    assert_eq!(report.value("commit.errors"), Some(0.0));
    assert_eq!(report.value("monitor.observe_tick_us"), Some(0.0));
}

#[test]
fn composition_ends_like_the_black_box_on_read_defended() {
    let report = composition_matches("read_defended");
    assert!(
        report.value("gossip.transient_peak").unwrap() > 100.0,
        "query packages stay"
    );
}

#[test]
fn composition_ends_like_the_black_box_on_mixed_overload() {
    let report = composition_matches("mixed_overload");
    assert!(report.value("commit.mvcc_conflict").unwrap() > 0.0);
    assert!(report.value("monitor.observe_tick_us").unwrap() > 0.0);
    assert!(report.value("e2e.failed_share").unwrap() > 0.0);
}

#[test]
fn corrupted_accounting_fails_the_checker() {
    let spec = spec("narrow_pipeline");
    let (sut, round) = round(spec, 2);
    assert_eq!(verify::check(&sut, spec, &round), Vec::<String>::new());

    // Drop one resolved transaction.
    let mut dropped = round.clone();
    dropped.ok_txs -= 1;
    dropped.commit_latency_ticks.pop();
    let errors = verify::check(&sut, spec, &dropped);
    assert!(errors.iter().any(|e| e.contains("accounted")), "{errors:?}");
    assert!(
        errors.iter().any(|e| e.contains("ledger holds")),
        "{errors:?}"
    );

    // Book a conflict as a success.
    let mut cooked = round.clone();
    cooked.ok_txs -= 1;
    cooked.mvcc_conflict += 1;
    assert!(!verify::check(&sut, spec, &cooked).is_empty());
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = manifest.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

    let listed: Vec<(String, String)> = manifest
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let defined: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(listed, defined);
    assert!(defined.iter().all(|(_, why)| why.len() <= 200));

    for (listed, defined) in manifest
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(text_of(listed, "name"), defined.name);
        assert_eq!(text_of(listed, "unit"), defined.unit);
        let better = if defined.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text_of(listed, "better"), better);
        assert_eq!(
            listed.get("bound").and_then(Json::as_f64),
            Some(defined.bound)
        );
    }
    assert_eq!(
        manifest.get("end_to_end").unwrap().items().len(),
        END_TO_END.len()
    );

    let (report, _) = measure::per_layer(spec("mixed_overload"), 1, Stop::Repeats(1), SMOKE, false);
    let reported: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let listed: Vec<(String, String)> = manifest
        .get("per_layer")
        .unwrap()
        .items()
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit")))
        .collect();
    assert_eq!(listed, reported);
}
