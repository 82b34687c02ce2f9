//! Parallelism must never change output: `scan_corpus` with any worker
//! count has to produce byte-identical aggregate and lint reports to the
//! sequential reference scan.

use fabric_analyzer::{
    corpus, lint_corpus, lint_corpus_with_flow, scan_corpus_sequential, scan_corpus_with,
    CorpusReport, CorpusSpec,
};
use fabric_lint::{flow, render};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_corpus_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "fabric-lint-determinism-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small internally-consistent corpus spec derived from a handful of
/// free parameters.
fn spec_from(total_extra: usize, explicit: usize, implicit: usize, seed: u64) -> CorpusSpec {
    let pdc = explicit + implicit;
    let custom = explicit / 2;
    let chaincode_level = explicit - custom;
    CorpusSpec {
        per_year: vec![(2019, pdc + total_extra, pdc)],
        explicit_only: explicit,
        both: 0,
        implicit_only: implicit,
        custom_collection_policy: custom,
        configtx_majority: chaincode_level,
        configtx_other: 0,
        read_leak: explicit,
        read_and_write_leak: explicit / 2,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_scan_reports_are_byte_identical(
        total_extra in 0usize..4,
        explicit in 1usize..5,
        implicit in 0usize..3,
        seed in 0u64..1000,
        workers in 2usize..6,
    ) {
        let spec = spec_from(total_extra, explicit, implicit, seed);
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        let dir = temp_corpus_dir();
        corpus::materialize(&spec, &dir).expect("materialize corpus");

        let sequential = scan_corpus_sequential(&dir).expect("sequential scan");
        let parallel = scan_corpus_with(&dir, workers).expect("parallel scan");
        prop_assert_eq!(&sequential, &parallel, "report order changed under {} workers", workers);

        // Aggregate renders byte-match.
        let agg_seq = CorpusReport::from_reports(&sequential);
        let agg_par = CorpusReport::from_reports(&parallel);
        prop_assert_eq!(agg_seq.to_json(), agg_par.to_json());

        // Lint renders byte-match in every output format.
        let findings_seq = lint_corpus(&sequential);
        let findings_par = lint_corpus(&parallel);
        prop_assert_eq!(render::render_text(&findings_seq), render::render_text(&findings_par));
        prop_assert_eq!(render::render_json(&findings_seq), render::render_json(&findings_par));
        prop_assert_eq!(render::render_sarif(&findings_seq), render::render_sarif(&findings_par));

        // With flow analysis merged in (`--flow`), renders still
        // byte-match regardless of the scan's worker count.
        let flow_seq = lint_corpus_with_flow(&sequential);
        let flow_par = lint_corpus_with_flow(&parallel);
        prop_assert_eq!(render::render_text(&flow_seq), render::render_text(&flow_par));
        prop_assert_eq!(render::render_json(&flow_seq), render::render_json(&flow_par));
        prop_assert_eq!(render::render_sarif(&flow_seq), render::render_sarif(&flow_par));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flow analysis of the built-in registry alone is byte-deterministic
/// across repeated runs — even though one registered sample
/// (`leaky_escrow::stamp`) is deliberately nondeterministic.
#[test]
fn flow_findings_are_deterministic_across_runs_and_workers() {
    let registry = flow::sample_registry();
    let reference = flow::analyze_targets(&registry);
    assert!(
        !reference.is_empty(),
        "registry must surface the leaky sample"
    );
    for run_no in 1..=4 {
        let run = flow::analyze_targets(&registry);
        assert_eq!(
            render::render_text(&reference),
            render::render_text(&run),
            "run {run_no} changed flow output"
        );
        assert_eq!(render::render_json(&reference), render::render_json(&run));
        assert_eq!(render::render_sarif(&reference), render::render_sarif(&run));
    }
}

/// The synthetic corpus reproduces the paper's headline misuse: most
/// explicit projects omit `EndorsementPolicy` (PDC001) and leak private
/// data through the payload (PDC009).
#[test]
fn lint_over_synthetic_corpus_finds_the_paper_misuses() {
    let dir = temp_corpus_dir();
    corpus::materialize(&CorpusSpec::small(7), &dir).expect("materialize corpus");
    let reports = fabric_analyzer::scan_corpus(&dir).expect("scan");
    let findings = lint_corpus(&reports);
    let fired: std::collections::BTreeSet<&str> = findings.iter().map(|f| f.rule_id).collect();
    assert!(fired.contains("PDC001"), "fired: {fired:?}");
    assert!(fired.contains("PDC009"), "fired: {fired:?}");
    let _ = std::fs::remove_dir_all(&dir);

    // The corpus `analyze generate` writes: its totals are pinned, so that
    // no rule change moves them unnoticed.
    let dir = temp_corpus_dir();
    corpus::materialize(&CorpusSpec::small(42), &dir).expect("materialize corpus");
    let findings = lint_corpus(&fabric_analyzer::scan_corpus(&dir).expect("scan"));
    let mut by_rule = std::collections::BTreeMap::new();
    for f in &findings {
        *by_rule.entry(f.rule_id).or_insert(0) += 1;
    }
    assert_eq!(
        by_rule,
        [("PDC001", 10), ("PDC004", 12), ("PDC009", 12)].into(),
        "{}",
        render::render_text(&findings)
    );
    assert!(render::render_text(&findings)
        .ends_with("34 finding(s): 12 error(s), 22 warning(s), 0 note(s)\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
