//! The workload harness is a measurement instrument, so its schedule
//! and its tick-denominated results must be reproducible: same seed and
//! config ⇒ the same arrivals, the same commit/abort/audit/alert
//! accounting, bit for bit.
//!
//! Wall-clock phase quantiles are explicitly NOT compared;
//! `LoadPoint::deterministic_signature` excludes them by construction.

use fabric_pdc::workload::{run, OpMix, WorkloadConfig};

fn cfg() -> WorkloadConfig {
    WorkloadConfig {
        seed: 7,
        extra_peers: 1,
        virtual_clients: 5_000,
        key_space: 24,
        zipf_skew: 0.99,
        mix: OpMix::pdc_heavy(),
        offered_rate: 3.0,
        ticks: 60,
        window_ticks: 20,
        block_txs: 4,
        block_to_live: 16,
        endorser_failure_prob: 0.05,
        adversarial_fraction: 0.05,
    }
}

#[test]
fn same_seed_and_config_reproduce_the_load_point_exactly() {
    let a = run(&cfg());
    let b = run(&cfg());
    assert_eq!(
        a.deterministic_signature(),
        b.deterministic_signature(),
        "two runs of the same seed+config must agree on every tick-deterministic field"
    );
    // The signature covers real traffic, not a degenerate empty run.
    assert!(a.committed > 0 && a.offered == 180, "{a:?}");
}

#[test]
fn different_seeds_produce_different_schedules() {
    let a = run(&cfg());
    let mut other = cfg();
    other.seed = 8;
    let b = run(&other);
    assert_ne!(
        a.deterministic_signature(),
        b.deterministic_signature(),
        "the seed must actually drive the schedule"
    );
}
