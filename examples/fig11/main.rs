//! Regenerates Fig. 11: execution and validation latency of one
//! transaction, original vs. modified framework, 100 runs per cell (the
//! paper's methodology). This is the one Fig. 11 harness.
//!
//! * **execution latency** — one endorsement (chaincode simulation +
//!   rwset assembly + signing), original vs. New Feature 2, which hashes
//!   the response payload before signing;
//! * **validation latency** — one block validated and committed, original
//!   vs. New Feature 1 + the non-member endorsement filter, which evaluate
//!   the collection policy for reads and check each endorser's
//!   membership.
//!
//! `tests/fig11_work.rs` counts the SHA-256 compressions each cell spends
//! (EXPERIMENTS.md, Fig. 11).
//!
//! Only the endorsement or the block commit is timed: building the
//! proposal and cloning the peer and block happen outside the timed
//! region. Each cell prints the median and the mean; the overhead column
//! compares medians, since one scheduler hiccup moves the mean of a
//! hundred microsecond-scale runs by tens of percent.
//!
//! Run: `cargo run --release -p fabric-pdc --example fig11`

mod fixture;

use fabric_pdc::prelude::DefenseConfig;
use fixture::{
    fixture_network, make_proposal, prepared_block, process_prepared, validation_defense, TxOp,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const RUNS: usize = 100;
const WARMUP: usize = 10;

/// Statistics over repeated timings.
#[derive(Debug, Clone, Copy)]
struct Stats {
    /// Arithmetic mean.
    mean: Duration,
    /// Median: robust to the scheduler's outliers, which a mean of a
    /// hundred microsecond-scale runs is not.
    median: Duration,
}

/// Times `routine` `RUNS` times (after `WARMUP` unmeasured runs), each
/// time on a fresh input from `setup`, which runs outside the timed
/// region.
fn measure<I, O>(mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) -> Stats {
    for _ in 0..WARMUP {
        black_box(routine(setup()));
    }
    let mut samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        samples.push(start.elapsed());
    }
    samples.sort_unstable();
    let total: Duration = samples.iter().sum();
    Stats {
        mean: total / RUNS as u32,
        median: samples[RUNS / 2],
    }
}

fn fmt(stats: Stats) -> String {
    format!("{:>8.1?} (mean {:>8.1?})", stats.median, stats.mean)
}

/// Prints one table: a row per operation, `cell` timing it under each
/// of the two configurations.
fn table(
    title: &str,
    configs: [(&str, DefenseConfig); 2],
    mut cell: impl FnMut(TxOp, DefenseConfig) -> Stats,
) {
    println!("{title}:");
    println!(
        "{:<8} | {:<28} | {:<28} | overhead",
        "tx", configs[0].0, configs[1].0
    );
    println!("{}", "-".repeat(84));
    for op in TxOp::all() {
        let [original, modified] = configs.map(|(_, defense)| cell(op, defense));
        let overhead =
            modified.median.as_secs_f64() / original.median.as_secs_f64() * 100.0 - 100.0;
        println!(
            "{:<8} | {:<28} | {:<28} | {:+.1} %",
            op.label(),
            fmt(original),
            fmt(modified),
            overhead
        );
    }
}

fn main() {
    println!("Fig. 11 — impact of defense measures on per-transaction latency");
    println!("({RUNS} measured runs per cell after {WARMUP} warm-up runs; median (mean))\n");

    table(
        "execution latency (one endorsement)",
        [
            ("original", DefenseConfig::original()),
            ("new feature 2", DefenseConfig::feature2()),
        ],
        |op, defense| {
            let net = fixture_network(defense, 21);
            let peer = net.peer("peer0.org1").clone();
            let mut nonce = 10_000u64;
            measure(
                || {
                    nonce += 1;
                    make_proposal(&net, op, nonce)
                },
                |proposal| peer.endorse(&proposal).expect("endorse"),
            )
        },
    );

    println!();
    table(
        "validation latency (one block validated + committed)",
        [
            ("original", DefenseConfig::original()),
            ("feature 1 + filter", validation_defense()),
        ],
        |op, defense| {
            let mut net = fixture_network(defense, 22);
            let (peer, block, pvt) = prepared_block(&mut net, op, defense, 20_000);
            measure(
                || (peer.clone(), block.clone()),
                |(peer, block)| assert!(process_prepared(peer, block, &pvt)),
            )
        },
    );
    println!("\n(the paper reports minor impact in both phases; see EXPERIMENTS.md)");
}
