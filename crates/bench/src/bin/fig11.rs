//! Regenerates Fig. 11: execution and validation latency of one
//! transaction, original vs. modified framework, 100 runs per cell (the
//! paper's methodology). This is the one Fig. 11 harness.
//!
//! * **execution latency** — one endorsement (chaincode simulation +
//!   rwset assembly + signing), original vs. New Feature 2 (which adds one
//!   SHA-256 of the response payload before signing);
//! * **validation latency** — one block validated and committed, original
//!   vs. New Feature 1 + the non-member endorsement filter (which add one
//!   collection-policy evaluation and a membership check).
//!
//! Only the endorsement or the block commit is timed: building the
//! proposal and cloning the peer and block happen outside the timed
//! region. Each cell prints the median and the mean; the overhead column
//! compares medians, since one scheduler hiccup moves the mean of a
//! hundred microsecond-scale runs by tens of percent.
//!
//! Run: `cargo run --release -p fabric-bench --bin fig11`

use fabric_bench::{
    fixture_network, make_proposal, measure, prepared_block, process_prepared, Stats, TxOp,
};
use fabric_pdc::prelude::DefenseConfig;

const RUNS: usize = 100;
const WARMUP: usize = 10;

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
                RUNS,
                WARMUP,
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
            (
                "feature 1 + filter",
                DefenseConfig {
                    collection_policy_for_reads: true,
                    filter_non_member_endorsers: true,
                    ..DefenseConfig::original()
                },
            ),
        ],
        |op, defense| {
            let mut net = fixture_network(defense, 22);
            let (peer, block, pvt) = prepared_block(&mut net, op, defense, 20_000);
            measure(
                RUNS,
                WARMUP,
                || (peer.clone(), block.clone()),
                |(peer, block)| assert!(process_prepared(peer, block, &pvt)),
            )
        },
    );
    println!("\n(the paper reports minor impact in both phases; see EXPERIMENTS.md)");
}
