#!/usr/bin/env bash
# CI gate for the fabric-pdc workspace. Run from anywhere.
#
#   1. `cargo fmt --check`                          formatting drift
#   2. `cargo clippy --all-targets -- -D warnings`  lint-clean, tests included
#   3. `cargo build --release`                      release build works
#   4. `cargo test -q`                              every proof is a typed test
#   5. `cargo doc` with `-D warnings`               a deleted item leaves no
#      dead intra-doc link behind; the three vendored stand-ins
#      (parking_lot, proptest, rand) are excluded because
#      `vendor/proptest`'s docs carry broken links of their own
#   6. every example                                all 11 under
#      `examples/` run to exit 0 (stdout dropped; a failed assertion, or a
#      definition the channel refuses at deploy, panics on stderr);
#      `corpus_scan` writes its corpus under the system temp dir and
#      removes it
#   7. `fabric-benchmark check --smoke`             each of the five
#      workloads (`BENCHMARK.json`'s `why` fields say what each one
#      exercises), run twice; each must pass the correctness checks with
#      equal tick-denominated metrics
#
# No step writes inside the work tree outside `target/`: after a passing run
# `git status --porcelain` prints what it printed before.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude parking_lot --exclude proptest --exclude rand

for example in monitor_status trace_tx telemetry quickstart lint_demo raft_demo attack_demo \
    corpus_scan leakage_audit secured_trade fig11; do
    echo "==> example $example"
    cargo run --release -q -p fabric-pdc --example "$example" > /dev/null
done

for workload in wide_fanout mixed_small_blocks narrow_pipeline read_defended mixed_overload; do
    echo "==> fabric-benchmark check --smoke --workload $workload"
    cargo run --release -q -p fabric-benchmark -- check --smoke --workload "$workload"
done

echo "CI gate passed."
