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
#   6. the examples that assert                     `monitor_status`,
#      `trace_tx`, `telemetry`, `quickstart`, `lint_demo`, `raft_demo` and
#      `attack_demo` run to exit 0
#      (stdout dropped; a failed assertion panics on stderr)
#   7. `fabric-benchmark check --smoke`             `wide_fanout`, the workload
#      that commits on several threads, `mixed_small_blocks`, the one
#      that runs with telemetry and the monitor attached,
#      `narrow_pipeline`, the one the client and orderer carry,
#      `read_defended`, the one that runs Features 1 and 2, and
#      `mixed_overload`, the one past the knee, where about a third of the
#      transactions commit as MVCC conflicts and so the most private-data
#      archive entries are dropped; each run twice and must pass the
#      correctness checks with equal tick-denominated metrics
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

for example in monitor_status trace_tx telemetry quickstart lint_demo raft_demo attack_demo; do
    echo "==> example $example"
    cargo run --release -q -p fabric-pdc --example "$example" > /dev/null
done

echo "==> fabric-benchmark check --smoke --workload wide_fanout"
cargo run --release -q -p fabric-benchmark -- check --smoke --workload wide_fanout

echo "==> fabric-benchmark check --smoke --workload mixed_small_blocks"
cargo run --release -q -p fabric-benchmark -- check --smoke --workload mixed_small_blocks

echo "==> fabric-benchmark check --smoke --workload narrow_pipeline"
cargo run --release -q -p fabric-benchmark -- check --smoke --workload narrow_pipeline

echo "==> fabric-benchmark check --smoke --workload read_defended"
cargo run --release -q -p fabric-benchmark -- check --smoke --workload read_defended

echo "==> fabric-benchmark check --smoke --workload mixed_overload"
cargo run --release -q -p fabric-benchmark -- check --smoke --workload mixed_overload

echo "CI gate passed."
