#!/usr/bin/env bash
# CI gate for the fabric-pdc workspace.
#
# Keeps the repo at a fixed quality bar:
#   1. `cargo fmt --check`                            — formatting drift
#   2. `cargo clippy --all-targets -- -D warnings`    — lint-clean, tests included
#   3. `cargo build --release`                        — release build works
#   4. `cargo test -q`                                — full test suite
#   5. commit-throughput bench smoke run              — bench code can't
#      rot
#   5b. e2e-throughput bench smoke run                — the end-to-end
#      fan-out bench must keep measuring both fan-out modes, and
#      BENCH_e2e.json must keep its headline speedup field
#   5c. workload-throughput bench smoke run           — the open-loop
#      sweep must keep producing multi-rate curves with knees, and
#      BENCH_workload.json must keep its header + per-rate rows
#   6. telemetry example smoke run                    — the metric surface
#      other tooling scrapes (names below) must keep exporting
#   7. trace_tx example smoke run                     — a tx id must keep
#      resolving to a complete five-phase timeline and a Chrome-trace
#      export
#   8. monitor_status example smoke run               — the fake-write
#      attack must keep firing (and, after a quiet interval, resolving)
#      the Use Case 1 rate alert with forensics attached
#   9. flow-analysis smoke run                        — `analyze lint
#      --flow` must keep flagging every flow rule on the leaky sample
#      (with a rendered source→sink path) and stay silent on the
#      defended samples
#  10. benchmark self-check on `wide_fanout`          — the workload whose
#      blocks are committed on several threads runs twice; every
#      tick-denominated metric must be equal, i.e. results do not depend
#      on how the threads were scheduled
#
# Run from anywhere; operates on the repository containing this script.

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

echo "==> pipeline_equivalence test inventory"
# The equivalence proptests are the proof the commit pipeline and the
# zero-copy fan-out preserve the reference semantics.
# A refactor that renames or drops one would silently skip the proof, so
# the gate pins the names.
equivalence_tests="$(cargo test --release --test pipeline_equivalence -- --list)"
for t in \
    pipeline_matches_reference_on_random_blocks \
    streams_match_reference_on_random_blocks \
    alert_log_is_deterministic_across_schedulers \
    fanout_modes_agree_on_random_live_streams; do
    if ! grep -q "${t}" <<<"$equivalence_tests"; then
        echo "FAIL: pipeline_equivalence no longer lists proptest '${t}'" >&2
        exit 1
    fi
done
echo "equivalence inventory: pipeline + alert + fan-out proptests present"

echo "==> zero_copy_fanout test inventory"
# The counting-allocator tests are the proof block fan-out stays O(1)
# deep copies per peer; pin their names so they can't be silently lost.
fanout_tests="$(cargo test --release --test zero_copy_fanout -- --list)"
for t in \
    block_clone_is_allocation_free \
    shared_fanout_cuts_deliver_path_allocations \
    fanout_modes_converge_identically; do
    if ! grep -q "${t}" <<<"$fanout_tests"; then
        echo "FAIL: zero_copy_fanout no longer lists test '${t}'" >&2
        exit 1
    fi
done
echo "zero-copy inventory: allocator + convergence tests present"

echo "==> workload_determinism test inventory"
# The determinism tests are the proof the workload harness is a usable
# measurement instrument (same seed+config ⇒ identical tick-denominated
# results); pin their names so a refactor can't silently drop the proof.
determinism_tests="$(cargo test --release --test workload_determinism -- --list)"
for t in \
    same_seed_and_config_reproduce_the_load_point_exactly \
    different_seeds_produce_different_schedules; do
    if ! grep -q "${t}" <<<"$determinism_tests"; then
        echo "FAIL: workload_determinism no longer lists test '${t}'" >&2
        exit 1
    fi
done
echo "workload inventory: determinism tests present"

echo "==> commit_throughput --smoke"
cargo run --release -p fabric-bench --bin commit_throughput -- --smoke

echo "==> e2e_throughput --smoke"
e2e_out="$(cargo run --release -p fabric-bench --bin e2e_throughput -- --smoke)"
echo "$e2e_out"
# Both fan-out modes must keep measuring end to end, and the recorded
# baseline must keep its headline fields.
for row in "fanout=deep-clone" "fanout=shared" "shared vs deep-clone:" "phase=commit"; do
    if ! grep -q "${row}" <<<"$e2e_out"; then
        echo "FAIL: e2e_throughput smoke output is missing '${row}'" >&2
        exit 1
    fi
done
for field in '"bench": "e2e_throughput"' '"speedup_4peers_1000tx_shared_vs_deep_clone"'; do
    if ! grep -qF "${field}" BENCH_e2e.json; then
        echo "FAIL: BENCH_e2e.json is missing ${field}" >&2
        exit 1
    fi
done
echo "e2e_throughput smoke: both fan-out modes + recorded baseline present"

echo "==> workload_throughput --smoke"
workload_out="$(cargo run --release -p fabric-bench --bin workload_throughput -- --smoke)"
echo "$workload_out"
# The sweep must keep fitting both curves (uniform + zipf) and locating
# a knee, and the recorded JSON must keep its header and at least two
# distinct offered-rate rows per curve.
for row in "skew0.00/pdc-heavy" "skew0.99/pdc-heavy" "knee at rate" "sub-knee mvcc abort rate"; do
    if ! grep -q "${row}" <<<"$workload_out"; then
        echo "FAIL: workload_throughput smoke output is missing '${row}'" >&2
        exit 1
    fi
done
for field in '"bench": "workload_throughput"' '"offered_rate": 1.0' '"offered_rate": 8.0' '"knee"'; do
    if ! grep -qF "${field}" BENCH_workload.json; then
        echo "FAIL: BENCH_workload.json is missing ${field}" >&2
        exit 1
    fi
done
echo "workload_throughput smoke: both curves, knee, and recorded sweep present"

echo "==> telemetry example --smoke"
# The Prometheus dump must keep exporting the metric families dashboards
# and the bench's stage breakdown scrape by name.
telemetry_out="$(cargo run --release -p fabric-pdc --example telemetry -- --smoke)"
for metric in \
    fabric_commit_stage_seconds \
    fabric_validation_results_total \
    fabric_blocks_committed_total \
    fabric_txs_processed_total \
    fabric_committed_block_height \
    fabric_endorsements_total \
    fabric_audit_events_total; do
    if ! grep -q "^${metric}" <<<"$telemetry_out"; then
        echo "FAIL: telemetry smoke output is missing metric '${metric}'" >&2
        exit 1
    fi
done
echo "telemetry smoke: all required metric families exported"

echo "==> trace_tx example --smoke"
# The traced lifecycle must keep deriving every phase latency from one
# tx id, and the Chrome-trace export must keep its JSON envelope.
trace_out="$(cargo run --release -p fabric-pdc --example trace_tx -- --smoke)"
for phase in endorse order replicate validate commit; do
    if ! grep -q "phase=${phase}" <<<"$trace_out"; then
        echo "FAIL: trace_tx smoke output is missing 'phase=${phase}'" >&2
        exit 1
    fi
done
if ! grep -q '"traceEvents"' <<<"$trace_out"; then
    echo "FAIL: trace_tx smoke output is missing the Chrome-trace header" >&2
    exit 1
fi
echo "trace_tx smoke: five-phase timeline + Chrome-trace export present"

echo "==> monitor_status example --smoke"
# The online-alerting path must keep working end to end: the fake-write
# attack fires the Use Case 1 rate alert (with the status table around
# it), and a quiet interval resolves it — in the table, the transition
# log, and the JSON-lines export.
monitor_out="$(cargo run --release -p fabric-pdc --example monitor_status -- --smoke)"
for line in \
    "FIRING uc1_nonmember_endorsement_rate" \
    "RESOLVED uc1_nonmember_endorsement_rate" \
    "flight dump attached" \
    "\"phase\":\"resolved\""; do
    if ! grep -q "${line}" <<<"$monitor_out"; then
        echo "FAIL: monitor_status smoke output is missing '${line}'" >&2
        exit 1
    fi
done
for header in "NODE" "DETECTOR" "ALERTS"; do
    if ! grep -q "^${header}" <<<"$monitor_out"; then
        echo "FAIL: monitor_status smoke output is missing the '${header}' table" >&2
        exit 1
    fi
done
echo "monitor_status smoke: firing, forensics, and resolution all present"

echo "==> analyze lint --flow smoke"
# Taint analysis of the built-in sample registry: the deliberately leaky
# escrow sample carries Error-severity findings, so the lint exit code is
# non-zero by design — the gate checks the report contents instead.
flow_dir="$(mktemp -d)"
flow_out="$(cargo run --release -p fabric-analyzer --bin analyze -- lint "$flow_dir" --flow || true)"
rmdir "$flow_dir"
for rule in PDC012 PDC013 PDC014 PDC015 PDC016 PDC017; do
    if ! grep -q "${rule}" <<<"$flow_out"; then
        echo "FAIL: flow smoke output is missing rule '${rule}'" >&2
        exit 1
    fi
done
if ! grep -q "leaky_escrow" <<<"$flow_out"; then
    echo "FAIL: flow smoke output does not name the leaky sample" >&2
    exit 1
fi
if ! grep -q "flow: GetPrivateData(escrowCollection" <<<"$flow_out"; then
    echo "FAIL: flow smoke output is missing a source→sink flow path" >&2
    exit 1
fi
for clean in guarded sacc secured_trade; do
    if grep -qw "${clean}" <<<"$flow_out"; then
        echo "FAIL: flow smoke flagged the defended sample '${clean}'" >&2
        exit 1
    fi
done
echo "flow smoke: all six flow rules fire on the leaky sample only"

echo "==> fabric-benchmark check --smoke --workload wide_fanout"
# Two full sets of the one workload that forks its block delivery; `check`
# exits non-zero unless every tick-denominated metric is equal.
cargo run --release -q -p fabric-benchmark -- check --smoke --workload wide_fanout

echo "CI gate passed."
