#!/usr/bin/env bash
# Perf-regression gate. Every check here runs through the one gate in
# nulpa-obs (crates/obs/src/gate.rs): rows keyed by name, rules fixed in
# the producing code, a `gate-v1` baseline, and one printed verdict table
# (key, metric, baseline, current, limit, verdict).
#
# 1. Simulated cycles: profiles the built-in graph trio across the
#    profiling backend matrix, writes results/prof_current.json, and fails
#    if any cycle total or component grew more than 5% over the committed
#    results/prof_baseline.json, or conservation broke. The same binary
#    checks the frontier floor: some -frontier backend must cut >= 25% of
#    its dense counterpart's simulated cycles. Refresh the baseline with:
#      cargo run --release -p nulpa-bench --bin profile_baseline
. "$(dirname "$0")/lib.sh"

step "perf gate: profiling backend matrix vs committed baseline"
cargo run --release -p nulpa-bench --bin profile_baseline -- --check "$@"

# 2. Native thread scaling: on a host with > 3 hardware threads the
#    degree-bucketed fast path must reach a 2x speedup at 4 threads; on
#    smaller hosts the rule's verdict is SKIP (rows are stamped
#    `degraded: true` instead of publishing a misleading ~1.0x). The gate
#    run uses --quick and its own output path, so it never clobbers the
#    committed full-scale results/parallel_scaling.json.
step "perf gate: native thread-scaling floor (parallel_scaling --check-scaling)"
cargo run --release -p nulpa-bench --bin parallel_scaling -- \
  --quick --check-scaling --json results/parallel_scaling_gate.json

# 3. Host-parallel execution: profiles the native fast path on the
#    built-in trio at a 1/2/4 thread ladder against the committed
#    results/hostprof_baseline.json. Iterations must match exactly and the
#    repair rate may rise by max(10%, 0.01), both deterministic; imbalance
#    may rise by max(25%, 0.5) and gates only above 50 ms mean busy time.
#    Refresh the baseline with:
#      cargo run --release --bin nulpa -- profile --host --write-baseline results/hostprof_baseline.json
step "perf gate: host-parallel iterations/repair-rate/imbalance vs committed baseline"
cargo run --release --bin nulpa -- profile --host --check results/hostprof_baseline.json \
  > /dev/null
