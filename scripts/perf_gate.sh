#!/usr/bin/env bash
# Perf-regression gate. Every check here runs through the one gate in
# nulpa-obs (crates/obs/src/gate.rs): rows keyed by name, rules fixed in
# the producing code, a `gate-v1` baseline, and one printed verdict table
# (key, metric, baseline, current, limit, verdict).
#
# 1. Simulated cycles: profiles the built-in graph trio across the
#    profiling backend matrix, writes the current rows to
#    results/prof_current.json, and fails if any cycle total or component
#    grew more than 5% over the committed results/prof_baseline.json, or
#    conservation broke. Refresh the baseline with:
#      cargo run --release --bin nulpa -- profile --write-baseline results/prof_baseline.json
. "$(dirname "$0")/lib.sh"

step "perf gate: profiling backend matrix vs committed baseline"
cargo run --release --bin nulpa -- profile \
  --write-baseline results/prof_current.json --check results/prof_baseline.json "$@" \
  > /dev/null

# 2. Native thread scaling: the block-synchronous sweep must reach a
#    1.15x speedup at 2 threads on a host with > 1 hardware thread, and
#    2x at 4 threads with > 3; a rule whose host is too small has the
#    verdict SKIP (rows are stamped `degraded: true` instead of
#    publishing a misleading ~1.0x). The gate runs at the default scale:
#    at --quick scale barrier waits dominate the sweep. It writes its own
#    output path, so it never clobbers the committed
#    results/parallel_scaling.json.
step "perf gate: native thread-scaling floor (parallel_scaling --check-scaling)"
cargo run --release -p nulpa-bench --bin parallel_scaling -- \
  --check-scaling --json results/parallel_scaling_gate.json

# 3. Host-parallel execution: profiles the native sweep on the
#    built-in trio at a 1/2/4 thread ladder against the committed
#    results/hostprof_baseline.json. Iterations must match exactly and the
#    repair rate (0 by construction) may rise by max(10%, 0.01), both
#    deterministic; imbalance may rise by max(25%, 0.5) and gates only
#    above 50 ms mean busy time.
#    Refresh the baseline with:
#      cargo run --release --bin nulpa -- profile --host --write-baseline results/hostprof_baseline.json
step "perf gate: host-parallel iterations/repair-rate/imbalance vs committed baseline"
cargo run --release --bin nulpa -- profile --host --check results/hostprof_baseline.json \
  > /dev/null
