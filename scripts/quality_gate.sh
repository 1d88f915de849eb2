#!/usr/bin/env bash
# Quality-regression gate. Runs the telemetered backend matrix (seq,
# nu-lpa, nu-lpa-sim) over the built-in graph trio via `nulpa stats`,
# appends the run records to the results/history.jsonl ledger, and checks
# one `graph/backend` row per run against the committed `gate-v1`
# results/telemetry_baseline.json with the shared gate
# (crates/obs/src/gate.rs), printing its verdict table to stderr. A row
# fails when
#   - modularity drops more than 1% below baseline (deterministic — the
#     hard gate), or
#   - wall_ms / peak_heap_bytes rise more than 10% above baseline; these
#     rules apply only when the current run is above 250 ms / 16 MiB, or
#   - a baseline row or metric is missing from the run.
# Refresh the baseline deliberately with:
#   cargo run --release --bin nulpa -- stats --write-baseline results/telemetry_baseline.json
. "$(dirname "$0")/lib.sh"

BASELINE="${NULPA_QUALITY_BASELINE:-results/telemetry_baseline.json}"
HISTORY="${NULPA_QUALITY_HISTORY:-results/history.jsonl}"

if [ ! -f "$BASELINE" ]; then
  echo "quality gate: no baseline at $BASELINE; writing one (commit it!)"
  cargo run --release --bin nulpa -- stats --write-baseline "$BASELINE" >/dev/null
fi

cargo run --release --bin nulpa -- stats \
  --history "$HISTORY" \
  --check "$BASELINE" \
  "$@" >/dev/null

echo "quality gate OK (ledger: $HISTORY)"
