#!/usr/bin/env bash
# CI gate. Tier 1 (must stay green): release build + root test suite.
# Then workspace tests, formatting, clippy with warnings denied, rustdoc
# with warnings denied, the static effect verifier + workspace linter,
# and the dynamic hazard checker over every shipped backend.
. "$(dirname "$0")/lib.sh"

step "tier 1: cargo build --release"
cargo build --release

step "tier 1: cargo test -q"
cargo test -q

step "workspace tests"
cargo test -q --workspace

# Built without the root package, simt and hashtab compile with the
# hazard-checker hooks left out — the configuration the perfbench
# benchmark builds — so their own tests cover the hooks-off code.
step "simt + hashtab tests (hazard hooks compiled out)"
cargo test -q -p nulpa-simt -p nulpa-hashtab

# The sharded wave scheduler and the native fast path both promise
# bit-identical results at any host thread count; run the suite at both
# extremes plus an in-between count to catch order leaks (2 exercises
# the block-synchronous sweep with exactly one worker beside the lead —
# the smallest configuration that can race).
step "workspace tests (NULPA_THREADS=1)"
NULPA_THREADS=1 cargo test -q --workspace

step "workspace tests (NULPA_THREADS=2)"
NULPA_THREADS=2 cargo test -q --workspace

step "workspace tests (NULPA_THREADS=4)"
NULPA_THREADS=4 cargo test -q --workspace

step "rustfmt"
cargo fmt --all --check

step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Static verification: the kernel effect solver (lane disjointness,
# staging discipline, barrier uniformity, probe budgets) plus the
# workspace invariant linter. This subsumes the old inline unsafe-code
# grep: the allowlist now lives in check/unsafe_allowlist.toml and stale
# entries fail the gate too.
step "nulpa check (static effect verifier + workspace linter)"
cargo run --release --bin nulpa -- check

# Gate self-test: the injected fault descriptors must fail the check, or
# the gate above is vacuous.
step "nulpa check --inject (injected faults must fail)"
if cargo run --release --bin nulpa -- check --inject > /dev/null 2>&1; then
  fail "nulpa check --inject unexpectedly passed; the gate is vacuous"
fi

step "sancheck (dynamic hazard checker)"
cargo run --release --bin nulpa -- sancheck

# Host-parallel observatory smoke: the profiled fast path must run the
# trio ladder and emit a parseable JSON report (the regression gate
# itself runs inside perf_gate.sh below).
step "hostprof smoke (nulpa profile --host --json)"
cargo run --release --bin nulpa -- profile --host --json > /dev/null

# The wall-clock benchmark's own contract: its unit tests, then a short
# traced kmer run, which checks t1 ≡ t2 labels and block schedules and
# that the lead's spans tile the profiled wall time (exit 0 = no failed
# check). `--locked` fails the gate if a change would rewrite
# perfbench/Cargo.lock.
step "perfbench tests"
cargo test --offline --locked --manifest-path perfbench/Cargo.toml

step "perfbench smoke (kmer, --trace 1)"
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload kmer --seed 1 --seconds 1 --trace 1 > /dev/null

# road-stream is the one workload that replays a chain of 4 batches, so
# its checks compare t2 with t1 and the timed apply/seed/LPA steps with
# `lpa_dynamic` over a whole stream.
step "perfbench smoke (road-stream, --trace 1)"
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload road-stream --seed 1 --seconds 1 --trace 1 > /dev/null

# web has the largest text edge list and the heavy-tailed rows; every
# round checks the CSR loaded through the line scanner and the builder
# against the binary reference.
step "perfbench smoke (web, --trace 1)"
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload web --seed 1 --seconds 1 --trace 1 > /dev/null

step "perf gate (cycle-attribution baseline)"
bash scripts/perf_gate.sh

step "quality gate (convergence-telemetry baseline)"
bash scripts/quality_gate.sh

echo "CI OK"
