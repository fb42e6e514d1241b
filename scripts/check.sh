#!/usr/bin/env bash
# Tier-1 gate, as one entry point: build, lint, test, benchmark
# smoke, traced smoke run. Everything runs offline — no dependency in
# the default build resolves from a registry (see docs/LINTS.md,
# "Hermetic build").
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace: the root manifest is itself a package, so a bare
# `cargo build` would skip the other members' binaries (repro,
# qcat-lint).
cargo build --release --workspace

echo "==> qcat-lint (L1-L10 + audit self-check)"
cargo run --release -p qcat-lint -- --workspace

echo "==> cargo test -q (root package: integration + lint gate)"
cargo test -q

echo "==> cargo test -q --workspace (all crates)"
cargo test -q --workspace

echo "==> servebench self-tests (output checks at a tiny scale)"
# servebench is the served-request benchmark BENCHMARK.json runs. It
# is a package of its own, built against this checkout's crates.
cargo test -q --release --manifest-path servebench/Cargo.toml

echo "==> servebench smoke (every workload, 2 s, output-checked)"
# Each run checks served answers against a from-scratch recompute
# (and, on ingest, cached answers against a cleared-cache serve) and
# exits non-zero on any mismatch; set -e turns that into a failure.
artifacts=target/qcat-artifacts
mkdir -p "$artifacts"
for w in browse drilldown ingest; do
    cargo run --release --quiet --manifest-path servebench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 2 --trace 0 > "$artifacts/servebench-$w.txt"
done

echo "==> traced smoke repro (QCAT_TRACE=json) + trace audit (T1-T5)"
trace=$artifacts/qcat-trace.jsonl
QCAT_TRACE=json QCAT_TRACE_FILE="$trace" \
    ./target/release/repro --scale smoke fig13 > /dev/null
cargo run --release -p qcat-lint -- --audit-trace "$trace"

echo "==> chaos smoke (QCAT_FAULT drill on the serving path + trace audit)"
# A fixed-seed fault plan must leave the quickstart with structured
# or degraded outcomes only — and the trace it emits must still pass
# the auditor, including T4 (governance events inside serve.query;
# the quickstart's speculation pass runs under the same storm, so
# speculative fills are audited too). exec.residual faults hit the
# containment post-filter specifically.
chaos_trace=$artifacts/qcat-chaos-trace.jsonl
chaos_out=target/qcat-chaos-out.txt
cargo build --release --example serve_quickstart --quiet
QCAT_FAULT='pool.task:error:p=0.6:seed=3;serve.fill:error:p=0.3:seed=5;exec.residual:error:p=0.5:seed=7' \
    QCAT_TRACE=json QCAT_TRACE_FILE="$chaos_trace" \
    ./target/release/examples/serve_quickstart > "$chaos_out"
grep -Eq 'degraded|structured error' "$chaos_out"
cargo run --release -p qcat-lint -- --audit-trace "$chaos_trace"

echo "==> flight-recorder smoke (QCAT_SLOW_MS=0 forces a dump per serve) + audit"
# Every serve trips the zero slow threshold, so the quickstart must
# leave a non-empty concatenated dump file — and both the full trace
# and the dumps themselves must pass the T1-T5 auditor (a dump is a
# self-contained causal tree).
slow_trace=$artifacts/qcat-slow-trace.jsonl
flight=$artifacts/qcat-flight-dumps.jsonl
QCAT_TRACE=json QCAT_TRACE_FILE="$slow_trace" \
    QCAT_SLOW_MS=0 QCAT_FLIGHT_FILE="$flight" \
    ./target/release/examples/serve_quickstart > /dev/null
test -s "$flight"
cargo run --release -p qcat-lint -- --audit-trace "$slow_trace" --audit-trace "$flight"

echo "==> ingest chaos smoke (concurrent append/read storm at pinned widths)"
# The tier-1 suite already sweeps reader widths {1, 2, 8}; this
# re-runs the chaos harness pinned to the serial and widest widths so
# a width-specific interleaving failure is attributable to its width.
# QCAT_FLIGHT_FILE points into the artifact bundle: a failing run
# leaves its flight-recorder dumps where CI uploads them.
for w in 1 8; do
    QCAT_THREADS=$w QCAT_FLIGHT_FILE="$artifacts/qcat-ingest-flight-w$w.jsonl" \
        cargo test -q --release --test ingest_stress > /dev/null
done

echo "OK: build + lint + tests + servebench self-tests + servebench smoke + traced smoke + chaos smoke + flight smoke + ingest chaos smoke all green"
