#!/usr/bin/env bash
# Tier-1 verification plus lint/doc gates. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> frozen benchmark crate (build + self-tests against these crates)"
# benchmark/ is a package of its own that a performance PR may not edit;
# it links a narrow API surface of the workspace (benchmark/README.md).
# Building both of its binaries and running its self-tests here makes a
# PR that breaks that surface fail now, not when the benchmark is run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml -q

echo "==> benchmark contract command (BENCHMARK.json), end-to-end and traced"
# The pipeline judges a PR by this command. One short end-to-end run per
# workload, each of which checks its own outputs (site_sync_up's reads
# the checkpoint the orchestrator stores), plus the traced form — the
# `layers` binary, whose probes clone the local checkpoint and its pool
# and snapshot the replica — on site_sync_up, on the 12-gateway
# fleet_partition, and on attach_churn, whose session churn rebuilds the
# fluid tick's demand resolution most often and whose table the
# `fluid_tick_us` / `set_desired_us` probes then run against, so a PR
# that breaks any of them fails now. The last stdout line is the result
# object; it must say the outputs were correct.
for RUN in "attach_churn 0" "site_sync_up 0" "config_push_down 0" "fleet_partition 0" \
    "site_sync_up 1" "fleet_partition 1" "attach_churn 1"; do
    read -r WORKLOAD TRACE <<<"$RUN"
    CONTRACT_OUT="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --bin magma-benchmark -- --workload "$WORKLOAD" --seed 7 --seconds 2 --trace "$TRACE" \
        2>/dev/null | tail -n 1)"
    if [[ "$CONTRACT_OUT" != *'"correct":true'* ]]; then
        echo "contract command ($WORKLOAD, --trace $TRACE) did not report \"correct\": true:" >&2
        echo "$CONTRACT_OUT" >&2
        exit 1
    fi
done

echo "==> cargo clippy (deny warnings; the determinism gate, see clippy.toml)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> magma-lint (telemetry inventory / actor hygiene / registry reads)"
# Capture the report so its summary can be replayed at the very end.
# The message-flow graph is not the lint's: `cargo test` above runs its
# typed checks and diffs docs/MESSAGE_FLOW.md (tests/flow_graph.rs).
# After an intentional graph change, re-baseline with
# `rm docs/MESSAGE_FLOW.md && cargo test -p magma --test flow_graph`
# and commit the regenerated file.
LINT_OUT="$(mktemp)"
if ! cargo run --release -p magma-lint >"$LINT_OUT" 2>&1; then
    cat "$LINT_OUT"
    rm -f "$LINT_OUT"
    echo "magma-lint found violations (see docs/DETERMINISM.md)" >&2
    exit 1
fi
cat "$LINT_OUT"

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> observability example + golden export diff"
# The example asserts same-seed byte-identity internally; the golden file
# additionally pins the export across commits. On first run (no golden
# committed yet) the export is installed as the golden.
GOLDEN="scripts/golden/observability.json"
EXPORT="$(mktemp)"
trap 'rm -f "$EXPORT" "$LINT_OUT"' EXIT
OBS_EXPORT_PATH="$EXPORT" cargo run --release --example observability >/dev/null
if [[ -f "$GOLDEN" ]]; then
    diff -u "$GOLDEN" "$EXPORT" || {
        echo "observability export drifted from $GOLDEN" >&2
        exit 1
    }
else
    mkdir -p "$(dirname "$GOLDEN")"
    cp "$EXPORT" "$GOLDEN"
    echo "installed new golden export at $GOLDEN"
fi

echo "==> bench-smoke (BENCH schema + virtual-column golden diff)"
# Runs the smallest magma-bench scenario and partition_recovery,
# validates each report's schema (no host field in the virtual section,
# >=90% vCPU attribution), and byte-diffs each virtual section against
# scripts/golden/bench_smoke_virtual.json and
# scripts/golden/bench_partition_recovery_virtual.json (installed on
# first run).
# Host time is not magma-bench's job; `benchmark/ compare` tracks it
# across commits. See docs/PROFILING.md.
BENCH_OUT="$(mktemp -d)"
cargo run --release -p magma-bench -- --smoke --out "$BENCH_OUT"

echo "==> attach-storm Perfetto trace golden diff"
# Every magma-bench run exports a TRACE_<scenario>.json Perfetto file
# (magma-trace span trees, virtual-time only — see docs/OBSERVABILITY.md
# § Causal tracing). The export must be byte-deterministic for the fixed
# bench seed, so the attach-storm trace is pinned as a golden, installed
# on first run like the others. After an intentional tracing change,
# delete the golden and re-run.
TRACE_GOLDEN="scripts/golden/trace_attach_storm.json"
cargo run --release -p magma-bench -- --scenario attach_storm --out "$BENCH_OUT"
if [[ -f "$TRACE_GOLDEN" ]]; then
    diff -u "$TRACE_GOLDEN" "$BENCH_OUT/TRACE_attach_storm.json" || {
        echo "attach-storm trace export drifted from $TRACE_GOLDEN" >&2
        exit 1
    }
    echo "attach-storm trace matches golden"
else
    mkdir -p "$(dirname "$TRACE_GOLDEN")"
    cp "$BENCH_OUT/TRACE_attach_storm.json" "$TRACE_GOLDEN"
    echo "installed new trace golden at $TRACE_GOLDEN"
fi
rm -rf "$BENCH_OUT"

echo "==> paper figures (every figure's and ablation's shape assertions)"
# Regenerates the paper's evaluation and the DESIGN.md ablations at their
# committed parameters; a shape that no longer holds panics, failing here.
cargo run --release --example paper_figures >/dev/null

# Replay the lint summary last so the violation counts are the final
# thing on screen.
echo "==> lint summary"
grep -A100 "^magma-lint:" "$LINT_OUT" || true

echo "All checks passed."
