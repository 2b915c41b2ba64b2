#!/usr/bin/env bash
# One-command replication of every committed benchmark number.
#
# Rebuilds, from source, the snapshots behind BENCH_7 (shared-memory scaling,
# er n=4000 deg=150; earlier snapshots live in PERF_HISTORY.jsonl), BENCH_4 (distributed CONGEST engine, er n=2000 deg=60),
# BENCH_5/6 (semi-streaming + leverage-aware sampling, same workload) and BENCH_9
# (out-of-core spill + solve, generator stream n=1000 / 600k edges) — the numbers
# quoted in README "Performance" — into replication/out/, then diffs each against
# the committed snapshot with the same bench_compare budget CI uses.
#
#   replication/run.sh             rebuild + compare (read-only; exits non-zero on
#                                  a >25% single-thread regression)
#   replication/run.sh --refresh   additionally overwrite the committed BENCH_*.json
#                                  with the fresh captures and append them to
#                                  PERF_HISTORY.jsonl under the current HEAD commit
#
# Notes on reading the output: all m_out / work / peak_resident_edges columns are
# deterministic per seed and must match the committed snapshots exactly on any
# machine; wall-clock columns carry host spread, which is what the 25% budget
# absorbs. Multi-thread rows only show real speedups on a multi-core host — on a
# 1-core container every speedup is ~1.0x by physics (see README "Performance
# methodology").

set -euo pipefail
cd "$(dirname "$0")/.."

REFRESH=0
[[ "${1:-}" == "--refresh" ]] && REFRESH=1

OUT=replication/out
mkdir -p "$OUT"

run() { echo "+ $*" >&2; "$@"; }

run cargo build --release -p sgs-bench

# --- Shared-memory scaling (BENCH_7; history in PERF_HISTORY.jsonl) ----------------
run cargo run --release -p sgs-bench --bin exp_scaling -- \
    --n 4000 --deg 150 --threads 1,2,4 \
    --json-out "$OUT/exp_scaling.json" --bench-json "$OUT/BENCH_7.json"

# --- Distributed CONGEST engine (BENCH_4) -------------------------------------------
run cargo run --release -p sgs-bench --bin exp_scaling -- \
    --n 2000 --deg 60 --threads 1,2,4 --distributed \
    --json-out "$OUT/exp_scaling_dist.json" --bench-json "$OUT/BENCH_4.json"

# --- Semi-streaming + leverage-aware sampling (BENCH_5 / BENCH_6) -------------------
run cargo run --release -p sgs-bench --bin exp_stream -- \
    --n 2000 --deg 60 --batches 8 --budget-edges 30000 --threads 1,2,4 \
    --json-out "$OUT/exp_stream.json" --bench-json "$OUT/BENCH_stream.json"

# --- Out-of-core streaming + solve (BENCH_9) ----------------------------------------
# The binary asserts the spill contract itself (bitwise-identical output, spill peak
# under the RSS gate the in-memory run busts, solve from the spilled stream); this
# step therefore also replays the deterministic ledger, not just the wall-clock.
run cargo run --release -p sgs-bench --bin exp_outofcore -- \
    --n 1000 --total-edges 600000 --budget-edges 100000 --threads 1,4 \
    --json-out "$OUT/exp_outofcore.json" --bench-json "$OUT/BENCH_9.json"

# --- Compare against the committed snapshots (same budgets as CI) -------------------
status=0
gate() { run cargo run --release -p sgs-bench --bin bench_compare -- "$@" || status=1; }

gate BENCH_7.json "$OUT/BENCH_7.json" --max-regress 0.25 --metrics spanner_ms,sparsify_ms
gate BENCH_4.json "$OUT/BENCH_4.json" --max-regress 0.25 --metrics dist_sample_ms,dist_spanner_ms
gate BENCH_5.json "$OUT/BENCH_stream.json" --max-regress 0.25 --metrics stream_sparsify_ms,peak_resident_edges
gate BENCH_6.json "$OUT/BENCH_stream.json" --max-regress 0.25 --metrics m_out_er,er_pass_ms
gate BENCH_9.json "$OUT/BENCH_9.json" --max-regress 0.25 --metrics stream_spill_ms,solve_ms

if [[ "$REFRESH" == 1 ]]; then
    sha=$(git rev-parse --short HEAD)
    cp "$OUT/BENCH_7.json" BENCH_7.json
    cp "$OUT/BENCH_4.json" BENCH_4.json
    cp "$OUT/BENCH_stream.json" BENCH_5.json
    cp "$OUT/BENCH_stream.json" BENCH_6.json
    cp "$OUT/BENCH_9.json" BENCH_9.json
    for f in BENCH_4.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_9.json; do
        run cargo run --release -p sgs-bench --bin perf_history -- \
            "$f" --commit "$sha" --source "replication/$f"
    done
    echo "refreshed committed snapshots + PERF_HISTORY.jsonl at $sha (review & commit)"
fi

exit $status
