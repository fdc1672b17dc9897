#!/bin/sh
# Benchmark regression gate: build the hot-path benches in Release, run them
# with JSON output, and diff against the checked-in baselines in
# BENCH_batch.json (tools/bench_diff.py enforces the per-benchmark floors).
#
# Usage: tools/bench.sh [--update-out DIR]
#   --update-out DIR  also copy the raw JSON results into DIR (for refreshing
#                     the baseline file by hand after an intentional change).
# Set IPA_BENCH_JOBS to override build parallelism.
set -eu

cd "$(dirname "$0")/.."
jobs="${IPA_BENCH_JOBS:-2}"
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

update_out=""
if [ "${1:-}" = "--update-out" ]; then
  update_out="$2"
  mkdir -p "$update_out"
fi

echo "== build benches (Release) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$jobs" \
  --target bench_engine bench_merge bench_hist bench_staging bench_rpc bench_script \
  bench_server

echo "== run benches =="
for bench in bench_engine bench_merge bench_hist bench_staging bench_rpc; do
  "build-release/bench/$bench" \
    --benchmark_out="$out_dir/$bench.json" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2
done
# bench_script runs one process per benchmark: in one shared process,
# BM_ScriptArithmetic read up to a third lower after the benchmarks before
# it than alone. bench_diff.py merges the files by benchmark name.
for name in $("build-release/bench/bench_script" --benchmark_list_tests); do
  "build-release/bench/bench_script" \
    --benchmark_filter="^$name\$" \
    --benchmark_out="$out_dir/bench_script.$name.json" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2
done
# Custom harness (not google-benchmark): enforces its own >=10x-capacity and
# flat-p99 gates, and emits compatible JSON for the absolute floors below.
"build-release/bench/bench_server" --out "$out_dir/bench_server.json"

if [ -n "$update_out" ]; then
  cp "$out_dir"/bench_*.json "$update_out/"
  echo "raw results copied to $update_out"
fi

echo "== diff against BENCH_batch.json =="
python3 tools/bench_diff.py BENCH_batch.json \
  "$out_dir/bench_engine.json" "$out_dir/bench_merge.json" "$out_dir/bench_hist.json" \
  "$out_dir/bench_staging.json" "$out_dir/bench_rpc.json" "$out_dir"/bench_script.*.json \
  "$out_dir/bench_server.json"
