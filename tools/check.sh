#!/bin/sh
# Repo verification tiers:
#   0  source-level lint (tools/ipa_lint.py + its self-test)
#   0b whole-program lock-graph analysis (tools/ipa_analyze.py + its
#      self-test): rank inversions, lock cycles, unranked mutexes and
#      blocking calls under a held lock, from the source alone
#   1  warnings-as-errors build + full test suite
#   1m deterministic schedule exploration: the tests/model suite drives
#      ipa::Mutex/CondVar through the cooperative scheduler (sched_test)
#      and must find each seeded race and replay it from its seed
#   1d /debug endpoint smoke: boot build/tools/ipa_site, curl /metrics,
#      /status and every /debug/* endpoint (tools/debug_smoke.py)
#   2  sanitizer pass over the fault-sensitive suites (chaos, net, rpc,
#      obs, common), the PawScript interpreter (script) and the .ipd
#      readers and their fuzz sweeps (data, fuzz) — address and/or
#      undefined
#   2u UBSan over the value-heavy suites (data, serialize, xml, script),
#      the wire-facing ones (net, rpc, http, loadgen) and the flight
#      recorder (obs), where framing arithmetic, enum decoding and raw
#      buffer copies would hide undefined behaviour
#   T  thread sanitizer over the reactor-backed net/rpc/http suites, the
#      staging pipeline, the common concurrency primitives, the engine
#      and stress suites (run slices on the site pool), the
#      services/integration suites (heartbeat and dead-engine jobs on the
#      site pool, off-lock merges, kill/restart/degrade) and the obs suite
#      (span ring and slow list, metrics scraped while writers observe)
#   C  Clang thread-safety-analysis build, when clang++ is installed —
#      proves the IPA_GUARDED_BY/IPA_REQUIRES annotations
#   3  Release -Werror bench build + smoke run (full regression gating
#      against BENCH_batch.json lives in tools/bench.sh)
#   L  load harness: SLO-gated multi-user smoke + chaos soak smoke
#      (bench_load against bench/slo.json; see docs/load-testing.md)
#
# Usage: tools/check.sh [address|thread|undefined|all]
#   The optional argument picks the sanitizer for tier 2 (default:
#   address); `all` runs both address and undefined. Set IPA_CHECK_JOBS
#   to override parallelism.
set -eu

cd "$(dirname "$0")/.."
jobs="${IPA_CHECK_JOBS:-2}"
san="${1:-address}"
case "$san" in
  all) sanitizers="address undefined" ;;
  address|thread|undefined) sanitizers="$san" ;;
  *) echo "usage: tools/check.sh [address|thread|undefined|all]" >&2; exit 2 ;;
esac

echo "== tier 0: ipa-lint (source-level concurrency contracts) =="
python3 tools/ipa_lint.py
python3 tools/ipa_lint.py --self-test

echo "== tier 0b: ipa-analyze (whole-program lock graph) =="
# Seeded fixtures must each trip their named finding, then the real tree
# must come back clean: zero rank inversions, cycles, unranked mutexes or
# blocking calls under a held lock.
python3 tools/ipa_analyze.py --self-test
python3 tools/ipa_analyze.py

echo "== tier 1: -Werror build + full test suite =="
cmake -B build -S . -DIPA_WERROR=ON >/dev/null
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

echo "== tier 1m: deterministic schedule exploration (model checker) =="
# Redundant with tier 1's full ctest, but called out so a model-suite
# failure is unmistakable: these tests must FIND every seeded race and
# replay it from the printed seed.
(cd build && ctest --output-on-failure -L model)

echo "== tier 1d: /debug endpoint smoke against a live site =="
# Boots build/tools/ipa_site on ephemeral ports and curls /metrics, /status
# and every /debug/* endpoint (see tools/debug_smoke.py).
python3 tools/debug_smoke.py --site build/tools/ipa_site

for s in $sanitizers; do
  echo "== tier 2: ${s} sanitizer over chaos/net/rpc/obs/common/script/data/fuzz =="
  cmake -B "build-${s}" -S . -DIPA_SANITIZE="${s}" >/dev/null
  cmake --build "build-${s}" -j "$jobs" \
    --target ipa_test_chaos ipa_test_net ipa_test_rpc ipa_test_obs \
    ipa_test_common ipa_test_script ipa_test_data ipa_test_fuzz
  (cd "build-${s}" && \
    ctest --output-on-failure -j "$jobs" -L 'chaos|net|rpc|obs|common|script|data|fuzz')
done

case " $sanitizers " in *" undefined "*)
  echo "== tier 2u: UBSan over data/serialize/xml/script + net/rpc/http/loadgen + obs =="
  # The value-heavy suites (integer narrowing, enum decoding, XML parsing,
  # the interpreter's resolved slots) plus the wire-facing ones: frame-length
  # arithmetic, epoll event masks and load-generator statistics are where
  # undefined behaviour would hide; obs covers the flight recorder's copies.
  cmake --build build-undefined -j "$jobs" \
    --target ipa_test_data ipa_test_serialize ipa_test_xml ipa_test_script \
    ipa_test_net ipa_test_rpc ipa_test_http ipa_test_loadgen ipa_test_obs
  (cd build-undefined && \
    ctest --output-on-failure -j "$jobs" \
      -L 'data|serialize|xml|script|net|rpc|http|loadgen|obs')
  ;;
esac

echo "== tier thread: TSan over reactor/servers + staging + primitives + services + obs =="
# The epoll reactor hands streams between the loop thread, pool workers and
# caller threads; the mux RpcClient shares one connection across callers;
# the parallel split, session fan-out, off-lock merges, the periodic
# heartbeat/dead-engine jobs and the engines' run slices all cross the
# shared site pool; every thread records spans into the one span ring
# while /status and /debug/slow read it; and
# sync underpins every pool. TSan is the tier that would catch a
# race in any of those hand-offs, including FailureTest's kill/restart path.
cmake -B build-thread -S . -DIPA_SANITIZE=thread >/dev/null
cmake --build build-thread -j "$jobs" --target ipa_test_staging ipa_test_common \
  ipa_test_net ipa_test_rpc ipa_test_http ipa_test_services ipa_test_integration \
  ipa_test_engine ipa_test_stress ipa_test_obs
(cd build-thread && \
  ctest --output-on-failure -j "$jobs" \
    -L 'staging|common|net|rpc|http|services|integration|engine|stress|obs')

if command -v clang++ >/dev/null 2>&1; then
  echo "== tier clang: thread-safety-analysis build =="
  # -Wthread-safety only exists under Clang; IPA_WERROR turns it on and
  # promotes it to an error, proving the sync.hpp annotations.
  cmake -B build-clang -S . -DIPA_WERROR=ON \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-clang -j "$jobs"
else
  echo "== tier clang: skipped (clang++ not installed) =="
fi

echo "== tier 3: Release -Werror bench build + smoke run =="
# -Werror here too: some warnings (GCC's -Wrestrict on inlined string
# concatenation) only show at -O3.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DIPA_WERROR=ON >/dev/null
cmake --build build-release -j "$jobs" \
  --target bench_engine bench_merge bench_hist bench_server
for bench in bench_engine bench_merge bench_hist; do
  # One rep per benchmark: catches crashes/asserts without the multi-minute
  # timed run (the older benchmark lib wants a plain double for min_time).
  "build-release/bench/$bench" --benchmark_min_time=0.01 >/dev/null
done
# Server-core capacity gate: the binary enforces its own >=10x-connections
# and flat-p99 invariants and exits non-zero on violation (absolute floors
# live in BENCH_batch.json, enforced by tools/bench.sh).
"build-release/bench/bench_server" --conns 2048 --requests 500 >/dev/null

echo "== tier load: SLO-gated multi-user load smoke =="
# Deterministic seeds, small user counts: this is the always-on tier. The
# full 256-user interactive gate is a manual/nightly run:
#   build-release/bench/bench_load --users 256 --profile interactive
cmake --build build-release -j "$jobs" --target bench_load
"build-release/bench/bench_load" --users 24 --iterations 1 --drivers 4 \
  --records 600 --seed 2006 --profile smoke \
  --report build-release/load_report_smoke.json
"build-release/bench/bench_load" --users 8 --iterations 1 --drivers 4 \
  --records 400 --seed 2006 --soak --profile soak_smoke \
  --report build-release/load_report_soak.json
# One-line-per-violation summary of both runs (diffable CI evidence).
python3 tools/bench_diff.py --slo build-release/load_report_smoke.json \
  build-release/load_report_soak.json

echo "== all checks passed =="
