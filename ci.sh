#!/usr/bin/env bash
# Continuous-integration driver. Five gating steps, one archiving step
# plus best-effort lint:
#
#   1. tier-1: plain build + full ctest suite (the seed contract),
#      which also runs the six examples (each exits non-zero when its
#      run goes wrong), policy_explorer's malformed-flag checks,
#      bench/mc_statespace (DPOR runs each trace exactly once and
#      brute force finds no trace it missed, over all three schedule
#      catalogs) and the compile-fail entries: the type misuses
#      (DMA tickets, spec tables, counters, address kinds), and
#      determinism_rejects_{wallclock,entropy,std_random},
#      ordered_rejects_unordered and layering_rejects_upward, which
#      hold the guard headers and the layer roots every build compiles
#      under (docs/STATIC_ANALYSIS.md), and the golden record: each
#      golden_<entry> runs one producer with the flags in
#      tests/golden.cmake, gates on its exit status and compares its
#      output with tests/golden/ (docs/BENCHMARKING.md):
#        - golden_verify_report: verify_policy --necessity --cost
#          --diff-policy Utah CMU proves every shipping policy sound
#          and the broken one unsound with a replaying counterexample,
#          every cache op the shipping lazy policies issue
#          load-bearing and no classic policy's call site fully
#          removable, prices every policy's reachable transitions and
#          bounds eager Utah against lazy CMU per Table 2 transition
#          class (the bounds docs/VERIFICATION.md quotes); a cost
#          census or product graph cut short of its fixed point fails;
#        - golden_verify_interleave: the DPOR schedule explorer
#          (src/mc) per shipping policy at a CI budget: the guarded
#          kernel orderings race- and violation-free, the
#          broken-ordering exemplars an oracle-confirmed race with a
#          replayable minimal schedule;
#        - golden_verify_weak: the same explorer under --memory-order
#          weak (per-CPU store buffers) plus a seeded schedule-fuzzing
#          pass: the guarded choreographies clean under relaxation,
#          the missing-fence exemplar an oracle-confirmed weak-order
#          window, no fuzzed trace that DPOR missed;
#        - golden_verify_coherence: the cross-cache catalog, the
#          sharing pairs benign on the MESI machine and the
#          non-coherent regression an oracle-confirmed race;
#        - golden_sweep: vic_bench runs every suite at its calibrated
#          size through the experiment engine, gated on zero oracle
#          violations and all 13 shape checks;
#   2. sanitizer: rebuild and rerun the suite under
#      AddressSanitizer + UndefinedBehaviorSanitizer (a UBSan finding
#      fails its test) with the checked standard library, examples
#      and golden entries included;
#   3. artifacts: the tier-1 golden entries' outputs are archived as
#      VERIFY_{report,interleave,weak,coherence}.json and
#      BENCH_full.json; no producer runs again;
#   4. bench determinism: the sweep rerun serially must produce an
#      artifact equivalent to the golden one (made with --jobs 2)
#      modulo wall-clock, the engine's determinism contract;
#   5. Release (-O3): vic_bench, verify_policy and the lockstep, model
#      and death tests rebuilt at Release, then one ctest run of those
#      tests and the five golden entries. The golden entries assert
#      that no result depends on the optimisation level (the
#      pipeline's inline hit paths and line runs included); the
#      lockstep tests (tlb_lockstep_test, cache_index_test,
#      range_lockstep_test, cache_model_test's naive cache,
#      page_table_model_test's std::map and physical_memory_test's
#      flat vector) check the fast paths whose countr_zero walks, word
#      loops, held handles and per-frame written bit (tested inline in
#      every fill, write-back and DMA beat) the optimiser treats
#      differently, and oracle_test, cache_test, lazy_pmap_test
#      and classic_pmap_test run because vic_assert stays compiled in
#      at -O3: the oracle's per-word checks inline into their callers,
#      a conflict copy run asserts its MESI and one-copy
#      preconditions, and the pmaps' frame tables and fixed
#      CacheControl plans panic on overflow, so their death tests must
#      hold at -O3, as must the pmaps' handle streams; then
#      perfbench/selftest.py builds and runs the repository benchmark
#      once and checks its output (host throughput is measured there,
#      not by vic_bench);
#   6. thread sanitizer: the threaded fan-outs (experiment engine
#      tests + a --jobs 4 sweep, fleet replicas and multi-CPU suites
#      included + the model checker's exploreMany + the CoherenceBus
#      head-to-head paths) rebuilt and rerun under TSan;
#   7. style lint: clang-format / clang-tidy, gating when installed
#      and skipped with a notice otherwise (they are configs-first:
#      the repo must stay clean under gcc -Werror regardless).
#
# Usage: ./ci.sh [jobs]

set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

step "tier-1: ctest"
(cd build && ctest --output-on-failure -j "$JOBS")

step "sanitizer build (address;undefined)"
cmake -B build-asan -S . \
    -DVIC_SANITIZE="address;undefined" -DVIC_WERROR=ON >/dev/null
cmake --build build-asan -j "$JOBS"

step "sanitizer ctest"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

step "artifacts (the tier-1 golden entries' outputs)"
for entry in report interleave weak coherence; do
    cp "build/tests/golden_verify_${entry}.json" "VERIFY_${entry}.json"
done
cp build/tests/golden_sweep.json BENCH_full.json
echo "artifacts archived: VERIFY_{report,interleave,weak,coherence}.json" \
     "BENCH_full.json"

step "bench determinism (--jobs 1 against the golden --jobs 2 sweep)"
./build/tools/vic_bench --jobs 1 --json build/bench_jobs1.json >/dev/null
./build/tools/vic_bench --diff tests/golden/full.json build/bench_jobs1.json

step "Release -O3 (golden entries, lockstep, model and death tests, perfbench selftest)"
release_tests=(tlb_lockstep_test cache_index_test range_lockstep_test
               cache_model_test page_table_model_test
               physical_memory_test oracle_test cache_test
               lazy_pmap_test classic_pmap_test)
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" \
    --target vic_bench verify_policy "${release_tests[@]}"
(cd build-release && ctest --output-on-failure --no-tests=error \
    -j "$JOBS" -R "^($(IFS='|'; echo "${release_tests[*]}")|golden_.*)\$")
python3 perfbench/selftest.py

step "thread sanitizer build (experiment engine + model checker + coherence)"
cmake -B build-tsan -S . -DVIC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
    --target experiment_engine_test vic_bench mc_test \
             weak_order_test multiprocessor_test

step "thread sanitizer: engine tests + sweep + explorer + coherence"
./build-tsan/tests/experiment_engine_test
# The sweep fans every suite across worker threads, the multi-CPU
# CoherenceBus suites included; multiprocessor_test drives the same
# MESI paths directly.
./build-tsan/tools/vic_bench --jobs 4 >/dev/null
./build-tsan/tests/mc_test >/dev/null
./build-tsan/tests/weak_order_test >/dev/null
./build-tsan/tests/multiprocessor_test >/dev/null
echo "TSan: clean"

step "style lint"
if command -v clang-format >/dev/null 2>&1; then
    mapfile -t sources < <(git ls-files '*.cc' '*.hh')
    clang-format --dry-run --Werror "${sources[@]}"
    echo "clang-format: clean"
else
    echo "clang-format not installed — skipping (config: .clang-format)"
fi
if command -v clang-tidy >/dev/null 2>&1 && \
   command -v run-clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Gating: any finding fails the build.
    run-clang-tidy -p build -quiet -warnings-as-errors='*' \
        "src/.*" "tools/.*"
    echo "clang-tidy: clean"
else
    echo "clang-tidy not installed — skipping (config: .clang-tidy)"
fi

step "OK"
