#!/usr/bin/env bash
# Continuous-integration driver. Three gating steps plus best-effort
# lint:
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
#      under (docs/STATIC_ANALYSIS.md), and the golden record:
#      golden_sweep and golden_verify_{report,interleave,weak,coherence}
#      rerun the full-scale sweep and steps 3-5b's four reports and
#      compare them with tests/golden/ (docs/BENCHMARKING.md);
#   2. sanitizer: rebuild and rerun the suite under
#      AddressSanitizer + UndefinedBehaviorSanitizer (a UBSan finding
#      fails its test) with the checked standard library, examples
#      included;
#   3. protocol lint: verify_policy must prove every shipping policy
#      sound and the broken one unsound with a replaying
#      counterexample; the --necessity pass additionally proves every
#      cache op the shipping lazy policies issue load-bearing and
#      that no classic policy retains a fully-removable call site,
#      archiving the machine-readable verdicts (VERIFY_report.json);
#      a --cost --diff-policy Utah CMU pass then prices every policy's
#      reachable transitions and bounds eager Utah against lazy CMU
#      per Table 2 transition class (the bounds docs/VERIFICATION.md
#      quotes), gating on its exit status: an unexpected soundness
#      verdict, or a cost census or product graph cut short of its
#      fixed point, fails the step;
#   4. interleaving exploration: verify_policy --interleave runs the
#      DPOR schedule explorer (src/mc) per shipping policy at a CI
#      budget — the guarded kernel orderings must be race- and
#      violation-free under every policy, the broken-ordering
#      exemplars must produce an oracle-confirmed race with a
#      replayable minimal schedule, and the machine-readable v4
#      report is archived (VERIFY_interleave.json);
#   5. weak-order exploration + fuzz smoke: the same explorer rerun
#      with --memory-order weak (per-CPU store buffers, drain events
#      in the schedule alphabet) at a CI budget, plus a seeded
#      schedule-fuzzing pass — the guarded choreographies must stay
#      clean under relaxation, the missing-fence exemplar must
#      produce an oracle-confirmed weak-order window, the fuzzer
#      must discover no trace DPOR missed, and the report is
#      archived (VERIFY_weak.json);
#   5b. multiprocessor coherence exploration: verify_policy
#      --interleave --coherence runs the cross-cache catalog — the
#      sharing pairs must be benign (positively reported) on the
#      MESI machine and the non-coherent regression must yield an
#      oracle-confirmed race — archiving VERIFY_coherence.json;
#   6. bench smoke: vic_bench sweeps every suite at smoke scale
#      through the experiment engine, gated on zero oracle
#      violations, and archives the JSON artifact (BENCH_smoke.json);
#      the same sweep rerun serially must produce an artifact
#      equivalent to the parallel one modulo wall-clock — the
#      engine's determinism contract;
#   6b. full-scale sweep: vic_bench without --smoke runs every suite
#      at its calibrated size, so every shape check gates (smoke
#      makes the calibrated ones advisory), and archives the artifact
#      (BENCH_full.json);
#   7. perf smoke: vic_bench rebuilt at Release (-O3), its smoke and
#      full-scale artifacts asserted equivalent to the default
#      build's (the pipeline's functional behaviour, inline hit paths
#      and line runs included, must not depend on the optimisation
#      level); the lockstep tests (tlb_lockstep_test,
#      cache_index_test, range_lockstep_test, cache_model_test's
#      naive cache and page_table_model_test's std::map) rebuilt and
#      run at Release too, since their fast paths' countr_zero walks,
#      word loops and held handles are what the optimiser treats
#      differently, and oracle_test, cache_test, lazy_pmap_test and
#      classic_pmap_test with them, since vic_assert stays compiled in
#      at -O3: the oracle's per-word checks inline into their callers,
#      a conflict copy run asserts its MESI and one-copy
#      preconditions, and the pmaps' frame tables and fixed
#      CacheControl plans panic on overflow, so their death tests must
#      hold at -O3, as must the pmaps' handle streams; then
#      perfbench/selftest.py builds and runs the repository benchmark
#      once and checks its output (host throughput is measured there,
#      not by vic_bench);
#   8. thread sanitizer: the threaded fan-outs (experiment engine
#      tests + the --jobs 4 smoke sweep, fleet replicas included +
#      the model checker's exploreMany + the CoherenceBus
#      head-to-head paths) rebuilt and rerun under TSan;
#   9. style lint: clang-format / clang-tidy, gating when installed
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

step "protocol lint (verify_policy --necessity, --cost --diff-policy)"
./build/tools/verify_policy --necessity --json VERIFY_report.json
echo "artifact archived: VERIFY_report.json"
./build/tools/verify_policy --cost --diff-policy Utah CMU

step "interleaving exploration (verify_policy --interleave)"
./build/tools/verify_policy --interleave --budget 5000 --jobs 2 \
    --json VERIFY_interleave.json
echo "artifact archived: VERIFY_interleave.json"

step "weak-order exploration + fuzz smoke (--memory-order weak)"
./build/tools/verify_policy --interleave --memory-order weak \
    --fuzz 200 --fuzz-seed 42 --budget 20000 --jobs 2 \
    --json VERIFY_weak.json
echo "artifact archived: VERIFY_weak.json"

step "multiprocessor coherence exploration (--coherence)"
./build/tools/verify_policy --interleave --coherence \
    --budget 5000 --jobs 2 --json VERIFY_coherence.json
echo "artifact archived: VERIFY_coherence.json"

step "bench smoke sweep (vic_bench, --jobs 2)"
./build/tools/vic_bench --smoke --jobs 2 --json BENCH_smoke.json
echo "artifact archived: BENCH_smoke.json"

step "bench determinism (--jobs 1 vs --jobs 2 artifacts)"
./build/tools/vic_bench --smoke --jobs 1 --json BENCH_smoke_j1.json \
    >/dev/null
./build/tools/vic_bench --diff BENCH_smoke_j1.json BENCH_smoke.json
rm -f BENCH_smoke_j1.json

step "full-scale sweep (vic_bench, every shape check gating)"
./build/tools/vic_bench --jobs "$JOBS" --json BENCH_full.json
echo "artifact archived: BENCH_full.json"

step "perf smoke (Release -O3 artifact equivalence, lockstep, model and death tests, perfbench selftest)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" \
    --target vic_bench tlb_lockstep_test cache_index_test \
             range_lockstep_test cache_model_test page_table_model_test \
             oracle_test cache_test lazy_pmap_test classic_pmap_test
./build-release/tests/tlb_lockstep_test
./build-release/tests/cache_index_test
./build-release/tests/range_lockstep_test
./build-release/tests/cache_model_test
./build-release/tests/page_table_model_test
./build-release/tests/oracle_test
./build-release/tests/cache_test
./build-release/tests/lazy_pmap_test
./build-release/tests/classic_pmap_test
# The artifact must stay equivalent to the default build's sweep.
./build-release/tools/vic_bench --smoke --jobs 2 \
    --json BENCH_smoke_release.json
./build/tools/vic_bench --diff BENCH_smoke.json BENCH_smoke_release.json
rm -f BENCH_smoke_release.json
./build-release/tools/vic_bench --jobs "$JOBS" \
    --json BENCH_full_release.json >/dev/null
./build/tools/vic_bench --diff BENCH_full.json BENCH_full_release.json
rm -f BENCH_full_release.json
python3 perfbench/selftest.py

step "thread sanitizer build (experiment engine + model checker + coherence)"
cmake -B build-tsan -S . -DVIC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
    --target experiment_engine_test vic_bench mc_test \
             weak_order_test multiprocessor_test

step "thread sanitizer: engine tests + smoke sweep + explorer + coherence"
./build-tsan/tests/experiment_engine_test
./build-tsan/tools/vic_bench --smoke --jobs 4 --json /dev/null \
    >/dev/null
./build-tsan/tests/mc_test >/dev/null
./build-tsan/tests/weak_order_test >/dev/null
# The CoherenceBus paths from the multi-CPU PR, driven two ways: the
# MESI/kernel suites directly, and the engine fanning multi-CPU
# sweeps across worker threads.
./build-tsan/tests/multiprocessor_test >/dev/null
./build-tsan/tools/vic_bench --smoke --filter coherence --jobs 4 \
    --json /dev/null >/dev/null
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
