#!/usr/bin/env bash
# Full local check: build + tier-1 ctest (which includes the newtop_lint
# whole-tree scan) on the plain tree, then again as an optimised Release
# build, then with AddressSanitizer + UBSan (the NEWTOP_SANITIZE cmake
# option), so every shipped configuration is exercised routinely rather
# than manually.  All trees build with NEWTOP_WERROR=ON (the default).
#
# Usage: scripts/check.sh [--lint] [--tidy] [--campaign [N]] [--bench] [extra ctest args...]
#
#   (default)        run the tier-1 suite (ctest -L tier1) in every tree
#   --lint           fast path: build only newtop_lint and scan the tree,
#                    then run scripts/format.sh --check; no tests
#   --tidy           additionally build a clang-tidy tree (build-tidy,
#                    -DNEWTOP_CLANG_TIDY=ON); skipped with a notice when
#                    clang-tidy is not installed
#   --campaign [N]   additionally run the chaos campaign over N seeds
#                    (default 200) in every tree.  On failure the campaign
#                    prints the failing seed; replay it with
#                        NEWTOP_FUZZ_SEED=<seed> build/tools/newtop_fuzz
#   --bench          fast path: build and run the LAN saturation,
#                    latency-breakdown and reconfig benchmarks into build/, gate the
#                    trace dumps through newtop_prof (phase sums must
#                    reconcile with the histograms within 1%), diff against
#                    the committed BENCH_*.json baselines (strict: a
#                    simulated-time regression fails the run), then refresh the
#                    repo-root artifacts so the new numbers can be
#                    committed; no tests
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

LINT_ONLY=0
TIDY=0
CAMPAIGN=0
CAMPAIGN_SEEDS=200
BENCH_ONLY=0
while [[ "${1:-}" == --* ]]; do
    case "$1" in
        --lint)
            LINT_ONLY=1
            shift
            ;;
        --bench)
            BENCH_ONLY=1
            shift
            ;;
        --tidy)
            TIDY=1
            shift
            ;;
        --campaign)
            CAMPAIGN=1
            shift
            if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
                CAMPAIGN_SEEDS="$1"
                shift
            fi
            ;;
        *)
            break
            ;;
    esac
done
EXTRA_CTEST_ARGS=("$@")

if [[ "${BENCH_ONLY}" == 1 ]]; then
    echo "== bench (build)"
    cmake -B build -S . >/dev/null
    cmake --build build -j "${JOBS}" \
        --target bench_saturation bench_latency_breakdown bench_reconfig \
        bench_gray_failure newtop_prof
    rm -rf build/bench_traces
    echo "== bench_saturation (run)"
    NEWTOP_BENCH_OUT=build/BENCH_saturation.json \
    NEWTOP_TRACE_DUMP_OUT=build/bench_traces \
        build/bench/bench_saturation --benchmark_filter=BM_Saturation_Lan
    echo "== bench_latency_breakdown (run)"
    NEWTOP_BENCH_OUT=build/BENCH_latency_breakdown.json \
    NEWTOP_TRACE_DUMP_OUT=build/bench_traces \
        build/bench/bench_latency_breakdown
    echo "== bench_reconfig (run)"
    NEWTOP_BENCH_OUT=build/BENCH_reconfig.json \
        build/bench/bench_reconfig
    echo "== bench_gray_failure (run)"
    NEWTOP_BENCH_OUT=build/BENCH_gray_failure.json \
        build/bench/bench_gray_failure
    echo "== newtop_prof reconciliation gate"
    mkdir -p build/prof_reports
    for dump in build/bench_traces/*.trace.json; do
        name="$(basename "${dump}" .trace.json)"
        build/tools/newtop_prof --json -o "build/prof_reports/${name}.json" "${dump}"
        build/tools/newtop_prof "${dump}" | head -2
    done
    echo "== diff vs committed baselines"
    python3 scripts/bench_diff.py --strict build/BENCH_saturation.json
    python3 scripts/bench_diff.py --strict build/BENCH_latency_breakdown.json
    python3 scripts/bench_diff.py --strict build/BENCH_reconfig.json
    python3 scripts/bench_diff.py --strict build/BENCH_gray_failure.json
    cp build/BENCH_saturation.json BENCH_saturation.json
    cp build/BENCH_latency_breakdown.json BENCH_latency_breakdown.json
    cp build/BENCH_reconfig.json BENCH_reconfig.json
    cp build/BENCH_gray_failure.json BENCH_gray_failure.json
    echo "== bench artifacts refreshed (BENCH_saturation.json, BENCH_latency_breakdown.json, BENCH_reconfig.json, BENCH_gray_failure.json)"
    exit 0
fi

if [[ "${LINT_ONLY}" == 1 ]]; then
    echo "== newtop_lint (build)"
    cmake -B build -S . >/dev/null
    cmake --build build -j "${JOBS}" --target newtop_lint
    build/tools/newtop_lint --root . --baseline tools/lint_suppressions.baseline \
        --json -o build/lint_report.json
    echo "== format check"
    scripts/format.sh --check
    echo "== lint checks passed"
    exit 0
fi

run_tree() {
    local dir="$1"
    shift
    echo "== configure ${dir} ($*)"
    cmake -B "${dir}" -S . "$@" >/dev/null
    echo "== build ${dir}"
    cmake --build "${dir}" -j "${JOBS}"
    echo "== newtop_lint ${dir}"
    "${dir}/tools/newtop_lint" --root . --baseline tools/lint_suppressions.baseline \
        --json -o "${dir}/lint_report.json"
    echo "== ctest ${dir} (tier1)"
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L tier1 \
        "${EXTRA_CTEST_ARGS[@]}"
    if [[ "${CAMPAIGN}" == 1 ]]; then
        echo "== chaos campaign ${dir} (${CAMPAIGN_SEEDS} seeds)"
        if ! "${dir}/tools/newtop_fuzz" --seeds "${CAMPAIGN_SEEDS}"; then
            echo "!! campaign failed in ${dir}; replay the seed printed above with:"
            echo "!!     NEWTOP_FUZZ_SEED=<seed> ${dir}/tools/newtop_fuzz"
            exit 1
        fi
        echo "== chaos campaign ${dir} (${CAMPAIGN_SEEDS} seeds, reconfig-enabled)"
        if ! "${dir}/tools/newtop_fuzz" --seeds "${CAMPAIGN_SEEDS}" --base 1000000 --reconfig; then
            echo "!! reconfig campaign failed in ${dir}; replay the seed printed above with:"
            echo "!!     NEWTOP_FUZZ_SEED=<seed> NEWTOP_FUZZ_RECONFIG=1 ${dir}/tools/newtop_fuzz"
            exit 1
        fi
        echo "== chaos campaign ${dir} (${CAMPAIGN_SEEDS} seeds, gray-failure-enabled)"
        if ! "${dir}/tools/newtop_fuzz" --seeds "${CAMPAIGN_SEEDS}" --base 2000000 --gray; then
            echo "!! gray campaign failed in ${dir}; replay the seed printed above with:"
            echo "!!     NEWTOP_FUZZ_SEED=<seed> NEWTOP_FUZZ_GRAY=1 ${dir}/tools/newtop_fuzz"
            exit 1
        fi
    fi
}

run_tree build
run_tree build-release -DCMAKE_BUILD_TYPE=Release
run_tree build-asan -DNEWTOP_SANITIZE=address,undefined

if [[ "${TIDY}" == 1 ]]; then
    if command -v clang-tidy >/dev/null 2>&1; then
        echo "== clang-tidy tree (build-tidy)"
        cmake -B build-tidy -S . -DNEWTOP_CLANG_TIDY=ON >/dev/null
        cmake --build build-tidy -j "${JOBS}"
    else
        echo "== clang-tidy not installed; skipping --tidy tree"
    fi
fi

echo "== format check"
scripts/format.sh --check

echo "== all checks passed"
