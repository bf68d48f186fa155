#!/usr/bin/env bash
# Simulation-identity check for refactors: build <base-rev> and the working
# tree as Release, run the same deterministic workloads on both, and diff
# what they print.  The simulation is seeded and wall-clock-free, so any
# difference is a behaviour change, not noise.
#
# Usage: scripts/sim_identity.sh <base-rev> [seeds=500]
#
# Per tree (build-identity/base and build-identity/head):
#   * newtop_fuzz --print over the legacy (base 1), --reconfig (base
#     1000000) and --gray (base 2000000) seed blocks, with the exit status;
#   * every bench binary, keeping its "# metrics" lines and the trace dumps
#     it writes to NEWTOP_TRACE_DUMP_OUT.
# Exits non-zero on the first difference, naming the file that differs.
# The base source is exported with `git archive`, so nothing is left
# registered in the repository if the script is interrupted.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: scripts/sim_identity.sh <base-rev> [seeds=500]" >&2
    exit 2
fi
BASE_REV="$1"
SEEDS="${2:-500}"

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT="${ROOT}/build-identity"
BASE_SRC="${OUT}/base-src"

git rev-parse --verify --quiet "${BASE_REV}^{commit}" >/dev/null ||
    { echo "unknown revision: ${BASE_REV}" >&2; exit 2; }

echo "== export ${BASE_REV} to ${BASE_SRC}"
rm -rf "${BASE_SRC}"
mkdir -p "${BASE_SRC}"
git archive "${BASE_REV}" | tar -x -C "${BASE_SRC}"

# build_tree <source dir> <build dir>: configure Release and build the fuzz
# runner plus every bench binary that source tree declares.
build_tree() {
    local src="$1" dir="$2"
    local targets=(newtop_fuzz)
    for cpp in "${src}"/bench/bench_*.cpp; do targets+=("$(basename "${cpp}" .cpp)"); done
    echo "== build ${dir}"
    cmake -B "${dir}" -S "${src}" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "${dir}" -j "${JOBS}" --target "${targets[@]}" >/dev/null
}

# run_tree <build dir>: write the comparable outputs under <build dir>/out.
run_tree() {
    local dir="$1"
    local out="${dir}/out"
    rm -rf "${out}"
    mkdir -p "${out}/traces" "${out}/artifacts"
    echo "== run ${dir}"
    local block
    for block in "legacy:1:" "reconfig:1000000:--reconfig" "gray:2000000:--gray"; do
        IFS=: read -r name base flag <<<"${block}"
        # shellcheck disable=SC2086  # flag is empty or one word
        if "${dir}/tools/newtop_fuzz" --print --seeds "${SEEDS}" --base "${base}" ${flag} \
            >"${out}/fuzz_${name}.txt" 2>&1; then
            echo "exit 0" >>"${out}/fuzz_${name}.txt"
        else
            echo "exit $?" >>"${out}/fuzz_${name}.txt"
        fi
    done
    local bin
    for bin in "${dir}"/bench/bench_*; do
        [[ -x "${bin}" ]] || continue
        name="$(basename "${bin}")"
        # Artifacts carry host time, so they go to a scratch directory; the
        # bench's own working directory is the tree's output directory.
        local rc=0
        (cd "${out}/artifacts" &&
            NEWTOP_BENCH_OUT="${out}/artifacts/${name}.json" \
            NEWTOP_TRACE_DUMP_OUT="${out}/traces" "${bin}" >"${out}/artifacts/${name}.log" 2>&1) ||
            rc=$?
        { grep '^# metrics ' "${out}/artifacts/${name}.log" || true; echo "exit ${rc}"; } \
            >"${out}/${name}.metrics"
    done
}

build_tree "${BASE_SRC}" "${OUT}/base"
build_tree "${ROOT}" "${OUT}/head"
run_tree "${OUT}/base"
run_tree "${OUT}/head"

echo "== diff"
status=0
for file in $(cd "${OUT}/base/out" && find . -path ./artifacts -prune -o -type f -print | sort) \
            $(cd "${OUT}/head/out" && find . -path ./artifacts -prune -o -type f -print | sort); do
    if ! cmp -s "${OUT}/base/out/${file}" "${OUT}/head/out/${file}"; then
        echo "DIFFERS: ${file#./} (build-identity/{base,head}/out/${file#./})"
        status=1
        break
    fi
done
if [[ "${status}" == 0 ]]; then
    echo "== identical: fuzz transcripts (3 x ${SEEDS} seeds), bench metrics and trace dumps"
fi
exit "${status}"
