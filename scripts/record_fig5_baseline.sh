#!/usr/bin/env bash
# Records the Fig. 5 local-exit baseline that scripts/check_perf.sh gates
# on. Builds Release, runs `bench_fig5_earlyexit_detect --json` five times,
# and writes the median eager latency and heap allocations per call, with
# the commit, nproc and CPU model, to bench/baselines/fig5_local_exit.json.
# Run it at the commit the gate should compare against, on the host the gate
# will run on, and commit the file.
#
# Usage: scripts/record_fig5_baseline.sh [build-dir]   (default: build-perf)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-perf}"
OUT="bench/baselines/fig5_local_exit.json"
RUNS=5

cmake -B "${PREFIX}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${PREFIX}" -j "$(nproc)" --target bench_fig5_earlyexit_detect

# "key": value of the first `"section": {"key": value` in a one-line object.
field() { sed -n "s/.*\"$2\": {[^}]*\"$3\": \([0-9.eE+-]*\).*/\1/p" "$1" | head -1; }
median() { printf '%s\n' "$@" | sort -g | sed -n "$(( ($# + 1) / 2 ))p"; }

latencies=() allocs=()
for _ in $(seq "${RUNS}"); do
  rm -f "${PREFIX}/fig5_baseline.json"
  (cd "${PREFIX}" &&
    ./bench/bench_fig5_earlyexit_detect --json=fig5_baseline.json >/dev/null)
  latencies+=("$(field "${PREFIX}/fig5_baseline.json" eager latency_ms)")
  allocs+=("$(field "${PREFIX}/fig5_baseline.json" eager heap_allocs_per_call)")
done

runs_list="$(printf '%s, ' "${latencies[@]}")"
mkdir -p "$(dirname "${OUT}")"
cat > "${OUT}" <<EOF
{
  "bench": "bench_fig5_earlyexit_detect --json",
  "build": "Release",
  "recorded_at_sha": "$(git rev-parse HEAD 2>/dev/null || echo unknown)",
  "nproc": $(nproc),
  "cpu_model": "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)",
  "runs": ${RUNS},
  "eager_latency_ms_runs": [${runs_list%, }],
  "eager": {"latency_ms": $(median "${latencies[@]}"), "heap_allocs_per_call": $(median "${allocs[@]}")}
}
EOF
echo "record_fig5_baseline: wrote ${OUT}"
cat "${OUT}"
