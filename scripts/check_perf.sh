#!/usr/bin/env bash
# Performance gate for the planned inference engine and the batched MQ
# produce path. Builds Release, checks the kernels and the planner first
# (tensor_test's reference kernels and inference_parity_test's goldens and
# planner parity are what make the perf numbers meaningful), then runs the
# Fig. 5 / Fig. 7 benches in --json mode, reports the eager-vs-planned
# ratios from BENCH_infer.json and gates the Fig. 7 planned halves' heap
# allocations, and finally runs the MQ failover bench and gates on the
# batched-produce speedup from BENCH_mq.json.
#
# Exits non-zero when:
#   - the build, the kernel tests or the inference parity suite fail, or
#   - either inference bench fails to produce its BENCH_infer.json section, or
#   - either planned Fig. 7 half (local_planned, server_planned) makes more
#     than 10 heap allocations per call — a hard gate, because the counts
#     are deterministic (same code, same count on any host), or
#   - the MQ bench fails its exactly-once audit / misses BENCH_mq.json, or
#   - batched produce is < 2x single-record records/s at 8 partitions, or
#   - the store read-storm bench fails its ingest sanity floor / misses
#     BENCH_store.json.
#
# The Fig. 5 local-exit numbers are printed for trend-watching but only warn
# by default (shared CI machines are noisy). Set METRO_PERF_STRICT=1 to also
# fail unless planned latency <= 1/2 and planned heap allocs/call <= 1/4 of
# the committed pre-change eager baseline (bench/baselines/fig5_local_exit.json,
# written by scripts/record_fig5_baseline.sh), and the in-run alloc reduction
# is >= 4x. The baseline is only comparable on the host that recorded it: a
# different nproc or CPU model fails the strict gate.
#
# Usage: scripts/check_perf.sh [build-dir]   (default: build-perf)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-perf}"
JOBS="$(nproc 2>/dev/null || echo 4)"
JSON="${PREFIX}/BENCH_infer.json"
BASELINE="bench/baselines/fig5_local_exit.json"

echo "==> build: Release (${PREFIX})"
cmake -B "${PREFIX}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${PREFIX}" -j "${JOBS}" --target \
  tensor_test inference_parity_test bench_fig5_earlyexit_detect bench_fig7_behavior \
  bench_mq_failover bench_store_readstorm

echo "==> kernels + planner: reference kernels, goldens, planner parity"
ctest --test-dir "${PREFIX}" --output-on-failure \
  -R '^(tensor_test|inference_parity_test)$'

echo "==> bench: fig5 early-exit detector (--json)"
rm -f "${JSON}"
(cd "${PREFIX}" && ./bench/bench_fig5_earlyexit_detect --json)

echo "==> bench: fig7 behavior recognizer (--json)"
(cd "${PREFIX}" && ./bench/bench_fig7_behavior --json)

grep -q '"fig5_earlyexit_detect"' "${JSON}" ||
  { echo "check_perf: fig5 section missing from ${JSON}" >&2; exit 1; }
grep -q '"fig7_behavior"' "${JSON}" ||
  { echo "check_perf: fig7 section missing from ${JSON}" >&2; exit 1; }

# Pull the numbers out of the (machine-written, one-object-per-line) JSON
# without requiring jq.
ratio() { sed -n "s/.*\"$1\": \([0-9.eE+-]*\).*/\1/p" "${JSON}" | head -1; }
# "key": value of the first `"section": {... "key": value` in a file.
field() { sed -n "s/.*\"$2\": {[^}]*\"$3\": \([0-9.eE+-]*\).*/\1/p" "$1" | head -1; }
SPEEDUP="$(ratio latency_speedup)"
ALLOC_CUT="$(ratio alloc_reduction)"
PLANNED_MS="$(field "${JSON}" planned latency_ms)"
PLANNED_ALLOCS="$(field "${JSON}" planned heap_allocs_per_call)"
BASE_MS="$(field "${BASELINE}" eager latency_ms)"
BASE_ALLOCS="$(field "${BASELINE}" eager heap_allocs_per_call)"
echo "==> fig5 local-exit in-run: planned is ${SPEEDUP}x faster, ${ALLOC_CUT}x fewer heap allocs than eager"
echo "==> fig5 local-exit vs baseline: planned ${PLANNED_MS} ms / ${PLANNED_ALLOCS} allocs per call against eager ${BASE_MS} ms / ${BASE_ALLOCS} (target: <= 1/2 / <= 1/4)"

FIG7_LOCAL_ALLOCS="$(field "${JSON}" local_planned heap_allocs_per_call)"
FIG7_SERVER_ALLOCS="$(field "${JSON}" server_planned heap_allocs_per_call)"
echo "==> fig7 planned halves: local ${FIG7_LOCAL_ALLOCS} / server ${FIG7_SERVER_ALLOCS} heap allocs per call (target: <= 10 each)"
awk -v l="${FIG7_LOCAL_ALLOCS}" -v s="${FIG7_SERVER_ALLOCS}" \
  'BEGIN { exit !(l != "" && s != "" && l <= 10 && s <= 10) }' ||
  { echo "check_perf: FAIL (a planned fig7 half makes > 10 heap allocs per call)" >&2; exit 1; }

if [[ "${METRO_PERF_STRICT:-0}" == "1" ]]; then
  base_nproc="$(sed -n 's/.*"nproc": \([0-9]*\).*/\1/p' "${BASELINE}")"
  base_cpu="$(sed -n 's/.*"cpu_model": "\(.*\)".*/\1/p' "${BASELINE}")"
  host_nproc="$(nproc)"
  host_cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)"
  if [[ "${base_nproc}" != "${host_nproc}" || "${base_cpu}" != "${host_cpu}" ]]; then
    echo "check_perf: FAIL (${BASELINE} was recorded on ${base_nproc} x '${base_cpu}'," \
      "this host is ${host_nproc} x '${host_cpu}'; record a baseline here with" \
      "scripts/record_fig5_baseline.sh at the commit to compare against)" >&2
    exit 1
  fi
  awk -v p="${PLANNED_MS}" -v b="${BASE_MS}" -v pa="${PLANNED_ALLOCS}" \
    -v ba="${BASE_ALLOCS}" -v a="${ALLOC_CUT}" \
    'BEGIN { exit !(p <= b / 2 && pa <= ba / 4 && a >= 4.0) }' ||
    { echo "check_perf: FAIL (fig5 planned above 1/2 baseline latency / 1/4 baseline allocs, or in-run alloc reduction < 4x)" >&2; exit 1; }
fi

# Batched MQ produce: the bench itself is the exactly-once audit (non-zero
# on acked loss or duplicate delivery); the speedup gate here is a *hard*
# gate — batching amortizes the broker's lock and bookkeeping, so even a
# noisy shared machine clears 2x with a wide margin.
MQ_JSON="${PREFIX}/BENCH_mq.json"
echo "==> bench: mq failover + batched produce (--json)"
rm -f "${MQ_JSON}"
(cd "${PREFIX}" && ./bench/bench_mq_failover --json)
grep -q '"mq_failover"' "${MQ_JSON}" ||
  { echo "check_perf: mq_failover section missing from ${MQ_JSON}" >&2; exit 1; }
MQ_SPEEDUP="$(sed -n 's/.*"batched_speedup_at_8": \([0-9.eE+-]*\).*/\1/p' "${MQ_JSON}" | head -1)"
echo "==> mq: batched produce is ${MQ_SPEEDUP}x single-record at 8 partitions (target: >= 2x)"
awk -v s="${MQ_SPEEDUP}" 'BEGIN { exit !(s >= 2.0) }' ||
  { echo "check_perf: FAIL (batched produce < 2x single-record at 8 partitions)" >&2; exit 1; }

# Storage read storm: Zipfian open-loop readers against sustained ingest,
# versioned LSM engine vs a replica of the seed engine (one global mutex).
# The headline ratio is tail read latency at a fixed arrival rate; like the
# Fig. 5 ratios it only warns by default (the storm is scheduler-sensitive
# on shared machines) and becomes a >= 2x gate under METRO_PERF_STRICT=1.
STORE_JSON="${PREFIX}/BENCH_store.json"
echo "==> bench: store read storm (--json)"
rm -f "${STORE_JSON}"
(cd "${PREFIX}" && ./bench/bench_store_readstorm --json=BENCH_store.json)
grep -q '"store_readstorm"' "${STORE_JSON}" ||
  { echo "check_perf: store_readstorm section missing from ${STORE_JSON}" >&2; exit 1; }
P99_IMPROVEMENT="$(sed -n 's/.*"read_p99_improvement": \([0-9.eE+-]*\).*/\1/p' "${STORE_JSON}" | head -1)"
echo "==> store: versioned engine read p99 is ${P99_IMPROVEMENT}x better than the seed engine under ingest (target: >= 2x)"
if [[ "${METRO_PERF_STRICT:-0}" == "1" ]]; then
  awk -v s="${P99_IMPROVEMENT}" 'BEGIN { exit !(s >= 2.0) }' ||
    { echo "check_perf: FAIL (read p99 improvement < 2x over seed engine)" >&2; exit 1; }
fi

echo "==> check_perf: OK (${JSON}, ${MQ_JSON}, ${STORE_JSON})"
