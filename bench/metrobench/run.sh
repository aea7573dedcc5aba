#!/usr/bin/env bash
# metrobench: build the benchmark (standalone Release build in build-bench/)
# and run it.
#
#   bench/metrobench/run.sh [--smoke] [--seed=N]
#       Every workload, untraced and then traced: prints each metric by name
#       with its unit, writes results/<workload>.json (seed, nproc, build
#       type, git SHA, both metric sets), runs the harness tests, and exits
#       non-zero if any check failed. --smoke runs ~1 s windows.
#   bench/metrobench/run.sh --calibrate
#       10 runs x 2 sets of every workload; writes CALIBRATION.md.
#   bench/metrobench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload; the last line of stdout is its JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-bench"
results="$here/results"

# Configures (first time) and builds the given targets. Build output goes to
# stderr so that stdout carries only results. A lock serializes concurrent
# invocations on one build tree.
build() {
  mkdir -p "$build"
  (
    flock 9
    if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
      generator=()
      if command -v ninja > /dev/null; then generator=(-G Ninja); fi
      cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
    fi
    cmake --build "$build" -j 4 --target "$@" >&2
  ) 9> "$build/.lock"
}

workload="" seed=1 seconds=10 trace=0 smoke=0 calibrate=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    --seed) seed="$2"; shift 2 ;;
    --seed=*) seed="${1#*=}"; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seconds=*) seconds="${1#*=}"; shift ;;
    --trace) trace="$2"; shift 2 ;;
    --trace=*) trace="${1#*=}"; shift ;;
    --smoke) smoke=1; shift ;;
    --calibrate) calibrate=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
mkdir -p "$results"

if [[ -n "$workload" ]]; then
  build metrobench
  flags=(--workload="$workload" --seed="$seed" --seconds="$seconds"
         --out-dir="$results")
  if [[ "$trace" == 1 ]]; then flags+=(--trace); fi
  exec "$build/metrobench" "${flags[@]}"
fi

build all
if [[ $calibrate == 1 ]]; then
  exec python3 "$here/calibrate.py"
fi
if [[ $smoke == 1 ]]; then seconds=1; fi

failed=0
(cd "$build" && ctest --output-on-failure) || failed=1
sha=$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)
for w in city_ingest video_fog store_readstorm mq_fanin; do
  lines=()
  for t in 0 1; do
    flags=(--workload="$w" --seed="$seed" --seconds="$seconds"
           --out-dir="$results")
    if [[ $t == 1 ]]; then flags+=(--trace); fi
    out=$("$build/metrobench" "${flags[@]}") || failed=1
    printf '%s\n' "$out" | sed '$d'
    lines+=("$(printf '%s\n' "$out" | tail -n 1)")
    if [[ "${lines[-1]}" != '{"correct": true,'* ]]; then
      echo "run.sh: $w (trace=$t) failed its checks" >&2
      failed=1
    fi
  done
  cat > "$results/$w.json" << EOF
{"workload": "$w", "seed": $seed, "seconds": $seconds, "nproc": $(nproc), "build_type": "Release", "git_sha": "$sha",
 "end_to_end": ${lines[0]},
 "per_layer": ${lines[1]}}
EOF
done
exit $failed
