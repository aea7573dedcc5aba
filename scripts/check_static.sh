#!/usr/bin/env bash
# Static-analysis gate: project invariants (metrolint), thread-safety +
# lifetime analysis, clang-format, clang-tidy, and the sanitizer matrix in
# one command. Exits non-zero on any finding.
#
# Stages:
#   0. metrolint: the project-invariant analyzer (tools/metrolint/) —
#      include-layering DAG, METRO_NOALLOC hot-path allocation ban, banned
#      patterns. Compiled directly with the host C++ compiler (no cmake, no
#      clang needed), so this stage ALWAYS runs: it is the portable floor
#      under the clang-only stages below. Runs --selftest first (the rule
#      engine must prove it still catches seeded violations), then the
#      zero-findings gate over src/ bench/ tests/.
#   0.5 Runtime lock-rank checker: Debug build of lock_rank_test so the
#      METRO_LOCK_RANK_CHECK Mutex-hook death tests run with the hooks
#      compiled in (every NDEBUG flavor compiles them out), plus
#      mq_cluster_test and mq_test, whose brokers nest the cluster and
#      partition locks (mq_test through the consumer-group, retention and
#      fault paths), and core_pipeline_wakeup_test, the pipeline's
#      consumers parked in the broker's long-poll wait.
#   1. Clang + METRO_THREAD_SAFETY=ON + METRO_LIFETIME=ON:
#      -Werror=thread-safety over the annotated tree (src/util/sync.h
#      vocabulary) and -Werror=dangling* over the METRO_LIFETIME_BOUND
#      view APIs (src/util/analysis.h), then the static-labelled ctests in
#      that build (including the WILL_FAIL dangling-view compile test).
#      Skipped with a notice when no clang is installed — both annotation
#      families compile as no-ops under GCC.
#   2. clang-format --dry-run -Werror over src/ bench/ tests/ tools/ with
#      the repo .clang-format. Skipped when not installed.
#   3. clang-tidy with the repo .clang-tidy profile over src/ .cpp files
#      AND over header-only modules (headers with no same-named .cpp
#      anywhere in src/, e.g. src/dataflow/dataset.h) via generated
#      single-include TUs. Skipped when not installed.
#   4. Sanitizer matrix: TSan on the concurrency-heavy labels (static, obs,
#      resilience, store), ASan and UBSan on the full suite. Runs with whatever
#      compiler CMake picks (GCC and Clang both support all three).
#
# Usage: scripts/check_static.sh [build-dir-prefix]   (default: build)
# Env:   METRO_CHECK_FAST=1 limits ASan/UBSan to the static-, nn- and
#        obs-labelled tests (useful on slow machines; the full matrix is the
#        real gate).

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIPPED=()

# --- 0. metrolint project invariants ------------------------------------
echo "==> metrolint: v1 per-file rules + v2/v3 whole-program passes (always on)"
HOSTCXX="${CXX:-$(command -v c++ || command -v g++ || command -v clang++)}"
mkdir -p "${PREFIX}-metrolint"
"${HOSTCXX}" -std=c++20 -O1 -o "${PREFIX}-metrolint/metrolint" \
  tools/metrolint/metrolint.cpp tools/metrolint/wholeprogram.cpp \
  tools/metrolint/views.cpp
"${PREFIX}-metrolint/metrolint" --selftest --root .
# The whole-program run prints per-pass timings, writes the global lock
# graph and the view-ownership graph (CI uploads both, plus the findings
# report, as artifacts), and fails only on findings not fingerprinted in
# the baseline file (empty today: the tree is clean). --budget-ms keeps the
# full-tree scan honest: the gate itself fails if analysis time regresses
# past 10 s (it runs in well under one today).
"${PREFIX}-metrolint/metrolint" --root . \
  --baseline tools/metrolint/baseline.txt \
  --dot "${PREFIX}-metrolint/lockgraph.dot" \
  --dot-views "${PREFIX}-metrolint/viewgraph.dot" \
  --report "${PREFIX}-metrolint/findings.txt" \
  --budget-ms 10000

# --- 0.5 runtime lock-rank + view-invalidation checkers ------------------
# The dynamic mirrors of the lockorder and invalidation passes live behind
# METRO_LOCK_RANK_CHECK / METRO_VIEW_CHECK, which every NDEBUG flavor
# (RelWithDebInfo default, sanitizer builds) compiles out of the hot paths.
# Build the death tests once in Debug so the hook integrations — a real
# Mutex inversion aborts with both stacks, a stale TensorView/RecordView
# access aborts with context — are proven by the gate, not just by whoever
# happens to run a Debug build.
echo "==> lock-rank + view-check: Debug death tests (hooks compiled in)"
cmake -B "${PREFIX}-lockrank" -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build "${PREFIX}-lockrank" -j "${JOBS}" \
  --target lock_rank_test invariants_test mq_cluster_test mq_test core_test
ctest --test-dir "${PREFIX}-lockrank" --output-on-failure \
  -R "^(lock_rank_test|invariants_test|mq_cluster_test|mq_test|core_pipeline_wakeup_test)$"

# --- 1. Clang thread-safety + lifetime analysis --------------------------
CLANGXX="$(command -v clang++ || true)"
if [[ -n "${CLANGXX}" ]]; then
  echo "==> clang analyses: METRO_THREAD_SAFETY=ON + METRO_LIFETIME=ON"
  cmake -B "${PREFIX}-tsafe" -S . \
    -DCMAKE_CXX_COMPILER="${CLANGXX}" \
    -DMETRO_THREAD_SAFETY=ON -DMETRO_LIFETIME=ON >/dev/null
  cmake --build "${PREFIX}-tsafe" -j "${JOBS}"
  # Static-labelled tests in the clang build, including the WILL_FAIL
  # dangling-view negative compile test (tests/static/).
  ctest --test-dir "${PREFIX}-tsafe" --output-on-failure -j "${JOBS}" \
    -L "static"
else
  echo "==> clang analyses: SKIPPED (no clang++ on PATH; thread-safety and lifetime annotations are no-ops under this compiler)"
  SKIPPED+=("thread-safety" "lifetime")
fi

# --- 2. clang-format ------------------------------------------------------
CLANG_FORMAT="$(command -v clang-format || true)"
if [[ -n "${CLANG_FORMAT}" ]]; then
  echo "==> clang-format: --dry-run -Werror with repo .clang-format"
  find src bench tests tools \( -name '*.cpp' -o -name '*.h' \) -print0 |
    xargs -0 -n 16 -P "${JOBS}" "${CLANG_FORMAT}" --dry-run -Werror
else
  echo "==> clang-format: SKIPPED (not installed)"
  SKIPPED+=("clang-format")
fi

# --- 3. clang-tidy ------------------------------------------------------
CLANG_TIDY="$(command -v clang-tidy || true)"
if [[ -n "${CLANG_TIDY}" ]]; then
  echo "==> clang-tidy: src/ .cpp files with repo .clang-tidy profile"
  cmake -B "${PREFIX}-tidy" -S . \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # xargs propagates clang-tidy's non-zero exit through set -e.
  find src -name '*.cpp' -print0 |
    xargs -0 -n 8 -P "${JOBS}" "${CLANG_TIDY}" -p "${PREFIX}-tidy" --quiet

  echo "==> clang-tidy: header-only modules via generated TUs"
  # Headers with no same-named .cpp anywhere under src/ never appear in
  # compile_commands.json, so the pass above cannot see them. Wrap each in
  # a one-line TU and tidy that with explicit flags.
  TUDIR="${PREFIX}-tidy/header-tus"
  mkdir -p "${TUDIR}"
  HEADER_TUS=()
  while IFS= read -r header; do
    base="$(basename "${header}" .h)"
    if ! find src -name "${base}.cpp" -print -quit | grep -q .; then
      tu="${TUDIR}/$(echo "${header#src/}" | tr '/' '_').cpp"
      printf '#include "%s"\n' "${header#src/}" > "${tu}"
      HEADER_TUS+=("${tu}")
    fi
  done < <(find src -name '*.h' | sort)
  printf '%s\0' "${HEADER_TUS[@]}" |
    xargs -0 -n 8 -P "${JOBS}" "${CLANG_TIDY}" --quiet \
      -- -std=c++20 -Isrc
else
  echo "==> clang-tidy: SKIPPED (not installed)"
  SKIPPED+=("clang-tidy")
fi

# --- 4. Sanitizer matrix ------------------------------------------------
CONCURRENCY_TARGETS=(static_stress_test invariants_test lock_rank_test
                     metrolint obs_test resilience_test chaos_test
                     mq_cluster_test core_test store_test util_test)
FULL_LABEL_ARGS=()
if [[ "${METRO_CHECK_FAST:-0}" == "1" ]]; then
  FULL_LABEL_ARGS=(-L "static|nn|obs")
fi

echo "==> tsan: METRO_SANITIZE=thread + static/obs/resilience/store tests"
cmake -B "${PREFIX}-tsan" -S . -DMETRO_SANITIZE=thread >/dev/null
cmake --build "${PREFIX}-tsan" -j "${JOBS}" --target "${CONCURRENCY_TARGETS[@]}"
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  -L "static|obs|resilience|store"

echo "==> asan: METRO_SANITIZE=address + tests"
cmake -B "${PREFIX}-asan" -S . -DMETRO_SANITIZE=address >/dev/null
if [[ "${METRO_CHECK_FAST:-0}" == "1" ]]; then
  cmake --build "${PREFIX}-asan" -j "${JOBS}" \
    --target static_stress_test invariants_test lock_rank_test metrolint \
    mq_cluster_test core_test util_test inference_parity_test nn_test \
    zoo_test tensor_test obs_test
else
  cmake --build "${PREFIX}-asan" -j "${JOBS}"
fi
ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
  "${FULL_LABEL_ARGS[@]}"

echo "==> ubsan: METRO_SANITIZE=undefined (-fno-sanitize-recover) + tests"
cmake -B "${PREFIX}-ubsan" -S . -DMETRO_SANITIZE=undefined >/dev/null
if [[ "${METRO_CHECK_FAST:-0}" == "1" ]]; then
  cmake --build "${PREFIX}-ubsan" -j "${JOBS}" \
    --target static_stress_test invariants_test lock_rank_test metrolint \
    mq_cluster_test core_test util_test inference_parity_test nn_test \
    zoo_test tensor_test obs_test
else
  cmake --build "${PREFIX}-ubsan" -j "${JOBS}"
fi
ctest --test-dir "${PREFIX}-ubsan" --output-on-failure -j "${JOBS}" \
  "${FULL_LABEL_ARGS[@]}"

if ((${#SKIPPED[@]})); then
  echo "==> check_static: OK (skipped: ${SKIPPED[*]})"
else
  echo "==> check_static: OK"
fi
