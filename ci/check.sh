#!/usr/bin/env bash
# CI gate: configure + build (warnings as errors) + tier-1 tests (once at
# the default SIMD dispatch and once forced CEM_SIMD=scalar) + header
# self-containment + format check + bench smoke runs + a bench regression
# gate (tracked counters diffed against the blessed baselines committed
# under bench/baselines/) + a wall-time stage (informational by default,
# gating under CEM_CI_GATE_WALL=1), an AddressSanitizer +
# UndefinedBehaviorSanitizer build re-running the tier-1 suite (undefined
# behaviour aborts the test), and a ThreadSanitizer build re-running the
# concurrency-labeled suites, plus a build of the repository benchmark
# (perfbench/), its self-tests and one short traced run of each of its
# four workloads with their output checks. Run from anywhere; a fresh
# checkout passes end-to-end using only the committed baselines.
#
# Knobs:
#   CEM_CI_SKIP_ASAN=1    skip the AddressSanitizer + UBSan stage
#   CEM_CI_SKIP_TSAN=1    skip the ThreadSanitizer stage
#   BENCH_BASELINE_DIR    override where the blessed baseline reports live
#                         (default: bench/baselines; bless new ones with
#                         ci/update_baselines.sh)
#   CEM_CI_GATE_WALL=1    make the wall-time stage gating (>25% slowdown on
#                         any blessed wall_ms_* fails). Off the dedicated
#                         quiet runner the stage is informational — shared
#                         hosts are too noisy to gate wall clocks.
#   CEM_WALL_BASELINE_DIR where the blessed wall-time baselines live
#                         (default: bench/baselines-wall; host-specific —
#                         bless with CEM_BLESS_WALL=1 ci/update_baselines.sh
#                         on the runner that will gate)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-ci}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-${REPO_ROOT}/build-ci-asan}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-${REPO_ROOT}/build-ci-tsan}"
PERFBENCH_BUILD_DIR="${PERFBENCH_BUILD_DIR:-${REPO_ROOT}/build-ci-perfbench}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

# Pick up ccache when available (the GitHub workflow restores its cache
# between runs; local runs just get faster rebuilds).
CMAKE_EXTRA_ARGS=()
if command -v ccache > /dev/null 2>&1; then
  CMAKE_EXTRA_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "== configure (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCEM_WERROR=ON \
  "${CMAKE_EXTRA_ARGS[@]}"

echo "== build (all targets, -j${JOBS})"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== header self-containment check"
cmake --build "${BUILD_DIR}" --target header_check -j "${JOBS}"

echo "== format check"
cmake --build "${BUILD_DIR}" --target format_check

echo "== ctest -L tier1"
ctest --test-dir "${BUILD_DIR}" -L tier1 -j "${JOBS}" --output-on-failure

echo "== ctest -L tier1 (CEM_SIMD=scalar)"
# The full suite again with the SIMD dispatch forced off: proves the
# scalar fallback path is a complete, correct implementation on its own
# (what a non-AVX2 host would run), not just the AVX2 kernels' shadow.
CEM_SIMD=scalar ctest --test-dir "${BUILD_DIR}" -L tier1 -j "${JOBS}" \
  --output-on-failure

echo "== ctest -L bench_smoke"
# ablation_blocking, bench_streaming, bench_persist, bench_hotpath and
# bench_serve are excluded here: the regression gate below runs the same
# binaries at the same scale (with JSON on), so one run covers both.
ctest --test-dir "${BUILD_DIR}" -L bench_smoke \
  -E "bench_smoke_ablation_blocking|bench_smoke_streaming|bench_smoke_persist|bench_smoke_hotpath|bench_smoke_serve" \
  -j "${JOBS}" --output-on-failure

echo "== repository benchmark build (perfbench/)"
# perfbench/ builds the library from this checkout through its own
# CMakeLists.txt, which nothing above exercises: without this stage a
# library change that breaks the runner's build only shows when the
# benchmark runs. Configured into its own build dir, so nothing under
# perfbench/ is written.
cmake -S "${REPO_ROOT}/perfbench" -B "${PERFBENCH_BUILD_DIR}" \
  "${CMAKE_EXTRA_ARGS[@]}"
cmake --build "${PERFBENCH_BUILD_DIR}" -j "${JOBS}" \
  --target perfbench perfbench_selftest
"${PERFBENCH_BUILD_DIR}/perfbench_selftest"

echo "== repository benchmark output checks (perfbench run --trace 1)"
# One short traced run of each workload, whose output checks hold the
# library to its own equivalences: grid-dblp's RunGrid matches equal
# RunSmp's, mmp-hepth's RunMmp matches contain RunSmp's, serve-dblp's
# streamed matches (MatchService over a StreamingMatcher) equal batch
# RunSmp's over the streamed cover, and durable-hepth's recovered state
# equals the dropped matcher's. A traced
# run also checks that traced and untraced work counts agree, which a
# Matcher virtual the runner's decorator does not forward would break. The
# runner exits non-zero when any check fails.
PERFBENCH_RUN_DIR="${PERFBENCH_BUILD_DIR}/ci-runs"
for workload in grid-dblp mmp-hepth serve-dblp durable-hepth; do
  rm -rf "${PERFBENCH_RUN_DIR}"
  mkdir -p "${PERFBENCH_RUN_DIR}"
  "${PERFBENCH_BUILD_DIR}/perfbench" gen --workload "${workload}" --seed 1 \
    --out "${PERFBENCH_RUN_DIR}" > /dev/null
  "${PERFBENCH_BUILD_DIR}/perfbench" run --workload "${workload}" --seed 1 \
    --seconds 1 --trace 1 --corpus-dir "${PERFBENCH_RUN_DIR}" \
    --work-dir "${PERFBENCH_RUN_DIR}"
done
rm -rf "${PERFBENCH_RUN_DIR}"

echo "== bench regression gate (tracked counters, >15% slowdown fails)"
BENCH_JSON_DIR="${BUILD_DIR}/bench-json"
BENCH_BASELINE_DIR="${BENCH_BASELINE_DIR:-${REPO_ROOT}/bench/baselines}"
if [[ ! -d "${BENCH_BASELINE_DIR}" ]]; then
  echo "error: no baseline dir at ${BENCH_BASELINE_DIR}." >&2
  echo "Bless baselines with ci/update_baselines.sh and commit them." >&2
  exit 1
fi
rm -rf "${BENCH_JSON_DIR}"
mkdir -p "${BENCH_JSON_DIR}"
CEM_BENCH_SCALE=0.05 CEM_BENCH_JSON_DIR="${BENCH_JSON_DIR}" \
  "${BUILD_DIR}/ablation_blocking" > /dev/null
CEM_BENCH_SCALE=0.05 CEM_BENCH_JSON_DIR="${BENCH_JSON_DIR}" \
  "${BUILD_DIR}/bench_streaming" > /dev/null
CEM_BENCH_SCALE=0.05 CEM_BENCH_JSON_DIR="${BENCH_JSON_DIR}" \
  "${BUILD_DIR}/bench_persist" > /dev/null
CEM_BENCH_SCALE=0.05 CEM_BENCH_JSON_DIR="${BENCH_JSON_DIR}" \
  "${BUILD_DIR}/bench_hotpath" > /dev/null
CEM_BENCH_SCALE=0.05 CEM_BENCH_JSON_DIR="${BENCH_JSON_DIR}" \
  "${BUILD_DIR}/bench_serve" > /dev/null
shopt -s nullglob
compared=0
for report in "${BENCH_JSON_DIR}"/BENCH_*.json; do
  base="${BENCH_BASELINE_DIR}/$(basename "${report}")"
  if [[ -f "${base}" ]]; then
    echo "-- $(basename "${report}")"
    "${BUILD_DIR}/bench_diff" "${base}" "${report}" --max-slowdown 0.15
    compared=$((compared + 1))
  else
    echo "-- $(basename "${report}"): NO BASELINE — run ci/update_baselines.sh to bless one"
  fi
done
# A baseline whose bench no longer emits a report would silently stop
# gating; deleting a bench must delete (or re-bless) its baseline too.
for base in "${BENCH_BASELINE_DIR}"/BENCH_*.json; do
  if [[ ! -f "${BENCH_JSON_DIR}/$(basename "${base}")" ]]; then
    echo "error: baseline $(basename "${base}") has no current report;" \
      "delete it or re-bless with ci/update_baselines.sh" >&2
    exit 1
  fi
done
shopt -u nullglob
if [[ "${compared}" -eq 0 ]]; then
  echo "error: bench regression gate compared nothing (no reports matched" \
    "a baseline) — the gate must never pass vacuously" >&2
  exit 1
fi

echo "== wall-time stage (bench_hotpath et al.)"
# Diffs the wall_ms_* sections of the reports produced above against the
# blessed wall baselines. Wall clocks are host-specific, so the baselines
# are blessed per-runner (CEM_BLESS_WALL=1 ci/update_baselines.sh) and the
# stage only *gates* when CEM_CI_GATE_WALL=1 — everywhere else it prints
# the deltas and moves on. With the gate on, >25% slowdown on any blessed
# wall_ms_* key fails, and comparing nothing is an error (a gate must
# never pass vacuously).
CEM_WALL_BASELINE_DIR="${CEM_WALL_BASELINE_DIR:-${REPO_ROOT}/bench/baselines-wall}"
wall_compared=0
shopt -s nullglob
for base in "${CEM_WALL_BASELINE_DIR}"/BENCH_*.json; do
  report="${BENCH_JSON_DIR}/$(basename "${base}")"
  if [[ ! -f "${report}" ]]; then
    echo "-- $(basename "${base}"): baseline has no current report; skipped"
    continue
  fi
  echo "-- $(basename "${base}")"
  if [[ "${CEM_CI_GATE_WALL:-0}" == "1" ]]; then
    "${BUILD_DIR}/bench_diff" "${base}" "${report}" --gate-wall 0.25
  else
    "${BUILD_DIR}/bench_diff" "${base}" "${report}"
  fi
  wall_compared=$((wall_compared + 1))
done
shopt -u nullglob
if [[ "${wall_compared}" -eq 0 ]]; then
  if [[ "${CEM_CI_GATE_WALL:-0}" == "1" ]]; then
    echo "error: CEM_CI_GATE_WALL=1 but no wall baselines matched a report" \
      "under ${CEM_WALL_BASELINE_DIR}; bless them on this runner with" \
      "CEM_BLESS_WALL=1 ci/update_baselines.sh" >&2
    exit 1
  fi
  echo "-- no wall baselines under ${CEM_WALL_BASELINE_DIR}; informational" \
    "run only (bless with CEM_BLESS_WALL=1 ci/update_baselines.sh)"
fi

echo "== observability exports (dedup_tool --metrics-json/--trace-json)"
# Exercise the operational surface end to end on a tiny streamed workload,
# then schema-check both artifacts: the metrics object must carry integral
# counter_* keys and numeric wall_ms_/gauge_/hist_ keys; the trace must be
# one well-formed trace_event JSON array.
OBS_DIR="${BUILD_DIR}/obs-json"
rm -rf "${OBS_DIR}"
mkdir -p "${OBS_DIR}"
"${BUILD_DIR}/dedup_tool" --generate dblp --scale 0.05 --stream \
  --metrics-json="${OBS_DIR}/metrics.json" \
  --trace-json="${OBS_DIR}/trace.json" > /dev/null
"${BUILD_DIR}/bench_diff" --check-metrics "${OBS_DIR}/metrics.json"
"${BUILD_DIR}/bench_diff" --check-trace "${OBS_DIR}/trace.json"

echo "== live stats endpoint (dedup_tool --serve --stats-port)"
# Boot a served ingest with the stats listener on an ephemeral port,
# scrape every endpoint over loopback (bash /dev/tcp — no curl
# dependency), and schema-check the scrapes: /metrics must be valid
# Prometheus text exposition, /metrics.json the same flat-JSON schema as
# the file export, /healthz healthy. The ready file is the handshake:
# the tool publishes its port there and stays alive until we delete it,
# so the scrapes never race the run's natural exit; the tool's own clean
# exit afterwards proves the server shut down in an orderly way.
STATS_READY="${OBS_DIR}/stats.port"
"${BUILD_DIR}/dedup_tool" --generate dblp --scale 0.05 --stream --serve \
  --qps 2000 --stats-port 0 --stats-ready-file "${STATS_READY}" \
  --slow-query-log "${OBS_DIR}/slowlog.json" --slow-query-us 0 \
  > "${OBS_DIR}/serve.log" &
TOOL_PID=$!
for _ in $(seq 1 100); do
  [[ -s "${STATS_READY}" ]] && break
  sleep 0.1
done
[[ -s "${STATS_READY}" ]] || {
  echo "error: stats server never published its port" >&2
  kill "${TOOL_PID}" 2> /dev/null || true
  exit 1
}
STATS_PORT="$(cat "${STATS_READY}")"
scrape() { # scrape <path> <outfile>: body of one HTTP/1.0 GET
  exec 9<> "/dev/tcp/127.0.0.1/${STATS_PORT}"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&9
  sed -e '1,/^\r$/d' <&9 > "$2"
  exec 9>&-
}
scrape /metrics "${OBS_DIR}/scrape.prom"
scrape /metrics.json "${OBS_DIR}/scrape.json"
scrape /slowlog.json "${OBS_DIR}/scrape_slowlog.json"
scrape /healthz "${OBS_DIR}/scrape_healthz.txt"
"${BUILD_DIR}/bench_diff" --check-prometheus "${OBS_DIR}/scrape.prom"
"${BUILD_DIR}/bench_diff" --check-metrics "${OBS_DIR}/scrape.json"
grep -q '^ok$' "${OBS_DIR}/scrape_healthz.txt" || {
  echo "error: /healthz scrape was not healthy:" >&2
  cat "${OBS_DIR}/scrape_healthz.txt" >&2
  kill "${TOOL_PID}" 2> /dev/null || true
  exit 1
}
rm -f "${STATS_READY}"  # Release the handshake; the tool may now exit.
wait "${TOOL_PID}"
# The served run's slow-query log (threshold 0: every query) must be a
# JSON array with at least one traced query.
grep -q '"query_id"' "${OBS_DIR}/slowlog.json" || {
  echo "error: --slow-query-log produced no traced queries" >&2
  exit 1
}

if [[ "${CEM_CI_SKIP_ASAN:-0}" != "1" ]]; then
  echo "== ASAN+UBSAN configure (${ASAN_BUILD_DIR})"
  cmake -B "${ASAN_BUILD_DIR}" -S "${REPO_ROOT}" \
    -DCEM_SANITIZE="address;undefined" -DCEM_BUILD_BENCH=OFF \
    -DCEM_BUILD_EXAMPLES=OFF "${CMAKE_EXTRA_ARGS[@]}"

  echo "== ASAN+UBSAN build (-j${JOBS})"
  cmake --build "${ASAN_BUILD_DIR}" -j "${JOBS}"

  echo "== ASAN+UBSAN ctest -L tier1"
  ctest --test-dir "${ASAN_BUILD_DIR}" -L tier1 -j "${JOBS}" --output-on-failure

  # The crash-recovery suite is the one place the code deliberately reads
  # torn, flipped and truncated bytes back in; re-run it on its own under
  # ASAN+UBSAN (binaries invoked directly — ctest's discovered names are
  # Suite.Case and would not match a -R on the binary name) so a decoder
  # overrun can never hide behind a flaky tier-1 shard.
  echo "== ASAN+UBSAN crash-recovery suite"
  "${ASAN_BUILD_DIR}/persist_test"
  "${ASAN_BUILD_DIR}/crash_recovery_test"
fi

if [[ "${CEM_CI_SKIP_TSAN:-0}" != "1" ]]; then
  echo "== TSAN configure (${TSAN_BUILD_DIR})"
  cmake -B "${TSAN_BUILD_DIR}" -S "${REPO_ROOT}" \
    -DCEM_SANITIZE=thread -DCEM_BUILD_BENCH=OFF -DCEM_BUILD_EXAMPLES=OFF \
    "${CMAKE_EXTRA_ARGS[@]}"

  echo "== TSAN build (-j${JOBS})"
  cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}"

  echo "== TSAN ctest -L concurrency"
  ctest --test-dir "${TSAN_BUILD_DIR}" -L concurrency -j "${JOBS}" \
    --output-on-failure
fi

echo "== OK"
