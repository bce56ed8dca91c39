#!/usr/bin/env bash
# Minimal CI entry point: configure, build, and run the tier-1 suite.
#
# Usage: tools/run_tier1.sh [--tsan|--asan|--ubsan] [extra cmake args...]
#
#   (default)  Release build in build/, full ctest suite, plus eight
#              CLI smokes:
#              - crossval: the chunk-sim timing backend end to end;
#              - explore: explore-frontier under --explore prune;
#                both assert byte-identical matrix JSON at 2 and 4
#                threads, fresh and cached;
#              - fault: the golden matrix under injected cache-I/O
#                faults is byte-identical to the fault-free cached
#                run (docs/ROBUSTNESS.md);
#              - serve: one-shot vs disk-served vs LRU-served golden
#                payloads are byte-identical, and a nesting-bomb
#                request is refused (docs/SERVE.md);
#              - kill-9 resume: a SIGKILLed cached run, rerun over the
#                same cache, is byte-identical and serves every point
#                that reached the cache from it (docs/ROBUSTNESS.md);
#              - hostile study: oversized network shapes and an
#                objective that overflows everywhere exit 1 with
#                "fatal:", never 2 or a signal (docs/ROBUSTNESS.md);
#              - simd: a LIBRA_SIMD=off build emits the default
#                build's golden matrix JSON byte for byte
#                (docs/PERF.md);
#              - objective bench: BENCH_objective.json carries the
#                tracked speedup metrics.
#   --tsan     ThreadSanitizer build in build-tsan/; runs the threading
#              contract tests (thread pool, parallel determinism, the
#              scenario-matrix engine whose sweeps exercise
#              runLibraSweep, the timing-backend layer, and the
#              explore layer whose prune rounds re-enter the sweep)
#              under TSan.
#   --asan     AddressSanitizer (+UBSan) build in build-asan/; runs the
#              full suite.
#   --ubsan    Standalone UndefinedBehaviorSanitizer build in
#              build-ubsan/; runs the full suite with UB traps fatal,
#              without ASan's memory overhead.
#
# Sanitizer builds use a separate build directory so they never poison
# the Release object cache, and -O1 -g for usable stacks.
#
# CI builds promote the always-on -Wall -Wextra to -Werror
# (LIBRA_WERROR), so new warnings fail tier-1 instead of accumulating.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

MODE=""
ARGS=()
for arg in "$@"; do
  case "${arg}" in
    --tsan) MODE="tsan" ;;
    --asan) MODE="asan" ;;
    --ubsan) MODE="ubsan" ;;
    *) ARGS+=("${arg}") ;;
  esac
done

BUILD_DIR="build"
CMAKE_EXTRA=(-DLIBRA_WERROR=ON)
CTEST_EXTRA=()
case "${MODE}" in
  tsan)
    BUILD_DIR="build-tsan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=thread -g -O1 -fno-omit-frame-pointer"
      -DLIBRA_BUILD_BENCH=OFF
      -DLIBRA_BUILD_EXAMPLES=OFF
    )
    # The PR 1 threading contract: pool mechanics, bit-identical
    # results at any thread count, the batched matrix sweeps, the
    # timing-backend layer (collective plan + crossval fuzz),
    # the fault-tolerance layer (isolated sweeps, injector counters,
    # and line-atomic logging under concurrent cache warnings), the
    # cache-concurrency hammer, and the serve subsystem (LRU +
    # single-flight + socket server; docs/SERVE.md).
    CTEST_EXTRA+=(-R 'test_thread_pool|test_parallel_determinism|test_study_engine|test_timing_backend|test_sim_crossval|test_explore|test_cache_faults|test_cache_concurrency|test_serve|test_objective_kernels')
    ;;
  asan)
    BUILD_DIR="build-asan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -g -O1 -fno-omit-frame-pointer"
      -DLIBRA_BUILD_BENCH=OFF
      -DLIBRA_BUILD_EXAMPLES=OFF
    )
    ;;
  ubsan)
    BUILD_DIR="build-ubsan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=undefined -fno-sanitize-recover=undefined -g -O1 -fno-omit-frame-pointer"
      -DLIBRA_BUILD_BENCH=OFF
      -DLIBRA_BUILD_EXAMPLES=OFF
    )
    ;;
esac

cmake -B "${BUILD_DIR}" -S . "${CMAKE_EXTRA[@]}" ${ARGS+"${ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j"${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"${JOBS}" \
  ${CTEST_EXTRA+"${CTEST_EXTRA[@]}"}

if [[ -z "${MODE}" ]]; then
  # Crossval smoke: the chunk-sim backend end to end through the CLI.
  # The matrix JSON must be byte-identical at different thread counts,
  # freshly computed (separate caches) or served from cache (the
  # acceptance contract of the timing-backend layer; docs/BACKENDS.md).
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "${SMOKE_DIR}"' EXIT
  "${BUILD_DIR}/libra_cli" run-matrix crossval --backend chunk-sim \
    --emit json --cache-dir "${SMOKE_DIR}/cache2" \
    --out "${SMOKE_DIR}/fresh2.json" --threads 2
  "${BUILD_DIR}/libra_cli" run-matrix crossval --backend chunk-sim \
    --emit json --cache-dir "${SMOKE_DIR}/cache4" \
    --out "${SMOKE_DIR}/fresh4.json" --threads 4
  "${BUILD_DIR}/libra_cli" run-matrix crossval --backend chunk-sim \
    --emit json --cache-dir "${SMOKE_DIR}/cache2" \
    --out "${SMOKE_DIR}/cached.json" --threads 4
  cmp "${SMOKE_DIR}/fresh2.json" "${SMOKE_DIR}/fresh4.json"
  cmp "${SMOKE_DIR}/fresh2.json" "${SMOKE_DIR}/cached.json"
  echo "crossval smoke: byte-identical matrix JSON (fresh 2t vs fresh 4t vs cached)"

  # Explore smoke: the design-space layer end to end through the CLI.
  # The prune strategy's screening rounds and promotions must emit
  # byte-identical matrix JSON at different thread counts, freshly
  # computed or served from cache (docs/EXPLORE.md).
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --emit json --cache-dir "${SMOKE_DIR}/xcache2" \
    --out "${SMOKE_DIR}/xfresh2.json" --threads 2
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --emit json --cache-dir "${SMOKE_DIR}/xcache4" \
    --out "${SMOKE_DIR}/xfresh4.json" --threads 4
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --emit json --cache-dir "${SMOKE_DIR}/xcache2" \
    --out "${SMOKE_DIR}/xcached.json" --threads 4
  cmp "${SMOKE_DIR}/xfresh2.json" "${SMOKE_DIR}/xfresh4.json"
  cmp "${SMOKE_DIR}/xfresh2.json" "${SMOKE_DIR}/xcached.json"
  echo "explore smoke: byte-identical matrix JSON (fresh 2t vs fresh 4t vs cached)"

  # Fault-injection smoke: the cache is strictly best-effort, so a
  # golden matrix run with injected cache-I/O faults — fresh, and again
  # over the (partially poisoned) cache it left behind — must emit
  # byte-identical JSON to the fault-free cached run
  # (docs/ROBUSTNESS.md).
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --emit json --cache-dir "${SMOKE_DIR}/fcache" \
    --out "${SMOKE_DIR}/fclean.json"
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --faults "cache-load-read=0.25,cache-store-write=0.25,cache-store-rename=0.25,seed=7" \
    --emit json --cache-dir "${SMOKE_DIR}/fcache" \
    --out "${SMOKE_DIR}/ffaulty.json"
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --faults "cache-load-read=0.25,seed=8" \
    --emit json --cache-dir "${SMOKE_DIR}/fcache" \
    --out "${SMOKE_DIR}/ffaulty2.json"
  cmp "${SMOKE_DIR}/fclean.json" "${SMOKE_DIR}/ffaulty.json"
  cmp "${SMOKE_DIR}/fclean.json" "${SMOKE_DIR}/ffaulty2.json"
  echo "fault smoke: byte-identical matrix JSON under injected cache-I/O faults"

  # Serve smoke: the study service end to end through the CLI
  # (docs/SERVE.md). The one-shot run warms a disk cache; a server
  # over that cache answers the golden-group request twice. Both
  # payloads must be byte-identical to the one-shot emission; the
  # first is disk-served (promoted into the LRU), the second must be
  # served entirely from memory (computed == 0 on its status line,
  # LRU hits visible in the stats op).
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --emit json --cache-dir "${SMOKE_DIR}/scache" \
    --out "${SMOKE_DIR}/soneshot.json"
  "${BUILD_DIR}/libra_cli" serve --socket "${SMOKE_DIR}/serve.sock" \
    --cache-dir "${SMOKE_DIR}/scache" &
  SERVE_PID=$!
  for _ in $(seq 50); do
    [[ -S "${SMOKE_DIR}/serve.sock" ]] && break
    sleep 0.1
  done
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"scenario": "golden", "emit": "json"}' \
    > "${SMOKE_DIR}/sfirst.json" 2> "${SMOKE_DIR}/sfirst.status"
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"scenario": "golden", "emit": "json"}' \
    > "${SMOKE_DIR}/ssecond.json" 2> "${SMOKE_DIR}/ssecond.status"
  # Hostile client: a 200,000-byte line of '[' must be answered with
  # ok:false by the JSON depth limit, not crash the server, and ping
  # must still answer afterwards (docs/ROBUSTNESS.md).
  if head -c 200000 /dev/zero | tr '\0' '[' | \
    "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    - > /dev/null 2> "${SMOKE_DIR}/sbomb.status"; then
    echo "serve smoke: the nesting-bomb request was not refused" >&2
    exit 1
  fi
  grep -q '"ok":false' "${SMOKE_DIR}/sbomb.status"
  grep -q 'nesting deeper' "${SMOKE_DIR}/sbomb.status"
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"op": "ping"}' > /dev/null 2> "${SMOKE_DIR}/sping.status"
  grep -q '"ok":true' "${SMOKE_DIR}/sping.status"
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"op": "stats"}' > "${SMOKE_DIR}/sstats.json" 2> /dev/null
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"op": "shutdown"}' > /dev/null 2>&1
  wait "${SERVE_PID}"
  cmp "${SMOKE_DIR}/soneshot.json" "${SMOKE_DIR}/sfirst.json"
  cmp "${SMOKE_DIR}/soneshot.json" "${SMOKE_DIR}/ssecond.json"
  grep -q '"computed":0,' "${SMOKE_DIR}/ssecond.status"
  grep -Eq '"lruHits": [1-9]' "${SMOKE_DIR}/sstats.json"
  echo "serve smoke: byte-identical golden payloads (one-shot vs disk-served vs LRU-served); nesting bomb refused, ping still answered"

  # Kill-9 resume smoke: every computed point is stored as it lands,
  # so the cache is the only checkpoint. SIGKILL a cached run once the
  # cache holds an entry, then rerun over the same cache: the output
  # must be byte-identical to an uninterrupted run, and every entry
  # present at the kill must be served from the cache
  # (docs/ROBUSTNESS.md). Covers the static batch and adaptive prune.
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier \
    --emit json --out "${SMOKE_DIR}/ksingle.json"
  kill9_resume() {
    local name="$1" ref="$2"
    shift 2
    local cache="${SMOKE_DIR}/kcache-${name}"
    "${BUILD_DIR}/libra_cli" run-matrix explore-frontier "$@" \
      --cache-dir "${cache}" --emit json --out /dev/null 2>/dev/null &
    local pid=$!
    for _ in $(seq 12000); do
      compgen -G "${cache}/*.json" > /dev/null && break
      kill -0 "${pid}" 2>/dev/null || break
      sleep 0.005
    done
    kill -9 "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
    local entries
    entries="$(find "${cache}" -maxdepth 1 -name '*.json' | wc -l)"
    [[ "${entries}" -ge 1 ]]
    "${BUILD_DIR}/libra_cli" run-matrix explore-frontier "$@" \
      --cache-dir "${cache}" --emit json \
      --out "${SMOKE_DIR}/kresumed-${name}.json" \
      2> "${SMOKE_DIR}/kresumed-${name}.status"
    cmp "${ref}" "${SMOKE_DIR}/kresumed-${name}.json"
    local fromcache
    fromcache="$(sed -nE 's/.*unique, ([0-9]+) from cache.*/\1/p' \
      "${SMOKE_DIR}/kresumed-${name}.status")"
    [[ "${fromcache}" -ge "${entries}" ]]
    echo "kill-9 resume smoke (${name}): ${entries} entries at the kill, rerun byte-identical with ${fromcache} points from cache"
  }
  kill9_resume batch "${SMOKE_DIR}/ksingle.json"
  kill9_resume prune "${SMOKE_DIR}/xfresh2.json" --explore prune

  # Hostile-study smoke: each study must fail as a user error, exit
  # code 1 with "fatal:" on stderr, never as an internal error (2) or
  # a signal (docs/ROBUSTNESS.md, "Hostile and non-finite inputs").
  hostile_study() {
    local study="${SMOKE_DIR}/hostile.study" status=0
    printf '%s\n' "$@" > "${study}"
    "${BUILD_DIR}/libra_cli" "${study}" > /dev/null \
      2> "${SMOKE_DIR}/hostile.err" || status=$?
    if [[ "${status}" -ne 1 ]] || \
      ! grep -q 'fatal:' "${SMOKE_DIR}/hostile.err"; then
      echo "hostile-study smoke: '$*' exited ${status}, not 1 with fatal:" >&2
      cat "${SMOKE_DIR}/hostile.err" >&2
      exit 1
    fi
  }
  for net in 'RI(99999999999999999999)' 'RI(4)_SW(4:99999999999)' \
    'RI(2147483647)_FC(2147483647)_SW(2147483647)' \
    'RI(65536)_FC(65536)_SW(65536)_RI(65536)'; do
    hostile_study "NETWORK ${net}" 'TOTAL_BW 500' 'WORKLOAD gpt3'
  done
  hostile_study 'NETWORK RI(4)_FC(8)' 'TOTAL_BW 500' \
    'WORKLOAD gpt3 WEIGHT 1e308'
  echo "hostile-study smoke: 5 hostile studies exit 1 with fatal:"

  # SIMD smoke: the batched candidate-major kernels promise results
  # bit-identical to the scalar fallback (docs/PERF.md), so a golden
  # matrix run from a LIBRA_SIMD=off build must emit byte-identical
  # JSON to the default (auto) build — fresh at 1 thread, then served
  # from each build's own cache at 8 threads.
  cmake -B build-simd-off -S . -DLIBRA_WERROR=ON -DLIBRA_SIMD=off \
    -DLIBRA_BUILD_TESTS=OFF -DLIBRA_BUILD_BENCH=OFF \
    -DLIBRA_BUILD_EXAMPLES=OFF
  cmake --build build-simd-off -j"${JOBS}" --target libra_cli
  for t in 1 8; do
    "${BUILD_DIR}/libra_cli" run-matrix golden --emit json \
      --cache-dir "${SMOKE_DIR}/simd-auto-cache" \
      --out "${SMOKE_DIR}/simd-auto-${t}t.json" --threads "${t}"
    build-simd-off/libra_cli run-matrix golden --emit json \
      --cache-dir "${SMOKE_DIR}/simd-off-cache" \
      --out "${SMOKE_DIR}/simd-off-${t}t.json" --threads "${t}"
    cmp "${SMOKE_DIR}/simd-auto-${t}t.json" \
      "${SMOKE_DIR}/simd-off-${t}t.json"
  done
  cmp "${SMOKE_DIR}/simd-auto-1t.json" "${SMOKE_DIR}/simd-auto-8t.json"
  echo "simd smoke: byte-identical matrix JSON (LIBRA_SIMD=off vs auto, fresh 1t vs cached 8t)"

  # Objective-throughput smoke: the bench must run and emit parseable
  # metrics with the SIMD batch speedup the perf docs track.
  BENCH_BIN="$(pwd)/${BUILD_DIR}/micro_objective_eval"
  (cd "${SMOKE_DIR}" && "${BENCH_BIN}")
  grep -q '"batch_speedup_vs_soa":' "${SMOKE_DIR}/BENCH_objective.json"
  echo "objective bench smoke: BENCH_objective.json emitted with speedup metrics"
fi
