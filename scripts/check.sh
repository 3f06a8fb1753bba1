#!/usr/bin/env bash
# Build-and-test gate for emdbg.
#
#   scripts/check.sh                 # release build + full test suite
#   scripts/check.sh asan            # AddressSanitizer build + tests
#   scripts/check.sh tsan            # ThreadSanitizer build + the
#                                    #   thread-pool / parallel-matcher /
#                                    #   incremental / session tests (the
#                                    #   concurrent paths; EMDBG_TSAN_ALL=1
#                                    #   runs the whole suite)
#   scripts/check.sh ubsan           # UBSan build + the arithmetic-heavy,
#                                    #   budget/governor and checkpoint/
#                                    #   journal-parsing tests
#                                    #   (EMDBG_UBSAN_ALL=1 = whole suite)
#   scripts/check.sh all             # release, asan, tsan, then ubsan
#
# Each mode uses its own build directory (build/, build-asan/,
# build-tsan/, build-ubsan/) so switching sanitizers never requires a
# clean; the sanitizer modes configure through the CMake presets in
# CMakePresets.json.

set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

# The tests that exercise concurrency: the work-stealing pool itself and
# everything that fans out over it (parallel matcher, the pooled block
# engine's reruns and concurrent span writes, pooled incremental and
# session differentials, multi-threaded sessions, the shard driver's
# pooled shards, spill IO thread and shared spill directories, prewarm,
# cancellation drains), plus the serve layer (worker pool + poll loop +
# per-session queues), its wire protocol, the soak test, and fault
# injection (its registry is read from every worker thread).
tsan_filter='ThreadPool|Parallel|WorkerPool|MultiThreaded|Cancel'
tsan_filter+='|PooledBlockRerun|ConcurrentOrSpans|GatheredEdit|ShardDriver'
tsan_filter+='|Server|Soak|Wire|SessionDigest|Fault'

# UBSan focuses on the arithmetic-heavy kernels (similarity, CRC,
# bit-parallel Levenshtein, TF-IDF weights) and the resource-governor
# accounting, whose size_t charge/rollback/saturation paths are exactly
# where unsigned wraparound bugs would live, and the parsers of on-disk
# checkpoints and journals (size and index arithmetic on file input),
# and the session's one edit path: typed and line edits, undo with its
# id remap, and journal replay (DurableSession holds the replay
# differential).
ubsan_filter='Similarity|Levenshtein|Jaro|Cosine|Tfidf|SoftTfidf|Crc32c'
ubsan_filter+='|Numeric|MongeElkan|Alignment|Interner|IdKernels'
ubsan_filter+='|MemoryBudget|BudgetFault|Governor|Memo|Bitmap'
ubsan_filter+='|StateIo|DurableSession|JournalFault|RulesIo'
ubsan_filter+='|EditLog|DebugSession'

run_mode() {
  local mode="$1" dir
  case "$mode" in
    release) dir=build ;;
    asan)    dir=build-asan ;;
    tsan)    dir=build-tsan ;;
    ubsan)   dir=build-ubsan ;;
    *) echo "unknown mode '$mode' (want release, asan, tsan, ubsan, or all)" >&2
       exit 2 ;;
  esac

  echo "==> [$mode] configure"
  if [ "$mode" = release ]; then
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  else
    cmake --preset "$mode" >/dev/null
  fi

  echo "==> [$mode] build"
  cmake --build "$dir" -j "$jobs"

  echo "==> [$mode] test"
  if [ "$mode" = tsan ] && [ "${EMDBG_TSAN_ALL:-0}" != 1 ]; then
    ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
      -R "$tsan_filter"
  elif [ "$mode" = ubsan ] && [ "${EMDBG_UBSAN_ALL:-0}" != 1 ]; then
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
      ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
      -R "$ubsan_filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  fi
}

case "${1:-release}" in
  all)
    run_mode release
    run_mode asan
    run_mode tsan
    run_mode ubsan
    ;;
  *)
    run_mode "${1:-release}"
    ;;
esac

echo "==> all checks passed"
