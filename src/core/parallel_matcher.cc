#include "src/core/parallel_matcher.h"

#include <algorithm>
#include <vector>

#include "src/core/block_matcher.h"
#include "src/core/memo.h"
#include "src/core/predicate_order.h"
#include "src/util/stopwatch.h"

namespace emdbg {

ParallelMemoMatcher::ParallelMemoMatcher(Options options)
    : options_(options) {}

ThreadPool& ParallelMemoMatcher::pool() {
  if (options_.pool != nullptr) return *options_.pool;
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return *owned_pool_;
}

MatchResult ParallelMemoMatcher::Run(const MatchingFunction& fn,
                                     const CandidateSet& pairs,
                                     PairContext& ctx,
                                     const RunControl& control) {
  DenseMemo memo(pairs.size(), ctx.catalog().size());
  return RunImpl(fn, pairs, ctx, nullptr, memo, control);
}

MatchResult ParallelMemoMatcher::RunWithMemo(const MatchingFunction& fn,
                                             const CandidateSet& pairs,
                                             PairContext& ctx, Memo& memo,
                                             const RunControl& control) {
  if (!memo.SafeForConcurrentRows() && pool().num_workers() > 1) {
    return MatchResult::NotStarted(
        pairs.size(),
        Status::InvalidArgument(
            "memo is not safe for concurrent Store (HashMemo rehash moves "
            "every bucket); use DenseMemo or run single-threaded"));
  }
  return RunImpl(fn, pairs, ctx, nullptr, memo, control);
}

MatchResult ParallelMemoMatcher::RunWithState(const MatchingFunction& fn,
                                              const CandidateSet& pairs,
                                              PairContext& ctx,
                                              MatchState& state,
                                              const RunControl& control) {
  Status begun = state.BeginRun(fn, pairs.size(), ctx.catalog().size());
  if (!begun.ok()) return MatchResult::NotStarted(pairs.size(), begun);
  MatchResult result =
      RunImpl(fn, pairs, ctx, &state, state.memo(), control);
  state.matches() = result.matches;
  return result;
}

MatchResult ParallelMemoMatcher::RunImpl(const MatchingFunction& fn,
                                         const CandidateSet& pairs,
                                         PairContext& ctx,
                                         MatchState* state, Memo& memo,
                                         const RunControl& control) {
  ThreadPool& pool = this->pool();
  if (options_.block_size != kPerPairLoop) {
    const BlockMatcher::Options block_options{
        .block_size = options_.block_size,
        .cost_model = options_.cost_model,
        .budget = options_.budget,
        .pool = &pool};
    // A caller grain in pairs converts to whole blocks.
    const size_t block = BlockMatcher::ResolveBlockSize(block_options, fn);
    const BlockMatcher::Schedule schedule{
        .grain = options_.grain == 0
                     ? 0
                     : std::max<size_t>(1, options_.grain / block),
        .steal = options_.dynamic_schedule,
        .per_worker_stats = options_.per_worker_stats};
    return BlockMatcher(block_options)
        .RunImpl(fn, pairs, ctx, state, &memo, control, schedule);
  }

  Stopwatch timer;
  const size_t workers = pool.num_workers();
  // Serial phase: make all shared context state read-only for workers.
  ctx.Prewarm(fn.UsedFeatures(), &pool);

  MatchResult result;
  result.matches = Bitmap(pairs.size());
  result.MarkComplete(pairs.size());

  struct alignas(64) WorkerState {
    MatchStats stats;
    PredicateOrderScratch scratch;
  };
  // Per-worker scratch is small but scales with the worker count —
  // reserve it (sizeof plus a conservative allowance for the
  // predicate-order buffers each scratch grows) so a fleet of matchers
  // under one budget degrades cleanly instead of creeping past it.
  constexpr size_t kScratchAllowance = 4096;
  Result<MemoryReservation> scratch_bytes = MemoryReservation::Make(
      options_.budget, workers * (sizeof(WorkerState) + kScratchAllowance),
      "match.scratch");
  if (!scratch_bytes.ok()) {
    return MatchResult::NotStarted(pairs.size(), scratch_bytes.status());
  }
  std::vector<WorkerState> worker_state(workers);

  // Per-pair body. Every access is indexed by the pair `i` being
  // evaluated: memo row i, bit i of the match/decision bitmaps. Chunks
  // are 64-aligned, so workers never share a bitmap word and no
  // synchronization is needed (see ThreadPool's alignment contract).
  auto body = [&](size_t w, size_t i) {
    WorkerState& ws = worker_state[w];
    const PairId pair = pairs.pair(i);
    for (const Rule& rule : fn.rules()) {
      if (rule.empty()) continue;
      ++ws.stats.rule_evaluations;
      const uint32_t* order =
          ws.scratch.Build(rule, memo, i, options_.check_cache_first);
      bool rule_true = true;
      for (size_t k = 0; k < rule.size(); ++k) {
        const Predicate& p = rule.predicate(order[k]);
        ++ws.stats.predicate_evaluations;
        double value = 0.0;
        if (memo.Lookup(i, p.feature, &value)) {
          ++ws.stats.memo_hits;
        } else {
          value = ctx.ComputeFeature(p.feature, pair);
          memo.Store(i, p.feature, value);
          ++ws.stats.feature_computations;
        }
        if (!p.Test(value)) {
          rule_true = false;
          if (state != nullptr) state->PredFalse(p.id).Set(i);
          break;  // early exit: rule is false
        }
      }
      if (rule_true) {
        result.matches.Set(i);
        if (state != nullptr) state->RuleTrue(rule.id()).Set(i);
        break;  // early exit: pair is a match
      }
    }
  };

  const ThreadPool::ForResult run = pool.ParallelFor(
      pairs.size(), control, body,
      ThreadPool::ForOptions{.grain = options_.grain,
                             .steal = options_.dynamic_schedule});

  for (const WorkerState& ws : worker_state) result.stats += ws.stats;
  if (options_.per_worker_stats != nullptr) {
    options_.per_worker_stats->clear();
    for (const WorkerState& ws : worker_state) {
      options_.per_worker_stats->push_back(ws.stats);
    }
  }
  if (run.stopped) {
    // Exact partial contract: valid bits are precisely the pairs whose
    // evaluation ran to completion.
    result.partial = true;
    result.status = run.status;
    result.evaluated = Bitmap(pairs.size());
    result.pairs_completed = run.items_completed;
    for (const auto& [begin, end] : run.completed) {
      for (size_t i = begin; i < end; ++i) result.evaluated.Set(i);
    }
  }
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace emdbg
