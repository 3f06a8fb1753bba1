#include "src/core/memo_matcher.h"

#include <vector>

#include "src/core/predicate_order.h"
#include "src/util/stopwatch.h"

namespace emdbg {

MatchResult MemoMatcher::Run(const MatchingFunction& fn,
                             const CandidateSet& pairs, PairContext& ctx,
                             const RunControl& control) {
  DenseMemo memo(pairs.size(), ctx.catalog().size());
  return RunImpl(fn, pairs, ctx, nullptr, memo, control);
}

MatchResult MemoMatcher::RunWithMemo(const MatchingFunction& fn,
                                     const CandidateSet& pairs,
                                     PairContext& ctx, Memo& memo,
                                     const RunControl& control) {
  return RunImpl(fn, pairs, ctx, nullptr, memo, control);
}

MatchResult MemoMatcher::RunWithState(const MatchingFunction& fn,
                                      const CandidateSet& pairs,
                                      PairContext& ctx, MatchState& state,
                                      const RunControl& control) {
  // Budget-aware allocation: a session over quota gets a clean
  // ResourceExhausted result (zero pairs evaluated, state untouched)
  // instead of bad_alloc.
  Status begun = state.BeginRun(fn, pairs.size(), ctx.catalog().size());
  if (!begun.ok()) return MatchResult::NotStarted(pairs.size(), begun);
  MatchResult result = RunImpl(fn, pairs, ctx, &state, state.memo(),
                               control);
  state.matches() = result.matches;
  return result;
}

MatchResult MemoMatcher::RunImpl(const MatchingFunction& fn,
                                 const CandidateSet& pairs, PairContext& ctx,
                                 MatchState* state, Memo& memo,
                                 const RunControl& control) {
  Stopwatch timer;
  StopCheck stop(control);
  MatchResult result;
  result.matches = Bitmap(pairs.size());
  result.MarkComplete(pairs.size());

  // Scratch order buffer reused across pairs (check-cache-first).
  PredicateOrderScratch scratch;

  for (size_t i = 0; i < pairs.size(); ++i) {
    if (stop.ShouldStop()) {
      result.MarkPartialPrefix(i, pairs.size(), stop.Reason());
      break;
    }
    const PairId pair = pairs.pair(i);
    for (const Rule& rule : fn.rules()) {
      if (rule.empty()) continue;
      ++result.stats.rule_evaluations;

      const uint32_t* order =
          scratch.Build(rule, memo, i, options_.check_cache_first);

      bool rule_true = true;
      for (size_t k = 0; k < rule.size(); ++k) {
        const Predicate& p = rule.predicate(order[k]);
        ++result.stats.predicate_evaluations;
        double value = 0.0;
        if (memo.Lookup(i, p.feature, &value)) {
          ++result.stats.memo_hits;
        } else {
          value = ctx.ComputeFeature(p.feature, pair);
          memo.Store(i, p.feature, value);
          ++result.stats.feature_computations;
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
  }
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace emdbg
