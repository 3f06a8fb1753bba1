#include "src/core/parallel_matcher.h"

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "src/util/cancellation.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

class ParallelMatcherTest : public ::testing::Test {
 protected:
  ParallelMatcherTest() : ds_(testing::SmallProducts()) {
    catalog_ = FeatureCatalog(ds_.a.schema(), ds_.b.schema());
    catalog_.InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_.a, ds_.b, catalog_);
    Rng rng(1);
    sample_ = SamplePairs(ds_.candidates, 0.2, rng);
  }

  MatchingFunction Rules(size_t n, uint64_t seed) {
    RuleGeneratorConfig config;
    config.num_rules = n;
    config.seed = seed;
    RuleGenerator gen(*ctx_, sample_, config);
    return gen.Generate();
  }

  GeneratedDataset ds_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  CandidateSet sample_;
};

TEST_F(ParallelMatcherTest, AgreesWithSerialAcrossThreadCounts) {
  const MatchingFunction fn = Rules(10, 7);
  MemoMatcher serial;
  const Bitmap expected = serial.Run(fn, ds_.candidates, *ctx_).matches;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelMemoMatcher parallel(
        ParallelMemoMatcher::Options{.num_threads = threads});
    EXPECT_EQ(parallel.Run(fn, ds_.candidates, *ctx_).matches, expected)
        << threads << " threads";
  }
}

TEST_F(ParallelMatcherTest, InterningBitIdenticalSerialAndParallel) {
  // Same matching function evaluated three ways: serial with the string
  // kernels (interning off), serial with the interned-id fast path, and
  // parallel with the fast path — all three match bitmaps must be equal.
  const MatchingFunction fn = Rules(10, 19);
  PairContext ctx_off(
      ds_.a, ds_.b, catalog_,
      PairContext::Options{.cache_tokens = true, .intern_tokens = false});
  MemoMatcher serial;
  const Bitmap strings = serial.Run(fn, ds_.candidates, ctx_off).matches;
  const Bitmap ids = serial.Run(fn, ds_.candidates, *ctx_).matches;
  EXPECT_EQ(ids, strings);
  ParallelMemoMatcher parallel(
      ParallelMemoMatcher::Options{.num_threads = 4});
  PairContext ctx_fresh(ds_.a, ds_.b, catalog_);
  EXPECT_EQ(parallel.Run(fn, ds_.candidates, ctx_fresh).matches, strings);
}

TEST_F(ParallelMatcherTest, CheckCacheFirstVariantAgrees) {
  const MatchingFunction fn = Rules(8, 9);
  MemoMatcher serial;
  const Bitmap expected = serial.Run(fn, ds_.candidates, *ctx_).matches;
  ParallelMemoMatcher parallel(ParallelMemoMatcher::Options{
      .num_threads = 4, .check_cache_first = true});
  EXPECT_EQ(parallel.Run(fn, ds_.candidates, *ctx_).matches, expected);
}

TEST_F(ParallelMatcherTest, StatsAggregateAcrossThreads) {
  const MatchingFunction fn = Rules(6, 11);
  ParallelMemoMatcher parallel(
      ParallelMemoMatcher::Options{.num_threads = 4});
  const MatchResult result = parallel.Run(fn, ds_.candidates, *ctx_);
  // Same per-pair work as serial DM+EE: each pair evaluates every rule
  // until one fires, so rule_evaluations is bounded by pairs * rules and
  // at least pairs (non-empty rule set, unmatched pairs check all).
  EXPECT_GE(result.stats.rule_evaluations, ds_.candidates.size());
  EXPECT_LE(result.stats.rule_evaluations,
            ds_.candidates.size() * fn.num_rules());
  EXPECT_GT(result.stats.feature_computations, 0u);
}

TEST_F(ParallelMatcherTest, DeterministicMatchesAcrossRuns) {
  const MatchingFunction fn = Rules(8, 13);
  ParallelMemoMatcher parallel(
      ParallelMemoMatcher::Options{.num_threads = 4});
  const Bitmap first = parallel.Run(fn, ds_.candidates, *ctx_).matches;
  const Bitmap second = parallel.Run(fn, ds_.candidates, *ctx_).matches;
  EXPECT_EQ(first, second);
}

TEST_F(ParallelMatcherTest, EmptyFunctionAndEmptyPairs) {
  ParallelMemoMatcher parallel(
      ParallelMemoMatcher::Options{.num_threads = 4});
  EXPECT_EQ(
      parallel.Run(MatchingFunction(), ds_.candidates, *ctx_).MatchCount(),
      0u);
  const CandidateSet empty;
  const MatchingFunction fn = Rules(3, 15);
  EXPECT_EQ(parallel.Run(fn, empty, *ctx_).matches.size(), 0u);
}

TEST_F(ParallelMatcherTest, RunWithStateBitIdenticalToSerial) {
  // The engine's core guarantee: for every seed and thread count, the
  // parallel matcher's matches, work counters, and decision bitmaps are
  // bit-identical to the serial MemoMatcher's.
  for (const uint64_t seed : {5u, 23u, 41u}) {
    const MatchingFunction fn = Rules(8, seed);
    MemoMatcher serial(MemoMatcher::Options{.check_cache_first = true});
    MatchState want_state;
    const MatchResult want =
        serial.RunWithState(fn, ds_.candidates, *ctx_, want_state);
    const size_t n = ds_.candidates.size();
    const auto rule_true = [&](const MatchState& s, RuleId rid) {
      const Bitmap* bm = s.FindRuleTrue(rid);
      return bm != nullptr ? *bm : Bitmap(n);
    };
    const auto pred_false = [&](const MatchState& s, PredicateId pid) {
      const Bitmap* bm = s.FindPredFalse(pid);
      return bm != nullptr ? *bm : Bitmap(n);
    };
    for (const size_t threads : {2u, 3u, 8u}) {
      ThreadPool pool(threads);
      ParallelMemoMatcher parallel(ParallelMemoMatcher::Options{
          .check_cache_first = true, .pool = &pool});
      MatchState got_state;
      const MatchResult got =
          parallel.RunWithState(fn, ds_.candidates, *ctx_, got_state);
      ASSERT_EQ(got.matches, want.matches) << "seed " << seed << " threads "
                                           << threads;
      EXPECT_EQ(got_state.matches(), want_state.matches());
      EXPECT_EQ(got.stats.rule_evaluations, want.stats.rule_evaluations);
      EXPECT_EQ(got.stats.predicate_evaluations,
                want.stats.predicate_evaluations);
      EXPECT_EQ(got.stats.feature_computations,
                want.stats.feature_computations);
      EXPECT_EQ(got.stats.memo_hits, want.stats.memo_hits);
      EXPECT_EQ(got_state.memo().FilledCount(),
                want_state.memo().FilledCount());
      for (const Rule& r : fn.rules()) {
        EXPECT_EQ(rule_true(got_state, r.id()), rule_true(want_state, r.id()))
            << "rule " << r.id();
        for (const Predicate& p : r.predicates()) {
          EXPECT_EQ(pred_false(got_state, p.id), pred_false(want_state, p.id))
              << "predicate " << p.id;
        }
      }
    }
  }
}

TEST_F(ParallelMatcherTest, PerWorkerStatsSumToTotalWithNoLoss) {
  const MatchingFunction fn = Rules(8, 19);
  MemoMatcher serial;
  const MatchStats want = serial.Run(fn, ds_.candidates, *ctx_).stats;

  std::vector<MatchStats> per_worker;
  ThreadPool pool(4);
  ParallelMemoMatcher parallel(ParallelMemoMatcher::Options{
      .pool = &pool, .per_worker_stats = &per_worker});
  const MatchResult result = parallel.Run(fn, ds_.candidates, *ctx_);

  ASSERT_EQ(per_worker.size(), pool.num_workers());
  MatchStats sum;
  for (const MatchStats& s : per_worker) sum += s;
  // Dynamic scheduling must not lose or double-count any worker's
  // counters: the per-worker sum is the aggregate, which is exactly the
  // serial matcher's work.
  EXPECT_EQ(sum.rule_evaluations, result.stats.rule_evaluations);
  EXPECT_EQ(sum.predicate_evaluations, result.stats.predicate_evaluations);
  EXPECT_EQ(sum.feature_computations, result.stats.feature_computations);
  EXPECT_EQ(sum.memo_hits, result.stats.memo_hits);
  EXPECT_EQ(result.stats.rule_evaluations, want.rule_evaluations);
  EXPECT_EQ(result.stats.predicate_evaluations, want.predicate_evaluations);
  EXPECT_EQ(result.stats.feature_computations, want.feature_computations);
  EXPECT_EQ(result.stats.memo_hits, want.memo_hits);
}

TEST_F(ParallelMatcherTest, StaticScheduleAgreesWithDynamic) {
  const MatchingFunction fn = Rules(8, 29);
  ThreadPool pool(4);
  ParallelMemoMatcher dynamic(ParallelMemoMatcher::Options{.pool = &pool});
  ParallelMemoMatcher static_sched(ParallelMemoMatcher::Options{
      .pool = &pool, .dynamic_schedule = false});
  EXPECT_EQ(dynamic.Run(fn, ds_.candidates, *ctx_).matches,
            static_sched.Run(fn, ds_.candidates, *ctx_).matches);
}

TEST_F(ParallelMatcherTest, RejectsHashMemoWhenMultithreaded) {
  const MatchingFunction fn = Rules(4, 31);
  HashMemo memo;
  ParallelMemoMatcher parallel(
      ParallelMemoMatcher::Options{.num_threads = 4});
  const MatchResult r = parallel.RunWithMemo(fn, ds_.candidates, *ctx_, memo);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.pairs_completed, 0u);
  EXPECT_EQ(r.evaluated.Count(), 0u);
  EXPECT_EQ(memo.FilledCount(), 0u);

  // The same memo is fine single-threaded (no concurrent Store).
  ParallelMemoMatcher one(ParallelMemoMatcher::Options{.num_threads = 1});
  const MatchResult ok = one.RunWithMemo(fn, ds_.candidates, *ctx_, memo);
  EXPECT_FALSE(ok.partial);
  MemoMatcher serial;
  EXPECT_EQ(ok.matches, serial.Run(fn, ds_.candidates, *ctx_).matches);
}

TEST_F(ParallelMatcherTest, CancelledRunReportsExactEvaluatedBitmap) {
  // Mid-run cancellation under dynamic chunking: the partial result's
  // `evaluated` bitmap must name exactly the pairs whose evaluation
  // completed (a union of claimed chunks, not a prefix), and every
  // evaluated pair's match bit must agree with an uncancelled run.
  const MatchingFunction fn = Rules(10, 43);
  ThreadPool pool(4);
  ParallelMemoMatcher parallel(ParallelMemoMatcher::Options{.pool = &pool});
  const Bitmap expected = parallel.Run(fn, ds_.candidates, *ctx_).matches;

  // Race a canceller thread against the run a few times; whenever the
  // stop lands mid-run, the exactness contract must hold. (The
  // deterministic chunk-level exactness proof is in thread_pool_test;
  // this exercises the matcher-level translation to `evaluated`.)
  const size_t n = ds_.candidates.size();
  for (int attempt = 0; attempt < 8; ++attempt) {
    CancellationToken token;
    std::thread canceller([&] { token.RequestCancel(); });
    const MatchResult r =
        parallel.Run(fn, ds_.candidates, *ctx_, RunControl(token));
    canceller.join();
    if (!r.partial) continue;  // the run won the race; contract vacuous
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.evaluated.Count(), r.pairs_completed);
    EXPECT_LT(r.pairs_completed, n);
    for (size_t i = 0; i < n; ++i) {
      if (r.evaluated.Get(i)) {
        EXPECT_EQ(r.matches.Get(i), expected.Get(i)) << "pair " << i;
      } else {
        // Never-written bits stay unset — callers must not read them.
        EXPECT_FALSE(r.matches.Get(i)) << "pair " << i;
      }
    }
  }
  // Pre-cancelled runs always stop with nothing evaluated.
  CancellationToken pre;
  pre.RequestCancel();
  const MatchResult r =
      parallel.Run(fn, ds_.candidates, *ctx_, RunControl(pre));
  ASSERT_TRUE(r.partial);
  EXPECT_EQ(r.pairs_completed, 0u);
  EXPECT_EQ(r.evaluated.Count(), 0u);
}

TEST_F(ParallelMatcherTest, PrewarmMakesContextReadOnly) {
  // After Prewarm, parallel feature computation must not grow the token
  // caches (they are fully populated).
  const MatchingFunction fn = Rules(10, 17);
  ctx_->Prewarm(fn.UsedFeatures());
  const size_t bytes_before = ctx_->TokenCacheBytes();
  ParallelMemoMatcher parallel(
      ParallelMemoMatcher::Options{.num_threads = 4});
  parallel.Run(fn, ds_.candidates, *ctx_);
  EXPECT_EQ(ctx_->TokenCacheBytes(), bytes_before);
}

}  // namespace
}  // namespace emdbg
