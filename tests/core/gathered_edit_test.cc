/// Differential suite for incremental edits on the block engine. Every
/// edit collects its affected pairs ("lanes") and evaluates them per pair
/// below 64 lanes and gathered (columnar) at 64 or more; full runs go
/// through the block engine, serially or on a pool. The candidate count
/// is deliberately not a multiple of 64, and the random edit scripts are
/// checked to land on both sides of the 64-lane cut-off. After every
/// edit the matches must equal a fresh serial run, and the decision
/// bitmaps must be ones a fresh serial evaluation agrees with.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/debug_session.h"
#include "src/core/incremental.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "src/data/generator.h"
#include "src/util/thread_pool.h"

namespace emdbg {
namespace {

constexpr size_t kGatherCutoff = 64;

GeneratedDataset EditProducts() {
  DatasetProfile p;
  p.name = "edit_products";
  p.table_a_rows = 150;
  p.table_b_rows = 300;
  p.candidate_pairs = 1500;
  p.twin_fraction = 0.4;
  p.attributes = {
      {"title", AttrKind::kTitle, 0.5, 0.02},
      {"modelno", AttrKind::kModelNo, 0.3, 0.05},
      {"brand", AttrKind::kBrand, 0.25, 0.02},
      {"category", AttrKind::kCategory, 0.1, 0.01},
      {"price", AttrKind::kPrice, 0.5, 0.1},
  };
  p.num_categories = 6;
  p.seed = 2024;
  return GenerateDataset(p);
}

/// Ground truth for the decision-bitmap invariants: each (pair, feature)
/// value computed once by a fresh context and rounded to the memo's
/// float, as every memoized read sees it.
class Truth {
 public:
  Truth(const Table& a, const Table& b, const FeatureCatalog& catalog,
        const CandidateSet& pairs)
      : ctx_(a, b, catalog), pairs_(pairs),
        memo_(pairs.size(), catalog.size()) {}

  bool Passes(const Predicate& p, size_t i) {
    double v = 0.0;
    if (!memo_.Lookup(i, p.feature, &v)) {
      v = static_cast<double>(
          static_cast<float>(ctx_.ComputeFeature(p.feature, pairs_.pair(i))));
      memo_.Store(i, p.feature, v);
    }
    return p.Test(v);
  }

 private:
  PairContext ctx_;
  const CandidateSet& pairs_;
  DenseMemo memo_;
};

/// Invariants I1–I3 of IncrementalMatcher (incremental.h): matches equal
/// the oracle; every RuleTrue bit names a rule true for that pair, and
/// each matched pair has exactly one; every PredFalse bit names a
/// predicate false for that pair.
void ExpectSoundState(const MatchingFunction& fn, const MatchState& state,
                      const Bitmap& oracle, Truth& truth,
                      const std::string& where) {
  ASSERT_EQ(state.matches(), oracle) << where;
  std::vector<int> responsible(oracle.size(), 0);
  for (const Rule& r : fn.rules()) {
    if (const Bitmap* rt = state.FindRuleTrue(r.id()); rt != nullptr) {
      for (size_t i = rt->FindNext(0); i < rt->size();
           i = rt->FindNext(i + 1)) {
        ASSERT_FALSE(r.empty()) << where << ": empty rule " << r.id();
        for (const Predicate& p : r.predicates()) {
          ASSERT_TRUE(truth.Passes(p, i))
              << where << ": RuleTrue " << r.id() << " at pair " << i
              << " but predicate " << p.id << " fails";
        }
        ++responsible[i];
      }
    }
    for (const Predicate& p : r.predicates()) {
      const Bitmap* pf = state.FindPredFalse(p.id);
      if (pf == nullptr) continue;
      for (size_t i = pf->FindNext(0); i < pf->size();
           i = pf->FindNext(i + 1)) {
        ASSERT_FALSE(truth.Passes(p, i))
            << where << ": PredFalse " << p.id << " at pair " << i
            << " but the predicate passes";
      }
    }
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(responsible[i], oracle.Get(i) ? 1 : 0)
        << where << ": responsible-rule bits at pair " << i;
  }
}

/// Exact equality of two states' decision bitmaps over `fn`.
void ExpectSameDecisions(const MatchingFunction& fn, const MatchState& got,
                         const MatchState& want, const std::string& where) {
  ASSERT_EQ(got.matches(), want.matches()) << where;
  for (const Rule& r : fn.rules()) {
    const Bitmap* g = got.FindRuleTrue(r.id());
    const Bitmap* w = want.FindRuleTrue(r.id());
    ASSERT_EQ(g == nullptr || g->Count() == 0, w == nullptr || w->Count() == 0)
        << where << ": RuleTrue " << r.id();
    if (g != nullptr && w != nullptr) {
      ASSERT_EQ(*g, *w) << where << ": RuleTrue " << r.id();
    }
    for (const Predicate& p : r.predicates()) {
      const Bitmap* gp = got.FindPredFalse(p.id);
      const Bitmap* wp = want.FindPredFalse(p.id);
      ASSERT_EQ(gp == nullptr || gp->Count() == 0,
                wp == nullptr || wp->Count() == 0)
          << where << ": PredFalse " << p.id;
      if (gp != nullptr && wp != nullptr) {
        ASSERT_EQ(*gp, *wp) << where << ": PredFalse " << p.id;
      }
    }
  }
}

/// One random edit, described independently of the engine applying it.
struct Edit {
  enum Kind { kAddRule, kRemoveRule, kAddPredicate, kRemovePredicate,
              kSetThreshold } kind;
  Rule rule;  ///< kAddRule
  RuleId rid = kInvalidRule;
  PredicateId pid = kInvalidPredicate;
  Predicate pred;  ///< kAddPredicate
  double threshold = 0.0;
};

/// The lanes an edit will collect (see IncrementalMatcher), read from the
/// state before the edit is applied.
size_t AffectedLanes(const Edit& e, const MatchingFunction& fn,
                     const MatchState& state) {
  const Bitmap& matches = state.matches();
  auto count = [](const Bitmap* bm) { return bm == nullptr ? 0 : bm->Count(); };
  auto rejected_unmatched = [&](PredicateId pid) {
    const Bitmap* pf = state.FindPredFalse(pid);
    if (pf == nullptr) return size_t{0};
    Bitmap b = *pf;
    b.Subtract(matches);
    return b.Count();
  };
  switch (e.kind) {
    case Edit::kAddRule:
      return matches.size() - matches.Count();
    case Edit::kRemoveRule:
      return count(state.FindRuleTrue(e.rid));
    case Edit::kAddPredicate:
      return fn.RuleById(e.rid)->empty() ? matches.size() - matches.Count()
                                         : count(state.FindRuleTrue(e.rid));
    case Edit::kRemovePredicate:
      return fn.RuleById(e.rid)->size() == 1
                 ? count(state.FindRuleTrue(e.rid))
                 : rejected_unmatched(e.pid);
    case Edit::kSetThreshold: {
      const Rule& r = *fn.RuleById(e.rid);
      const Predicate& p = r.predicate(r.FindPredicate(e.pid));
      const bool tighten = IsLowerBound(p.op) ? e.threshold > p.threshold
                                              : e.threshold < p.threshold;
      return tighten ? count(state.FindRuleTrue(e.rid))
                     : rejected_unmatched(e.pid);
    }
  }
  return 0;
}

class GatheredEditTest : public ::testing::Test {
 protected:
  GatheredEditTest() : ds_(EditProducts()) {
    catalog_ = FeatureCatalog(ds_.a.schema(), ds_.b.schema());
    catalog_.InternAllSameAttribute();
    ctx_ = std::make_unique<PairContext>(ds_.a, ds_.b, catalog_);
    Rng rng(5);
    sample_ = SamplePairs(ds_.candidates, 0.2, rng);
    RuleGeneratorConfig config;
    config.num_rules = 5;
    config.min_predicates = 1;
    config.max_predicates = 3;
    config.seed = 31;
    gen_ = std::make_unique<RuleGenerator>(*ctx_, sample_, config);
  }

  /// A random edit valid for `fn` (rule/predicate ids drawn from it).
  Edit RandomEdit(const MatchingFunction& fn, Rng& rng) {
    Edit e;
    const size_t num_rules = fn.num_rules();
    const uint64_t op = rng.Uniform(6);
    if (op == 0 || num_rules < 3) {
      e.kind = Edit::kAddRule;
      e.rule = gen_->GenerateRule(rng);
      return e;
    }
    const Rule& rule = fn.rule(rng.Uniform(num_rules));
    e.rid = rule.id();
    if (op == 1) {
      e.kind = Edit::kRemoveRule;
    } else if (op == 2 || rule.empty()) {
      e.kind = Edit::kAddPredicate;
      e.pred = gen_->GenerateRule(rng).predicate(0);
    } else if (op == 3) {
      e.kind = Edit::kRemovePredicate;
      e.pid = rule.predicate(rng.Uniform(rule.size())).id;
    } else {
      e.kind = Edit::kSetThreshold;
      e.pid = rule.predicate(rng.Uniform(rule.size())).id;
      e.threshold = rng.NextDouble();
    }
    return e;
  }

  /// A from-scratch serial run of `fn` (fresh memo; the oracle's own
  /// context only caches tokens).
  Bitmap Oracle(const MatchingFunction& fn, MatchState* state = nullptr) {
    if (oracle_ctx_ == nullptr) {
      oracle_ctx_ = std::make_unique<PairContext>(ds_.a, ds_.b, catalog_);
    }
    MatchState scratch;
    return MemoMatcher()
        .RunWithState(fn, ds_.candidates, *oracle_ctx_,
                      state != nullptr ? *state : scratch)
        .matches;
  }

  /// Records which side of the gather cut-off an edit falls on.
  void CountSide(size_t lanes) {
    if (lanes >= kGatherCutoff) {
      ++gathered_edits_;
    } else if (lanes > 0) {
      ++per_pair_edits_;
    }
  }

  GeneratedDataset ds_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  CandidateSet sample_;
  std::unique_ptr<RuleGenerator> gen_;
  std::unique_ptr<PairContext> oracle_ctx_;
  size_t gathered_edits_ = 0;
  size_t per_pair_edits_ = 0;
};

Status Apply(IncrementalMatcher& inc, const Edit& e) {
  switch (e.kind) {
    case Edit::kAddRule:
      return inc.AddRule(e.rule).status();
    case Edit::kRemoveRule:
      return inc.RemoveRule(e.rid).status();
    case Edit::kAddPredicate:
      return inc.AddPredicate(e.rid, e.pred).status();
    case Edit::kRemovePredicate:
      return inc.RemovePredicate(e.rid, e.pid).status();
    case Edit::kSetThreshold:
      return inc.SetThreshold(e.rid, e.pid, e.threshold).status();
  }
  return Status::Ok();
}

Status Apply(DebugSession& s, const Edit& e) {
  switch (e.kind) {
    case Edit::kAddRule:
      return s.AddRule(e.rule).status();
    case Edit::kRemoveRule:
      return s.RemoveRule(e.rid);
    case Edit::kAddPredicate:
      return s.AddPredicate(e.rid, e.pred).status();
    case Edit::kRemovePredicate:
      return s.RemovePredicate(e.rid, e.pid);
    case Edit::kSetThreshold:
      return s.SetThreshold(e.rid, e.pid, e.threshold);
  }
  return Status::Ok();
}

TEST_F(GatheredEditTest, RandomEditsKeepStateSoundSerialAndPooled) {
  ASSERT_NE(ds_.candidates.size() % 64, 0u);
  ThreadPool pool(2);
  IncrementalMatcher serial(*ctx_, ds_.candidates);
  IncrementalMatcher pooled(*ctx_, ds_.candidates,
                            IncrementalMatcher::Options{.pool = &pool});
  const MatchingFunction fn = gen_->Generate();
  serial.FullRun(fn);
  pooled.FullRun(fn);
  Truth truth(ds_.a, ds_.b, catalog_, ds_.candidates);
  Rng rng(12);
  for (int step = 0; step < 60; ++step) {
    const Edit e = RandomEdit(serial.function(), rng);
    CountSide(AffectedLanes(e, serial.function(), serial.state()));
    ASSERT_TRUE(Apply(serial, e).ok()) << "step " << step;
    ASSERT_TRUE(Apply(pooled, e).ok()) << "step " << step;
    const std::string where = "step " + std::to_string(step);
    ExpectSoundState(serial.function(), serial.state(),
                     Oracle(serial.function()), truth, where);
    ExpectSameDecisions(serial.function(), pooled.state(), serial.state(),
                        where + " (pooled)");
  }
  EXPECT_GT(gathered_edits_, 0u) << "no edit reached the gathered path";
  EXPECT_GT(per_pair_edits_, 0u) << "no edit stayed on the per-pair path";
}

// DebugSession differential: incremental and batch sessions, serial and
// on a 2-worker pool, driven through one edit script. Batch sessions rerun
// everything, so their decision bitmaps equal a fresh serial run's
// exactly; incremental ones must be sound and thread-count independent.
TEST_F(GatheredEditTest, SessionDifferentialAcrossModesAndThreads) {
  auto a = std::make_shared<const Table>(ds_.a);
  auto b = std::make_shared<const Table>(ds_.b);
  auto pairs = std::make_shared<const CandidateSet>(ds_.candidates);
  struct Variant {
    bool incremental;
    size_t threads;
    std::unique_ptr<DebugSession> session;
  };
  std::vector<Variant> variants;
  for (const bool incremental : {true, false}) {
    for (const size_t threads : {size_t{1}, size_t{2}}) {
      DebugSession::Options o;
      o.ordering = OrderingStrategy::kAsWritten;  // one plan for all four
      o.incremental = incremental;
      o.num_threads = threads;
      auto s = std::make_unique<DebugSession>(a, b, pairs, o);
      // Same schemas: the generator's feature ids mean the same features.
      s->catalog().InternAllSameAttribute();
      variants.push_back({incremental, threads, std::move(s)});
    }
  }
  const MatchingFunction initial = gen_->Generate();
  for (const Rule& r : initial.rules()) {
    for (Variant& v : variants) ASSERT_TRUE(v.session->AddRule(r).ok());
  }
  for (Variant& v : variants) v.session->Run();

  Truth truth(ds_.a, ds_.b, catalog_, ds_.candidates);
  Rng rng(22);
  for (int step = 0; step < 30; ++step) {
    DebugSession& lead = *variants.front().session;  // incremental, serial
    const Edit e = RandomEdit(lead.function(), rng);
    CountSide(AffectedLanes(e, lead.function(), lead.state()));
    for (Variant& v : variants) {
      ASSERT_TRUE(Apply(*v.session, e).ok()) << "step " << step;
      v.session->Run();
    }
    MatchState oracle_state;
    const Bitmap oracle = Oracle(lead.function(), &oracle_state);
    for (const Variant& v : variants) {
      const std::string where =
          "step " + std::to_string(step) +
          (v.incremental ? " incremental, " : " batch, ") +
          std::to_string(v.threads) + " thread(s)";
      const MatchingFunction& fn = v.session->function();
      if (v.incremental) {
        ExpectSoundState(fn, v.session->state(), oracle, truth, where);
        ExpectSameDecisions(fn, v.session->state(), lead.state(), where);
      } else {
        ExpectSameDecisions(fn, v.session->state(), oracle_state, where);
      }
    }
  }
  EXPECT_GT(gathered_edits_, 0u) << "no edit reached the gathered path";
  EXPECT_GT(per_pair_edits_, 0u) << "no edit stayed on the per-pair path";
}

}  // namespace
}  // namespace emdbg
