#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "src/core/debug_session.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// The session's edit log: every post-run edit of a DebugSession records
/// its inverse, Undo applies it (through the same incremental path as any
/// edit), and History lists what can be undone.
class EditLogTest : public ::testing::Test {
 protected:
  EditLogTest() {
    GeneratedDataset ds = testing::SmallProducts();
    session_ = std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
    session_->catalog().InternAllSameAttribute();
    Rng rng(1);
    sample_ = SamplePairs(session_->candidates(), 0.2, rng);
    RuleGeneratorConfig config;
    config.num_rules = 5;
    config.min_predicates = 2;
    config.max_predicates = 4;
    config.seed = 55;
    gen_ = std::make_unique<RuleGenerator>(session_->context(), sample_,
                                           config);
    const MatchingFunction generated = gen_->Generate();
    for (const Rule& rule : generated.rules()) {
      EXPECT_TRUE(session_->AddRule(rule).ok());
    }
    baseline_ = session_->Run();
  }

  DebugSession& s() { return *session_; }

  Bitmap Oracle() {
    MemoMatcher matcher;
    return matcher.Run(s().function(), s().candidates(), s().context())
        .matches;
  }

  /// Number of edits Undo can still revert.
  size_t Recorded() {
    const std::string h = s().History();
    return static_cast<size_t>(std::count(h.begin(), h.end(), '\n'));
  }

  std::unique_ptr<DebugSession> session_;
  CandidateSet sample_;
  std::unique_ptr<RuleGenerator> gen_;
  Bitmap baseline_;
};

TEST_F(EditLogTest, UndoEmptyIsError) {
  EXPECT_EQ(s().Undo().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EditLogTest, UndoAddRule) {
  Rng rng(2);
  ASSERT_TRUE(s().AddRule(gen_->GenerateRule(rng)).ok());
  EXPECT_EQ(Recorded(), 1u);
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_EQ(Recorded(), 0u);
  EXPECT_EQ(s().Run(), baseline_);
  EXPECT_EQ(s().Run(), Oracle());
}

TEST_F(EditLogTest, UndoRemoveRuleRestoresMatches) {
  const RuleId rid = s().function().rule(0).id();
  ASSERT_TRUE(s().RemoveRule(rid).ok());
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_EQ(s().Run(), baseline_);
  EXPECT_EQ(s().function().num_rules(), 5u);
}

TEST_F(EditLogTest, UndoThresholdChange) {
  const Rule& rule = s().function().rule(0);
  const RuleId rid = rule.id();
  const Predicate p = rule.predicate(0);
  ASSERT_TRUE(s().SetThreshold(rid, p.id, 0.99).ok());
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_EQ(s().Run(), baseline_);
  EXPECT_DOUBLE_EQ(s().function().RuleById(rid)->predicate(0).threshold,
                   p.threshold);
}

TEST_F(EditLogTest, UndoPredicateAddRemove) {
  Rng rng(3);
  const RuleId rid = s().function().rule(1).id();
  const Rule donor = gen_->GenerateRule(rng);
  ASSERT_TRUE(s().AddPredicate(rid, donor.predicate(0)).ok());
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_EQ(s().Run(), baseline_);

  const PredicateId pid = s().function().RuleById(rid)->predicate(0).id;
  ASSERT_TRUE(s().RemovePredicate(rid, pid).ok());
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_EQ(s().Run(), baseline_);
}

TEST_F(EditLogTest, IdRemappingAfterUndoneRemoval) {
  const Rule& rule = s().function().rule(2);
  const RuleId rid = rule.id();
  const PredicateId pid = rule.predicate(0).id;
  const double threshold = rule.predicate(0).threshold;
  // Remove the rule, undo (rule returns with NEW ids), then edit through
  // the OLD ids: the session must remap transparently.
  ASSERT_TRUE(s().RemoveRule(rid).ok());
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_EQ(s().function().RuleById(rid), nullptr);  // old id is gone
  ASSERT_TRUE(s().SetThreshold(rid, pid, 0.99).ok());  // remapped
  EXPECT_EQ(s().Run(), Oracle());
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_DOUBLE_EQ(s().function().rules().back().predicate(0).threshold,
                   threshold);
  ASSERT_TRUE(s().RemoveRule(rid).ok());  // remapped
  ASSERT_TRUE(s().Undo().ok());
  EXPECT_EQ(s().Run(), baseline_);
}

TEST_F(EditLogTest, LifoUndoOfMixedSequence) {
  Rng rng(4);
  // Apply a mixed sequence, then undo everything; matches must return to
  // baseline and stay oracle-consistent the whole way.
  ASSERT_TRUE(s().AddRule(gen_->GenerateRule(rng)).ok());
  const Rule& rule = s().function().rule(0);
  ASSERT_TRUE(s().SetThreshold(rule.id(), rule.predicate(0).id, 0.9).ok());
  const RuleId removed = s().function().rule(1).id();
  ASSERT_TRUE(s().RemoveRule(removed).ok());
  const Rule donor = gen_->GenerateRule(rng);
  ASSERT_TRUE(
      s().AddPredicate(s().function().rule(0).id(), donor.predicate(0)).ok());
  EXPECT_EQ(Recorded(), 4u);
  while (Recorded() > 0) {
    ASSERT_TRUE(s().Undo().ok());
    EXPECT_EQ(s().Run(), Oracle());
  }
  EXPECT_EQ(s().Run(), baseline_);
  EXPECT_EQ(s().function().num_rules(), 5u);
}

TEST_F(EditLogTest, DescribeListsEdits) {
  Rng rng(5);
  ASSERT_TRUE(s().AddRule(gen_->GenerateRule(rng)).ok());
  const Rule& rule = s().function().rule(0);
  ASSERT_TRUE(s().SetThreshold(rule.id(), rule.predicate(0).id, 0.8).ok());
  const std::string text = s().History();
  EXPECT_NE(text.find("add rule"), std::string::npos);
  EXPECT_NE(text.find("set threshold"), std::string::npos);
}

TEST_F(EditLogTest, FailedEditNotRecorded) {
  EXPECT_EQ(s().RemoveRule(9999).code(), StatusCode::kNotFound);
  EXPECT_EQ(s().ApplyEdit("remove_pred 0 99").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Recorded(), 0u);
  EXPECT_EQ(s().Undo().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace emdbg
