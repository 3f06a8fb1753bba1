#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/debug_session.h"
#include "src/core/edit_journal.h"
#include "src/core/rule_parser.h"
#include "src/serve/session_digest.h"
#include "src/util/crc32c.h"
#include "src/util/csv.h"
#include "src/util/string_util.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// Durability/crash-recovery tests. A "crash" is simulated by abandoning
/// the session object: everything the contract promises to survive a
/// kill -9 is already fsync'd on disk, and nothing in the destructor
/// cleans up, so a dropped session is indistinguishable from a killed
/// process as far as the files are concerned.
class DurableSessionTest : public ::testing::Test {
 protected:
  DurableSessionTest()
      : dir_(::testing::TempDir() + "/emdbg_durable_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()) {
    std::filesystem::remove_all(dir_);
  }

  ~DurableSessionTest() override { std::filesystem::remove_all(dir_); }

  /// A session over the deterministic SmallProducts dataset with two
  /// rules and a completed first run. Every call builds an identical
  /// session (same generator seed), which is the recovery contract: the
  /// tables/candidates must match the crashed session's.
  std::unique_ptr<DebugSession> FreshSession() {
    GeneratedDataset ds = testing::SmallProducts();
    auto session = std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
    EXPECT_TRUE(
        session->AddRuleText("r1: jaccard(title, title) >= 0.5").ok());
    EXPECT_TRUE(
        session
            ->AddRuleText("r2: exact_match(modelno, modelno) >= 1 AND "
                          "jaro_winkler(brand, brand) >= 0.85")
            .ok());
    session->Run();
    EXPECT_TRUE(session->has_run());
    return session;
  }

  /// A blank session over the same dataset — the recovery target (Recover
  /// requires a session that has not run yet).
  std::unique_ptr<DebugSession> FreshSessionForRecovery() {
    GeneratedDataset ds = testing::SmallProducts();
    return std::make_unique<DebugSession>(
        std::move(ds.a), std::move(ds.b), std::move(ds.candidates));
  }

  std::string Dsl(DebugSession& s) {
    return FunctionToDsl(s.function(), s.catalog());
  }

  std::string journal_path() const { return dir_ + "/journal.log"; }

  std::string dir_;
};

TEST_F(DurableSessionTest, EnableRequiresCompletedRun) {
  GeneratedDataset ds = testing::SmallProducts();
  DebugSession session(std::move(ds.a), std::move(ds.b),
                       std::move(ds.candidates));
  EXPECT_EQ(session.EnableDurability(dir_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DurableSessionTest, EnableWritesCheckpointFiles) {
  auto session = FreshSession();
  ASSERT_TRUE(session->EnableDurability(dir_).ok());
  EXPECT_TRUE(session->durable());
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.meta"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.1.features"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.1.rules"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.1.state"));
  EXPECT_TRUE(std::filesystem::exists(journal_path()));
  EXPECT_EQ(session->EnableDurability(dir_).code(),
            StatusCode::kFailedPrecondition)
      << "double enable";
  EXPECT_EQ(session->SaveSession(dir_).code(),
            StatusCode::kFailedPrecondition)
      << "a new epoch in the durability directory would orphan the journal";
}

TEST_F(DurableSessionTest, RecoverRestoresEditsFromJournal) {
  // Survivor: same edits, no crash — the ground truth.
  auto survivor = FreshSession();

  {
    auto session = FreshSession();
    // Large cadence: all edits stay in the journal, none in a checkpoint.
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    for (DebugSession* s : {session.get(), survivor.get()}) {
      ASSERT_TRUE(
          s->AddRuleText("r3: jaccard(category, category) >= 0.9").ok());
      const Rule& r1 = *s->function().RuleById(s->function().rule(0).id());
      ASSERT_TRUE(
          s->SetThreshold(r1.id(), r1.predicate(0).id, 0.65).ok());
      ASSERT_TRUE(s->RemoveRule(s->function().rule(1).id()).ok());
    }
    EXPECT_EQ(session->edits_since_checkpoint(), 3u);
    EXPECT_EQ(Dsl(*session), Dsl(*survivor));
    // Crash: session dropped without a checkpoint.
  }

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_TRUE(recovered->durable());
  EXPECT_TRUE(recovered->has_run());
  EXPECT_EQ(Dsl(*recovered), Dsl(*survivor));
  EXPECT_EQ(recovered->Run(), survivor->Run());

  // The recovered memo is live: further identical edits stay in lockstep.
  for (DebugSession* s : {recovered.get(), survivor.get()}) {
    const Rule& r = *s->function().RuleById(s->function().rule(0).id());
    ASSERT_TRUE(s->SetThreshold(r.id(), r.predicate(0).id, 0.45).ok());
  }
  EXPECT_EQ(recovered->Run(), survivor->Run());
  EXPECT_EQ(Dsl(*recovered), Dsl(*survivor));
}

TEST_F(DurableSessionTest, CheckpointCadenceTruncatesJournal) {
  auto session = FreshSession();
  ASSERT_TRUE(session->EnableDurability(dir_, 2).ok());

  const Rule& r1 = session->function().rule(0);
  ASSERT_TRUE(
      session->SetThreshold(r1.id(), r1.predicate(0).id, 0.61).ok());
  EXPECT_EQ(session->edits_since_checkpoint(), 1u);
  {
    auto contents = EditJournal::Read(journal_path());
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->epoch, 1u);
    EXPECT_EQ(contents->records.size(), 1u);
  }

  // Second edit crosses the cadence: checkpoint + fresh journal.
  ASSERT_TRUE(
      session->SetThreshold(r1.id(), r1.predicate(0).id, 0.62).ok());
  EXPECT_EQ(session->edits_since_checkpoint(), 0u);
  {
    auto contents = EditJournal::Read(journal_path());
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->epoch, 2u);
    EXPECT_TRUE(contents->records.empty());
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.2.state"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/checkpoint.1.state"))
      << "superseded epoch files must be cleaned up";

  // Crash now; recovery needs only the checkpoint.
  session.reset();
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  const Rule& rec_r1 = recovered->function().rule(0);
  EXPECT_DOUBLE_EQ(rec_r1.predicate(0).threshold, 0.62);
}

TEST_F(DurableSessionTest, TornFinalJournalRecordIsDropped) {
  double original_threshold = 0.0;
  {
    auto session = FreshSession();
    original_threshold =
        session->function().rule(0).predicate(0).threshold;
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
  }
  // Simulate a crash mid-append: a half-written record with no newline
  // and a CRC that cannot match.
  {
    std::FILE* f = std::fopen(journal_path().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("00000000 set_thresho", f);
    std::fclose(f);
  }
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok())
      << "a torn tail is the signature of a crash mid-append and must "
         "be tolerated";
  EXPECT_DOUBLE_EQ(recovered->function().rule(0).predicate(0).threshold,
                   original_threshold)
      << "the torn edit never committed and must not be applied";
}

TEST_F(DurableSessionTest, CorruptEarlierJournalRecordIsParseError) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    const Rule& r1 = session->function().rule(0);
    ASSERT_TRUE(
        session->SetThreshold(r1.id(), r1.predicate(0).id, 0.61).ok());
    ASSERT_TRUE(
        session->SetThreshold(r1.id(), r1.predicate(0).id, 0.62).ok());
  }
  // Flip one payload byte of the first record; the second record after it
  // means this is not a torn tail.
  auto text = ReadFileToString(journal_path());
  ASSERT_TRUE(text.ok());
  const size_t first_record = text->find('\n') + 1;
  const size_t payload = text->find(' ', first_record) + 1;
  (*text)[payload] ^= 0x20;
  ASSERT_TRUE(WriteStringToFile(journal_path(), *text).ok());

  auto recovered = FreshSessionForRecovery();
  EXPECT_EQ(recovered->Recover(dir_).code(), StatusCode::kParseError);
}

TEST_F(DurableSessionTest, StaleEpochJournalIsIgnored) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
  }
  // A journal left behind by an older epoch (crash between the meta
  // write and the journal reset): structurally valid, wrong epoch. Its
  // record would remove a rule if it were wrongly replayed.
  const std::string payload = "remove_rule 0";
  const std::string stale = "EMDBGJ1 999\n" +
                            StrFormat("%08x ", Crc32c(payload)) + payload +
                            "\n";
  ASSERT_TRUE(WriteStringToFile(journal_path(), stale).ok());

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(recovered->function().num_rules(), 2u)
      << "a stale journal's edits are inside the checkpoint already";
}

TEST_F(DurableSessionTest, MissingJournalMeansNothingToReplay) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_).ok());
  }
  std::filesystem::remove(journal_path());
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(recovered->function().num_rules(), 2u);
}

TEST_F(DurableSessionTest, UndoIsJournaledAsItsInverse) {
  auto survivor = FreshSession();
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    for (DebugSession* s : {session.get(), survivor.get()}) {
      const Rule& r1 = *s->function().RuleById(s->function().rule(0).id());
      ASSERT_TRUE(
          s->SetThreshold(r1.id(), r1.predicate(0).id, 0.9).ok());
      ASSERT_TRUE(
          s->AddRuleText("r3: jaccard(category, category) >= 0.8").ok());
      ASSERT_TRUE(s->Undo().ok());  // removes r3 again
      ASSERT_TRUE(s->Undo().ok());  // threshold back to the original
    }
  }
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(Dsl(*recovered), Dsl(*survivor));
  EXPECT_EQ(recovered->Run(), survivor->Run());
}

TEST_F(DurableSessionTest, OutOfRangeJournalRecordFailsRecovery) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
  }
  // A valid record followed by one naming a predicate position that does
  // not exist (no rule has more than two predicates).
  std::string text = "EMDBGJ1 1\n";
  for (const std::string payload :
       {"set_threshold 0 0 0.7", "remove_pred 0 5"}) {
    text += StrFormat("%08x ", Crc32c(payload)) + payload + "\n";
  }
  ASSERT_TRUE(WriteStringToFile(journal_path(), text).ok());

  auto recovered = FreshSessionForRecovery();
  const Status s = recovered->Recover(dir_);
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s;
  EXPECT_NE(s.message().find("remove_pred 0 5"), std::string::npos) << s;
  EXPECT_FALSE(recovered->durable());
  EXPECT_FALSE(recovered->has_run());
  EXPECT_EQ(recovered->function().num_rules(), 0u)
      << "a failed recovery rolls back to the pre-resume session";
  // Nothing was folded into a new checkpoint: the disk still holds the
  // epoch-1 checkpoint and the journal exactly as written.
  auto meta = ReadFileToString(dir_ + "/checkpoint.meta");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(*meta, "EMDBGCK1 1\n");
  auto journal = ReadFileToString(journal_path());
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(*journal, text);
}

TEST_F(DurableSessionTest, ReoptimizeKeepsJournalReplayable) {
  auto session = FreshSession();
  ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
  // Costly features last, so the re-optimized order differs.
  ASSERT_TRUE(session
                  ->AddRuleText("r3: soft_tf_idf(title, title) >= 0.4 AND "
                                "monge_elkan(title, title) >= 0.5")
                  .ok());
  ASSERT_TRUE(session->AddRuleText("r4: exact_match(brand, brand) >= 1").ok());
  const std::string before = Dsl(*session);
  session->Reoptimize();
  ASSERT_NE(Dsl(*session), before) << "the rule order must have changed";
  EXPECT_TRUE(session->durable());
  // A positional edit after the reorder must replay onto the same rule.
  ASSERT_TRUE(session->ApplyEdit("set_threshold 0 0 0.95").ok());

  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(recovered->Recover(dir_).ok());
  EXPECT_EQ(Dsl(*recovered), Dsl(*session));
  EXPECT_EQ(recovered->Run(), session->Run());
}

TEST_F(DurableSessionTest, FailedRecoverCanBeRetried) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    const Rule& r1 = session->function().rule(0);
    ASSERT_TRUE(
        session->SetThreshold(r1.id(), r1.predicate(0).id, 0.61).ok());
    ASSERT_TRUE(session->RemoveRule(session->function().rule(1).id()).ok());
  }
  auto good = ReadFileToString(journal_path());
  ASSERT_TRUE(good.ok());
  // Corrupt the first (non-final) record's payload.
  std::string bad = *good;
  bad[bad.find(' ', bad.find('\n') + 1) + 1] ^= 0x20;
  ASSERT_TRUE(WriteStringToFile(journal_path(), bad).ok());

  auto recovered = FreshSessionForRecovery();
  EXPECT_EQ(recovered->Recover(dir_).code(), StatusCode::kParseError);
  EXPECT_FALSE(recovered->has_run());
  EXPECT_FALSE(recovered->durable());
  EXPECT_EQ(recovered->function().num_rules(), 0u);
  EXPECT_EQ(recovered->Undo().code(), StatusCode::kFailedPrecondition);

  // With the journal repaired, the same session recovers fully.
  ASSERT_TRUE(WriteStringToFile(journal_path(), *good).ok());
  const Status s = recovered->Recover(dir_);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(recovered->durable());
  EXPECT_TRUE(recovered->has_run());
  ASSERT_EQ(recovered->function().num_rules(), 1u);
  EXPECT_DOUBLE_EQ(recovered->function().rule(0).predicate(0).threshold,
                   0.61);
  auto fresh = FreshSessionForRecovery();
  ASSERT_TRUE(fresh->Recover(dir_).ok());
  EXPECT_EQ(Dsl(*recovered), Dsl(*fresh));
  EXPECT_EQ(recovered->Run(), fresh->Run());
}

/// Rules as DSL lines in function order; empty rules (no DSL form) as
/// "!empty <name>".
std::string RulesText(DebugSession& s) {
  std::string out;
  for (const Rule& rule : s.function().rules()) {
    out += rule.empty() ? "!empty " + rule.name()
                        : RuleToDsl(rule, s.catalog());
    out += "\n";
  }
  return out;
}

TEST_F(DurableSessionTest, RandomEditsAndUndosReplayExactly) {
  // Every edit here names its rule: the journal replays an unnamed rule
  // under a name derived from the recovering session's own rule ids.
  const std::vector<std::string> rule_pool = {
      "jaccard(category, category) >= 0.4",
      "jaro_winkler(brand, brand) >= 0.8 AND "
      "exact_match(modelno, modelno) >= 1",
      "cosine(title, title) >= 0.55",
      "trigram(title, title) >= 0.5 AND jaccard(brand, brand) >= 0.3",
  };
  const std::vector<std::string> pred_pool = {
      "jaccard(title, title) >= 0.3", "jaro(brand, brand) >= 0.6",
      "exact_match(category, category) >= 1",
      "levenshtein(modelno, modelno) >= 0.5"};
  for (const size_t every : {size_t{1000}, size_t{3}}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(StrFormat("checkpoint_every=%zu seed=%llu", every,
                             static_cast<unsigned long long>(seed)));
      std::filesystem::remove_all(dir_);
      auto live = FreshSession();
      ASSERT_TRUE(live->EnableDurability(dir_, every).ok());
      DebugSession& s = *live;
      Rng rng(seed);
      size_t undoable = 0;
      size_t next_name = 0;
      auto pick_rule = [&]() -> const Rule& {
        return s.function().rule(rng.Uniform(s.function().num_rules()));
      };
      auto threshold = [&] {
        return StrFormat("%.2f", 0.05 * static_cast<double>(rng.Uniform(20)));
      };

      // An undo of remove_rule, then an undo of an earlier edit to the
      // rule it re-created: the second undo must reach the new ids.
      {
        const Rule& r = s.function().rule(0);
        ASSERT_TRUE(s.SetThreshold(r.id(), r.predicate(0).id, 0.66).ok());
        ASSERT_TRUE(s.RemoveRule(s.function().rule(0).id()).ok());
        ASSERT_TRUE(s.Undo().ok());
        ASSERT_TRUE(s.Undo().ok());
      }

      for (int step = 0; step < 40; ++step) {
        const bool typed = rng.Bernoulli(0.5);
        const uint64_t op = rng.Uniform(7);
        Status st;
        if (op == 6 || s.function().num_rules() == 0) {
          const std::string dsl =
              StrFormat("n%zu: ", next_name++) +
              rule_pool[rng.Uniform(rule_pool.size())];
          st = typed ? s.AddRuleText(dsl).status()
                     : s.ApplyEdit("add_rule " + dsl).status();
          ++undoable;
        } else if (op == 5) {
          if (undoable == 0) continue;
          st = s.Undo();
          --undoable;
        } else if (op == 4) {
          const Rule& r = pick_rule();
          const size_t pos = s.function().FindRule(r.id());
          st = typed ? s.RemoveRule(r.id())
                     : s.ApplyEdit(StrFormat("remove_rule %zu", pos)).status();
          ++undoable;
        } else if (op == 3) {
          const Rule& r = pick_rule();
          const std::string dsl = pred_pool[rng.Uniform(pred_pool.size())];
          if (typed) {
            Result<Rule> parsed = ParseRule(dsl, s.catalog());
            ASSERT_TRUE(parsed.ok());
            st = s.AddPredicate(r.id(), parsed->predicate(0)).status();
          } else {
            st = s.ApplyEdit(StrFormat("add_pred %zu %s",
                                       s.function().FindRule(r.id()),
                                       dsl.c_str()))
                     .status();
          }
          ++undoable;
        } else {
          const Rule& r = pick_rule();
          if (r.empty() || (op == 2 && r.size() == 1)) continue;
          const size_t rpos = s.function().FindRule(r.id());
          const size_t ppos = rng.Uniform(r.size());
          const PredicateId pid = r.predicate(ppos).id;
          if (op == 2) {
            st = typed ? s.RemovePredicate(r.id(), pid)
                       : s.ApplyEdit(StrFormat("remove_pred %zu %zu", rpos,
                                               ppos))
                             .status();
          } else {
            const std::string t = threshold();
            st = typed ? s.SetThreshold(r.id(), pid, std::stod(t))
                       : s.ApplyEdit(StrFormat("set_threshold %zu %zu %s",
                                               rpos, ppos, t.c_str()))
                             .status();
          }
          ++undoable;
        }
        ASSERT_TRUE(st.ok()) << "step " << step << ": " << st;
      }

      auto recovered = FreshSessionForRecovery();
      const Status rs = recovered->Recover(dir_, every);
      ASSERT_TRUE(rs.ok()) << rs;
      EXPECT_EQ(RulesText(*recovered), RulesText(s));
      EXPECT_EQ(SessionStateDigest(*recovered), SessionStateDigest(s));
    }
  }
}

TEST_F(DurableSessionTest, RecoverIntoSessionWithOtherFeaturesIsRejected) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_).ok());
  }
  // Adding a rule before the first run interns its feature at id 0, where
  // the checkpoint's memo column 0 holds jaccard(title, title).
  auto recovered = FreshSessionForRecovery();
  ASSERT_TRUE(
      recovered->AddRuleText("jaro_winkler(brand, brand) >= 0.9").ok());
  EXPECT_EQ(recovered->Recover(dir_).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(recovered->has_run());
}

TEST_F(DurableSessionTest, RecoverFromMissingDirIsIoError) {
  auto session = FreshSessionForRecovery();
  EXPECT_EQ(session->Recover(dir_ + "/nope").code(), StatusCode::kIoError);
}

TEST_F(DurableSessionTest, CorruptMetaIsParseError) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_).ok());
  }
  ASSERT_TRUE(
      WriteStringToFile(dir_ + "/checkpoint.meta", "WHATEVER 1\n").ok());
  auto recovered = FreshSessionForRecovery();
  EXPECT_EQ(recovered->Recover(dir_).code(), StatusCode::kParseError);
}

TEST_F(DurableSessionTest, CorruptStateFileIsDetectedByCrc) {
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_).ok());
  }
  const std::string state_path = dir_ + "/checkpoint.1.state";
  auto bytes = ReadFileToString(state_path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x01;  // one flipped bit mid-file
  ASSERT_TRUE(WriteStringToFile(state_path, *bytes).ok());

  auto recovered = FreshSessionForRecovery();
  EXPECT_EQ(recovered->Recover(dir_).code(), StatusCode::kParseError);
}

TEST_F(DurableSessionTest, RecoverAfterEnableOnRecoveredSession) {
  // Recovery chains: crash, recover, edit, crash again, recover again.
  {
    auto session = FreshSession();
    ASSERT_TRUE(session->EnableDurability(dir_, 100).ok());
    const Rule& r1 = session->function().rule(0);
    ASSERT_TRUE(
        session->SetThreshold(r1.id(), r1.predicate(0).id, 0.7).ok());
  }
  {
    auto recovered = FreshSessionForRecovery();
    ASSERT_TRUE(recovered->Recover(dir_, 100).ok());
    EXPECT_DOUBLE_EQ(recovered->function().rule(0).predicate(0).threshold,
                     0.7);
    ASSERT_TRUE(
        recovered
            ->AddRuleText("r3: jaccard(category, category) >= 0.95")
            .ok());
  }
  auto again = FreshSessionForRecovery();
  ASSERT_TRUE(again->Recover(dir_).ok());
  EXPECT_EQ(again->function().num_rules(), 3u);
  EXPECT_DOUBLE_EQ(again->function().rule(0).predicate(0).threshold, 0.7);
}

}  // namespace
}  // namespace emdbg
