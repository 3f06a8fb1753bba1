#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/edit_journal.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/fault_injection.h"
#include "tests/test_util.h"

namespace emdbg {
namespace {

/// In-process server tests: a real Server on an ephemeral loopback port,
/// driven through the real ServeClient — nothing is mocked, so these
/// exercise the same poll loop / worker / wire path production uses.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratedDataset ds = testing::SmallProducts();
    a_ = std::make_shared<const Table>(std::move(ds.a));
    b_ = std::make_shared<const Table>(std::move(ds.b));
    pairs_ = std::make_shared<const CandidateSet>(std::move(ds.candidates));
  }

  ServerTest()
      : dir_(::testing::TempDir() + "/emdbg_server_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()) {
    std::filesystem::remove_all(dir_);
    FaultInjection::DisarmAll();
  }

  ~ServerTest() override {
    if (server_) server_->Shutdown();
    FaultInjection::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  Server::Options BaseOptions() {
    Server::Options o;
    o.num_workers = 2;
    o.durability_root = dir_;
    return o;
  }

  void StartServer(const Server::Options& options) {
    server_ = std::make_unique<Server>(a_, b_, pairs_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  ServeClient Connect() {
    Result<ServeClient> c = ServeClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().message();
    return c.ok() ? std::move(*c) : ServeClient();
  }

  static std::shared_ptr<const Table> a_;
  static std::shared_ptr<const Table> b_;
  static std::shared_ptr<const CandidateSet> pairs_;

  std::string dir_;
  std::unique_ptr<Server> server_;
};

std::shared_ptr<const Table> ServerTest::a_;
std::shared_ptr<const Table> ServerTest::b_;
std::shared_ptr<const CandidateSet> ServerTest::pairs_;

TEST_F(ServerTest, PingAndStatsWorkWithoutASession) {
  StartServer(BaseOptions());
  ServeClient c = Connect();
  Result<std::string> pong = c.Call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "pong");
  Result<std::string> stats = c.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("sessions=0"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("conns=1"), std::string::npos) << *stats;
}

TEST_F(ServerTest, OpenEditRunCloseLifecycle) {
  StartServer(BaseOptions());
  ServeClient c = Connect();

  Result<std::string> open = c.Call("open");
  ASSERT_TRUE(open.ok()) << open.status().message();
  EXPECT_NE(open->find("token="), std::string::npos);

  Result<std::string> add =
      c.Call("add_rule r1: jaccard(title, title) >= 0.5");
  ASSERT_TRUE(add.ok()) << add.status().message();
  EXPECT_NE(add->find("rule=r1"), std::string::npos);
  EXPECT_NE(add->find("pos=0"), std::string::npos);

  Result<std::string> run = c.Call("run");
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_NE(run->find("matches="), std::string::npos);
  EXPECT_NE(run->find("pairs="), std::string::npos);

  // Edits after a run report the refreshed match count inline.
  Result<std::string> tweak = c.Call("set_threshold 0 0 0.7");
  ASSERT_TRUE(tweak.ok()) << tweak.status().message();
  EXPECT_NE(tweak->find("matches="), std::string::npos);

  Result<std::string> undo = c.Call("undo");
  ASSERT_TRUE(undo.ok()) << undo.status().message();

  Result<std::string> rules = c.Call("rules");
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("rules=1"), std::string::npos);

  Result<std::string> digest = c.Call("digest");
  ASSERT_TRUE(digest.ok());
  EXPECT_NE(digest->find("digest="), std::string::npos);

  Result<std::string> close = c.Call("close");
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(*close, "closed");

  // The session is gone; further commands on this connection fail.
  EXPECT_EQ(c.Call("run").status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, CommandsWithoutASessionAreRefused) {
  StartServer(BaseOptions());
  ServeClient c = Connect();
  EXPECT_EQ(c.Call("run").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(c.Call("add_rule r1: jaccard(title, title) >= 0.5").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServerTest, MalformedRequestsGetExplicitErrors) {
  StartServer(BaseOptions());
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  EXPECT_EQ(c.Call("no_such_verb").status().code(), StatusCode::kParseError);
  EXPECT_EQ(c.Call("add_rule").status().code(), StatusCode::kParseError);
  EXPECT_EQ(c.Call("remove_rule notanumber").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(c.Call("remove_rule 99").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(c.Call("set_threshold 0 0 nope").status().code(),
            StatusCode::kParseError);
  ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  EXPECT_EQ(
      c.Call("add_pred 99 jaccard(title, title) >= 0.5").status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(c.Call("remove_pred 0 99").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(c.Call("set_threshold 0 99 0.5").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(c.Call("add_pred 0 jaccard(title, title) >= 0.5 AND "
                   "exact_match(modelno, modelno) >= 1")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(c.Call("attach no-such-token").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(c.Call("open token=bad token!").status().code(), StatusCode::kParseError);
}

TEST_F(ServerTest, SessionTableIsBounded) {
  Server::Options o = BaseOptions();
  o.max_sessions = 2;
  StartServer(o);
  ServeClient c1 = Connect();
  ServeClient c2 = Connect();
  ServeClient c3 = Connect();
  ASSERT_TRUE(c1.Call("open").ok());
  ASSERT_TRUE(c2.Call("open").ok());
  Result<std::string> third = c3.Call("open");
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.status().message().find("session table full"),
            std::string::npos);

  // Closing one frees the slot: shedding is load-dependent, not sticky.
  ASSERT_TRUE(c1.Call("close").ok());
  EXPECT_TRUE(c3.Call("open").ok());
}

TEST_F(ServerTest, ConnectionCountIsBounded) {
  Server::Options o = BaseOptions();
  o.max_connections = 1;
  StartServer(o);
  ServeClient c1 = Connect();
  ASSERT_TRUE(c1.Call("ping").ok());
  // The second connection is accepted at the TCP level, answered with an
  // explicit shed error, and closed.
  ServeClient c2 = Connect();
  Result<std::string> resp = c2.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_NE(resp->find("err ResourceExhausted"), std::string::npos) << *resp;
  // After the error frame the server hangs up.
  EXPECT_EQ(c2.ReadResponse().status().code(), StatusCode::kIoError);
}

TEST_F(ServerTest, PerSessionQueueSheds) {
  Server::Options o = BaseOptions();
  o.num_workers = 1;
  o.max_queue_per_session = 2;
  StartServer(o);
  // Stall the single worker so the queue can actually fill.
  FaultInjection::Plan slow;
  slow.every = 1;
  FaultInjection::Arm("serve.slow_task", slow);

  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  const int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(c.Send("rules").ok());
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<std::string> resp = c.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    if (resp->find("err ResourceExhausted") != std::string::npos) {
      ++shed;
    } else {
      ++ok;
    }
  }
  EXPECT_GT(ok, 0) << "admitted requests must still be answered";
  EXPECT_GT(shed, 0) << "a full queue must shed, not grow unboundedly";
  EXPECT_GE(server_->stats().requests_shed,
            static_cast<uint64_t>(shed));
}

TEST_F(ServerTest, QueuedRequestsHonorDeadlines) {
  Server::Options o = BaseOptions();
  o.num_workers = 1;
  o.default_deadline_ms = 1;  // every request expires behind the stall
  StartServer(o);
  FaultInjection::Plan slow;  // 50 ms stall per request
  slow.every = 1;
  FaultInjection::Arm("serve.slow_task", slow);

  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open").ok());
  const int kBurst = 4;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(c.Send("rules").ok());
  }
  int expired = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<std::string> resp = c.ReadResponse();
    ASSERT_TRUE(resp.ok());
    if (resp->find("err DeadlineExceeded") != std::string::npos) ++expired;
  }
  EXPECT_GT(expired, 0);
  // The stats counter is bumped after the response is written; give the
  // worker a beat to finish its bookkeeping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GE(server_->stats().requests_expired,
            static_cast<uint64_t>(expired));
}

TEST_F(ServerTest, AttachMovesASessionBetweenConnections) {
  StartServer(BaseOptions());
  ServeClient c1 = Connect();
  Result<std::string> open = c1.Call("open token=mine");
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(c1.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());

  // A second live connection cannot steal an attached session.
  ServeClient c2 = Connect();
  EXPECT_EQ(c2.Call("attach mine").status().code(), StatusCode::kFailedPrecondition);

  // After the first connection drops, attach succeeds and the rules are
  // still there — the session outlives its connection.
  c1.Close();
  Result<std::string> attach = Status::Internal("not attempted");
  for (int i = 0; i < 100; ++i) {  // the poll loop reaps the dead conn async
    attach = c2.Call("attach mine");
    if (attach.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(attach.ok()) << attach.status().message();
  Result<std::string> rules = c2.Call("rules");
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("rules=1"), std::string::npos);
}

TEST_F(ServerTest, DurableSessionSurvivesAbortViaResume) {
  StartServer(BaseOptions());
  std::string digest_before;
  {
    ServeClient c = Connect();
    ASSERT_TRUE(c.Call("open durable token=t1").ok());
    ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
    ASSERT_TRUE(c.Call("run").ok());  // first run enables durability
    ASSERT_TRUE(c.Call("set_threshold 0 0 0.62").ok());
    ASSERT_TRUE(
        c.Call("add_rule r2: jaccard(brand, brand) >= 0.7").ok());
    Result<std::string> d = c.Call("digest");
    ASSERT_TRUE(d.ok());
    digest_before = *d;
  }

  server_->Abort();  // simulated kill -9: no drain, no checkpoints
  server_.reset();

  StartServer(BaseOptions());
  ServeClient c = Connect();
  Result<std::string> resume = c.Call("resume t1");
  ASSERT_TRUE(resume.ok()) << resume.status().message();
  EXPECT_NE(resume->find("token=t1"), std::string::npos);
  Result<std::string> d = c.Call("digest");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, digest_before)
      << "recovered session must be bit-identical to the acked state";
}

TEST_F(ServerTest, JournalFaultDegradesSessionUntilResumed) {
  StartServer(BaseOptions());
  ServeClient c = Connect();
  ASSERT_TRUE(c.Call("open durable token=t2").ok());
  ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  ASSERT_TRUE(c.Call("run").ok());
  ASSERT_TRUE(c.Call("set_threshold 0 0 0.60").ok());

  // Fail the next journal write: the edit is rejected and the session
  // degrades (disk is authoritative, live state dropped).
  FaultInjection::Arm("journal.write", FaultInjection::Plan{});
  Result<std::string> bad = c.Call("set_threshold 0 0 0.99");
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_NE(bad.status().message().find("degraded"), std::string::npos)
      << bad.status().message();

  // Until resumed the session refuses work, explicitly.
  Result<std::string> refused = c.Call("rules");
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("resume"), std::string::npos);

  // The worker that degraded the session may still be finishing its
  // bookkeeping ("session busy"); resume is designed to be retried.
  Result<std::string> resume = Status::Internal("not attempted");
  for (int i = 0; i < 100 && !resume.ok(); ++i) {
    resume = c.Call("resume t2");
    if (!resume.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(resume.ok()) << resume.status().message();
  // The failed edit never committed: the acked threshold survived.
  Result<std::string> after = c.Call("rules");
  ASSERT_TRUE(after.ok());
  // The DSL prints doubles at full precision: 0.60 comes back as
  // ">= 0.59999999999999998".
  EXPECT_NE(after->find(">= 0.59999"), std::string::npos) << *after;
  EXPECT_EQ(after->find("0.99"), std::string::npos) << *after;
  EXPECT_GE(server_->stats().sessions_degraded, 1u);

  // And the session is fully live again.
  EXPECT_TRUE(c.Call("set_threshold 0 0 0.65").ok());
}

TEST_F(ServerTest, ShutdownChecksDurableSessionsAndRefusesNewWork) {
  Server::Options o = BaseOptions();
  o.checkpoint_every = 1000;  // no cadence checkpoint: shutdown must do it
  StartServer(o);
  {
    ServeClient c = Connect();
    ASSERT_TRUE(c.Call("open durable token=t3").ok());
    ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
    ASSERT_TRUE(c.Call("run").ok());
    ASSERT_TRUE(c.Call("set_threshold 0 0 0.58").ok());
    auto journal = EditJournal::Read(dir_ + "/t3/journal.log");
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal->records.size(), 1u) << "edit journaled, no checkpoint";
  }

  server_->Shutdown();
  server_->Shutdown();  // idempotent

  // Graceful shutdown checkpointed the session: the journal was folded
  // into a fresh checkpoint epoch and truncated.
  auto journal = EditJournal::Read(dir_ + "/t3/journal.log");
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->records.empty());
  EXPECT_GT(journal->epoch, 1u);

  // The listener is gone: new connections are refused outright.
  EXPECT_FALSE(ServeClient::Connect("127.0.0.1", server_->port()).ok());
}

TEST_F(ServerTest, OpenDurableWithoutRootIsRefused) {
  Server::Options o = BaseOptions();
  o.durability_root.clear();
  StartServer(o);
  ServeClient c = Connect();
  EXPECT_EQ(c.Call("open durable").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(c.Call("resume t9").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(c.Call("open").ok()) << "ephemeral sessions still work";
}

TEST_F(ServerTest, OpenDurableOnShardedServerIsRefused) {
  Server::Options o = BaseOptions();
  o.session_sharded = true;
  StartServer(o);
  ServeClient c = Connect();
  EXPECT_EQ(c.Call("open durable").status().code(),
            StatusCode::kFailedPrecondition)
      << "sharded sessions run in batch mode and cannot journal edits";
  ASSERT_TRUE(c.Call("open").ok()) << "batch sessions still work";
  ASSERT_TRUE(c.Call("add_rule r1: jaccard(title, title) >= 0.5").ok());
  Result<std::string> run = c.Call("run");
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_NE(run->find("matches="), std::string::npos) << *run;
}

TEST_F(ServerTest, DuplicateTokenIsAlreadyExists) {
  StartServer(BaseOptions());
  ServeClient c1 = Connect();
  ServeClient c2 = Connect();
  ASSERT_TRUE(c1.Call("open token=dup").ok());
  EXPECT_EQ(c2.Call("open token=dup").status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ServerTest, InjectedSessionAllocationFailureSheds) {
  StartServer(BaseOptions());
  FaultInjection::Arm("serve.session", FaultInjection::Plan{});
  ServeClient c = Connect();
  Result<std::string> open = c.Call("open");
  EXPECT_EQ(open.status().code(), StatusCode::kResourceExhausted);
  // The very next attempt succeeds: shedding one admission is not fatal.
  EXPECT_TRUE(c.Call("open").ok());
}

}  // namespace
}  // namespace emdbg
