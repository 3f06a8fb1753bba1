#include "e2ebench/layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "e2ebench/trace.h"
#include "src/core/block_matcher.h"
#include "src/core/cost_model.h"
#include "src/core/debug_session.h"
#include "src/core/memo.h"
#include "src/core/memo_matcher.h"
#include "src/core/ordering.h"
#include "src/core/parallel_matcher.h"
#include "src/core/rule_parser.h"
#include "src/core/sampler.h"
#include "src/core/shard_driver.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/memory_budget.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace e2ebench {

namespace fs = std::filesystem;
using emdbg::CandidateSet;
using emdbg::CostModel;
using emdbg::DenseMemo;
using emdbg::FeatureId;
using emdbg::MatchingFunction;
using emdbg::MatchResult;
using emdbg::Result;
using emdbg::Stopwatch;

namespace {

constexpr size_t kRepeats = 5;          // estimate+order repeats
constexpr size_t kKernelPairs = 8192;   // pairs per kernel timing
constexpr size_t kSharePairs = 4096;    // pairs per feature for the share
constexpr size_t kIncProbePairs = 18;   // three of each edit type
constexpr size_t kPings = 400;

const char* const kLayers[] = {"data", "text", "core", "util", "serve"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

// User + system CPU time of the whole process, in ms.
double ProcessCpuMs() {
  struct rusage u;
  ::getrusage(RUSAGE_SELF, &u);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

// The feature each similarity function is timed on: the attribute the
// rules use it with most often, else the attribute the rules use most.
std::vector<FeatureId> KernelFeatures(const MatchingFunction& fn,
                                      emdbg::FeatureCatalog& catalog) {
  std::map<std::pair<int, emdbg::AttrIndex>, size_t> uses;
  std::map<emdbg::AttrIndex, size_t> attr_uses;
  for (const emdbg::Rule& r : fn.rules()) {
    for (const emdbg::Predicate& p : r.predicates()) {
      const emdbg::Feature& f = catalog.feature(p.feature);
      if (f.attr_a != f.attr_b) continue;
      ++uses[{static_cast<int>(f.fn), f.attr_a}];
      ++attr_uses[f.attr_a];
    }
  }
  emdbg::AttrIndex top = 0;
  size_t top_n = 0;
  for (const auto& [attr, n] : attr_uses) {
    if (n > top_n) top = attr, top_n = n;
  }
  std::vector<FeatureId> out;
  for (const emdbg::SimFunction fn_id : emdbg::AllSimFunctions()) {
    emdbg::AttrIndex best = top;
    size_t best_n = 0;
    for (const auto& [key, n] : uses) {
      if (key.first == static_cast<int>(fn_id) && n > best_n) {
        best = key.second;
        best_n = n;
      }
    }
    out.push_back(catalog.Intern(emdbg::Feature{fn_id, best, best}));
  }
  return out;
}

// µs per pair of ComputeFeatureBlock for `f` over `pairs` (median of 3).
double KernelUs(emdbg::PairContext& ctx, FeatureId f,
                const std::vector<emdbg::PairId>& pairs) {
  if (pairs.empty()) return 0.0;
  std::vector<uint64_t> mask((pairs.size() + 63) / 64, ~uint64_t{0});
  if (pairs.size() % 64 != 0) {
    mask.back() = (uint64_t{1} << (pairs.size() % 64)) - 1;
  }
  std::vector<float> out(pairs.size());
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch w;
    ctx.ComputeFeatureBlock(f, pairs.data(), pairs.size(), mask.data(),
                            out.data());
    us.push_back(w.ElapsedMicros() / static_cast<double>(pairs.size()));
  }
  return Median(us);
}

// The workload's own evaluation engine: serial per-pair DM+EE for the
// session-per-analyst workloads, the serial auto-sized block engine for
// batch_match.
MatchResult EngineRun(const std::string& workload,
                      const MatchingFunction& fn, const CandidateSet& pairs,
                      emdbg::PairContext& ctx, DenseMemo& memo,
                      const CostModel& model) {
  if (workload == "batch_match") {
    emdbg::BlockMatcher m(
        emdbg::BlockMatcher::Options{.block_size = 0, .cost_model = &model});
    return m.RunWithMemo(fn, pairs, ctx, memo);
  }
  emdbg::MemoMatcher m(
      emdbg::MemoMatcher::Options{.check_cache_first = true});
  return m.RunWithMemo(fn, pairs, ctx, memo);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics =
      [] {
        std::vector<std::pair<std::string, std::string>> m = {
            {"data.load_ms", "ms"},
            {"core.parse_rules_ms", "ms"},
            {"text.prewarm_ms", "ms"},
        };
        for (const emdbg::SimFunction f : emdbg::AllSimFunctions()) {
          m.push_back({std::string("text.kernel_us.") +
                           emdbg::GetSimFunctionInfo(f).name,
                       "us"});
        }
        const std::vector<std::pair<std::string, std::string>> rest = {
            {"text.kernel_share", "ratio"},
            {"core.cost_model.estimate_ms", "ms"},
            {"core.cost_model.predicted_over_actual", "ratio"},
            {"core.order.greedy_ms", "ms"},
            {"core.order.plan_digests", "count"},
            {"core.match.feature_computations", "count"},
            {"core.match.memo_hits", "count"},
            {"core.match.predicate_evaluations", "count"},
            {"core.match.rule_evaluations", "count"},
            {"core.match.memo_hit_ratio", "ratio"},
            {"core.match.cold_ms", "ms"},
            {"core.match.warm_ms", "ms"},
            {"core.block.auto_size", "count"},
        };
        m.insert(m.end(), rest.begin(), rest.end());
        for (size_t t = 0; t < kNumEditTypes; ++t) {
          const std::string type = EditTypeName(static_cast<EditType>(t));
          m.push_back({"core.inc." + type + "_p50_ms", "ms"});
          m.push_back({"core.inc." + type + "_evals", "count"});
        }
        const std::vector<std::pair<std::string, std::string>> tail = {
            {"core.shard.count", "count"},
            {"core.shard.spilled_mb", "MB"},
            {"core.shard.run_ms", "ms"},
            {"core.shard.overhead_ratio", "ratio"},
            {"util.budget.peak_mb", "MB"},
            {"util.budget.denials", "count"},
            {"util.budget.reclaim_runs", "count"},
            {"util.pool.speedup_2t", "ratio"},
            {"util.pool.work_imbalance", "ratio"},
            {"util.pool.busy_ratio_2t", "ratio"},
            {"serve.ping_p50_ms", "ms"},
            {"serve.requests_shed", "count"},
            {"serve.requests_expired", "count"},
            {"serve.mem_used_mb", "MB"},
            {"trace.overhead_ratio", "ratio"},
        };
        m.insert(m.end(), tail.begin(), tail.end());
        for (const char* layer : kLayers) {
          m.push_back({std::string("trace.self_ms.") + layer, "ms"});
        }
        return m;
      }();
  return kMetrics;
}

std::vector<Metric> MeasureLayers(const LayerInputs& in,
                                  const LayerFacts& facts,
                                  std::vector<std::string>* errors) {
  const std::string& workload = in.config->workload;
  const Corpus& corpus = *in.corpus;
  const CandidateSet& pairs = *corpus.pairs;
  const Reference& ref = in.files->reference[0];
  std::map<std::string, double> v = facts.own;
  auto set = [&v](const std::string& name, double value) {
    v.emplace(name, value);  // the workload's own figure wins
  };
  Tracer& tracer = Tracer::Get();
  set("data.load_ms", Median(tracer.DurationsMs("data.load")));

  // ---- Rule parsing into a fresh catalog. ----
  Result<std::string> text = ReadFile(in.files->rules[0]);
  if (!text.ok()) {
    errors->push_back(text.status().ToString());
    return {};
  }
  std::vector<double> parse_ms;
  emdbg::FeatureCatalog catalog(corpus.a->schema(), corpus.b->schema());
  MatchingFunction fn;
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    emdbg::FeatureCatalog fresh(corpus.a->schema(), corpus.b->schema());
    Span span("core.parse_rules");
    Stopwatch w;
    Result<MatchingFunction> parsed =
        emdbg::ParseMatchingFunction(*text, fresh);
    parse_ms.push_back(w.ElapsedMillis());
    if (!parsed.ok()) {
      errors->push_back(parsed.status().ToString());
      return {};
    }
    if (rep == 0) {
      catalog = fresh;
      fn = std::move(*parsed);
    }
  }
  set("core.parse_rules_ms", Median(parse_ms));
  Result<MatchingFunction> extra =
      emdbg::LoadRulesFile(in.files->extra_rules, catalog);
  if (!extra.ok()) {
    errors->push_back(extra.status().ToString());
    return {};
  }
  const std::vector<FeatureId> kernel_features = KernelFeatures(fn, catalog);

  emdbg::ThreadPool pool1(1);
  emdbg::ThreadPool pool2(2);
  emdbg::PairContext ctx(*corpus.a, *corpus.b, catalog);

  // ---- Tokenize + intern, measured eagerly. ----
  {
    Span span("text.prewarm");
    Stopwatch w;
    ctx.Prewarm(fn.UsedFeatures(), &pool2);
    set("text.prewarm_ms", w.ElapsedMillis());
    ctx.Prewarm(kernel_features, &pool2);
  }

  // ---- Kernels through ComputeFeatureBlock. ----
  {
    Span span("text.kernel");
    const std::vector<emdbg::PairId> head(
        pairs.pairs().begin(),
        pairs.pairs().begin() + std::min(pairs.size(), kKernelPairs));
    for (size_t i = 0; i < kernel_features.size(); ++i) {
      const emdbg::Feature& f = catalog.feature(kernel_features[i]);
      set(std::string("text.kernel_us.") +
              emdbg::GetSimFunctionInfo(f.fn).name,
          KernelUs(ctx, kernel_features[i], head));
    }
  }

  // ---- Cost model and ordering, repeated on identical input. ----
  emdbg::Rng rng(1);
  const CandidateSet sample = emdbg::SamplePairs(pairs, 0.01, rng, 100);
  std::vector<double> estimate_ms, greedy_ms;
  std::set<uint32_t> plans;
  std::unique_ptr<CostModel> model;
  MatchingFunction greedy_fn;
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    Stopwatch w;
    {
      Span span("core.cost_model.estimate");
      model = std::make_unique<CostModel>(
          CostModel::EstimateForFunction(fn, ctx, sample));
    }
    estimate_ms.push_back(w.ElapsedMillis());
    greedy_fn = fn;
    w.Restart();
    {
      Span span("core.order.greedy");
      emdbg::ApplyOrdering(greedy_fn, emdbg::OrderingStrategy::kGreedyReduction,
                           *model, nullptr);
    }
    greedy_ms.push_back(w.ElapsedMillis());
    plans.insert(PlanDigest(greedy_fn, catalog));
  }
  set("core.cost_model.estimate_ms", Median(estimate_ms));
  set("core.order.greedy_ms", Median(greedy_ms));
  set("core.order.plan_digests", static_cast<double>(plans.size()));
  // The plan the workload executes: as written when pinned, the
  // server's greedy order otherwise.
  const MatchingFunction& plan_fn =
      workload == "serve_sessions" ? greedy_fn : fn;
  set("core.block.auto_size",
      static_cast<double>(emdbg::BlockMatcher::ResolveBlockSize(
          emdbg::BlockMatcher::Options{.block_size = 0,
                                       .cost_model = model.get()},
          plan_fn)));

  // ---- First-run counters of the workload itself. ----
  const emdbg::MatchStats& st = facts.first_stats;
  set("core.match.feature_computations",
      static_cast<double>(st.feature_computations));
  set("core.match.memo_hits", static_cast<double>(st.memo_hits));
  set("core.match.predicate_evaluations",
      static_cast<double>(st.predicate_evaluations));
  set("core.match.rule_evaluations", static_cast<double>(st.rule_evaluations));
  set("core.match.memo_hit_ratio",
      Ratio(static_cast<double>(st.memo_hits),
            static_cast<double>(st.memo_hits + st.feature_computations)));

  // ---- Serial reference run: model accuracy and the kernel share. ----
  DenseMemo serial_memo(pairs.size(), catalog.size());
  double serial_ms = 0.0;
  {
    Span span("core.match.serial_cold");
    Stopwatch w;
    const MatchResult r =
        emdbg::MemoMatcher(emdbg::MemoMatcher::Options{.check_cache_first = true})
            .RunWithMemo(plan_fn, pairs, ctx, serial_memo);
    serial_ms = w.ElapsedMillis();
    if (BitmapDigest(r.matches) != ref.digest) {
      errors->push_back("serial probe differs from the reference");
    }
  }
  set("core.cost_model.predicted_over_actual",
      Ratio(model->EstimateRuntimeMs(plan_fn, pairs.size(), true), serial_ms));
  {
    Span span("text.kernel_share");
    double kernel_us = 0.0;
    for (const FeatureId f : plan_fn.UsedFeatures()) {
      std::vector<emdbg::PairId> computed;
      size_t count = 0;
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (serial_memo.Contains(i, f)) {
          ++count;
          if (computed.size() < kSharePairs) computed.push_back(pairs.pair(i));
        }
      }
      kernel_us += static_cast<double>(count) * KernelUs(ctx, f, computed);
    }
    set("text.kernel_share", Ratio(kernel_us / 1e3, serial_ms));
  }

  // ---- The workload's engine: cold then warm on one memo. ----
  {
    DenseMemo memo(pairs.size(), catalog.size());
    Stopwatch w;
    {
      Span span("core.match.cold");
      EngineRun(workload, plan_fn, pairs, ctx, memo, *model);
    }
    set("core.match.cold_ms", w.ElapsedMillis());
    w.Restart();
    {
      Span span("core.match.warm");
      EngineRun(workload, plan_fn, pairs, ctx, memo, *model);
    }
    set("core.match.warm_ms", w.ElapsedMillis());
  }

  // ---- Thread pool: 1 vs 2 workers on the block engine. ----
  double in_ram_ms = 0.0;
  {
    Span span("util.pool.speedup");
    double ms[2] = {0.0, 0.0};
    std::vector<emdbg::MatchStats> per_worker;
    for (int t = 0; t < 2; ++t) {
      DenseMemo memo(pairs.size(), catalog.size());
      emdbg::ParallelMemoMatcher m(emdbg::ParallelMemoMatcher::Options{
          .check_cache_first = true,
          .pool = t == 0 ? &pool1 : &pool2,
          .per_worker_stats = t == 1 ? &per_worker : nullptr,
          .block_size = 0,
          .cost_model = model.get()});
      const double cpu0 = ProcessCpuMs();
      Stopwatch w;
      const MatchResult r = m.RunWithMemo(plan_fn, pairs, ctx, memo);
      ms[t] = w.ElapsedMillis();
      if (t == 1) {
        set("util.pool.busy_ratio_2t",
            Ratio(ProcessCpuMs() - cpu0, 2.0 * ms[t]));
      }
      if (BitmapDigest(r.matches) != ref.digest) {
        errors->push_back("pool probe differs from the reference");
      }
    }
    in_ram_ms = ms[1];
    set("util.pool.speedup_2t", Ratio(ms[0], ms[1]));
    double max_fc = 0.0, sum_fc = 0.0;
    for (const emdbg::MatchStats& w : per_worker) {
      max_fc = std::max(max_fc, static_cast<double>(w.feature_computations));
      sum_fc += static_cast<double>(w.feature_computations);
    }
    set("util.pool.work_imbalance",
        per_worker.empty()
            ? 0.0
            : Ratio(max_fc, sum_fc / static_cast<double>(per_worker.size())));
  }

  // ---- Sharded driver at 1/8 of the in-RAM memo. ----
  {
    Span span("core.shard.probe");
    // 1/8 of the in-RAM memo, as in spill_match, but never below 2 MiB:
    // on a small corpus the engine's fixed scratch alone exceeds 1/8 and
    // the driver would (correctly) refuse the run.
    const size_t memo_bytes = pairs.size() * catalog.size() * sizeof(float);
    emdbg::MemoryBudget budget(std::max<size_t>(memo_bytes / 8, 2 << 20),
                               "shard-probe");
    std::error_code ec;
    fs::create_directories(in.spill_root, ec);
    std::string pattern = in.spill_root + "/probe-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    const std::string dir =
        ::mkdtemp(buf.data()) != nullptr ? std::string(buf.data()) : "";
    {
      emdbg::ShardedMatchDriver driver(emdbg::ShardedMatchDriver::Options{
          .spill_dir = dir,
          .budget = &budget,
          .pool = &pool2,
          .block_size = 0,
          .cost_model = model.get(),
          .keep_state = !dir.empty()});
      Stopwatch w;
      const MatchResult r = driver.Run(plan_fn, pairs, ctx);
      const double run_ms = w.ElapsedMillis();
      if (r.partial || BitmapDigest(r.matches) != ref.digest) {
        errors->push_back("shard probe differs from the reference: " +
                          std::to_string(r.MatchCount()) + " matches vs " +
                          std::to_string(ref.matches) + ", " +
                          r.status.ToString());
      }
      set("core.shard.count", static_cast<double>(driver.shards().size()));
      set("core.shard.spilled_mb", Mb(driver.spilled_bytes()));
      set("core.shard.run_ms", run_ms);
      set("core.shard.overhead_ratio", Ratio(run_ms, in_ram_ms));
    }
    set("util.budget.peak_mb", Mb(budget.peak()));
    set("util.budget.denials", static_cast<double>(budget.stats().denials));
    set("util.budget.reclaim_runs",
        static_cast<double>(budget.stats().reclaim_runs));
    if (!dir.empty()) fs::remove_all(dir, ec);
  }

  // ---- Incremental edits (the workload's own, or a probe session). ----
  std::vector<EditSample> inc = facts.inc_edits;
  if (inc.empty()) {
    Span span("core.inc.probe");
    emdbg::DebugSession::Options options;
    options.ordering = emdbg::OrderingStrategy::kAsWritten;
    emdbg::DebugSession session(corpus.a, corpus.b, corpus.pairs, options);
    Result<MatchingFunction> own =
        emdbg::ParseMatchingFunction(*text, session.catalog());
    Result<MatchingFunction> pool_rules =
        emdbg::LoadRulesFile(in.files->extra_rules, session.catalog());
    if (own.ok() && pool_rules.ok()) {
      for (const emdbg::Rule& r : own->rules()) session.AddRule(r);
      session.Run();
      std::unique_ptr<EditTarget> target = MakeSessionTarget(session, false);
      EditScriptRunner runner(
          *target, MakeEditScript(target->function(), *pool_rules,
                                  kIncProbePairs, /*seed=*/9));
      if (runner.RunPairs(kIncProbePairs) > 0) {
        errors->push_back("incremental probe: " + runner.first_error());
      }
      inc = runner.samples();
    } else {
      errors->push_back("incremental probe could not parse its rules");
    }
  }
  const auto by_type = ByType(inc);
  for (size_t t = 0; t < kNumEditTypes; ++t) {
    const std::string type = EditTypeName(static_cast<EditType>(t));
    std::vector<double> ms, evals;
    for (const EditSample* s : by_type[t]) {
      ms.push_back(s->ms);
      evals.push_back(static_cast<double>(s->stats.predicate_evaluations));
    }
    set("core.inc." + type + "_p50_ms", Median(ms));
    set("core.inc." + type + "_evals", Median(evals));
  }

  // ---- The wire: a probe server over the same corpus. ----
  if (v.count("serve.ping_p50_ms") == 0) {
    Span span("serve.probe");
    emdbg::Server::Options options;
    options.num_workers = 2;
    options.mem_budget_bytes = size_t{1} << 32;
    emdbg::Server server(corpus.a, corpus.b, corpus.pairs, options);
    emdbg::Status started = server.Start();
    Result<emdbg::ServeClient> client =
        started.ok() ? emdbg::ServeClient::Connect("127.0.0.1", server.port(),
                                                   5000)
                     : Result<emdbg::ServeClient>(started);
    if (client.ok() && client->Call("open").ok()) {
      for (size_t i = 0; i < std::min<size_t>(8, fn.num_rules()); ++i) {
        (void)client->Call("add_rule " + emdbg::RuleToDsl(fn.rule(i), catalog));
      }
      (void)client->Call("run");
      std::vector<double> ping_ms;
      for (size_t k = 0; k < kPings; ++k) {
        Stopwatch w;
        if (client->Call("ping").ok()) ping_ms.push_back(w.ElapsedMillis());
      }
      set("serve.ping_p50_ms", Median(ping_ms));
      const emdbg::Server::Stats s = server.stats();
      set("serve.requests_shed", static_cast<double>(s.requests_shed));
      set("serve.requests_expired", static_cast<double>(s.requests_expired));
      set("serve.mem_used_mb", Mb(s.mem_used_bytes));
      client->Close();
    } else {
      errors->push_back("serve probe could not connect");
    }
    server.Shutdown();
  }

  // ---- The trace itself. ----
  set("trace.overhead_ratio", Ratio(facts.traced_ms, facts.untraced_ms));
  const std::map<std::string, double> self = tracer.SelfMsByLayer();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    set(std::string("trace.self_ms.") + layer,
        it == self.end() ? 0.0 : it->second);
  }

  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = v.find(name);
    if (it == v.end()) {
      errors->push_back("per-layer metric not measured: " + name);
      continue;
    }
    out.push_back(Metric{name, it->second, unit});
  }
  return out;
}

}  // namespace e2ebench
