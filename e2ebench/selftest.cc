// Self-tests of the benchmark's own code: the percentile rule, metric
// name validity, best-per-edit aggregation, and the inverse property of
// edit scripts on a tiny dataset. Prints every metric name with its unit (one per line, for
// the BENCHMARK.json cross-check in run.py) and exits non-zero on the
// first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>

#include "e2ebench/bench_util.h"
#include "e2ebench/edit_script.h"
#include "e2ebench/layers.h"
#include "e2ebench/workloads.h"
#include "src/core/debug_session.h"
#include "src/core/memo_matcher.h"
#include "src/core/rule_generator.h"
#include "src/core/sampler.h"
#include "src/data/datasets.h"
#include "src/data/generator.h"

namespace e2ebench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

void TestPercentileRule() {
  const std::vector<double>& ladder = TailLadder();
  EXPECT(SamplesBeyond(1000, 99.0) == 10);
  EXPECT(SamplesBeyond(999, 99.0) == 9);
  EXPECT(HighestSupportedPercentile(10000, ladder) == 99.9);
  EXPECT(HighestSupportedPercentile(9999, ladder) == 99.0);
  EXPECT(HighestSupportedPercentile(1000, ladder) == 99.0);
  EXPECT(HighestSupportedPercentile(999, ladder) == 95.0);
  EXPECT(HighestSupportedPercentile(200, ladder) == 95.0);
  EXPECT(HighestSupportedPercentile(100, ladder) == 90.0);
  EXPECT(HighestSupportedPercentile(99, ladder) == 75.0);
  EXPECT(HighestSupportedPercentile(20, ladder) == 50.0);
  EXPECT(HighestSupportedPercentile(19, ladder) == -1.0);
  EXPECT(HighestSupportedPercentile(0, ladder) == -1.0);
  // Every rung it picks really has >= 10 samples beyond it.
  for (size_t n = 0; n < 12000; n += 7) {
    const double p = HighestSupportedPercentile(n, ladder);
    if (p > 0) EXPECT(SamplesBeyond(n, p) >= 10);
  }
  EXPECT(Percentile({}, 50) == 0.0);
  EXPECT(Percentile({3.0}, 99) == 3.0);
  EXPECT(Percentile({1, 2, 3, 4}, 50) == 2.5);
  EXPECT(Percentile({4, 1, 3, 2}, 100) == 4.0);
  EXPECT(std::fabs(Percentile({0, 10}, 90) - 9.0) < 1e-12);
}

void TestMetricNames() {
  EXPECT(ValidMetricName("setup_s"));
  EXPECT(ValidMetricName("text.kernel_us.soft_tf_idf"));
  EXPECT(ValidMetricName("9lives"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_hidden"));
  EXPECT(!ValidMetricName(".dot"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/no"));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(ValidMetricUnit("1/s"));
  EXPECT(ValidMetricUnit("%"));
  EXPECT(!ValidMetricUnit(""));
  EXPECT(!ValidMetricUnit("micro seconds"));
  EXPECT(!ValidMetricUnit(std::string(17, 'u')));
  std::set<std::string> seen;
  for (const auto& [name, unit] : EndToEndMetricSpecs()) {
    EXPECT(ValidMetricName(name));
    EXPECT(ValidMetricUnit(unit));
    EXPECT(seen.insert(name).second);
  }
  for (const auto& [name, unit] : PerLayerMetrics()) {
    EXPECT(ValidMetricName(name));
    EXPECT(ValidMetricUnit(unit));
    EXPECT(seen.insert(name).second);  // used once
  }
}

// A tiny dataset: every edit pair of a script must restore the match
// bitmap exactly, in incremental and in batch (rerun) mode, and the
// final result must equal a fresh serial run of the final function.
void TestEditScriptInverse(bool incremental) {
  emdbg::DatasetProfile profile = emdbg::ScaleProfile(
      emdbg::PaperDatasetProfile(emdbg::DatasetId::kProducts), 0.01);
  profile.seed = 11;
  emdbg::GeneratedDataset ds = emdbg::GenerateDataset(profile);
  emdbg::FeatureCatalog gen_catalog(ds.a.schema(), ds.b.schema());
  gen_catalog.InternAllSameAttribute();
  emdbg::PairContext gen_ctx(ds.a, ds.b, gen_catalog);
  emdbg::Rng rng(5);
  const emdbg::CandidateSet sample =
      emdbg::SamplePairs(ds.candidates, 0.05, rng, 50);
  emdbg::RuleGeneratorConfig config;
  config.num_rules = 12;
  config.feature_pool = 16;
  config.seed = 3;
  const emdbg::RuleGenerator gen(gen_ctx, sample, config);
  const std::vector<emdbg::Rule> base_rules = gen.GenerateRules(12, rng);
  emdbg::MatchingFunction extra;
  for (const emdbg::Rule& r : gen.GenerateRules(8, rng)) extra.AddRule(r);

  emdbg::DebugSession::Options options;
  options.ordering = emdbg::OrderingStrategy::kAsWritten;
  options.incremental = incremental;
  auto a = std::make_shared<const emdbg::Table>(ds.a);
  auto b = std::make_shared<const emdbg::Table>(ds.b);
  auto pairs = std::make_shared<const emdbg::CandidateSet>(ds.candidates);
  emdbg::DebugSession session(a, b, pairs, options);
  // Same schemas, so the generator's feature ids mean the same features
  // once interned in the same order.
  session.catalog().InternAllSameAttribute();
  for (const emdbg::Rule& r : base_rules) session.AddRule(r);
  const emdbg::Bitmap first = session.Run();

  std::unique_ptr<EditTarget> target = MakeSessionTarget(session, !incremental);
  const size_t pairs_to_run = 3 * kNumEditTypes;
  EditScriptRunner runner(
      *target, MakeEditScript(target->function(), extra, pairs_to_run, 9));
  EXPECT(runner.RunPairs(pairs_to_run) == 0);
  if (!runner.first_error().empty()) {
    std::fprintf(stderr, "  %s\n", runner.first_error().c_str());
  }
  EXPECT(runner.attempted() == 2 * pairs_to_run);
  EXPECT(runner.samples().size() == 2 * pairs_to_run);
  const auto by_type = ByType(runner.samples());
  for (size_t t = 0; t < kNumEditTypes; ++t) EXPECT(by_type[t].size() == 6);
  EXPECT(session.Run() == first);

  emdbg::PairContext ctx(ds.a, ds.b, session.catalog());
  const emdbg::MatchResult fresh =
      emdbg::MemoMatcher().Run(session.function(), ds.candidates, ctx);
  EXPECT(fresh.matches == first);
  EXPECT(session.function().num_rules() == base_rules.size());

  // A runner continues the script at the position the last one stopped.
  const size_t pos = runner.position();
  EditScriptRunner next(*target, MakeEditScript(target->function(), extra,
                                                pairs_to_run, 9),
                        pos, /*stream=*/1);
  EXPECT(next.RunPairs(1) == 0);
  EXPECT(next.samples().size() == 2);
  EXPECT(next.samples()[0].key == ((uint64_t{1} << 32) | pos));
  EXPECT(session.Run() == first);
}

void TestBestPerEdit() {
  std::vector<EditSample> samples(4);
  samples[0].key = 7, samples[0].ms = 3.0;
  samples[1].key = 9, samples[1].ms = 5.0;
  samples[2].key = 7, samples[2].ms = 2.0;
  samples[3].key = 9, samples[3].ms = 6.0;
  const std::vector<double> best = BestPerEdit(samples);
  EXPECT(best.size() == 2);
  EXPECT(best[0] == 2.0 && best[1] == 5.0);
}

}  // namespace
}  // namespace e2ebench

int main() {
  e2ebench::TestPercentileRule();
  e2ebench::TestMetricNames();
  e2ebench::TestBestPerEdit();
  e2ebench::TestEditScriptInverse(/*incremental=*/true);
  e2ebench::TestEditScriptInverse(/*incremental=*/false);
  for (const auto& [name, unit] : e2ebench::EndToEndMetricSpecs()) {
    std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
  }
  for (const auto& [name, unit] : e2ebench::PerLayerMetrics()) {
    std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
  }
  if (e2ebench::g_failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", e2ebench::g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
