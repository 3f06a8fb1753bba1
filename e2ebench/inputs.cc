#include "e2ebench/inputs.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "e2ebench/bench_util.h"
#include "src/core/memo_matcher.h"
#include "src/core/pair_context.h"
#include "src/core/rule_generator.h"
#include "src/core/rule_parser.h"
#include "src/core/sampler.h"
#include "src/data/candidate_io.h"
#include "src/data/generator.h"
#include "src/data/table_io.h"

namespace e2ebench {

namespace fs = std::filesystem;
using emdbg::Result;
using emdbg::Status;

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

namespace {

// Rules in the extra pool that edits draw new rules and predicates from.
constexpr size_t kExtraRules = 64;

std::string SpecKey(const InputSpec& spec, uint64_t seed) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s-x%g-%s-r%zu-s%zu-seed%llu",
                emdbg::DatasetName(spec.dataset), spec.scale,
                spec.selective ? "sel" : "perm", spec.num_rules,
                spec.rule_sets, static_cast<unsigned long long>(seed));
  return buf;
}

InputFiles Layout(const std::string& dir, size_t rule_sets) {
  InputFiles files;
  files.dir = dir;
  files.a_csv = dir + "/table_a.csv";
  files.b_csv = dir + "/table_b.csv";
  files.pairs_csv = dir + "/pairs.csv";
  for (size_t i = 0; i < rule_sets; ++i) {
    files.rules.push_back(dir + "/rules_" + std::to_string(i) + ".rules");
  }
  files.extra_rules = dir + "/extra.rules";
  return files;
}

void NameRules(emdbg::MatchingFunction& fn, const std::string& prefix) {
  for (size_t i = 0; i < fn.num_rules(); ++i) {
    fn.mutable_rule(i).set_name(prefix + std::to_string(i));
  }
}

// Serial, as-written DM+EE over the files exactly as a workload loads
// them: the oracle every workload's output is compared with.
Result<std::vector<Reference>> ComputeReferences(const InputFiles& files) {
  Result<emdbg::Table> a = emdbg::LoadTableCsv(files.a_csv);
  if (!a.ok()) return a.status();
  Result<emdbg::Table> b = emdbg::LoadTableCsv(files.b_csv);
  if (!b.ok()) return b.status();
  Result<emdbg::LoadedCandidates> pairs =
      emdbg::LoadCandidatesCsv(files.pairs_csv);
  if (!pairs.ok()) return pairs.status();
  std::vector<Reference> refs;
  for (const std::string& path : files.rules) {
    emdbg::FeatureCatalog catalog(a->schema(), b->schema());
    Result<emdbg::MatchingFunction> fn = emdbg::LoadRulesFile(path, catalog);
    if (!fn.ok()) return fn.status();
    emdbg::PairContext ctx(*a, *b, catalog);
    const emdbg::MatchResult r =
        emdbg::MemoMatcher().Run(*fn, pairs->candidates, ctx);
    refs.push_back(Reference{BitmapDigest(r.matches), r.MatchCount()});
  }
  return refs;
}

Status Generate(const InputSpec& spec, uint64_t seed, const InputFiles& files) {
  emdbg::DatasetProfile profile = emdbg::ScaleProfile(
      emdbg::PaperDatasetProfile(spec.dataset), spec.scale);
  profile.seed = seed * 1000003ULL + static_cast<uint64_t>(spec.dataset);
  const emdbg::GeneratedDataset ds = emdbg::GenerateDataset(profile);
  Status s = emdbg::SaveTableCsv(ds.a, files.a_csv);
  if (s.ok()) s = emdbg::SaveTableCsv(ds.b, files.b_csv);
  if (s.ok()) s = emdbg::SaveCandidatesCsv(ds.candidates, &ds.labels,
                                           files.pairs_csv);
  if (!s.ok()) return s;

  // The rule generator of the repo's block bench (bench/bench_block.cc):
  // 4-9 predicates per rule over a 32-feature pool, thresholds on sampled
  // quantiles. The pool, the sample and the rule draws are fixed as
  // there, so every seed gets the same rule structure; only the dataset
  // (and, through its sampled quantiles, the thresholds) varies with the
  // seed. Random rule draws per seed would change the amount of work a
  // run does far more than the data does.
  emdbg::FeatureCatalog catalog(ds.a.schema(), ds.b.schema());
  catalog.InternAllSameAttribute();
  emdbg::PairContext ctx(ds.a, ds.b, catalog);
  emdbg::Rng sample_rng(20170321);
  const emdbg::CandidateSet sample =
      emdbg::SamplePairs(ds.candidates, 0.01, sample_rng, 100);
  emdbg::RuleGeneratorConfig config;
  config.num_rules = spec.num_rules;
  config.min_predicates = 4;
  config.max_predicates = 9;
  config.feature_pool = 32;
  config.seed = 20170321;
  if (spec.selective) {
    config.quantile_lo = 0.97;
    config.quantile_hi = 0.999;
    config.upper_bound_fraction = 0.0;
    config.seed = 4242;
  }
  emdbg::Rng rng(4242);
  const emdbg::RuleGenerator generator(ctx, sample, config);
  for (size_t i = 0; i < files.rules.size(); ++i) {
    emdbg::MatchingFunction fn;
    for (emdbg::Rule& r : generator.GenerateRules(spec.num_rules, rng)) {
      fn.AddRule(std::move(r));
    }
    NameRules(fn, "r");
    s = emdbg::SaveRulesFile(fn, catalog, files.rules[i]);
    if (!s.ok()) return s;
  }
  emdbg::MatchingFunction extra;
  for (emdbg::Rule& r : generator.GenerateRules(kExtraRules, rng)) {
    extra.AddRule(std::move(r));
  }
  NameRules(extra, "x");
  return emdbg::SaveRulesFile(extra, catalog, files.extra_rules);
}

Status WriteReferences(const std::string& path,
                       const std::vector<Reference>& refs) {
  std::ofstream out(path);
  for (const Reference& r : refs) {
    out << Hex32(r.digest) << ' ' << r.matches << '\n';
  }
  out.close();
  return out ? Status::Ok() : Status::IoError("cannot write " + path);
}

Result<std::vector<Reference>> ReadReferences(const std::string& path,
                                              size_t expected) {
  std::ifstream in(path);
  std::vector<Reference> refs;
  std::string hex;
  size_t matches = 0;
  while (in >> hex >> matches) {
    refs.push_back(Reference{
        static_cast<uint32_t>(std::stoul(hex, nullptr, 16)), matches});
  }
  if (refs.size() != expected) {
    return Status::ParseError("bad reference file " + path);
  }
  return refs;
}

}  // namespace

Result<InputFiles> EnsureInputs(const InputSpec& spec, uint64_t seed,
                                const std::string& root) {
  const std::string dir = root + "/" + SpecKey(spec, seed);
  InputFiles files = Layout(dir, spec.rule_sets);
  const std::string ref_path = dir + "/reference.txt";
  std::error_code ec;
  if (!fs::exists(ref_path, ec)) {
    // Build in a private directory and publish with one rename, so a
    // concurrent or interrupted generation never leaves a half set.
    const std::string tmp =
        dir + ".tmp-" + std::to_string(static_cast<long>(::getpid()));
    fs::remove_all(tmp, ec);
    fs::create_directories(tmp, ec);
    if (ec) return Status::IoError("cannot create " + tmp);
    const InputFiles tmp_files = Layout(tmp, spec.rule_sets);
    Status s = Generate(spec, seed, tmp_files);
    if (!s.ok()) return s;
    Result<std::vector<Reference>> refs = ComputeReferences(tmp_files);
    if (!refs.ok()) return refs.status();
    s = WriteReferences(tmp + "/reference.txt", *refs);
    if (!s.ok()) return s;
    fs::rename(tmp, dir, ec);
    if (ec) fs::remove_all(tmp, ec);  // lost a race: the winner's set stays
  }
  Result<std::vector<Reference>> refs =
      ReadReferences(ref_path, spec.rule_sets);
  if (!refs.ok()) return refs.status();
  files.reference = std::move(*refs);
  return files;
}

}  // namespace e2ebench
