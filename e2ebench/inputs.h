// Seeded input generation. Every workload reads only files: two CSV
// tables, a candidate-pair CSV and rule files in the DSL. They are made
// once per (dataset, seed) under the work directory and reused; the same
// seed always yields byte-identical files.
#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/datasets.h"
#include "src/util/status.h"

namespace e2ebench {

struct InputSpec {
  emdbg::DatasetId dataset = emdbg::DatasetId::kProducts;
  double scale = 1.0;
  /// Selective: thresholds at the 0.97-0.999 quantiles, lower bounds only
  /// (rare matches, every rule is tried). Otherwise the generator's
  /// default mid-quantile ("permissive") thresholds.
  bool selective = false;
  size_t num_rules = 255;
  /// Independent rule sets (one per serve session).
  size_t rule_sets = 1;
};

/// Reference outcome of one rule set: an untimed serial MemoMatcher run
/// of the rules as written over the CSV-loaded inputs.
struct Reference {
  uint32_t digest = 0;
  size_t matches = 0;
};

struct InputFiles {
  std::string dir;
  std::string a_csv;
  std::string b_csv;
  std::string pairs_csv;
  std::vector<std::string> rules;  ///< one per rule set
  std::string extra_rules;
  std::vector<Reference> reference;  ///< aligned with `rules`
};

/// Returns the input files for `spec` and `seed` under `root`, generating
/// them (and the reference outcomes) on first use.
emdbg::Result<InputFiles> EnsureInputs(const InputSpec& spec, uint64_t seed,
                                       const std::string& root);

/// Reads a whole file.
emdbg::Result<std::string> ReadFile(const std::string& path);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
