// The four benchmark workloads and what a run of one reports.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/bench_util.h"
#include "e2ebench/inputs.h"
#include "src/block/candidate_pairs.h"
#include "src/data/table.h"

namespace emdbg {
class DebugSession;
}  // namespace emdbg

namespace e2ebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< inputs, reports, traces and spill files
  std::string source_digest;
  std::string run_id;
};

/// What one run found. `metrics` holds the end-to-end metrics (tracing
/// off) or the per-layer ones (tracing on); `report` is a JSON object
/// with the stamp and the reproducibility record.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::string report;
};

/// End-to-end metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricSpecs();

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

Outcome RunWorkload(const RunConfig& config);

/// Immutable corpus loaded from the input CSVs, shareable by sessions.
struct Corpus {
  std::shared_ptr<const emdbg::Table> a;
  std::shared_ptr<const emdbg::Table> b;
  std::shared_ptr<const emdbg::CandidateSet> pairs;
};
emdbg::Result<Corpus> LoadCorpus(const InputFiles& files);

class EditTarget;
/// An edit target over a DebugSession; `rerun` calls Run() after each
/// edit (batch mode, where edits do not maintain the result).
std::unique_ptr<EditTarget> MakeSessionTarget(emdbg::DebugSession& session,
                                              bool rerun);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
