// Per-layer measurements of the traced run: each figure comes from
// timing a call into one module's public functions from outside.
#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "e2ebench/bench_util.h"
#include "e2ebench/edit_script.h"
#include "e2ebench/workloads.h"
#include "src/core/match_result.h"

namespace e2ebench {

/// What the workload itself observed while it ran traced; the probes
/// fill in the rest.
struct LayerFacts {
  emdbg::MatchStats first_stats;  ///< counters of the workload's first run
  /// The workload's own incremental edits (edit_loop); empty elsewhere,
  /// in which case a probe session supplies them.
  std::vector<EditSample> inc_edits;
  /// Budget, pool and serve figures the workload measured itself (keys
  /// are metric names); probes do not override them.
  std::map<std::string, double> own;
  /// Untraced and traced wall time of the same edit passes.
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
};

struct LayerInputs {
  const RunConfig* config = nullptr;
  const InputFiles* files = nullptr;
  const Corpus* corpus = nullptr;
  std::string spill_root;
};

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Runs the layer probes, on the workload's first rule set, and returns
/// every per-layer metric. Errors (a
/// probe whose output disagrees with the reference) go to `errors`.
std::vector<Metric> MeasureLayers(const LayerInputs& in,
                                  const LayerFacts& facts,
                                  std::vector<std::string>* errors);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
