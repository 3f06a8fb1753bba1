// Small shared pieces of the end-to-end benchmark: percentile rules,
// output digests, metric records and the result stamp.
#ifndef E2EBENCH_BENCH_UTIL_H_
#define E2EBENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/feature.h"
#include "src/core/match_result.h"
#include "src/core/matching_function.h"
#include "src/util/bitmap.h"

namespace e2ebench {

// ---- Percentiles. ----

/// Linear-interpolation percentile (p in [0, 100]) of `values`; 0 when
/// empty. Sorts a copy.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Number of samples strictly above the p-th percentile rank of `n`
/// samples: n - ceil(n * p / 100).
size_t SamplesBeyond(size_t n, double p);

/// The percentile rule: the highest percentile of `ladder` (descending
/// order) that still has at least `min_beyond` samples beyond it, or -1
/// when none does. A tail figure backed by fewer samples is noise.
double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& ladder,
                                  size_t min_beyond = 10);

/// The ladder the benchmark reports tails from.
const std::vector<double>& TailLadder();

// ---- Digests. ----

/// CRC32C over the bitmap's size and words: equal digests mean equal
/// match results bit for bit.
uint32_t BitmapDigest(const emdbg::Bitmap& bits);

/// CRC32C over the function in evaluation order (rule names, predicate
/// DSL). Two runs executed the same plan iff their digests agree.
uint32_t PlanDigest(const emdbg::MatchingFunction& fn,
                    const emdbg::FeatureCatalog& catalog);

std::string Hex32(uint32_t v);

// ---- Metrics. ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Names: start with a letter or digit; at most 64 of [A-Za-z0-9_.-].
bool ValidMetricName(std::string_view name);
/// Units: 1 to 16 of [A-Za-z0-9_/%.-].
bool ValidMetricUnit(std::string_view unit);

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// with every value printed at full precision.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// ---- Process facts. ----

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();
std::string CpuModel();
unsigned OnlineCpus();
const char* CompilerId();
const char* BuildType();

/// Escapes `s` for a JSON string literal (without the quotes).
std::string JsonEscape(std::string_view s);

/// The MatchStats counters as a JSON object (elapsed time excluded: it is
/// wall clock, not a count).
std::string StatsJson(const emdbg::MatchStats& s);

bool SameCounts(const emdbg::MatchStats& x, const emdbg::MatchStats& y);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_UTIL_H_
