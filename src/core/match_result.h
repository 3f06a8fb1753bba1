#ifndef EMDBG_CORE_MATCH_RESULT_H_
#define EMDBG_CORE_MATCH_RESULT_H_

#include <cstddef>
#include <string>
#include <utility>

#include "src/block/candidate_pairs.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace emdbg {

/// Work counters for one matching run. `feature_computations` is the
/// quantity the paper's techniques minimize (similarity computation
/// dominates matching time, Sec. 1); `memo_hits` are the δ-cost lookups.
struct MatchStats {
  size_t feature_computations = 0;
  size_t memo_hits = 0;
  size_t predicate_evaluations = 0;
  size_t rule_evaluations = 0;
  double elapsed_ms = 0.0;

  MatchStats& operator+=(const MatchStats& other) {
    feature_computations += other.feature_computations;
    memo_hits += other.memo_hits;
    predicate_evaluations += other.predicate_evaluations;
    rule_evaluations += other.rule_evaluations;
    elapsed_ms += other.elapsed_ms;
    return *this;
  }

  std::string ToString() const;
};

/// Output of a matcher: per-pair decisions (bit i ⇔ candidate pair i
/// matched) plus work counters.
///
/// Partial results (graceful degradation): when a run is stopped early by
/// a `RunControl` (cancellation or deadline), `partial` is true, `status`
/// explains why (kCancelled / kDeadlineExceeded), and only the pairs
/// marked in `evaluated` carry valid match bits — everything else is
/// unevaluated and left 0. Complete runs have `partial == false`,
/// an OK `status`, `pairs_completed == pairs.size()`, and an empty
/// `evaluated` bitmap (all bits are valid).
struct MatchResult {
  Bitmap matches;
  MatchStats stats;

  /// False for a complete run; true when stopped early.
  bool partial = false;
  /// Number of candidate pairs whose match bit is valid.
  size_t pairs_completed = 0;
  /// Populated only when `partial`: bit i ⇔ pair i was evaluated.
  Bitmap evaluated;
  /// OK when complete; kCancelled or kDeadlineExceeded when partial.
  Status status;

  size_t MatchCount() const { return matches.Count(); }

  /// Marks a complete run over `num_pairs` pairs.
  void MarkComplete(size_t num_pairs) {
    partial = false;
    pairs_completed = num_pairs;
    status = Status::Ok();
  }

  /// Marks a run stopped after the prefix [0, completed) was evaluated.
  void MarkPartialPrefix(size_t completed, size_t num_pairs,
                         Status stop_status);

  /// A run that evaluated nothing: refused before the first pair (a
  /// denied reservation, an unsafe memo) with `why` as its status.
  static MatchResult NotStarted(size_t num_pairs, Status why) {
    MatchResult r;
    r.matches = Bitmap(num_pairs);
    r.MarkPartialPrefix(0, num_pairs, std::move(why));
    return r;
  }
};

/// Precision/recall of predicted matches against ground-truth labels
/// (Sec. 3: "the matching results for the sample is then compared with the
/// correct labels").
struct QualityMetrics {
  size_t true_positives = 0;
  size_t false_positives = 0;
  size_t false_negatives = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;

  std::string ToString() const;
};

/// Computes quality metrics; `predicted` and `labels` must be the same
/// size (aligned to one CandidateSet).
QualityMetrics Evaluate(const Bitmap& predicted, const PairLabels& labels);

}  // namespace emdbg

#endif  // EMDBG_CORE_MATCH_RESULT_H_
