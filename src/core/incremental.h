#ifndef EMDBG_CORE_INCREMENTAL_H_
#define EMDBG_CORE_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "src/block/candidate_pairs.h"
#include "src/core/match_result.h"
#include "src/core/match_state.h"
#include "src/core/matching_function.h"
#include "src/core/pair_context.h"
#include "src/util/cancellation.h"
#include "src/util/thread_pool.h"

namespace emdbg {

/// Incremental matching engine (Sec. 6): holds the current matching
/// function and the materialized state of the last run (memo, per-rule
/// true bitmaps, per-predicate false bitmaps), and applies rule edits by
/// re-evaluating only the affected pairs:
///
///   * AddPredicate / tightening a threshold  — Algorithm 7
///   * RemovePredicate / relaxing a threshold — Algorithm 8
///   * RemoveRule                             — Algorithm 9
///   * AddRule                                — Algorithm 10
///
/// Invariants maintained across edits (verified by property tests against
/// from-scratch runs):
///   I1. matches() equals what a full run of the current function would
///       produce.
///   I2. A set bit in RuleTrue(r) means rule r is true for that pair
///       under the current function, and each matched pair has exactly
///       one responsible rule bit set.
///   I3. A set bit in PredFalse(p) means predicate p is *currently* false
///       for that pair (bits are cleared or re-checked whenever an edit
///       could make them stale), so "some predicate bit set" is a sound
///       O(1) shortcut for "rule false".
///
/// Empty rules are treated as false everywhere (matchers skip them); the
/// empty→non-empty and non-empty→empty transitions are handled as special
/// cases of add/remove predicate.
class IncrementalMatcher {
 public:
  struct Options {
    /// Borrowed persistent work-stealing pool (must outlive the
    /// matcher). Full runs fan out across its workers through the block
    /// engine (see BlockMatcher), with results identical to the serial
    /// run; edits stay serial — their affected lanes are too few to pay
    /// for a fan-out. Null = serial.
    ThreadPool* pool = nullptr;
    /// Memory accountant for the materialized state's memo matrix and
    /// the block engine's per-worker scratch (null = unbudgeted). A
    /// denied reservation surfaces as ResourceExhausted from the full
    /// run or edit, with the prior state untouched. Must outlive the
    /// matcher.
    MemoryBudget* budget = nullptr;
    /// Pairs per block of full runs: 0 = auto-size, explicit values round
    /// up to a multiple of 64 (see BlockMatcher::Options).
    size_t block_size = 0;
  };

  /// `ctx` and `pairs` must outlive the matcher.
  IncrementalMatcher(PairContext& ctx, const CandidateSet& pairs)
      : IncrementalMatcher(ctx, pairs, Options{}) {}
  IncrementalMatcher(PairContext& ctx, const CandidateSet& pairs,
                     Options options);

  /// Full run of `fn` (copied in), building all materialized state. The
  /// memo persists across FullRun calls (Sec. 6 reuse), decision bitmaps
  /// are rebuilt.
  MatchStats FullRun(const MatchingFunction& fn);

  /// Controlled full run: checks `control` once per block. If the run is
  /// stopped early the result is partial (see match_result.h) and
  /// has_run() becomes false — the memo keeps everything computed so far
  /// (a later run resumes cheaply), but the decision bitmaps are
  /// incomplete, so incremental edits stay rejected until a complete
  /// FullRun succeeds.
  MatchResult FullRun(const MatchingFunction& fn,
                      const RunControl& control);

  /// Adopts previously materialized state (e.g. from LoadMatchState) for
  /// `fn` without re-running anything; subsequent edits are incremental.
  /// The state's pair count must match the candidate set, and its stable
  /// ids must belong to `fn` (they do when rules and state were saved
  /// together). InvalidArgument on a shape mismatch.
  Status Resume(const MatchingFunction& fn, MatchState state);

  bool has_run() const { return has_run_; }
  const MatchingFunction& function() const { return fn_; }
  const Bitmap& matches() const { return state_.matches(); }
  const MatchState& state() const { return state_; }
  MatchState& mutable_state() { return state_; }

  // ---- Incremental edits (each returns the work it performed). ----

  /// Algorithm 10. The rule is appended at the end of the evaluation
  /// order; only currently-unmatched pairs are evaluated against it.
  Result<MatchStats> AddRule(const Rule& rule);

  /// Algorithm 9. Pairs matched by the removed rule are re-checked
  /// against the remaining rules (with the predicate-false bitmap
  /// shortcut).
  Result<MatchStats> RemoveRule(RuleId rid);

  /// Algorithm 7. Only pairs previously matched by the rule are
  /// evaluated against the new predicate.
  Result<MatchStats> AddPredicate(RuleId rid, Predicate p);

  /// Algorithm 8 (with an always-true replacement). Only unmatched pairs
  /// that the removed predicate rejected are re-evaluated.
  Result<MatchStats> RemovePredicate(RuleId rid, PredicateId pid);

  /// Tighten or relax depending on the direction of change relative to
  /// the predicate's operator (Algorithm 7 or 8). Equal threshold is a
  /// no-op.
  Result<MatchStats> SetThreshold(RuleId rid, PredicateId pid,
                                  double threshold);

  /// Stable id assigned by the most recent successful AddRule /
  /// AddPredicate.
  RuleId last_added_rule_id() const { return last_added_rule_; }
  PredicateId last_added_predicate_id() const {
    return last_added_predicate_;
  }

 private:
  // Every edit collects its affected pair indices ("lanes") once, a word
  // at a time, and evaluates them either per pair (below one bitmap word
  // of lanes, where columnar setup does not pay) or gathered: the lanes'
  // pairs are packed into a dense list and each feature is evaluated
  // across all of them at once (ComputeFeatureBlock), with rule and
  // predicate combination by mask algebra. Both forms evaluate the
  // predicates in the order written, so they produce the same bitmaps
  // and MatchStats as each other and as the block engine's full runs.

  /// Memoized feature acquisition for candidate pair index `i`.
  double AcquireFeature(FeatureId f, size_t i, MatchStats& stats);

  /// Evaluates rule `r` for pair `i` with memoing; records the first
  /// false predicate in PredFalse. Does not touch RuleTrue/matches.
  bool EvalRule(const Rule& r, size_t i, MatchStats& stats);

  /// True if some predicate of `r` has its false-bit set for pair `i`
  /// (sound "rule is false" shortcut under I3).
  bool RuleKnownFalse(const Rule& r, size_t i) const;

  /// Re-evaluates pair `i` against the rules in the current order,
  /// skipping position `skip_pos`; on the first true rule marks the pair
  /// matched and sets the responsible-rule bit. Uses the known-false
  /// shortcut.
  void RematchPair(size_t i, size_t skip_pos, MatchStats& stats);

  /// Grows the memo if the catalog gained features since initialization.
  /// ResourceExhausted (state untouched, edit not applied) when the
  /// attached memory budget denies the growth.
  Status SyncMemoWidth();

  /// Evaluates rule `r` on every lane of `idx` (unmatched pairs); lanes
  /// where it is true become matched by it. Algorithms 8 and 10.
  MatchStats EvalRuleOnLanes(const Rule& r, std::vector<uint32_t> idx);

  /// Un-matches every lane of `idx` and re-matches it against the rules
  /// at positions other than `skip_pos`. Algorithm 9.
  MatchStats RematchLanes(std::vector<uint32_t> idx, size_t skip_pos);

  /// Shared tail of AddPredicate / tighten: re-check pairs in RuleTrue(r)
  /// against predicate `p` (already updated in fn_). Algorithm 7.
  MatchStats RecheckMatchedPairs(RuleId rid, const Predicate& p);

  /// Memoized columnar acquisition of feature `f` for every lane of
  /// `idx` whose bit is set in `lanes`: probes the memo per lane, then
  /// batch-computes and stores the misses. col[i] receives each such
  /// lane's value.
  void AcquireFeatureGathered(FeatureId f, const std::vector<uint32_t>& idx,
                              const std::vector<PairId>& gathered,
                              const uint64_t* lanes, float* col,
                              MatchStats& stats);

  /// Columnar EvalRule over gathered lanes, including the first-false
  /// PredFalse recording and the clear-on-pass I3 maintenance. Lanes
  /// where the rule is true are marked matched (+ RuleTrue) and removed
  /// from `idx`; false lanes remain. Does not count rule_evaluations —
  /// callers do, exactly where the per-pair routines would.
  void EvalRuleGathered(const Rule& r, std::vector<uint32_t>& idx,
                        MatchStats& stats);

  /// Columnar RematchPair over gathered lanes: runs the rules in order
  /// (skipping position `skip_pos`), with the known-false shortcut
  /// applied per lane before each rule.
  void RematchGathered(std::vector<uint32_t>& idx, size_t skip_pos,
                       MatchStats& stats);

  PairContext& ctx_;
  const CandidateSet& pairs_;
  Options options_;
  MatchingFunction fn_;
  MatchState state_;
  bool has_run_ = false;
  RuleId last_added_rule_ = kInvalidRule;
  PredicateId last_added_predicate_ = kInvalidPredicate;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_INCREMENTAL_H_
