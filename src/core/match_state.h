#ifndef EMDBG_CORE_MATCH_STATE_H_
#define EMDBG_CORE_MATCH_STATE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/core/matching_function.h"
#include "src/core/memo.h"
#include "src/util/bitmap.h"
#include "src/util/memory_budget.h"

namespace emdbg {

/// Materialized state carried between debugging iterations (Sec. 6.1):
///   * the memo of computed similarity values (shared Γ);
///   * per rule, the pairs for which that rule evaluated true;
///   * per predicate, the pairs for which that predicate evaluated false.
///
/// Bitmaps are keyed by stable rule/predicate ids, so rule reordering and
/// sibling removals do not invalidate them. A bit being *unset* in
/// rule_true / pred_false means "unknown or false/true respectively" —
/// early exit leaves many pairs unevaluated, and the incremental
/// algorithms only rely on set bits.
class MatchState {
 public:
  MatchState() = default;
  ~MatchState();

  /// Moves transfer the memory-budget billing with the memo — a default
  /// move would leave both states releasing the same reservation.
  MatchState(MatchState&& other) noexcept;
  MatchState& operator=(MatchState&& other) noexcept;
  MatchState(const MatchState&) = delete;
  MatchState& operator=(const MatchState&) = delete;

  /// Allocates the memo and the match bitmap for `num_pairs` pairs and
  /// `num_features` catalog features. Clears all rule/predicate bitmaps.
  /// This is the unbudgeted path (any prior billing is released);
  /// budget-aware callers use EnsureCapacity instead.
  void Initialize(size_t num_pairs, size_t num_features);

  /// Budget-aware Initialize/GrowFeatures: reserves the memo matrix bytes
  /// from the attached budget *before* allocating, so the dominant
  /// O(pairs × features) allocation fails as a clean ResourceExhausted
  /// instead of bad_alloc. On denial the existing state is untouched.
  /// Without an attached budget this is Initialize/GrowFeatures with an
  /// always-OK status. The decision bitmaps (1 bit per pair per rule) are
  /// small relative to the 4-byte-per-cell memo and stay unbilled.
  Status EnsureCapacity(size_t num_pairs, size_t num_features);

  /// The serial preamble of every full run into this state: ensures
  /// capacity (on denial the state is untouched), clears the match
  /// bitmap, and materializes one zeroed RuleTrue / PredFalse bitmap per
  /// rule and predicate of `fn` — even for rules that never fire, so
  /// memory accounting matches the paper's setting (Sec. 6.1), and so
  /// parallel workers never rehash the maps. The memo is kept
  /// (cross-iteration reuse, Sec. 6).
  Status BeginRun(const MatchingFunction& fn, size_t num_pairs,
                  size_t num_features);

  /// Attaches `budget` (nullptr detaches) and bills the current memo
  /// bytes, for states loaded or adopted before a budget existed (resume,
  /// recovery). On denial the budget is not attached and the state is
  /// usable but unbudgeted.
  Status AttachBudget(MemoryBudget* budget);
  MemoryBudget* budget() const { return budget_; }

  bool initialized() const { return memo_ != nullptr; }
  size_t num_pairs() const { return num_pairs_; }

  DenseMemo& memo() { return *memo_; }
  const DenseMemo& memo() const { return *memo_; }

  Bitmap& matches() { return matches_; }
  const Bitmap& matches() const { return matches_; }

  /// Bitmap of pairs where rule `rid` is known true. Created empty (sized)
  /// on first access.
  Bitmap& RuleTrue(RuleId rid);
  /// Read-only peek; nullptr if the rule has no bitmap yet.
  const Bitmap* FindRuleTrue(RuleId rid) const;

  /// Bitmap of pairs where predicate `pid` is known false.
  Bitmap& PredFalse(PredicateId pid);
  const Bitmap* FindPredFalse(PredicateId pid) const;

  /// Drops state attached to removed rules/predicates.
  void EraseRule(RuleId rid) { rule_true_.erase(rid); }
  void ErasePredicate(PredicateId pid) { pred_false_.erase(pid); }

  /// Heap bytes of memo + bitmaps (the Sec. 7.4 accounting).
  size_t MemoryBytes() const;

  /// Formats a Sec. 7.4-style memory report.
  std::string MemoryReport() const;

  size_t num_rule_bitmaps() const { return rule_true_.size(); }
  size_t num_predicate_bitmaps() const { return pred_false_.size(); }

  /// Ids with materialized bitmaps (sorted; for persistence/iteration).
  std::vector<RuleId> RuleIdsWithState() const;
  std::vector<PredicateId> PredicateIdsWithState() const;

 private:
  /// Replaces memo + bitmaps for a new shape (no billing).
  void AllocateState(size_t num_pairs, size_t num_features);
  void ReleaseBilling();

  size_t num_pairs_ = 0;
  std::unique_ptr<DenseMemo> memo_;
  Bitmap matches_;
  std::unordered_map<RuleId, Bitmap> rule_true_;
  std::unordered_map<PredicateId, Bitmap> pred_false_;
  /// Billing for the memo matrix (see EnsureCapacity). The budget must
  /// outlive the state.
  MemoryBudget* budget_ = nullptr;
  size_t billed_bytes_ = 0;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_MATCH_STATE_H_
