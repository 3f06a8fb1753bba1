// Closed-loop edit scripts mixing the six rule-edit types of the paper's
// Fig. 6. Every edit is immediately followed by its inverse, so a script
// (and any whole number of its edit pairs) ends where it began: the final
// match result must equal the first-run result.
//
// Edits address rules and predicates by RuleId / PredicateId. A script is
// written against rule and predicate *slots* of the starting function;
// the runner maps slots to the ids the target currently uses (re-adding a
// removed rule or predicate gives it fresh ids).
#ifndef E2EBENCH_EDIT_SCRIPT_H_
#define E2EBENCH_EDIT_SCRIPT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/match_result.h"
#include "src/core/matching_function.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace e2ebench {

enum class EditType {
  kTighten = 0,
  kRelax,
  kAddPred,
  kRemovePred,
  kAddRule,
  kRemoveRule,
};
inline constexpr size_t kNumEditTypes = 6;
const char* EditTypeName(EditType t);

struct EditOp {
  EditType type = EditType::kTighten;
  size_t rule = 0;  ///< rule slot (kAddRule forward: unused)
  size_t pred = 0;  ///< predicate slot (threshold / remove-pred edits)
  double threshold = 0.0;   ///< new threshold (kTighten / kRelax)
  emdbg::Predicate predicate;  ///< predicate to add (kAddPred)
  emdbg::Rule body;            ///< rule to add (kAddRule)
  bool inverse = false;        ///< undoes the op before it
};

/// Builds `num_pairs` (edit, inverse) pairs against `base`, cycling
/// through the six forward edit types; new rules and predicates come
/// from `extra`. Deterministic in `seed`. Requires every base rule to
/// have at least two predicates.
std::vector<EditOp> MakeEditScript(const emdbg::MatchingFunction& base,
                                   const emdbg::MatchingFunction& extra,
                                   size_t num_pairs, uint64_t seed);

/// What a script edits: a debug session (incremental, or batch with a
/// rerun after each edit) or a remote session. Each call returns once the target's match
/// result reflects the edit.
class EditTarget {
 public:
  virtual ~EditTarget() = default;
  virtual emdbg::Status SetThreshold(emdbg::RuleId rid,
                                     emdbg::PredicateId pid,
                                     double threshold) = 0;
  virtual emdbg::Result<emdbg::PredicateId> AddPredicate(
      emdbg::RuleId rid, const emdbg::Predicate& p) = 0;
  virtual emdbg::Status RemovePredicate(emdbg::RuleId rid,
                                        emdbg::PredicateId pid) = 0;
  virtual emdbg::Result<emdbg::RuleId> AddRule(const emdbg::Rule& rule) = 0;
  virtual emdbg::Status RemoveRule(emdbg::RuleId rid) = 0;
  /// The target's current function (ids as the target assigned them).
  virtual const emdbg::MatchingFunction& function() const = 0;
  /// A value that identifies the current match result (a bitmap digest,
  /// or a match count when only that is observable).
  virtual uint64_t ResultFingerprint() = 0;
  /// Work of the most recent edit.
  virtual emdbg::MatchStats LastStats() const { return {}; }
  /// The current match bitmap, when the target holds it (null otherwise).
  virtual const emdbg::Bitmap* Matches() { return nullptr; }
};

struct EditSample {
  EditType type = EditType::kTighten;
  double ms = 0.0;
  emdbg::MatchStats stats;
  /// Which script edit this was: stream << 32 | position in the script.
  uint64_t key = 0;
};

/// Applies a script to a target, cycling it, and checks after every
/// inverse that the result is back at its starting fingerprint.
class EditScriptRunner {
 public:
  /// Slots are taken from target.function() as it is now. Execution
  /// starts at script position `start` (an edit-pair boundary); `stream`
  /// tags the samples of one client's script.
  EditScriptRunner(EditTarget& target, std::vector<EditOp> script,
                   size_t start = 0, uint32_t stream = 0);

  /// Runs ops until `keep_going()` says stop at an edit-pair boundary.
  /// Records one sample per op. Returns the number of failed ops
  /// (errors plus inverses that did not restore the result).
  size_t Run(const std::function<bool()>& keep_going);
  /// Runs exactly `pairs` edit pairs.
  size_t RunPairs(size_t pairs);

  /// Installs an untimed check of the state right after a forward edit
  /// (the one state an inverse cannot vouch for). It runs after the
  /// first forward edit and then whenever `interval_s` has passed since
  /// the last check; a false result counts as a failed op.
  void SetSpotCheck(std::function<bool()> check, double interval_s);

  const std::vector<EditSample>& samples() const { return samples_; }
  size_t attempted() const { return attempted_; }
  /// Script position of the next op.
  size_t position() const { return next_ % script_.size(); }
  const std::string& first_error() const { return first_error_; }
  /// Wall time spent in spot checks (not part of any edit).
  double spot_seconds() const { return spot_seconds_; }

 private:
  emdbg::Status Apply(const EditOp& op);
  /// Re-reads the ids of rule slot `slot` after it was re-added as `rid`.
  void RebindRule(size_t slot, emdbg::RuleId rid);
  size_t Step();

  EditTarget& target_;
  std::vector<EditOp> script_;
  size_t next_ = 0;
  uint32_t stream_ = 0;
  std::vector<emdbg::RuleId> rule_ids_;
  std::vector<std::vector<emdbg::PredicateId>> pred_ids_;
  std::vector<std::vector<emdbg::Predicate>> pred_content_;
  emdbg::RuleId added_rule_ = emdbg::kInvalidRule;
  emdbg::PredicateId added_pred_ = emdbg::kInvalidPredicate;
  uint64_t base_ = 0;
  std::vector<EditSample> samples_;
  size_t attempted_ = 0;
  std::string first_error_;
  std::function<bool()> spot_check_;
  double spot_interval_s_ = 0.0;
  int64_t last_spot_ns_ = 0;
  double spot_seconds_ = 0.0;
};

/// Each distinct script edit's fastest execution, in ms. Edits repeat as
/// scripts cycle; interference from other tenants only ever adds time,
/// so the best execution is the steadiest estimate of what an edit costs.
std::vector<double> BestPerEdit(const std::vector<EditSample>& samples);

/// Per-edit-type view of samples.
std::array<std::vector<const EditSample*>, kNumEditTypes> ByType(
    const std::vector<EditSample>& samples);

}  // namespace e2ebench

#endif  // E2EBENCH_EDIT_SCRIPT_H_
