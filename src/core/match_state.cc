#include "src/core/match_state.h"

#include <algorithm>
#include <utility>

#include "src/util/string_util.h"

namespace emdbg {

MatchState::~MatchState() { ReleaseBilling(); }

MatchState::MatchState(MatchState&& other) noexcept
    : num_pairs_(std::exchange(other.num_pairs_, 0)),
      memo_(std::move(other.memo_)),
      matches_(std::move(other.matches_)),
      rule_true_(std::move(other.rule_true_)),
      pred_false_(std::move(other.pred_false_)),
      budget_(std::exchange(other.budget_, nullptr)),
      billed_bytes_(std::exchange(other.billed_bytes_, 0)) {}

MatchState& MatchState::operator=(MatchState&& other) noexcept {
  if (this != &other) {
    ReleaseBilling();
    num_pairs_ = std::exchange(other.num_pairs_, 0);
    memo_ = std::move(other.memo_);
    matches_ = std::move(other.matches_);
    rule_true_ = std::move(other.rule_true_);
    pred_false_ = std::move(other.pred_false_);
    budget_ = std::exchange(other.budget_, nullptr);
    billed_bytes_ = std::exchange(other.billed_bytes_, 0);
  }
  return *this;
}

void MatchState::ReleaseBilling() {
  if (budget_ != nullptr && billed_bytes_ > 0) {
    budget_->Release(billed_bytes_);
  }
  billed_bytes_ = 0;
}

void MatchState::AllocateState(size_t num_pairs, size_t num_features) {
  num_pairs_ = num_pairs;
  memo_ = std::make_unique<DenseMemo>(num_pairs, num_features);
  matches_ = Bitmap(num_pairs);
  rule_true_.clear();
  pred_false_.clear();
}

void MatchState::Initialize(size_t num_pairs, size_t num_features) {
  ReleaseBilling();
  AllocateState(num_pairs, num_features);
}

Status MatchState::EnsureCapacity(size_t num_pairs, size_t num_features) {
  if (!initialized() || num_pairs_ != num_pairs) {
    // Reshape: the old matrix is replaced wholesale. Release its billing
    // first, then reserve the new shape — the brief window where old and
    // new matrices coexist inside AllocateState is a transient spike the
    // accountant deliberately ignores.
    const size_t target = num_pairs * num_features * sizeof(float);
    ReleaseBilling();
    if (budget_ != nullptr) {
      EMDBG_RETURN_IF_ERROR(budget_->Reserve(target, "state.memo"));
      billed_bytes_ = target;
    }
    AllocateState(num_pairs, num_features);
    return Status::Ok();
  }
  if (num_features <= memo_->num_features()) return Status::Ok();
  const size_t target = num_pairs_ * num_features * sizeof(float);
  if (budget_ != nullptr && target > billed_bytes_) {
    EMDBG_RETURN_IF_ERROR(
        budget_->Reserve(target - billed_bytes_, "state.memo"));
    billed_bytes_ = target;
  }
  memo_->GrowFeatures(num_features);
  return Status::Ok();
}

Status MatchState::BeginRun(const MatchingFunction& fn, size_t num_pairs,
                            size_t num_features) {
  const bool reuse = initialized() && num_pairs_ == num_pairs;
  EMDBG_RETURN_IF_ERROR(EnsureCapacity(num_pairs, num_features));
  if (reuse) matches_.Fill(false);
  for (const Rule& r : fn.rules()) {
    RuleTrue(r.id()).Fill(false);
    for (const Predicate& p : r.predicates()) PredFalse(p.id).Fill(false);
  }
  return Status::Ok();
}

Status MatchState::AttachBudget(MemoryBudget* budget) {
  if (budget == budget_) return Status::Ok();
  ReleaseBilling();
  budget_ = nullptr;
  if (budget == nullptr) return Status::Ok();
  const size_t bytes = memo_ == nullptr ? 0 : memo_->MemoryBytes();
  EMDBG_RETURN_IF_ERROR(budget->Reserve(bytes, "state.attach"));
  budget_ = budget;
  billed_bytes_ = bytes;
  return Status::Ok();
}

Bitmap& MatchState::RuleTrue(RuleId rid) {
  auto it = rule_true_.find(rid);
  if (it == rule_true_.end()) {
    it = rule_true_.emplace(rid, Bitmap(num_pairs_)).first;
  }
  return it->second;
}

const Bitmap* MatchState::FindRuleTrue(RuleId rid) const {
  const auto it = rule_true_.find(rid);
  return it == rule_true_.end() ? nullptr : &it->second;
}

Bitmap& MatchState::PredFalse(PredicateId pid) {
  auto it = pred_false_.find(pid);
  if (it == pred_false_.end()) {
    it = pred_false_.emplace(pid, Bitmap(num_pairs_)).first;
  }
  return it->second;
}

const Bitmap* MatchState::FindPredFalse(PredicateId pid) const {
  const auto it = pred_false_.find(pid);
  return it == pred_false_.end() ? nullptr : &it->second;
}

std::vector<RuleId> MatchState::RuleIdsWithState() const {
  std::vector<RuleId> out;
  out.reserve(rule_true_.size());
  for (const auto& [rid, _] : rule_true_) out.push_back(rid);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PredicateId> MatchState::PredicateIdsWithState() const {
  std::vector<PredicateId> out;
  out.reserve(pred_false_.size());
  for (const auto& [pid, _] : pred_false_) out.push_back(pid);
  std::sort(out.begin(), out.end());
  return out;
}

size_t MatchState::MemoryBytes() const {
  size_t bytes = memo_ == nullptr ? 0 : memo_->MemoryBytes();
  bytes += matches_.MemoryBytes();
  for (const auto& [_, bm] : rule_true_) bytes += bm.MemoryBytes();
  for (const auto& [_, bm] : pred_false_) bytes += bm.MemoryBytes();
  return bytes;
}

std::string MatchState::MemoryReport() const {
  const size_t memo_bytes = memo_ == nullptr ? 0 : memo_->MemoryBytes();
  size_t rule_bytes = 0;
  for (const auto& [_, bm] : rule_true_) rule_bytes += bm.MemoryBytes();
  size_t pred_bytes = 0;
  for (const auto& [_, bm] : pred_false_) pred_bytes += bm.MemoryBytes();
  return StrFormat(
      "memo: %.2f MB (%zu/%zu filled) | rule bitmaps: %zu x -> %.2f MB | "
      "predicate bitmaps: %zu x -> %.2f MB | total %.2f MB",
      static_cast<double>(memo_bytes) / 1048576.0,
      memo_ == nullptr ? 0 : memo_->FilledCount(),
      memo_ == nullptr ? 0 : memo_->num_pairs() * memo_->num_features(),
      rule_true_.size(), static_cast<double>(rule_bytes) / 1048576.0,
      pred_false_.size(), static_cast<double>(pred_bytes) / 1048576.0,
      static_cast<double>(MemoryBytes()) / 1048576.0);
}

}  // namespace emdbg
