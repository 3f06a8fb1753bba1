#include "src/core/memo.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/util/bitmap.h"

namespace emdbg {

DenseMemo::DenseMemo(size_t num_pairs, size_t num_features)
    : num_pairs_(num_pairs),
      num_features_(num_features),
      data_(num_pairs * num_features,
            std::numeric_limits<float>::quiet_NaN()) {}

void DenseMemo::Clear() {
  std::fill(data_.begin(), data_.end(),
            std::numeric_limits<float>::quiet_NaN());
  filled_ = 0;
}

void DenseMemo::GrowFeatures(size_t num_features) {
  if (num_features <= num_features_) return;
  std::vector<float> grown(num_pairs_ * num_features,
                           std::numeric_limits<float>::quiet_NaN());
  for (size_t p = 0; p < num_pairs_; ++p) {
    for (size_t f = 0; f < num_features_; ++f) {
      grown[p * num_features + f] = data_[p * num_features_ + f];
    }
  }
  data_ = std::move(grown);
  num_features_ = num_features;
}

void DenseMemo::GatherColumn(size_t row, size_t n, FeatureId feature,
                             float* out, uint64_t* present) const {
  bitspan::Fill(present, n, false);
  const float* cell = &data_[row * num_features_ + feature];
  for (size_t i = 0; i < n; ++i, cell += num_features_) {
    const float v = *cell;
    out[i] = v;
    if (!std::isnan(v)) present[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

void DenseMemo::FillSpan(size_t row, size_t n, FeatureId feature,
                         const float* vals, const uint64_t* mask) {
  float* cell = &data_[row * num_features_ + feature];
  size_t newly_filled = 0;
  for (size_t wi = 0; wi < bitspan::Words(n); ++wi) {
    uint64_t m = wi + 1 == bitspan::Words(n)
                     ? mask[wi] & bitspan::TailMask(n)
                     : mask[wi];
    while (m != 0) {
      const size_t i = wi * 64 + static_cast<size_t>(std::countr_zero(m));
      m &= m - 1;
      float& slot = cell[i * num_features_];
      if (std::isnan(slot)) ++newly_filled;
      slot = vals[i];
    }
  }
  if (newly_filled > 0) {
    filled_.fetch_add(newly_filled, std::memory_order_relaxed);
  }
}

Status DenseMemo::LoadRawValues(const std::vector<float>& values) {
  if (values.size() != num_pairs_ * num_features_) {
    return Status::InvalidArgument("value count mismatch for memo shape");
  }
  data_ = values;
  size_t filled = 0;
  for (const float v : data_) {
    if (!std::isnan(v)) ++filled;
  }
  filled_.store(filled, std::memory_order_relaxed);
  return Status::Ok();
}

namespace {

/// Billing chunk: reservations amortize over many Stores instead of one
/// atomic round-trip per entry.
constexpr size_t kMemoBillChunk = 64 * 1024;

}  // namespace

size_t HashMemo::MemoryBytes() const {
  // Approximate: node-based unordered_map — key + value + node/bucket
  // overhead (pointer-heavy), roughly 48 bytes per entry plus the bucket
  // array. This is the "more memory per entry, fewer entries" side of the
  // Sec. 7.4 trade-off.
  return map_.size() * 48 + map_.bucket_count() * sizeof(void*);
}

void HashMemo::ReleaseBilling() {
  if (budget_ != nullptr && billed_bytes_ > 0) {
    budget_->Release(billed_bytes_);
  }
  billed_bytes_ = 0;
}

void HashMemo::SetBudget(MemoryBudget* budget) {
  ReleaseBilling();
  budget_ = budget;
  if (budget_ == nullptr) return;
  const size_t bytes = MemoryBytes();
  if (bytes > 0 && budget_->Reserve(bytes, "memo.hash").ok()) {
    billed_bytes_ = bytes;
  }
}

void HashMemo::Store(size_t pair_index, FeatureId feature, double value) {
  map_[Key(pair_index, feature)] = static_cast<float>(value);
  if (budget_ == nullptr) return;
  const size_t bytes = MemoryBytes();
  if (bytes <= billed_bytes_) return;
  const size_t want = std::max(bytes - billed_bytes_, kMemoBillChunk);
  if (budget_->Reserve(want, "memo.hash").ok()) {
    billed_bytes_ += want;
    return;
  }
  // Denied: drop the cache (recompute-on-miss keeps correctness) rather
  // than grow past the budget.
  map_.clear();
  std::unordered_map<uint64_t, float>().swap(map_);
  ReleaseBilling();
}

}  // namespace emdbg
