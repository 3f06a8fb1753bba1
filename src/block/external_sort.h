#ifndef EMDBG_BLOCK_EXTERNAL_SORT_H_
#define EMDBG_BLOCK_EXTERNAL_SORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/block/candidate_pairs.h"
#include "src/util/memory_budget.h"
#include "src/util/spill_file.h"
#include "src/util/status.h"

namespace emdbg {

/// Shared knobs for the external (run-generation + multiway-merge) sorters
/// behind out-of-core blocking. The in-memory run buffer is the only
/// O(data) allocation; everything else is per-run cursors.
struct ExternalSortOptions {
  /// Directory for run files (must exist). Each sorter writes its runs,
  /// `<prefix>-<n>.spill`, into a private `<prefix>-XXXXXX` subdirectory
  /// of it (see SpillDir), removed when the sorter is destroyed.
  std::string spill_dir;
  std::string file_prefix = "run";
  /// In-memory run buffer. When a budget denies the reservation the
  /// buffer halves until it fits (graceful degradation: smaller runs,
  /// more merge fan-in, identical output), down to a floor of 64 KiB.
  size_t buffer_bytes = 8u << 20;
  /// Bills the run buffer ("sort.buffer") and spill frames; may be null.
  MemoryBudget* budget = nullptr;
};

/// External sorter + deduplicator for candidate pairs: the out-of-core
/// equivalent of `CandidateSet::SortAndDedup()`. Add() pairs in any
/// order; when the buffer fills, a sorted run spills through SpillWriter;
/// Finish() seals the last run; then Next()/AtEnd() stream the globally
/// (a, b)-sorted, deduplicated sequence via a k-way merge — bit-identical
/// to the in-memory path, because sort-then-dedup of the same multiset
/// yields the same sequence no matter how it was partitioned into runs.
///
/// Small inputs (everything fits in the buffer) never touch disk: the
/// merge degenerates to iterating the sorted buffer.
class ExternalPairSorter {
 public:
  explicit ExternalPairSorter(ExternalSortOptions options);
  ~ExternalPairSorter();

  ExternalPairSorter(ExternalPairSorter&&) = default;
  ExternalPairSorter& operator=(ExternalPairSorter&&) = default;
  ExternalPairSorter(const ExternalPairSorter&) = delete;
  ExternalPairSorter& operator=(const ExternalPairSorter&) = delete;

  Status Add(PairId p);

  /// Seals input and prepares the merge. Add() is illegal afterwards.
  Status Finish();

  /// True once every pair has been emitted (Finish() required first).
  bool AtEnd() const {
    if (!finished_) return false;
    if (run_paths_.empty()) return mem_pos_ >= buffer_.size();
    return heap_.empty();
  }

  /// Emits the next pair of the sorted deduped sequence. OutOfRange at
  /// the end.
  Status Next(PairId* out);

  /// Drains up to `max_pairs` pairs into `out` (appended). Returns the
  /// number emitted (0 at end).
  Result<size_t> NextBatch(size_t max_pairs, std::vector<PairId>* out);

  /// Convenience for tests and small sets: drains everything into a
  /// CandidateSet.
  Result<CandidateSet> Drain();

  uint64_t pairs_added() const { return pairs_added_; }
  size_t num_runs() const { return runs_.size(); }
  uint64_t spilled_bytes() const { return spilled_bytes_; }

 private:
  struct RunCursor {
    SpillReader reader;
    uint64_t remaining = 0;
    PairId head;
  };
  /// Heap entry: run index ordered by its head pair (ties by run index
  /// for determinism).
  struct HeapItem {
    PairId head;
    uint32_t run;
  };

  Status SpillRun();
  Status EnsureBuffer();
  Status PushRun(uint32_t run);

  ExternalSortOptions options_;
  SpillDir spill_dir_;  ///< private subdirectory holding this sorter's runs
  std::vector<PairId> buffer_;
  size_t buffer_capacity_ = 0;  ///< pairs; resolved lazily from budget
  size_t mem_pos_ = 0;          ///< cursor for the no-spill fast path
  MemoryReservation billing_;

  std::vector<std::string> run_paths_;
  std::vector<RunCursor> runs_;
  std::vector<HeapItem> heap_;  ///< min-heap on head
  uint64_t pairs_added_ = 0;
  uint64_t spilled_bytes_ = 0;
  bool finished_ = false;
  bool have_last_ = false;
  PairId last_{};
};

/// One record of the blocking entry stream: a row tagged with its
/// blocking key, originating side, and generation sequence number. The
/// sort order (key, seq) reproduces a std::stable_sort by key of entries
/// generated in seq order — which is exactly what the in-memory blockers
/// do — so external blocking sees groups and windows in the same order.
struct BlockEntry {
  std::string key;
  uint64_t seq = 0;
  uint32_t row = 0;
  bool from_b = false;

  friend bool operator<(const BlockEntry& x, const BlockEntry& y) {
    if (x.key != y.key) return x.key < y.key;
    return x.seq < y.seq;
  }
};

/// External sorter for BlockEntry records, ordered by (key, seq). Same
/// run/merge machinery as ExternalPairSorter, minus deduplication
/// (entries are unique by seq).
class ExternalEntrySorter {
 public:
  explicit ExternalEntrySorter(ExternalSortOptions options);
  ~ExternalEntrySorter();

  ExternalEntrySorter(ExternalEntrySorter&&) = default;
  ExternalEntrySorter& operator=(ExternalEntrySorter&&) = default;
  ExternalEntrySorter(const ExternalEntrySorter&) = delete;
  ExternalEntrySorter& operator=(const ExternalEntrySorter&) = delete;

  /// Adds an entry; `seq` is assigned internally (generation order).
  Status Add(std::string key, uint32_t row, bool from_b);

  Status Finish();
  bool AtEnd() const {
    if (!finished_) return false;
    if (run_paths_.empty()) return mem_pos_ >= buffer_.size();
    return heap_.empty();
  }
  Status Next(BlockEntry* out);

  uint64_t entries_added() const { return next_seq_; }
  size_t num_runs() const { return runs_.size(); }
  uint64_t spilled_bytes() const { return spilled_bytes_; }

 private:
  struct RunCursor {
    SpillReader reader;
    uint64_t remaining = 0;
    BlockEntry head;
  };
  struct HeapItem {
    const BlockEntry* head;
    uint32_t run;
  };

  Status SpillRun();
  Status PushRun(uint32_t run);
  static Status WriteEntry(SpillWriter& w, const BlockEntry& e);
  static Status ReadEntry(SpillReader& r, BlockEntry* e);

  ExternalSortOptions options_;
  SpillDir spill_dir_;  ///< private subdirectory holding this sorter's runs
  std::vector<BlockEntry> buffer_;
  size_t buffer_bytes_used_ = 0;
  size_t buffer_bytes_cap_ = 0;
  size_t mem_pos_ = 0;  ///< cursor for the no-spill fast path
  MemoryReservation billing_;

  std::vector<std::string> run_paths_;
  std::vector<RunCursor> runs_;
  std::vector<HeapItem> heap_;
  uint64_t next_seq_ = 0;
  uint64_t spilled_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace emdbg

#endif  // EMDBG_BLOCK_EXTERNAL_SORT_H_
