#include "src/block/external_sort.h"

#include <algorithm>
#include <utility>

namespace emdbg {

namespace {

constexpr size_t kMinPairBuffer = 8192;           // pairs
constexpr size_t kMinEntryBuffer = 64u << 10;     // bytes
constexpr const char kSortConsumer[] = "sort.buffer";

/// Spill frame size scaled to the run buffer: every run reader bills one
/// frame during the k-way merge, so frames must be a small fraction of
/// the buffer the budget already granted or the merge itself would not
/// fit. Floor 4 KiB (the writer's own minimum), cap 256 KiB.
size_t FrameBytesFor(size_t buffer_bytes) {
  return std::min(std::max(buffer_bytes / 8, size_t{4096}),
                  size_t{256} << 10);
}

std::string RunName(const ExternalSortOptions& options, size_t n) {
  return options.file_prefix + "-" + std::to_string(n) + ".spill";
}

/// Reserves the largest power-of-two fraction of `want_bytes` the budget
/// accepts, not going below `floor_bytes` (graceful degradation: smaller
/// runs merge to the same output). Returns the reservation and sets
/// `*got_bytes`.
Result<MemoryReservation> ReserveWithBackoff(MemoryBudget* budget,
                                             size_t want_bytes,
                                             size_t floor_bytes,
                                             size_t* got_bytes) {
  size_t want = std::max(want_bytes, floor_bytes);
  for (;;) {
    // Probe for spill-writer frame headroom before committing: a run
    // buffer that fills the whole budget would be denied at spill time
    // when the writer asks for its frame on top.
    Status denial = Status::Ok();
    {
      Result<MemoryReservation> frame = MemoryReservation::Make(
          budget, FrameBytesFor(want), kSortConsumer);
      if (frame.ok()) {
        Result<MemoryReservation> r =
            MemoryReservation::Make(budget, want, kSortConsumer);
        if (r.ok()) {
          *got_bytes = want;
          return r;  // frame probe releases here, freeing the headroom
        }
        denial = r.status();
      } else {
        denial = frame.status();
      }
    }
    if (want <= floor_bytes) return denial;
    want = std::max(want / 2, floor_bytes);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ExternalPairSorter

ExternalPairSorter::ExternalPairSorter(ExternalSortOptions options)
    : options_(std::move(options)),
      spill_dir_(options_.spill_dir, options_.file_prefix) {}

ExternalPairSorter::~ExternalPairSorter() {
  runs_.clear();  // close readers before spill_dir_ unlinks the runs
}

Status ExternalPairSorter::EnsureBuffer() {
  if (buffer_capacity_ > 0) return Status::Ok();
  size_t got = 0;
  Result<MemoryReservation> billing = ReserveWithBackoff(
      options_.budget, std::max(options_.buffer_bytes, size_t{1}),
      kMinPairBuffer * sizeof(PairId), &got);
  if (!billing.ok()) return billing.status();
  billing_ = std::move(*billing);
  buffer_capacity_ = std::max<size_t>(got / sizeof(PairId), 64);
  buffer_.reserve(buffer_capacity_);
  return Status::Ok();
}

Status ExternalPairSorter::SpillRun() {
  std::sort(buffer_.begin(), buffer_.end());
  buffer_.erase(std::unique(buffer_.begin(), buffer_.end()), buffer_.end());
  Result<std::string> path =
      spill_dir_.File(RunName(options_, run_paths_.size()));
  if (!path.ok()) return path.status();
  SpillWriter::Options wopts;
  wopts.budget = options_.budget;
  wopts.frame_bytes = FrameBytesFor(buffer_capacity_ * sizeof(PairId));
  Result<SpillWriter> writer = SpillWriter::Create(*path, wopts);
  if (!writer.ok()) return writer.status();
  const uint64_t count = buffer_.size();
  EMDBG_RETURN_IF_ERROR(writer->WritePod(count));
  EMDBG_RETURN_IF_ERROR(
      writer->Write(buffer_.data(), buffer_.size() * sizeof(PairId)));
  EMDBG_RETURN_IF_ERROR(writer->Close());
  spilled_bytes_ += writer->payload_bytes();
  run_paths_.push_back(*path);
  buffer_.clear();
  return Status::Ok();
}

Status ExternalPairSorter::Add(PairId p) {
  if (finished_) {
    return Status::FailedPrecondition("pair sorter: Add after Finish");
  }
  EMDBG_RETURN_IF_ERROR(EnsureBuffer());
  buffer_.push_back(p);
  ++pairs_added_;
  if (buffer_.size() >= buffer_capacity_) {
    if (options_.spill_dir.empty()) {
      return Status::InvalidArgument(
          "pair sorter: buffer full and no spill_dir configured");
    }
    return SpillRun();
  }
  return Status::Ok();
}

Status ExternalPairSorter::PushRun(uint32_t run) {
  RunCursor& c = runs_[run];
  if (c.remaining == 0) {
    // Exhausted: drop the reader now so its frame buffer stops billing
    // the budget while the remaining runs keep merging.
    c.reader = SpillReader();
    return Status::Ok();
  }
  EMDBG_RETURN_IF_ERROR(c.reader.ReadPod(&c.head));
  --c.remaining;
  heap_.push_back(HeapItem{c.head, run});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapItem& x, const HeapItem& y) {
                   // std::push_heap builds a max-heap; invert for min.
                   if (x.head != y.head) return y.head < x.head;
                   return y.run < x.run;
                 });
  return Status::Ok();
}

Status ExternalPairSorter::Finish() {
  if (finished_) return Status::Ok();
  if (!run_paths_.empty() && !buffer_.empty()) {
    EMDBG_RETURN_IF_ERROR(SpillRun());
  }
  if (run_paths_.empty()) {
    // Pure in-memory case: the sorted buffer is the single "run".
    std::sort(buffer_.begin(), buffer_.end());
    buffer_.erase(std::unique(buffer_.begin(), buffer_.end()),
                  buffer_.end());
    finished_ = true;
    mem_pos_ = 0;
    // Model the buffer as a virtual run via the heap flag below.
    if (!buffer_.empty()) {
      heap_.push_back(HeapItem{buffer_[0], UINT32_MAX});
    }
    return Status::Ok();
  }
  // Merging: the run buffer is done for good — release it (and its
  // billing) so the per-run reader frames fit in the same budget.
  std::vector<PairId>().swap(buffer_);
  buffer_capacity_ = 0;
  billing_.reset();
  runs_.resize(run_paths_.size());
  for (size_t i = 0; i < run_paths_.size(); ++i) {
    SpillReader::Options ropts;
    ropts.budget = options_.budget;
    Result<SpillReader> reader = SpillReader::Open(run_paths_[i], ropts);
    if (!reader.ok()) return reader.status();
    runs_[i].reader = std::move(*reader);
    EMDBG_RETURN_IF_ERROR(runs_[i].reader.ReadPod(&runs_[i].remaining));
    EMDBG_RETURN_IF_ERROR(PushRun(static_cast<uint32_t>(i)));
  }
  finished_ = true;
  return Status::Ok();
}

Status ExternalPairSorter::Next(PairId* out) {
  for (;;) {
    if (!finished_) {
      return Status::FailedPrecondition("pair sorter: Next before Finish");
    }
    if (heap_.empty()) {
      return Status::OutOfRange("pair sorter: end of stream");
    }
    PairId head;
    if (heap_.front().run == UINT32_MAX) {
      // In-memory single-run fast path.
      head = buffer_[mem_pos_++];
      if (mem_pos_ < buffer_.size()) {
        heap_.front().head = buffer_[mem_pos_];
      } else {
        heap_.clear();
      }
    } else {
      std::pop_heap(heap_.begin(), heap_.end(),
                    [](const HeapItem& x, const HeapItem& y) {
                      if (x.head != y.head) return y.head < x.head;
                      return y.run < x.run;
                    });
      const HeapItem item = heap_.back();
      heap_.pop_back();
      head = item.head;
      EMDBG_RETURN_IF_ERROR(PushRun(item.run));
    }
    // Cross-run duplicates: runs are deduped individually, but the same
    // pair can appear in several runs.
    if (have_last_ && head == last_) continue;
    have_last_ = true;
    last_ = head;
    *out = head;
    return Status::Ok();
  }
}

Result<size_t> ExternalPairSorter::NextBatch(size_t max_pairs,
                                             std::vector<PairId>* out) {
  size_t n = 0;
  PairId p;
  while (n < max_pairs) {
    Status s = Next(&p);
    if (!s.ok()) {
      if (s.code() == StatusCode::kOutOfRange) break;
      return s;
    }
    out->push_back(p);
    ++n;
  }
  return n;
}

Result<CandidateSet> ExternalPairSorter::Drain() {
  CandidateSet out;
  PairId p;
  for (;;) {
    Status s = Next(&p);
    if (!s.ok()) {
      if (s.code() == StatusCode::kOutOfRange) break;
      return s;
    }
    out.Add(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ExternalEntrySorter

ExternalEntrySorter::ExternalEntrySorter(ExternalSortOptions options)
    : options_(std::move(options)),
      spill_dir_(options_.spill_dir, options_.file_prefix) {}

ExternalEntrySorter::~ExternalEntrySorter() {
  runs_.clear();  // close readers before spill_dir_ unlinks the runs
}

Status ExternalEntrySorter::WriteEntry(SpillWriter& w, const BlockEntry& e) {
  const uint32_t len = static_cast<uint32_t>(e.key.size());
  EMDBG_RETURN_IF_ERROR(w.WritePod(len));
  EMDBG_RETURN_IF_ERROR(w.Write(e.key.data(), e.key.size()));
  EMDBG_RETURN_IF_ERROR(w.WritePod(e.seq));
  EMDBG_RETURN_IF_ERROR(w.WritePod(e.row));
  const uint8_t side = e.from_b ? 1 : 0;
  return w.WritePod(side);
}

Status ExternalEntrySorter::ReadEntry(SpillReader& r, BlockEntry* e) {
  uint32_t len = 0;
  EMDBG_RETURN_IF_ERROR(r.ReadPod(&len));
  e->key.resize(len);
  if (len > 0) {
    EMDBG_RETURN_IF_ERROR(r.Read(&e->key[0], len));
  }
  EMDBG_RETURN_IF_ERROR(r.ReadPod(&e->seq));
  EMDBG_RETURN_IF_ERROR(r.ReadPod(&e->row));
  uint8_t side = 0;
  EMDBG_RETURN_IF_ERROR(r.ReadPod(&side));
  e->from_b = side != 0;
  return Status::Ok();
}

Status ExternalEntrySorter::SpillRun() {
  std::sort(buffer_.begin(), buffer_.end());
  Result<std::string> path =
      spill_dir_.File(RunName(options_, run_paths_.size()));
  if (!path.ok()) return path.status();
  SpillWriter::Options wopts;
  wopts.budget = options_.budget;
  wopts.frame_bytes = FrameBytesFor(buffer_bytes_cap_);
  Result<SpillWriter> writer = SpillWriter::Create(*path, wopts);
  if (!writer.ok()) return writer.status();
  const uint64_t count = buffer_.size();
  EMDBG_RETURN_IF_ERROR(writer->WritePod(count));
  for (const BlockEntry& e : buffer_) {
    EMDBG_RETURN_IF_ERROR(WriteEntry(*writer, e));
  }
  EMDBG_RETURN_IF_ERROR(writer->Close());
  spilled_bytes_ += writer->payload_bytes();
  run_paths_.push_back(*path);
  buffer_.clear();
  buffer_bytes_used_ = 0;
  return Status::Ok();
}

Status ExternalEntrySorter::Add(std::string key, uint32_t row, bool from_b) {
  if (finished_) {
    return Status::FailedPrecondition("entry sorter: Add after Finish");
  }
  if (buffer_bytes_cap_ == 0) {
    size_t got = 0;
    Result<MemoryReservation> billing = ReserveWithBackoff(
        options_.budget, std::max(options_.buffer_bytes, size_t{1}),
        kMinEntryBuffer, &got);
    if (!billing.ok()) return billing.status();
    billing_ = std::move(*billing);
    buffer_bytes_cap_ = got;
  }
  buffer_bytes_used_ += sizeof(BlockEntry) + key.size();
  BlockEntry e;
  e.key = std::move(key);
  e.seq = next_seq_++;
  e.row = row;
  e.from_b = from_b;
  buffer_.push_back(std::move(e));
  if (buffer_bytes_used_ >= buffer_bytes_cap_) {
    if (options_.spill_dir.empty()) {
      return Status::InvalidArgument(
          "entry sorter: buffer full and no spill_dir configured");
    }
    return SpillRun();
  }
  return Status::Ok();
}

Status ExternalEntrySorter::PushRun(uint32_t run) {
  RunCursor& c = runs_[run];
  if (c.remaining == 0) {
    // Exhausted: drop the reader now so its frame buffer stops billing
    // the budget while the remaining runs keep merging.
    c.reader = SpillReader();
    return Status::Ok();
  }
  EMDBG_RETURN_IF_ERROR(ReadEntry(c.reader, &c.head));
  --c.remaining;
  heap_.push_back(HeapItem{&c.head, run});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapItem& x, const HeapItem& y) {
                   return *y.head < *x.head;
                 });
  return Status::Ok();
}

Status ExternalEntrySorter::Finish() {
  if (finished_) return Status::Ok();
  if (!run_paths_.empty() && !buffer_.empty()) {
    EMDBG_RETURN_IF_ERROR(SpillRun());
  }
  if (run_paths_.empty()) {
    std::sort(buffer_.begin(), buffer_.end());
    finished_ = true;
    mem_pos_ = 0;
    return Status::Ok();
  }
  // Merging: release the run buffer and its billing (see the pair
  // sorter) so the per-run reader frames fit in the same budget.
  std::vector<BlockEntry>().swap(buffer_);
  buffer_bytes_cap_ = 0;
  buffer_bytes_used_ = 0;
  billing_.reset();
  runs_.resize(run_paths_.size());
  for (size_t i = 0; i < run_paths_.size(); ++i) {
    SpillReader::Options ropts;
    ropts.budget = options_.budget;
    Result<SpillReader> reader = SpillReader::Open(run_paths_[i], ropts);
    if (!reader.ok()) return reader.status();
    runs_[i].reader = std::move(*reader);
    EMDBG_RETURN_IF_ERROR(runs_[i].reader.ReadPod(&runs_[i].remaining));
    EMDBG_RETURN_IF_ERROR(PushRun(static_cast<uint32_t>(i)));
  }
  finished_ = true;
  return Status::Ok();
}

Status ExternalEntrySorter::Next(BlockEntry* out) {
  if (!finished_) {
    return Status::FailedPrecondition("entry sorter: Next before Finish");
  }
  if (run_paths_.empty()) {
    if (mem_pos_ >= buffer_.size()) {
      return Status::OutOfRange("entry sorter: end of stream");
    }
    *out = std::move(buffer_[mem_pos_++]);
    return Status::Ok();
  }
  if (heap_.empty()) {
    return Status::OutOfRange("entry sorter: end of stream");
  }
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapItem& x, const HeapItem& y) {
                  return *y.head < *x.head;
                });
  const uint32_t run = heap_.back().run;
  heap_.pop_back();
  *out = std::move(runs_[run].head);
  return PushRun(run);
}

}  // namespace emdbg
