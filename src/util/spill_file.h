#ifndef EMDBG_UTIL_SPILL_FILE_H_
#define EMDBG_UTIL_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>

#include "src/util/memory_budget.h"
#include "src/util/status.h"

namespace emdbg {

/// CRC-framed byte streams for out-of-core runs (external sort runs,
/// spilled memo shards). A spill file is scratch the process writes and
/// reads back within one run, but it flows through the same disks and
/// page caches as everything else, so every frame carries a CRC-32C —
/// bit rot or a concurrent truncation surfaces as a clean ParseError at
/// read time, never as silently wrong match results.
///
/// Format:
///   magic "EMDBGSPL" (8 bytes), version u32 (= 1), frame_bytes u32
///   then frames until EOF, each:
///     payload_size u32 | crc32c(payload) u32 | payload bytes
///
/// EOF exactly on a frame boundary is a clean end of stream; EOF inside
/// a frame is DataLoss-style corruption (reported as ParseError).
/// `frame_bytes` in the header is advisory (the writer's buffer size);
/// a single Write larger than the buffer becomes its own oversized
/// frame, so readers size their buffer per frame, not from the header.
///
/// Unlike state_io's atomic snapshots, spill streams are append-only
/// scratch: no temp+rename (a crashed run deletes its spill dir), but
/// Close() flushes everything, so a successfully closed stream reads
/// back complete.
///
/// Memory accounting: writer and reader bill their frame buffer to the
/// optional MemoryBudget (consumer "spill.buffer"), so even out-of-core
/// machinery itself stays inside the budget it exists to enforce.
///
/// Fault sites: "spill.write" fires in Write/Close (simulated IO error
/// on flush), "spill.read" fires on frame reads. Both are in the
/// robustness matrix: an injected spill fault must abort the run with a
/// clean Status, never corrupt results.
class SpillWriter {
 public:
  struct Options {
    /// Frame payload size (buffered bytes before a flush).
    size_t frame_bytes = 1u << 20;
    /// Bills the frame buffer; may be null.
    MemoryBudget* budget = nullptr;
  };

  SpillWriter() = default;
  ~SpillWriter();

  SpillWriter(SpillWriter&& other) noexcept;
  SpillWriter& operator=(SpillWriter&& other) noexcept;
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Creates/truncates `path` and writes the stream header.
  static Result<SpillWriter> Create(const std::string& path,
                                    const Options& options);
  static Result<SpillWriter> Create(const std::string& path) {
    return Create(path, Options{});
  }

  /// Appends `size` payload bytes (buffered; frames flush as the buffer
  /// fills). After any error the writer is dead: further Writes return
  /// the same failure category.
  Status Write(const void* data, size_t size);

  template <typename T>
  Status WritePod(const T& v) {
    static_assert(std::is_trivially_copyable<T>::value,
                  "spill streams hold plain bytes");
    return Write(&v, sizeof(T));
  }

  /// Flushes the final frame and closes the file. Idempotent.
  Status Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  /// Total payload bytes accepted by Write().
  uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  Status FlushFrame();
  void Abandon();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  size_t frame_bytes_ = 0;
  uint64_t payload_bytes_ = 0;
  bool failed_ = false;
  MemoryReservation billing_;
};

/// Sequential reader for a stream written by SpillWriter. Presents the
/// concatenated frame payloads as one byte stream; frame boundaries are
/// invisible to callers.
class SpillReader {
 public:
  struct Options {
    /// Bills the frame buffer (grown to the largest frame seen); may be
    /// null.
    MemoryBudget* budget = nullptr;
  };

  SpillReader() = default;
  ~SpillReader();

  SpillReader(SpillReader&& other) noexcept;
  SpillReader& operator=(SpillReader&& other) noexcept;
  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  /// Opens `path` and validates the header.
  static Result<SpillReader> Open(const std::string& path,
                                  const Options& options);
  static Result<SpillReader> Open(const std::string& path) {
    return Open(path, Options{});
  }

  /// Reads exactly `size` bytes (across frames as needed). OutOfRange
  /// when the stream ends cleanly before `size` bytes; ParseError on CRC
  /// mismatch or mid-frame truncation; IoError on read failures.
  Status Read(void* out, size_t size);

  template <typename T>
  Status ReadPod(T* v) {
    static_assert(std::is_trivially_copyable<T>::value,
                  "spill streams hold plain bytes");
    return Read(v, sizeof(T));
  }

  /// True when every payload byte has been consumed and the file ends on
  /// a clean frame boundary. Corrupt tails surface on the Read that hits
  /// them, not here.
  bool AtEnd();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  /// Payload bytes consumed so far.
  uint64_t bytes_read() const { return bytes_read_; }

  void Close();

 private:
  /// Loads the next frame into the buffer. OutOfRange on clean EOF.
  Status FillBuffer();
  Status BillBuffer(size_t capacity);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  size_t pos_ = 0;
  uint64_t bytes_read_ = 0;
  MemoryBudget* budget_ = nullptr;
  size_t billed_ = 0;
  bool failed_ = false;
};

/// A private subdirectory of a shared spill directory: created with
/// mkdtemp on first use, removed with everything in it on destruction.
/// Each out-of-core instance (shard driver, external sorter) spills into
/// its own, so concurrent runs pointed at one spill directory — parallel
/// test processes, two tools sharing --spill-dir — never read or
/// overwrite each other's files.
class SpillDir {
 public:
  SpillDir() = default;
  /// Subdirectories are named `<prefix>-XXXXXX` under `parent`.
  SpillDir(std::string parent, std::string prefix)
      : parent_(std::move(parent)), prefix_(std::move(prefix)) {}
  ~SpillDir() { Remove(); }

  SpillDir(SpillDir&& other) noexcept { *this = std::move(other); }
  SpillDir& operator=(SpillDir&& other) noexcept;
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  /// `<subdir>/<name>`, creating the subdirectory on first call. IoError
  /// when the parent is missing or not writable.
  Result<std::string> File(const std::string& name);

 private:
  void Remove();

  std::string parent_;
  std::string prefix_;
  std::string path_;  ///< empty until created
};

}  // namespace emdbg

#endif  // EMDBG_UTIL_SPILL_FILE_H_
