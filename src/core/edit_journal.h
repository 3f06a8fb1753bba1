#ifndef EMDBG_CORE_EDIT_JOURNAL_H_
#define EMDBG_CORE_EDIT_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace emdbg {

/// Append-only durable journal of session edits — the redo log behind
/// DebugSession's crash recovery. One text file:
///
///   EMDBGJ1 <epoch>\n                  header: format tag + checkpoint
///                                      epoch this journal extends
///   <crc32c-hex8> <payload>\n          one record per committed edit
///
/// Each record's CRC-32C covers its payload, so corruption is detected
/// line by line. Appends are flushed and fsync'd before returning — once
/// Append succeeds the edit survives a crash. A torn final line (crash
/// mid-append) is tolerated on read; a bad CRC anywhere earlier is
/// reported as ParseError.
///
/// Payloads are the concrete position-based edit commands DebugSession
/// replays (add_rule / remove_rule / add_pred / remove_pred /
/// set_threshold); the journal itself treats them as opaque single-line
/// strings.
class EditJournal {
 public:
  /// Creates (truncating) a journal for checkpoint `epoch` and syncs the
  /// header to disk.
  static Result<std::unique_ptr<EditJournal>> Create(
      const std::string& path, uint64_t epoch);

  /// Reopens an existing journal to append further records (after
  /// recovery has replayed it).
  static Result<std::unique_ptr<EditJournal>> OpenForAppend(
      const std::string& path);

  ~EditJournal();
  EditJournal(const EditJournal&) = delete;
  EditJournal& operator=(const EditJournal&) = delete;

  /// Appends one record (payload must be a single line without '\n') and
  /// fsyncs. The edit is durable once this returns Ok.
  Status Append(std::string_view payload);

  struct Contents {
    uint64_t epoch = 0;
    std::vector<std::string> records;
    /// True if the final line was incomplete or failed its CRC — the
    /// signature of a crash mid-append; the line is ignored.
    bool torn_tail = false;
  };

  /// Reads and verifies a journal. IoError if the file cannot be read,
  /// ParseError on a bad header or on corruption before the final line.
  static Result<Contents> Read(const std::string& path);

 private:
  explicit EditJournal(std::FILE* f) : file_(f) {}

  std::FILE* file_ = nullptr;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_EDIT_JOURNAL_H_
