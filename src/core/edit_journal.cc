#include "src/core/edit_journal.h"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/util/crc32c.h"
#include "src/util/csv.h"
#include "src/util/fault_injection.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

constexpr std::string_view kJournalTag = "EMDBGJ1 ";

}  // namespace

Result<std::unique_ptr<EditJournal>> EditJournal::Create(
    const std::string& path, uint64_t epoch) {
  // Atomic header write: the journal either does not exist yet or has a
  // complete, valid header — a crash here never leaves a torn header.
  EMDBG_RETURN_IF_ERROR(WriteFileAtomic(
      path, StrFormat("EMDBGJ1 %llu\n",
                      static_cast<unsigned long long>(epoch))));
  return OpenForAppend(path);
}

Result<std::unique_ptr<EditJournal>> EditJournal::OpenForAppend(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot open journal %s for append", path.c_str()));
  }
  return std::unique_ptr<EditJournal>(new EditJournal(f));
}

EditJournal::~EditJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

Status EditJournal::Append(std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument(
        "journal payload must be a single line");
  }
  std::string line = StrFormat("%08x ", Crc32c(payload));
  line.append(payload);
  line.push_back('\n');
  // Injected before anything reaches the file: the record is guaranteed
  // absent on disk, the clean "write failed, nothing committed" case.
  if (FaultFire("journal.write")) {
    return Status::IoError("journal append failed (injected)");
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return Status::IoError("journal append failed");
  }
  // The edit must be on disk before we report it committed. An injected
  // failure here models the nasty half: the record is in the file but the
  // edit was never acknowledged — recovery may legitimately replay it.
  if (FaultFire("journal.fsync") || ::fsync(::fileno(file_)) != 0) {
    return Status::IoError(
        StrFormat("journal fsync failed: %s", std::strerror(errno)));
  }
  return Status::Ok();
}

Result<EditJournal::Contents> EditJournal::Read(const std::string& path) {
  Result<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();

  Contents contents;
  // Split into lines; a file not ending in '\n' has a torn final line
  // unless its checksum happens to verify (the newline was the only
  // missing byte).
  std::vector<std::string_view> lines;
  std::string_view rest(*data);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    if (nl == std::string_view::npos) {
      lines.push_back(rest);
      break;
    }
    lines.push_back(rest.substr(0, nl));
    rest.remove_prefix(nl + 1);
  }
  if (lines.empty() || lines[0].size() <= kJournalTag.size() ||
      lines[0].substr(0, kJournalTag.size()) != kJournalTag) {
    return Status::ParseError(
        StrFormat("%s is not an emdbg journal", path.c_str()));
  }
  int64_t epoch = 0;
  if (!ParseInt64(lines[0].substr(kJournalTag.size()), &epoch) ||
      epoch < 0) {
    return Status::ParseError(
        StrFormat("journal %s has a bad epoch", path.c_str()));
  }
  contents.epoch = static_cast<uint64_t>(epoch);

  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    bool valid = line.size() >= 10 && line[8] == ' ';
    uint32_t stored = 0;
    if (valid) {
      for (size_t k = 0; k < 8; ++k) {
        if (!std::isxdigit(static_cast<unsigned char>(line[k]))) {
          valid = false;
          break;
        }
      }
      if (valid) {
        stored = static_cast<uint32_t>(
            std::strtoul(std::string(line.substr(0, 8)).c_str(), nullptr,
                         16));
      }
    }
    const std::string_view payload = valid ? line.substr(9) : line;
    if (!valid || Crc32c(payload) != stored) {
      if (i + 1 == lines.size()) {
        // Crash mid-append tore the final record; everything before it
        // committed.
        contents.torn_tail = true;
        break;
      }
      return Status::ParseError(StrFormat(
          "journal %s corrupt at line %zu (checksum mismatch)",
          path.c_str(), i + 1));
    }
    contents.records.emplace_back(payload);
  }
  return contents;
}

}  // namespace emdbg
