#include "src/util/spill_file.h"

#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "src/util/crc32c.h"
#include "src/util/fault_injection.h"

namespace emdbg {

namespace {

constexpr char kMagic[8] = {'E', 'M', 'D', 'B', 'G', 'S', 'P', 'L'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(uint32_t);
constexpr size_t kMinFrameBytes = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// SpillWriter

SpillWriter::~SpillWriter() { Abandon(); }

SpillWriter::SpillWriter(SpillWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      buffer_(std::move(other.buffer_)),
      frame_bytes_(other.frame_bytes_),
      payload_bytes_(other.payload_bytes_),
      failed_(other.failed_),
      billing_(std::move(other.billing_)) {
  other.file_ = nullptr;
}

SpillWriter& SpillWriter::operator=(SpillWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    path_ = std::move(other.path_);
    file_ = other.file_;
    buffer_ = std::move(other.buffer_);
    frame_bytes_ = other.frame_bytes_;
    payload_bytes_ = other.payload_bytes_;
    failed_ = other.failed_;
    billing_ = std::move(other.billing_);
    other.file_ = nullptr;
  }
  return *this;
}

void SpillWriter::Abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  billing_.reset();
}

Result<SpillWriter> SpillWriter::Create(const std::string& path,
                                        const Options& options) {
  SpillWriter w;
  w.path_ = path;
  w.frame_bytes_ = std::max(options.frame_bytes, kMinFrameBytes);
  Result<MemoryReservation> billing =
      MemoryReservation::Make(options.budget, w.frame_bytes_, "spill.buffer");
  if (!billing.ok()) return billing.status();
  w.billing_ = std::move(*billing);
  w.buffer_.reserve(w.frame_bytes_);
  w.file_ = std::fopen(path.c_str(), "wb");
  if (w.file_ == nullptr) {
    return Status::IoError("spill: cannot create '" + path + "'");
  }
  char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  uint32_t version = kVersion;
  uint32_t frame = static_cast<uint32_t>(
      std::min<size_t>(w.frame_bytes_, UINT32_MAX));
  std::memcpy(header + sizeof(kMagic), &version, sizeof(version));
  std::memcpy(header + sizeof(kMagic) + sizeof(version), &frame,
              sizeof(frame));
  if (std::fwrite(header, 1, kHeaderBytes, w.file_) != kHeaderBytes) {
    w.Abandon();
    return Status::IoError("spill: header write failed for '" + path + "'");
  }
  return w;
}

Status SpillWriter::FlushFrame() {
  if (buffer_.empty()) return Status::Ok();
  if (FaultFire("spill.write")) {
    failed_ = true;
    return Status::IoError("spill: injected write failure at '" + path_ +
                           "'");
  }
  const uint32_t size = static_cast<uint32_t>(buffer_.size());
  const uint32_t crc = Crc32c(buffer_.data(), buffer_.size());
  if (std::fwrite(&size, 1, sizeof(size), file_) != sizeof(size) ||
      std::fwrite(&crc, 1, sizeof(crc), file_) != sizeof(crc) ||
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
          buffer_.size()) {
    failed_ = true;
    return Status::IoError("spill: frame write failed at '" + path_ + "'");
  }
  buffer_.clear();
  return Status::Ok();
}

Status SpillWriter::Write(const void* data, size_t size) {
  if (file_ == nullptr || failed_) {
    return Status::FailedPrecondition("spill: writer '" + path_ +
                                      "' is closed or failed");
  }
  const char* p = static_cast<const char*>(data);
  // Oversized writes flush the pending frame, then go out as one frame of
  // their own — frames are self-describing, so readers do not care.
  if (size >= frame_bytes_ && buffer_.empty()) {
    buffer_.assign(p, size);
    payload_bytes_ += size;
    return FlushFrame();
  }
  while (size > 0) {
    const size_t room = frame_bytes_ - buffer_.size();
    const size_t take = std::min(room, size);
    buffer_.append(p, take);
    p += take;
    size -= take;
    payload_bytes_ += take;
    if (buffer_.size() >= frame_bytes_) {
      EMDBG_RETURN_IF_ERROR(FlushFrame());
    }
  }
  return Status::Ok();
}

Status SpillWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  Status s = failed_ ? Status::IoError("spill: writer '" + path_ +
                                       "' failed before Close")
                     : FlushFrame();
  if (s.ok() && std::fflush(file_) != 0) {
    s = Status::IoError("spill: flush failed at '" + path_ + "'");
  }
  if (std::fclose(file_) != 0 && s.ok()) {
    s = Status::IoError("spill: close failed at '" + path_ + "'");
  }
  file_ = nullptr;
  billing_.reset();
  return s;
}

// ---------------------------------------------------------------------------
// SpillReader

SpillReader::~SpillReader() { Close(); }

SpillReader::SpillReader(SpillReader&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      buffer_(std::move(other.buffer_)),
      pos_(other.pos_),
      bytes_read_(other.bytes_read_),
      budget_(other.budget_),
      billed_(other.billed_),
      failed_(other.failed_) {
  other.file_ = nullptr;
  other.budget_ = nullptr;
  other.billed_ = 0;
}

SpillReader& SpillReader::operator=(SpillReader&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    file_ = other.file_;
    buffer_ = std::move(other.buffer_);
    pos_ = other.pos_;
    bytes_read_ = other.bytes_read_;
    budget_ = other.budget_;
    billed_ = other.billed_;
    failed_ = other.failed_;
    other.file_ = nullptr;
    other.budget_ = nullptr;
    other.billed_ = 0;
  }
  return *this;
}

void SpillReader::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (budget_ != nullptr && billed_ > 0) {
    budget_->Release(billed_);
    billed_ = 0;
  }
  budget_ = nullptr;
}

Status SpillReader::BillBuffer(size_t capacity) {
  if (budget_ == nullptr || capacity <= billed_) return Status::Ok();
  EMDBG_RETURN_IF_ERROR(budget_->Reserve(capacity - billed_,
                                         "spill.buffer"));
  billed_ = capacity;
  return Status::Ok();
}

Result<SpillReader> SpillReader::Open(const std::string& path,
                                      const Options& options) {
  SpillReader r;
  r.path_ = path;
  r.budget_ = options.budget;
  r.file_ = std::fopen(path.c_str(), "rb");
  if (r.file_ == nullptr) {
    return Status::IoError("spill: cannot open '" + path + "'");
  }
  char header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, r.file_) != kHeaderBytes) {
    return Status::ParseError("spill: '" + path + "' is truncated (header)");
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("spill: '" + path + "' has a bad magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, header + sizeof(kMagic), sizeof(version));
  if (version != kVersion) {
    return Status::ParseError("spill: '" + path + "' has version " +
                              std::to_string(version) + ", expected " +
                              std::to_string(kVersion));
  }
  return r;
}

Status SpillReader::FillBuffer() {
  uint32_t meta[2];  // payload_size, crc
  const size_t got = std::fread(meta, 1, sizeof(meta), file_);
  if (got == 0 && std::feof(file_)) {
    return Status::OutOfRange("spill: end of stream at '" + path_ + "'");
  }
  if (got != sizeof(meta)) {
    failed_ = true;
    return Status::ParseError("spill: '" + path_ +
                              "' is truncated mid frame header");
  }
  if (FaultFire("spill.read")) {
    failed_ = true;
    return Status::IoError("spill: injected read failure at '" + path_ +
                           "'");
  }
  const size_t size = meta[0];
  EMDBG_RETURN_IF_ERROR(BillBuffer(std::max(size, kMinFrameBytes)));
  buffer_.resize(size);
  if (size > 0 && std::fread(&buffer_[0], 1, size, file_) != size) {
    failed_ = true;
    return Status::ParseError("spill: '" + path_ +
                              "' is truncated mid frame payload");
  }
  if (Crc32c(buffer_.data(), buffer_.size()) != meta[1]) {
    failed_ = true;
    return Status::ParseError("spill: CRC mismatch in '" + path_ + "'");
  }
  pos_ = 0;
  return Status::Ok();
}

Status SpillReader::Read(void* out, size_t size) {
  if (file_ == nullptr || failed_) {
    return Status::FailedPrecondition("spill: reader '" + path_ +
                                      "' is closed or failed");
  }
  char* p = static_cast<char*>(out);
  while (size > 0) {
    if (pos_ >= buffer_.size()) {
      EMDBG_RETURN_IF_ERROR(FillBuffer());
    }
    const size_t take = std::min(size, buffer_.size() - pos_);
    std::memcpy(p, buffer_.data() + pos_, take);
    pos_ += take;
    p += take;
    size -= take;
    bytes_read_ += take;
  }
  return Status::Ok();
}

bool SpillReader::AtEnd() {
  if (file_ == nullptr || failed_) return true;
  if (pos_ < buffer_.size()) return false;
  Status s = FillBuffer();
  if (s.ok()) return false;
  return s.code() == StatusCode::kOutOfRange;
}

SpillDir& SpillDir::operator=(SpillDir&& other) noexcept {
  if (this != &other) {
    Remove();
    parent_ = std::move(other.parent_);
    prefix_ = std::move(other.prefix_);
    path_ = std::exchange(other.path_, std::string());
  }
  return *this;
}

Result<std::string> SpillDir::File(const std::string& name) {
  if (path_.empty()) {
    std::string pattern = parent_ + "/" + prefix_ + "-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      return Status::IoError("spill dir: cannot create '" + pattern +
                             "': " + std::strerror(errno));
    }
    path_ = buf.data();
  }
  return path_ + "/" + name;
}

void SpillDir::Remove() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);  // best effort: scratch only
  path_.clear();
}

}  // namespace emdbg
