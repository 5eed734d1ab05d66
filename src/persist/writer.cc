#include "persist/writer.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string_view>
#include <system_error>

namespace seda::persist {

namespace {

uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(uint64_t{kSectionAlignment} - 1);
}

std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "."
         : slash == 0               ? "/"
                                    : path.substr(0, slash);
}

/// Flushes the directory holding `path`, so a rename into it is durable.
bool SyncDirectoryOf(const std::string& path) {
  const int fd =
      ::open(DirectoryOf(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Parses a decimal number as std::to_string writes it (no sign, no leading
/// zero); nullopt for anything else.
std::optional<uint64_t> ParseDecimal(std::string_view digits) {
  if (digits.empty() || digits.size() > 19 ||
      (digits.size() > 1 && digits.front() == '0')) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

/// Removes the temporary files that writers killed mid-save left beside
/// `path`: names of exactly the form Open() creates, `<name>.tmp.<pid>.<n>`,
/// whose pid no longer exists (kill(pid, 0) fails with ESRCH). A live
/// writer's file, and this process's own, are never touched.
void RemoveStaleTemps(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  const auto self = static_cast<uint64_t>(::getpid());
  std::error_code error;
  std::filesystem::directory_iterator it(DirectoryOf(path), error);
  for (; !error && it != std::filesystem::directory_iterator();
       it.increment(error)) {
    const std::string name = it->path().filename().string();
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string_view rest = std::string_view(name).substr(prefix.size());
    const size_t dot = rest.find('.');
    if (dot == std::string_view::npos) continue;
    const std::optional<uint64_t> pid = ParseDecimal(rest.substr(0, dot));
    if (!pid || !ParseDecimal(rest.substr(dot + 1)) || *pid == 0 ||
        *pid == self || *pid > static_cast<uint64_t>(INT_MAX)) {
      continue;
    }
    if (::kill(static_cast<pid_t>(*pid), 0) == 0 || errno != ESRCH) continue;
    std::error_code ignored;
    std::filesystem::remove(it->path(), ignored);
  }
}

}  // namespace

ImageWriter::~ImageWriter() { Abandon(); }

void ImageWriter::Abandon() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  ::unlink(temp_path_.c_str());
}

Status ImageWriter::Open(const std::string& path) {
  if (file_ != nullptr) {
    return Status::FailedPrecondition("ImageWriter already open");
  }
  RemoveStaleTemps(path);
  // A fresh name beside the target (same file system, so Finish() can
  // rename it into place): the pid and a per-process counter, with O_EXCL
  // stepping past any leftover of a writer whose pid is in use again.
  static std::atomic<uint64_t> counter{0};
  int fd = -1;
  for (int attempt = 0; attempt < 16 && fd < 0; ++attempt) {
    temp_path_ = path + ".tmp." + std::to_string(::getpid()) + "." +
                 std::to_string(counter.fetch_add(1));
    fd = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                0666);
    if (fd < 0 && errno != EEXIST) break;
  }
  if (fd < 0) return Status::IoError("cannot create image file: " + path);
  // A re-save keeps the permission bits of the image it replaces.
  struct stat old_image;
  if (::stat(path.c_str(), &old_image) == 0 &&
      ::fchmod(fd, old_image.st_mode & 07777) != 0) {
    ::close(fd);
    ::unlink(temp_path_.c_str());
    return Status::IoError("cannot copy the image's mode: " + path);
  }
  file_ = ::fdopen(fd, "wb");
  if (file_ == nullptr) {
    ::close(fd);
    ::unlink(temp_path_.c_str());
    return Status::IoError("cannot create image file: " + path);
  }
  path_ = path;
  // Reserve the header slot with zeroes; Finish() rewrites it.
  const char blank[sizeof(FileHeader)] = {0};
  if (std::fwrite(blank, sizeof(blank), 1, file_) != 1) {
    return Status::IoError("write failed: " + path_);
  }
  offset_ = sizeof(FileHeader);
  return Status::OK();
}

void ImageWriter::BeginSection(SectionId id) {
  current_id_ = id;
  in_section_ = true;
  buffer_.clear();
  sink_ = &buffer_;
}

Status ImageWriter::WritePadded(const void* data, size_t size) {
  uint64_t aligned = AlignUp(offset_);
  if (aligned != offset_) {
    static const char zeroes[kSectionAlignment] = {0};
    size_t pad = static_cast<size_t>(aligned - offset_);
    if (std::fwrite(zeroes, 1, pad, file_) != pad) {
      return Status::IoError("write failed: " + path_);
    }
    offset_ = aligned;
  }
  if (size > 0 && std::fwrite(data, 1, size, file_) != size) {
    return Status::IoError("write failed: " + path_);
  }
  offset_ += size;
  return Status::OK();
}

Status ImageWriter::EndSection() {
  if (file_ == nullptr || !in_section_) {
    return Status::FailedPrecondition("EndSection without BeginSection");
  }
  SectionEntry entry;
  entry.id = static_cast<uint32_t>(current_id_);
  entry.offset = AlignUp(offset_);
  entry.size = buffer_.size();
  entry.crc = Crc32(buffer_.data(), buffer_.size());
  SEDA_RETURN_IF_ERROR(WritePadded(buffer_.data(), buffer_.size()));
  sections_.push_back(entry);
  buffer_.clear();
  in_section_ = false;
  return Status::OK();
}

Status ImageWriter::Finish(uint64_t epoch) {
  if (file_ == nullptr) return Status::FailedPrecondition("writer not open");
  if (in_section_) return Status::FailedPrecondition("unterminated section");

  uint64_t table_offset = AlignUp(offset_);
  SEDA_RETURN_IF_ERROR(WritePadded(
      sections_.data(), sections_.size() * sizeof(SectionEntry)));

  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.format_version = kFormatVersion;
  header.endian_tag = kEndianTag;
  header.epoch = epoch;
  header.section_count = sections_.size();
  header.section_table_offset = table_offset;
  header.file_size = offset_;
  header.header_crc =
      Crc32(&header, offsetof(FileHeader, header_crc));
  const bool written = std::fseek(file_, 0, SEEK_SET) == 0 &&
                       std::fwrite(&header, sizeof(header), 1, file_) == 1 &&
                       std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  if (!written) {
    Abandon();
    return Status::IoError("finalizing image failed: " + path_);
  }
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!closed || ::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    ::unlink(temp_path_.c_str());
    return Status::IoError("publishing image failed: " + path_);
  }
  if (!SyncDirectoryOf(path_)) {
    return Status::IoError("image published, but syncing its directory "
                           "failed (the rename may not survive a crash): " +
                           path_);
  }
  return Status::OK();
}

}  // namespace seda::persist
