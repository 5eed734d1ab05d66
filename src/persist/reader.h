#ifndef SEDA_PERSIST_READER_H_
#define SEDA_PERSIST_READER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "persist/format.h"

namespace seda::persist {

/// A snapshot image mapped read-only into the address space. Open() validates
/// the header (magic, format version, endianness, declared vs actual size),
/// the section table bounds and every section's CRC32 before returning, so a
/// truncated, corrupted or mismatched image surfaces as one clean Status and
/// decoding never touches unverified bytes.
///
/// The mapping is the only copy of the bulk data: SectionCursors decode
/// directly out of it (offset-addressed, alignment-padded segments), flat
/// u32 arrays are borrowed in place (U32View), and only the pointer-bearing
/// heads — hash indexes, tree nodes — are rebuilt by the per-layer Load hooks.
class MappedImage {
 public:
  static Result<std::shared_ptr<MappedImage>> Open(const std::string& path);

  /// Validates `bytes` as an image without touching the filesystem — the
  /// in-memory twin of Open() used by the audit tooling and the image fuzzer
  /// (which feed crafted byte streams that never came from a file).
  static Result<std::shared_ptr<MappedImage>> FromBuffer(
      std::vector<uint8_t> bytes, const std::string& name);

  ~MappedImage();
  MappedImage(const MappedImage&) = delete;
  MappedImage& operator=(const MappedImage&) = delete;

  uint64_t epoch() const { return header_.epoch; }
  uint64_t file_size() const { return header_.file_size; }
  const std::string& path() const { return path_; }

  bool HasSection(SectionId id) const;
  /// Payload span of a section; NotFound when the image lacks it.
  Result<std::pair<const uint8_t*, size_t>> Section(SectionId id) const;

  /// The validated section table, in file order (audit tooling: lets the
  /// SnapshotAuditor cross-check declared section layout against the
  /// structures the Load hooks decoded).
  const std::vector<SectionEntry>& sections() const { return sections_; }

 private:
  MappedImage() = default;
  Status Validate();

  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;            ///< mmap'd vs heap fallback
  std::vector<uint8_t> fallback_;  ///< used when mmap is unavailable
  FileHeader header_{};
  std::vector<SectionEntry> sections_;
};

/// Flat u32 array, either owned (built at Commit) or a zero-copy view into a
/// mapped image (GetU32Span) whose lifetime the owner pins: the CSR, column
/// and posting arenas. Move-only: a copy would point into the source.
class U32View {
 public:
  U32View() = default;
  U32View(U32View&&) noexcept = default;
  U32View& operator=(U32View&&) noexcept = default;
  U32View(const U32View&) = delete;
  U32View& operator=(const U32View&) = delete;

  void Own(std::vector<uint32_t> values) {
    owned_ = std::move(values);
    data_ = owned_.data();
    size_ = owned_.size();
  }
  void Borrow(const uint32_t* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = size;
  }
  const uint32_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
  std::vector<uint32_t> owned_;
};

/// Bounds-checked sequential decoder over one section's bytes. Errors are
/// sticky: any read past the end returns zeroes/empties and latches a failed
/// state, so decode loops stay branch-light and callers check status() once
/// at the end. The CRC pass in MappedImage::Open makes overruns unreachable
/// for well-formed images; the checks here keep even a hostile image at
/// "clean error", never undefined behaviour.
class SectionCursor {
 public:
  SectionCursor(const uint8_t* data, size_t size, SectionId id)
      : data_(data), end_(data + size), id_(id) {
    // Programmer contract, not an input check: hostile *content* is handled
    // by the sticky Ensure() bounds below, but the span itself must be real.
    SEDA_DCHECK(data != nullptr || size == 0)
        << "section cursor over a null span";
  }

  uint8_t GetU8() {
    uint8_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  double GetDouble() {
    double v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  std::string GetString() {
    uint32_t size = GetU32();
    if (!Ensure(size)) return {};
    std::string out(reinterpret_cast<const char*>(data_), size);
    data_ += size;
    return out;
  }
  /// Reads a u32-count-prefixed flat array in one memcpy.
  std::vector<uint32_t> GetU32Array() {
    uint32_t count = GetU32();
    std::vector<uint32_t> out;
    size_t bytes = size_t{count} * sizeof(uint32_t);
    // An empty array has no bytes to copy (and out.data() may be null).
    if (count == 0 || !Ensure(bytes)) return out;
    out.resize(count);
    std::memcpy(out.data(), data_, bytes);
    data_ += bytes;
    return out;
  }

  /// Zero-copy twin of GetU32Array: returns (pointer, count) into the
  /// mapping and skips past the array. Valid only where every preceding
  /// read of the section advanced by a multiple of 4 (an all-u32 section
  /// such as kGraphCsr, or the arena that opens kIndexTerms): section
  /// payloads are 64-byte aligned, so the span is 4-byte aligned for direct
  /// uint32_t access.
  std::pair<const uint32_t*, size_t> GetU32Span() {
    uint32_t count = GetU32();
    size_t bytes = size_t{count} * sizeof(uint32_t);
    if (!Ensure(bytes)) return {nullptr, 0};
    SEDA_DCHECK_EQ(reinterpret_cast<uintptr_t>(data_) % alignof(uint32_t), 0u)
        << "GetU32Span in a section with non-u32 layout";
    const uint32_t* span = reinterpret_cast<const uint32_t*>(data_);
    data_ += bytes;
    return {span, count};
  }

  /// Reads a u64-length-prefixed sub-blob (ImageWriter::BeginBlob/EndBlob):
  /// returns an independent cursor over its bytes and skips past it, so
  /// callers can stash blob cursors and decode them in parallel.
  SectionCursor GetBlob() {
    uint64_t size = GetU64();
    if (!Ensure(size)) return SectionCursor(nullptr, 0, id_);
    SectionCursor sub(data_, static_cast<size_t>(size), id_);
    data_ += size;
    return sub;
  }

  bool failed() const { return failed_; }
  size_t remaining() const { return static_cast<size_t>(end_ - data_); }
  /// Current read position (valid for remaining() bytes) — lets callers keep
  /// a not-yet-decoded span as an offset-addressed view into the mapping.
  const uint8_t* data() const { return data_; }

  /// Clamp for container reserves driven by decoded counts: no section can
  /// hold more elements than its remaining bytes could encode, so a garbage
  /// count (which bounds checks will catch a few reads later) never triggers
  /// a pathological allocation first.
  size_t BoundedCount(uint64_t count, size_t min_bytes_per_element) const {
    uint64_t cap = min_bytes_per_element > 0
                       ? remaining() / min_bytes_per_element
                       : remaining();
    return static_cast<size_t>(count < cap ? count : cap);
  }

  /// OK iff every read so far was in bounds. Call after decoding a section;
  /// the message names the section.
  Status status() const;

 private:
  bool Ensure(size_t size) {
    if (failed_ || size > remaining()) {
      failed_ = true;
      return false;
    }
    return true;
  }
  void GetRaw(void* out, size_t size) {
    if (!Ensure(size)) return;
    std::memcpy(out, data_, size);
    data_ += size;
  }

  const uint8_t* data_;
  const uint8_t* end_;
  SectionId id_;
  bool failed_ = false;
};

/// Convenience: cursor over a section of `image`, or NotFound.
Result<SectionCursor> OpenSection(const MappedImage& image, SectionId id);

}  // namespace seda::persist

#endif  // SEDA_PERSIST_READER_H_
