#ifndef SEDA_PERSIST_WRITER_H_
#define SEDA_PERSIST_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "persist/format.h"

namespace seda::persist {

/// Streaming writer for a snapshot image. Usage:
///
///   ImageWriter writer;
///   SEDA_RETURN_IF_ERROR(writer.Open(path));
///   writer.BeginSection(SectionId::kStorePaths);
///   writer.PutU64(...); writer.PutString(...);
///   SEDA_RETURN_IF_ERROR(writer.EndSection());
///   ... more sections ...
///   SEDA_RETURN_IF_ERROR(writer.Finish(epoch));
///
/// Each section is buffered in memory, checksummed, and flushed at a
/// kSectionAlignment boundary. The bytes go to a temporary file beside the
/// target; Finish() appends the section table, rewrites the header, fsyncs
/// the file, renames it over the target and fsyncs the directory. So the
/// target always holds either its old image or the complete new one — a
/// crash, a failed write or a writer destroyed before Finish() leaves it
/// untouched (the temporary file is removed) — and a process that has the
/// old image mapped keeps reading the old bytes. A writer killed before it
/// could remove its temporary file leaves it behind; the next Open() of the
/// same path removes it once that writer's process is gone.
class ImageWriter {
 public:
  ImageWriter() = default;
  ~ImageWriter();
  ImageWriter(const ImageWriter&) = delete;
  ImageWriter& operator=(const ImageWriter&) = delete;

  /// Removes temporary files of `path` left by dead writers, creates this
  /// writer's temporary file and reserves the header slot.
  Status Open(const std::string& path);

  void BeginSection(SectionId id);

  // --- primitives, valid between BeginSection and EndSection ----------
  void PutU8(uint8_t v) {
    SEDA_DCHECK(in_section_) << "Put outside BeginSection/EndSection";
    sink_->push_back(static_cast<char>(v));
  }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }  // exact bit pattern
  /// Length-prefixed (u32) byte string.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  /// Length-prefixed (u32 count) flat little-endian u32 array — the layout
  /// bulk segments (path ids, Dewey components, positions) use, readable as
  /// one contiguous span.
  void PutU32Array(const std::vector<uint32_t>& values) {
    PutU32(static_cast<uint32_t>(values.size()));
    PutRaw(values.data(), values.size() * sizeof(uint32_t));
  }
  /// PutU32Array over raw memory — lets zero-copy views (persist/reader.h
  /// U32View) round-trip without re-vectorizing.
  void PutU32Span(const uint32_t* values, size_t count) {
    PutU32(static_cast<uint32_t>(count));
    if (count > 0) PutRaw(values, count * sizeof(uint32_t));
  }

  /// Redirects subsequent Puts into a standalone blob; EndBlob() emits it as
  /// a u64-length-prefixed unit. Readers can skip blobs without decoding
  /// them, which is what lets the store section materialize documents in
  /// parallel. Blobs do not nest.
  void BeginBlob() {
    SEDA_DCHECK(sink_ == &buffer_) << "blobs do not nest";
    blob_.clear();
    sink_ = &blob_;
  }
  void EndBlob() {
    SEDA_DCHECK(sink_ == &blob_) << "EndBlob without BeginBlob";
    sink_ = &buffer_;
    PutU64(blob_.size());
    buffer_.append(blob_);
  }

  /// Checksums and flushes the buffered section at an aligned offset.
  Status EndSection();

  /// Appends the section table, then rewrites the header with `epoch` and the
  /// final file size, and publishes the image at the path given to Open().
  /// The writer is closed afterwards.
  Status Finish(uint64_t epoch);

 private:
  void PutRaw(const void* data, size_t size) {
    SEDA_DCHECK(in_section_) << "Put outside BeginSection/EndSection";
    const char* bytes = static_cast<const char*>(data);
    sink_->append(bytes, size);
  }
  Status WritePadded(const void* data, size_t size);
  /// Closes the temporary file and removes it.
  void Abandon();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::string temp_path_;
  std::string buffer_;
  std::string blob_;
  std::string* sink_ = &buffer_;
  SectionId current_id_ = SectionId::kOptions;
  bool in_section_ = false;
  uint64_t offset_ = 0;  ///< next write offset (always aligned outside flush)
  std::vector<SectionEntry> sections_;
};

}  // namespace seda::persist

#endif  // SEDA_PERSIST_WRITER_H_
