#include "persist/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

namespace seda::persist {

MappedImage::~MappedImage() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

Result<std::shared_ptr<MappedImage>> MappedImage::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open image: " + path);

  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("cannot stat image: " + path);
  }
  size_t size = static_cast<size_t>(st.st_size);

  std::shared_ptr<MappedImage> image(new MappedImage());
  image->path_ = path;
  image->size_ = size;
  if (size > 0) {
    void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping != MAP_FAILED) {
      image->data_ = static_cast<const uint8_t*>(mapping);
      image->mapped_ = true;
    } else {
      // mmap unavailable (exotic filesystem): fall back to one heap read so
      // Open keeps working; everything downstream is agnostic to the source.
      image->fallback_.resize(size);
      ssize_t got = ::pread(fd, image->fallback_.data(), size, 0);
      if (got < 0 || static_cast<size_t>(got) != size) {
        ::close(fd);
        return Status::IoError("cannot read image: " + path);
      }
      image->data_ = image->fallback_.data();
    }
  }
  ::close(fd);

  Status valid = image->Validate();
  if (!valid.ok()) return valid;
  return image;
}

Result<std::shared_ptr<MappedImage>> MappedImage::FromBuffer(
    std::vector<uint8_t> bytes, const std::string& name) {
  std::shared_ptr<MappedImage> image(new MappedImage());
  image->path_ = name;
  image->size_ = bytes.size();
  image->fallback_ = std::move(bytes);
  image->data_ = image->fallback_.data();

  Status valid = image->Validate();
  if (!valid.ok()) return valid;
  return image;
}

Status MappedImage::Validate() {
  if (size_ < sizeof(FileHeader)) {
    return Status::ParseError("image truncated: " + path_ + " (" +
                              std::to_string(size_) + " bytes, header needs " +
                              std::to_string(sizeof(FileHeader)) + ")");
  }
  std::memcpy(&header_, data_, sizeof(header_));
  if (std::memcmp(header_.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a SEDA snapshot image: " + path_);
  }
  if (header_.format_version != kFormatVersion) {
    return Status::FailedPrecondition(
        "image format version " + std::to_string(header_.format_version) +
        " unsupported (reader speaks version " +
        std::to_string(kFormatVersion) + "): " + path_);
  }
  if (header_.endian_tag != kEndianTag) {
    return Status::FailedPrecondition(
        "image byte order does not match this machine: " + path_);
  }
  uint32_t expected_crc = Crc32(&header_, offsetof(FileHeader, header_crc));
  if (header_.header_crc != expected_crc) {
    return Status::ParseError("image header CRC mismatch: " + path_);
  }
  if (header_.file_size != size_) {
    return Status::ParseError(
        "image truncated: " + path_ + " (header declares " +
        std::to_string(header_.file_size) + " bytes, file has " +
        std::to_string(size_) + ")");
  }

  // Section table bounds, then entries, then per-section bounds + CRC.
  // Guard the count before multiplying: a wrapped table_bytes could pass
  // the range check and turn resize() into an abort instead of a Status.
  if (header_.section_table_offset > size_ ||
      header_.section_count >
          (size_ - header_.section_table_offset) / sizeof(SectionEntry)) {
    return Status::ParseError("image section table out of bounds: " + path_);
  }
  sections_.resize(header_.section_count);
  std::memcpy(sections_.data(), data_ + header_.section_table_offset,
              static_cast<size_t>(header_.section_count) * sizeof(SectionEntry));
  for (const SectionEntry& entry : sections_) {
    const char* name = SectionName(static_cast<SectionId>(entry.id));
    // Aligned payloads are what lets flat u32 arrays (posting blocks, CSR,
    // columns) be read in place.
    if (entry.offset % kSectionAlignment != 0 || entry.offset > size_ ||
        entry.size > size_ - entry.offset) {
      return Status::ParseError(std::string("image section '") + name +
                                "' misaligned or out of bounds: " + path_);
    }
    uint32_t crc = Crc32(data_ + entry.offset, static_cast<size_t>(entry.size));
    if (crc != entry.crc) {
      return Status::ParseError(std::string("image section '") + name +
                                "' CRC mismatch (corrupt image): " + path_);
    }
  }
  return Status::OK();
}

bool MappedImage::HasSection(SectionId id) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.id == static_cast<uint32_t>(id)) return true;
  }
  return false;
}

Result<std::pair<const uint8_t*, size_t>> MappedImage::Section(
    SectionId id) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.id == static_cast<uint32_t>(id)) {
      return std::make_pair(data_ + entry.offset,
                            static_cast<size_t>(entry.size));
    }
  }
  return Status::NotFound(std::string("image has no '") + SectionName(id) +
                          "' section: " + path_);
}

Status SectionCursor::status() const {
  if (!failed_) return Status::OK();
  return Status::ParseError(std::string("image section '") + SectionName(id_) +
                            "' decode ran past its end (corrupt image)");
}

Result<SectionCursor> OpenSection(const MappedImage& image, SectionId id) {
  auto span = image.Section(id);
  if (!span.ok()) return span.status();
  return SectionCursor(span->first, span->second, id);
}

}  // namespace seda::persist
