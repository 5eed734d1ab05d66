#ifndef SEDA_PERSIST_FORMAT_H_
#define SEDA_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace seda::persist {

/// On-disk snapshot image layout (version 2):
///
///   [FileHeader: 64 bytes]
///   [section 0 payload, 64-byte aligned]
///   [section 1 payload, 64-byte aligned]
///   ...
///   [section table: section_count * SectionEntry, 64-byte aligned]
///
/// All integers are little-endian, fixed width. The header carries an
/// endianness tag so a big-endian reader rejects the image instead of
/// mis-decoding it. Every section (and the header itself) is covered by a
/// CRC32, so truncation and bit-rot surface as clean Status errors rather
/// than undefined behaviour. Sections are offset-addressed through the table
/// and alignment-padded, so a reader can mmap the file read-only and decode
/// each section directly out of the mapping (or hand flat segments to typed
/// views) without any intermediate buffering.

/// "SEDAIMG" + format generation byte.
inline constexpr uint8_t kMagic[8] = {'S', 'E', 'D', 'A', 'I', 'M', 'G', 1};

/// Bumped on any incompatible layout change; readers reject other versions.
inline constexpr uint32_t kFormatVersion = 2;

/// Written natively by the writer; reads as 0x04030201 on a wrong-endian
/// reader, which then rejects the image.
inline constexpr uint32_t kEndianTag = 0x01020304u;

/// Alignment of every section payload and the section table.
inline constexpr size_t kSectionAlignment = 64;

/// Section identifiers. Order in the file follows write order; readers locate
/// sections by id through the table, so new sections can be appended without
/// breaking old layouts within a format version.
enum class SectionId : uint32_t {
  kOptions = 1,     ///< epoch + SedaOptions (incl. value edges, topk options)
  kStorePaths = 2,  ///< PathDictionary: path strings + occurrence statistics
  kStoreDocs = 3,   ///< parsed documents (preorder trees) + per-doc path sets
  kGraphEdges = 4,  ///< data-graph non-tree edge log, insertion order
  kIndexTerms = 5,  ///< posting-block arena (u32, mapped zero-copy), then
                    ///< term -> block offset, max tf, document frequency
  kIndexPaths = 6,  ///< path-count arena (u32 pairs, mapped zero-copy), term
                    ///< -> paths + count range, path -> nodes table
  kDataguides = 7,  ///< dataguide summary: guides, stats, path-level links
  kGraphCsr = 8,    ///< CSR graph-kernel arrays (all-u32, mapped zero-copy);
                    ///< required
  kColumns = 9,     ///< schema-inferred columnar projections (src/column/):
                    ///< flat row/dictionary arrays mapped zero-copy; present
                    ///< exactly when the options enable columns
};

const char* SectionName(SectionId id);

/// Fixed-size file header, written at offset 0.
struct FileHeader {
  uint8_t magic[8];
  uint32_t format_version = 0;
  uint32_t endian_tag = 0;
  uint64_t epoch = 0;
  uint64_t section_count = 0;
  uint64_t section_table_offset = 0;
  uint64_t file_size = 0;
  uint32_t header_crc = 0;  ///< CRC32 of the 48 bytes preceding this field
  uint32_t reserved = 0;
  uint8_t pad[8] = {0};
};
static_assert(sizeof(FileHeader) == 64, "header layout is part of the format");

/// One section-table entry.
struct SectionEntry {
  uint32_t id = 0;        ///< SectionId
  uint32_t reserved = 0;
  uint64_t offset = 0;    ///< absolute file offset, kSectionAlignment-aligned
  uint64_t size = 0;      ///< payload bytes (excluding alignment padding)
  uint32_t crc = 0;       ///< CRC32 of the payload bytes
  uint32_t pad = 0;
};
static_assert(sizeof(SectionEntry) == 32, "table layout is part of the format");

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum zip/zlib use.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace seda::persist

#endif  // SEDA_PERSIST_FORMAT_H_
