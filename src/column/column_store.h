#ifndef SEDA_COLUMN_COLUMN_STORE_H_
#define SEDA_COLUMN_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "persist/reader.h"
#include "store/document_store.h"

namespace seda::persist {
class ImageWriter;
}

namespace seda::column {

using persist::U32View;

/// Schema-inferred columnar projections (ROADMAP "schema inference + columnar
/// hybrid projections" item, following the X-WACoDa hybrid-warehouse idea):
/// heterogeneous XML hides high-support regular fragments. At Commit() we mine
/// the path statistics for label paths that are (a) leaf-pure — every node
/// with that path has only text children, so its content is a scalar — and
/// (b) well-supported across the corpus, and flatten each one into a typed
/// column: a dictionary of distinct values, per-row dictionary codes, a
/// DocId -> row-range index, the rows' Dewey IDs (fixed stride = path depth)
/// and a document-presence bitmap. Irregular subtrees stay as trees; the cube
/// layer scans columns where they exist and falls back to the tree walk
/// per cell elsewhere, byte-identical either way.
///
/// Leaf purity is the keystone: because *every* occurrence of the path is a
/// scalar leaf, "how many matches does this document / this parent have" is
/// answered exactly by row counting, which is what lets the cube's
/// single-valued key checks run off the column without consulting the tree.
///
/// Columns persist as SectionId::kColumns — flat u32/byte arrays mapped
/// zero-copy on Open() (the ColumnStore pins the image) and fully
/// structure-validated on load. An image carries the section exactly when
/// its options enable columns.

/// Inferred scalar type of a column. Dictionary strings stay authoritative
/// for all engine output (so byte-identity with the tree walk is exact);
/// the typed arrays are decoded acceleration/display metadata. A column is
/// kInt64/kDouble only when every distinct value round-trips through the
/// numeric parse, so the typed view never loses information.
enum class ValueType : uint8_t {
  kString = 0,
  kInt64 = 1,
  kDouble = 2,
};

const char* ValueTypeName(ValueType type);

/// Commit-time inference thresholds. Carried in SedaOptions (persisted in the
/// image's options section), so a reopened image infers the same columns an
/// in-memory commit did.
struct InferenceOptions {
  /// Master switch: when false, no columns are built or saved and every cube
  /// falls back to the tree walk.
  bool enabled = true;
  /// Minimum fraction of documents that must contain the path.
  double min_doc_support = 0.05;
  /// Absolute floor on supporting documents (guards tiny corpora where one
  /// document clears any fractional threshold).
  uint64_t min_docs = 1;
  /// Occupancy guard: reject paths averaging more than this many occurrences
  /// per supporting document (unbounded repetition columnarizes badly).
  double max_avg_occurrences = 64.0;
  /// Hard cap on materialized columns; the best-supported paths win.
  uint64_t max_columns = 1024;
};

/// One inferred column. Rows are the path's leaf occurrences across the whole
/// corpus in (DocId, Dewey) order; every row's Dewey ID has exactly depth()
/// components (one per label step), which makes the per-document row ranges
/// binary-searchable with a fixed stride.
class Column {
 public:
  /// Outcome of a singleton probe, mirroring the tree walk's trichotomy for
  /// key evaluation: exactly one match yields a value, zero is "missing",
  /// more than one is "not single-valued".
  enum class Presence { kMissing, kValue, kDuplicate };

  const std::string& path() const { return path_; }
  store::PathId path_id() const { return path_id_; }
  ValueType type() const { return type_; }
  /// Dewey components per row (== label steps in path()).
  uint32_t depth() const { return depth_; }
  size_t rows() const { return codes_.size(); }
  size_t doc_count() const {
    return doc_offsets_.size() == 0 ? 0 : doc_offsets_.size() - 1;
  }
  size_t dict_size() const {
    return dict_offsets_.size() == 0 ? 0 : dict_offsets_.size() - 1;
  }
  /// Documents with at least one row (bitmap popcount).
  uint64_t docs_present() const { return docs_present_; }

  std::string_view DictValue(uint32_t code) const {
    return std::string_view(pool_ + dict_offsets_[code],
                            dict_offsets_[code + 1] - dict_offsets_[code]);
  }
  std::string_view RowValue(uint32_t row) const {
    return DictValue(codes_[row]);
  }
  const uint32_t* RowDewey(uint32_t row) const {
    return deweys_.data() + size_t{row} * depth_;
  }
  uint32_t DocRowBegin(store::DocId doc) const { return doc_offsets_[doc]; }
  uint32_t DocRowEnd(store::DocId doc) const { return doc_offsets_[doc + 1]; }
  bool DocPresent(store::DocId doc) const {
    return (present_[doc / 32] >> (doc % 32)) & 1u;
  }

  /// Exactly-one-occurrence probe over a whole document (absolute key
  /// component / dimension source).
  Presence DocSingleton(store::DocId doc, uint32_t* row_out) const;

  /// Exact row lookup by full Dewey ID; false when the node is not a row of
  /// this column. `len` must equal depth().
  bool FindRow(store::DocId doc, const uint32_t* dewey, size_t len,
               uint32_t* row_out) const;

  /// Exactly-one probe among rows whose Dewey ID starts with `prefix`
  /// (`len` < depth()): the column form of "exactly one matching child under
  /// this ancestor". Leaf purity makes the row count the exact match count.
  Presence PrefixSingleton(store::DocId doc, const uint32_t* prefix,
                           size_t len, uint32_t* row_out) const;

  /// Typed views, populated iff type() matches (indexed by dictionary code).
  const std::vector<int64_t>& int64_values() const { return ints_; }
  const std::vector<double>& double_values() const { return doubles_; }

  /// Raw array accessors for the auditor / pretty-printers.
  const U32View& doc_offsets() const { return doc_offsets_; }
  const U32View& codes() const { return codes_; }
  const U32View& deweys() const { return deweys_; }
  const U32View& present_words() const { return present_; }
  const U32View& dict_offsets() const { return dict_offsets_; }

 private:
  friend class ColumnStore;

  /// Rows in `doc` whose Dewey ID starts with prefix[0..len): contiguous
  /// because rows are Dewey-sorted per document.
  std::pair<uint32_t, uint32_t> PrefixRange(store::DocId doc,
                                            const uint32_t* prefix,
                                            size_t len) const;

  std::string path_;
  store::PathId path_id_ = store::kInvalidPathId;
  ValueType type_ = ValueType::kString;
  uint32_t depth_ = 0;
  uint64_t docs_present_ = 0;
  U32View doc_offsets_;   ///< doc_count + 1: per-doc row ranges
  U32View codes_;         ///< rows: dictionary code per row
  U32View deweys_;        ///< rows * depth: flat fixed-stride Dewey IDs
  U32View present_;       ///< ceil(doc_count / 32) presence bitmap words
  U32View dict_offsets_;  ///< dict_size + 1: offsets into the value pool
  const char* pool_ = nullptr;  ///< concatenated sorted distinct values
  size_t pool_size_ = 0;
  std::string owned_pool_;       ///< backs pool_ when not image-mapped
  std::vector<int64_t> ints_;    ///< decoded typed view (kInt64)
  std::vector<double> doubles_;  ///< decoded typed view (kDouble)
};

/// The per-epoch column set: inference over a DocumentStore, persistence to /
/// from the kColumns image section, and path lookup for the cube planner.
class ColumnStore {
 public:
  /// Mines the store and materializes every qualifying path as a column.
  /// Deterministic: same store + options => identical columns (and identical
  /// section bytes), which is what keeps incremental commits bit-identical
  /// to cold rebuilds.
  static std::unique_ptr<ColumnStore> Build(const store::DocumentStore& store,
                                            const InferenceOptions& options);

  /// Writes the kColumns section (caller brackets with Begin/EndSection).
  Status SaveTo(persist::ImageWriter* writer) const;

  /// Decodes and structure-validates the kColumns section, borrowing all
  /// bulk arrays zero-copy from `image` (whose mapping it pins). Any
  /// malformed structure — misordered paths, out-of-range codes, ragged
  /// offsets, typed values disagreeing with the dictionary — returns
  /// ParseError, never undefined behaviour.
  static Result<std::unique_ptr<ColumnStore>> LoadFrom(
      std::shared_ptr<const persist::MappedImage> image,
      const store::DocumentStore& store);

  size_t size() const { return columns_.size(); }
  const std::vector<Column>& columns() const { return columns_; }
  size_t doc_count() const { return doc_count_; }

  /// Column for an exact label path, or nullptr. O(log n).
  const Column* Find(std::string_view path) const;
  /// Column by interned path id, or nullptr. O(1).
  const Column* FindByPathId(store::PathId id) const;

 private:
  ColumnStore() = default;

  std::vector<Column> columns_;  ///< sorted by path, strictly increasing
  std::unordered_map<store::PathId, size_t> by_path_id_;
  size_t doc_count_ = 0;
  /// Keeps the mapped image (and thus every borrowed span) alive.
  std::shared_ptr<const persist::MappedImage> image_;
};

}  // namespace seda::column

#endif  // SEDA_COLUMN_COLUMN_STORE_H_
