#ifndef SEDA_TEXT_INVERTED_INDEX_H_
#define SEDA_TEXT_INVERTED_INDEX_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "persist/reader.h"
#include "store/document_store.h"
#include "text/text_expr.h"

namespace seda {
class ThreadPool;
}

namespace seda::persist {
class ImageWriter;
}

namespace seda::text {

/// Read-only view of one term's node postings in document order (DocId, then
/// Dewey), reading one flat all-u32 block in place:
///
///   [n] [doc x n] [path x n] [dewey_end x n] [pos_end x n]
///   [Dewey components ...] [positions ...]
///
/// End offsets are exclusive, into the two tails: posting i's Dewey ID is
/// [dewey_end[i-1], dewey_end[i]), its ascending in-node positions (count =
/// term frequency) [pos_end[i-1], pos_end[i]). A built index owns its blocks,
/// an opened one borrows them from the image; views live as long as it.
class PostingList {
 public:
  PostingList() = default;
  /// Views the block that starts at `block` (structurally valid: built by
  /// the index, or checked by InvertedIndex::LoadFrom).
  explicit PostingList(const uint32_t* block);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  store::DocId doc(size_t i) const { return cols_[i]; }
  store::PathId path(size_t i) const { return cols_[size_ + i]; }
  std::span<const uint32_t> dewey(size_t i) const {
    return Slice(deweys_, cols_ + 2 * size_, i);
  }
  std::span<const uint32_t> positions(size_t i) const {
    return Slice(positions_, cols_ + 3 * size_, i);
  }
  /// Posting i's node as an owning NodeId.
  store::NodeId node(size_t i) const;

  /// True iff posting i's node sorts before (doc, dewey) in document order.
  bool Before(size_t i, store::DocId doc,
              std::span<const uint32_t> dewey) const;

  /// First index in [from, size()) whose node is >= target (binary search);
  /// size() when none is.
  size_t LowerBound(size_t from, const store::NodeId& target) const;

 private:
  friend class InvertedIndex;  // copies whole columns when extending blocks

  uint32_t DeweyWords() const { return size_ == 0 ? 0 : cols_[3 * size_ - 1]; }
  uint32_t PositionWords() const {
    return size_ == 0 ? 0 : cols_[4 * size_ - 1];
  }
  static std::span<const uint32_t> Slice(const uint32_t* tail,
                                         const uint32_t* ends, size_t i) {
    uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return {tail + begin, ends[i] - begin};
  }

  size_t size_ = 0;
  const uint32_t* cols_ = nullptr;  ///< doc, path, dewey_end, pos_end columns
  const uint32_t* deweys_ = nullptr;
  const uint32_t* positions_ = nullptr;
};

/// A scored node match produced by evaluating a full-text expression.
struct NodeMatch {
  store::NodeId node;
  store::PathId path = store::kInvalidPathId;
  double score = 0.0;
};

/// Per-node content score of one term occurrence: idf * (1 + log(1 + tf)).
/// The single definition the exec cursor layer and the tests' reference
/// evaluator share, so both assign bit-identical scores. Phrase matches
/// score the sum of their tokens' Idf() values (tf-independent).
inline double TermContentScore(double idf, size_t tf) {
  return idf * (1.0 + std::log(1.0 + static_cast<double>(tf)));
}

/// From-scratch full-text index (the paper's Lucene substitute) with the two
/// posting families SEDA relies on:
///
///  1. keyword -> nodes (with in-node positions): element and attribute nodes
///     are indexed by their full content (concatenated descendant text,
///     Definition 3's content(n)), so "United States" matches both the
///     trade_country leaf and its enclosing country document element.
///  2. keyword -> distinct paths ("virtual path documents", paper Figure 8):
///     drives context-bucket computation in §5 without touching node
///     postings. Tag names are indexed as keywords too, as the paper states.
///
/// Per-path occurrence counts can be read either from the PathDictionary (the
/// paper's chosen design: counts in the document store) or from the
/// per-term path postings (the rejected design); both are exposed so the
/// ablation bench can compare them.
///
/// The build works on integer term ids. Each document is walked once, in
/// preorder, with its context path kept on an append/truncate stack: every
/// text and attribute leaf is tokenized once (ForEachToken) into doc-local
/// term ids, and every element or attribute node takes as its content(n)
/// the token range its subtree appended — exact, because content(n) joins
/// its pieces with a space and no token straddles one. A stamp array over
/// the local ids finds each node's distinct terms and positions, and each
/// (document, term) pair's postings are laid out as one contiguous run.
/// Documents build in parallel; their local ids are remapped to build ids
/// in DocId order, and each term's block is the runs copied in that order,
/// so any worker count gives the same arena. tests/reference/index_scan.h
/// keeps the per-node ContentString() + Tokenize build as the oracle.
class InvertedIndex {
 public:
  /// Builds the index over every document currently in `store`.
  explicit InvertedIndex(const store::DocumentStore* store)
      : InvertedIndex(store, nullptr) {}

  /// Builds the index with per-document posting construction fanned out over
  /// `pool` (nullptr or a 1-worker pool builds inline). Document shards are
  /// merged in DocId order, so the result is identical to a single-threaded
  /// build regardless of scheduling.
  InvertedIndex(const store::DocumentStore* store, ThreadPool* pool);

  /// Incremental-commit constructor: copies `base` (built over the first
  /// `first_new_doc` documents of a store whose document prefix is identical
  /// to `store`) and indexes only documents [first_new_doc, DocumentCount).
  /// Because new DocIds sort after every base DocId, appending the new
  /// documents' postings to each copied block reproduces exactly the blocks
  /// a from-scratch build over `store` would produce — same lists, same
  /// max-tf, same document frequencies — without re-tokenizing a single old
  /// document. `base` (built or opened) is only read, never modified.
  InvertedIndex(const InvertedIndex& base, const store::DocumentStore* store,
                store::DocId first_new_doc, ThreadPool* pool);

  const store::DocumentStore& store() const { return *store_; }

  /// Number of distinct terms with node postings.
  size_t TermCount() const { return terms_.size(); }

  /// Sorted union of every indexed term across both posting families —
  /// content/phrase terms with node postings and tag/direct-text terms that
  /// only appear in the path index. The audit layer's term walk; not a
  /// query-path API.
  std::vector<std::string> AllTerms() const;

  /// Document-order node postings for a term; empty when absent.
  PostingList Postings(const std::string& term) const;

  /// Distinct paths containing `term` in content or as the last tag
  /// (sorted). The Figure 8 path index.
  const std::vector<store::PathId>& TermPaths(const std::string& term) const;

  /// Per-(term, path) occurrence count kept beside the path postings — the
  /// alternative layout discussed in §5. Returns 0 when absent.
  uint64_t TermPathCount(const std::string& term, store::PathId path) const;

  /// Number of documents whose content contains `term`.
  uint64_t DocumentFrequency(const std::string& term) const;

  /// Maximum within-node term frequency of `term` across its postings
  /// (0 when absent). Precomputed at build time; the cursor layer derives
  /// per-term score upper bounds from it without scanning posting lists.
  uint32_t MaxTermFrequency(const std::string& term) const;

  /// Inverse document frequency with add-one smoothing.
  double Idf(const std::string& term) const;

  /// Evaluates to the distinct set of paths satisfying the expression, using
  /// only the path index (paper §5): terms/phrases intersect or union path
  /// sets; NOT subtracts. Phrase queries approximate by intersection, which
  /// the paper's design shares (a path survives iff all phrase tokens occur
  /// in it).
  std::vector<store::PathId> EvaluatePaths(const TextExpr& expr) const;

  /// All element/attribute nodes whose path id is `path`, document order.
  const std::vector<store::NodeId>& NodesWithPath(store::PathId path) const;

  /// Total indexed element/attribute node count.
  uint64_t IndexedNodeCount() const { return indexed_nodes_; }

  /// Persistence hooks (src/persist/, format v2). Both arenas lead their
  /// sections (kIndexTerms: posting blocks; kIndexPaths: path counts), so
  /// they stay 4-byte aligned, and go out exactly as held: a build lays its
  /// blocks out in sorted term order, the order images keep. LoadFrom
  /// borrows both arenas from the mapping — which the index co-owns, as the
  /// CSR does — after one linear structural pass (offsets inside the arena,
  /// end offsets monotone and inside their block, count arrays as long as
  /// their path lists), so a hostile image is a clean ParseError. Only the
  /// term table, path lists and the path -> nodes table are decoded.
  Status SaveTo(persist::ImageWriter* writer) const;
  static Result<std::unique_ptr<InvertedIndex>> LoadFrom(
      std::shared_ptr<const persist::MappedImage> image,
      const store::DocumentStore* store);

 private:
  /// Uninitialized shell for LoadFrom.
  struct LoadTag {};
  InvertedIndex(const store::DocumentStore* store, LoadTag) : store_(store) {}

  /// A term with node postings: its block plus the scorer's frequencies.
  struct TermEntry {
    uint32_t block = 0;  ///< word offset of the posting block in postings_
    uint32_t max_tf = 0;
    uint64_t doc_freq = 0;
  };
  /// A term's sorted, distinct paths and where their parallel counts start.
  struct PathEntry {
    std::vector<store::PathId> paths;
    uint32_t counts = 0;  ///< count index (not word offset) in path_counts_
  };

  /// One document's partial index over doc-local term ids, built by one
  /// preorder walk (see IndexRange).
  struct DocShard;
  /// One term's postings in the documents a build adds, and their sizes.
  struct NewPostings;

  /// Appends to `arena` one block holding `head`'s postings followed by
  /// `added`'s, in order (the added DocIds all sort after `head`'s).
  static void AppendBlock(const PostingList& head, const NewPostings& added,
                          std::vector<uint32_t>* arena);

  /// Both constructors' shared tail: shards, merges and lays out documents
  /// [first_doc, DocumentCount) on top of `base` (null: from scratch).
  void IndexRange(store::DocId first_doc, ThreadPool* pool,
                  const InvertedIndex* base);
  /// The count at `index` of path_counts_ (a word pair).
  uint64_t CountAt(uint32_t index) const;

  const store::DocumentStore* store_;
  /// Keeps the mapped image alive for an index opened from disk (both
  /// arenas may borrow from it); null for a built index.
  std::shared_ptr<const persist::MappedImage> image_;
  std::unordered_map<std::string, TermEntry> terms_;
  /// Every term's posting block, back to back.
  persist::U32View postings_;
  std::unordered_map<std::string, PathEntry> path_postings_;
  /// Per-(term, path) counts: u64s as (low, high) u32 word pairs, so the
  /// arena stays all-u32 like the posting blocks.
  persist::U32View path_counts_;
  std::vector<std::vector<store::NodeId>> nodes_by_path_;
  uint64_t indexed_nodes_ = 0;

  static const std::vector<store::PathId> kEmptyPaths;
  static const std::vector<store::NodeId> kEmptyNodes;
};

}  // namespace seda::text

#endif  // SEDA_TEXT_INVERTED_INDEX_H_
