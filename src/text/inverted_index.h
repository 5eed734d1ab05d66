#ifndef SEDA_TEXT_INVERTED_INDEX_H_
#define SEDA_TEXT_INVERTED_INDEX_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "store/document_store.h"
#include "text/text_expr.h"

namespace seda {
class ThreadPool;
}

namespace seda::persist {
class ImageWriter;
class MappedImage;
}  // namespace seda::persist

namespace seda::text {

/// One node entry in a term's posting list. Postings are kept in document
/// order (DocId, then Dewey), the order the holistic twig join consumes.
struct NodePosting {
  store::NodeId node;
  store::PathId path = store::kInvalidPathId;
  /// Positions of the term within the node's token stream (for phrases).
  std::vector<uint32_t> positions;
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
  /// shards in DocId order reproduces exactly the postings a from-scratch
  /// build over `store` would produce — same lists, same max-tf, same
  /// document frequencies — without re-tokenizing a single old document.
  InvertedIndex(const InvertedIndex& base, const store::DocumentStore* store,
                store::DocId first_new_doc, ThreadPool* pool);

  const store::DocumentStore& store() const { return *store_; }

  /// Number of distinct terms indexed (materialized + still-lazy).
  size_t TermCount() const;

  /// Sorted union of every indexed term across both posting families —
  /// content/phrase terms with node postings (materialized or still-lazy)
  /// and tag/direct-text terms that only appear in the path index. The
  /// audit layer's term walk; not a query-path API.
  std::vector<std::string> AllTerms() const;

  /// Document-order node postings for a term; empty when absent.
  const std::vector<NodePosting>& Postings(const std::string& term) const;

  /// Distinct paths containing `term` in content or as the last tag
  /// (sorted). The Figure 8 path index.
  const std::vector<store::PathId>& TermPaths(const std::string& term) const;

  /// Per-(term, path) occurrence count kept inside the path postings — the
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

  /// Persistence hooks (src/persist/): writes the term and path posting
  /// sections (terms sorted, posting lists as skippable blobs) /
  /// reconstructs an index over `store` without re-tokenizing a single
  /// document. Load materializes only the pointer-bearing heads (term
  /// table, frequencies, path postings); each term's node posting list stays
  /// an offset-addressed segment of the mmap'd image — which the index
  /// co-owns — until the first Postings() call decodes it, under a shared
  /// mutex, into the same in-memory form a built index carries. The loaded
  /// index serves byte-identical postings, frequencies and scores; it also
  /// works as the `base` of the incremental constructor (which first forces
  /// full materialization), so commits can extend a loaded epoch.
  Status SaveTo(persist::ImageWriter* writer) const;
  static Result<std::unique_ptr<InvertedIndex>> LoadFrom(
      std::shared_ptr<const persist::MappedImage> image,
      const store::DocumentStore* store);

 private:
  /// Uninitialized shell for LoadFrom.
  struct LoadTag {};
  InvertedIndex(const store::DocumentStore* store, LoadTag) : store_(store) {}

  /// A not-yet-decoded posting list: an offset-addressed span of the image.
  struct LazySpan {
    const uint8_t* data = nullptr;
    size_t size = 0;
  };

  /// Decodes every still-lazy posting list (serialization and the
  /// incremental constructor need the full map).
  void MaterializeAllPostings() const;

  /// Decodes the per-(term, path) count table on first TermPathCount() use —
  /// it backs only the §5 ablation comparison, so reopen never pays for it.
  void MaterializePathCounts() const;
  /// Per-document partial index: every container appends in node visit order,
  /// so concatenating shards in DocId order reproduces the sequential build.
  struct DocShard;

  /// Shards, merges and finalizes documents [first_doc, DocumentCount): the
  /// shared tail of both the from-scratch and the incremental constructor.
  void IndexRange(store::DocId first_doc, ThreadPool* pool);
  DocShard BuildDocShard(store::DocId doc) const;
  void MergeShard(DocShard&& shard);
  static void IndexNode(DocShard* shard, const store::NodeId& id,
                        store::PathId path,
                        const std::vector<std::string>& tokens,
                        const std::vector<std::string>& direct_tokens);

  const store::DocumentStore* store_;
  /// Keeps the mapped image (and with it every LazySpan) alive for an index
  /// opened from disk; null for a built index.
  std::shared_ptr<const persist::MappedImage> image_;
  /// Terms whose posting list has not been decoded yet. Guarded by lazy_mu_
  /// together with node_postings_ whenever image_ is set; a built index
  /// never takes the lock.
  mutable std::unordered_map<std::string, LazySpan> lazy_postings_;
  /// Not-yet-decoded per-(term, path) count table (empty span = decoded or
  /// built in memory). Guarded by lazy_mu_ like the posting spans.
  mutable LazySpan lazy_path_counts_;
  mutable std::shared_mutex lazy_mu_;
  mutable std::unordered_map<std::string, std::vector<NodePosting>> node_postings_;
  std::unordered_map<std::string, std::vector<store::PathId>> path_postings_;
  mutable std::unordered_map<std::string,
                             std::unordered_map<store::PathId, uint64_t>>
      path_counts_;
  std::unordered_map<std::string, uint64_t> doc_freq_;
  std::unordered_map<std::string, uint32_t> max_tf_;
  std::vector<std::vector<store::NodeId>> nodes_by_path_;
  uint64_t indexed_nodes_ = 0;

  static const std::vector<NodePosting> kEmptyPostings;
  static const std::vector<store::PathId> kEmptyPaths;
  static const std::vector<store::NodeId> kEmptyNodes;
};

}  // namespace seda::text

#endif  // SEDA_TEXT_INVERTED_INDEX_H_
