#ifndef SEDA_DATAGUIDE_DATAGUIDE_H_
#define SEDA_DATAGUIDE_DATAGUIDE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/data_graph.h"
#include "store/document_store.h"

namespace seda::persist {
class ImageWriter;
class MappedImage;
}  // namespace seda::persist

namespace seda::dataguide {

/// A dataguide: the set of distinct root-to-leaf paths of one or more
/// documents (paper §6.1 represents a dataguide exactly as "a list of full
/// root-to-leaf paths"). Paths are interned PathIds, kept sorted.
class Dataguide {
 public:
  Dataguide() = default;
  Dataguide(std::vector<store::PathId> paths, store::DocId first_member);

  const std::vector<store::PathId>& paths() const { return paths_; }
  const std::vector<store::DocId>& members() const { return members_; }
  size_t PathCount() const { return paths_.size(); }

  /// True iff every path of `other` is contained in this dataguide.
  bool Contains(const std::vector<store::PathId>& other) const;

  /// Unions `other`'s paths into this dataguide and records the member doc.
  void Merge(const std::vector<store::PathId>& other, store::DocId member);

  void AddMember(store::DocId doc) { members_.push_back(doc); }

  /// Persistence hook: reassembles a dataguide from its serialized parts.
  static Dataguide FromParts(std::vector<store::PathId> paths,
                             std::vector<store::DocId> members) {
    Dataguide guide;
    guide.paths_ = std::move(paths);
    guide.members_ = std::move(members);
    return guide;
  }

 private:
  std::vector<store::PathId> paths_;    // sorted, distinct
  std::vector<store::DocId> members_;
};

/// A path-level (schema-level) connection between two contexts, discovered on
/// the dataguide summary graph. Steps walk from `from_path` to `to_path`
/// through parent/child moves inside a dataguide tree and through link edges
/// (IDREF / XLink / value-based) between dataguides.
struct Connection {
  enum class Move { kUp, kDown, kLink };

  struct Step {
    Move move = Move::kUp;
    std::string path;   ///< the context arrived at after the move
    std::string label;  ///< relationship label for kLink moves
  };

  std::string from_path;
  std::string to_path;
  std::vector<Step> steps;

  size_t Length() const { return steps.size(); }
  bool HasLink() const;
  /// Canonical signature used for deduplication and display, e.g.
  /// "/a/b/c ^/a/b v/a/b/d" or with "~label>/x/y" for link moves.
  std::string Signature() const;
  /// Human-readable rendering.
  std::string ToString() const;
};

/// Statistics from building a dataguide collection (Table 1 rows).
struct BuildStats {
  size_t documents = 0;
  size_t dataguides = 0;
  size_t merges = 0;
  size_t absorbed = 0;  ///< documents whose guide was a subset/equal match
  double reduction_factor = 0;  ///< documents / dataguides
};

/// The dataguide summary DG of a collection (paper §6.1): one dataguide per
/// "schema cluster" of documents, built incrementally with the overlap
/// threshold merge rule, plus link edges corresponding to the non-tree edges
/// of the data graph. Connection discovery runs BFS/DFS over this summary
/// instead of the full data graph, with a connection cache (§6.1 "we cache
/// the connections we discover").
class DataguideCollection {
 public:
  struct Options {
    /// Merge a document into its best-overlapping dataguide when
    /// overlap >= threshold (paper §6.1). The paper's Table 1 uses 0.4.
    /// Threshold > 1 disables merging entirely (one dataguide per distinct
    /// document schema); 0 merges every document that shares a path with
    /// some dataguide.
    double overlap_threshold = 0.4;
  };

  /// Builds the collection over every document in `store`, in document order,
  /// with the paper's rule: a document contained in a dataguide joins the
  /// lowest-index such guide; otherwise it merges into the lowest-index guide
  /// of best overlap when that overlap reaches the threshold; otherwise it
  /// starts a new guide. The paper runs the rule as an O(n·m) scan of every
  /// guide per document; here a document counts its common paths through a
  /// path → guides inverted index, touching only the guides that share a
  /// path with it. The counts are the integers the scan computes, so the
  /// decisions are the same (tests/reference/dataguide_scan.h).
  static DataguideCollection Build(const store::DocumentStore& store,
                                   const Options& options);

  /// Incremental-commit constructor: continues `base`'s sequential
  /// overlap-threshold merge over the documents `base` has not seen
  /// (`store`'s document prefix must be identical to the store `base` was
  /// built over). Because the paper's build is a strictly document-ordered
  /// incremental algorithm, extending an epoch-N collection over the new
  /// documents makes exactly the merge decisions a from-scratch build over
  /// the whole store would — only the new documents are probed (the
  /// inverted index is rebuilt from `base`'s guides, O(total guide paths)).
  /// Link edges and the lazy summary graph are *not* carried over; call
  /// AddLinksFromGraph with the new epoch's data graph as usual.
  static DataguideCollection Extend(const DataguideCollection& base,
                                    const store::DocumentStore& store,
                                    const Options& options);

  const std::vector<Dataguide>& guides() const { return guides_; }
  size_t size() const { return guides_.size(); }
  const BuildStats& build_stats() const { return build_stats_; }

  /// Index of the dataguide summarizing document `doc`.
  size_t GuideOfDoc(store::DocId doc) const { return guide_of_doc_.at(doc); }

  /// Non-throwing GuideOfDoc for callers probing consistency (the audit
  /// layer): nullopt when no guide claims the document.
  std::optional<size_t> FindGuideOfDoc(store::DocId doc) const {
    if (doc >= guide_of_doc_.size()) return std::nullopt;
    return guide_of_doc_[doc];
  }

  /// Materializes link edges between dataguides from the data graph's
  /// non-tree edges (mapped to path level and deduplicated per
  /// (guide, path, guide, path, label), in source-preorder order). Call once
  /// after Build, with the graph's CSR built.
  void AddLinksFromGraph(const graph::DataGraph& graph);

  /// Finds up to `max_count` distinct simple connections between two
  /// contexts, each at most `max_len` moves, ordered by length (shortest
  /// first, the paper's preference). Results are cached per (from, to) pair.
  /// `max_steps` (0 = unlimited) bounds the total DFS edge expansions: the
  /// summary graph allows revisits (see ComputeConnections), so on schema
  /// clusters with wide fan-out an exhaustive depth-6 enumeration is
  /// exponential — the budget keeps the (cached, cold) probe in the tens of
  /// milliseconds and iterative deepening guarantees the shortest
  /// connections are found before it runs out.
  std::vector<Connection> FindConnections(const std::string& from_path,
                                          const std::string& to_path,
                                          size_t max_len = 6,
                                          size_t max_count = 16,
                                          size_t max_steps = 1000000) const;

  /// Cache behaviour control + counters (ablation A3).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

  /// Total number of link edges added from the data graph.
  size_t LinkCount() const { return link_count_; }

  /// Persistence hooks (src/persist/): writes guides, build statistics and
  /// the path-level link edges / reconstructs the collection over `store`.
  /// The lazy summary graph and the connection cache start cold (they are
  /// derived state); Extend() continues a loaded collection exactly like an
  /// in-memory one. LoadFrom returns ParseError for a path id past `store`'s
  /// dictionary or out of order, a member outside `store` or in other than
  /// exactly one guide, a document count other than `store`'s, and a link
  /// guide index past the guide count.
  Status SaveTo(persist::ImageWriter* writer) const;
  static Result<DataguideCollection> LoadFrom(const persist::MappedImage& image,
                                              const store::DocumentStore* store);

 private:
  explicit DataguideCollection(const store::DocumentStore* store) : store_(store) {}

  /// The shared tail of Build and Extend: runs the sequential
  /// overlap-threshold merge over documents [first_doc, DocumentCount) and
  /// refreshes the build statistics.
  void IngestDocuments(store::DocId first_doc, double overlap_threshold);

  /// Summary-graph node: a path prefix inside one dataguide.
  struct SummaryNode {
    size_t guide = 0;
    std::string path;
  };
  struct SummaryEdge {
    size_t to = 0;
    Connection::Move move = Connection::Move::kUp;
    std::string label;
  };

  size_t InternSummaryNode(size_t guide, const std::string& path);
  void EnsureSummaryGraph() const;
  std::vector<Connection> ComputeConnections(const std::string& from_path,
                                             const std::string& to_path,
                                             size_t max_len, size_t max_count,
                                             size_t max_steps) const;

  const store::DocumentStore* store_;
  std::vector<Dataguide> guides_;
  std::vector<uint32_t> guide_of_doc_;  ///< indexed by DocId (dense)
  BuildStats build_stats_;

  // Summary graph (built lazily).
  mutable std::vector<SummaryNode> summary_nodes_;
  mutable std::map<std::pair<size_t, std::string>, size_t> summary_index_;
  mutable std::vector<std::vector<SummaryEdge>> summary_adj_;
  mutable std::unordered_map<std::string, std::vector<size_t>> nodes_by_path_;
  mutable bool summary_built_ = false;
  // Pending link edges (path level), applied when the summary graph builds.
  struct PendingLink {
    size_t guide_a, guide_b;
    std::string path_a, path_b, label;
  };
  std::vector<PendingLink> pending_links_;
  size_t link_count_ = 0;

  // Connection cache.
  mutable bool cache_enabled_ = true;
  mutable std::map<std::pair<std::string, std::string>, std::vector<Connection>>
      connection_cache_;
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;

  /// Serializes the lazy summary-graph build and the connection cache so
  /// concurrent queries against one published snapshot can share the
  /// collection. Behind a unique_ptr to keep the collection movable (Build
  /// and Extend return by value).
  mutable std::unique_ptr<std::mutex> summary_mu_ = std::make_unique<std::mutex>();
};

}  // namespace seda::dataguide

#endif  // SEDA_DATAGUIDE_DATAGUIDE_H_
