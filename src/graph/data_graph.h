#ifndef SEDA_GRAPH_DATA_GRAPH_H_
#define SEDA_GRAPH_DATA_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "store/document_store.h"

namespace seda {
class ThreadPool;
}

namespace seda::persist {
class ImageWriter;
class MappedImage;
}  // namespace seda::persist

namespace seda::graph {

/// The four relationship kinds of Definition 2 in the paper.
enum class EdgeType {
  kParentChild,  ///< (1) parent/child (implicit; materialized on demand)
  kIdRef,        ///< (2) IDREF attribute -> node with matching ID attribute
  kXLink,        ///< (3) XLink/XPointer href -> target node
  kValueBased,   ///< (4) primary-key / foreign-key equal-value relationship
};

const char* EdgeTypeName(EdgeType type);

/// A directed non-tree edge of the data graph. `label` carries the semantic
/// relationship name shown on the dashed edges of the paper's Figure 1
/// (e.g. "bordering", "trade_partner").
struct Edge {
  store::NodeId from;
  store::NodeId to;
  EdgeType type = EdgeType::kIdRef;
  std::string label;
};

class Csr;

/// Graph-kernel work counters, aggregated per scored tuple into
/// topk::SearchStats (deterministically: the parallel scoring batch sums
/// per-tuple counters in enumeration order).
struct GraphStats {
  uint64_t bfs_expansions = 0;      ///< nodes expanded by the frontier BFS
  uint64_t intersection_probes = 0; ///< sorted-row elements examined
  uint64_t sketch_hits = 0;         ///< distance queries answered by a sketch
};

/// Tuning for the CSR kernel build (see graph/csr.h for semantics).
struct CsrOptions {
  uint32_t sketch_min_degree = 32;
  uint32_t sketch_max_count = 8;
};

/// The data graph G(V, E) of an XML collection (paper Definition 2): V is the
/// set of element/attribute nodes in the DocumentStore; parent/child edges are
/// implicit in the stored trees, while IDREF, XLink and value-based edges are
/// kept in an insertion-order edge log. BuildCsr() turns trees plus log into
/// the one adjacency every read answers from (graph/csr.h); before it runs,
/// or when it fails, the graph has no adjacency — reads see no non-tree edge
/// and connect only a node to itself (ConnectionSize still measures
/// same-document tuples, which need no search).
///
/// Epoch semantics: a DataGraph is built fresh for every snapshot commit
/// (core/snapshot.cc) and is the one ingestion stage incremental commits
/// never extend — a newly committed document can carry the id an older
/// document's dangling IDREF/XLink points at, and value-based edges can span
/// epochs, so only a full rescan reproduces a from-scratch build exactly.
/// After construction (edges resolved, BuildCsr called) the graph is
/// immutable and all read entry points are const and thread-safe.
class DataGraph {
 public:
  // Both out of line: csr_ is an incomplete type here.
  explicit DataGraph(const store::DocumentStore* store);
  ~DataGraph();

  const store::DocumentStore& store() const { return *store_; }

  /// Appends an explicit non-tree edge to the log (both directions are
  /// traversable once BuildCsr has run).
  void AddEdge(const store::NodeId& from, const store::NodeId& to, EdgeType type,
               const std::string& label);

  /// Scans all documents and adds IDREF edges: any attribute named "idref"
  /// (or "idrefs", whitespace-separated) links to the element carrying an
  /// "id" attribute with the same value. Returns the number of edges added.
  /// The document scan fans out over `pool` when given; edges are committed
  /// in document order either way, so results are scheduling-independent.
  size_t ResolveIdRefs(ThreadPool* pool = nullptr);

  /// Scans for XLink-style attributes ("xlink:href" or "href") whose value is
  /// "#id" or "doc-name#id" and links to the target element. Parallel scan as
  /// in ResolveIdRefs.
  size_t ResolveXLinks(ThreadPool* pool = nullptr);

  /// Resolves both link kinds with a single shared id-target scan — cheaper
  /// than calling ResolveIdRefs + ResolveXLinks back to back, which would
  /// each rebuild the same id -> node map. Returns total edges added.
  size_t ResolveLinks(bool idrefs, bool xlinks, ThreadPool* pool = nullptr);

  /// Adds value-based (PK/FK) edges between nodes at `pk_path` and nodes at
  /// `fk_path` with equal content. Labels them `label`. Returns edges added.
  size_t AddValueBasedEdges(const std::string& pk_path, const std::string& fk_path,
                            const std::string& label);

  /// Non-tree edges touching `node`: out edges, then in edges, each in log
  /// order. Empty for text and nonexistent nodes.
  std::vector<Edge> NonTreeEdges(const store::NodeId& node) const;

  /// Visits every edge once as fn(from_node, to_node, edge), grouped by
  /// source in document order and in log order within a source.
  void ForEachEdgeBySource(
      const std::function<void(const xml::Node*, const xml::Node*,
                               const Edge&)>& fn) const;

  /// Non-tree degree of `node` (out + in) without materializing the edges.
  size_t Degree(const store::NodeId& node) const;

  size_t EdgeCount() const { return edges_.size(); }

  /// Every non-tree edge in insertion (document) order — the deterministic
  /// log persistence writes, so a loaded graph's edge-id rows are
  /// byte-identical to the ones the resolve scans built.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Builds the adjacency (graph/csr.h) from the current edge log; called
  /// once per snapshot commit, after all edges are resolved. Edges added
  /// later stay invisible to reads until the next call. Returns false
  /// (leaving the graph without adjacency) when some edge endpoint does not
  /// resolve to a stored non-text node. Not thread-safe — part of
  /// construction, before the graph is published.
  bool BuildCsr(const CsrOptions& options = {});
  const Csr* csr() const { return csr_.get(); }

  /// Persistence hooks (src/persist/): writes the edge log with a label
  /// string pool (plus the CSR arrays when built) / reconstructs a graph
  /// over `store` from the log, mapping the CSR section zero-copy —
  /// `image` is retained by the kernels. Every snapshot commits a built
  /// CSR, so an opened image always carries the CSR section; an image
  /// without one, or with an edge endpoint that does not resolve to a
  /// stored non-text node, is a ParseError.
  Status SaveTo(persist::ImageWriter* writer) const;
  static Result<std::unique_ptr<DataGraph>> LoadFrom(
      std::shared_ptr<const persist::MappedImage> image,
      const store::DocumentStore* store);

  /// Length of the shortest path between two nodes traversing parent/child
  /// and non-tree edges, bounded by `max_depth`. nullopt when not connected
  /// within the bound. `max_visits` (0 = unlimited) additionally caps the
  /// nodes a BFS beyond distance 2 may expand: in a collection whose
  /// value-edge mesh puts everything within a few hops of everything, a
  /// depth bound alone still floods the whole store per call (the ROADMAP
  /// hub cliff), so callers scoring many tuples pass a work budget and treat
  /// an exhausted search as "not connected". Distances 1 and 2 are exact
  /// under any budget (Csr::ShortestPathLength).
  ///
  /// Text nodes have no vertex: a text node's one neighbour is its parent
  /// and no row lists a text node, so a text start answers as one step (and
  /// one BFS expansion) to its parent plus the parent's answer, and a text
  /// target is reachable only from itself.
  std::optional<size_t> ShortestPathLength(const store::NodeId& a,
                                           const store::NodeId& b,
                                           size_t max_depth,
                                           size_t max_visits = 0,
                                           GraphStats* stats = nullptr) const;

  /// Shortest path (sequence of nodes, inclusive of endpoints) or empty;
  /// same rules as ShortestPathLength.
  std::vector<store::NodeId> ShortestPath(const store::NodeId& a,
                                          const store::NodeId& b,
                                          size_t max_depth,
                                          size_t max_visits = 0,
                                          GraphStats* stats = nullptr) const;

  /// Size (edge count) of the minimal connected subgraph containing all
  /// `nodes`. For nodes within one document this is the exact Steiner-tree
  /// size in the document tree (computed via the Euler-order identity);
  /// across documents, pairwise shortest paths are added. Returns nullopt if
  /// the tuple cannot be connected within `max_depth` per hop.
  ///
  /// This is the "compactness of the graph representing a tuple of nodes"
  /// that drives the paper's top-k scoring function (§4). Within-document
  /// connections use the closed-form Euler identity (no search); only
  /// cross-document hops run BFS, each bounded by `max_visits` (see
  /// ShortestPathLength).
  std::optional<size_t> ConnectionSize(const std::vector<store::NodeId>& nodes,
                                       size_t max_depth = 12,
                                       size_t max_visits = 0,
                                       GraphStats* stats = nullptr) const;

 private:
  /// id attribute value -> element carrying it (first occurrence wins).
  using IdTargetMap = std::unordered_map<std::string, store::NodeId>;

  size_t ResolveIdRefs(const IdTargetMap& targets, ThreadPool* pool);
  size_t ResolveXLinks(const IdTargetMap& targets, ThreadPool* pool);

  /// A distance query mapped onto CSR vertices. A text start becomes its
  /// parent, with the text step already charged to the bounds and stats.
  struct VertexQuery {
    uint32_t from;
    uint32_t to;
    size_t max_depth;
    size_t max_visits;
    bool text_start;
  };
  /// nullopt when no walk can start: no CSR, a target without a vertex, a
  /// nonexistent start, or a text step that exhausts a bound.
  std::optional<VertexQuery> ToVertices(const store::NodeId& a,
                                        const store::NodeId& b,
                                        size_t max_depth, size_t max_visits,
                                        GraphStats* stats) const;

  const store::DocumentStore* store_;
  /// Insertion-order log of every AddEdge call (see edges()); the CSR's
  /// edge-id rows index into it.
  std::vector<Edge> edges_;
  /// The adjacency (graph/csr.h), built at commit / image load; null on a
  /// hand-assembled graph that never called BuildCsr.
  std::unique_ptr<Csr> csr_;
};

}  // namespace seda::graph

#endif  // SEDA_GRAPH_DATA_GRAPH_H_
