#ifndef SEDA_GRAPH_CSR_H_
#define SEDA_GRAPH_CSR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "graph/data_graph.h"
#include "persist/reader.h"
#include "store/document_store.h"

namespace seda::persist {
class ImageWriter;
}

namespace seda::graph {

using persist::U32View;

/// The data graph's adjacency (ROADMAP "CSR graph kernels" item, following
/// the TriangleCounting playbook): every non-text node gets a dense uint32
/// vertex number in document order, and adjacency — tree edges plus both
/// directions of the non-tree edge log — lives in two CSR layouts:
///
///   offsets/adjacency:               rows in walk order (parent, non-text
///                                    children, out edges, in edges, edges in
///                                    log order, duplicates preserved) — the
///                                    order the frontier BFS expands, which
///                                    fixes its paths and budget accounting;
///   sorted_offsets/sorted_adjacency: rows sorted ascending and deduplicated,
///                                    for O(log d) membership tests and
///                                    linear/galloping intersection.
///
/// Labelled-edge reads go through a third, derived layout: each vertex's
/// edge-id row holds the edge-log indices of the last NonTreeDegreeOf(v)
/// entries of its walk-order row (out edges, then in edges, each in log
/// order), so entry i of EdgeRowBegin(v) is the edge that NonTreeRowBegin(v)[i]
/// is the far end of. The edge-id rows are rebuilt from the edge log by one
/// counting pass at Build and at load; they are not persisted.
///
/// Distance-1/2 queries — the bulk of cross-document ConnectionSize hops, the
/// engine's hottest path — are answered exactly by sorted-row intersection
/// (galloping for skewed degree pairs, a generation-stamped scratch bitmap
/// for hub-against-hub) or by precomputed 2-hop sketches for the hottest hub
/// vertices, with no BFS and no work-budget dependence; deeper queries run an
/// allocation-free budgeted frontier BFS. All query entry points are const
/// and thread-safe (scratch is thread_local).
class Csr {
 public:
  /// Builds the arrays from the store's trees plus the non-tree edge log.
  /// Returns nullptr when some edge endpoint does not resolve to a stored
  /// non-text node (a graph only a hand-crafted test or hostile image
  /// produces).
  static std::unique_ptr<Csr> Build(const store::DocumentStore& store,
                                    const std::vector<Edge>& edges,
                                    const CsrOptions& options = {});

  /// Writes the arrays as the kGraphCsr image section (all-u32 layout, so
  /// every array stays 4-byte aligned for the zero-copy reopen).
  Status SaveTo(persist::ImageWriter* writer) const;

  /// Reconstructs kernels over a mapped image: bulk arrays are borrowed
  /// straight from the mapping (the Csr co-owns `image`), the vertex
  /// numbering (node pointers) and the edge-id rows are rebuilt from the
  /// store and the edge log. Every array is validated against the store and
  /// edge log before any kernel may run, so a hostile image fails with a
  /// clean ParseError.
  static Result<std::unique_ptr<Csr>> LoadFrom(
      std::shared_ptr<const persist::MappedImage> image,
      const store::DocumentStore& store, const std::vector<Edge>& edges);

  uint32_t num_vertices() const { return num_vertices_; }
  uint32_t edge_count() const { return edge_count_; }
  const CsrOptions& options() const { return options_; }

  /// Dense vertex of a node, or nullopt for text/nonexistent nodes. O(log n)
  /// binary search over the document's Dewey-ordered vertex range — vertex
  /// numbering is document order, which is Dewey-lexicographic order.
  std::optional<uint32_t> VertexOf(const store::NodeId& id) const;
  store::NodeId NodeIdOf(uint32_t v) const {
    return store::NodeId{doc_of_[v], node_of_[v]->dewey()};
  }
  const xml::Node* NodeOf(uint32_t v) const { return node_of_[v]; }
  store::DocId DocOf(uint32_t v) const { return doc_of_[v]; }

  // Walk-order rows (duplicates preserved) and sorted, deduplicated rows.
  const uint32_t* RowBegin(uint32_t v) const {
    return adjacency_.data() + offsets_[v];
  }
  const uint32_t* RowEnd(uint32_t v) const {
    return adjacency_.data() + offsets_[v + 1];
  }
  const uint32_t* SortedRowBegin(uint32_t v) const {
    return sorted_adjacency_.data() + sorted_offsets_[v];
  }
  const uint32_t* SortedRowEnd(uint32_t v) const {
    return sorted_adjacency_.data() + sorted_offsets_[v + 1];
  }
  /// Total degree (tree + non-tree, duplicates counted), O(1).
  uint32_t DegreeOf(uint32_t v) const { return offsets_[v + 1] - offsets_[v]; }
  /// Non-tree degree (out + in), O(1) — what the hub caps consult.
  uint32_t NonTreeDegreeOf(uint32_t v) const { return non_tree_degree_[v]; }
  /// Out-edge count of v: the first OutDegreeOf(v) entries of its edge row.
  uint32_t OutDegreeOf(uint32_t v) const { return out_degree_[v]; }
  /// Far-end vertices of v's non-tree edges: the last NonTreeDegreeOf(v)
  /// entries of its walk-order row, aligned with EdgeRowBegin(v).
  const uint32_t* NonTreeRowBegin(uint32_t v) const {
    return RowEnd(v) - non_tree_degree_[v];
  }
  /// Edge-log indices of v's non-tree edges (out, then in, log order).
  const uint32_t* EdgeRowBegin(uint32_t v) const {
    return edge_ids_.data() + edge_offsets_[v];
  }
  const uint32_t* EdgeRowEnd(uint32_t v) const {
    return edge_ids_.data() + edge_offsets_[v + 1];
  }

  size_t SketchCount() const { return sketch_hubs_.size(); }
  uint32_t SketchHub(size_t i) const { return sketch_hubs_[i]; }
  /// Index of v's sketch, or -1. Linear over the (tiny, capped) hub list.
  int SketchIndexOf(uint32_t v) const;
  /// True iff sketch `index` covers `v`, i.e. dist(hub, v) <= 2.
  bool SketchCovers(int index, uint32_t v) const {
    size_t word = static_cast<size_t>(index) * words_per_sketch_ + (v >> 5);
    return (sketch_bits_[word] >> (v & 31u)) & 1u;
  }

  /// Budgeted shortest-path length between two vertices; nullopt when not
  /// connected within `max_depth` or when the BFS exhausts `max_visits`
  /// (0 = unlimited). Distances 1 and 2 are answered exactly by
  /// intersection/sketch first — those answers are budget- and
  /// depth-order-independent, which is what turns `max_connect_visits` into
  /// a pure optimization threshold for the dominant 1-hub-hop tuples. Deeper
  /// queries run the frontier BFS, which counts visits the way a queue-based
  /// BFS does: depth test, then budget test, then expand; found when the
  /// target is *added*.
  std::optional<size_t> ShortestPathLength(uint32_t va, uint32_t vb,
                                           size_t max_depth, size_t max_visits,
                                           GraphStats* stats) const;

  /// Shortest vertex path inclusive of endpoints, empty when not connected;
  /// the witness of a distance-2 fast-path answer is the parent the
  /// frontier BFS would have recorded.
  std::vector<uint32_t> ShortestPath(uint32_t va, uint32_t vb,
                                     size_t max_depth, size_t max_visits,
                                     GraphStats* stats) const;

 private:
  Csr() = default;

  void Number(const store::DocumentStore& store);
  bool BuildAdjacency(const store::DocumentStore& store,
                      const std::vector<Edge>& edges);
  /// Counting pass over the resolved edge endpoints: fills edge_offsets_,
  /// edge_ids_ and out_degree_.
  void BuildEdgeRows(const std::vector<uint32_t>& efrom,
                     const std::vector<uint32_t>& eto);
  void BuildSorted();
  void BuildSketches();
  Status Validate(const std::vector<Edge>& edges) const;

  /// True iff dist(va, vb) == 1 (sorted-row membership on the smaller row).
  bool Adjacent(uint32_t va, uint32_t vb, GraphStats* stats) const;
  /// True iff the sorted rows of va and vb intersect (some common neighbor,
  /// i.e. dist <= 2 given non-adjacency).
  bool RowsIntersect(uint32_t va, uint32_t vb, GraphStats* stats) const;
  /// Exact dist<=2 test: a hub sketch at either endpoint, else intersection.
  bool WithinTwo(uint32_t va, uint32_t vb, GraphStats* stats) const;
  /// First walk-order neighbor w of va with vb in w's sorted row — the
  /// parent the frontier BFS would have recorded for vb on a distance-2 path.
  std::optional<uint32_t> DistanceTwoWitness(uint32_t va, uint32_t vb,
                                             GraphStats* stats) const;

  CsrOptions options_;
  uint32_t num_vertices_ = 0;
  uint32_t edge_count_ = 0;
  uint32_t words_per_sketch_ = 0;

  /// Vertex -> node mapping, rebuilt from the store on every load (node
  /// pointers cannot be persisted); doc_base_[d] .. doc_base_[d+1] is the
  /// contiguous vertex range of document d.
  std::vector<const xml::Node*> node_of_;
  std::vector<store::DocId> doc_of_;
  std::vector<uint32_t> doc_base_;

  U32View offsets_;           ///< V+1
  U32View adjacency_;         ///< walk order
  U32View sorted_offsets_;    ///< V+1
  U32View sorted_adjacency_;  ///< ascending, deduplicated
  U32View non_tree_degree_;   ///< V
  std::vector<uint32_t> sketch_hubs_;
  U32View sketch_bits_;  ///< SketchCount() * words_per_sketch_ bitmap words

  /// Derived from the edge log, never persisted.
  std::vector<uint32_t> edge_offsets_;  ///< V+1
  std::vector<uint32_t> edge_ids_;      ///< 2E edge-log indices
  std::vector<uint32_t> out_degree_;    ///< V

  /// Pins the mapping the borrowed views point into (zero-copy reopen).
  std::shared_ptr<const persist::MappedImage> image_;
};

}  // namespace seda::graph

#endif  // SEDA_GRAPH_CSR_H_
