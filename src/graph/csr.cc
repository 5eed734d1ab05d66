#include "graph/csr.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "persist/reader.h"
#include "persist/writer.h"

namespace seda::graph {

namespace {

/// Degree-skew ratio above which intersection gallops (binary-searches the
/// long row per short-row element) instead of merging linearly.
constexpr size_t kGallopSkewRatio = 16;
/// Minimum smaller-row degree for the stamp-bitmap intersection: below this a
/// linear merge wins on cache behaviour; above it (hub against hub) marking
/// one row in the per-thread stamp array and probing the other avoids the
/// merge's branch misses.
constexpr size_t kBitmapMinDegree = 256;

/// Per-thread BFS/intersection scratch: generation-stamped arrays sized to
/// the graph, so repeated kernel calls allocate nothing. `owner`
/// distinguishes graphs (epochs) sharing a thread.
struct Scratch {
  const void* owner = nullptr;
  uint32_t generation = 0;
  std::vector<uint32_t> visited_gen;  ///< visited iff == generation
  std::vector<uint32_t> parent;
  std::vector<std::pair<uint32_t, uint32_t>> frontier;  ///< (vertex, depth)
};

Scratch& AcquireScratch(const void* owner, uint32_t num_vertices) {
  thread_local Scratch scratch;
  Scratch& s = scratch;
  if (s.owner != owner || s.visited_gen.size() != num_vertices) {
    s.owner = owner;
    s.visited_gen.assign(num_vertices, 0);
    s.parent.assign(num_vertices, 0);
    s.generation = 0;
  }
  if (++s.generation == 0) {  // generation wrapped: stamps are ambiguous
    std::fill(s.visited_gen.begin(), s.visited_gen.end(), 0);
    s.generation = 1;
  }
  s.frontier.clear();
  return s;
}

/// Binary search for `x` in the sorted run [begin, end), counting probes.
bool SortedContains(const uint32_t* begin, const uint32_t* end, uint32_t x,
                    GraphStats* stats) {
  size_t lo = 0;
  size_t hi = static_cast<size_t>(end - begin);
  uint64_t probes = 0;
  bool found = false;
  while (lo < hi) {
    ++probes;
    size_t mid = lo + (hi - lo) / 2;
    if (begin[mid] == x) {
      found = true;
      break;
    }
    if (begin[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (stats != nullptr) stats->intersection_probes += probes;
  return found;
}

}  // namespace

std::unique_ptr<Csr> Csr::Build(const store::DocumentStore& store,
                                const std::vector<Edge>& edges,
                                const CsrOptions& options) {
  std::unique_ptr<Csr> csr(new Csr());
  csr->options_ = options;
  csr->edge_count_ = static_cast<uint32_t>(edges.size());
  csr->Number(store);
  if (!csr->BuildAdjacency(store, edges)) return nullptr;
  csr->BuildSorted();
  csr->BuildSketches();
  return csr;
}

void Csr::Number(const store::DocumentStore& store) {
  node_of_.clear();
  doc_of_.clear();
  node_of_.reserve(static_cast<size_t>(store.TotalNodeCount()));
  doc_base_.assign(store.DocumentCount() + 1, 0);
  for (store::DocId d = 0; d < store.DocumentCount(); ++d) {
    doc_base_[d] = static_cast<uint32_t>(node_of_.size());
    store.document(d).ForEachNode([&](xml::Node* node) {
      if (node->kind() == xml::NodeKind::kText) return;
      node_of_.push_back(node);
      doc_of_.push_back(d);
    });
  }
  doc_base_[store.DocumentCount()] = static_cast<uint32_t>(node_of_.size());
  num_vertices_ = static_cast<uint32_t>(node_of_.size());
  words_per_sketch_ = (num_vertices_ + 31u) / 32u;
}

std::optional<uint32_t> Csr::VertexOf(const store::NodeId& id) const {
  // No `id.doc + 1`: a doc id of UINT32_MAX (an image edge endpoint, say)
  // would wrap it to 0.
  if (id.doc >= doc_base_.size() - 1) return std::nullopt;
  // Vertices of one document are in preorder, which for Dewey IDs is
  // lexicographic order — so the node is findable by binary search without
  // any NodeId hash map.
  const uint32_t lo = doc_base_[id.doc];
  const uint32_t hi = doc_base_[id.doc + 1];
  auto begin = node_of_.begin() + lo;
  auto end = node_of_.begin() + hi;
  auto it = std::lower_bound(
      begin, end, id.dewey,
      [](const xml::Node* n, const xml::DeweyId& d) { return n->dewey() < d; });
  if (it == end || !((*it)->dewey() == id.dewey)) return std::nullopt;
  return lo + static_cast<uint32_t>(it - begin);
}

bool Csr::BuildAdjacency(const store::DocumentStore& store,
                         const std::vector<Edge>& edges) {
  const uint32_t v_count = num_vertices_;
  // Node pointer -> vertex, for O(1) parent/child resolution during the fill.
  std::unordered_map<const xml::Node*, uint32_t> vertex_of_node;
  vertex_of_node.reserve(v_count);
  for (uint32_t v = 0; v < v_count; ++v) vertex_of_node.emplace(node_of_[v], v);

  std::vector<uint32_t> efrom(edges.size());
  std::vector<uint32_t> eto(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    xml::Node* from = store.GetNode(edges[e].from);
    xml::Node* to = store.GetNode(edges[e].to);
    if (from == nullptr || to == nullptr) return false;
    auto fit = vertex_of_node.find(from);
    auto tit = vertex_of_node.find(to);
    if (fit == vertex_of_node.end() || tit == vertex_of_node.end()) {
      return false;  // endpoint is a text node: it has no vertex
    }
    efrom[e] = fit->second;
    eto[e] = tit->second;
  }
  BuildEdgeRows(efrom, eto);

  // Per-vertex degrees: tree (parent + non-text children) + out + in.
  std::vector<uint32_t> non_tree(v_count);
  std::vector<uint32_t> offsets(v_count + 1, 0);
  for (uint32_t v = 0; v < v_count; ++v) {
    const xml::Node* n = node_of_[v];
    uint32_t tree = n->parent() != nullptr ? 1 : 0;
    for (const auto& child : n->children()) {
      if (child->kind() != xml::NodeKind::kText) ++tree;
    }
    non_tree[v] = edge_offsets_[v + 1] - edge_offsets_[v];
    offsets[v + 1] = offsets[v] + tree + non_tree[v];
  }
  std::vector<uint32_t> adjacency(offsets[v_count]);

  // Row layout [tree][out][in]: the tree part in walk order, then the far
  // ends of the vertex's edge-id row, so each region holds its edges in log
  // order (duplicates and self-loop double entries included).
  for (uint32_t v = 0; v < v_count; ++v) {
    uint32_t cursor = offsets[v];
    const xml::Node* n = node_of_[v];
    if (n->parent() != nullptr) {
      adjacency[cursor++] = vertex_of_node.at(n->parent());
    }
    for (const auto& child : n->children()) {
      if (child->kind() == xml::NodeKind::kText) continue;
      adjacency[cursor++] = vertex_of_node.at(child.get());
    }
    for (uint32_t i = edge_offsets_[v]; i < edge_offsets_[v + 1]; ++i) {
      const uint32_t e = edge_ids_[i];
      const bool out = i - edge_offsets_[v] < out_degree_[v];
      adjacency[cursor++] = out ? eto[e] : efrom[e];
    }
  }

  offsets_.Own(std::move(offsets));
  adjacency_.Own(std::move(adjacency));
  non_tree_degree_.Own(std::move(non_tree));
  return true;
}

void Csr::BuildEdgeRows(const std::vector<uint32_t>& efrom,
                        const std::vector<uint32_t>& eto) {
  const uint32_t v_count = num_vertices_;
  out_degree_.assign(v_count, 0);
  std::vector<uint32_t> in_degree(v_count, 0);
  for (size_t e = 0; e < efrom.size(); ++e) {
    ++out_degree_[efrom[e]];
    ++in_degree[eto[e]];
  }
  edge_offsets_.assign(v_count + 1, 0);
  std::vector<uint32_t> out_cursor(v_count);
  std::vector<uint32_t> in_cursor(v_count);
  for (uint32_t v = 0; v < v_count; ++v) {
    out_cursor[v] = edge_offsets_[v];
    in_cursor[v] = edge_offsets_[v] + out_degree_[v];
    edge_offsets_[v + 1] = in_cursor[v] + in_degree[v];
  }
  edge_ids_.assign(edge_offsets_[v_count], 0);
  for (size_t e = 0; e < efrom.size(); ++e) {
    edge_ids_[out_cursor[efrom[e]]++] = static_cast<uint32_t>(e);
    edge_ids_[in_cursor[eto[e]]++] = static_cast<uint32_t>(e);
  }
}

void Csr::BuildSorted() {
  const uint32_t v_count = num_vertices_;
  std::vector<uint32_t> sorted_offsets(v_count + 1, 0);
  std::vector<uint32_t> sorted_adjacency;
  sorted_adjacency.reserve(adjacency_.size());
  std::vector<uint32_t> row;
  for (uint32_t v = 0; v < v_count; ++v) {
    row.assign(RowBegin(v), RowEnd(v));
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    sorted_adjacency.insert(sorted_adjacency.end(), row.begin(), row.end());
    sorted_offsets[v + 1] = static_cast<uint32_t>(sorted_adjacency.size());
  }
  sorted_offsets_.Own(std::move(sorted_offsets));
  sorted_adjacency_.Own(std::move(sorted_adjacency));
}

void Csr::BuildSketches() {
  sketch_hubs_.clear();
  if (options_.sketch_max_count == 0 || options_.sketch_min_degree == 0 ||
      num_vertices_ == 0) {
    sketch_bits_.Own({});
    return;
  }
  // Candidates: non-tree degree at or above the threshold; keep the highest
  // degrees, ties to the lower vertex (deterministic across builds).
  std::vector<std::pair<uint32_t, uint32_t>> candidates;  // (degree, vertex)
  for (uint32_t v = 0; v < num_vertices_; ++v) {
    if (non_tree_degree_[v] >= options_.sketch_min_degree) {
      candidates.emplace_back(non_tree_degree_[v], v);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (candidates.size() > options_.sketch_max_count) {
    candidates.resize(options_.sketch_max_count);
  }
  sketch_hubs_.reserve(candidates.size());
  for (const auto& [deg, v] : candidates) sketch_hubs_.push_back(v);

  // One full-width bitmap per hub: every vertex within distance 2. Exact by
  // construction — an unbudgeted depth-2 BFS over the arrays.
  std::vector<uint32_t> bits(sketch_hubs_.size() * words_per_sketch_, 0);
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next;
  for (size_t i = 0; i < sketch_hubs_.size(); ++i) {
    uint32_t* words = bits.data() + i * words_per_sketch_;
    auto mark = [&](uint32_t v) -> bool {  // true if newly marked
      uint32_t& word = words[v >> 5];
      uint32_t bit = 1u << (v & 31u);
      if ((word & bit) != 0) return false;
      word |= bit;
      return true;
    };
    frontier.assign(1, sketch_hubs_[i]);
    mark(sketch_hubs_[i]);
    for (int depth = 0; depth < 2; ++depth) {
      next.clear();
      for (uint32_t v : frontier) {
        for (const uint32_t* it = RowBegin(v); it != RowEnd(v); ++it) {
          if (mark(*it)) next.push_back(*it);
        }
      }
      frontier.swap(next);
    }
  }
  sketch_bits_.Own(std::move(bits));
}

int Csr::SketchIndexOf(uint32_t v) const {
  for (size_t i = 0; i < sketch_hubs_.size(); ++i) {
    if (sketch_hubs_[i] == v) return static_cast<int>(i);
  }
  return -1;
}

bool Csr::Adjacent(uint32_t va, uint32_t vb, GraphStats* stats) const {
  // Search the smaller row for the other endpoint.
  uint32_t da = sorted_offsets_[va + 1] - sorted_offsets_[va];
  uint32_t db = sorted_offsets_[vb + 1] - sorted_offsets_[vb];
  if (db < da) {
    std::swap(va, vb);
  }
  return SortedContains(SortedRowBegin(va), SortedRowEnd(va), vb, stats);
}

bool Csr::RowsIntersect(uint32_t va, uint32_t vb, GraphStats* stats) const {
  const uint32_t* a = SortedRowBegin(va);
  const uint32_t* a_end = SortedRowEnd(va);
  const uint32_t* b = SortedRowBegin(vb);
  const uint32_t* b_end = SortedRowEnd(vb);
  size_t da = static_cast<size_t>(a_end - a);
  size_t db = static_cast<size_t>(b_end - b);
  if (da > db) {
    std::swap(a, b);
    std::swap(a_end, b_end);
    std::swap(da, db);
  }
  if (da == 0) return false;
  uint64_t probes = 0;
  bool found = false;
  if (db / da >= kGallopSkewRatio) {
    // Galloping: binary-search the long row per short-row element, advancing
    // the search base (both rows ascend).
    const uint32_t* lo = b;
    for (const uint32_t* it = a; it != a_end && !found; ++it) {
      size_t left = 0;
      size_t right = static_cast<size_t>(b_end - lo);
      while (left < right) {
        ++probes;
        size_t mid = left + (right - left) / 2;
        if (lo[mid] < *it) {
          left = mid + 1;
        } else {
          right = mid;
        }
      }
      lo += left;
      if (lo != b_end && *lo == *it) found = true;
    }
  } else if (da >= kBitmapMinDegree) {
    // Hub against hub: stamp the smaller row into the per-thread scratch
    // (the reusable bitmap), probe with the larger — no merge branches.
    Scratch& s = AcquireScratch(this, num_vertices_);
    for (const uint32_t* it = a; it != a_end; ++it) {
      s.visited_gen[*it] = s.generation;
      ++probes;
    }
    for (const uint32_t* it = b; it != b_end && !found; ++it) {
      ++probes;
      if (s.visited_gen[*it] == s.generation) found = true;
    }
  } else {
    // Comparable small degrees: plain linear merge.
    while (a != a_end && b != b_end) {
      ++probes;
      if (*a == *b) {
        found = true;
        break;
      }
      if (*a < *b) {
        ++a;
      } else {
        ++b;
      }
    }
  }
  if (stats != nullptr) stats->intersection_probes += probes;
  return found;
}

bool Csr::WithinTwo(uint32_t va, uint32_t vb, GraphStats* stats) const {
  // A sketch at either endpoint answers dist<=2 for the pair exactly, in one
  // bit test — this is what lets hub-mediated tuples score without touching
  // the hub's (huge) row at all.
  int si = SketchIndexOf(va);
  if (si >= 0) {
    if (stats != nullptr) ++stats->sketch_hits;
    return SketchCovers(si, vb);
  }
  si = SketchIndexOf(vb);
  if (si >= 0) {
    if (stats != nullptr) ++stats->sketch_hits;
    return SketchCovers(si, va);
  }
  return RowsIntersect(va, vb, stats);
}

std::optional<size_t> Csr::ShortestPathLength(uint32_t va, uint32_t vb,
                                              size_t max_depth,
                                              size_t max_visits,
                                              GraphStats* stats) const {
  if (va == vb) return 0;
  if (max_depth == 0) return std::nullopt;
  // Distances 1 and 2 are answered exactly, independent of max_visits.
  if (Adjacent(va, vb, stats)) return 1;
  if (max_depth == 1) return std::nullopt;
  if (WithinTwo(va, vb, stats)) return 2;
  if (max_depth == 2) return std::nullopt;

  // Budgeted frontier BFS over the walk-order rows (depth test, then budget
  // test, then expand; found when the target is *added*).
  std::optional<size_t> result;
  Scratch& s = AcquireScratch(this, num_vertices_);
  s.frontier.emplace_back(va, 0);
  s.visited_gen[va] = s.generation;
  size_t visited = 1;
  size_t head = 0;
  while (head < s.frontier.size()) {
    auto [v, depth] = s.frontier[head++];
    if (depth >= max_depth) continue;
    if (max_visits > 0 && visited >= max_visits) break;
    if (stats != nullptr) ++stats->bfs_expansions;
    for (const uint32_t* it = RowBegin(v); it != RowEnd(v); ++it) {
      uint32_t u = *it;
      if (s.visited_gen[u] == s.generation) continue;
      s.visited_gen[u] = s.generation;
      ++visited;
      if (u == vb) {
        result = depth + 1;
        break;
      }
      s.frontier.emplace_back(u, depth + 1);
    }
    if (result.has_value()) break;
  }
  return result;
}

std::optional<uint32_t> Csr::DistanceTwoWitness(uint32_t va, uint32_t vb,
                                                GraphStats* stats) const {
  // The frontier BFS records as vb's parent the first distinct neighbor w of
  // va (in walk order) adjacent to vb: every depth-1 vertex is enqueued
  // before any is expanded, in first-occurrence row order.
  Scratch& s = AcquireScratch(this, num_vertices_);
  s.visited_gen[va] = s.generation;
  for (const uint32_t* it = RowBegin(va); it != RowEnd(va); ++it) {
    uint32_t w = *it;
    if (s.visited_gen[w] == s.generation) continue;
    s.visited_gen[w] = s.generation;
    if (SortedContains(SortedRowBegin(w), SortedRowEnd(w), vb, stats)) {
      return w;
    }
  }
  return std::nullopt;
}

std::vector<uint32_t> Csr::ShortestPath(uint32_t va, uint32_t vb,
                                        size_t max_depth, size_t max_visits,
                                        GraphStats* stats) const {
  if (va == vb) return {va};
  if (max_depth == 0) return {};
  if (Adjacent(va, vb, stats)) return {va, vb};
  if (max_depth == 1) return {};
  if (WithinTwo(va, vb, stats)) {
    auto witness = DistanceTwoWitness(va, vb, stats);
    SEDA_DCHECK(witness.has_value())
        << "distance-2 positive without a common neighbor";
    if (witness.has_value()) return {va, *witness, vb};
    return {};  // unreachable; keeps a release build safe
  }
  if (max_depth == 2) return {};

  Scratch& s = AcquireScratch(this, num_vertices_);
  s.frontier.emplace_back(va, 0);
  s.visited_gen[va] = s.generation;
  s.parent[va] = va;
  size_t visited = 1;
  size_t head = 0;
  bool found = false;
  while (head < s.frontier.size() && !found) {
    auto [v, depth] = s.frontier[head++];
    if (depth >= max_depth) continue;
    if (max_visits > 0 && visited >= max_visits) break;
    if (stats != nullptr) ++stats->bfs_expansions;
    for (const uint32_t* it = RowBegin(v); it != RowEnd(v); ++it) {
      uint32_t u = *it;
      if (s.visited_gen[u] == s.generation) continue;
      s.visited_gen[u] = s.generation;
      s.parent[u] = v;
      ++visited;
      if (u == vb) {
        found = true;
        break;
      }
      s.frontier.emplace_back(u, depth + 1);
    }
  }
  if (!found) return {};
  std::vector<uint32_t> path{vb};
  while (path.back() != va) path.push_back(s.parent[path.back()]);
  std::reverse(path.begin(), path.end());
  return path;
}

Status Csr::SaveTo(persist::ImageWriter* writer) const {
  writer->BeginSection(persist::SectionId::kGraphCsr);
  // All fields are u32 (or u32-count-prefixed flat u32 arrays), keeping
  // every array 4-byte aligned within the 64-byte-aligned section — the
  // reader hands out zero-copy spans.
  writer->PutU32(num_vertices_);
  writer->PutU32(edge_count_);
  writer->PutU32(options_.sketch_min_degree);
  writer->PutU32(options_.sketch_max_count);
  writer->PutU32Span(offsets_.data(), offsets_.size());
  writer->PutU32Span(adjacency_.data(), adjacency_.size());
  writer->PutU32Span(sorted_offsets_.data(), sorted_offsets_.size());
  writer->PutU32Span(sorted_adjacency_.data(), sorted_adjacency_.size());
  writer->PutU32Span(non_tree_degree_.data(), non_tree_degree_.size());
  writer->PutU32Span(sketch_hubs_.data(), sketch_hubs_.size());
  writer->PutU32Span(sketch_bits_.data(), sketch_bits_.size());
  return writer->EndSection();
}

Result<std::unique_ptr<Csr>> Csr::LoadFrom(
    std::shared_ptr<const persist::MappedImage> image,
    const store::DocumentStore& store, const std::vector<Edge>& edges) {
  SEDA_ASSIGN_OR_RETURN(
      persist::SectionCursor cursor,
      persist::OpenSection(*image, persist::SectionId::kGraphCsr));
  std::unique_ptr<Csr> csr(new Csr());
  csr->Number(store);
  uint32_t num_vertices = cursor.GetU32();
  csr->edge_count_ = cursor.GetU32();
  csr->options_.sketch_min_degree = cursor.GetU32();
  csr->options_.sketch_max_count = cursor.GetU32();
  auto [offsets, offsets_n] = cursor.GetU32Span();
  csr->offsets_.Borrow(offsets, offsets_n);
  auto [adjacency, adjacency_n] = cursor.GetU32Span();
  csr->adjacency_.Borrow(adjacency, adjacency_n);
  auto [sorted_offsets, sorted_offsets_n] = cursor.GetU32Span();
  csr->sorted_offsets_.Borrow(sorted_offsets, sorted_offsets_n);
  auto [sorted_adjacency, sorted_adjacency_n] = cursor.GetU32Span();
  csr->sorted_adjacency_.Borrow(sorted_adjacency, sorted_adjacency_n);
  auto [non_tree, non_tree_n] = cursor.GetU32Span();
  csr->non_tree_degree_.Borrow(non_tree, non_tree_n);
  auto [hubs, hubs_n] = cursor.GetU32Span();
  csr->sketch_hubs_.assign(hubs, hubs + hubs_n);
  auto [bits, bits_n] = cursor.GetU32Span();
  csr->sketch_bits_.Borrow(bits, bits_n);
  SEDA_RETURN_IF_ERROR(cursor.status());
  if (num_vertices != csr->num_vertices_) {
    return Status::ParseError("image csr section disagrees with the store");
  }
  SEDA_RETURN_IF_ERROR(csr->Validate(edges));

  // Derive the edge-id rows from the log. Every endpoint must resolve to a
  // vertex, and the per-vertex out+in counts must equal the section's
  // non-tree degrees and fit inside each walk-order row.
  std::vector<uint32_t> efrom(edges.size());
  std::vector<uint32_t> eto(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    auto from = csr->VertexOf(edges[e].from);
    auto to = csr->VertexOf(edges[e].to);
    if (!from.has_value() || !to.has_value()) {
      return Status::ParseError(
          "image graph edge endpoint does not resolve to a stored node");
    }
    efrom[e] = *from;
    eto[e] = *to;
  }
  csr->BuildEdgeRows(efrom, eto);
  for (uint32_t v = 0; v < csr->num_vertices_; ++v) {
    const uint32_t degree = csr->edge_offsets_[v + 1] - csr->edge_offsets_[v];
    if (degree != csr->non_tree_degree_[v] || degree > csr->DegreeOf(v)) {
      return Status::ParseError(
          "image csr section malformed: non-tree degree disagrees with the "
          "edge log");
    }
  }
  csr->image_ = std::move(image);
  return csr;
}

Status Csr::Validate(const std::vector<Edge>& edges) const {
  // Structural validation before any kernel may run: a hostile image must
  // fail with a clean error, never index out of bounds. The per-entry
  // content equivalence with the store and edge log is the auditor's job
  // (graph.csr_offsets / graph.csr_symmetry); here we prove memory safety
  // and the counts.
  auto malformed = [](const char* what) {
    return Status::ParseError(std::string("image csr section malformed: ") +
                              what);
  };
  if (edge_count_ != edges.size()) return malformed("edge count");
  const size_t v_count = num_vertices_;
  if (offsets_.size() != v_count + 1 || sorted_offsets_.size() != v_count + 1 ||
      non_tree_degree_.size() != v_count) {
    return malformed("array sizes");
  }
  if (offsets_[0] != 0 || sorted_offsets_[0] != 0 ||
      offsets_[v_count] != adjacency_.size() ||
      sorted_offsets_[v_count] != sorted_adjacency_.size()) {
    return malformed("offset bounds");
  }
  for (size_t v = 0; v < v_count; ++v) {
    if (offsets_[v] > offsets_[v + 1] ||
        sorted_offsets_[v] > sorted_offsets_[v + 1]) {
      return malformed("offsets not monotone");
    }
  }
  for (uint32_t u : adjacency_) {
    if (u >= v_count) return malformed("adjacency out of range");
  }
  for (size_t v = 0; v < v_count; ++v) {
    const uint32_t* begin = SortedRowBegin(v);
    const uint32_t* end = SortedRowEnd(v);
    for (const uint32_t* it = begin; it != end; ++it) {
      if (*it >= v_count) return malformed("sorted adjacency out of range");
      if (it != begin && *(it - 1) >= *it) {
        return malformed("sorted row not strictly ascending");
      }
    }
  }
  if (sketch_hubs_.size() > options_.sketch_max_count ||
      sketch_bits_.size() !=
          sketch_hubs_.size() * static_cast<size_t>(words_per_sketch_)) {
    return malformed("sketch sizes");
  }
  for (uint32_t hub : sketch_hubs_) {
    if (hub >= v_count) return malformed("sketch hub out of range");
  }
  return Status::OK();
}

}  // namespace seda::graph
