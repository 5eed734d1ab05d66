#include "graph/data_graph.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "graph/csr.h"
#include "persist/reader.h"
#include "persist/writer.h"

namespace seda::graph {

namespace {

/// Runs a per-document scan over the whole store, fanning documents out over
/// `pool`. Each document fills its own Shard (in node visit order); the
/// returned vector is indexed by DocId, so callers can merge shards in
/// document order and stay byte-identical to a sequential scan.
template <typename Shard, typename ScanFn>
std::vector<Shard> ScanDocuments(const store::DocumentStore& store,
                                 ThreadPool* pool, const ScanFn& scan) {
  std::vector<Shard> shards(store.DocumentCount());
  RunParallel(pool, store.DocumentCount(), [&](size_t d) {
    store::DocId doc = static_cast<store::DocId>(d);
    store.document(doc).ForEachNode([&](xml::Node* node) {
      scan(&shards[d], store::NodeId{doc, node->dewey()}, node);
    });
  });
  return shards;
}

/// Collects id -> NodeId for all elements carrying an "id" attribute. The
/// first occurrence in document order wins, matching the sequential scan.
std::unordered_map<std::string, store::NodeId> CollectIdTargets(
    const store::DocumentStore& store, ThreadPool* pool) {
  using IdShard = std::vector<std::pair<std::string, store::NodeId>>;
  std::vector<IdShard> shards = ScanDocuments<IdShard>(
      store, pool,
      [](IdShard* shard, const store::NodeId& id, xml::Node* node) {
        if (node->kind() != xml::NodeKind::kElement) return;
        for (const auto& child : node->children()) {
          if (child->kind() == xml::NodeKind::kAttribute &&
              ToLower(child->name()) == "id") {
            shard->emplace_back(child->text(), id);
          }
        }
      });
  std::unordered_map<std::string, store::NodeId> targets;
  for (const IdShard& shard : shards) {
    for (const auto& [value, id] : shard) targets.emplace(value, id);
  }
  return targets;
}

store::NodeId ParentOf(const store::NodeId& id) {
  return store::NodeId{id.doc, id.dewey.Parent()};
}

}  // namespace

const char* EdgeTypeName(EdgeType type) {
  switch (type) {
    case EdgeType::kParentChild:
      return "parent-child";
    case EdgeType::kIdRef:
      return "idref";
    case EdgeType::kXLink:
      return "xlink";
    case EdgeType::kValueBased:
      return "value-based";
  }
  return "unknown";
}

DataGraph::DataGraph(const store::DocumentStore* store) : store_(store) {}

DataGraph::~DataGraph() = default;

bool DataGraph::BuildCsr(const CsrOptions& options) {
  csr_ = Csr::Build(*store_, edges_, options);
  return csr_ != nullptr;
}

void DataGraph::AddEdge(const store::NodeId& from, const store::NodeId& to,
                        EdgeType type, const std::string& label) {
  edges_.push_back(Edge{from, to, type, label});
}

Status DataGraph::SaveTo(persist::ImageWriter* writer) const {
  writer->BeginSection(persist::SectionId::kGraphEdges);

  // Labels repeat heavily (one per relationship name), so pool them.
  std::unordered_map<std::string, uint32_t> label_ids;
  std::vector<const std::string*> labels;
  for (const Edge& edge : edges_) {
    auto [it, inserted] =
        label_ids.emplace(edge.label, static_cast<uint32_t>(labels.size()));
    if (inserted) labels.push_back(&it->first);
  }
  writer->PutU32(static_cast<uint32_t>(labels.size()));
  for (const std::string* label : labels) writer->PutString(*label);

  writer->PutU64(edges_.size());
  for (const Edge& edge : edges_) {
    writer->PutU32(edge.from.doc);
    writer->PutU32Array(edge.from.dewey.components());
    writer->PutU32(edge.to.doc);
    writer->PutU32Array(edge.to.dewey.components());
    writer->PutU8(static_cast<uint8_t>(edge.type));
    writer->PutU32(label_ids[edge.label]);
  }
  SEDA_RETURN_IF_ERROR(writer->EndSection());
  // The CSR arrays ride along as their own (optional) section, mapped
  // zero-copy on reopen; readers of images without it rebuild from the log.
  if (csr_ != nullptr) {
    SEDA_RETURN_IF_ERROR(csr_->SaveTo(writer));
  }
  return Status::OK();
}

Result<std::unique_ptr<DataGraph>> DataGraph::LoadFrom(
    std::shared_ptr<const persist::MappedImage> image,
    const store::DocumentStore* store) {
  SEDA_ASSIGN_OR_RETURN(
      persist::SectionCursor cursor,
      persist::OpenSection(*image, persist::SectionId::kGraphEdges));
  auto graph = std::make_unique<DataGraph>(store);

  uint32_t label_count = cursor.GetU32();
  std::vector<std::string> labels;
  labels.reserve(cursor.BoundedCount(label_count, 4));
  for (uint32_t i = 0; i < label_count && !cursor.failed(); ++i) {
    labels.push_back(cursor.GetString());
  }

  uint64_t edge_count = cursor.GetU64();
  graph->edges_.reserve(cursor.BoundedCount(edge_count, 21));
  for (uint64_t i = 0; i < edge_count && !cursor.failed(); ++i) {
    store::NodeId from{cursor.GetU32(), xml::DeweyId(cursor.GetU32Array())};
    store::NodeId to{cursor.GetU32(), xml::DeweyId(cursor.GetU32Array())};
    uint8_t type = cursor.GetU8();
    uint32_t label = cursor.GetU32();
    if (type > static_cast<uint8_t>(EdgeType::kValueBased) ||
        label >= labels.size()) {
      return Status::ParseError("image graph edge record malformed");
    }
    graph->edges_.push_back(
        Edge{std::move(from), std::move(to), static_cast<EdgeType>(type),
             labels[label]});
  }
  SEDA_RETURN_IF_ERROR(cursor.status());
  if (!image->HasSection(persist::SectionId::kGraphCsr)) {
    return Status::ParseError("image has no graph CSR section");
  }
  SEDA_ASSIGN_OR_RETURN(graph->csr_,
                        Csr::LoadFrom(image, *store, graph->edges_));
  return graph;
}

size_t DataGraph::ResolveLinks(bool idrefs, bool xlinks, ThreadPool* pool) {
  if (!idrefs && !xlinks) return 0;
  auto targets = CollectIdTargets(*store_, pool);
  size_t added = 0;
  if (idrefs) added += ResolveIdRefs(targets, pool);
  if (xlinks) added += ResolveXLinks(targets, pool);
  return added;
}

size_t DataGraph::ResolveIdRefs(ThreadPool* pool) {
  return ResolveIdRefs(CollectIdTargets(*store_, pool), pool);
}

size_t DataGraph::ResolveIdRefs(const IdTargetMap& targets, ThreadPool* pool) {
  // Parallel stage: collect (owner, ref) candidates per document.
  struct RefCandidate {
    store::NodeId owner;
    std::string ref;
    std::string label;
  };
  using RefShard = std::vector<RefCandidate>;
  std::vector<RefShard> shards = ScanDocuments<RefShard>(
      *store_, pool,
      [this](RefShard* shard, const store::NodeId& id, xml::Node* node) {
        if (node->kind() != xml::NodeKind::kAttribute) return;
        std::string attr = ToLower(node->name());
        if (attr != "idref" && attr != "idrefs") return;
        store::NodeId owner = ParentOf(id);
        // The relationship label is the attribute's element name, matching
        // the labeled dashed edges of the paper's Figure 1.
        xml::Node* owner_node = store_->GetNode(owner);
        std::string label = owner_node != nullptr ? owner_node->name() : "idref";
        for (const std::string& ref : SplitSkipEmpty(node->text(), ' ')) {
          shard->push_back({owner, ref, label});
        }
      });
  // Sequential stage: commit edges in document order.
  size_t added = 0;
  for (const RefShard& shard : shards) {
    for (const RefCandidate& candidate : shard) {
      auto it = targets.find(candidate.ref);
      if (it == targets.end()) continue;  // dangling IDREF: tolerated
      AddEdge(candidate.owner, it->second, EdgeType::kIdRef, candidate.label);
      ++added;
    }
  }
  return added;
}

size_t DataGraph::ResolveXLinks(ThreadPool* pool) {
  return ResolveXLinks(CollectIdTargets(*store_, pool), pool);
}

size_t DataGraph::ResolveXLinks(const IdTargetMap& targets, ThreadPool* pool) {
  struct LinkCandidate {
    store::NodeId owner;
    std::string fragment;
    std::string label;
  };
  using LinkShard = std::vector<LinkCandidate>;
  std::vector<LinkShard> shards = ScanDocuments<LinkShard>(
      *store_, pool,
      [this](LinkShard* shard, const store::NodeId& id, xml::Node* node) {
        if (node->kind() != xml::NodeKind::kAttribute) return;
        std::string attr = ToLower(node->name());
        if (attr != "xlink:href" && attr != "href") return;
        const std::string& value = node->text();
        size_t hash_pos = value.find('#');
        if (hash_pos == std::string::npos) return;
        store::NodeId owner = ParentOf(id);
        xml::Node* owner_node = store_->GetNode(owner);
        std::string label = owner_node != nullptr ? owner_node->name() : "xlink";
        shard->push_back({owner, value.substr(hash_pos + 1), label});
      });
  size_t added = 0;
  for (const LinkShard& shard : shards) {
    for (const LinkCandidate& candidate : shard) {
      auto it = targets.find(candidate.fragment);
      if (it == targets.end()) continue;
      AddEdge(candidate.owner, it->second, EdgeType::kXLink, candidate.label);
      ++added;
    }
  }
  return added;
}

size_t DataGraph::AddValueBasedEdges(const std::string& pk_path,
                                     const std::string& fk_path,
                                     const std::string& label) {
  // Index PK nodes by content value.
  std::unordered_map<std::string, std::vector<store::NodeId>> pk_values;
  store_->ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    if (node->ContextPath() == pk_path) {
      pk_values[node->ContentString()].push_back(id);
    }
  });
  size_t added = 0;
  store_->ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    if (node->ContextPath() != fk_path) return;
    auto it = pk_values.find(node->ContentString());
    if (it == pk_values.end()) return;
    for (const store::NodeId& pk : it->second) {
      if (pk == id) continue;
      AddEdge(pk, id, EdgeType::kValueBased, label);
      ++added;
    }
  });
  return added;
}

std::vector<Edge> DataGraph::NonTreeEdges(const store::NodeId& node) const {
  std::vector<Edge> out;
  auto v = csr_ != nullptr ? csr_->VertexOf(node) : std::nullopt;
  if (!v.has_value()) return out;
  for (const uint32_t* e = csr_->EdgeRowBegin(*v); e != csr_->EdgeRowEnd(*v);
       ++e) {
    out.push_back(edges_[*e]);
  }
  return out;
}

void DataGraph::ForEachEdgeBySource(
    const std::function<void(const xml::Node*, const xml::Node*,
                             const Edge&)>& fn) const {
  if (csr_ == nullptr) return;
  for (uint32_t v = 0; v < csr_->num_vertices(); ++v) {
    const uint32_t* far = csr_->NonTreeRowBegin(v);
    const uint32_t* ids = csr_->EdgeRowBegin(v);
    for (uint32_t i = 0; i < csr_->OutDegreeOf(v); ++i) {
      fn(csr_->NodeOf(v), csr_->NodeOf(far[i]), edges_[ids[i]]);
    }
  }
}

size_t DataGraph::Degree(const store::NodeId& node) const {
  auto v = csr_ != nullptr ? csr_->VertexOf(node) : std::nullopt;
  return v.has_value() ? csr_->NonTreeDegreeOf(*v) : 0;
}

std::optional<DataGraph::VertexQuery> DataGraph::ToVertices(
    const store::NodeId& a, const store::NodeId& b, size_t max_depth,
    size_t max_visits, GraphStats* stats) const {
  auto to = csr_ != nullptr ? csr_->VertexOf(b) : std::nullopt;
  if (!to.has_value()) return std::nullopt;  // no CSR, or a text target
  if (auto from = csr_->VertexOf(a)) {
    return VertexQuery{*from, *to, max_depth, max_visits, false};
  }
  xml::Node* text = store_->GetNode(a);
  if (text == nullptr || text->kind() != xml::NodeKind::kText ||
      text->parent() == nullptr) {
    return std::nullopt;
  }
  // Expanding the text start is one BFS step: depth test, budget test (one
  // node visited so far), one expansion that visits the parent.
  if (max_depth == 0 || max_visits == 1) return std::nullopt;
  if (stats != nullptr) ++stats->bfs_expansions;
  auto parent = csr_->VertexOf(store::NodeId{a.doc, text->parent()->dewey()});
  if (!parent.has_value()) return std::nullopt;
  return VertexQuery{*parent, *to, max_depth - 1,
                     max_visits == 0 ? 0 : max_visits - 1, true};
}

std::optional<size_t> DataGraph::ShortestPathLength(const store::NodeId& a,
                                                    const store::NodeId& b,
                                                    size_t max_depth,
                                                    size_t max_visits,
                                                    GraphStats* stats) const {
  if (a == b) return 0;
  auto q = ToVertices(a, b, max_depth, max_visits, stats);
  if (!q.has_value()) return std::nullopt;
  auto length = csr_->ShortestPathLength(q->from, q->to, q->max_depth,
                                         q->max_visits, stats);
  if (!length.has_value()) return std::nullopt;
  return *length + (q->text_start ? 1 : 0);
}

std::vector<store::NodeId> DataGraph::ShortestPath(const store::NodeId& a,
                                                   const store::NodeId& b,
                                                   size_t max_depth,
                                                   size_t max_visits,
                                                   GraphStats* stats) const {
  if (a == b) return {a};
  auto q = ToVertices(a, b, max_depth, max_visits, stats);
  if (!q.has_value()) return {};
  std::vector<uint32_t> vertices = csr_->ShortestPath(
      q->from, q->to, q->max_depth, q->max_visits, stats);
  if (vertices.empty()) return {};
  std::vector<store::NodeId> path;
  path.reserve(vertices.size() + 1);
  if (q->text_start) path.push_back(a);
  for (uint32_t v : vertices) path.push_back(csr_->NodeIdOf(v));
  return path;
}

std::optional<size_t> DataGraph::ConnectionSize(
    const std::vector<store::NodeId>& nodes, size_t max_depth,
    size_t max_visits, GraphStats* stats) const {
  if (nodes.size() <= 1) return 0;
  // Group nodes by document.
  std::unordered_map<store::DocId, std::vector<xml::DeweyId>> by_doc;
  for (const auto& n : nodes) by_doc[n.doc].push_back(n.dewey);

  size_t total = 0;
  // Within one document the minimal connecting subtree of a node set S in a
  // tree has exactly (1/2) * sum of consecutive tree distances over S sorted
  // in DFS (Dewey) order, closing the cycle — the classic Euler-tour identity.
  for (auto& [doc, deweys] : by_doc) {
    if (deweys.size() == 1) continue;
    std::sort(deweys.begin(), deweys.end());
    size_t cycle = 0;
    for (size_t i = 0; i < deweys.size(); ++i) {
      const xml::DeweyId& cur = deweys[i];
      const xml::DeweyId& next = deweys[(i + 1) % deweys.size()];
      cycle += xml::TreeDistance(cur, next);
    }
    total += cycle / 2;
  }
  if (by_doc.size() == 1) return total;

  // Across documents: connect document groups pairwise through the graph,
  // using the cheapest inter-group shortest path (greedy spanning connection).
  std::vector<store::NodeId> representatives;
  for (const auto& n : nodes) representatives.push_back(n);
  std::vector<bool> connected(representatives.size(), false);
  connected[0] = true;
  size_t connected_count = 1;
  while (connected_count < representatives.size()) {
    size_t best_cost = SIZE_MAX;
    size_t best_index = SIZE_MAX;
    for (size_t i = 0; i < representatives.size(); ++i) {
      if (connected[i]) continue;
      for (size_t j = 0; j < representatives.size(); ++j) {
        if (!connected[j]) continue;
        if (representatives[i].doc == representatives[j].doc) {
          // Same-document cost already accounted by the subtree term. The
          // first such node wins; it must not take over the index of a
          // node of another document that holds a paid cost.
          if (best_cost > 0) {
            best_cost = 0;
            best_index = i;
          }
          continue;
        }
        auto len = ShortestPathLength(representatives[j], representatives[i],
                                      max_depth, max_visits, stats);
        if (len && *len < best_cost) {
          best_cost = *len;
          best_index = i;
        }
      }
    }
    if (best_index == SIZE_MAX) return std::nullopt;  // tuple not connectable
    connected[best_index] = true;
    ++connected_count;
    total += best_cost;
  }
  return total;
}

}  // namespace seda::graph
