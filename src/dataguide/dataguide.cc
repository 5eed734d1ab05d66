#include "dataguide/dataguide.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "persist/reader.h"
#include "persist/writer.h"

namespace seda::dataguide {

Dataguide::Dataguide(std::vector<store::PathId> paths, store::DocId first_member)
    : paths_(std::move(paths)) {
  members_.push_back(first_member);
}

bool Dataguide::Contains(const std::vector<store::PathId>& other) const {
  return std::includes(paths_.begin(), paths_.end(), other.begin(), other.end());
}

size_t Dataguide::CommonPathCount(const std::vector<store::PathId>& other) const {
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < paths_.size() && j < other.size()) {
    if (paths_[i] < other[j]) {
      ++i;
    } else if (other[j] < paths_[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double Dataguide::Overlap(const std::vector<store::PathId>& other) const {
  if (paths_.empty() || other.empty()) return 0;
  double common = static_cast<double>(CommonPathCount(other));
  return std::min(common / static_cast<double>(paths_.size()),
                  common / static_cast<double>(other.size()));
}

void Dataguide::Merge(const std::vector<store::PathId>& other, store::DocId member) {
  std::vector<store::PathId> merged;
  merged.reserve(paths_.size() + other.size());
  std::set_union(paths_.begin(), paths_.end(), other.begin(), other.end(),
                 std::back_inserter(merged));
  paths_ = std::move(merged);
  members_.push_back(member);
}

bool Connection::HasLink() const {
  for (const Step& step : steps) {
    if (step.move == Move::kLink) return true;
  }
  return false;
}

std::string Connection::Signature() const {
  std::string out = from_path;
  for (const Step& step : steps) {
    switch (step.move) {
      case Move::kUp:
        out += " ^" + step.path;
        break;
      case Move::kDown:
        out += " v" + step.path;
        break;
      case Move::kLink:
        out += " ~" + step.label + ">" + step.path;
        break;
    }
  }
  return out;
}

std::string Connection::ToString() const {
  std::string out = from_path;
  for (const Step& step : steps) {
    switch (step.move) {
      case Move::kUp:
        out += " -> parent " + step.path;
        break;
      case Move::kDown:
        out += " -> child " + step.path;
        break;
      case Move::kLink:
        out += " -> [" + step.label + "] " + step.path;
        break;
    }
  }
  return out;
}

DataguideCollection DataguideCollection::Build(const store::DocumentStore& store,
                                               const Options& options) {
  DataguideCollection collection(&store);
  collection.IngestDocuments(0, options);
  return collection;
}

DataguideCollection DataguideCollection::Extend(const DataguideCollection& base,
                                                const store::DocumentStore& store,
                                                const Options& options) {
  DataguideCollection collection(&store);
  collection.guides_ = base.guides_;
  collection.guide_of_doc_ = base.guide_of_doc_;
  collection.build_stats_ = base.build_stats_;
  collection.IngestDocuments(
      static_cast<store::DocId>(base.build_stats_.documents), options);
  return collection;
}

void DataguideCollection::IngestDocuments(store::DocId first_doc,
                                          const Options& options) {
  const store::DocumentStore& store = *store_;
  BuildStats stats = build_stats_;
  stats.documents = store.DocumentCount();

  // Reused per-document probe buffers (only touched on the parallel path).
  std::vector<char> contains;
  std::vector<double> overlaps;

  for (store::DocId doc = first_doc; doc < store.DocumentCount(); ++doc) {
    const std::vector<store::PathId>& doc_paths = store.DocumentPathSet(doc);
    size_t guide_count = guides_.size();

    // The probe of this document against every existing dataguide (the O(m)
    // inner loop of the paper's O(n*m) build) is read-only, so it can fan out
    // across workers. Selection stays sequential and index-ordered below,
    // which keeps the incremental merge identical to a single-threaded build.
    bool parallel_probe =
        options.pool != nullptr && options.pool->size() >= 1 && guide_count >= 8;
    if (parallel_probe) {
      contains.assign(guide_count, 0);
      overlaps.assign(guide_count, 0.0);
      options.pool->ParallelFor(guide_count, [&](size_t g) {
        contains[g] = guides_[g].Contains(doc_paths) ? 1 : 0;
        overlaps[g] = guides_[g].Overlap(doc_paths);
      });
    }

    // Pass 1: subset / equality short-circuit (paper: "we do not need to do
    // any further processing"). First matching guide wins.
    bool placed = false;
    for (size_t g = 0; g < guide_count; ++g) {
      bool is_contained =
          parallel_probe ? contains[g] != 0 : guides_[g].Contains(doc_paths);
      if (is_contained) {
        guides_[g].AddMember(doc);
        guide_of_doc_[doc] = g;
        ++stats.absorbed;
        placed = true;
        break;
      }
    }
    if (placed) continue;

    // Pass 2: best-overlap merge (strictly-greater, so ties keep the lowest
    // guide index — the same winner the sequential scan picks).
    double best_overlap = 0;
    size_t best_guide = SIZE_MAX;
    for (size_t g = 0; g < guide_count; ++g) {
      double overlap =
          parallel_probe ? overlaps[g] : guides_[g].Overlap(doc_paths);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best_guide = g;
      }
    }
    if (best_guide != SIZE_MAX && best_overlap >= options.overlap_threshold) {
      guides_[best_guide].Merge(doc_paths, doc);
      guide_of_doc_[doc] = best_guide;
      ++stats.merges;
    } else {
      guides_.emplace_back(doc_paths, doc);
      guide_of_doc_[doc] = guides_.size() - 1;
    }
  }

  stats.dataguides = guides_.size();
  stats.reduction_factor =
      stats.dataguides == 0
          ? 0
          : static_cast<double>(stats.documents) / static_cast<double>(stats.dataguides);
  build_stats_ = stats;
}

Status DataguideCollection::SaveTo(persist::ImageWriter* writer) const {
  writer->BeginSection(persist::SectionId::kDataguides);
  writer->PutU64(guides_.size());
  for (const Dataguide& guide : guides_) {
    writer->PutU32Array(guide.paths());
    writer->PutU32Array(guide.members());
  }
  writer->PutU64(build_stats_.documents);
  writer->PutU64(build_stats_.dataguides);
  writer->PutU64(build_stats_.merges);
  writer->PutU64(build_stats_.absorbed);
  writer->PutDouble(build_stats_.reduction_factor);
  writer->PutU64(pending_links_.size());
  for (const PendingLink& link : pending_links_) {
    writer->PutU64(link.guide_a);
    writer->PutU64(link.guide_b);
    writer->PutString(link.path_a);
    writer->PutString(link.path_b);
    writer->PutString(link.label);
  }
  return writer->EndSection();
}

Result<DataguideCollection> DataguideCollection::LoadFrom(
    const persist::MappedImage& image, const store::DocumentStore* store) {
  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor cursor,
                        persist::OpenSection(image, persist::SectionId::kDataguides));
  DataguideCollection collection(store);

  uint64_t guide_count = cursor.GetU64();
  collection.guides_.reserve(cursor.BoundedCount(guide_count, 8));
  for (uint64_t g = 0; g < guide_count && !cursor.failed(); ++g) {
    std::vector<store::PathId> paths = cursor.GetU32Array();
    std::vector<store::DocId> members = cursor.GetU32Array();
    for (store::DocId doc : members) {
      // Every document belongs to exactly one guide, so membership doubles
      // as the doc -> guide map and needs no separate serialization.
      collection.guide_of_doc_[doc] = static_cast<size_t>(g);
    }
    collection.guides_.push_back(
        Dataguide::FromParts(std::move(paths), std::move(members)));
  }
  collection.build_stats_.documents = cursor.GetU64();
  collection.build_stats_.dataguides = cursor.GetU64();
  collection.build_stats_.merges = cursor.GetU64();
  collection.build_stats_.absorbed = cursor.GetU64();
  collection.build_stats_.reduction_factor = cursor.GetDouble();
  uint64_t link_count = cursor.GetU64();
  collection.pending_links_.reserve(cursor.BoundedCount(link_count, 28));
  for (uint64_t l = 0; l < link_count && !cursor.failed(); ++l) {
    PendingLink link;
    link.guide_a = static_cast<size_t>(cursor.GetU64());
    link.guide_b = static_cast<size_t>(cursor.GetU64());
    link.path_a = cursor.GetString();
    link.path_b = cursor.GetString();
    link.label = cursor.GetString();
    collection.pending_links_.push_back(std::move(link));
  }
  collection.link_count_ = collection.pending_links_.size();
  SEDA_RETURN_IF_ERROR(cursor.status());
  return collection;
}

void DataguideCollection::AddLinksFromGraph(const graph::DataGraph& graph) {
  // Map every non-tree edge to path level, deduplicating per
  // (guide_a, path_a, guide_b, path_b, label). Edges arrive grouped by source
  // node in document order, so the link order is the preorder of sources.
  std::set<std::tuple<size_t, std::string, size_t, std::string, std::string>> seen;
  graph.ForEachEdgeBySource([&](const xml::Node* from_node,
                                const xml::Node* to_node,
                                const graph::Edge& edge) {
    size_t guide_a = GuideOfDoc(edge.from.doc);
    size_t guide_b = GuideOfDoc(edge.to.doc);
    std::string path_a = from_node->ContextPath();
    std::string path_b = to_node->ContextPath();
    auto key = std::make_tuple(guide_a, path_a, guide_b, path_b, edge.label);
    if (!seen.insert(key).second) return;
    pending_links_.push_back({guide_a, guide_b, path_a, path_b, edge.label});
    ++link_count_;
  });
  summary_built_ = false;  // rebuild with links
  connection_cache_.clear();
}

size_t DataguideCollection::InternSummaryNode(size_t guide, const std::string& path) {
  auto key = std::make_pair(guide, path);
  auto it = summary_index_.find(key);
  if (it != summary_index_.end()) return it->second;
  size_t id = summary_nodes_.size();
  summary_nodes_.push_back({guide, path});
  summary_adj_.emplace_back();
  summary_index_.emplace(std::move(key), id);
  nodes_by_path_[path].push_back(id);
  return id;
}

void DataguideCollection::EnsureSummaryGraph() const {
  if (summary_built_) return;
  auto* self = const_cast<DataguideCollection*>(this);
  self->summary_nodes_.clear();
  self->summary_adj_.clear();
  self->summary_index_.clear();
  self->nodes_by_path_.clear();

  const store::PathDictionary& dict = store_->paths();
  for (size_t g = 0; g < guides_.size(); ++g) {
    for (store::PathId pid : guides_[g].paths()) {
      const std::string& full = dict.PathString(pid);
      // Intern all prefixes and chain them with parent/child edges.
      std::vector<std::string> labels = SplitSkipEmpty(full, '/');
      std::string prefix;
      size_t prev = SIZE_MAX;
      for (const std::string& label : labels) {
        prefix += "/" + label;
        size_t node = self->InternSummaryNode(g, prefix);
        if (prev != SIZE_MAX) {
          // Avoid duplicate edges: adjacency may already link prev<->node.
          bool exists = false;
          for (const SummaryEdge& e : summary_adj_[prev]) {
            if (e.to == node && e.move == Connection::Move::kDown) {
              exists = true;
              break;
            }
          }
          if (!exists) {
            self->summary_adj_[prev].push_back({node, Connection::Move::kDown, ""});
            self->summary_adj_[node].push_back({prev, Connection::Move::kUp, ""});
          }
        }
        prev = node;
      }
    }
  }
  // Apply link edges.
  for (const PendingLink& link : pending_links_) {
    size_t a = self->InternSummaryNode(link.guide_a, link.path_a);
    size_t b = self->InternSummaryNode(link.guide_b, link.path_b);
    self->summary_adj_[a].push_back({b, Connection::Move::kLink, link.label});
    self->summary_adj_[b].push_back({a, Connection::Move::kLink, link.label});
  }
  summary_built_ = true;
}

std::vector<Connection> DataguideCollection::FindConnections(
    const std::string& from_path, const std::string& to_path, size_t max_len,
    size_t max_count, size_t max_steps) const {
  // The mutex guards the lazily-built mutable state — the summary graph, the
  // cache and its counters — because snapshots are shared by concurrent
  // queries, and this is the only read entry point that mutates. The search
  // itself runs outside the lock: once built, the summary graph is immutable
  // (until writer-side AddLinksFromGraph, which happens pre-publication), so
  // two threads missing on the same pair at worst compute the same answer
  // twice, instead of every query's connection summary serializing.
  auto key = std::make_pair(from_path, to_path);
  {
    std::lock_guard<std::mutex> lock(*summary_mu_);
    EnsureSummaryGraph();
    if (cache_enabled_) {
      auto it = connection_cache_.find(key);
      if (it != connection_cache_.end()) {
        ++cache_hits_;
        return it->second;
      }
    }
    ++cache_misses_;
  }
  auto connections =
      ComputeConnections(from_path, to_path, max_len, max_count, max_steps);
  if (cache_enabled_) {
    std::lock_guard<std::mutex> lock(*summary_mu_);
    connection_cache_.emplace(std::move(key), connections);
  }
  return connections;
}

std::vector<Connection> DataguideCollection::ComputeConnections(
    const std::string& from_path, const std::string& to_path, size_t max_len,
    size_t max_count, size_t max_steps) const {
  // Precondition: EnsureSummaryGraph() already ran (FindConnections does it
  // under the lock); from here the summary graph is read-only.
  std::vector<Connection> out;
  std::set<std::string> signatures;

  auto from_it = nodes_by_path_.find(from_path);
  if (from_it == nodes_by_path_.end()) return out;
  auto to_it = nodes_by_path_.find(to_path);
  if (to_it == nodes_by_path_.end()) return out;
  std::set<size_t> targets(to_it->second.begin(), to_it->second.end());

  // Bounded DFS, shortest paths first via iterative deepening. Nodes MAY be
  // revisited: the summary graph collapses sibling instances onto one node,
  // so the paper's cross-item connection (trade_country ^item
  // ^import_partners v item v percentage, Figure 1) necessarily walks back
  // down an edge it came up. Only degenerate immediate reversals are banned:
  // stepping down to a child and straight back up (the same instance), or
  // bouncing back across the same link edge.
  // Total DFS work budget across all depth iterations; shortest connections
  // surface first, so an exhausted budget degrades to "fewer long
  // connections", never to a missing short one.
  size_t steps = 0;
  for (size_t depth_limit = 1; depth_limit <= max_len && out.size() < max_count;
       ++depth_limit) {
    for (size_t start : from_it->second) {
      std::vector<Connection::Step> step_stack;

      // Explicit DFS with per-frame edge cursor; prev = node we came from.
      struct Frame {
        size_t node;
        size_t edge_index;
        size_t prev;                 // SIZE_MAX at the start node
        Connection::Move prev_move;  // move that entered `node`
      };
      std::vector<Frame> frames{{start, 0, SIZE_MAX, Connection::Move::kUp}};

      while (!frames.empty()) {
        if (max_steps > 0 && ++steps > max_steps) return out;
        Frame& frame = frames.back();
        if (step_stack.size() == depth_limit ||
            frame.edge_index >= summary_adj_[frame.node].size()) {
          frames.pop_back();
          if (!step_stack.empty()) step_stack.pop_back();
          continue;
        }
        const SummaryEdge& edge = summary_adj_[frame.node][frame.edge_index++];
        if (frame.prev != SIZE_MAX && edge.to == frame.prev) {
          // Immediate reversal checks (same instance, no information).
          if (frame.prev_move == Connection::Move::kDown &&
              edge.move == Connection::Move::kUp) {
            continue;
          }
          if (frame.prev_move == Connection::Move::kLink &&
              edge.move == Connection::Move::kLink) {
            continue;
          }
        }
        Connection::Step step;
        step.move = edge.move;
        step.path = summary_nodes_[edge.to].path;
        step.label = edge.label;
        step_stack.push_back(step);
        if (targets.count(edge.to) && step_stack.size() == depth_limit) {
          Connection conn;
          conn.from_path = from_path;
          conn.to_path = to_path;
          conn.steps = step_stack;
          if (signatures.insert(conn.Signature()).second) {
            out.push_back(std::move(conn));
            if (out.size() >= max_count) return out;
          }
          step_stack.pop_back();
          continue;
        }
        frames.push_back({edge.to, 0, frame.node, edge.move});
      }
    }
  }
  return out;
}

}  // namespace seda::dataguide
