#include "dataguide/dataguide.h"

#include <algorithm>
#include <array>
#include <deque>
#include <iterator>
#include <set>
#include <unordered_set>

#include "common/strings.h"
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
  collection.IngestDocuments(0, options.overlap_threshold);
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
      static_cast<store::DocId>(base.build_stats_.documents),
      options.overlap_threshold);
  return collection;
}

void DataguideCollection::IngestDocuments(store::DocId first_doc,
                                          double overlap_threshold) {
  const store::DocumentStore& store = *store_;
  BuildStats stats = build_stats_;
  stats.documents = store.DocumentCount();
  guide_of_doc_.resize(store.DocumentCount());

  // Path -> the guides holding it. A document's common-path count with guide
  // g is the number of its paths whose list names g, the same integer the
  // paper's per-guide merge computes. A merge appends an older guide to a
  // path's list, so lists are unordered and both rules below pick the lowest
  // winning index themselves.
  std::vector<std::vector<uint32_t>> guides_of_path(store.paths().size());
  for (uint32_t g = 0; g < guides_.size(); ++g) {
    for (store::PathId path : guides_[g].paths()) {
      guides_of_path[path].push_back(g);
    }
  }
  std::vector<uint32_t> common(guides_.size(), 0);
  std::vector<uint32_t> touched;  // guides with common > 0, first-touch order

  for (store::DocId doc = first_doc; doc < store.DocumentCount(); ++doc) {
    const std::vector<store::PathId>& doc_paths = store.DocumentPathSet(doc);
    touched.clear();
    for (store::PathId path : doc_paths) {
      for (uint32_t g : guides_of_path[path]) {
        if (common[g]++ == 0) touched.push_back(g);
      }
    }

    // Rule 1: subset / equality (paper: "we do not need to do any further
    // processing") — the lowest guide holding every path absorbs it. An
    // empty path set is contained in every guide.
    // Rule 2: best overlap — strictly greater wins, so ties keep the lowest
    // guide index. A guide sharing no path has overlap 0 and never wins.
    uint32_t contained = doc_paths.empty() && !guides_.empty() ? 0 : UINT32_MAX;
    uint32_t best_guide = UINT32_MAX;
    double best_overlap = 0;
    for (uint32_t g : touched) {
      const size_t count = common[g];
      common[g] = 0;
      if (count == doc_paths.size()) contained = std::min(contained, g);
      // The paper's overlap, min(|common|/|guide|, |common|/|doc|); count > 0
      // here, so neither set is empty.
      const double shared = static_cast<double>(count);
      double overlap =
          std::min(shared / static_cast<double>(guides_[g].PathCount()),
                   shared / static_cast<double>(doc_paths.size()));
      if (overlap > best_overlap || (overlap == best_overlap && g < best_guide)) {
        best_overlap = overlap;
        best_guide = g;
      }
    }

    if (contained != UINT32_MAX) {
      guides_[contained].AddMember(doc);
      guide_of_doc_[doc] = contained;
      ++stats.absorbed;
    } else if (best_guide != UINT32_MAX && best_overlap >= overlap_threshold) {
      Dataguide& guide = guides_[best_guide];
      std::vector<store::PathId> added;
      std::set_difference(doc_paths.begin(), doc_paths.end(),
                          guide.paths().begin(), guide.paths().end(),
                          std::back_inserter(added));
      for (store::PathId path : added) guides_of_path[path].push_back(best_guide);
      guide.Merge(doc_paths, doc);
      guide_of_doc_[doc] = best_guide;
      ++stats.merges;
    } else {
      const auto g = static_cast<uint32_t>(guides_.size());
      for (store::PathId path : doc_paths) guides_of_path[path].push_back(g);
      guides_.emplace_back(doc_paths, doc);
      common.push_back(0);
      guide_of_doc_[doc] = g;
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

namespace {

Status Malformed(const std::string& what) {
  return Status::ParseError("image dataguide section malformed: " + what);
}

}  // namespace

Result<DataguideCollection> DataguideCollection::LoadFrom(
    const persist::MappedImage& image, const store::DocumentStore* store) {
  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor cursor,
                        persist::OpenSection(image, persist::SectionId::kDataguides));
  DataguideCollection collection(store);
  const size_t path_count = store->paths().size();
  const size_t doc_count = store->DocumentCount();
  // Every document belongs to exactly one guide, so membership doubles as the
  // doc -> guide map and needs no separate serialization.
  collection.guide_of_doc_.assign(doc_count, UINT32_MAX);

  uint64_t guide_count = cursor.GetU64();
  collection.guides_.reserve(cursor.BoundedCount(guide_count, 8));
  for (uint64_t g = 0; g < guide_count && !cursor.failed(); ++g) {
    std::vector<store::PathId> paths = cursor.GetU32Array();
    std::vector<store::DocId> members = cursor.GetU32Array();
    for (size_t i = 0; i < paths.size(); ++i) {
      if (paths[i] >= path_count) return Malformed("path past the dictionary");
      if (i > 0 && paths[i] <= paths[i - 1]) {
        return Malformed("guide paths not strictly ascending");
      }
    }
    for (store::DocId doc : members) {
      if (doc >= doc_count) return Malformed("member past the store");
      if (collection.guide_of_doc_[doc] != UINT32_MAX) {
        return Malformed("document in two guides");
      }
      collection.guide_of_doc_[doc] = static_cast<uint32_t>(g);
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
    if (link.guide_a >= guide_count || link.guide_b >= guide_count) {
      return Malformed("link guide past the guide count");
    }
    collection.pending_links_.push_back(std::move(link));
  }
  collection.link_count_ = collection.pending_links_.size();
  SEDA_RETURN_IF_ERROR(cursor.status());
  if (std::find(collection.guide_of_doc_.begin(), collection.guide_of_doc_.end(),
                UINT32_MAX) != collection.guide_of_doc_.end()) {
    return Malformed("document in no guide");
  }
  if (collection.build_stats_.documents != doc_count) {
    return Malformed("document count disagrees with the store");
  }
  return collection;
}

namespace {

/// (guide_a, path_a, guide_b, path_b, label) of a path-level link.
using LinkKey = std::array<uint32_t, 5>;

struct LinkKeyHash {
  size_t operator()(const LinkKey& key) const {
    uint64_t h = 0;
    for (uint32_t part : key) h = (h ^ part) * 0x100000001b3ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

}  // namespace

void DataguideCollection::AddLinksFromGraph(const graph::DataGraph& graph) {
  // Map every non-tree edge to path level, deduplicating per
  // (guide_a, path_a, guide_b, path_b, label). Edges arrive grouped by source
  // node in document order, so the link order is the preorder of sources.
  // Paths and labels are interned per call, so the key is all integers and
  // path strings are copied only for new links. A node's path is looked up
  // once.
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<const std::string*> text;
  auto intern = [&](const std::string& value) {
    auto [it, added] = ids.try_emplace(value, static_cast<uint32_t>(text.size()));
    if (added) text.push_back(&it->first);
    return it->second;
  };
  std::unordered_map<const xml::Node*, uint32_t> path_of_node;
  auto path_id = [&](const xml::Node* node) {
    auto [it, fresh] = path_of_node.try_emplace(node, 0);
    if (fresh) it->second = intern(node->ContextPath());
    return it->second;
  };
  std::unordered_set<LinkKey, LinkKeyHash> seen;
  graph.ForEachEdgeBySource([&](const xml::Node* from_node,
                                const xml::Node* to_node,
                                const graph::Edge& edge) {
    const LinkKey key = {guide_of_doc_.at(edge.from.doc), path_id(from_node),
                         guide_of_doc_.at(edge.to.doc), path_id(to_node),
                         intern(edge.label)};
    if (!seen.insert(key).second) return;
    pending_links_.push_back(
        {key[0], key[2], *text[key[1]], *text[key[3]], edge.label});
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
