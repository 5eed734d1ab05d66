#include "text/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "text/analyzer.h"

namespace seda::text {

const std::vector<NodePosting> InvertedIndex::kEmptyPostings;
const std::vector<store::PathId> InvertedIndex::kEmptyPaths;
const std::vector<store::NodeId> InvertedIndex::kEmptyNodes;

namespace {

std::vector<store::PathId> IntersectSorted(const std::vector<store::PathId>& a,
                                           const std::vector<store::PathId>& b) {
  std::vector<store::PathId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<store::PathId> UnionSorted(const std::vector<store::PathId>& a,
                                       const std::vector<store::PathId>& b) {
  std::vector<store::PathId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<store::PathId> SubtractSorted(const std::vector<store::PathId>& a,
                                          const std::vector<store::PathId>& b) {
  std::vector<store::PathId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

struct InvertedIndex::DocShard {
  std::unordered_map<std::string, std::vector<NodePosting>> node_postings;
  std::unordered_map<std::string, std::vector<store::PathId>> path_postings;
  std::unordered_map<std::string, std::unordered_map<store::PathId, uint64_t>>
      path_counts;
  /// Distinct content tokens of the document (document frequency units).
  std::unordered_set<std::string> doc_terms;
  /// (path, node) pairs in node visit order.
  std::vector<std::pair<store::PathId, store::NodeId>> path_nodes;
  uint64_t indexed_nodes = 0;
};

InvertedIndex::InvertedIndex(const store::DocumentStore* store, ThreadPool* pool)
    : store_(store) {
  IndexRange(0, pool);
}

InvertedIndex::InvertedIndex(const InvertedIndex& base,
                             const store::DocumentStore* store,
                             store::DocId first_new_doc, ThreadPool* pool)
    : store_(store),
      path_postings_(base.path_postings_),
      doc_freq_(base.doc_freq_),
      max_tf_(base.max_tf_),
      nodes_by_path_(base.nodes_by_path_),
      indexed_nodes_(base.indexed_nodes_) {
  // A base opened from an image may still hold lazy posting spans; the
  // incremental merge appends to full lists, so decode them all once. The
  // new epoch is fully in-memory (it does not co-own the image).
  base.MaterializeAllPostings();
  base.MaterializePathCounts();
  node_postings_ = base.node_postings_;
  path_counts_ = base.path_counts_;
  IndexRange(first_new_doc, pool);
}

size_t InvertedIndex::TermCount() const {
  if (image_ == nullptr) return node_postings_.size();
  std::shared_lock<std::shared_mutex> lock(lazy_mu_);
  return node_postings_.size() + lazy_postings_.size();
}

std::vector<std::string> InvertedIndex::AllTerms() const {
  std::unordered_set<std::string> seen;
  {
    std::shared_lock<std::shared_mutex> lock(lazy_mu_);
    for (const auto& [term, postings] : node_postings_) seen.insert(term);
    for (const auto& [term, span] : lazy_postings_) seen.insert(term);
  }
  for (const auto& [term, paths] : path_postings_) seen.insert(term);
  std::vector<std::string> terms(seen.begin(), seen.end());
  std::sort(terms.begin(), terms.end());
  return terms;
}

void InvertedIndex::IndexRange(store::DocId first_doc, ThreadPool* pool) {
  nodes_by_path_.resize(store_->paths().size());

  // Stage 1 (parallel): one partial index per document. Documents are
  // independent, and every shard container appends in node visit order.
  size_t doc_count = store_->DocumentCount();
  size_t new_count = doc_count > first_doc ? doc_count - first_doc : 0;
  std::vector<DocShard> shards(new_count);
  RunParallel(pool, new_count, [&](size_t d) {
    shards[d] = BuildDocShard(static_cast<store::DocId>(first_doc + d));
  });

  // Stage 2 (sequential, deterministic): merge in DocId order, which
  // reproduces exactly the append order of a single-threaded pass. Terms
  // whose path postings this range touches are tracked so the normalize
  // pass below is O(delta vocabulary), not O(total vocabulary) — the point
  // of an incremental commit.
  std::unordered_set<std::string> touched_path_terms;
  for (DocShard& shard : shards) {
    for (const auto& [term, paths] : shard.path_postings) {
      touched_path_terms.insert(term);
    }
    MergeShard(std::move(shard));
  }

  // Finalize touched path postings: sort + dedupe. On the incremental path
  // the base lists are already sorted-distinct; re-normalizing the
  // concatenation yields the same set a from-scratch build sorts out of its
  // raw appends, and untouched terms are already normalized.
  for (const std::string& term : touched_path_terms) {
    std::vector<store::PathId>& paths = path_postings_[term];
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  }
}

InvertedIndex::DocShard InvertedIndex::BuildDocShard(store::DocId doc) const {
  DocShard shard;
  store_->document(doc).ForEachNode([&](xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    store::NodeId id{doc, node->dewey()};
    std::string path_text = node->ContextPath();
    store::PathId path = store_->paths().Find(path_text);
    if (path == store::kInvalidPathId) return;
    shard.path_nodes.emplace_back(path, id);
    ++shard.indexed_nodes;

    std::vector<std::string> tokens = Tokenize(node->ContentString());
    // Path postings (Fig. 8) index only the text a node *directly* contains,
    // so "United States" maps to trade_country/name leaf paths rather than to
    // every ancestor context; node postings keep the full content(n)
    // semantics of Definition 3.
    std::string direct_text;
    if (node->kind() == xml::NodeKind::kAttribute) {
      direct_text = node->text();
    } else {
      for (const auto& child : node->children()) {
        if (child->kind() == xml::NodeKind::kText) {
          direct_text += child->text() + " ";
        }
      }
    }
    IndexNode(&shard, id, path, tokens, Tokenize(direct_text));

    // Tag names are indexed as keywords too (paper §5), pointing at the
    // node's own path.
    std::string tag = NormalizeToken(node->name());
    if (!tag.empty()) {
      shard.path_postings[tag].push_back(path);
      shard.path_counts[tag][path] += 1;
    }

    // Document frequency per content token: a term counts once per document,
    // no matter how many nodes repeat it (ancestors repeat descendant text).
    shard.doc_terms.insert(tokens.begin(), tokens.end());
  });
  return shard;
}

void InvertedIndex::MergeShard(DocShard&& shard) {
  for (auto& [term, postings] : shard.node_postings) {
    uint32_t& max_tf = max_tf_[term];
    for (const NodePosting& p : postings) {
      max_tf = std::max(max_tf, static_cast<uint32_t>(p.positions.size()));
    }
    auto& dst = node_postings_[term];
    dst.insert(dst.end(), std::make_move_iterator(postings.begin()),
               std::make_move_iterator(postings.end()));
  }
  for (auto& [term, paths] : shard.path_postings) {
    auto& dst = path_postings_[term];
    dst.insert(dst.end(), paths.begin(), paths.end());
  }
  for (auto& [term, counts] : shard.path_counts) {
    auto& dst = path_counts_[term];
    for (const auto& [path, count] : counts) dst[path] += count;
  }
  for (const std::string& term : shard.doc_terms) doc_freq_[term] += 1;
  for (const auto& [path, node] : shard.path_nodes) {
    if (path >= nodes_by_path_.size()) nodes_by_path_.resize(path + 1);
    nodes_by_path_[path].push_back(node);
  }
  indexed_nodes_ += shard.indexed_nodes;
}

void InvertedIndex::IndexNode(DocShard* shard, const store::NodeId& id,
                              store::PathId path,
                              const std::vector<std::string>& tokens,
                              const std::vector<std::string>& direct_tokens) {
  // Gather positions per distinct token in this node.
  std::unordered_map<std::string, std::vector<uint32_t>> positions;
  for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
    positions[tokens[pos]].push_back(pos);
  }
  for (auto& [term, pos_list] : positions) {
    NodePosting posting;
    posting.node = id;
    posting.path = path;
    posting.positions = std::move(pos_list);
    shard->node_postings[term].push_back(std::move(posting));
  }
  for (const std::string& term : direct_tokens) {
    shard->path_postings[term].push_back(path);
    shard->path_counts[term][path] += 1;
  }
}

namespace {

/// Keys of a string-keyed map, sorted — fixes an iteration order so images
/// are byte-stable across runs and identical builds hash to identical files.
template <typename Map>
std::vector<const std::string*> SortedKeys(const Map& map) {
  std::vector<const std::string*> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  return keys;
}

void PutNodeId(persist::ImageWriter* writer, const store::NodeId& node) {
  writer->PutU32(node.doc);
  writer->PutU32Array(node.dewey.components());
}

store::NodeId GetNodeId(persist::SectionCursor* cursor) {
  uint32_t doc = cursor->GetU32();
  return store::NodeId{doc, xml::DeweyId(cursor->GetU32Array())};
}

}  // namespace

Status InvertedIndex::SaveTo(persist::ImageWriter* writer) const {
  // An index that was itself opened from an image may still hold lazy spans
  // (into a mapping this writer might even be replacing) — decode them all.
  MaterializeAllPostings();
  MaterializePathCounts();

  writer->BeginSection(persist::SectionId::kIndexTerms);
  writer->PutU64(node_postings_.size());
  for (const std::string* term : SortedKeys(node_postings_)) {
    writer->PutString(*term);
    // Each posting list is a skippable blob, so Load can keep it as an
    // offset-addressed lazy segment of the mapping.
    writer->BeginBlob();
    const std::vector<NodePosting>& postings = node_postings_.at(*term);
    writer->PutU64(postings.size());
    for (const NodePosting& posting : postings) {
      PutNodeId(writer, posting.node);
      writer->PutU32(posting.path);
      writer->PutU32Array(posting.positions);
    }
    writer->EndBlob();
  }
  writer->PutU64(doc_freq_.size());
  for (const std::string* term : SortedKeys(doc_freq_)) {
    writer->PutString(*term);
    writer->PutU64(doc_freq_.at(*term));
  }
  writer->PutU64(max_tf_.size());
  for (const std::string* term : SortedKeys(max_tf_)) {
    writer->PutString(*term);
    writer->PutU32(max_tf_.at(*term));
  }
  SEDA_RETURN_IF_ERROR(writer->EndSection());

  writer->BeginSection(persist::SectionId::kIndexPaths);
  writer->PutU64(path_postings_.size());
  for (const std::string* term : SortedKeys(path_postings_)) {
    writer->PutString(*term);
    writer->PutU32Array(path_postings_.at(*term));
  }
  // The whole count table is one skippable blob: reopen keeps it as a lazy
  // segment until the first TermPathCount() call (ablation-only data).
  writer->BeginBlob();
  writer->PutU64(path_counts_.size());
  for (const std::string* term : SortedKeys(path_counts_)) {
    writer->PutString(*term);
    const auto& counts = path_counts_.at(*term);
    std::vector<std::pair<store::PathId, uint64_t>> sorted(counts.begin(),
                                                           counts.end());
    std::sort(sorted.begin(), sorted.end());
    writer->PutU32(static_cast<uint32_t>(sorted.size()));
    for (const auto& [path, count] : sorted) {
      writer->PutU32(path);
      writer->PutU64(count);
    }
  }
  writer->EndBlob();
  writer->PutU64(nodes_by_path_.size());
  for (const std::vector<store::NodeId>& nodes : nodes_by_path_) {
    writer->PutU64(nodes.size());
    for (const store::NodeId& node : nodes) PutNodeId(writer, node);
  }
  writer->PutU64(indexed_nodes_);
  return writer->EndSection();
}

/// Decodes one term's posting-list blob (the format SaveTo frames).
static std::vector<NodePosting> DecodePostings(persist::SectionCursor* blob) {
  std::vector<NodePosting> postings;
  uint64_t posting_count = blob->GetU64();
  postings.reserve(blob->BoundedCount(posting_count, 16));
  for (uint64_t p = 0; p < posting_count && !blob->failed(); ++p) {
    NodePosting posting;
    posting.node = GetNodeId(blob);
    posting.path = blob->GetU32();
    posting.positions = blob->GetU32Array();
    postings.push_back(std::move(posting));
  }
  if (blob->failed()) postings.clear();  // unreachable behind the CRC pass
  return postings;
}

Result<std::unique_ptr<InvertedIndex>> InvertedIndex::LoadFrom(
    std::shared_ptr<const persist::MappedImage> image,
    const store::DocumentStore* store) {
  std::unique_ptr<InvertedIndex> index(new InvertedIndex(store, LoadTag{}));

  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor terms,
                        persist::OpenSection(*image, persist::SectionId::kIndexTerms));
  uint64_t term_count = terms.GetU64();
  index->lazy_postings_.reserve(terms.BoundedCount(term_count, 12));
  for (uint64_t t = 0; t < term_count && !terms.failed(); ++t) {
    std::string term = terms.GetString();
    // The posting list itself stays an offset-addressed segment of the
    // mapping; only this term-table head is materialized now.
    persist::SectionCursor blob = terms.GetBlob();
    index->lazy_postings_.emplace(
        std::move(term), LazySpan{blob.data(), blob.remaining()});
  }
  uint64_t df_count = terms.GetU64();
  index->doc_freq_.reserve(terms.BoundedCount(df_count, 12));
  for (uint64_t t = 0; t < df_count && !terms.failed(); ++t) {
    std::string term = terms.GetString();
    index->doc_freq_[std::move(term)] = terms.GetU64();
  }
  uint64_t tf_count = terms.GetU64();
  index->max_tf_.reserve(terms.BoundedCount(tf_count, 8));
  for (uint64_t t = 0; t < tf_count && !terms.failed(); ++t) {
    std::string term = terms.GetString();
    index->max_tf_[std::move(term)] = terms.GetU32();
  }
  SEDA_RETURN_IF_ERROR(terms.status());

  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor paths,
                        persist::OpenSection(*image, persist::SectionId::kIndexPaths));
  uint64_t path_term_count = paths.GetU64();
  index->path_postings_.reserve(paths.BoundedCount(path_term_count, 8));
  for (uint64_t t = 0; t < path_term_count && !paths.failed(); ++t) {
    std::string term = paths.GetString();
    index->path_postings_[std::move(term)] = paths.GetU32Array();
  }
  {
    persist::SectionCursor counts_blob = paths.GetBlob();
    index->lazy_path_counts_ =
        LazySpan{counts_blob.data(), counts_blob.remaining()};
  }
  // The loop bound must be the clamped size: with a garbage count the
  // cursor fails a few reads in, and indexing past the resize would write
  // out of bounds before that surfaces.
  uint64_t by_path_count = paths.BoundedCount(paths.GetU64(), 8);
  index->nodes_by_path_.resize(by_path_count);
  for (uint64_t p = 0; p < by_path_count && !paths.failed(); ++p) {
    uint64_t node_count = paths.GetU64();
    std::vector<store::NodeId>& nodes = index->nodes_by_path_[p];
    nodes.reserve(paths.BoundedCount(node_count, 8));
    for (uint64_t n = 0; n < node_count && !paths.failed(); ++n) {
      nodes.push_back(GetNodeId(&paths));
    }
  }
  index->indexed_nodes_ = paths.GetU64();
  SEDA_RETURN_IF_ERROR(paths.status());
  // Co-own the mapping: every LazySpan above points into it.
  index->image_ = std::move(image);
  return index;
}

void InvertedIndex::MaterializeAllPostings() const {
  if (image_ == nullptr) return;
  std::unique_lock<std::shared_mutex> lock(lazy_mu_);
  for (const auto& [term, span] : lazy_postings_) {
    persist::SectionCursor blob(span.data, span.size,
                                persist::SectionId::kIndexTerms);
    node_postings_[term] = DecodePostings(&blob);
  }
  lazy_postings_.clear();
}

void InvertedIndex::MaterializePathCounts() const {
  if (image_ == nullptr) return;
  {
    // Fast path once decoded: don't serialize every TermPathCount call (or
    // block concurrent Postings readers) behind the exclusive lock.
    std::shared_lock<std::shared_mutex> lock(lazy_mu_);
    if (lazy_path_counts_.data == nullptr) return;
  }
  std::unique_lock<std::shared_mutex> lock(lazy_mu_);
  if (lazy_path_counts_.data == nullptr) return;  // raced another decoder
  persist::SectionCursor counts(lazy_path_counts_.data, lazy_path_counts_.size,
                                persist::SectionId::kIndexPaths);
  uint64_t count_term_count = counts.GetU64();
  path_counts_.reserve(counts.BoundedCount(count_term_count, 8));
  for (uint64_t t = 0; t < count_term_count && !counts.failed(); ++t) {
    std::string term = counts.GetString();
    uint32_t pair_count = counts.GetU32();
    auto& table = path_counts_[std::move(term)];
    table.reserve(counts.BoundedCount(pair_count, 12));
    for (uint32_t p = 0; p < pair_count && !counts.failed(); ++p) {
      uint32_t path = counts.GetU32();
      table[path] = counts.GetU64();
    }
  }
  lazy_path_counts_ = LazySpan{};
}

const std::vector<NodePosting>& InvertedIndex::Postings(const std::string& term) const {
  if (image_ == nullptr) {  // built in memory: single-writer, no locking
    auto it = node_postings_.find(term);
    return it == node_postings_.end() ? kEmptyPostings : it->second;
  }
  {
    std::shared_lock<std::shared_mutex> lock(lazy_mu_);
    auto it = node_postings_.find(term);
    // References into node_postings_ stay valid across later inserts
    // (unordered_map guarantees reference stability), so returning after
    // unlock is safe.
    if (it != node_postings_.end()) return it->second;
    if (lazy_postings_.find(term) == lazy_postings_.end()) {
      return kEmptyPostings;
    }
  }
  // First touch of this term: decode its segment of the mapping.
  std::unique_lock<std::shared_mutex> lock(lazy_mu_);
  auto it = node_postings_.find(term);
  if (it != node_postings_.end()) return it->second;  // raced another reader
  auto lazy = lazy_postings_.find(term);
  if (lazy == lazy_postings_.end()) return kEmptyPostings;
  persist::SectionCursor blob(lazy->second.data, lazy->second.size,
                              persist::SectionId::kIndexTerms);
  std::vector<NodePosting>& postings = node_postings_[term];
  postings = DecodePostings(&blob);
  lazy_postings_.erase(lazy);
  return postings;
}

const std::vector<store::PathId>& InvertedIndex::TermPaths(
    const std::string& term) const {
  auto it = path_postings_.find(term);
  return it == path_postings_.end() ? kEmptyPaths : it->second;
}

uint64_t InvertedIndex::TermPathCount(const std::string& term,
                                      store::PathId path) const {
  MaterializePathCounts();
  auto it = path_counts_.find(term);
  if (it == path_counts_.end()) return 0;
  auto jt = it->second.find(path);
  return jt == it->second.end() ? 0 : jt->second;
}

uint64_t InvertedIndex::DocumentFrequency(const std::string& term) const {
  auto it = doc_freq_.find(term);
  return it == doc_freq_.end() ? 0 : it->second;
}

uint32_t InvertedIndex::MaxTermFrequency(const std::string& term) const {
  auto it = max_tf_.find(term);
  return it == max_tf_.end() ? 0 : it->second;
}

double InvertedIndex::Idf(const std::string& term) const {
  double n = static_cast<double>(store_->DocumentCount());
  double df = static_cast<double>(DocumentFrequency(term));
  return std::log(1.0 + (n + 1.0) / (df + 1.0));
}

std::vector<store::PathId> InvertedIndex::EvaluatePaths(const TextExpr& expr) const {
  switch (expr.kind) {
    case TextExpr::Kind::kAll: {
      std::vector<store::PathId> out(store_->paths().size());
      for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<store::PathId>(i);
      return out;
    }
    case TextExpr::Kind::kTerm:
      return TermPaths(expr.term);
    case TextExpr::Kind::kPhrase: {
      std::vector<store::PathId> out;
      bool first = true;
      for (const auto& token : expr.phrase) {
        if (first) {
          out = TermPaths(token);
          first = false;
        } else {
          out = IntersectSorted(out, TermPaths(token));
        }
      }
      return out;
    }
    case TextExpr::Kind::kAnd: {
      std::vector<store::PathId> out;
      bool have_positive = false;
      std::vector<const TextExpr*> negatives;
      for (const auto& child : expr.children) {
        if (child->kind == TextExpr::Kind::kNot) {
          negatives.push_back(child->children.front().get());
          continue;
        }
        auto paths = EvaluatePaths(*child);
        if (!have_positive) {
          out = std::move(paths);
          have_positive = true;
        } else {
          out = IntersectSorted(out, paths);
        }
      }
      if (!have_positive) out = EvaluatePaths(*TextExpr::All());
      for (const TextExpr* neg : negatives) {
        out = SubtractSorted(out, EvaluatePaths(*neg));
      }
      return out;
    }
    case TextExpr::Kind::kOr: {
      std::vector<store::PathId> out;
      for (const auto& child : expr.children) {
        out = UnionSorted(out, EvaluatePaths(*child));
      }
      return out;
    }
    case TextExpr::Kind::kNot: {
      return SubtractSorted(EvaluatePaths(*TextExpr::All()),
                            EvaluatePaths(*expr.children.front()));
    }
  }
  return {};
}

const std::vector<store::NodeId>& InvertedIndex::NodesWithPath(
    store::PathId path) const {
  if (path == store::kInvalidPathId || path >= nodes_by_path_.size()) {
    return kEmptyNodes;
  }
  return nodes_by_path_[path];
}

}  // namespace seda::text
