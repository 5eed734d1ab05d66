#include "text/inverted_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <ranges>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "text/analyzer.h"

namespace seda::text {

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

/// Entries of a string-keyed map, sorted by key — fixes the order blocks
/// are laid out and images written in, so identical builds give identical
/// arenas and files.
template <typename Map>
auto SortedEntries(Map& map) {
  std::vector<decltype(&*map.begin())> entries;
  entries.reserve(map.size());
  for (auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

}  // namespace

PostingList::PostingList(const uint32_t* block)
    : size_(block[0]), cols_(block + 1) {
  deweys_ = cols_ + 4 * size_;
  positions_ = deweys_ + DeweyWords();
}

store::NodeId PostingList::node(size_t i) const {
  std::span<const uint32_t> d = dewey(i);
  return store::NodeId{doc(i),
                       xml::DeweyId(std::vector<uint32_t>(d.begin(), d.end()))};
}

bool PostingList::Before(size_t i, store::DocId doc,
                         std::span<const uint32_t> dewey_id) const {
  if (cols_[i] != doc) return cols_[i] < doc;
  std::span<const uint32_t> d = dewey(i);
  return std::lexicographical_compare(d.begin(), d.end(), dewey_id.begin(),
                                      dewey_id.end());
}

size_t PostingList::LowerBound(size_t from, const store::NodeId& target) const {
  auto rest = std::views::iota(from, size_);
  return from + (std::ranges::partition_point(rest, [&](size_t i) {
                   return Before(i, target.doc, target.dewey.components());
                 }) - rest.begin());
}

struct InvertedIndex::PostingColumns {
  std::vector<uint32_t> docs, paths, dewey_ends, pos_ends, deweys, positions;
  uint32_t max_tf = 0;

  void Add(store::DocId doc, store::PathId path,
           const std::vector<uint32_t>& dewey,
           const std::vector<uint32_t>& pos) {
    docs.push_back(doc);
    paths.push_back(path);
    deweys.insert(deweys.end(), dewey.begin(), dewey.end());
    dewey_ends.push_back(static_cast<uint32_t>(deweys.size()));
    positions.insert(positions.end(), pos.begin(), pos.end());
    pos_ends.push_back(static_cast<uint32_t>(positions.size()));
    max_tf = std::max(max_tf, static_cast<uint32_t>(pos.size()));
  }
};

struct InvertedIndex::DocShard {
  /// Content token -> this document's postings of it (node visit order).
  std::unordered_map<std::string, PostingColumns> postings;
  /// Direct-text token or tag -> per-path occurrence counts.
  std::unordered_map<std::string, std::unordered_map<store::PathId, uint64_t>>
      path_counts;
  /// (path, node) pairs in node visit order.
  std::vector<std::pair<store::PathId, store::NodeId>> path_nodes;
  uint64_t indexed_nodes = 0;
};

void InvertedIndex::AppendBlock(const PostingList& head,
                                const std::vector<const PostingColumns*>& parts,
                                std::vector<uint32_t>* arena) {
  // Every source as its six columns, in block order: the head's block, then
  // each part's vectors.
  using Span = std::span<const uint32_t>;
  const size_t n = head.size_;
  std::vector<std::array<Span, 6>> sources = {
      {Span(head.cols_, n), Span(head.cols_ + n, n),
       Span(head.cols_ + 2 * n, n), Span(head.cols_ + 3 * n, n),
       Span(head.deweys_, head.DeweyWords()),
       Span(head.positions_, head.PositionWords())}};
  size_t total = n;
  for (const PostingColumns* part : parts) {
    sources.push_back({part->docs, part->paths, part->dewey_ends,
                       part->pos_ends, part->deweys, part->positions});
    total += part->docs.size();
  }
  arena->push_back(static_cast<uint32_t>(total));
  for (size_t column = 0; column < 6; ++column) {
    // End offsets (columns 2 and 3) shift past the tails (columns 4 and 5)
    // of every earlier source; the rest concatenate as they are.
    const bool ends = column == 2 || column == 3;
    uint32_t shift = 0;
    for (const auto& source : sources) {
      if (!ends) {
        arena->insert(arena->end(), source[column].begin(),
                      source[column].end());
        continue;
      }
      for (uint32_t end : source[column]) arena->push_back(shift + end);
      shift += static_cast<uint32_t>(source[column + 2].size());
    }
  }
}

InvertedIndex::InvertedIndex(const store::DocumentStore* store, ThreadPool* pool)
    : store_(store) {
  IndexRange(0, pool, nullptr);
}

InvertedIndex::InvertedIndex(const InvertedIndex& base,
                             const store::DocumentStore* store,
                             store::DocId first_new_doc, ThreadPool* pool)
    : store_(store),
      terms_(base.terms_),
      path_postings_(base.path_postings_),
      nodes_by_path_(base.nodes_by_path_),
      indexed_nodes_(base.indexed_nodes_) {
  IndexRange(first_new_doc, pool, &base);
}

std::vector<std::string> InvertedIndex::AllTerms() const {
  std::unordered_set<std::string> seen;
  for (const auto& [term, entry] : terms_) seen.insert(term);
  for (const auto& [term, entry] : path_postings_) seen.insert(term);
  std::vector<std::string> terms(seen.begin(), seen.end());
  std::sort(terms.begin(), terms.end());
  return terms;
}

void InvertedIndex::IndexRange(store::DocId first_doc, ThreadPool* pool,
                               const InvertedIndex* base) {
  nodes_by_path_.resize(store_->paths().size());

  // Stage 1 (parallel): one partial index per document. Documents are
  // independent, and every shard container appends in node visit order.
  size_t doc_count = store_->DocumentCount();
  size_t new_count = doc_count > first_doc ? doc_count - first_doc : 0;
  std::vector<DocShard> shards(new_count);
  RunParallel(pool, new_count, [&](size_t d) {
    shards[d] = BuildDocShard(static_cast<store::DocId>(first_doc + d));
  });

  // Stage 2 (sequential, deterministic): visit shards in DocId order, which
  // reproduces exactly the append order of a single-threaded pass. Each
  // term collects its per-document parts; frequencies and path counts
  // accumulate. A term counts once per document toward its document
  // frequency, no matter how many nodes repeat it.
  std::unordered_map<std::string, std::vector<const PostingColumns*>> parts;
  std::unordered_map<std::string, std::unordered_map<store::PathId, uint64_t>>
      counts;
  for (const DocShard& shard : shards) {
    for (const auto& [term, columns] : shard.postings) {
      TermEntry& entry = terms_[term];
      entry.doc_freq += 1;
      entry.max_tf = std::max(entry.max_tf, columns.max_tf);
      parts[term].push_back(&columns);
    }
    for (const auto& [term, shard_counts] : shard.path_counts) {
      auto& dst = counts[term];
      for (const auto& [path, count] : shard_counts) dst[path] += count;
    }
    for (const auto& [path, node] : shard.path_nodes) {
      if (path >= nodes_by_path_.size()) nodes_by_path_.resize(path + 1);
      nodes_by_path_[path].push_back(node);
    }
    indexed_nodes_ += shard.indexed_nodes;
  }

  // Stage 3: lay out one block per term, in term order — the base's
  // postings (copied whole, column by column) followed by the new
  // documents'. The arena is then exactly the one SaveTo writes.
  static const std::vector<const PostingColumns*> kNoParts;
  std::vector<uint32_t> arena;
  arena.reserve(base != nullptr ? base->postings_.size() : 0);
  for (auto* term : SortedEntries(terms_)) {
    auto it = parts.find(term->first);
    term->second.block = static_cast<uint32_t>(arena.size());
    AppendBlock(base != nullptr ? base->Postings(term->first) : PostingList(),
                it == parts.end() ? kNoParts : it->second, &arena);
  }
  postings_.Own(std::move(arena));

  // Path postings, in term order too: each term's new per-path counts merge
  // into the base's, so its paths stay sorted and distinct with the counts
  // parallel to them.
  for (const auto& [term, ignored] : counts) path_postings_[term];
  std::vector<uint32_t> count_words;
  count_words.reserve(base != nullptr ? base->path_counts_.size() : 0);
  for (auto* term : SortedEntries(path_postings_)) {
    PathEntry& entry = term->second;
    std::map<store::PathId, uint64_t> merged;
    for (size_t i = 0; i < entry.paths.size(); ++i) {
      merged[entry.paths[i]] =
          base->CountAt(entry.counts + static_cast<uint32_t>(i));
    }
    if (auto touched = counts.find(term->first); touched != counts.end()) {
      for (const auto& [path, count] : touched->second) merged[path] += count;
    }
    entry.paths.clear();
    entry.counts = static_cast<uint32_t>(count_words.size() / 2);
    for (const auto& [path, count] : merged) {
      entry.paths.push_back(path);
      count_words.push_back(static_cast<uint32_t>(count));
      count_words.push_back(static_cast<uint32_t>(count >> 32));
    }
  }
  path_counts_.Own(std::move(count_words));
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

    // Node postings keep the full content(n) semantics of Definition 3:
    // positions per distinct token of the node's whole content.
    std::vector<std::string> tokens = Tokenize(node->ContentString());
    std::unordered_map<std::string, std::vector<uint32_t>> positions;
    for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
      positions[tokens[pos]].push_back(pos);
    }
    for (const auto& [term, pos_list] : positions) {
      shard.postings[term].Add(doc, path, id.dewey.components(), pos_list);
    }

    // Path postings (Fig. 8) index only the text a node *directly* contains,
    // so "United States" maps to trade_country/name leaf paths rather than to
    // every ancestor context.
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
    for (const std::string& term : Tokenize(direct_text)) {
      shard.path_counts[term][path] += 1;
    }

    // Tag names are indexed as keywords too (paper §5), pointing at the
    // node's own path.
    std::string tag = NormalizeToken(node->name());
    if (!tag.empty()) shard.path_counts[tag][path] += 1;
  });
  return shard;
}

namespace {

void PutNodeId(persist::ImageWriter* writer, const store::NodeId& node) {
  writer->PutU32(node.doc);
  writer->PutU32Array(node.dewey.components());
}

store::NodeId GetNodeId(persist::SectionCursor* cursor) {
  uint32_t doc = cursor->GetU32();
  return store::NodeId{doc, xml::DeweyId(cursor->GetU32Array())};
}

Status Malformed(const char* what) {
  return Status::ParseError(std::string("image index section malformed: ") +
                            what);
}

/// Structural check of the posting block at word `block` of `arena`: the
/// columns and both tails lie inside the arena and the end offsets are
/// monotone, so every PostingList read stays in bounds. Content (document
/// order, node resolution, frequencies) is the auditor's job.
Status ValidateBlock(const persist::U32View& arena, uint32_t block) {
  const uint64_t words = arena.size();
  if (block >= words) return Malformed("term offset past the posting arena");
  const uint64_t n = arena[block];
  const uint64_t cols = uint64_t{block} + 1;
  if (cols + 4 * n > words) return Malformed("posting columns past the arena");
  uint64_t block_end = cols + 4 * n;
  for (uint64_t column = 2; column <= 3; ++column) {  // dewey_end, pos_end
    uint64_t end = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t next = arena[cols + column * n + i];
      if (next < end) return Malformed("posting end offsets not monotone");
      end = next;
    }
    block_end += end;  // past that column's tail
  }
  if (block_end > words) return Malformed("posting tails past the arena");
  return Status::OK();
}

}  // namespace

Status InvertedIndex::SaveTo(persist::ImageWriter* writer) const {
  // Each arena leads its section, keeping it 4-byte aligned for LoadFrom to
  // borrow; the tables follow in sorted term order.
  writer->BeginSection(persist::SectionId::kIndexTerms);
  writer->PutU32Span(postings_.data(), postings_.size());
  writer->PutU64(terms_.size());
  for (const auto* term : SortedEntries(terms_)) {
    writer->PutString(term->first);
    writer->PutU32(term->second.block);
    writer->PutU32(term->second.max_tf);
    writer->PutU64(term->second.doc_freq);
  }
  SEDA_RETURN_IF_ERROR(writer->EndSection());

  writer->BeginSection(persist::SectionId::kIndexPaths);
  writer->PutU32Span(path_counts_.data(), path_counts_.size());
  writer->PutU64(path_postings_.size());
  for (const auto* term : SortedEntries(path_postings_)) {
    writer->PutString(term->first);
    writer->PutU32Array(term->second.paths);
    writer->PutU32(term->second.counts);
    writer->PutU32(static_cast<uint32_t>(term->second.paths.size()));
  }
  writer->PutU64(nodes_by_path_.size());
  for (const std::vector<store::NodeId>& nodes : nodes_by_path_) {
    writer->PutU64(nodes.size());
    for (const store::NodeId& node : nodes) PutNodeId(writer, node);
  }
  writer->PutU64(indexed_nodes_);
  return writer->EndSection();
}

Result<std::unique_ptr<InvertedIndex>> InvertedIndex::LoadFrom(
    std::shared_ptr<const persist::MappedImage> image,
    const store::DocumentStore* store) {
  std::unique_ptr<InvertedIndex> index(new InvertedIndex(store, LoadTag{}));

  // One linear pass: decode the term table and check each term's block as
  // it is read; the blocks themselves stay in the mapping.
  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor terms,
                        persist::OpenSection(*image, persist::SectionId::kIndexTerms));
  auto [arena, arena_words] = terms.GetU32Span();
  index->postings_.Borrow(arena, arena_words);
  uint64_t term_count = terms.GetU64();
  index->terms_.reserve(terms.BoundedCount(term_count, 20));
  for (uint64_t t = 0; t < term_count && !terms.failed(); ++t) {
    std::string term = terms.GetString();
    // Braced initializers evaluate in order: block, max_tf, doc_freq.
    TermEntry entry{terms.GetU32(), terms.GetU32(), terms.GetU64()};
    if (terms.failed()) break;
    SEDA_RETURN_IF_ERROR(ValidateBlock(index->postings_, entry.block));
    index->terms_.emplace(std::move(term), entry);
  }
  SEDA_RETURN_IF_ERROR(terms.status());

  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor paths,
                        persist::OpenSection(*image, persist::SectionId::kIndexPaths));
  auto [count_words, count_word_count] = paths.GetU32Span();
  index->path_counts_.Borrow(count_words, count_word_count);
  const uint64_t count_capacity = count_word_count / 2;
  uint64_t path_term_count = paths.GetU64();
  index->path_postings_.reserve(paths.BoundedCount(path_term_count, 16));
  for (uint64_t t = 0; t < path_term_count && !paths.failed(); ++t) {
    std::string term = paths.GetString();
    PathEntry entry{paths.GetU32Array(), paths.GetU32()};
    uint32_t count_length = paths.GetU32();
    if (paths.failed()) break;
    if (count_length != entry.paths.size()) {
      return Malformed("path count array disagrees with its path list");
    }
    if (uint64_t{entry.counts} + count_length > count_capacity) {
      return Malformed("path count array past the count arena");
    }
    index->path_postings_.emplace(std::move(term), std::move(entry));
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
  // Co-own the mapping: both arenas borrow from it.
  index->image_ = std::move(image);
  return index;
}

PostingList InvertedIndex::Postings(const std::string& term) const {
  auto it = terms_.find(term);
  if (it == terms_.end()) return PostingList();
  return PostingList(postings_.data() + it->second.block);
}

const std::vector<store::PathId>& InvertedIndex::TermPaths(
    const std::string& term) const {
  auto it = path_postings_.find(term);
  return it == path_postings_.end() ? kEmptyPaths : it->second.paths;
}

uint64_t InvertedIndex::CountAt(uint32_t index) const {
  const uint32_t* words = path_counts_.data() + 2 * size_t{index};
  return words[0] | uint64_t{words[1]} << 32;
}

uint64_t InvertedIndex::TermPathCount(const std::string& term,
                                      store::PathId path) const {
  auto it = path_postings_.find(term);
  if (it == path_postings_.end()) return 0;
  const std::vector<store::PathId>& paths = it->second.paths;
  auto at = std::lower_bound(paths.begin(), paths.end(), path);
  if (at == paths.end() || *at != path) return 0;
  return CountAt(it->second.counts + static_cast<uint32_t>(at - paths.begin()));
}

uint64_t InvertedIndex::DocumentFrequency(const std::string& term) const {
  auto it = terms_.find(term);
  return it == terms_.end() ? 0 : it->second.doc_freq;
}

uint32_t InvertedIndex::MaxTermFrequency(const std::string& term) const {
  auto it = terms_.find(term);
  return it == terms_.end() ? 0 : it->second.max_tf;
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
