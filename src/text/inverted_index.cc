#include "text/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <ranges>
#include <string_view>
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

namespace {

constexpr uint32_t kNoTerm = 0xFFFFFFFFu;

/// Strings -> dense ids in first-insertion order: an open-addressing table
/// over one contiguous character arena, each id's hash kept beside it so a
/// second table can intern the same string without rehashing it.
class TermIds {
 public:
  static uint64_t Hash(std::string_view s) {
    return std::hash<std::string_view>()(s);
  }

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  std::string_view name(uint32_t id) const {
    return {chars_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }

  uint32_t Intern(std::string_view s) { return Intern(s, Hash(s)); }
  /// The id of `s` (whose Hash is `hash`), added when absent.
  uint32_t Intern(std::string_view s, uint64_t hash) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    uint32_t& slot = slots_[Probe(s, hash)];
    if (slot == 0) {
      hashes_.push_back(hash);
      chars_.append(s);
      offsets_.push_back(static_cast<uint32_t>(chars_.size()));
      slot = size();
    }
    return slot - 1;
  }
  /// The id of `s`, or kNoTerm.
  uint32_t Find(std::string_view s) const {
    if (slots_.empty()) return kNoTerm;
    return slots_[Probe(s, Hash(s))] - 1;  // an empty slot gives kNoTerm
  }

 private:
  /// The slot holding `s`, or the empty slot where it belongs.
  size_t Probe(std::string_view s, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      uint32_t id = slots_[i];
      if (id == 0 || (hashes_[id - 1] == hash && name(id - 1) == s)) return i;
    }
  }
  void Grow() {
    std::vector<uint32_t> slots(std::max<size_t>(64, 2 * slots_.size()), 0);
    const size_t mask = slots.size() - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      size_t i = hashes_[id] & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = id + 1;
    }
    slots_ = std::move(slots);
  }

  std::string chars_;
  std::vector<uint32_t> offsets_ = {0};
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;  ///< id + 1, or 0 when empty
};

}  // namespace

/// One document's partial index over doc-local term ids (numbered in first
/// occurrence order), from one preorder walk. Text and attribute leaves are
/// tokenized once, into tokens_; since content(n) joins its pieces with a
/// space and no token straddles a separator, an element's or attribute's
/// content is exactly the token range its subtree appended. Only elements
/// have children (text and attribute nodes are leaves), and a path's last
/// step is the node's own name.
struct InvertedIndex::DocShard {
  /// An indexed element or attribute node, in visit order.
  struct IndexedNode {
    store::PathId path = store::kInvalidPathId;
    uint32_t dewey_begin = 0, dewey_end = 0;    ///< its Dewey ID, in deweys
    uint32_t tokens_begin = 0, tokens_end = 0;  ///< its content(n)
  };
  /// One local term's postings in this document, laid out as the tail of
  /// a posting block: [path x n] [dewey_end x n] [pos_end x n] [Dewey
  /// components] [positions], end offsets counted from the run's own tails.
  /// Copying a run into a block reads one contiguous range.
  struct Run {
    uint32_t begin = 0;  ///< word offset in runs
    uint32_t count = 0;  ///< postings; 0 when the term has none here
    uint32_t dewey_words = 0, position_words = 0, max_tf = 0;
  };
  /// A (local term, path) pair of the path index and its occurrences.
  struct PathCount {
    uint32_t term = 0;
    store::PathId path = store::kInvalidPathId;
    uint32_t count = 0;
  };

  /// Walks document `doc` of `store`.
  void Build(const store::DocumentStore& store, store::DocId doc);

  TermIds terms;
  std::vector<IndexedNode> nodes;
  std::vector<uint32_t> deweys;
  std::vector<Run> term_runs;  ///< by local term
  std::vector<uint32_t> runs;
  std::vector<PathCount> path_counts;  ///< sorted by (term, path), distinct

 private:
  /// Appends `text`'s tokens to tokens_ and, when `path` is valid, counts
  /// each as direct text of `path`.
  void AddLeafText(const std::string& text, store::PathId path);
  void Visit(const xml::Node* node, store::PathId parent_path);
  void BuildPostings();

  // Walk state, released when Build returns.
  const store::PathDictionary* dict_ = nullptr;
  std::string path_text_;         ///< the visited node's context path
  std::vector<uint32_t> tokens_;  ///< the document's tokens, in order
  /// (local term, path) per direct-text token and per tag occurrence.
  std::vector<std::pair<uint32_t, store::PathId>> occurrences_;
  std::unordered_map<store::PathId, uint32_t> tag_of_path_;
};

struct InvertedIndex::NewPostings {
  /// The term's postings in one document: its run in that document's shard.
  struct Part {
    const uint32_t* run = nullptr;  ///< a DocShard::Run's words
    store::DocId doc = 0;
    uint32_t count = 0;
  };
  std::vector<Part> parts;  ///< DocId order
  size_t count = 0, dewey_words = 0, position_words = 0;
  uint32_t max_tf = 0;
};

void InvertedIndex::DocShard::Build(const store::DocumentStore& store,
                                    store::DocId doc) {
  dict_ = &store.paths();
  if (const xml::Node* root = store.document(doc).root()) {
    Visit(root, store::kInvalidPathId);
  }
  BuildPostings();

  std::sort(occurrences_.begin(), occurrences_.end());
  for (const auto& [term, path] : occurrences_) {
    if (!path_counts.empty() && path_counts.back().term == term &&
        path_counts.back().path == path) {
      ++path_counts.back().count;
    } else {
      path_counts.push_back({term, path, 1});
    }
  }
  path_text_ = {};
  tokens_ = {};
  occurrences_ = {};
  tag_of_path_ = {};
}

void InvertedIndex::DocShard::AddLeafText(const std::string& text,
                                          store::PathId path) {
  ForEachToken(text, [&](std::string_view token) {
    const uint32_t term = terms.Intern(token);
    tokens_.push_back(term);
    // Path postings (Fig. 8) index only the text a node directly contains,
    // so "United States" maps to trade_country/name leaf paths rather than
    // to every ancestor context.
    if (path != store::kInvalidPathId) occurrences_.emplace_back(term, path);
  });
}

void InvertedIndex::DocShard::Visit(const xml::Node* node,
                                    store::PathId parent_path) {
  if (node->kind() == xml::NodeKind::kText) {
    AddLeafText(node->text(), parent_path);
    return;
  }
  const size_t parent_length = path_text_.size();
  path_text_ += node->kind() == xml::NodeKind::kAttribute ? "/@" : "/";
  path_text_ += node->name();
  const store::PathId path = dict_->Find(path_text_);
  const size_t slot = nodes.size();
  if (path != store::kInvalidPathId) {
    const std::vector<uint32_t>& dewey = node->dewey().components();
    const uint32_t dewey_begin = static_cast<uint32_t>(deweys.size());
    deweys.insert(deweys.end(), dewey.begin(), dewey.end());
    nodes.push_back({path, dewey_begin, static_cast<uint32_t>(deweys.size()),
                     static_cast<uint32_t>(tokens_.size()), 0});
    // Tag names are indexed as keywords too (paper §5), pointing at the
    // node's own path.
    auto [tag, fresh] = tag_of_path_.try_emplace(path, kNoTerm);
    if (fresh) {
      std::string name = NormalizeToken(node->name());
      if (!name.empty()) tag->second = terms.Intern(name);
    }
    if (tag->second != kNoTerm) occurrences_.emplace_back(tag->second, path);
  }
  if (node->kind() == xml::NodeKind::kAttribute) {
    AddLeafText(node->text(), path);
  } else {
    for (const auto& child : node->children()) Visit(child.get(), path);
  }
  if (path != store::kInvalidPathId) {
    nodes[slot].tokens_end = static_cast<uint32_t>(tokens_.size());
  }
  path_text_.resize(parent_length);
}

void InvertedIndex::DocShard::BuildPostings() {
  // Node postings keep the full content(n) semantics of Definition 3:
  // positions per distinct token of the node's whole content. A stamp per
  // local term finds each node's distinct terms; their position lists are
  // laid out back to back in first-occurrence order.
  struct Posting {
    uint32_t node, pos_begin, pos_count;
  };
  const size_t term_count = terms.size();
  std::vector<uint32_t> stamp(term_count, kNoTerm), count(term_count),
      next(term_count);
  std::vector<uint32_t> distinct, positions;
  std::vector<Posting> by_node;   // node visit order
  std::vector<uint32_t> term_of;  // parallel to by_node
  term_runs.resize(term_count);
  for (uint32_t n = 0; n < nodes.size(); ++n) {
    const IndexedNode& node = nodes[n];
    distinct.clear();
    for (uint32_t i = node.tokens_begin; i < node.tokens_end; ++i) {
      const uint32_t term = tokens_[i];
      if (stamp[term] != n) {
        stamp[term] = n;
        count[term] = 0;
        distinct.push_back(term);
      }
      ++count[term];
    }
    uint32_t at = static_cast<uint32_t>(positions.size());
    positions.resize(at + (node.tokens_end - node.tokens_begin));
    for (uint32_t term : distinct) {
      next[term] = at;
      by_node.push_back({n, at, count[term]});
      term_of.push_back(term);
      at += count[term];
      Run& run = term_runs[term];
      ++run.count;
      run.dewey_words += node.dewey_end - node.dewey_begin;
      run.position_words += count[term];
      run.max_tf = std::max(run.max_tf, count[term]);
    }
    for (uint32_t i = node.tokens_begin; i < node.tokens_end; ++i) {
      positions[next[tokens_[i]]++] = i - node.tokens_begin;
    }
  }

  // Lay the runs out in local term order; postings fill their term's run in
  // node visit order.
  struct Cursor {
    uint32_t* paths;
    uint32_t* dewey_ends;
    uint32_t* pos_ends;
    uint32_t* deweys;
    uint32_t* positions;
    uint32_t dewey_at = 0, pos_at = 0;
  };
  size_t words = 0;
  for (Run& run : term_runs) {
    run.begin = static_cast<uint32_t>(words);
    words += 3 * size_t{run.count} + run.dewey_words + run.position_words;
  }
  runs.resize(words);
  std::vector<Cursor> cursors(term_count);
  for (size_t t = 0; t < term_count; ++t) {
    const Run& run = term_runs[t];
    uint32_t* paths = runs.data() + run.begin;
    cursors[t] = {paths, paths + run.count, paths + 2 * run.count,
                  paths + 3 * run.count,
                  paths + 3 * run.count + run.dewey_words};
  }
  for (size_t k = 0; k < by_node.size(); ++k) {
    const Posting& posting = by_node[k];
    const IndexedNode& node = nodes[posting.node];
    Cursor& at = cursors[term_of[k]];
    *at.paths++ = node.path;
    at.deweys = std::copy(deweys.begin() + node.dewey_begin,
                          deweys.begin() + node.dewey_end, at.deweys);
    at.dewey_at += node.dewey_end - node.dewey_begin;
    *at.dewey_ends++ = at.dewey_at;
    at.positions = std::copy_n(positions.begin() + posting.pos_begin,
                               posting.pos_count, at.positions);
    at.pos_at += posting.pos_count;
    *at.pos_ends++ = at.pos_at;
  }
}

void InvertedIndex::AppendBlock(const PostingList& head,
                                const NewPostings& added,
                                std::vector<uint32_t>* arena) {
  const size_t head_n = head.size_;
  const size_t n = head_n + added.count;
  const size_t dewey_words = head.DeweyWords() + added.dewey_words;
  const size_t block = arena->size();
  arena->resize(block + 1 + 4 * n + dewey_words + head.PositionWords() +
                added.position_words);
  uint32_t* out = arena->data() + block;
  out[0] = static_cast<uint32_t>(n);
  uint32_t* docs = out + 1;
  uint32_t* paths = docs + n;
  uint32_t* dewey_ends = paths + n;
  uint32_t* pos_ends = dewey_ends + n;
  uint32_t* deweys = pos_ends + n;
  uint32_t* positions = deweys + dewey_words;

  // The head's columns copy whole: its end offsets stay valid, as its tails
  // lead the block's. Each run then follows, its end offsets shifted past
  // the tails before it.
  docs = std::copy_n(head.cols_, head_n, docs);
  paths = std::copy_n(head.cols_ + head_n, head_n, paths);
  dewey_ends = std::copy_n(head.cols_ + 2 * head_n, head_n, dewey_ends);
  pos_ends = std::copy_n(head.cols_ + 3 * head_n, head_n, pos_ends);
  deweys = std::copy_n(head.deweys_, head.DeweyWords(), deweys);
  positions = std::copy_n(head.positions_, head.PositionWords(), positions);
  uint32_t dewey_at = head.DeweyWords(), pos_at = head.PositionWords();
  for (const NewPostings::Part& part : added.parts) {
    const uint32_t k = part.count;
    const uint32_t* run = part.run;
    const uint32_t run_dewey_words = run[2 * k - 1];
    const uint32_t run_position_words = run[3 * k - 1];
    docs = std::fill_n(docs, k, part.doc);
    paths = std::copy_n(run, k, paths);
    for (uint32_t i = 0; i < k; ++i) {
      *dewey_ends++ = dewey_at + run[k + i];
      *pos_ends++ = pos_at + run[2 * k + i];
    }
    deweys = std::copy_n(run + 3 * k, run_dewey_words, deweys);
    positions = std::copy_n(run + 3 * k + run_dewey_words, run_position_words,
                            positions);
    dewey_at += run_dewey_words;
    pos_at += run_position_words;
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

  // Stage 1 (parallel): one shard per document, over doc-local term ids.
  // Documents are independent, so shards can be built in any order.
  size_t doc_count = store_->DocumentCount();
  size_t new_count = doc_count > first_doc ? doc_count - first_doc : 0;
  std::vector<DocShard> shards(new_count);
  RunParallel(pool, new_count, [&](size_t d) {
    shards[d].Build(*store_, static_cast<store::DocId>(first_doc + d));
  });

  // Stage 2 (sequential, deterministic): visit shards in DocId order and
  // remap their local ids to build ids. Each term collects its
  // per-document parts (one per document, so doc_freq counts documents),
  // its block's size and its (path, count) pairs.
  struct BuildCount {
    uint32_t term;
    store::PathId path;
    uint64_t count;
  };
  TermIds ids;
  std::vector<NewPostings> added;  // by build id
  std::vector<BuildCount> counts;
  std::vector<uint32_t> remap;
  for (uint32_t d = 0; d < shards.size(); ++d) {
    DocShard& shard = shards[d];
    remap.resize(shard.terms.size());
    for (uint32_t t = 0; t < shard.terms.size(); ++t) {
      const uint32_t id = ids.Intern(shard.terms.name(t), shard.terms.hash(t));
      if (id == added.size()) added.emplace_back();
      remap[t] = id;
      const DocShard::Run& run = shard.term_runs[t];
      if (run.count == 0) continue;
      NewPostings& term = added[id];
      term.parts.push_back(
          {shard.runs.data() + run.begin, first_doc + d, run.count});
      term.count += run.count;
      term.dewey_words += run.dewey_words;
      term.position_words += run.position_words;
      term.max_tf = std::max(term.max_tf, run.max_tf);
    }
    for (const DocShard::PathCount& count : shard.path_counts) {
      counts.push_back({remap[count.term], count.path, count.count});
    }
    for (const DocShard::IndexedNode& node : shard.nodes) {
      nodes_by_path_[node.path].push_back(store::NodeId{
          first_doc + d,
          xml::DeweyId(std::vector<uint32_t>(
              shard.deweys.begin() + node.dewey_begin,
              shard.deweys.begin() + node.dewey_end))});
    }
    indexed_nodes_ += shard.nodes.size();
    shard.terms = {};  // the strings now live in ids
  }

  // Stage 3: lay out one block per term, in term order — the base's
  // postings (copied whole, column by column) followed by the new
  // documents'. The arena is then exactly the one SaveTo writes.
  size_t arena_words = base != nullptr ? base->postings_.size() : 0;
  for (uint32_t id = 0; id < ids.size(); ++id) {
    const NewPostings& term = added[id];
    if (term.parts.empty()) continue;
    terms_.try_emplace(std::string(ids.name(id)));
    arena_words += 1 + 4 * term.count + term.dewey_words + term.position_words;
  }
  static const NewPostings kNothingAdded;
  std::vector<uint32_t> arena;
  arena.reserve(arena_words);
  for (auto* term : SortedEntries(terms_)) {
    const uint32_t id = ids.Find(term->first);
    const NewPostings& new_postings =
        id == kNoTerm ? kNothingAdded : added[id];
    TermEntry& entry = term->second;
    entry.block = static_cast<uint32_t>(arena.size());
    entry.doc_freq += new_postings.parts.size();
    entry.max_tf = std::max(entry.max_tf, new_postings.max_tf);
    AppendBlock(base != nullptr ? base->Postings(term->first) : PostingList(),
                new_postings, &arena);
  }
  postings_.Own(std::move(arena));
  shards.clear();
  added.clear();

  // Path postings, in term order too: group the new (path, count) pairs by
  // term (a counting sort), then sort each term's base and new pairs by path
  // and sum equal paths, so paths stay sorted and distinct with the counts
  // parallel to them.
  std::vector<uint32_t> count_begin(ids.size() + 1, 0);
  for (const BuildCount& count : counts) ++count_begin[count.term + 1];
  for (size_t id = 0; id < ids.size(); ++id) {
    count_begin[id + 1] += count_begin[id];
  }
  std::vector<std::pair<store::PathId, uint64_t>> grouped(counts.size());
  {
    std::vector<uint32_t> fill(count_begin.begin(), count_begin.end() - 1);
    for (const BuildCount& count : counts) {
      grouped[fill[count.term]++] = {count.path, count.count};
    }
  }
  for (uint32_t id = 0; id < ids.size(); ++id) {
    if (count_begin[id] != count_begin[id + 1]) {
      path_postings_.try_emplace(std::string(ids.name(id)));
    }
  }
  std::vector<uint32_t> count_words;
  count_words.reserve(2 * counts.size() +
                      (base != nullptr ? base->path_counts_.size() : 0));
  std::vector<std::pair<store::PathId, uint64_t>> merged;
  for (auto* term : SortedEntries(path_postings_)) {
    PathEntry& entry = term->second;
    merged.clear();
    for (size_t i = 0; i < entry.paths.size(); ++i) {
      merged.emplace_back(entry.paths[i],
                          base->CountAt(entry.counts + static_cast<uint32_t>(i)));
    }
    if (const uint32_t id = ids.Find(term->first); id != kNoTerm) {
      merged.insert(merged.end(), grouped.begin() + count_begin[id],
                    grouped.begin() + count_begin[id + 1]);
    }
    std::sort(merged.begin(), merged.end());
    entry.paths.clear();
    entry.counts = static_cast<uint32_t>(count_words.size() / 2);
    for (size_t i = 0; i < merged.size();) {
      const store::PathId path = merged[i].first;
      uint64_t count = 0;
      for (; i < merged.size() && merged[i].first == path; ++i) {
        count += merged[i].second;
      }
      entry.paths.push_back(path);
      count_words.push_back(static_cast<uint32_t>(count));
      count_words.push_back(static_cast<uint32_t>(count >> 32));
    }
  }
  path_counts_.Own(std::move(count_words));
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
