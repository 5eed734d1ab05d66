#include "exec/cursor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace seda::exec {

namespace {

using store::NodeId;
using text::NodeMatch;
using text::PostingList;
using text::TextExpr;

/// Sorted-access cursor over one term's posting list, read in place.
/// Scores are computed lazily per posting with text::TermContentScore.
class TermCursor final : public MatchCursor {
 public:
  TermCursor(PostingList postings, double idf, uint32_t max_tf,
             CursorStats* stats)
      : postings_(postings), idf_(idf), stats_(stats) {
    max_score_ = Score(max_tf);
    if (!postings_.empty()) SetCurrent();
  }

  bool AtEnd() const override { return pos_ >= postings_.size(); }
  const NodeMatch& Current() const override { return current_; }
  double MaxScore() const override { return max_score_; }

  void Next() override {
    ++pos_;
    if (!AtEnd()) SetCurrent();
  }

  void Seek(const NodeId& target) override {
    if (AtEnd() || !(current_.node < target)) return;
    store::DocId old_doc = current_.node.doc;
    pos_ = postings_.LowerBound(pos_, target);
    if (!AtEnd()) {
      SetCurrent();
      SEDA_DCHECK(!(current_.node < target))
          << "term cursor seek went backwards";
      if (current_.node.doc > old_doc) {
        stats_->docs_skipped += current_.node.doc - old_doc;
      }
    }
  }

 private:
  double Score(size_t tf) const { return text::TermContentScore(idf_, tf); }

  void SetCurrent() {
    SEDA_DCHECK_LT(pos_, postings_.size())
        << "term cursor positioned past its posting list";
    current_ = {postings_.node(pos_), postings_.path(pos_),
                Score(postings_.positions(pos_).size())};
    ++stats_->postings_advanced;
  }

  PostingList postings_;
  double idf_;
  CursorStats* stats_;
  double max_score_ = 0.0;
  size_t pos_ = 0;
  NodeMatch current_;
};

/// Position-intersection cursor for phrase queries: aligns every token's
/// posting list on one node, then verifies consecutive positions.
class PhraseCursor final : public MatchCursor {
 public:
  PhraseCursor(std::vector<PostingList> lists, double score, CursorStats* stats)
      : lists_(std::move(lists)),
        cursor_(lists_.size(), 0),
        score_(score),
        stats_(stats) {
    for (const PostingList& list : lists_) {
      if (list.empty()) {
        exhausted_ = true;
        return;
      }
    }
    if (lists_.empty()) {
      exhausted_ = true;
      return;
    }
    AdvanceToMatch();
  }

  bool AtEnd() const override { return exhausted_; }
  const NodeMatch& Current() const override { return current_; }
  double MaxScore() const override { return score_; }

  void Next() override {
    if (exhausted_) return;
    ++cursor_[0];
    ++stats_->postings_advanced;
    AdvanceToMatch();
  }

  void Seek(const NodeId& target) override {
    if (exhausted_ || !(current_.node < target)) return;
    const PostingList& lead = lists_[0];
    store::DocId old_doc = current_.node.doc;
    cursor_[0] = lead.LowerBound(cursor_[0], target);
    if (cursor_[0] < lead.size() && lead.doc(cursor_[0]) > old_doc) {
      stats_->docs_skipped += lead.doc(cursor_[0]) - old_doc;
    }
    AdvanceToMatch();
  }

 private:
  /// From the leader's current posting onward, finds the next node where all
  /// token lists align and the phrase's positions are consecutive. The
  /// exec_test equivalence suite (incl. random-expression property tests)
  /// checks it against the reference evaluator's phrase loop.
  void AdvanceToMatch() {
    const PostingList& lead = lists_[0];
    for (; cursor_[0] < lead.size(); ++cursor_[0], ++stats_->postings_advanced) {
      const size_t first = cursor_[0];
      const store::DocId doc = lead.doc(first);
      const std::span<const uint32_t> dewey = lead.dewey(first);
      bool aligned = true;
      for (size_t t = 1; t < lists_.size(); ++t) {
        const PostingList& list = lists_[t];
        size_t& c = cursor_[t];
        while (c < list.size() && list.Before(c, doc, dewey)) {
          ++c;
          ++stats_->postings_advanced;
        }
        // list[c] >= lead[first]; they align unless lead[first] is before.
        if (c >= list.size() ||
            lead.Before(first, list.doc(c), list.dewey(c))) {
          aligned = false;
          break;
        }
      }
      if (!aligned) continue;
      for (uint32_t p0 : lead.positions(first)) {
        bool all = true;
        for (size_t t = 1; t < lists_.size(); ++t) {
          const auto positions = lists_[t].positions(cursor_[t]);
          if (!std::binary_search(positions.begin(), positions.end(),
                                  p0 + static_cast<uint32_t>(t))) {
            all = false;
            break;
          }
        }
        if (all) {
          current_ = {lead.node(first), lead.path(first), score_};
          return;
        }
      }
    }
    exhausted_ = true;
  }

  std::vector<PostingList> lists_;
  std::vector<size_t> cursor_;
  double score_;
  CursorStats* stats_;
  bool exhausted_ = false;
  NodeMatch current_;
};

/// Streams every element/attribute node of the collection in document order
/// — the lazy replacement for materializing the kAll universe. Iteration is
/// an explicit pre-order stack per document, so memory stays O(tree depth).
class UniverseCursor final : public MatchCursor {
 public:
  UniverseCursor(const store::DocumentStore& store, CursorStats* stats)
      : store_(store), stats_(stats) {
    LoadDoc(0);
    AdvanceToNode();
  }

  bool AtEnd() const override { return exhausted_; }
  const NodeMatch& Current() const override { return current_; }
  double MaxScore() const override { return 0.0; }

  void Next() override {
    if (exhausted_) return;
    pending_current_ = false;
    AdvanceToNode();
  }

  void Seek(const NodeId& target) override {
    if (exhausted_ || !(current_.node < target)) return;
    if (target.doc > doc_) {
      stats_->docs_skipped += target.doc - doc_;
      LoadDoc(target.doc);
      pending_current_ = false;
    }
    seek_target_ = target;
    seeking_ = true;
    pending_current_ = false;
    AdvanceToNode();
    seeking_ = false;
  }

 private:
  void LoadDoc(store::DocId doc) {
    doc_ = doc;
    stack_.clear();
    if (doc_ < store_.DocumentCount()) {
      if (xml::Node* root = store_.document(doc_).root()) stack_.push_back(root);
    }
  }

  /// Pops the pre-order stack until positioned on an element/attribute node
  /// (>= the seek target while seeking), rolling over to the next document
  /// when a tree is exhausted. Subtrees that cannot contain the seek target
  /// are dropped without visiting their nodes.
  void AdvanceToNode() {
    if (pending_current_) return;
    for (;;) {
      if (stack_.empty()) {
        if (doc_ + 1 >= store_.DocumentCount()) {
          exhausted_ = true;
          return;
        }
        LoadDoc(doc_ + 1);
        continue;
      }
      xml::Node* node = stack_.back();
      stack_.pop_back();
      if (seeking_ && doc_ == seek_target_.doc &&
          node->dewey() < seek_target_.dewey &&
          !node->dewey().IsAncestorOrSelf(seek_target_.dewey)) {
        // The whole subtree precedes the target in document order.
        continue;
      }
      const auto& children = node->children();
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack_.push_back(it->get());
      }
      if (node->kind() == xml::NodeKind::kText) continue;
      if (seeking_ && doc_ == seek_target_.doc &&
          node->dewey() < seek_target_.dewey) {
        continue;  // ancestor of the target: visited but before it
      }
      ++stats_->postings_advanced;
      NodeId id{doc_, node->dewey()};
      current_ = {id, store_.paths().Find(node->ContextPath()), 0.0};
      pending_current_ = true;
      return;
    }
  }

  const store::DocumentStore& store_;
  CursorStats* stats_;
  store::DocId doc_ = 0;
  std::vector<xml::Node*> stack_;
  NodeMatch current_;
  bool pending_current_ = false;
  bool exhausted_ = false;
  bool seeking_ = false;
  NodeId seek_target_;
};

/// The context-restricted node universe: a doc-ordered merge over the
/// per-path node lists of the allowed paths (disjoint — a node has exactly
/// one path), instead of scanning every node and discarding. This is what
/// "NOT x" or "*" inside a restricted term iterates, so a term like
/// (name, NOT x) touches |name nodes| postings rather than the collection.
class PathUnionCursor final : public MatchCursor {
 public:
  PathUnionCursor(const text::InvertedIndex& index,
                  std::vector<store::PathId> paths, CursorStats* stats)
      : stats_(stats) {
    std::sort(paths.begin(), paths.end());
    for (store::PathId path : paths) {
      const std::vector<NodeId>& nodes = index.NodesWithPath(path);
      if (!nodes.empty()) lists_.push_back({path, &nodes, 0});
    }
    for (size_t i = 0; i < lists_.size(); ++i) heap_.push_back(i);
    std::make_heap(heap_.begin(), heap_.end(), After());
    Position();
  }

  bool AtEnd() const override { return exhausted_; }
  const NodeMatch& Current() const override { return current_; }
  double MaxScore() const override { return 0.0; }

  void Next() override {
    if (exhausted_) return;
    List& list = lists_[top_];
    ++list.pos;
    if (list.pos < list.nodes->size()) {
      heap_.push_back(top_);
      std::push_heap(heap_.begin(), heap_.end(), After());
    }
    Position();
  }

  void Seek(const NodeId& target) override {
    if (exhausted_ || !(current_.node < target)) return;
    heap_.push_back(top_);
    std::vector<size_t> alive;
    for (size_t i : heap_) {
      List& list = lists_[i];
      auto begin = list.nodes->begin() + static_cast<ptrdiff_t>(list.pos);
      auto it = std::lower_bound(begin, list.nodes->end(), target);
      list.pos = static_cast<size_t>(it - list.nodes->begin());
      if (list.pos < list.nodes->size()) alive.push_back(i);
    }
    if (target.doc > current_.node.doc) {
      stats_->docs_skipped += target.doc - current_.node.doc;
    }
    heap_ = std::move(alive);
    std::make_heap(heap_.begin(), heap_.end(), After());
    Position();
  }

 private:
  struct List {
    store::PathId path;
    const std::vector<NodeId>* nodes;
    size_t pos;
    const NodeId& Front() const { return (*nodes)[pos]; }
  };

  /// Heap "less": list whose frontier comes later sinks, so front = minimum.
  struct AfterCmp {
    const std::vector<List>* lists;
    bool operator()(size_t a, size_t b) const {
      return (*lists)[b].Front() < (*lists)[a].Front();
    }
  };
  AfterCmp After() { return AfterCmp{&lists_}; }

  void Position() {
    if (heap_.empty()) {
      exhausted_ = true;
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), After());
    top_ = heap_.back();
    heap_.pop_back();
    const List& list = lists_[top_];
    SEDA_DCHECK_LT(list.pos, list.nodes->size())
        << "path-union heap held an exhausted list";
    current_ = {list.Front(), list.path, 0.0};
    ++stats_->postings_advanced;
  }

  std::vector<List> lists_;
  std::vector<size_t> heap_;  ///< lists with pending frontiers (top_ excluded)
  size_t top_ = 0;            ///< list currently providing current_
  CursorStats* stats_;
  bool exhausted_ = false;
  NodeMatch current_;
};

/// Conjunction: children are aligned on one node by seeking everyone to the
/// maximum frontier; the combined score is the sum of the children's scores
/// (a left fold over the children).
class AndCursor final : public MatchCursor {
 public:
  explicit AndCursor(std::vector<std::unique_ptr<MatchCursor>> children)
      : children_(std::move(children)) {
    max_score_ = 0.0;
    for (const auto& child : children_) max_score_ += child->MaxScore();
    Align();
  }

  bool AtEnd() const override { return exhausted_; }
  const NodeMatch& Current() const override { return current_; }
  double MaxScore() const override { return max_score_; }

  void Next() override {
    if (exhausted_) return;
    for (auto& child : children_) child->Next();
    Align();
  }

  void Seek(const NodeId& target) override {
    if (exhausted_ || !(current_.node < target)) return;
    for (auto& child : children_) child->Seek(target);
    Align();
  }

 private:
  void Align() {
    for (;;) {
      const NodeId* frontier = nullptr;
      bool all_equal = true;
      for (auto& child : children_) {
        if (child->AtEnd()) {
          exhausted_ = true;
          return;
        }
        const NodeId& node = child->Current().node;
        if (frontier == nullptr || *frontier < node) {
          if (frontier != nullptr) all_equal = false;
          frontier = &node;
        } else if (node < *frontier) {
          all_equal = false;
        }
      }
      if (all_equal) {
        double score = 0.0;
        for (auto& child : children_) score += child->Current().score;
        const NodeMatch& lead = children_.front()->Current();
        current_ = {lead.node, lead.path, score};
        return;
      }
      // Copy the frontier: seeking children may invalidate the reference.
      NodeId target = *frontier;
      for (auto& child : children_) {
        if (child->Current().node < target) child->Seek(target);
      }
    }
  }

  std::vector<std::unique_ptr<MatchCursor>> children_;
  double max_score_ = 0.0;
  bool exhausted_ = false;
  NodeMatch current_;
};

/// Disjunction: a doc-ordered k-way heap merge. Children positioned on the
/// same node are combined by summing scores in child order (a left fold).
class OrCursor final : public MatchCursor {
 public:
  explicit OrCursor(std::vector<std::unique_ptr<MatchCursor>> children)
      : children_(std::move(children)) {
    max_score_ = 0.0;
    for (const auto& child : children_) max_score_ += child->MaxScore();
    for (size_t i = 0; i < children_.size(); ++i) {
      if (!children_[i]->AtEnd()) heap_.push_back(i);
    }
    std::make_heap(heap_.begin(), heap_.end(), HeapAfter());
    Combine();
  }

  bool AtEnd() const override { return exhausted_; }
  const NodeMatch& Current() const override { return current_; }
  double MaxScore() const override { return max_score_; }

  void Next() override {
    if (exhausted_) return;
    for (size_t i : matched_) {
      children_[i]->Next();
      if (!children_[i]->AtEnd()) {
        heap_.push_back(i);
        std::push_heap(heap_.begin(), heap_.end(), HeapAfter());
      }
    }
    matched_.clear();
    Combine();
  }

  void Seek(const NodeId& target) override {
    if (exhausted_ || !(current_.node < target)) return;
    // Matched children sit before the target too; move everyone lagging.
    for (size_t i : matched_) heap_.push_back(i);
    matched_.clear();
    std::vector<size_t> alive;
    for (size_t i : heap_) {
      if (children_[i]->Current().node < target) children_[i]->Seek(target);
      if (!children_[i]->AtEnd()) alive.push_back(i);
    }
    heap_ = std::move(alive);
    std::make_heap(heap_.begin(), heap_.end(), HeapAfter());
    Combine();
  }

 private:
  /// Heap "less": true when a's frontier comes after b's, so the heap front
  /// is the minimum node; equal nodes break by child index to keep the
  /// left-fold combination order.
  struct HeapAfterCmp {
    const std::vector<std::unique_ptr<MatchCursor>>* children;
    bool operator()(size_t a, size_t b) const {
      const NodeId& na = (*children)[a]->Current().node;
      const NodeId& nb = (*children)[b]->Current().node;
      if (nb < na) return true;
      if (na < nb) return false;
      return a > b;
    }
  };
  HeapAfterCmp HeapAfter() { return HeapAfterCmp{&children_}; }

  /// Pops every child positioned on the minimum node and combines them.
  void Combine() {
    if (heap_.empty()) {
      exhausted_ = true;
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter());
    size_t first = heap_.back();
    heap_.pop_back();
    SEDA_DCHECK(!children_[first]->AtEnd())
        << "or-cursor heap held an exhausted child";
    matched_.push_back(first);
    const NodeId& node = children_[first]->Current().node;
    while (!heap_.empty() && children_[heap_.front()]->Current().node == node) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapAfter());
      matched_.push_back(heap_.back());
      heap_.pop_back();
    }
    // Children-index order so score accumulation matches the left fold.
    std::sort(matched_.begin(), matched_.end());
    double score = 0.0;
    for (size_t i : matched_) score += children_[i]->Current().score;
    const NodeMatch& lead = children_[matched_.front()]->Current();
    current_ = {lead.node, lead.path, score};
  }

  std::vector<std::unique_ptr<MatchCursor>> children_;
  std::vector<size_t> heap_;     ///< children with pending frontiers
  std::vector<size_t> matched_;  ///< children positioned on current_
  double max_score_ = 0.0;
  bool exhausted_ = false;
  NodeMatch current_;
};

/// Anti-join ("NOT x", and the negative legs of conjunctions): streams
/// `positive` while seeking `negative` alongside it; a
/// positive match is emitted only when the negative stream does not contain
/// its node. This is NOT x without materializing the node universe.
class NotCursor final : public MatchCursor {
 public:
  NotCursor(std::unique_ptr<MatchCursor> positive,
             std::unique_ptr<MatchCursor> negative)
      : positive_(std::move(positive)), negative_(std::move(negative)) {
    SkipExcluded();
  }

  bool AtEnd() const override { return positive_->AtEnd(); }
  const NodeMatch& Current() const override { return positive_->Current(); }
  double MaxScore() const override { return positive_->MaxScore(); }

  void Next() override {
    positive_->Next();
    SkipExcluded();
  }

  void Seek(const NodeId& target) override {
    positive_->Seek(target);
    SkipExcluded();
  }

 private:
  void SkipExcluded() {
    while (!positive_->AtEnd()) {
      const NodeId& node = positive_->Current().node;
      negative_->Seek(node);
      SEDA_DCHECK(negative_->AtEnd() || !(negative_->Current().node < node))
          << "anti-join negative stream fell behind its seek target";
      if (negative_->AtEnd() || !(negative_->Current().node == node)) return;
      positive_->Next();
    }
  }

  std::unique_ptr<MatchCursor> positive_;
  std::unique_ptr<MatchCursor> negative_;
};

/// Path-set restriction over a child cursor. The builder pushes these below
/// unions/intersections onto the leaves (restriction commutes with the
/// boolean operators since a node determines its path).
class ContextFilterCursor final : public MatchCursor {
 public:
  ContextFilterCursor(std::unique_ptr<MatchCursor> child,
                      const std::unordered_set<store::PathId>* allowed)
      : child_(std::move(child)), allowed_(allowed) {
    SkipFiltered();
  }

  bool AtEnd() const override { return child_->AtEnd(); }
  const NodeMatch& Current() const override { return child_->Current(); }
  double MaxScore() const override { return child_->MaxScore(); }

  void Next() override {
    child_->Next();
    SkipFiltered();
  }

  void Seek(const NodeId& target) override {
    child_->Seek(target);
    SkipFiltered();
  }

 private:
  void SkipFiltered() {
    while (!child_->AtEnd() && !allowed_->count(child_->Current().path)) {
      child_->Next();
    }
  }

  std::unique_ptr<MatchCursor> child_;
  const std::unordered_set<store::PathId>* allowed_;
};

/// An always-exhausted cursor (e.g. an empty phrase).
class EmptyCursor final : public MatchCursor {
 public:
  bool AtEnd() const override { return true; }
  const NodeMatch& Current() const override { return current_; }
  double MaxScore() const override { return 0.0; }
  void Next() override {}
  void Seek(const NodeId&) override {}

 private:
  NodeMatch current_;
};

std::unique_ptr<MatchCursor> WrapFilter(
    std::unique_ptr<MatchCursor> cursor,
    const std::unordered_set<store::PathId>* filter) {
  if (filter == nullptr) return cursor;
  return std::make_unique<ContextFilterCursor>(std::move(cursor), filter);
}

std::unique_ptr<MatchCursor> MakeUniverse(
    const text::InvertedIndex& index,
    const std::unordered_set<store::PathId>* filter, CursorStats* stats) {
  if (filter == nullptr) {
    return std::make_unique<UniverseCursor>(index.store(), stats);
  }
  // Restricted universe: iterate only the allowed paths' node lists instead
  // of scanning the collection and discarding.
  std::vector<store::PathId> paths(filter->begin(), filter->end());
  return std::make_unique<PathUnionCursor>(index, std::move(paths), stats);
}

}  // namespace

std::unique_ptr<MatchCursor> BuildCursor(
    const text::InvertedIndex& index, const text::TextExpr& expr,
    const std::unordered_set<store::PathId>* context_filter,
    CursorStats* stats) {
  switch (expr.kind) {
    case TextExpr::Kind::kAll:
      return MakeUniverse(index, context_filter, stats);
    case TextExpr::Kind::kTerm:
      return WrapFilter(
          std::make_unique<TermCursor>(index.Postings(expr.term),
                                       index.Idf(expr.term),
                                       index.MaxTermFrequency(expr.term), stats),
          context_filter);
    case TextExpr::Kind::kPhrase: {
      if (expr.phrase.empty()) return std::make_unique<EmptyCursor>();
      std::vector<PostingList> lists;
      double score = 0.0;
      for (const auto& token : expr.phrase) {
        lists.push_back(index.Postings(token));
        score += index.Idf(token);
      }
      return WrapFilter(
          std::make_unique<PhraseCursor>(std::move(lists), score, stats),
          context_filter);
    }
    case TextExpr::Kind::kAnd: {
      std::vector<std::unique_ptr<MatchCursor>> positives;
      std::vector<const TextExpr*> negatives;
      for (const auto& child : expr.children) {
        if (child->kind == TextExpr::Kind::kNot) {
          negatives.push_back(child->children.front().get());
        } else {
          positives.push_back(BuildCursor(index, *child, context_filter, stats));
        }
      }
      std::unique_ptr<MatchCursor> cursor;
      if (positives.empty()) {
        cursor = MakeUniverse(index, context_filter, stats);
      } else if (positives.size() == 1) {
        cursor = std::move(positives.front());
      } else {
        cursor = std::make_unique<AndCursor>(std::move(positives));
      }
      for (const TextExpr* neg : negatives) {
        cursor = std::make_unique<NotCursor>(
            std::move(cursor), BuildCursor(index, *neg, context_filter, stats));
      }
      return cursor;
    }
    case TextExpr::Kind::kOr: {
      std::vector<std::unique_ptr<MatchCursor>> children;
      for (const auto& child : expr.children) {
        children.push_back(BuildCursor(index, *child, context_filter, stats));
      }
      return std::make_unique<OrCursor>(std::move(children));
    }
    case TextExpr::Kind::kNot:
      return std::make_unique<NotCursor>(
          MakeUniverse(index, context_filter, stats),
          BuildCursor(index, *expr.children.front(), context_filter, stats));
  }
  return std::make_unique<EmptyCursor>();
}

std::vector<text::NodeMatch> MaterializeCursor(MatchCursor* cursor) {
  std::vector<text::NodeMatch> out;
  for (; !cursor->AtEnd(); cursor->Next()) {
    out.push_back(cursor->Current());
  }
  return out;
}

std::vector<text::NodeMatch> EvaluateWithCursor(
    const text::InvertedIndex& index, const text::TextExpr& expr,
    const std::unordered_set<store::PathId>* context_filter,
    CursorStats* stats) {
  CursorStats local;
  if (stats == nullptr) stats = &local;
  auto cursor = BuildCursor(index, expr, context_filter, stats);
  return MaterializeCursor(cursor.get());
}

}  // namespace seda::exec
