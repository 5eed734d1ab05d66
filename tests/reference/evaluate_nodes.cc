#include "reference/evaluate_nodes.h"

#include <algorithm>
#include <utility>

namespace seda::reference {

using text::NodeMatch;
using text::PostingList;
using text::TextExpr;

namespace {

/// Merge-intersects two document-order match lists, combining scores.
std::vector<NodeMatch> IntersectMatches(const std::vector<NodeMatch>& a,
                                        const std::vector<NodeMatch>& b) {
  std::vector<NodeMatch> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].node < b[j].node) {
      ++i;
    } else if (b[j].node < a[i].node) {
      ++j;
    } else {
      out.push_back({a[i].node, a[i].path, a[i].score + b[j].score});
      ++i;
      ++j;
    }
  }
  return out;
}

std::vector<NodeMatch> UnionMatches(const std::vector<NodeMatch>& a,
                                    const std::vector<NodeMatch>& b) {
  std::vector<NodeMatch> out;
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].node < b[j].node)) {
      out.push_back(a[i++]);
    } else if (i >= a.size() || b[j].node < a[i].node) {
      out.push_back(b[j++]);
    } else {
      out.push_back({a[i].node, a[i].path, a[i].score + b[j].score});
      ++i;
      ++j;
    }
  }
  return out;
}

std::vector<NodeMatch> SubtractMatches(const std::vector<NodeMatch>& a,
                                       const std::vector<NodeMatch>& b) {
  std::vector<NodeMatch> out;
  size_t i = 0, j = 0;
  while (i < a.size()) {
    while (j < b.size() && b[j].node < a[i].node) ++j;
    if (j >= b.size() || !(b[j].node == a[i].node)) {
      out.push_back(a[i]);
    }
    ++i;
  }
  return out;
}

/// Complement against the node universe in one streaming pass: every
/// element/attribute node not present in `excluded` (which must be in
/// document order) is emitted with score 0. Unlike materializing kAll and
/// then subtracting, this allocates only the output.
std::vector<NodeMatch> ComplementMatches(
    const store::DocumentStore& docs, const std::vector<NodeMatch>& excluded) {
  std::vector<NodeMatch> out;
  size_t j = 0;
  docs.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    while (j < excluded.size() && excluded[j].node < id) ++j;
    if (j < excluded.size() && excluded[j].node == id) return;
    out.push_back({id, docs.paths().Find(node->ContextPath()), 0.0});
  });
  return out;
}

/// Intersects the postings of all phrase tokens per node, then verifies
/// consecutive positions.
std::vector<NodeMatch> EvaluatePhrase(const text::InvertedIndex& index,
                                      const TextExpr& expr) {
  if (expr.phrase.empty()) return {};
  struct TokenList {
    PostingList postings;
    size_t cursor;
  };
  std::vector<TokenList> lists;
  for (const auto& token : expr.phrase) {
    lists.push_back({index.Postings(token), 0});
    if (lists.back().postings.empty()) return {};
  }
  double score = 0;
  for (const auto& token : expr.phrase) score += index.Idf(token);
  std::vector<NodeMatch> out;
  // Advance over the first token's postings; align the rest.
  const PostingList& lead = lists[0].postings;
  for (size_t first = 0; first < lead.size(); ++first) {
    const store::NodeId node = lead.node(first);
    bool aligned = true;
    for (size_t t = 1; t < lists.size(); ++t) {
      const PostingList& list = lists[t].postings;
      size_t& c = lists[t].cursor;
      while (c < list.size() && list.node(c) < node) ++c;
      if (c >= list.size() || !(list.node(c) == node)) {
        aligned = false;
        break;
      }
    }
    if (!aligned) continue;
    // Check for p with p+t present in each token's positions.
    bool phrase_found = false;
    for (uint32_t p0 : lead.positions(first)) {
      bool all = true;
      for (size_t t = 1; t < lists.size(); ++t) {
        const auto positions = lists[t].postings.positions(lists[t].cursor);
        if (!std::binary_search(positions.begin(), positions.end(),
                                p0 + static_cast<uint32_t>(t))) {
          all = false;
          break;
        }
      }
      if (all) {
        phrase_found = true;
        break;
      }
    }
    if (phrase_found) out.push_back({node, lead.path(first), score});
  }
  return out;
}

}  // namespace

std::vector<NodeMatch> EvaluateNodes(const text::InvertedIndex& index,
                                     const TextExpr& expr) {
  const store::DocumentStore& docs = index.store();
  switch (expr.kind) {
    case TextExpr::Kind::kAll: {
      std::vector<NodeMatch> out;
      docs.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
        if (node->kind() == xml::NodeKind::kText) return;
        store::PathId path = docs.paths().Find(node->ContextPath());
        out.push_back({id, path, 0.0});
      });
      return out;
    }
    case TextExpr::Kind::kTerm: {
      std::vector<NodeMatch> out;
      double idf = index.Idf(expr.term);
      const PostingList postings = index.Postings(expr.term);
      for (size_t i = 0; i < postings.size(); ++i) {
        size_t tf = postings.positions(i).size();
        out.push_back({postings.node(i), postings.path(i),
                       text::TermContentScore(idf, tf)});
      }
      return out;
    }
    case TextExpr::Kind::kPhrase:
      return EvaluatePhrase(index, expr);
    case TextExpr::Kind::kAnd: {
      std::vector<NodeMatch> positive;
      bool have_positive = false;
      std::vector<const TextExpr*> negatives;
      for (const auto& child : expr.children) {
        if (child->kind == TextExpr::Kind::kNot) {
          negatives.push_back(child->children.front().get());
          continue;
        }
        auto matches = EvaluateNodes(index, *child);
        if (!have_positive) {
          positive = std::move(matches);
          have_positive = true;
        } else {
          positive = IntersectMatches(positive, matches);
        }
      }
      if (!have_positive) {
        // Pure negation: complement the union of the negatives against the
        // universe in one pass (identical to materializing kAll and
        // subtracting each negative, minus the universe-sized temporaries).
        std::vector<NodeMatch> excluded;
        for (const TextExpr* neg : negatives) {
          excluded = UnionMatches(excluded, EvaluateNodes(index, *neg));
        }
        return ComplementMatches(docs, excluded);
      }
      for (const TextExpr* neg : negatives) {
        positive = SubtractMatches(positive, EvaluateNodes(index, *neg));
      }
      return positive;
    }
    case TextExpr::Kind::kOr: {
      std::vector<NodeMatch> out;
      for (const auto& child : expr.children) {
        out = UnionMatches(out, EvaluateNodes(index, *child));
      }
      return out;
    }
    case TextExpr::Kind::kNot: {
      // Anti-join against the universe without materializing it twice: the
      // old universe-then-subtract allocated two universe-sized vectors.
      return ComplementMatches(docs,
                               EvaluateNodes(index, *expr.children.front()));
    }
  }
  return {};
}

}  // namespace seda::reference
