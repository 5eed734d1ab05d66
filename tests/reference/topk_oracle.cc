#include "reference/topk_oracle.h"

#include <algorithm>

#include "exec/cursor.h"
#include "reference/evaluate_nodes.h"

namespace seda::reference {

std::vector<std::vector<text::NodeMatch>> TopKOracle::Candidates(
    const query::Query& query) const {
  const store::DocumentStore& store = index_->store();
  std::vector<std::vector<text::NodeMatch>> out;
  for (const query::QueryTerm& term : query.terms) {
    const bool structure_only =
        term.search == nullptr || term.search->kind == text::TextExpr::Kind::kAll;
    const text::TextExpr any;  // kAll: every element and attribute node
    std::vector<text::NodeMatch> matches;
    for (text::NodeMatch match :
         EvaluateNodes(*index_, structure_only ? any : *term.search)) {
      const xml::Node* node = store.GetNode(match.node);
      if (!term.context.Matches(node->ContextPath(), node->name())) continue;
      if (structure_only) match.score = exec::kStructureOnlyScore;
      matches.push_back(match);
    }
    out.push_back(std::move(matches));
  }
  return out;
}

std::optional<topk::ScoredTuple> TopKOracle::Score(
    const std::vector<text::NodeMatch>& nodes, size_t max_connect_depth) const {
  std::vector<store::NodeId> ids;
  topk::ScoredTuple tuple;
  for (const text::NodeMatch& match : nodes) {
    if (std::find(ids.begin(), ids.end(), match.node) != ids.end()) {
      return std::nullopt;
    }
    ids.push_back(match.node);
    tuple.content_score += match.score;
  }
  std::optional<size_t> size = graph_->ConnectionSize(ids, max_connect_depth);
  if (!size.has_value()) return std::nullopt;
  tuple.nodes = nodes;
  tuple.connection_size = *size;
  tuple.score =
      tuple.content_score * (1.0 / (1.0 + static_cast<double>(*size)));
  return tuple;
}

std::vector<topk::ScoredTuple> TopKOracle::Rank(const query::Query& query,
                                                bool cross_document,
                                                size_t max_connect_depth) const {
  const std::vector<std::vector<text::NodeMatch>> candidates = Candidates(query);
  std::vector<topk::ScoredTuple> ranked;
  std::vector<text::NodeMatch> tuple;
  auto extend = [&](auto&& self, size_t term) -> void {
    if (term == candidates.size()) {
      if (auto scored = Score(tuple, max_connect_depth)) {
        ranked.push_back(std::move(*scored));
      }
      return;
    }
    for (const text::NodeMatch& match : candidates[term]) {
      if (!cross_document && !tuple.empty() &&
          match.node.doc != tuple.front().node.doc) {
        continue;
      }
      tuple.push_back(match);
      self(self, term + 1);
      tuple.pop_back();
    }
  };
  if (!candidates.empty()) extend(extend, 0);
  std::sort(ranked.begin(), ranked.end(), RankLess);
  return ranked;
}

bool TopKOracle::RankLess(const topk::ScoredTuple& a,
                          const topk::ScoredTuple& b) {
  if (a.score != b.score) return a.score > b.score;
  for (size_t i = 0; i < a.nodes.size() && i < b.nodes.size(); ++i) {
    if (!(a.nodes[i].node == b.nodes[i].node)) {
      return a.nodes[i].node < b.nodes[i].node;
    }
  }
  return false;
}

}  // namespace seda::reference
