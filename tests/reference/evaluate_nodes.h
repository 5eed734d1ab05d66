#ifndef SEDA_TESTS_REFERENCE_EVALUATE_NODES_H_
#define SEDA_TESTS_REFERENCE_EVALUATE_NODES_H_

#include <vector>

#include "text/inverted_index.h"
#include "text/text_expr.h"

namespace seda::reference {

/// Materializing evaluator of a full-text expression: the oracle the exec
/// cursors (src/exec/) are checked against. Returns scored node matches in
/// document order; kAll yields every element/attribute node (score 0), NOT
/// and pure negation are single-pass anti-joins against that universe.
/// Scores come from text::TermContentScore, as in the cursors, so both
/// evaluators agree bit for bit.
std::vector<text::NodeMatch> EvaluateNodes(const text::InvertedIndex& index,
                                           const text::TextExpr& expr);

}  // namespace seda::reference

#endif  // SEDA_TESTS_REFERENCE_EVALUATE_NODES_H_
