#ifndef SEDA_TESTS_REFERENCE_COMPLETE_ORACLE_H_
#define SEDA_TESTS_REFERENCE_COMPLETE_ORACLE_H_

#include <vector>

#include "reference/bfs.h"
#include "text/inverted_index.h"
#include "twig/twig.h"

namespace seda::reference {

/// The complete result R(q) of paper §7 by a backtracking nested-loop join:
/// the oracle twig::CompleteResultGenerator::Execute is checked against.
/// Each term ranges over the nodes at its bound path (found by walking the
/// store's trees) that match its search expression (EvaluateNodes). As soon
/// as both ends of a predicate are bound it is checked literally:
///  - a chosen tree connection: the two nodes' lowest common ancestor sits
///    exactly at `join_path` (same document, Dewey prefix of that depth);
///  - a chosen link connection: some node at `source_path` anchored to term
///    a's node and some node at `target_path` anchored to term b's node
///    share a non-tree edge (either direction) with the chosen label (any
///    label when empty). A node is anchored to another when both descend
///    from one instance of the deepest common prefix of their paths, which
///    makes an endpoint on the node's own path its ancestor;
///  - a pair with no chosen connection whose paths share the document root
///    label: the default tree join, the lowest common ancestor exactly at
///    the deepest common prefix of the two paths.
/// Pairs with no chosen connection and different roots are unconstrained.
/// Returns the tuples in lexicographic node order with the paths filled in.
/// Slow by design; tests and benches only.
std::vector<twig::ResultTuple> CompleteResults(
    const text::InvertedIndex& index, const ReferenceGraph& graph,
    const std::vector<twig::TermBinding>& terms,
    const std::vector<twig::ChosenConnection>& connections);

}  // namespace seda::reference

#endif  // SEDA_TESTS_REFERENCE_COMPLETE_ORACLE_H_
