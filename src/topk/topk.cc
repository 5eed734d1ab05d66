#include "topk/topk.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "common/bounded_topn.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "graph/csr.h"

namespace seda::topk {

namespace {

double Compactness(size_t connection_size) {
  return 1.0 / (1.0 + static_cast<double>(connection_size));
}

/// The engine's ranking order: score descending, ties by document order of
/// the first differing node — a total order over distinct tuples.
bool TupleRankLess(const ScoredTuple& a, const ScoredTuple& b) {
  if (a.score != b.score) return a.score > b.score;
  for (size_t i = 0; i < a.nodes.size() && i < b.nodes.size(); ++i) {
    if (!(a.nodes[i].node == b.nodes[i].node)) {
      return a.nodes[i].node < b.nodes[i].node;
    }
  }
  return false;
}

/// Bounded top-k buffer under the ranking order, replacing the old
/// sort-on-every-insert.
using TupleHeap =
    BoundedTopN<ScoredTuple, bool (*)(const ScoredTuple&, const ScoredTuple&)>;

}  // namespace

std::string ScoredTuple::ToString(const store::DocumentStore& store) const {
  std::string out = "score=" + std::to_string(score) + " [";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ", ";
    out += nodes[i].node.ToString();
    out += "='" + store.GetContent(nodes[i].node) + "'";
  }
  out += "]";
  return out;
}

Result<std::vector<ScoredTuple>> TopKSearcher::Search(const query::Query& query,
                                                      const TopKOptions& options,
                                                      SearchStats* stats) const {
  obs::ScopedSpan span(options.trace, "candidates");
  exec::CandidateSet candidates =
      exec::BuildCandidates(*index_, query, options.max_candidates_per_term);
  span.AddCounter("candidates_total", candidates.CandidatesTotal());
  span.End();
  return Search(query, options, candidates, stats);
}

Result<std::vector<ScoredTuple>> TopKSearcher::Search(
    const query::Query& query, const TopKOptions& options,
    const exec::CandidateSet& candidates, SearchStats* stats) const {
  if (query.terms.empty()) {
    return Status::InvalidArgument("empty query");
  }
  const size_t m = query.terms.size();

  SearchStats local_stats;
  local_stats.candidates_total = candidates.CandidatesTotal();
  local_stats.postings_advanced = candidates.stats.postings_advanced;
  local_stats.docs_skipped = candidates.stats.docs_skipped;

  obs::ScopedSpan group_span(options.trace, "group_docs");
  // Document-at-a-time alignment: the per-term score-sorted streams are
  // regrouped by candidate document, remembering each term's best content
  // score inside the document for the TA upper bound. Per-document buckets
  // keep stream (score) order, so the per-doc cap retains the best
  // candidates.
  struct DocGroup {
    std::vector<std::vector<const text::NodeMatch*>> per_term;
    double upper_bound = 0;  // sum of per-term max scores, compactness <= 1
    explicit DocGroup(size_t terms) : per_term(terms) {}
  };
  std::map<store::DocId, DocGroup> groups;
  for (size_t t = 0; t < m; ++t) {
    for (const text::NodeMatch& match : candidates.terms[t].matches) {
      auto [it, inserted] = groups.try_emplace(match.node.doc, m);
      auto& bucket = it->second.per_term[t];
      if (options.max_per_doc_per_term > 0 &&
          bucket.size() >= options.max_per_doc_per_term) {
        continue;
      }
      bucket.push_back(&match);
    }
  }

  // Cross-document tuples: allow a document to borrow candidates from
  // documents it links to (1 hop over non-tree edges), so e.g. a Mondial
  // country can pair with a Factbook country it references.
  if (options.allow_cross_document && m >= 2) {
    std::vector<std::pair<store::DocId, store::DocId>> doc_links;
    const graph::Csr* csr = graph_->csr();
    for (auto& [doc, group] : groups) {
      for (size_t t = 0; t < m; ++t) {
        for (const text::NodeMatch* match : group.per_term[t]) {
          // Hub cap (ROADMAP perf cliff): a link mediated by a node of huge
          // non-tree degree — a value-edge hub shared by hundreds of
          // documents — carries almost no connection signal but welds all
          // its documents into one cross product. The candidate's own degree
          // is loop-invariant and, when over the cap, every edge would be
          // skipped — so check it before walking the edges.
          auto v = csr != nullptr ? csr->VertexOf(match->node) : std::nullopt;
          if (!v.has_value()) continue;
          const uint32_t degree = csr->NonTreeDegreeOf(*v);
          if (options.max_hub_degree > 0 && degree > options.max_hub_degree) {
            local_stats.hub_links_skipped += degree;
            continue;
          }
          // The far ends of the candidate's edges are the tail of its row:
          // their degrees and documents need no per-edge lookup.
          const uint32_t* far = csr->NonTreeRowBegin(*v);
          for (uint32_t i = 0; i < degree; ++i) {
            // The hub may also sit on the far side, when the candidate is a
            // low-degree FK leaf pointing at it.
            if (options.max_hub_degree > 0 &&
                csr->NonTreeDegreeOf(far[i]) > options.max_hub_degree) {
              ++local_stats.hub_links_skipped;
              continue;
            }
            store::DocId other = csr->DocOf(far[i]);
            if (other != doc && groups.count(other)) {
              doc_links.emplace_back(doc, other);
            }
          }
        }
      }
    }
    for (auto& [a, b] : doc_links) {
      DocGroup& ga = groups.at(a);
      const DocGroup& gb = groups.at(b);
      for (size_t t = 0; t < m; ++t) {
        std::vector<const text::NodeMatch*>& bucket = ga.per_term[t];
        for (const text::NodeMatch* match : gb.per_term[t]) {
          if (options.max_per_doc_per_term > 0 &&
              bucket.size() >= 2 * options.max_per_doc_per_term) {
            break;
          }
          // gb may hold nodes it borrowed itself, ga's own among them; a
          // bucket lists each candidate once.
          if (std::find(bucket.begin(), bucket.end(), match) == bucket.end()) {
            bucket.push_back(match);
          }
        }
      }
    }
  }

  // Compute upper bounds and order documents by them (TA sorted access).
  std::vector<std::pair<double, store::DocId>> order;
  for (auto& [doc, group] : groups) {
    bool complete = true;
    double bound = 0;
    for (size_t t = 0; t < m; ++t) {
      if (group.per_term[t].empty()) {
        complete = false;
        break;
      }
      double best = 0;
      for (const text::NodeMatch* match : group.per_term[t]) {
        best = std::max(best, match->score);
      }
      bound += best;
    }
    if (!complete) continue;
    group.upper_bound = bound;
    order.emplace_back(bound, doc);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  local_stats.docs_considered = order.size();
  group_span.AddCounter("docs_considered", order.size());
  group_span.End();

  obs::ScopedSpan scan_span(options.trace, "ta_scan");
  // Wall time spent inside connection scoring (the RunParallel batches),
  // accumulated on the coordinating thread only — span-level attribution of
  // "TA scan vs. connection scoring" without touching the trace from
  // workers. Two extra clock reads per scored document, and only when the
  // request is traced.
  uint64_t scoring_us = 0;

  TupleHeap best(options.k, TupleRankLess);
  // Per-document scratch, reused across the scan: the tuples awaiting
  // ConnectionSize and their resulting sizes.
  std::vector<ScoredTuple> batch;
  std::vector<std::optional<size_t>> sizes;
  std::vector<graph::GraphStats> kernel_stats;
  // Mixed-document tuples already enumerated (by candidate identity: each
  // term's candidates are distinct objects, shared by every group that
  // borrows them).
  std::set<std::vector<const text::NodeMatch*>> borrowed_seen;

  // Saturating size of a group's per-term cross product, for budget
  // accounting ahead of (or instead of) enumerating it.
  auto group_product = [m](const DocGroup& group) {
    uint64_t product = 1;
    for (size_t t = 0; t < m; ++t) {
      uint64_t n = group.per_term[t].size();
      if (n != 0 && product > UINT64_MAX / n) return UINT64_MAX;
      product *= n;
    }
    return product;
  };

  // Per-request deadline (api::SedaService): the clock starts when the scan
  // does, and is consulted once per candidate document — each document's
  // batch is bounded by the structural budgets above, so the overrun past the
  // deadline is one document's worth of work, not unbounded.
  const auto scan_start = std::chrono::steady_clock::now();
  auto deadline_expired = [&]() {
    if (options.deadline_ms == 0) return false;
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - scan_start);
    return static_cast<uint64_t>(elapsed.count()) >= options.deadline_ms;
  };

  double prev_bound = std::numeric_limits<double>::infinity();
  for (const auto& [bound, doc] : order) {
    // TA correctness rests on descending upper bounds: the threshold stop
    // below is only sound if no later document can beat the current bound.
    SEDA_DCHECK_LE(bound, prev_bound) << "TA scan order not descending";
    prev_bound = bound;
    if (options.k == 0) break;  // nothing to keep; skip the scan entirely
    if (deadline_expired()) {
      local_stats.deadline_exceeded = true;
      break;
    }
    // Threshold stop: this and every later document scores at most `bound`
    // (compactness 1), and an equal score ranks by document order. A tuple
    // of two or more distinct nodes spans at least one edge, so it ties a
    // bound only when the bound is 0. A single-term tuple lives in its own
    // document, and later documents of an equal bound come in ascending
    // order, so it can tie-win only while `doc` precedes the k-th tuple's.
    if (best.Full()) {
      const ScoredTuple& worst = best.Worst();
      const double ceiling = bound * Compactness(0);
      const bool tie_can_win =
          m == 1 ? doc < worst.nodes[0].node.doc : ceiling == 0;
      if (worst.score > ceiling || (worst.score == ceiling && !tie_can_win)) {
        local_stats.early_terminated = true;
        break;
      }
    }
    const DocGroup& group = groups.at(doc);

    // Per-query tuple budget (ROADMAP perf cliff backstop): documents come
    // in TA upper-bound order, so once the budget is spent the remaining —
    // least promising — enumerations are dropped and only counted.
    uint64_t budget_left =
        options.max_tuples_per_query == 0
            ? UINT64_MAX
            : options.max_tuples_per_query -
                  std::min<uint64_t>(local_stats.tuples_scored,
                                     options.max_tuples_per_query);
    // group_product saturates, so the trimmed counter must too — one
    // saturated group must read as "a lot", not wrap into garbage.
    auto add_trimmed = [&local_stats](uint64_t trimmed) {
      local_stats.tuples_trimmed =
          trimmed > UINT64_MAX - local_stats.tuples_trimmed
              ? UINT64_MAX
              : local_stats.tuples_trimmed + trimmed;
    };
    if (budget_left == 0) {
      add_trimmed(group_product(group));
      continue;  // keep counting what the budget trims, it is cheap
    }
    ++local_stats.docs_scored;

    // Enumerate the per-term cross product within this document group into a
    // batch of distinct tuples (at most budget_left of them).
    batch.clear();
    std::vector<size_t> idx(m, 0);
    uint64_t product = group_product(group);
    uint64_t enumerated = 0;
    while (true) {
      if (static_cast<uint64_t>(batch.size()) >= budget_left) {
        add_trimmed(product - enumerated);
        break;
      }
      ScoredTuple tuple;
      tuple.nodes.reserve(m);
      double content = 0;
      bool distinct = true;
      const store::DocId first_doc = group.per_term[0][idx[0]]->node.doc;
      bool single_doc = true;
      for (size_t t = 0; t < m; ++t) {
        SEDA_DCHECK_LT(idx[t], group.per_term[t].size())
            << "cross-product odometer ran past a term stream";
        const text::NodeMatch* match = group.per_term[t][idx[t]];
        // A tuple binds m distinct nodes; a node may not play two roles.
        for (const text::NodeMatch& prev : tuple.nodes) {
          if (prev.node == match->node) {
            distinct = false;
            break;
          }
        }
        single_doc = single_doc && match->node.doc == first_doc;
        tuple.nodes.push_back(*match);
        content += match->score;
      }
      ++enumerated;
      // Borrowing puts a tuple into every group that holds all of its
      // nodes; score each node tuple once. A tuple from one document is
      // that document's own enumeration, and a mixed tuple counts in the
      // first group that reaches it.
      if (single_doc) {
        distinct = distinct && first_doc == doc;
      } else if (distinct) {
        std::vector<const text::NodeMatch*> key(m);
        for (size_t t = 0; t < m; ++t) key[t] = group.per_term[t][idx[t]];
        distinct = borrowed_seen.insert(std::move(key)).second;
      }
      if (distinct) {
        tuple.content_score = content;
        batch.push_back(std::move(tuple));
      }
      // Advance the odometer.
      size_t t = 0;
      for (; t < m; ++t) {
        if (++idx[t] < group.per_term[t].size()) break;
        idx[t] = 0;
      }
      if (t == m) break;
    }

    // Score the batch: ConnectionSize per tuple is independent read-only
    // graph work, so it fans out across the pool; merging back in
    // enumeration order keeps results identical at any worker count.
    local_stats.tuples_scored += batch.size();
    sizes.assign(batch.size(), std::nullopt);
    // Per-tuple kernel counters, merged sequentially below in enumeration
    // order: the totals are identical at any worker count.
    kernel_stats.assign(batch.size(), graph::GraphStats{});
    ThreadPool* pool =
        batch.size() >= options.parallel_batch_min ? pool_ : nullptr;
    const auto score_start = options.trace != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    RunParallel(pool, batch.size(), [&](size_t i) {
      std::vector<store::NodeId> node_ids;
      node_ids.reserve(m);
      for (const auto& nm : batch[i].nodes) node_ids.push_back(nm.node);
      sizes[i] = graph_->ConnectionSize(node_ids, options.max_connect_depth,
                                        options.max_connect_visits,
                                        &kernel_stats[i]);
    });
    if (options.trace != nullptr) {
      scoring_us += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - score_start)
              .count());
    }
    for (const graph::GraphStats& ks : kernel_stats) {
      local_stats.bfs_expansions += ks.bfs_expansions;
      local_stats.intersection_probes += ks.intersection_probes;
      local_stats.sketch_hits += ks.sketch_hits;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!sizes[i].has_value()) continue;
      ScoredTuple& tuple = batch[i];
      tuple.connection_size = *sizes[i];
      tuple.score = tuple.content_score * Compactness(*sizes[i]);
      best.Insert(std::move(tuple), &local_stats.heap_evictions);
    }
  }

  scan_span.AddCounter("docs_scored", local_stats.docs_scored);
  scan_span.AddCounter("tuples_scored", local_stats.tuples_scored);
  scan_span.AddCounter("connection_scoring_us", scoring_us);
  scan_span.End();

  if (stats != nullptr) *stats = local_stats;
  return best.TakeSorted();
}

}  // namespace seda::topk
