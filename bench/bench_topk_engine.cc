// Streaming top-k engine bench: runs a query panel (including NOT / "*"
// terms) through the cursor-based TA engine, reports queries/sec, documents
// scored, the early-termination rate and the cursor counters, and writes the
// machine-readable BENCH_topk.json consumed by CI.
//
// The headline assertion: candidate-stream construction no longer
// materializes NOT/kAll universes. For every query whose terms would have
// forced the old engine to materialize the node universe, the cursor
// postings-advanced counter must be strictly below the old engine's
// materialized candidate total (computed here via the materializing reference
// evaluator in tests/reference/).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/generators.h"
#include "exec/candidates.h"
#include "graph/data_graph.h"
#include "query/query.h"
#include "reference/evaluate_nodes.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

using Clock = std::chrono::steady_clock;

namespace {

struct QuerySpec {
  const char* text;
  /// True when the old engine materialized a node universe for this query
  /// (a NOT term or an unrestricted "*" term).
  bool universe_bound;
};

/// Escapes a string for embedding in a JSON string literal.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Universe-sized intermediates the pre-cursor evaluator allocated for this
/// expression: one per kAll leaf, one per NOT (its complement base), one per
/// pure-negation conjunction. A conservative lower bound — the old evaluator
/// also allocated universe-sized subtraction outputs on top.
uint64_t UniverseAllocations(const seda::text::TextExpr& e) {
  using Kind = seda::text::TextExpr::Kind;
  switch (e.kind) {
    case Kind::kAll:
      return 1;
    case Kind::kTerm:
    case Kind::kPhrase:
      return 0;
    case Kind::kNot:
      return 1 + UniverseAllocations(*e.children.front());
    case Kind::kAnd: {
      uint64_t n = 0;
      bool have_positive = false;
      for (const auto& child : e.children) {
        if (child->kind == Kind::kNot) {
          n += UniverseAllocations(*child->children.front());
        } else {
          have_positive = true;
          n += UniverseAllocations(*child);
        }
      }
      return n + (have_positive ? 0 : 1);
    }
    case Kind::kOr: {
      uint64_t n = 0;
      for (const auto& child : e.children) n += UniverseAllocations(*child);
      return n;
    }
  }
  return 0;
}

/// The candidate volume the pre-cursor engine materialized: the full (uncapped,
/// pre-context-filter) reference-evaluator output per content term, the
/// context's node occurrences per structure-only term, plus one
/// universe-sized vector per NOT/kAll intermediate.
uint64_t OldMaterializedCandidates(const seda::text::InvertedIndex& index,
                                   const seda::query::Query& query) {
  uint64_t total = 0;
  for (const seda::query::QueryTerm& term : query.terms) {
    bool structure_only =
        !term.search ||
        term.search->kind == seda::text::TextExpr::Kind::kAll;
    if (structure_only) {
      for (seda::store::PathId path :
           term.context.ResolvePathIds(index.store().paths())) {
        total += index.NodesWithPath(path).size();
      }
      continue;
    }
    total += seda::reference::EvaluateNodes(index, *term.search).size();
    total += UniverseAllocations(*term.search) * index.IndexedNodeCount();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  std::string out_path = "BENCH_topk.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  seda::store::DocumentStore store;
  seda::data::WorldFactbookGenerator::Options options;
  options.scale = scale;
  seda::data::WorldFactbookGenerator(options).Populate(&store);
  seda::graph::DataGraph graph(&store);
  graph.BuildCsr();
  seda::text::InvertedIndex index(&store);
  seda::topk::TopKSearcher searcher(&index, &graph);

  const QuerySpec queries[] = {
      {R"((*, "United States") AND (trade_country, *) AND (percentage, *))", false},
      {R"((name, "China") AND (GDP, *))", false},
      {"(trade_country, *) AND (percentage, *)", false},
      {R"((*, NOT china) AND (name, *))", true},
      {R"((name, NOT "united states") AND (GDP, *))", true},
      {R"((*, "Canada"))", false},
  };

  std::printf("=== bench_topk_engine: streaming cursor DAAT top-k ===\n");
  std::printf("corpus: %zu docs, %llu indexed nodes (scale %.2f)\n\n",
              store.DocumentCount(),
              static_cast<unsigned long long>(index.IndexedNodeCount()), scale);
  std::printf("%-40s | %8s %9s %8s | %10s %10s %8s | %5s\n", "query", "qps",
              "docs_sc", "early", "postings", "old_cand", "skipped", "evict");

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"topk_engine\",\n  \"scale\": %.4f,\n"
               "  \"documents\": %zu,\n  \"indexed_nodes\": %llu,\n"
               "  \"queries\": [\n",
               scale, store.DocumentCount(),
               static_cast<unsigned long long>(index.IndexedNodeCount()));

  bool failed = false;
  size_t early_terminated_count = 0;
  size_t query_count = 0;
  for (const QuerySpec& spec : queries) {
    auto parsed = seda::query::ParseQuery(spec.text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse failed: %s\n", spec.text);
      return 1;
    }
    seda::topk::TopKOptions topk_options;
    topk_options.k = 10;

    // Warm + measured runs; stats are deterministic, timing is averaged.
    seda::topk::SearchStats stats;
    constexpr int kRuns = 5;
    auto start = Clock::now();
    for (int run = 0; run < kRuns; ++run) {
      auto result = searcher.Search(parsed.value(), topk_options, &stats);
      if (!result.ok()) {
        std::fprintf(stderr, "search failed: %s\n", spec.text);
        return 1;
      }
    }
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count() /
                kRuns;
    double qps = ms > 0 ? 1000.0 / ms : 0.0;

    uint64_t old_candidates = OldMaterializedCandidates(index, parsed.value());
    ++query_count;
    if (stats.early_terminated) ++early_terminated_count;

    bool universe_ok =
        !spec.universe_bound || stats.postings_advanced < old_candidates;
    if (!universe_ok) failed = true;

    std::string label(spec.text);
    if (label.size() > 40) label = label.substr(0, 37) + "...";
    std::printf("%-40s | %8.1f %9llu %8s | %10llu %10llu %8llu | %5llu %s\n",
                label.c_str(), qps,
                static_cast<unsigned long long>(stats.docs_scored),
                stats.early_terminated ? "yes" : "no",
                static_cast<unsigned long long>(stats.postings_advanced),
                static_cast<unsigned long long>(old_candidates),
                static_cast<unsigned long long>(stats.docs_skipped),
                static_cast<unsigned long long>(stats.heap_evictions),
                universe_ok ? "" : "  <-- UNIVERSE MATERIALIZED");

    std::fprintf(
        json,
        "    {\"query\": \"%s\", \"k\": %zu, \"qps\": %.2f, "
        "\"ms_per_query\": %.4f, \"docs_considered\": %llu, "
        "\"docs_scored\": %llu, \"tuples_scored\": %llu, "
        "\"early_terminated\": %s, \"postings_advanced\": %llu, "
        "\"docs_skipped\": %llu, \"heap_evictions\": %llu, "
        "\"old_materialized_candidates\": %llu, \"universe_bound\": %s}%s\n",
        JsonEscape(label).c_str(), topk_options.k, qps, ms,
        static_cast<unsigned long long>(stats.docs_considered),
        static_cast<unsigned long long>(stats.docs_scored),
        static_cast<unsigned long long>(stats.tuples_scored),
        stats.early_terminated ? "true" : "false",
        static_cast<unsigned long long>(stats.postings_advanced),
        static_cast<unsigned long long>(stats.docs_skipped),
        static_cast<unsigned long long>(stats.heap_evictions),
        static_cast<unsigned long long>(old_candidates),
        spec.universe_bound ? "true" : "false",
        &spec == &queries[std::size(queries) - 1] ? "" : ",");
  }

  std::fprintf(json,
               "  ],\n  \"early_termination_rate\": %.4f\n}\n",
               query_count == 0
                   ? 0.0
                   : static_cast<double>(early_terminated_count) /
                         static_cast<double>(query_count));
  std::fclose(json);

  std::printf("\nearly-termination rate: %zu/%zu; wrote %s\n",
              early_terminated_count, query_count, out_path.c_str());
  if (failed) {
    std::printf("FAIL: a NOT/kAll query advanced more postings than the old "
                "engine materialized\n");
    return 1;
  }
  std::printf("NOT/kAll queries stream below the old materialization cost: YES\n");
  return 0;
}
