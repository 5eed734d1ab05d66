// Graph-kernel bench (ROADMAP "CSR graph kernels" item): a hub-heavy corpus
// — every satellite document's trade_country leaf carries a value edge to the
// one US name node — is exactly the shape where a hash-map BFS pays O(hub
// degree) per cross-document connection query. The CSR kernels answer the
// dominant distance-1/2 hub hops by sorted-row intersection or a 2-hop
// sketch instead.
//
// Two layers, three gates:
//  * micro: ConnectionSize({hub, satellite item}) through the reference
//    hash-map walker (tests/reference/) and through the CSR. Gate: the CSR
//    beats the reference by >= 3x on the budget-off hub workload.
//  * engine: the cliff query through TopKSearcher. Gates: the budget-off
//    ranking is byte-identical to the golden ranking the hash-map engine
//    produced (bench/graph_kernels_golden.h; checked when the corpus is the
//    golden's), and the budget-on ranking matches budget-off (every <=2-hop
//    answer is budget-independent).
//
// Writes BENCH_graph.json for CI.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/data_graph.h"
#include "graph_kernels_golden.h"
#include "query/query.h"
#include "reference/bfs.h"
#include "store/document_store.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

using Clock = std::chrono::steady_clock;

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Byte-exact rendering of everything a caller observes in a ranking: node
/// identities, the connection size and the exact score bits (%a).
std::string RankingFingerprint(
    const std::vector<seda::topk::ScoredTuple>& tuples) {
  std::string fp;
  char buf[64];
  for (const auto& tuple : tuples) {
    for (const auto& match : tuple.nodes) {
      fp += std::to_string(match.node.doc);
      fp += ':';
      fp += match.node.dewey.ToString();
      fp += ' ';
    }
    std::snprintf(buf, sizeof(buf), "c=%a n=%zu s=%a\n", tuple.content_score,
                  tuple.connection_size, tuple.score);
    fp += buf;
  }
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  std::string out_path = "BENCH_graph.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  const int satellites =
      std::max(200, static_cast<int>(1500 * scale));

  seda::store::DocumentStore store;
  auto us = store.AddXml(
      "<country><name>United States</name><economy><GDP>14000</GDP>"
      "</economy></country>",
      "us");
  if (!us.ok()) return 1;
  for (int i = 0; i < satellites; ++i) {
    auto doc = store.AddXml(
        "<country><name>Satellite " + std::to_string(i) +
            "</name><economy><import_partners><item>"
            "<trade_country>United States</trade_country><percentage>" +
            std::to_string(10 + i % 80) +
            ".5</percentage></item></import_partners></economy></country>",
        "satellite-" + std::to_string(i));
    if (!doc.ok()) return 1;
  }

  seda::graph::DataGraph graph(&store);
  size_t edges = graph.AddValueBasedEdges(
      "/country/name", "/country/economy/import_partners/item/trade_country",
      "trade_partner");
  if (edges != static_cast<size_t>(satellites)) {
    std::fprintf(stderr, "hub corpus wiring broke: %zu edges\n", edges);
    return 1;
  }
  if (!graph.BuildCsr()) {
    std::fprintf(stderr, "BuildCsr failed\n");
    return 1;
  }

  // The micro workload: the hub name node against every satellite's item
  // node (distance 2 through the hub's value edge — the dominant hop shape
  // of cross-document connection scoring).
  seda::store::NodeId hub{us.value(), seda::xml::DeweyId::Parse("1.1")};
  std::vector<std::vector<seda::store::NodeId>> tuples;
  for (int i = 0; i < satellites; ++i) {
    tuples.push_back(
        {hub, seda::store::NodeId{static_cast<seda::store::DocId>(1 + i),
                                  seda::xml::DeweyId::Parse("1.2.1.1")}});
  }

  std::printf("=== bench_graph_kernels: CSR adjacency / intersection / 2-hop "
              "sketches ===\n");
  std::printf("corpus: 1 hub + %d satellites, %zu value edges, %u vertices\n\n",
              satellites, graph.EdgeCount(), graph.csr()->num_vertices());
  std::printf("--- micro: ConnectionSize({hub, item}) x %d pairs ---\n",
              satellites);
  std::printf("%-10s | %12s %12s | %12s %12s %12s\n", "walker", "off us/pair",
              "on us/pair", "bfs_exp", "isect_probe", "sketch_hit");

  seda::reference::ReferenceGraph reference(graph);
  struct Walker {
    const char* name;
    std::function<std::optional<size_t>(
        const std::vector<seda::store::NodeId>&, size_t,
        seda::graph::GraphStats*)>
        connection_size;
  };
  const Walker walkers[] = {
      {"reference",
       [&](const auto& tuple, size_t visits, seda::graph::GraphStats* stats) {
         return reference.ConnectionSize(tuple, 12, visits, stats);
       }},
      {"csr",
       [&](const auto& tuple, size_t visits, seda::graph::GraphStats* stats) {
         return graph.ConnectionSize(tuple, 12, visits, stats);
       }},
  };
  // walker -> {budget-off us/pair, budget-on us/pair}
  double micro_us[std::size(walkers)][2];
  seda::graph::GraphStats micro_stats[std::size(walkers)];
  for (size_t w = 0; w < std::size(walkers); ++w) {
    for (int budgeted = 0; budgeted < 2; ++budgeted) {
      size_t max_visits = budgeted ? 64 : 0;
      seda::graph::GraphStats stats;
      // Warm-up pass, then measured passes. Budget-off must always connect;
      // the budgeted reference may legitimately give up (the cliff).
      for (const auto& tuple : tuples) {
        if (!walkers[w].connection_size(tuple, max_visits, nullptr) &&
            max_visits == 0) {
          std::fprintf(stderr, "hub pair unexpectedly unconnected\n");
          return 1;
        }
      }
      constexpr int kRuns = 3;
      auto start = Clock::now();
      for (int run = 0; run < kRuns; ++run) {
        for (const auto& tuple : tuples) {
          walkers[w].connection_size(tuple, max_visits, &stats);
        }
      }
      double us_per_pair =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count() /
          (kRuns * tuples.size());
      micro_us[w][budgeted] = us_per_pair;
      if (!budgeted) micro_stats[w] = stats;
    }
    std::printf("%-10s | %12.3f %12.3f | %12llu %12llu %12llu\n",
                walkers[w].name, micro_us[w][0], micro_us[w][1],
                static_cast<unsigned long long>(micro_stats[w].bfs_expansions),
                static_cast<unsigned long long>(
                    micro_stats[w].intersection_probes),
                static_cast<unsigned long long>(micro_stats[w].sketch_hits));
  }
  double micro_speedup =
      micro_us[1][0] > 0 ? micro_us[0][0] / micro_us[1][0] : 0.0;
  std::printf("micro speedup reference/csr (budget off): %.2fx\n\n",
              micro_speedup);

  // --- engine layer: the cliff query through the full searcher ----------
  seda::text::InvertedIndex index(&store);
  seda::topk::TopKSearcher searcher(&index, &graph);
  auto parsed = seda::query::ParseQuery(
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))");
  if (!parsed.ok()) return 1;

  std::printf("--- engine: cliff query, k=5, uncapped hub ---\n");
  std::printf("%-10s | %10s %10s | %10s %10s\n", "budget", "ms", "tuples",
              "bfs_exp", "sketch_hit");

  // budget -> {ms, fingerprint, stats}
  struct EngineRun {
    double ms = 0;
    std::string fingerprint;
    seda::topk::SearchStats stats;
  };
  EngineRun runs[2];
  for (int budgeted = 0; budgeted < 2; ++budgeted) {
    seda::topk::TopKOptions options;
    options.k = 5;
    options.max_per_doc_per_term = 4;
    options.max_hub_degree = 0;  // uncapped: exercise the hub
    // The tuple budget trims in TA order before any kernel runs; the golden
    // ranking was captured under the same budget.
    options.max_tuples_per_query = 1000;
    options.max_connect_visits = budgeted ? 64 : 0;
    EngineRun& run = runs[budgeted];
    auto start = Clock::now();
    auto result = searcher.Search(parsed.value(), options, &run.stats);
    if (!result.ok()) {
      std::fprintf(stderr, "search failed\n");
      return 1;
    }
    run.ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    run.fingerprint = RankingFingerprint(result.value());
    std::printf("%-10s | %10.2f %10llu | %10llu %10llu\n",
                budgeted ? "on" : "off", run.ms,
                static_cast<unsigned long long>(run.stats.tuples_scored),
                static_cast<unsigned long long>(run.stats.bfs_expansions),
                static_cast<unsigned long long>(run.stats.sketch_hits));
  }

  // Gates.
  bool micro_ok = micro_speedup >= 3.0;
  const bool golden_applies = satellites == kGoldenSatellites;
  bool golden_ok =
      !golden_applies || runs[0].fingerprint == kGoldenCliffRanking;
  // Budget-on must equal budget-off: distance <= 2 hub hops do not depend on
  // the visit budget.
  bool budget_ok = runs[1].fingerprint == runs[0].fingerprint;

  std::printf("\nbudget-off ranking == golden hash-map ranking: %s\n",
              golden_applies ? (golden_ok ? "YES" : "NO")
                             : "n/a (corpus differs from the golden's)");
  if (!golden_ok) {
    std::printf("budget-off ranking:\n%s", runs[0].fingerprint.c_str());
  }
  std::printf("budget-on ranking == budget-off: %s\n",
              budget_ok ? "YES" : "NO");
  std::printf("micro speedup >= 3x: %s\n", micro_ok ? "YES" : "NO");

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"graph_kernels\",\n  \"scale\": %.4f,\n"
               "  \"satellites\": %d,\n  \"vertices\": %u,\n"
               "  \"micro_speedup_reference_over_csr\": %.3f,\n"
               "  \"walkers\": [\n",
               scale, satellites, graph.csr()->num_vertices(), micro_speedup);
  for (size_t w = 0; w < std::size(walkers); ++w) {
    std::fprintf(
        json,
        "    {\"walker\": \"%s\", \"micro_us_per_pair_off\": %.4f, "
        "\"micro_us_per_pair_on\": %.4f, \"bfs_expansions\": %llu, "
        "\"intersection_probes\": %llu, \"sketch_hits\": %llu}%s\n",
        JsonEscape(walkers[w].name).c_str(), micro_us[w][0], micro_us[w][1],
        static_cast<unsigned long long>(micro_stats[w].bfs_expansions),
        static_cast<unsigned long long>(micro_stats[w].intersection_probes),
        static_cast<unsigned long long>(micro_stats[w].sketch_hits),
        w + 1 < std::size(walkers) ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"engine_ms_off\": %.4f,\n  \"engine_ms_on\": %.4f,\n"
               "  \"ranking_matches_golden\": %s,\n"
               "  \"budget_invariant\": %s,\n"
               "  \"micro_speedup_gate\": %s\n}\n",
               runs[0].ms, runs[1].ms,
               golden_applies ? (golden_ok ? "true" : "false") : "null",
               budget_ok ? "true" : "false", micro_ok ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());

  return (micro_ok && golden_ok && budget_ok) ? 0 : 1;
}
