// Ablation A1: the Threshold-Algorithm top-k search vs. exhaustive
// enumeration. The paper's §4 ("SEDA first quickly retrieves top-k tuples")
// rests on TA pruning documents whose score upper bound cannot beat the
// current k-th result; this bench quantifies that pruning (documents scored,
// tuples scored, wall time) while asserting both arms return identical
// tuples. The exhaustive arm is the same search with k above every tuple
// count, truncated to k: its heap never fills, so the threshold never fires
// and every candidate document is scored.

#include <chrono>
#include <cstdio>

#include "data/generators.h"
#include "graph/data_graph.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

using Clock = std::chrono::steady_clock;

int main() {
  seda::store::DocumentStore store;
  seda::data::WorldFactbookGenerator::Options options;
  options.scale = 0.35;
  seda::data::WorldFactbookGenerator(options).Populate(&store);
  seda::graph::DataGraph graph(&store);
  graph.BuildCsr();
  seda::text::InvertedIndex index(&store);
  seda::topk::TopKSearcher searcher(&index, &graph);

  const char* queries[] = {
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))",
      R"((name, "China") AND (GDP, *))",
      "(trade_country, *) AND (percentage, *)",
      R"((*, "Canada"))",
  };

  std::printf("=== Ablation A1: TA top-k vs exhaustive enumeration ===\n");
  std::printf("%-14s %6s | %10s %10s %9s | %10s %10s %9s | %5s | %9s %8s %7s\n",
              "query", "k", "TA docs", "TA tuples", "TA ms", "full docs",
              "fl tuples", "full ms", "same", "postings", "dskip", "evict");
  for (const char* text : queries) {
    auto query = seda::query::ParseQuery(text).value();
    for (size_t k : {5ul, 20ul}) {
      seda::topk::TopKOptions topk_options;
      topk_options.k = k;
      seda::topk::SearchStats ta_stats, naive_stats;

      auto ta_start = Clock::now();
      auto ta = searcher.Search(query, topk_options, &ta_stats);
      double ta_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - ta_start).count();

      seda::topk::TopKOptions exhaustive = topk_options;
      exhaustive.k = size_t{1} << 30;
      auto naive_start = Clock::now();
      auto naive = searcher.Search(query, exhaustive, &naive_stats);
      double naive_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - naive_start)
              .count();
      if (naive.ok() && naive.value().size() > k) naive.value().resize(k);

      bool same = ta.ok() && naive.ok() &&
                  ta.value().size() == naive.value().size();
      for (size_t i = 0; same && i < ta.value().size(); ++i) {
        const seda::topk::ScoredTuple& a = ta.value()[i];
        const seda::topk::ScoredTuple& b = naive.value()[i];
        same = a.score == b.score && a.nodes.size() == b.nodes.size();
        for (size_t t = 0; same && t < a.nodes.size(); ++t) {
          same = a.nodes[t].node == b.nodes[t].node;
        }
      }
      std::string label(text);
      if (label.size() > 14) label = label.substr(0, 11) + "...";
      std::printf("%-14s %6zu | %10llu %10llu %9.2f | %10llu %10llu %9.2f | %5s "
                  "| %9llu %8llu %7llu\n",
                  label.c_str(), k,
                  static_cast<unsigned long long>(ta_stats.docs_scored),
                  static_cast<unsigned long long>(ta_stats.tuples_scored), ta_ms,
                  static_cast<unsigned long long>(naive_stats.docs_scored),
                  static_cast<unsigned long long>(naive_stats.tuples_scored),
                  naive_ms, same ? "YES" : "NO",
                  static_cast<unsigned long long>(ta_stats.postings_advanced),
                  static_cast<unsigned long long>(ta_stats.docs_skipped),
                  static_cast<unsigned long long>(ta_stats.heap_evictions));
      if (!same) return 1;
    }
  }
  std::printf("\nTA scores every candidate document only until the threshold "
              "fires; the ratio\nof docs scored is the paper's motivation for "
              "a TA-family algorithm (§4).\n");
  return 0;
}
