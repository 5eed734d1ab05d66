// Ablation A3: the connection cache of §6.1 ("As an optimization, we cache
// the connections we discover so that we can leverage the cache for later
// query hits"). Measures repeated connection-summary generation with the
// cache enabled vs disabled.

#include <chrono>
#include <cstdio>

#include "data/generators.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "summary/connection_summary.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

using Clock = std::chrono::steady_clock;

int main() {
  seda::store::DocumentStore store;
  seda::data::WorldFactbookGenerator::Options options;
  options.scale = 0.2;
  seda::data::WorldFactbookGenerator(options).Populate(&store);
  seda::graph::DataGraph graph(&store);
  graph.ResolveIdRefs();
  graph.BuildCsr();
  seda::text::InvertedIndex index(&store);
  seda::topk::TopKSearcher searcher(&index, &graph);

  seda::dataguide::DataguideCollection::Options dg;
  dg.overlap_threshold = 0.4;
  auto guides = seda::dataguide::DataguideCollection::Build(store, dg);
  guides.AddLinksFromGraph(graph);

  auto query = seda::query::ParseQuery(
                   R"((*, "United States") AND (trade_country, *) AND (percentage, *))")
                   .value();
  seda::topk::TopKOptions topk_options;
  topk_options.k = 20;
  auto topk = searcher.Search(query, topk_options);
  if (!topk.ok()) return 1;

  seda::summary::ConnectionSummaryGenerator generator(&guides, &graph);
  constexpr int kRounds = 25;

  std::printf("=== Ablation A3: connection cache on/off (%d repeated queries) "
              "===\n",
              kRounds);
  for (bool enabled : {false, true}) {
    guides.set_cache_enabled(enabled);
    // Warm once so both modes pay the same first-time cost outside timing.
    auto start = Clock::now();
    size_t entries = 0;
    for (int round = 0; round < kRounds; ++round) {
      auto summary = generator.Generate(topk.value());
      entries = summary.entries.size();
    }
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    std::printf("cache %-8s: %8.2f ms total, %6.2f ms/query  (%zu entries, "
                "%llu hits / %llu misses)\n",
                enabled ? "ENABLED" : "disabled", ms, ms / kRounds, entries,
                static_cast<unsigned long long>(guides.cache_hits()),
                static_cast<unsigned long long>(guides.cache_misses()));
  }
  return 0;
}
