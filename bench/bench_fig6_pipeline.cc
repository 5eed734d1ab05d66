// Reproduces Figure 6 of the paper: the SEDA control flow. Runs every stage
// (top-k search -> context summary -> refinement -> top-k again ->
// connection summary -> complete results -> data cube) on a mid-sized
// Factbook collection and reports per-stage latency and cardinalities.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/seda.h"
#include "data/generators.h"

using Clock = std::chrono::steady_clock;

namespace {
double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}
constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade = "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct = "/country/economy/import_partners/item/percentage";
}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;  // ~400 documents
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
  }
  std::printf("=== Figure 6: SEDA control flow, stage by stage ===\n");
  seda::core::Seda seda;
  seda::data::WorldFactbookGenerator::Options data_options;
  data_options.scale = scale;
  auto ingest_start = Clock::now();
  seda::data::WorldFactbookGenerator(data_options).Populate(seda.mutable_store());
  std::printf("%-42s %8.1f ms  (%zu docs, %llu nodes)\n", "ingest",
              Ms(ingest_start), seda.mutable_store()->DocumentCount(),
              static_cast<unsigned long long>(
                  seda.mutable_store()->TotalNodeCount()));

  // Single-threaded reference finalize on an identical copy of the corpus,
  // so the parallel ingestion pipeline's speedup is visible in the report.
  {
    seda::core::Seda reference;
    seda::data::WorldFactbookGenerator(data_options).Populate(
        reference.mutable_store());
    seda::core::SedaOptions sequential;
    sequential.num_threads = 1;
    auto sequential_start = Clock::now();
    if (!reference.Finalize(sequential).ok()) return 1;
    std::printf("%-42s %8.1f ms\n", "finalize (1 worker, reference)",
                Ms(sequential_start));
  }

  seda::core::SedaOptions parallel;
  parallel.num_threads = 0;  // one worker per hardware core
  auto finalize_start = Clock::now();
  if (!seda.Finalize(parallel).ok()) return 1;
  const double finalize_ms = Ms(finalize_start);
  std::shared_ptr<const seda::core::Snapshot> snap = seda.snapshot();
  std::printf("%-42s %8.1f ms  (%zu workers, %zu dataguides, %zu distinct paths)\n",
              "finalize (graph + index + dataguides)", finalize_ms,
              seda::ThreadPool::DefaultThreadCount(), snap->dataguides().size(),
              snap->store().paths().size());

  auto* catalog = seda.mutable_catalog();
  using seda::cube::RelativeKey;
  (void)catalog->DefineDimension("country",
                                 {{kName, RelativeKey::Parse({kName, kYear})}});
  (void)catalog->DefineDimension("year",
                                 {{kYear, RelativeKey::Parse({kName, kYear})}});
  (void)catalog->DefineDimension(
      "import-country", {{kTrade, RelativeKey::Parse({kName, kYear, "."})}});
  (void)catalog->DefineFact(
      "import-trade-percentage",
      {{kPct, RelativeKey::Parse({kName, kYear, "../trade_country"})}});

  // Stage 1: full-text query -> top-k + summaries.
  auto query = seda::query::ParseQuery(
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))");
  if (!query.ok()) return 1;
  auto search_start = Clock::now();
  auto response = snap->Search(query.value());
  if (!response.ok()) {
    std::printf("search failed: %s\n", response.status().ToString().c_str());
    return 1;
  }
  const double search_ms = Ms(search_start);
  std::printf("%-42s %8.1f ms  (top-%zu, %llu combinations)\n",
              "top-k search + context/connection summary", search_ms,
              response.value().topk.size(),
              static_cast<unsigned long long>(
                  response.value().contexts.CombinationCount()));
  for (size_t i = 0; i < response.value().contexts.buckets.size(); ++i) {
    std::printf("    term %zu: %zu contexts\n", i,
                response.value().contexts.buckets[i].entries.size());
  }
  std::printf("    connection summary: %zu entries (%llu false positives)\n",
              response.value().connections.entries.size(),
              static_cast<unsigned long long>(
                  response.value().connections.FalsePositiveCount()));

  // Stage 2: feedback loop — user picks contexts, search re-runs.
  auto refined = seda::core::Snapshot::RefineContexts(
      query.value(), {{kName}, {kTrade}, {kPct}});
  if (!refined.ok()) return 1;
  auto refine_start = Clock::now();
  auto refined_response = snap->Search(refined.value());
  if (!refined_response.ok()) return 1;
  const double refine_ms = Ms(refine_start);
  std::printf("%-42s %8.1f ms  (top-%zu)\n", "refined search (contexts chosen)",
              refine_ms, refined_response.value().topk.size());

  // Stage 3: complete result set.
  auto complete_start = Clock::now();
  auto result =
      snap->CompleteResults(refined.value(), {kName, kTrade, kPct}, {});
  if (!result.ok()) return 1;
  const double complete_ms = Ms(complete_start);
  std::printf("%-42s %8.1f ms  (%zu tuples, %zu twigs)\n",
              "complete result set (twig joins)", complete_ms,
              result.value().tuples.size(), result.value().twig_count);

  // Stage 4: data cube.
  auto cube_start = Clock::now();
  auto schema = snap->BuildCube(result.value(), seda.catalog(), {});
  if (!schema.ok()) {
    std::printf("cube failed: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  const double cube_ms = Ms(cube_start);
  std::printf("%-42s %8.1f ms  (%zu fact rows, %zu dims)\n",
              "star schema generation", cube_ms,
              schema.value().fact_tables[0].rows.size(),
              schema.value().dimension_tables.size());

  auto cube = snap->ToOlapCube(schema.value());
  if (!cube.ok()) return 1;
  auto olap_start = Clock::now();
  auto rollup = cube.value().Rollup({"year", "import-country"},
                                    seda::olap::AggFn::kAvg,
                                    "import-trade-percentage");
  if (!rollup.ok()) return 1;
  const double olap_ms = Ms(olap_start);
  std::printf("%-42s %8.1f ms  (%zu cuboids)\n", "OLAP rollup",
              olap_ms, rollup.value().size());

  std::printf("\nprecise data, ready for analysis: YES\n");
  return 0;
}
