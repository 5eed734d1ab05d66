// Reproduces Figure 3 of the paper: the full result R(q) of Query 1, the
// matching against facts/dimensions F and D, and the final fact + dimension
// tables — including the automatic addition of the year column required to
// make the fact table's key unique ("without the year dimension, the fact
// table would not have a primary key").

#include <cstdio>

#include "core/seda.h"
#include "data/generators.h"

using seda::cube::RelativeKey;

namespace {
constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade = "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct = "/country/economy/import_partners/item/percentage";
}  // namespace

int main() {
  seda::core::Seda seda;
  seda::data::PopulateScenario(seda.mutable_store());
  seda::core::SedaOptions options;
  options.value_edges.push_back({kName, kTrade, "trade_partner"});
  if (!seda.Finalize(options).ok()) return 1;
  std::shared_ptr<const seda::core::Snapshot> snap = seda.snapshot();

  // Figure 3(b): the catalog of known facts F and dimensions D.
  auto* catalog = seda.mutable_catalog();
  (void)catalog->DefineDimension("country",
                                 {{kName, RelativeKey::Parse({kName, kYear})}});
  (void)catalog->DefineDimension("year",
                                 {{kYear, RelativeKey::Parse({kName, kYear})}});
  (void)catalog->DefineDimension(
      "import-country", {{kTrade, RelativeKey::Parse({kName, kYear, "."})}});
  (void)catalog->DefineFact(
      "import-trade-percentage",
      {{kPct, RelativeKey::Parse({kName, kYear, "../trade_country"})}});
  (void)catalog->DefineFact(
      "GDP", {{"/country/economy/GDP", RelativeKey::Parse({kName, kYear})},
              {"/country/economy/GDP_ppp", RelativeKey::Parse({kName, kYear})}});

  std::printf("=== Figure 3: Query 1 end-to-end ===\n");
  std::printf("Query 1: (*, \"United States\") AND (trade_country, *) AND "
              "(percentage, *)\n\n");

  auto query = seda::query::ParseQuery(
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))");
  if (!query.ok()) return 1;

  // Figure 3(a): the full query result R(q) with (node id, path) pairs.
  auto result = snap->CompleteResults(query.value(), {kName, kTrade, kPct}, {});
  if (!result.ok()) {
    std::printf("complete result failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("--- Full query result R(q): %zu tuples "
              "(nodeid_i, path_i per term) ---\n",
              result.value().tuples.size());
  size_t shown = 0;
  for (const auto& tuple : result.value().tuples) {
    if (shown++ >= 4) {
      std::printf("  ...\n");
      break;
    }
    std::printf(" ");
    for (size_t i = 0; i < tuple.nodes.size(); ++i) {
      std::printf(" %s %s", tuple.nodes[i].ToString().c_str(),
                  snap->store().paths().PathString(tuple.paths[i]).c_str());
    }
    std::printf("\n");
  }

  // Figure 3(c): the star schema.
  auto schema = snap->BuildCube(result.value(), seda.catalog(), {});
  if (!schema.ok()) {
    std::printf("cube failed: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  std::printf("\n--- Fact & dimension tables (paper Fig. 3c) ---\n%s",
              schema.value().ToString().c_str());

  // Feed the fact table to the OLAP engine and aggregate, closing the loop.
  auto cube = snap->ToOlapCube(schema.value());
  if (!cube.ok()) return 1;
  auto avg = cube.value().Aggregate({"import-country"}, seda::olap::AggFn::kAvg,
                                    "import-trade-percentage");
  std::printf("--- OLAP: average import share per partner ---\n%s",
              avg.value().ToString().c_str());

  bool ok = result.value().tuples.size() == 8 &&
            schema.value().fact_tables.size() == 1 &&
            schema.value().fact_tables[0].columns.size() == 4;
  std::printf("\nshape check (8 tuples, 1 fact table, year auto-added): %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
