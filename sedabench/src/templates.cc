#include "templates.h"

#include "common/rng.h"
#include "corpus.h"
#include "data/generators.h"

namespace sedabench {

using seda::cube::RelativeKey;

void DefineCatalog(seda::core::Seda* seda) {
  seda::cube::Catalog* catalog = seda->mutable_catalog();
  (void)catalog->DefineDimension("country",
                                 {{kName, RelativeKey::Parse({kName, kYear})}});
  (void)catalog->DefineDimension("year",
                                 {{kYear, RelativeKey::Parse({kName, kYear})}});
  (void)catalog->DefineDimension(
      "import-country", {{kTrade, RelativeKey::Parse({kName, kYear, "."})}});
  (void)catalog->DefineDimension(
      "export-country",
      {{kExportTrade, RelativeKey::Parse({kName, kYear, "."})}});
  (void)catalog->DefineFact(
      "import-trade-percentage",
      {{kPct, RelativeKey::Parse({kName, kYear, "../trade_country"})}});
  (void)catalog->DefineFact(
      "export-trade-percentage",
      {{kExportPct, RelativeKey::Parse({kName, kYear, "../trade_country"})}});
  (void)catalog->DefineFact(
      "GDP", {{kGdp, RelativeKey::Parse({kName, kYear})},
              {kGdpPpp, RelativeKey::Parse({kName, kYear})}});
}

namespace {

TaskTemplate CountryImports(const std::string& kind,
                            const std::string& country) {
  return {kind,
          "(*, \"" + country + "\") AND (trade_country, *) AND (percentage, *)",
          {kName, kTrade, kPct},
          {"year"},
          "sum",
          "import-trade-percentage"};
}

}  // namespace

TaskTemplate Query1Task() {
  return CountryImports("query1", "United States");
}

TaskTemplate GdpPppTask() {
  return {"gdp_ppp_sum", "(GDP_ppp, *)", {kGdpPpp}, {"year"}, "sum", "GDP"};
}

std::vector<TaskTemplate> TaskPool(uint64_t seed) {
  const TaskTemplate all_imports{
      "all_imports",
      "(name, *) AND (trade_country, *) AND (percentage, *)",
      {kName, kTrade, kPct},
      {"import-country"},
      "avg",
      "import-trade-percentage"};
  const TaskTemplate all_exports{
      "all_exports",
      "(name, *) AND (trade_country, *) AND (percentage, *)",
      {kName, kExportTrade, kExportPct},
      {"export-country"},
      "avg",
      "export-trade-percentage"};
  const TaskTemplate gdp{"gdp", "(name, *) AND (GDP, *)", {kName, kGdp},
                         {"year"}, "count", "GDP"};
  const TaskTemplate gdp_ppp{"gdp_ppp", "(name, *) AND (GDP_ppp, *)",
                             {kName, kGdpPpp}, {"year"}, "count", "GDP"};

  // The seed picks the countries of the per-country tasks among the
  // generator's plain countries — names past the first 60 (the trade hubs
  // other countries import from) and within the 263 that become documents —
  // whose tasks all cost about the same, so the pool's cost mix does not
  // depend on the draw.
  constexpr size_t kHubs = 60;
  constexpr size_t kGeneratedCountries = 263;
  seda::Rng rng(seed ^ 0x7a5c0ffeeull);
  const std::vector<std::string>& names = seda::data::CountryNamePool();
  auto country = [&] {
    return CountryImports(
        "country_imports",
        names[kHubs + rng.Uniform(kGeneratedCountries - kHubs)]);
  };
  std::vector<TaskTemplate> pool;
  for (const TaskTemplate& fixed :
       {all_imports, gdp, Query1Task(), all_exports, gdp_ppp}) {
    pool.push_back(fixed);
    pool.push_back(country());
    pool.push_back(country());
  }
  pool.push_back(country());
  return pool;
}

}  // namespace sedabench
