// Columnar cube-extraction bench (ROADMAP "schema inference + columnar
// hybrid projections" item): the same star schema is materialized from a
// complete result twice — once scanning the commit-time columnar
// projections (src/column/), once forced down the per-node tree walk the
// columns replace. The tree walk re-evaluates every absolute key component
// with a full-document node scan per result tuple, which is exactly the
// quadratic-ish work the DocId/Dewey row indexes answer with two binary
// searches.
//
// Gates (exit non-zero on violation):
//  * the rendered star schema is byte-identical with columns on and off,
//    and the OLAP cell totals agree bit for bit;
//  * the column path is >= --min-speedup (default 3x) faster than the
//    tree walk.
//
// Writes BENCH_cube.json for CI.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/seda.h"
#include "data/generators.h"

using Clock = std::chrono::steady_clock;
using seda::cube::RelativeKey;

namespace {

constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade =
    "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct =
    "/country/economy/import_partners/item/percentage";

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  double min_speedup = 3.0;
  int reps = 10;
  std::string out_path = "BENCH_cube.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--min-speedup") == 0) {
      min_speedup = std::atof(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
  }

  seda::core::Seda seda;
  seda::data::WorldFactbookGenerator::Options options;
  options.scale = scale;
  seda::data::WorldFactbookGenerator(options).Populate(seda.mutable_store());
  if (!seda.Finalize().ok()) return 1;
  auto snap = seda.snapshot();
  std::printf("factbook scale %.3f: %zu docs, %zu inferred columns\n", scale,
              snap->store().DocumentCount(), snap->columns().size());

  // The paper's Fig. 3(b) catalog: absolute, self and sibling-step key
  // components, so every column plan kind is on the measured path.
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

  auto query =
      seda::query::ParseQuery(R"((trade_country, *) AND (percentage, *))");
  if (!query.ok()) return 1;
  auto result = snap->CompleteResults(query.value(), {kTrade, kPct}, {});
  if (!result.ok()) {
    std::fprintf(stderr, "complete failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("complete result: %zu tuples\n", result.value().tuples.size());

  // The tree-walk arm is the same builder without a column store.
  seda::cube::CubeBuilder with(&snap->store(), &seda.catalog(), &snap->columns());
  seda::cube::CubeBuilder without(&snap->store(), &seda.catalog(),
                                  /*columns=*/nullptr);

  // Warm both paths once, gate byte-identity and cell totals, then time.
  auto on = with.Build(result.value());
  auto off = without.Build(result.value());
  if (!on.ok() || !off.ok()) return 1;
  const bool bytes_ok = on.value().ToString() == off.value().ToString();

  bool cells_ok = true;
  double total_on = 0, total_off = 0;
  {
    auto cube_on = snap->ToOlapCube(on.value());
    auto cube_off = snap->ToOlapCube(off.value());
    if (!cube_on.ok() || !cube_off.ok()) return 1;
    auto agg_on = cube_on.value().Aggregate(
        {"import-country"}, seda::olap::AggFn::kCount, "import-trade-percentage");
    auto agg_off = cube_off.value().Aggregate(
        {"import-country"}, seda::olap::AggFn::kCount, "import-trade-percentage");
    if (!agg_on.ok() || !agg_off.ok()) return 1;
    total_on = agg_on.value().Total();
    total_off = agg_off.value().Total();
    cells_ok = agg_on.value().ToString() == agg_off.value().ToString();
  }

  double ms_on = 0, ms_off = 0;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point t0 = Clock::now();
    auto a = with.Build(result.value());
    Clock::time_point t1 = Clock::now();
    auto b = without.Build(result.value());
    Clock::time_point t2 = Clock::now();
    if (!a.ok() || !b.ok()) return 1;
    if (a.value().ToString() != b.value().ToString()) return 1;
    ms_on += Ms(t0, t1);
    ms_off += Ms(t1, t2);
  }
  ms_on /= reps;
  ms_off /= reps;
  const double speedup = ms_on > 0 ? ms_off / ms_on : 0.0;
  const bool speedup_ok = speedup >= min_speedup;

  std::printf("columns on:  %8.3f ms/build (%llu rows scanned, %llu tree"
              " fallbacks)\n",
              ms_on,
              static_cast<unsigned long long>(on.value().column_rows_scanned),
              static_cast<unsigned long long>(on.value().column_fallback_docs));
  std::printf("columns off: %8.3f ms/build\n", ms_off);
  std::printf("schema bytes identical: %s\n", bytes_ok ? "YES" : "NO");
  std::printf("olap cell totals identical: %s (%.1f vs %.1f)\n",
              cells_ok ? "YES" : "NO", total_on, total_off);
  std::printf("speedup %.2fx (gate >= %.1fx): %s\n", speedup, min_speedup,
              speedup_ok ? "YES" : "NO");

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n  \"bench\": \"cube_columns\",\n  \"scale\": %.4f,\n"
      "  \"docs\": %zu,\n  \"columns\": %zu,\n  \"tuples\": %zu,\n"
      "  \"ms_per_build_columns\": %.4f,\n  \"ms_per_build_tree\": %.4f,\n"
      "  \"speedup_tree_over_columns\": %.3f,\n"
      "  \"column_rows_scanned\": %llu,\n  \"column_fallback_docs\": %llu,\n"
      "  \"schema_bytes_identical\": %s,\n  \"cells_identical\": %s,\n"
      "  \"speedup_gate\": %s\n}\n",
      scale, snap->store().DocumentCount(), snap->columns().size(),
      result.value().tuples.size(), ms_on, ms_off, speedup,
      static_cast<unsigned long long>(on.value().column_rows_scanned),
      static_cast<unsigned long long>(on.value().column_fallback_docs),
      bytes_ok ? "true" : "false", cells_ok ? "true" : "false",
      speedup_ok ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());

  return (bytes_ok && cells_ok && speedup_ok) ? 0 : 1;
}
