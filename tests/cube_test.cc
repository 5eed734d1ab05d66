#include <gtest/gtest.h>

#include "cube/catalog.h"
#include "cube/cube_builder.h"
#include "cube/relative_key.h"
#include "data/generators.h"
#include "twig/twig.h"

namespace seda::cube {
namespace {

constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade = "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct = "/country/economy/import_partners/item/percentage";

class CubeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    generator_ = std::make_unique<twig::CompleteResultGenerator>(index_.get(),
                                                                 graph_.get());
    us_expr_ = text::ParseTextExpr("\"united states\"").value();
    // The paper's Figure 3(b) catalog, adapted to leaf-valued contexts.
    ASSERT_TRUE(catalog_
                    .DefineDimension("country",
                                     {{kName, RelativeKey::Parse({kName, kYear})}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .DefineDimension("year",
                                     {{kYear, RelativeKey::Parse({kName, kYear})}})
                    .ok());
    ASSERT_TRUE(
        catalog_
            .DefineDimension("import-country",
                             {{kTrade, RelativeKey::Parse({kName, kYear, "."})}})
            .ok());
    ASSERT_TRUE(catalog_
                    .DefineFact("import-trade-percentage",
                                {{kPct, RelativeKey::Parse(
                                            {kName, kYear, "../trade_country"})}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .DefineFact("GDP", {{"/country/economy/GDP",
                                         RelativeKey::Parse({kName, kYear})},
                                        {"/country/economy/GDP_ppp",
                                         RelativeKey::Parse({kName, kYear})}})
                    .ok());
  }

  twig::CompleteResult Query1Result() {
    std::vector<twig::TermBinding> terms{
        {kName, us_expr_.get()}, {kTrade, nullptr}, {kPct, nullptr}};
    auto result = generator_->Execute(terms, {});
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<twig::CompleteResultGenerator> generator_;
  std::unique_ptr<text::TextExpr> us_expr_;
  Catalog catalog_;
};

TEST(KeyPathTest, ClassifiesAbsoluteVsRelative) {
  EXPECT_TRUE(KeyPath::Of("/country/year").absolute);
  EXPECT_FALSE(KeyPath::Of("../trade_country").absolute);
  EXPECT_FALSE(KeyPath::Of(".").absolute);
}

TEST(RelativeKeyTest, ResolveTargetPaths) {
  RelativeKey key = RelativeKey::Parse({kName, kYear, "../trade_country", "."});
  auto targets = key.ResolveTargetPaths(kPct);
  ASSERT_EQ(targets.size(), 4u);
  EXPECT_EQ(targets[0], kName);
  EXPECT_EQ(targets[1], kYear);
  EXPECT_EQ(targets[2], kTrade);
  EXPECT_EQ(targets[3], kPct);
}

TEST(RelativeKeyTest, SameTargets) {
  RelativeKey a = RelativeKey::Parse({kName, "../trade_country"});
  RelativeKey b = RelativeKey::Parse({kName, "./trade_country"});
  EXPECT_TRUE(a.SameTargets(kPct, b, "/country/economy/import_partners/item"));
  EXPECT_FALSE(a.SameTargets(kPct, b, kPct));
}

TEST_F(CubeFixture, RelativeKeyEvaluation) {
  // percentage node in us-2002, first item.
  store::NodeId pct{0, xml::DeweyId::Parse("1.3.2.1.2")};
  RelativeKey key = RelativeKey::Parse({kName, kYear, "../trade_country"});
  auto values = key.Evaluate(store_, pct);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  EXPECT_EQ(values.value(),
            (std::vector<std::string>{"United States", "2002", "Canada"}));
}

TEST_F(CubeFixture, RelativeKeyErrors) {
  store::NodeId pct{0, xml::DeweyId::Parse("1.3.2.1.2")};
  EXPECT_FALSE(RelativeKey::Parse({"/country/missing"}).Evaluate(store_, pct).ok());
  EXPECT_FALSE(RelativeKey::Parse({"../missing_sibling"}).Evaluate(store_, pct).ok());
  // "../.." walks to economy (fine), one more ".." to country, three more
  // past the root must fail.
  EXPECT_FALSE(
      RelativeKey::Parse({"../../../../../.."}).Evaluate(store_, pct).ok());
}

TEST_F(CubeFixture, VerifyKeyUniqueness) {
  // (name, year, trade_country) uniquely identifies each percentage.
  EXPECT_TRUE(VerifyKeyUniqueness(
                  store_, kPct,
                  RelativeKey::Parse({kName, kYear, "../trade_country"}))
                  .ok());
  // (name, year) alone does NOT (two percentages per document).
  EXPECT_FALSE(
      VerifyKeyUniqueness(store_, kPct, RelativeKey::Parse({kName, kYear})).ok());
}

TEST_F(CubeFixture, CatalogMatching) {
  auto facts = catalog_.MatchFacts({kPct});
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0]->name, "import-trade-percentage");
  // GDP matches both heterogeneous contexts together (schema evolution).
  auto gdp = catalog_.MatchFacts(
      {"/country/economy/GDP", "/country/economy/GDP_ppp"});
  ASSERT_EQ(gdp.size(), 1u);
  EXPECT_EQ(gdp[0]->name, "GDP");
  // Partial: a path set straddling a known context and an unknown one.
  auto partial = catalog_.PartialFacts({kPct, "/something/else"});
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_TRUE(catalog_.MatchFacts({kPct, "/something/else"}).empty());
}

TEST_F(CubeFixture, CatalogRejectsDuplicatesAndEmpty) {
  EXPECT_FALSE(catalog_.DefineFact("GDP", {{kPct, RelativeKey()}}).ok());
  EXPECT_FALSE(catalog_.DefineDimension("country", {{kName, RelativeKey()}}).ok());
  EXPECT_FALSE(catalog_.DefineFact("empty", {}).ok());
  EXPECT_FALSE(catalog_.DefineFact("", {{kPct, RelativeKey()}}).ok());
}

TEST_F(CubeFixture, DefineCheckedVerifiesKeys) {
  Catalog fresh;
  EXPECT_TRUE(fresh
                  .DefineFactChecked(
                      "pct", {{kPct, RelativeKey::Parse({kName, kYear,
                                                         "../trade_country"})}},
                      store_)
                  .ok());
  EXPECT_FALSE(
      fresh.DefineFactChecked("bad", {{kPct, RelativeKey::Parse({kName, kYear})}},
                              store_)
          .ok());
}

TEST_F(CubeFixture, BuildReproducesFigure3FactTable) {
  CubeBuilder builder(&store_, &catalog_);
  auto schema = builder.Build(Query1Result());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ(schema.value().fact_tables.size(), 1u);
  const Table& fact = schema.value().fact_tables[0];
  // Columns: country, year (auto-added via the key), import-country, measure.
  ASSERT_EQ(fact.columns.size(), 4u);
  EXPECT_EQ(fact.columns[0], "country");
  EXPECT_EQ(fact.columns[1], "year");
  EXPECT_EQ(fact.columns[2], "import-country");
  EXPECT_EQ(fact.columns[3], "import-trade-percentage");
  EXPECT_EQ(fact.rows.size(), 8u);
  // Figure 3's 2006 rows.
  bool china_2006 = false, canada_2006 = false;
  for (const auto& row : fact.rows) {
    if (row[1] == "2006" && row[2] == "China") {
      china_2006 = true;
      EXPECT_EQ(row[3], "15%");
    }
    if (row[1] == "2006" && row[2] == "Canada") {
      canada_2006 = true;
      EXPECT_EQ(row[3], "16.9%");
    }
    EXPECT_EQ(row[0], "United States");
  }
  EXPECT_TRUE(china_2006);
  EXPECT_TRUE(canada_2006);
  // Year dimension joined the output automatically.
  bool has_year_dim = false;
  for (const Table& dim : schema.value().dimension_tables) {
    if (dim.name == "dim_year") has_year_dim = true;
  }
  EXPECT_TRUE(has_year_dim);
}

TEST_F(CubeFixture, DimensionTablesHoldDistinctValues) {
  CubeBuilder builder(&store_, &catalog_);
  auto schema = builder.Build(Query1Result());
  ASSERT_TRUE(schema.ok());
  for (const Table& dim : schema.value().dimension_tables) {
    std::set<std::string> values;
    for (const auto& row : dim.rows) {
      EXPECT_TRUE(values.insert(row[0]).second) << dim.name << " has duplicates";
    }
    if (dim.name == "dim_import-country") {
      EXPECT_EQ(values, (std::set<std::string>{"Canada", "China", "Mexico"}));
    }
  }
}

TEST_F(CubeFixture, UnmatchedColumnIsIgnoredWithWarning) {
  Catalog minimal;
  ASSERT_TRUE(minimal
                  .DefineFact("import-trade-percentage",
                              {{kPct, RelativeKey::Parse(
                                          {kName, kYear, "../trade_country"})}})
                  .ok());
  CubeBuilder builder(&store_, &minimal);
  auto schema = builder.Build(Query1Result());
  ASSERT_TRUE(schema.ok());
  EXPECT_FALSE(schema.value().warnings.empty());
  bool ignored = false;
  for (const ColumnMatch& match : schema.value().matches) {
    if (match.ignored) ignored = true;
  }
  EXPECT_TRUE(ignored);
}

TEST_F(CubeFixture, NoFactIsAnError) {
  Catalog dims_only;
  ASSERT_TRUE(dims_only
                  .DefineDimension("country",
                                   {{kName, RelativeKey::Parse({kName, kYear})}})
                  .ok());
  CubeBuilder builder(&store_, &dims_only);
  EXPECT_FALSE(builder.Build(Query1Result()).ok());
}

TEST_F(CubeFixture, EmptyResultRejected) {
  CubeBuilder builder(&store_, &catalog_);
  EXPECT_FALSE(builder.Build(twig::CompleteResult{}).ok());
}

TEST_F(CubeFixture, MergesFactTablesWithSameKeys) {
  // GDP result: one column matching the heterogeneous GDP fact.
  auto gdp_expr = text::TextExpr::All();
  std::vector<twig::TermBinding> terms{{kName, us_expr_.get()},
                                       {"/country/economy/GDP", nullptr}};
  auto result = generator_->Execute(terms, {});
  ASSERT_TRUE(result.ok());
  CubeBuilder builder(&store_, &catalog_);
  auto schema = builder.Build(result.value());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ(schema.value().fact_tables.size(), 1u);
  EXPECT_EQ(schema.value().fact_tables[0].columns.back(), "GDP");
}

TEST_F(CubeFixture, RemoveFactOption) {
  CubeBuilder builder(&store_, &catalog_);
  CubeBuilder::Options options;
  options.remove_facts = {"import-trade-percentage"};
  EXPECT_FALSE(builder.Build(Query1Result(), options).ok());
}

}  // namespace
}  // namespace seda::cube
