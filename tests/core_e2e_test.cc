#include <gtest/gtest.h>

#include "core/seda.h"
#include "data/generators.h"

namespace seda::core {
namespace {

constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade = "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct = "/country/economy/import_partners/item/percentage";

/// End-to-end reproduction of the paper's worked example (Query 1, Figures
/// 2-3): search -> context summary -> refinement -> connection summary ->
/// complete results -> star schema -> OLAP.
class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(seda_.mutable_store());
    SedaOptions options;
    options.value_edges.push_back({"/country/name", kTrade, "trade_partner"});
    ASSERT_TRUE(seda_.Finalize(options).ok());
    auto* catalog = seda_.mutable_catalog();
    ASSERT_TRUE(catalog
                    ->DefineDimension("country", {{kName, cube::RelativeKey::Parse(
                                                              {kName, kYear})}})
                    .ok());
    ASSERT_TRUE(catalog
                    ->DefineDimension("year", {{kYear, cube::RelativeKey::Parse(
                                                           {kName, kYear})}})
                    .ok());
    ASSERT_TRUE(catalog
                    ->DefineDimension(
                        "import-country",
                        {{kTrade, cube::RelativeKey::Parse({kName, kYear, "."})}})
                    .ok());
    ASSERT_TRUE(catalog
                    ->DefineFact("import-trade-percentage",
                                 {{kPct, cube::RelativeKey::Parse(
                                             {kName, kYear, "../trade_country"})}})
                    .ok());
    snap_ = seda_.snapshot();
  }

  Seda seda_;
  std::shared_ptr<const Snapshot> snap_;  // the Finalize() epoch
};

TEST_F(EndToEndTest, FinalizeOnlyOnce) {
  EXPECT_FALSE(seda_.Finalize().ok());
  EXPECT_TRUE(seda_.finalized());
}

TEST_F(EndToEndTest, SearchBeforeFinalizeFails) {
  Seda fresh;
  EXPECT_EQ(fresh.snapshot(), nullptr);
  EXPECT_FALSE(fresh.NewSession().ok());
}

TEST_F(EndToEndTest, Query1SearchReturnsTopKAndSummaries) {
  auto response = snap_->Search(
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response.value().topk.empty());
  ASSERT_EQ(response.value().contexts.buckets.size(), 3u);
  // "United States": 3 factbook contexts + the mondial country name.
  EXPECT_EQ(response.value().contexts.buckets[0].entries.size(), 4u);
  EXPECT_EQ(response.value().contexts.buckets[1].entries.size(), 2u);
  EXPECT_EQ(response.value().contexts.buckets[2].entries.size(), 2u);
  EXPECT_FALSE(response.value().connections.entries.empty());
}

TEST_F(EndToEndTest, RefinementNarrowsContexts) {
  auto query = query::ParseQuery(
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))");
  ASSERT_TRUE(query.ok());
  auto refined =
      Snapshot::RefineContexts(query.value(), {{kName}, {kTrade}, {kPct}});
  ASSERT_TRUE(refined.ok());
  auto response = snap_->Search(refined.value());
  ASSERT_TRUE(response.ok());
  for (const auto& bucket : response.value().contexts.buckets) {
    EXPECT_EQ(bucket.entries.size(), 1u);
  }
  // After refinement every top-k tuple is in the import context.
  for (const auto& tuple : response.value().topk) {
    EXPECT_EQ(snap_->store().paths().PathString(tuple.nodes[1].path), kTrade);
  }
}

TEST_F(EndToEndTest, RefineContextsValidation) {
  auto query = query::ParseQuery("(a, b)");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(Snapshot::RefineContexts(query.value(), {{"/x"}, {"/y"}}).ok());
  EXPECT_FALSE(
      Snapshot::RefineContexts(query.value(), {{"not-absolute"}}).ok());
}

TEST_F(EndToEndTest, ConnectionSummaryShowsTwoWaysAfterRefinement) {
  auto query = query::ParseQuery("(trade_country, *) AND (percentage, *)");
  ASSERT_TRUE(query.ok());
  auto refined = Snapshot::RefineContexts(query.value(), {{kTrade}, {kPct}});
  ASSERT_TRUE(refined.ok());
  auto response = snap_->Search(refined.value());
  ASSERT_TRUE(response.ok());
  // Paper §6: two different ways to connect trade_country and percentage.
  std::set<size_t> lengths;
  for (const auto& entry : response.value().connections.entries) {
    lengths.insert(entry.connection.Length());
  }
  EXPECT_TRUE(lengths.count(2));
  EXPECT_TRUE(lengths.count(4));
}

TEST_F(EndToEndTest, CompleteResultsAndFigure3Cube) {
  auto query = query::ParseQuery(
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))");
  ASSERT_TRUE(query.ok());
  auto result =
      snap_->CompleteResults(query.value(), {kName, kTrade, kPct}, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tuples.size(), 8u);

  auto schema = snap_->BuildCube(result.value(), seda_.catalog(), {});
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ(schema.value().fact_tables.size(), 1u);
  EXPECT_EQ(schema.value().fact_tables[0].columns,
            (std::vector<std::string>{"country", "year", "import-country",
                                      "import-trade-percentage"}));

  auto cube = snap_->ToOlapCube(schema.value());
  ASSERT_TRUE(cube.ok());
  auto by_partner = cube.value().Aggregate({"import-country"}, olap::AggFn::kAvg,
                                           "import-trade-percentage");
  ASSERT_TRUE(by_partner.ok());
  EXPECT_EQ(by_partner.value().cells.size(), 3u);  // Canada, China, Mexico
}

TEST_F(EndToEndTest, ChosenConnectionFromSummaryIsExecutable) {
  auto query = query::ParseQuery("(trade_country, *) AND (percentage, *)");
  ASSERT_TRUE(query.ok());
  auto refined = Snapshot::RefineContexts(query.value(), {{kTrade}, {kPct}});
  ASSERT_TRUE(refined.ok());
  auto response = snap_->Search(refined.value());
  ASSERT_TRUE(response.ok());
  // Pick the shortest (same-item) connection from the summary and execute.
  const summary::ConnectionEntry* shortest = nullptr;
  for (const auto& entry : response.value().connections.entries) {
    if (shortest == nullptr ||
        entry.connection.Length() < shortest->connection.Length()) {
      shortest = &entry;
    }
  }
  ASSERT_NE(shortest, nullptr);
  auto chosen = twig::ChosenConnection::FromDataguideConnection(
      0, 1, shortest->connection);
  ASSERT_TRUE(chosen.ok());
  auto result = snap_->CompleteResults(refined.value(), {kTrade, kPct},
                                       {chosen.value()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Same-item pairs: 9 items with both children across scenario docs
  // (us-2002 x2, us-2004 x2, us-2005 x2, us-2006 x2, mexico-2003 x2 = 10).
  EXPECT_EQ(result.value().tuples.size(), 10u);
}

TEST_F(EndToEndTest, ValueBasedEdgesJoinFactbookAndFactbook) {
  // trade_partner value edges let a country tuple connect to the documents
  // importing from it (paper Figure 1's trade_partner dashed edge).
  EXPECT_GT(snap_->data_graph().EdgeCount(), 4u);  // 4 idref + value edges
}

TEST_F(EndToEndTest, DataguideStatisticsExposed) {
  EXPECT_GT(snap_->dataguides().size(), 0u);
  EXPECT_EQ(snap_->dataguides().build_stats().documents, 11u);
  EXPECT_GT(snap_->dataguides().LinkCount(), 0u);
}

TEST_F(EndToEndTest, BadQuerySyntaxSurfacesParseError) {
  EXPECT_FALSE(snap_->Search("not a query").ok());
}

TEST(BareKeywordTest, PunctuatedKeywordSearchesAsItsPhrase) {
  Seda seda;
  const char* docs[][2] = {
      {"gw", "<country><name>Guinea-Bissau</name><capital>Bissau</capital>"
             "</country>"},
      {"pg", "<country><name>Papua New Guinea</name><capital>Port Moresby"
             "</capital></country>"},
      {"gn", "<country><name>Guinea</name><capital>Conakry</capital>"
             "</country>"},
      {"rev", "<country><name>Bissau and Guinea</name></country>"},
  };
  for (const auto& [name, xml] : docs) {
    ASSERT_TRUE(seda.AddXml(xml, name).ok());
  }
  ASSERT_TRUE(seda.Finalize(SedaOptions{}).ok());
  auto snap = seda.snapshot();
  auto bare = snap->Search("(*, Guinea-Bissau)");
  auto quoted = snap->Search(R"((*, "Guinea-Bissau"))");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  const store::DocId papua = 1;
  auto nodes = [&](const SearchResponse& response) {
    std::vector<std::string> out;
    for (const topk::ScoredTuple& tuple : response.topk) {
      for (const text::NodeMatch& match : tuple.nodes) {
        EXPECT_NE(match.node.doc, papua);
        out.push_back(std::to_string(match.node.doc) + ":" +
                      match.node.dewey.ToString() + "@" +
                      std::to_string(tuple.score));
      }
    }
    return out;
  };
  std::vector<std::string> found = nodes(bare.value());
  EXPECT_FALSE(found.empty());
  EXPECT_EQ(found, nodes(quoted.value()));
  for (const std::string& node : found) EXPECT_EQ(node.rfind("0:", 0), 0u);
}

}  // namespace
}  // namespace seda::core
