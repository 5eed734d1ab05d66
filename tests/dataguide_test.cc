#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "reference/dataguide_scan.h"

namespace seda::dataguide {
namespace {

store::DocumentStore MakeHeterogeneousStore() {
  store::DocumentStore store;
  // Three schema clusters: {a,b,c}, {a,b,d}, {x,y}.
  EXPECT_TRUE(store.AddXml("<r><a>1</a><b>2</b><c>3</c></r>", "d0").ok());
  EXPECT_TRUE(store.AddXml("<r><a>1</a><b>2</b><d>4</d></r>", "d1").ok());
  EXPECT_TRUE(store.AddXml("<q><x>1</x><y>2</y></q>", "d2").ok());
  EXPECT_TRUE(store.AddXml("<r><a>5</a><b>6</b><c>7</c></r>", "d3").ok());
  return store;
}

TEST(DataguideTest, OverlapFormula) {
  Dataguide g({0, 1, 2, 3}, 0);
  // common = 2, |g| = 4, |other| = 3 -> min(2/4, 2/3) = 0.5.
  EXPECT_EQ(reference::CommonPathCount(g, {2, 3, 9}), 2u);
  EXPECT_DOUBLE_EQ(reference::Overlap(g, {2, 3, 9}), 0.5);
  EXPECT_DOUBLE_EQ(reference::Overlap(g, {7, 8}), 0.0);
  EXPECT_DOUBLE_EQ(reference::Overlap(g, {0, 1, 2, 3}), 1.0);
}

TEST(DataguideTest, ContainsAndMerge) {
  Dataguide g({1, 3, 5}, 0);
  EXPECT_TRUE(g.Contains({1, 5}));
  EXPECT_FALSE(g.Contains({1, 2}));
  g.Merge({2, 3}, 1);
  EXPECT_EQ(g.PathCount(), 4u);
  EXPECT_TRUE(g.Contains({1, 2, 3, 5}));
  EXPECT_EQ(g.members().size(), 2u);
}

TEST(DataguideCollectionTest, SubsetDocsAreAbsorbed) {
  auto store = MakeHeterogeneousStore();
  DataguideCollection::Options options;
  options.overlap_threshold = 2.0;  // merging disabled; only subset absorption
  auto collection = DataguideCollection::Build(store, options);
  // d0 and d3 share an identical schema -> absorbed; d1 and d2 differ.
  EXPECT_EQ(collection.size(), 3u);
  EXPECT_EQ(collection.build_stats().absorbed, 1u);
  EXPECT_EQ(collection.GuideOfDoc(0), collection.GuideOfDoc(3));
}

TEST(DataguideCollectionTest, ThresholdMergesSimilarSchemas) {
  auto store = MakeHeterogeneousStore();
  DataguideCollection::Options options;
  options.overlap_threshold = 0.4;
  auto collection = DataguideCollection::Build(store, options);
  // {a,b,c} vs {a,b,d}: common 3 of 4 (incl. root /r) -> overlap .75 -> merge.
  EXPECT_EQ(collection.size(), 2u);
  EXPECT_EQ(collection.GuideOfDoc(0), collection.GuideOfDoc(1));
  EXPECT_NE(collection.GuideOfDoc(0), collection.GuideOfDoc(2));
  EXPECT_EQ(collection.build_stats().merges, 1u);
}

// Property: every document's path set is fully contained in its dataguide,
// for any threshold.
class CoverageInvariantTest : public ::testing::TestWithParam<double> {};

TEST_P(CoverageInvariantTest, EveryDocPathCovered) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  DataguideCollection::Options options;
  options.overlap_threshold = GetParam();
  auto collection = DataguideCollection::Build(store, options);
  for (store::DocId d = 0; d < store.DocumentCount(); ++d) {
    const Dataguide& guide = collection.guides()[collection.GuideOfDoc(d)];
    EXPECT_TRUE(guide.Contains(store.DocumentPathSet(d)))
        << "doc " << d << " threshold " << GetParam();
  }
  // Members partition the documents.
  size_t member_total = 0;
  for (const Dataguide& g : collection.guides()) member_total += g.members().size();
  EXPECT_EQ(member_total, store.DocumentCount());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CoverageInvariantTest,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0));

// Property: the number of dataguides decreases (weakly) as the threshold
// drops — lower thresholds merge more.
TEST(DataguideCollectionTest, MonotoneInThreshold) {
  store::DocumentStore store;
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.05;
  data::WorldFactbookGenerator(options).Populate(&store);
  size_t previous = 0;
  bool first = true;
  for (double threshold : {0.1, 0.3, 0.5, 0.7, 0.9, 1.5}) {
    DataguideCollection::Options dg;
    dg.overlap_threshold = threshold;
    size_t count = DataguideCollection::Build(store, dg).size();
    if (!first) {
      EXPECT_GE(count, previous) << "threshold " << threshold;
    }
    previous = count;
    first = false;
  }
}

// Table 1 of the paper at its 40% threshold, as bench_table1_dataguides
// reproduces it on the four synthetic stand-ins at default scale:
// (documents, dataguides, merges, absorbed). Any change to the merge rule or
// the generators moves these numbers.
struct Table1Row {
  size_t documents, dataguides, merges, absorbed;
  bool operator==(const Table1Row&) const = default;
};

void PrintTo(const Table1Row& row, std::ostream* out) {
  *out << "{" << row.documents << ", " << row.dataguides << ", " << row.merges
       << ", " << row.absorbed << "}";
}

template <typename Generator>
Table1Row MeasureTable1(const Generator& generator) {
  store::DocumentStore store;
  generator.Populate(&store);
  DataguideCollection::Options options;
  options.overlap_threshold = 0.4;
  const BuildStats stats = DataguideCollection::Build(store, options).build_stats();
  return {stats.documents, stats.dataguides, stats.merges, stats.absorbed};
}

TEST(Table1GoldenTest, FourDatasetsAtFortyPercent) {
  EXPECT_EQ(MeasureTable1(data::GoogleBaseGenerator()),
            (Table1Row{10000, 88, 0, 9912}));
  EXPECT_EQ(MeasureTable1(data::MondialGenerator()), (Table1Row{5563, 53, 33, 5477}));
  EXPECT_EQ(MeasureTable1(data::RecipeMLGenerator()),
            (Table1Row{10988, 3, 0, 10985}));
  EXPECT_EQ(MeasureTable1(data::WorldFactbookGenerator()),
            (Table1Row{1602, 299, 1240, 63}));
}

// bench_ablation_threshold's Factbook column (scale 0.2, 318 documents).
TEST(Table1GoldenTest, FactbookGuideCountsAcrossThresholds) {
  store::DocumentStore store;
  data::WorldFactbookGenerator::Options generator;
  generator.scale = 0.2;
  data::WorldFactbookGenerator(generator).Populate(&store);
  ASSERT_EQ(store.DocumentCount(), 318u);
  const std::vector<std::pair<double, size_t>> expected = {
      {0.1, 8}, {0.2, 22}, {0.4, 61}, {0.6, 134}, {0.8, 287}, {1.0, 314}};
  for (const auto& [threshold, guides] : expected) {
    DataguideCollection::Options options;
    options.overlap_threshold = threshold;
    EXPECT_EQ(DataguideCollection::Build(store, options).size(), guides)
        << "threshold " << threshold;
  }
}

class ScenarioConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    graph_->ResolveIdRefs();
    ASSERT_TRUE(graph_->BuildCsr());
    DataguideCollection::Options options;
    options.overlap_threshold = 0.4;
    guides_ = std::make_unique<DataguideCollection>(
        DataguideCollection::Build(store_, options));
    guides_->AddLinksFromGraph(*graph_);
  }
  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<DataguideCollection> guides_;
};

TEST_F(ScenarioConnectionTest, TwoWaysToConnectTradeCountryAndPercentage) {
  // The paper (§6): even within import_partners there are two different ways
  // to connect trade_country and percentage (same item vs sibling item).
  auto connections = guides_->FindConnections(
      "/country/economy/import_partners/item/trade_country",
      "/country/economy/import_partners/item/percentage", 4, 16);
  ASSERT_GE(connections.size(), 2u);
  EXPECT_EQ(connections[0].Length(), 2u);  // via the shared item
  EXPECT_EQ(connections[1].Length(), 4u);  // via import_partners (cross-item)
  EXPECT_FALSE(connections[0].HasLink());
}

TEST_F(ScenarioConnectionTest, ShortestFirstOrdering) {
  auto connections = guides_->FindConnections("/country/name",
                                              "/country/economy/GDP", 6, 16);
  ASSERT_FALSE(connections.empty());
  for (size_t i = 1; i < connections.size(); ++i) {
    EXPECT_LE(connections[i - 1].Length(), connections[i].Length());
  }
}

TEST_F(ScenarioConnectionTest, LinkConnectionsThroughIdRef) {
  // sea --bordering--> mondial_country (Figure 1's dashed edges).
  auto connections =
      guides_->FindConnections("/sea/name", "/mondial_country/name", 5, 16);
  ASSERT_FALSE(connections.empty());
  bool has_link = false;
  for (const Connection& c : connections) {
    if (c.HasLink()) has_link = true;
  }
  EXPECT_TRUE(has_link);
}

TEST_F(ScenarioConnectionTest, CacheHitsOnRepeatedQueries) {
  guides_->FindConnections("/country/name", "/country/year", 4, 8);
  uint64_t misses_before = guides_->cache_misses();
  guides_->FindConnections("/country/name", "/country/year", 4, 8);
  EXPECT_EQ(guides_->cache_misses(), misses_before);
  EXPECT_GE(guides_->cache_hits(), 1u);
}

TEST_F(ScenarioConnectionTest, CacheCanBeDisabled) {
  guides_->set_cache_enabled(false);
  guides_->FindConnections("/country/name", "/country/year", 4, 8);
  uint64_t misses = guides_->cache_misses();
  guides_->FindConnections("/country/name", "/country/year", 4, 8);
  EXPECT_GT(guides_->cache_misses(), misses);
}

TEST_F(ScenarioConnectionTest, UnknownPathsYieldNoConnections) {
  EXPECT_TRUE(guides_->FindConnections("/nope", "/country/name", 4, 8).empty());
}

TEST(ConnectionTest, SignatureAndToString) {
  Connection c;
  c.from_path = "/a/b";
  c.steps = {{Connection::Move::kUp, "/a", ""},
             {Connection::Move::kDown, "/a/c", ""},
             {Connection::Move::kLink, "/x", "rel"}};
  c.to_path = "/x";
  EXPECT_EQ(c.Signature(), "/a/b ^/a v/a/c ~rel>/x");
  EXPECT_TRUE(c.HasLink());
  EXPECT_NE(c.ToString().find("[rel]"), std::string::npos);
}

}  // namespace
}  // namespace seda::dataguide
