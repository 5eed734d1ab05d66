#include <gtest/gtest.h>

#include "data/generators.h"
#include "graph/data_graph.h"
#include "graph/key_discovery.h"

namespace seda::graph {
namespace {

class ScenarioGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    graph_ = std::make_unique<DataGraph>(&store_);
    ASSERT_TRUE(graph_->BuildCsr());
  }
  store::DocumentStore store_;
  std::unique_ptr<DataGraph> graph_;
};

TEST_F(ScenarioGraphTest, ResolvesIdRefEdges) {
  size_t added = graph_->ResolveIdRefs();
  // Two seas x two bordering countries each (Figure 1).
  EXPECT_EQ(added, 4u);
  EXPECT_EQ(graph_->EdgeCount(), 4u);
}

TEST_F(ScenarioGraphTest, IdRefEdgesCarryRelationshipLabel) {
  graph_->ResolveIdRefs();
  ASSERT_TRUE(graph_->BuildCsr());
  bool found_bordering = false;
  store_.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    for (const Edge& edge : graph_->NonTreeEdges(id)) {
      if (edge.type == EdgeType::kIdRef && edge.label == "bordering") {
        found_bordering = true;
      }
    }
  });
  EXPECT_TRUE(found_bordering);
}

TEST_F(ScenarioGraphTest, ValueBasedEdges) {
  size_t added = graph_->AddValueBasedEdges(
      "/country/name", "/country/economy/import_partners/item/trade_country",
      "trade_partner");
  ASSERT_TRUE(graph_->BuildCsr());
  // "United States" (x4 name nodes... PK side is /country/name; each
  // matching trade_country FK node links to every equal-valued PK node).
  EXPECT_GT(added, 0u);
  bool found = false;
  store_.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    for (const Edge& edge : graph_->NonTreeEdges(id)) {
      if (edge.type == EdgeType::kValueBased) found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST_F(ScenarioGraphTest, DanglingIdRefIgnored) {
  store::DocumentStore store;
  ASSERT_TRUE(store.AddXml("<a><b idref=\"nope\"/></a>", "d").ok());
  DataGraph graph(&store);
  EXPECT_EQ(graph.ResolveIdRefs(), 0u);
}

TEST_F(ScenarioGraphTest, XLinkResolution) {
  store::DocumentStore store;
  ASSERT_TRUE(store.AddXml("<a id=\"target\"><x>1</x></a>", "d1").ok());
  ASSERT_TRUE(store.AddXml("<b><link href=\"d1#target\"/></b>", "d2").ok());
  DataGraph graph(&store);
  EXPECT_EQ(graph.ResolveXLinks(), 1u);
}

TEST_F(ScenarioGraphTest, ShortestPathWithinDocument) {
  // trade_country and percentage inside the same item are 2 apart.
  store::DocId us2006 = 3;  // us-2006 is the 4th scenario doc
  store::NodeId trade{us2006, xml::DeweyId::Parse("1.4.2.1.1")};
  store::NodeId pct{us2006, xml::DeweyId::Parse("1.4.2.1.2")};
  xml::Node* t = store_.GetNode(trade);
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->name(), "trade_country");
  auto len = graph_->ShortestPathLength(trade, pct, 6);
  ASSERT_TRUE(len.has_value());
  EXPECT_EQ(*len, 2u);
}

TEST_F(ScenarioGraphTest, ShortestPathAcrossIdRef) {
  graph_->ResolveIdRefs();
  ASSERT_TRUE(graph_->BuildCsr());
  // Pacific Ocean sea -> bordering -> mondial US country.
  store::DocId pacific_doc = 9;  // mondial-pacific
  store::DocId us_doc = 6;       // mondial-us
  xml::Node* sea_root = store_.document(pacific_doc).root();
  ASSERT_EQ(sea_root->name(), "sea");
  store::NodeId sea{pacific_doc, sea_root->dewey()};
  store::NodeId us{us_doc, store_.document(us_doc).root()->dewey()};
  auto path = graph_->ShortestPath(sea, us, 4);
  ASSERT_FALSE(path.empty());
  EXPECT_LE(path.size(), 4u);
}

TEST_F(ScenarioGraphTest, UnreachableWithinBound) {
  // Two unrelated factbook docs are not connected without value edges.
  store::NodeId a{0, xml::DeweyId::Parse("1.1")};
  store::NodeId b{4, xml::DeweyId::Parse("1.1")};
  EXPECT_FALSE(graph_->ShortestPathLength(a, b, 4).has_value());
}

TEST_F(ScenarioGraphTest, ConnectionSizeSameItemVsCrossItem) {
  store::DocId us2006 = 3;
  store::NodeId trade{us2006, xml::DeweyId::Parse("1.4.2.1.1")};
  store::NodeId pct_same{us2006, xml::DeweyId::Parse("1.4.2.1.2")};
  store::NodeId pct_other{us2006, xml::DeweyId::Parse("1.4.2.2.2")};
  auto same = graph_->ConnectionSize({trade, pct_same});
  auto cross = graph_->ConnectionSize({trade, pct_other});
  ASSERT_TRUE(same.has_value());
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(*same, 2u);
  EXPECT_EQ(*cross, 4u);
  EXPECT_LT(*same, *cross);  // compactness prefers the same-item pairing
}

TEST_F(ScenarioGraphTest, ConnectionSizeOfSingletonIsZero) {
  store::NodeId a{0, xml::DeweyId::Parse("1.1")};
  EXPECT_EQ(graph_->ConnectionSize({a}).value_or(99), 0u);
}

TEST_F(ScenarioGraphTest, ConnectionSizeTripleUsesSteinerTree) {
  // name (1.1), trade_country (1.3.2.1.1), percentage (1.3.2.1.2) in us-2002:
  // minimal subtree spans name..country..economy..import..item + 2 leaves.
  store::NodeId name{0, xml::DeweyId::Parse("1.1")};
  store::NodeId trade{0, xml::DeweyId::Parse("1.3.2.1.1")};
  store::NodeId pct{0, xml::DeweyId::Parse("1.3.2.1.2")};
  auto size = graph_->ConnectionSize({name, trade, pct});
  ASSERT_TRUE(size.has_value());
  // Edges: name-country, country-economy, economy-import_partners,
  // import_partners-item, item-trade_country, item-percentage = 6.
  EXPECT_EQ(*size, 6u);
}

TEST(KeyDiscoveryTest, FindsUniquePaths) {
  store::DocumentStore store;
  ASSERT_TRUE(store.AddXml("<r><id>1</id><v>x</v></r>", "a").ok());
  ASSERT_TRUE(store.AddXml("<r><id>2</id><v>x</v></r>", "b").ok());
  ASSERT_TRUE(store.AddXml("<r><id>3</id><v>y</v></r>", "c").ok());
  KeyDiscovery discovery(&store);
  auto keys = discovery.DiscoverKeys(2);
  bool found_id = false;
  for (const KeyCandidate& k : keys) {
    if (k.path == "/r/id") {
      found_id = true;
      EXPECT_TRUE(k.unique_in_collection);
      EXPECT_EQ(k.distinct_values, 3u);
    }
    if (k.path == "/r/v") {
      // "x" repeats across the collection, but each document holds a single
      // value, so /r/v only qualifies as a per-document key.
      EXPECT_FALSE(k.unique_in_collection);
      EXPECT_TRUE(k.unique_per_document);
    }
  }
  EXPECT_TRUE(found_id);
  EXPECT_TRUE(discovery.IsUniqueInCollection("/r/id"));
  EXPECT_FALSE(discovery.IsUniqueInCollection("/r/v"));
}

TEST(KeyDiscoveryTest, PerDocumentUniqueness) {
  store::DocumentStore store;
  // "x" repeats across docs but is unique within each.
  ASSERT_TRUE(store.AddXml("<r><tag>x</tag></r>", "a").ok());
  ASSERT_TRUE(store.AddXml("<r><tag>x</tag></r>", "b").ok());
  KeyDiscovery discovery(&store);
  auto keys = discovery.DiscoverKeys(2);
  bool found = false;
  for (const KeyCandidate& k : keys) {
    if (k.path == "/r/tag") {
      found = true;
      EXPECT_FALSE(k.unique_in_collection);
      EXPECT_TRUE(k.unique_per_document);
    }
  }
  EXPECT_TRUE(found);
}

TEST(EdgeTypeTest, Names) {
  EXPECT_STREQ(EdgeTypeName(EdgeType::kParentChild), "parent-child");
  EXPECT_STREQ(EdgeTypeName(EdgeType::kIdRef), "idref");
  EXPECT_STREQ(EdgeTypeName(EdgeType::kXLink), "xlink");
  EXPECT_STREQ(EdgeTypeName(EdgeType::kValueBased), "value-based");
}

}  // namespace
}  // namespace seda::graph
