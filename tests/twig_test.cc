#include <gtest/gtest.h>

#include "data/generators.h"
#include "twig/twig.h"

namespace seda::twig {
namespace {

class TwigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    graph_->ResolveIdRefs();
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    generator_ = std::make_unique<CompleteResultGenerator>(index_.get(),
                                                           graph_.get());
    us_expr_ = text::ParseTextExpr("\"united states\"").value();
  }

  static constexpr const char* kName = "/country/name";
  static constexpr const char* kTrade =
      "/country/economy/import_partners/item/trade_country";
  static constexpr const char* kPct =
      "/country/economy/import_partners/item/percentage";

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<CompleteResultGenerator> generator_;
  std::unique_ptr<text::TextExpr> us_expr_;
};

TEST_F(TwigTest, Query1CompleteResult) {
  // Query 1 bound to the import contexts; default connections pair
  // trade_country and percentage within the same item.
  std::vector<TermBinding> terms{
      {kName, us_expr_.get()}, {kTrade, nullptr}, {kPct, nullptr}};
  auto result = generator_->Execute(terms, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // US docs: 2002 (2 items), 2004 (2), 2005 (2), 2006 (2) = 8 tuples.
  EXPECT_EQ(result.value().tuples.size(), 8u);
  EXPECT_EQ(result.value().twig_count, 1u);
  for (const ResultTuple& tuple : result.value().tuples) {
    // Same-item pairing: trade_country and percentage share 4 Dewey levels.
    EXPECT_EQ(xml::CommonPrefixLength(tuple.nodes[1].dewey, tuple.nodes[2].dewey),
              4u);
    EXPECT_EQ(tuple.nodes[0].doc, tuple.nodes[1].doc);
  }
}

TEST_F(TwigTest, CrossItemConnectionChangesPairing) {
  // Choosing the cross-item connection (join at import_partners) pairs
  // trade_country with the percentage of a DIFFERENT item.
  ChosenConnection cross;
  cross.term_a = 0;
  cross.term_b = 1;
  cross.is_link = false;
  cross.join_path = "/country/economy/import_partners";
  std::vector<TermBinding> terms{{kTrade, nullptr}, {kPct, nullptr}};
  auto result = generator_->Execute(terms, {cross});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().tuples.empty());
  for (const ResultTuple& tuple : result.value().tuples) {
    EXPECT_EQ(xml::CommonPrefixLength(tuple.nodes[0].dewey, tuple.nodes[1].dewey),
              3u);  // LCA exactly at import_partners
  }
}

TEST_F(TwigTest, ExecuteMatchesNaive) {
  std::vector<TermBinding> terms{
      {kName, us_expr_.get()}, {kTrade, nullptr}, {kPct, nullptr}};
  auto fast = generator_->Execute(terms, {});
  auto naive = generator_->ExecuteNaive(terms, {});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(fast.value().tuples.size(), naive.value().tuples.size());
  for (size_t i = 0; i < fast.value().tuples.size(); ++i) {
    for (size_t t = 0; t < terms.size(); ++t) {
      EXPECT_EQ(fast.value().tuples[i].nodes[t], naive.value().tuples[i].nodes[t]);
    }
  }
}

TEST_F(TwigTest, ExecuteMatchesNaiveOnCrossItem) {
  ChosenConnection cross;
  cross.term_a = 0;
  cross.term_b = 1;
  cross.is_link = false;
  cross.join_path = "/country/economy/import_partners";
  std::vector<TermBinding> terms{{kTrade, nullptr}, {kPct, nullptr}};
  auto fast = generator_->Execute(terms, {cross});
  auto naive = generator_->ExecuteNaive(terms, {cross});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(fast.value().tuples.size(), naive.value().tuples.size());
}

TEST_F(TwigTest, LinkJoinAcrossDocuments) {
  // sea --bordering--> mondial_country: cross-twig join via the IDREF edge.
  // The IDREF edge runs from the reifying /sea/bordering element (which is
  // not on the /sea/name root-to-leaf path) to the country root.
  ChosenConnection link;
  link.term_a = 0;
  link.term_b = 1;
  link.is_link = true;
  link.source_path = "/sea/bordering";
  link.target_path = "/mondial_country";
  link.link_label = "bordering";
  std::vector<TermBinding> terms{{"/sea/name", nullptr},
                                 {"/mondial_country/name", nullptr}};
  auto result = generator_->Execute(terms, {link});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Pacific->us, Pacific->ph, ChinaSea->china, ChinaSea->ph = 4 pairs.
  EXPECT_EQ(result.value().tuples.size(), 4u);
  EXPECT_EQ(result.value().cross_twig_joins, 1u);
  EXPECT_EQ(result.value().twig_count, 2u);

  auto naive = generator_->ExecuteNaive(terms, {link});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive.value().tuples.size(), result.value().tuples.size());
}

TEST_F(TwigTest, DisconnectedTwigsRejected) {
  std::vector<TermBinding> terms{{"/sea/name", nullptr},
                                 {"/mondial_country/name", nullptr}};
  auto result = generator_->Execute(terms, {});
  EXPECT_FALSE(result.ok());
}

TEST_F(TwigTest, InvalidBindingsRejected) {
  // Relative path is invalid.
  EXPECT_FALSE(generator_->Execute({{"name", nullptr}}, {}).ok());
  // Identical contexts with no explicit connection would always bind the
  // same node.
  std::vector<TermBinding> dupes{{kPct, nullptr}, {kPct, nullptr}};
  EXPECT_FALSE(generator_->Execute(dupes, {}).ok());
  // Tree join path must be a common ancestor.
  ChosenConnection bad;
  bad.term_a = 0;
  bad.term_b = 1;
  bad.join_path = "/sea";
  std::vector<TermBinding> terms{{kTrade, nullptr}, {kPct, nullptr}};
  EXPECT_FALSE(generator_->Execute(terms, {bad}).ok());
}

TEST_F(TwigTest, UnknownPathYieldsEmptyResult) {
  std::vector<TermBinding> terms{{"/country/name", us_expr_.get()},
                                 {"/country/bogus", nullptr}};
  auto result = generator_->Execute(terms, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().tuples.empty());
}

TEST_F(TwigTest, FromDataguideTreeConnection) {
  dataguide::Connection conn;
  conn.from_path = kTrade;
  conn.to_path = kPct;
  conn.steps = {{dataguide::Connection::Move::kUp,
                 "/country/economy/import_partners/item", ""},
                {dataguide::Connection::Move::kDown, kPct, ""}};
  auto chosen = ChosenConnection::FromDataguideConnection(0, 1, conn);
  ASSERT_TRUE(chosen.ok());
  EXPECT_FALSE(chosen.value().is_link);
  EXPECT_EQ(chosen.value().join_path, "/country/economy/import_partners/item");
}

TEST_F(TwigTest, FromDataguideLinkConnection) {
  dataguide::Connection conn;
  conn.from_path = "/sea/name";
  conn.to_path = "/mondial_country/name";
  conn.steps = {{dataguide::Connection::Move::kUp, "/sea", ""},
                {dataguide::Connection::Move::kLink, "/mondial_country",
                 "bordering"},
                {dataguide::Connection::Move::kDown, "/mondial_country/name", ""}};
  auto chosen = ChosenConnection::FromDataguideConnection(0, 1, conn);
  ASSERT_TRUE(chosen.ok());
  EXPECT_TRUE(chosen.value().is_link);
  EXPECT_EQ(chosen.value().source_path, "/sea");
  EXPECT_EQ(chosen.value().target_path, "/mondial_country");
  EXPECT_EQ(chosen.value().link_label, "bordering");
}

TEST_F(TwigTest, MultiLinkConnectionUnimplemented) {
  dataguide::Connection conn;
  conn.from_path = "/a";
  conn.to_path = "/c";
  conn.steps = {{dataguide::Connection::Move::kLink, "/b", "l1"},
                {dataguide::Connection::Move::kLink, "/c", "l2"}};
  EXPECT_FALSE(ChosenConnection::FromDataguideConnection(0, 1, conn).ok());
}

TEST_F(TwigTest, ContentPredicateFiltersTuples) {
  auto china = text::ParseTextExpr("china").value();
  std::vector<TermBinding> terms{{kTrade, china.get()}, {kPct, nullptr}};
  auto result = generator_->Execute(terms, {});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().tuples.empty());
  for (const ResultTuple& tuple : result.value().tuples) {
    EXPECT_EQ(store_.GetContent(tuple.nodes[0]), "China");
  }
}

TEST_F(TwigTest, DeadlineUnsetLeavesResultComplete) {
  std::vector<TermBinding> terms{
      {kName, us_expr_.get()}, {kTrade, nullptr}, {kPct, nullptr}};
  auto result = generator_->Execute(terms, {}, ExecuteOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().deadline_exceeded);
  EXPECT_EQ(result.value().tuples.size(), 8u);
}

/// Deadline coverage uses a synthetic wide document: N items each with an
/// <a> and a <b> child, joined cross-item at the root, so the enumeration
/// must walk ~N^2 pairs — enough work that a 1 ms budget reliably expires.
class TwigDeadlineTest : public ::testing::Test {
 protected:
  static constexpr size_t kItems = 256;

  void SetUp() override {
    std::string xml = "<root>";
    for (size_t i = 0; i < kItems; ++i) {
      xml += "<item><a>x</a><b>y</b></item>";
    }
    xml += "</root>";
    ASSERT_TRUE(store_.AddXml(xml, "wide").ok());
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    generator_ = std::make_unique<CompleteResultGenerator>(index_.get(),
                                                           graph_.get());
    cross_.term_a = 0;
    cross_.term_b = 1;
    cross_.is_link = false;
    cross_.join_path = "/root";
  }

  std::vector<TermBinding> Terms() const {
    return {{"/root/item/a", nullptr}, {"/root/item/b", nullptr}};
  }

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<CompleteResultGenerator> generator_;
  ChosenConnection cross_;
};

TEST_F(TwigDeadlineTest, UnboundedRunEnumeratesAllPairs) {
  auto result = generator_->Execute(Terms(), {cross_});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().deadline_exceeded);
  // Cross-item pairs only: LCA exactly at /root excludes same-item pairs.
  EXPECT_EQ(result.value().tuples.size(), kItems * kItems - kItems);
}

TEST_F(TwigDeadlineTest, TightDeadlineReturnsWellFormedPartialResult) {
  ExecuteOptions options;
  options.deadline_ms = 1;
  auto result = generator_->Execute(Terms(), {cross_}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CompleteResult& partial = result.value();
  if (!partial.deadline_exceeded) {
    // Machine outran the budget; the result must then be the full set.
    EXPECT_EQ(partial.tuples.size(), kItems * kItems - kItems);
    return;
  }
  EXPECT_LT(partial.tuples.size(), kItems * kItems - kItems);
  // Whatever was emitted before the cut must be fully correct tuples.
  for (const ResultTuple& tuple : partial.tuples) {
    ASSERT_EQ(tuple.nodes.size(), 2u);
    EXPECT_EQ(tuple.nodes[0].doc, tuple.nodes[1].doc);
    EXPECT_EQ(xml::CommonPrefixLength(tuple.nodes[0].dewey,
                                      tuple.nodes[1].dewey),
              1u);  // joined exactly at /root
    EXPECT_NE(tuple.paths[0], store::kInvalidPathId);
    EXPECT_NE(tuple.paths[1], store::kInvalidPathId);
  }
}

}  // namespace
}  // namespace seda::twig
