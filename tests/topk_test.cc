#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/generators.h"
#include "graph/data_graph.h"
#include "query/query.h"
#include "reference/evaluate_nodes.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

namespace seda::topk {
namespace {

class TopKTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    graph_->ResolveIdRefs();
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    searcher_ = std::make_unique<TopKSearcher>(index_.get(), graph_.get());
  }

  query::Query Q(const std::string& text) {
    auto q = query::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<TopKSearcher> searcher_;
};

TEST_F(TopKTest, SingleTermReturnsScoredNodes) {
  TopKOptions options;
  options.k = 5;
  auto result = searcher_->Search(Q(R"((*, "Germany"))"), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().empty());
  for (const ScoredTuple& t : result.value()) {
    EXPECT_EQ(t.nodes.size(), 1u);
    EXPECT_GT(t.score, 0.0);
  }
}

TEST_F(TopKTest, ScoresAreDescending) {
  TopKOptions options;
  options.k = 10;
  auto result =
      searcher_->Search(Q(R"((*, "United States") AND (percentage, *))"), options);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result.value().size(), 1u);
  for (size_t i = 1; i < result.value().size(); ++i) {
    EXPECT_GE(result.value()[i - 1].score, result.value()[i].score);
  }
}

TEST_F(TopKTest, CompactnessPrefersSameItemPairs) {
  TopKOptions options;
  options.k = 3;
  auto result =
      searcher_->Search(Q("(trade_country, \"China\") AND (percentage, *)"), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().empty());
  // Best tuple must pair China's trade_country with the percentage in the
  // SAME item (connection size 2), not a sibling item's percentage.
  const ScoredTuple& best = result.value().front();
  EXPECT_EQ(best.connection_size, 2u);
}

TEST_F(TopKTest, RespectsK) {
  TopKOptions options;
  options.k = 2;
  auto result = searcher_->Search(Q("(trade_country, *) AND (percentage, *)"), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().size(), 2u);
}

TEST_F(TopKTest, ContextRestrictionFiltersCandidates) {
  TopKOptions options;
  options.k = 20;
  auto unrestricted = searcher_->Search(Q(R"((*, "United States"))"), options);
  auto restricted = searcher_->Search(Q(R"((/country/name, "United States"))"),
                                      options);
  ASSERT_TRUE(unrestricted.ok());
  ASSERT_TRUE(restricted.ok());
  EXPECT_LT(restricted.value().size(), unrestricted.value().size());
  for (const ScoredTuple& t : restricted.value()) {
    EXPECT_EQ(store_.paths().PathString(t.nodes[0].path), "/country/name");
  }
}

TEST_F(TopKTest, EmptyQueryRejected) {
  query::Query empty;
  EXPECT_FALSE(searcher_->Search(empty, TopKOptions{}).ok());
}

TEST_F(TopKTest, NoMatchesYieldsEmpty) {
  auto result = searcher_->Search(Q("(*, zzzznonexistent)"), TopKOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST_F(TopKTest, ScoreFormulaIsContentTimesCompactness) {
  TopKOptions options;
  options.k = 5;
  auto result =
      searcher_->Search(Q("(trade_country, \"Canada\") AND (percentage, *)"), options);
  ASSERT_TRUE(result.ok());
  for (const ScoredTuple& t : result.value()) {
    double expected =
        t.content_score / (1.0 + static_cast<double>(t.connection_size));
    EXPECT_NEAR(t.score, expected, 1e-9);
  }
}

/// Bit-exact rendering of a ranking: node ids, connection sizes and scores
/// as hex doubles.
std::string Fingerprint(const std::vector<ScoredTuple>& tuples) {
  std::string out;
  char buf[64];
  for (const ScoredTuple& t : tuples) {
    std::snprintf(buf, sizeof(buf), "%a|%zu[", t.score, t.connection_size);
    out += buf;
    for (const text::NodeMatch& nm : t.nodes) out += nm.node.ToString() + ",";
    out += "]\n";
  }
  return out;
}

/// A k above every tuple count: the heap never fills, so the TA threshold
/// never fires and the scan scores every candidate combination.
constexpr size_t kEveryTuple = size_t{1} << 30;

// Property: the TA search at k = 8 and the exhaustive ranking (the same
// search at a k above every tuple count) agree on the first 8 tuples, bit
// for bit — early termination must not change results.
class TaVsNaiveTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TaVsNaiveTest, SameTopScores) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  graph::DataGraph graph(&store);
  graph.ResolveIdRefs();
  ASSERT_TRUE(graph.BuildCsr());
  text::InvertedIndex index(&store);
  TopKSearcher searcher(&index, &graph);
  auto q = query::ParseQuery(GetParam());
  ASSERT_TRUE(q.ok());
  TopKOptions options;
  options.k = 8;
  TopKOptions exhaustive = options;
  exhaustive.k = kEveryTuple;
  SearchStats ta_stats, full_stats;
  auto ta = searcher.Search(q.value(), options, &ta_stats);
  auto full = searcher.Search(q.value(), exhaustive, &full_stats);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(full.ok());
  std::vector<ScoredTuple> prefix = full.value();
  if (prefix.size() > options.k) prefix.resize(options.k);
  EXPECT_EQ(Fingerprint(ta.value()), Fingerprint(prefix));
  EXPECT_FALSE(full_stats.early_terminated);
  EXPECT_LE(ta_stats.docs_scored, full_stats.docs_scored);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, TaVsNaiveTest,
    ::testing::Values(
        R"((*, "United States") AND (trade_country, *) AND (percentage, *))",
        "(trade_country, *) AND (percentage, *)",
        R"((name, "Mexico") AND (GDP, *))",
        R"((*, "China"))",
        R"((sea, *) AND (name, "Pacific"))"));

TEST_F(TopKTest, StatsArePopulated) {
  TopKOptions options;
  options.k = 3;
  SearchStats stats;
  auto result = searcher_->Search(
      Q("(trade_country, *) AND (percentage, *)"), options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.candidates_total, 0u);
  EXPECT_GT(stats.docs_considered, 0u);
  EXPECT_GT(stats.tuples_scored, 0u);
  EXPECT_GT(stats.postings_advanced, 0u);
}

// Regression for the bounded-heap top-k buffer: the search at small k must
// return exactly the prefix of the full ranking (same tuples, same order,
// same tie-breaks) that the old sort-on-every-insert produced.
TEST_F(TopKTest, BoundedHeapMatchesFullRankingPrefix) {
  query::Query query = Q("(trade_country, *) AND (percentage, *)");
  TopKOptions full_options;
  full_options.k = kEveryTuple;
  auto full = searcher_->Search(query, full_options);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().size(), 5u);
  for (size_t k : {1ul, 2ul, 5ul}) {
    TopKOptions options;
    options.k = k;
    auto result = searcher_->Search(query, options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().size(), k);
    std::vector<ScoredTuple> prefix(full.value().begin(),
                                    full.value().begin() + k);
    EXPECT_EQ(Fingerprint(result.value()), Fingerprint(prefix)) << "k=" << k;
  }
}

/// Two documents that reference each other through the matching nodes, so
/// each document's group borrows the other's candidate and both hold the
/// one cross-document tuple.
class MutualBorrowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        store_.AddXml(R"(<r id="x"><ref idref="y">apple</ref></r>)", "x").ok());
    ASSERT_TRUE(
        store_.AddXml(R"(<r id="y"><ref idref="x">berry</ref></r>)", "y").ok());
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    ASSERT_EQ(graph_->ResolveIdRefs(), 2u);
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    searcher_ = std::make_unique<TopKSearcher>(index_.get(), graph_.get());
    query_ = query::ParseQuery("(ref, apple) AND (ref, berry)").value();
  }

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<TopKSearcher> searcher_;
  query::Query query_;
};

TEST_F(MutualBorrowTest, CrossDocumentTupleIsReturnedOnce) {
  TopKOptions options;
  SearchStats stats;
  auto result = searcher_->Search(query_, options, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].nodes[0].node.doc, 0u);
  EXPECT_EQ(result.value()[0].nodes[1].node.doc, 1u);
  EXPECT_EQ(stats.docs_scored, 2u);    // both groups hold the tuple...
  EXPECT_EQ(stats.tuples_scored, 1u);  // ...and it is scored once
}

// Hand-built corpus where the TA bound order disagrees with the final score
// order, so the bounded heap must evict; and where two tuples tie exactly,
// so the document-order tie-break is observable.
class TupleHeapSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Doc 0: 'a' and 'b' far apart (large connection size, low final score).
    ASSERT_TRUE(store_
                    .AddXml("<r><a>apple</a><m><n><o><b>berry</b></o></n></m></r>",
                            "far")
                    .ok());
    // Docs 1 and 2: identical adjacent pairs (high, tying final scores).
    ASSERT_TRUE(store_.AddXml("<r><c><a>apple</a><b>berry</b></c></r>", "near1").ok());
    ASSERT_TRUE(store_.AddXml("<r><c><a>apple</a><b>berry</b></c></r>", "near2").ok());
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    searcher_ = std::make_unique<TopKSearcher>(index_.get(), graph_.get());
  }

  query::Query Q(const std::string& text) {
    auto q = query::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<TopKSearcher> searcher_;
};

TEST_F(TupleHeapSemanticsTest, EvictsWhenBetterTupleArrivesLater) {
  TopKOptions options;
  options.k = 1;
  SearchStats stats;
  auto result = searcher_->Search(Q("(a, apple) AND (b, berry)"), options, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  // The winner is an adjacent pair, not doc 0's far pair...
  EXPECT_EQ(result.value()[0].connection_size, 2u);
  // ...which requires the heap to have displaced doc 0's earlier tuple.
  EXPECT_GT(stats.heap_evictions, 0u);
}

/// Synthetic hub corpus reproducing the ROADMAP perf cliff: every country
/// imports from "United States", so value-based PK/FK edges all land on one
/// hub node (the US name) and, uncapped, cross-document borrowing welds all
/// documents into one giant per-document cross product.
class HubCapTest : public ::testing::Test {
 protected:
  static constexpr int kSatellites = 10;

  void SetUp() override {
    auto us = store_.AddXml(
        "<country><name>United States</name><economy><GDP>14000</GDP>"
        "</economy></country>",
        "us");
    ASSERT_TRUE(us.ok());
    for (int i = 0; i < kSatellites; ++i) {
      auto doc = store_.AddXml(
          "<country><name>Satellite " + std::to_string(i) +
              "</name><economy><import_partners><item>"
              "<trade_country>United States</trade_country><percentage>" +
              std::to_string(10 + i) +
              ".5</percentage></item></import_partners></economy></country>",
          "satellite-" + std::to_string(i));
      ASSERT_TRUE(doc.ok());
    }
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    // The paper's value-based input relationship: one PK node (the US name)
    // fans out to every satellite's trade_country leaf.
    ASSERT_EQ(graph_->AddValueBasedEdges(
                  "/country/name",
                  "/country/economy/import_partners/item/trade_country",
                  "trade_partner"),
              static_cast<size_t>(kSatellites));
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    searcher_ = std::make_unique<TopKSearcher>(index_.get(), graph_.get());
  }

  query::Query Q(const std::string& text) {
    auto q = query::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  TopKOptions CliffOptions() {
    TopKOptions options;
    options.k = 5;
    options.max_per_doc_per_term = 4;
    options.max_tuples_per_query = 0;  // isolate the hub cap
    return options;
  }

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<TopKSearcher> searcher_;
};

constexpr const char* kCliffQuery =
    R"((*, "United States") AND (trade_country, *) AND (percentage, *))";

TEST_F(HubCapTest, HubDegreeCapBoundsCrossDocumentBlowup) {
  // Uncapped: the hub links every satellite to the US doc and vice versa, so
  // borrowed candidates inflate every document's cross product.
  TopKOptions uncapped = CliffOptions();
  uncapped.max_hub_degree = 0;
  SearchStats uncapped_stats;
  auto uncapped_result =
      searcher_->Search(Q(kCliffQuery), uncapped, &uncapped_stats);
  ASSERT_TRUE(uncapped_result.ok());
  EXPECT_EQ(uncapped_stats.hub_links_skipped, 0u);

  // Capped below the hub's degree: links mediated by the hub are dropped
  // (counted), and tuple enumeration shrinks by an order of magnitude.
  TopKOptions capped = CliffOptions();
  capped.max_hub_degree = kSatellites / 2;
  SearchStats capped_stats;
  auto capped_result = searcher_->Search(Q(kCliffQuery), capped, &capped_stats);
  ASSERT_TRUE(capped_result.ok());
  EXPECT_GT(capped_stats.hub_links_skipped, 0u);
  EXPECT_LT(capped_stats.tuples_scored, uncapped_stats.tuples_scored / 4);
  // Trimming hub noise must not cost answers: the in-document matches still
  // fill the top-k.
  EXPECT_EQ(capped_result.value().size(), uncapped_result.value().size());
}

TEST_F(HubCapTest, DefaultOptionsDoNotTouchLowDegreeCorpora) {
  // The default cap (64) is far above this corpus' hub degree (10): results
  // and counters must be identical to an explicitly uncapped run.
  TopKOptions defaults = CliffOptions();  // max_hub_degree = 64 default
  SearchStats default_stats;
  auto default_result =
      searcher_->Search(Q(kCliffQuery), defaults, &default_stats);
  TopKOptions uncapped = CliffOptions();
  uncapped.max_hub_degree = 0;
  SearchStats uncapped_stats;
  auto uncapped_result =
      searcher_->Search(Q(kCliffQuery), uncapped, &uncapped_stats);
  ASSERT_TRUE(default_result.ok());
  ASSERT_TRUE(uncapped_result.ok());
  EXPECT_EQ(default_stats.hub_links_skipped, 0u);
  EXPECT_EQ(default_stats.tuples_scored, uncapped_stats.tuples_scored);
  ASSERT_EQ(default_result.value().size(), uncapped_result.value().size());
  for (size_t i = 0; i < default_result.value().size(); ++i) {
    EXPECT_EQ(default_result.value()[i].ToString(store_),
              uncapped_result.value()[i].ToString(store_));
  }
}

TEST_F(HubCapTest, TupleBudgetIsAHardCeiling) {
  TopKOptions budgeted = CliffOptions();
  budgeted.max_hub_degree = 0;   // leave the blowup on
  budgeted.max_tuples_per_query = 40;
  SearchStats stats;
  auto result = searcher_->Search(Q(kCliffQuery), budgeted, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(stats.tuples_scored, 40u);
  EXPECT_GT(stats.tuples_trimmed, 0u);
  // The budget consumes documents in TA upper-bound order, so the best
  // answers are scored before it runs out.
  EXPECT_FALSE(result.value().empty());
}

TEST_F(HubCapTest, TrimmedCountsAreSurfacedInSearchStats) {
  TopKOptions options = CliffOptions();
  options.max_hub_degree = 1;
  options.max_tuples_per_query = 10;
  SearchStats stats;
  ASSERT_TRUE(searcher_->Search(Q(kCliffQuery), options, &stats).ok());
  // Both trim counters fire on this corpus and are visible to callers.
  EXPECT_GT(stats.hub_links_skipped, 0u);
  EXPECT_GT(stats.tuples_trimmed, 0u);
  EXPECT_LE(stats.tuples_scored, 10u);
}

TEST_F(TupleHeapSemanticsTest, ExactTiesBreakByDocumentOrder) {
  TopKOptions options;
  options.k = 3;
  auto result = searcher_->Search(Q("(a, apple) AND (b, berry)"), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 3u);
  // Docs 1 and 2 tie exactly; document order must decide rank 0 vs rank 1.
  EXPECT_EQ(result.value()[0].score, result.value()[1].score);
  EXPECT_EQ(result.value()[0].nodes[0].node.doc, 1u);
  EXPECT_EQ(result.value()[1].nodes[0].node.doc, 2u);
  EXPECT_EQ(result.value()[2].nodes[0].node.doc, 0u);
}

// --- NOT / "*" terms stream instead of materializing the node universe ---

/// Universe-sized intermediates the pre-cursor evaluator allocated for an
/// expression: one per kAll leaf, one per NOT (its complement base), one per
/// pure-negation conjunction. A lower bound: it also allocated
/// universe-sized subtraction outputs on top.
uint64_t UniverseAllocations(const text::TextExpr& e) {
  using Kind = text::TextExpr::Kind;
  switch (e.kind) {
    case Kind::kAll:
      return 1;
    case Kind::kTerm:
    case Kind::kPhrase:
      return 0;
    case Kind::kNot:
      return 1 + UniverseAllocations(*e.children.front());
    case Kind::kAnd: {
      uint64_t n = 0;
      bool have_positive = false;
      for (const auto& child : e.children) {
        if (child->kind == Kind::kNot) {
          n += UniverseAllocations(*child->children.front());
        } else {
          have_positive = true;
          n += UniverseAllocations(*child);
        }
      }
      return n + (have_positive ? 0 : 1);
    }
    case Kind::kOr: {
      uint64_t n = 0;
      for (const auto& child : e.children) n += UniverseAllocations(*child);
      return n;
    }
  }
  return 0;
}

/// The candidate volume the pre-cursor engine materialized for `query`: the
/// full (uncapped, pre-context-filter) reference-evaluator output per content
/// term, the context's node occurrences per structure-only term, plus one
/// universe-sized vector per NOT/kAll intermediate.
uint64_t OldMaterializedCandidates(const text::InvertedIndex& index,
                                   const query::Query& query) {
  uint64_t total = 0;
  for (const query::QueryTerm& term : query.terms) {
    if (!term.search || term.search->kind == text::TextExpr::Kind::kAll) {
      for (store::PathId path :
           term.context.ResolvePathIds(index.store().paths())) {
        total += index.NodesWithPath(path).size();
      }
      continue;
    }
    total += reference::EvaluateNodes(index, *term.search).size();
    total += UniverseAllocations(*term.search) * index.IndexedNodeCount();
  }
  return total;
}

TEST(UniverseBoundTest, NotAndStarQueriesAdvanceFewerPostingsThanTheOldEngine) {
  store::DocumentStore store;
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.05;
  data::WorldFactbookGenerator(options).Populate(&store);
  graph::DataGraph graph(&store);
  ASSERT_TRUE(graph.BuildCsr());
  text::InvertedIndex index(&store);
  TopKSearcher searcher(&index, &graph);

  struct Panel {
    const char* text;
    /// The old engine materialized a node universe for it (a NOT term or
    /// an unrestricted "*" term).
    bool universe_bound;
  };
  const Panel panel[] = {
      {R"((*, "United States") AND (trade_country, *) AND (percentage, *))",
       false},
      {R"((name, "China") AND (GDP, *))", false},
      {"(trade_country, *) AND (percentage, *)", false},
      {R"((*, NOT china) AND (name, *))", true},
      {R"((name, NOT "united states") AND (GDP, *))", true},
      {R"((*, "Canada"))", false},
  };
  for (const Panel& entry : panel) {
    SCOPED_TRACE(entry.text);
    auto query = query::ParseQuery(entry.text);
    ASSERT_TRUE(query.ok());
    TopKOptions topk_options;
    topk_options.k = 10;
    SearchStats stats;
    auto result = searcher.Search(query.value(), topk_options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!entry.universe_bound) continue;
    EXPECT_LT(stats.postings_advanced,
              OldMaterializedCandidates(index, query.value()));
  }
}

}  // namespace
}  // namespace seda::topk
