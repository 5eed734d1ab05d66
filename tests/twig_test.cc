#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>

#include "common/strings.h"
#include "core/seda.h"
#include "data/generators.h"
#include "reference/bfs.h"
#include "reference/complete_oracle.h"
#include "reference/micro_collection.h"
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

TEST_F(TwigTest, ExecuteMatchesCompleteOracle) {
  std::vector<TermBinding> terms{
      {kName, us_expr_.get()}, {kTrade, nullptr}, {kPct, nullptr}};
  auto fast = generator_->Execute(terms, {});
  ASSERT_TRUE(fast.ok());
  reference::ReferenceGraph graph(*graph_);
  auto oracle = reference::CompleteResults(*index_, graph, terms, {});
  ASSERT_EQ(fast.value().tuples.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(fast.value().tuples[i].nodes, oracle[i].nodes);
    EXPECT_EQ(fast.value().tuples[i].paths, oracle[i].paths);
  }
}

TEST_F(TwigTest, ExecuteMatchesCompleteOracleOnCrossItem) {
  ChosenConnection cross;
  cross.term_a = 0;
  cross.term_b = 1;
  cross.is_link = false;
  cross.join_path = "/country/economy/import_partners";
  std::vector<TermBinding> terms{{kTrade, nullptr}, {kPct, nullptr}};
  auto fast = generator_->Execute(terms, {cross});
  ASSERT_TRUE(fast.ok());
  reference::ReferenceGraph graph(*graph_);
  auto oracle = reference::CompleteResults(*index_, graph, terms, {cross});
  ASSERT_FALSE(oracle.empty());
  ASSERT_EQ(fast.value().tuples.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(fast.value().tuples[i].nodes, oracle[i].nodes);
  }
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

  reference::ReferenceGraph graph(*graph_);
  auto oracle = reference::CompleteResults(*index_, graph, terms, {link});
  ASSERT_EQ(oracle.size(), result.value().tuples.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].nodes, result.value().tuples[i].nodes);
  }
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

TEST_F(TwigTest, ContradictedTreeJoinRejected) {
  // The item term joins both leaves at their own item by default, so no
  // tuple can put the two leaves' common ancestor at import_partners.
  ChosenConnection cross;
  cross.term_a = 0;
  cross.term_b = 1;
  cross.join_path = "/country/economy/import_partners";
  std::vector<TermBinding> terms{{kTrade, nullptr},
                                 {kPct, nullptr},
                                 {"/country/economy/import_partners/item", nullptr}};
  auto result = generator_->Execute(terms, {cross});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  reference::ReferenceGraph graph(*graph_);
  EXPECT_TRUE(reference::CompleteResults(*index_, graph, terms, {cross}).empty());
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

/// A random complete-result request over a loaded collection: 1-3 terms
/// bound to paths that occur in it, with tree connections at random common
/// prefixes (or the default join), or a single link connection taken from
/// an edge of the data graph.
struct Request {
  std::vector<std::string> paths;
  std::vector<std::string> searches;  // "" = any content
  std::vector<ChosenConnection> connections;
};

class RequestGenerator {
 public:
  RequestGenerator(const store::DocumentStore& store,
                   const graph::DataGraph& graph, uint64_t seed)
      : graph_(&graph), rng_(seed) {
    std::set<std::string> paths;
    store.ForEachNode([&](const store::NodeId& id, const xml::Node* node) {
      if (node->kind() == xml::NodeKind::kText) return;
      paths.insert(node->ContextPath());
      path_of_[id] = node->ContextPath();
    });
    paths_.assign(paths.begin(), paths.end());
  }

  Request Next() {
    Request request;
    const size_t terms = 1 + Below(3);
    if (terms >= 2 && !graph_->edges().empty() && Below(2) == 0) {
      // Two twigs bridged by one link, taken from a real edge.
      const graph::Edge& edge = graph_->edges()[Below(graph_->edges().size())];
      ChosenConnection link;
      link.term_a = 0;
      link.term_b = 1;
      link.is_link = true;
      link.source_path = path_of_.at(edge.from);
      link.target_path = path_of_.at(edge.to);
      if (Below(3) != 0) link.link_label = edge.label;
      request.paths = {PathNear(link.source_path), PathNear(link.target_path)};
      request.connections.push_back(link);
    } else {
      request.paths = {paths_[Below(paths_.size())]};
    }
    while (request.paths.size() < terms) {
      request.paths.push_back(PathNear(request.paths[Below(request.paths.size())]));
    }
    // Tree connections at a random shared depth for some same-root pairs
    // not joined by the link; the rest take the default join.
    for (size_t i = 0; i < terms; ++i) {
      for (size_t j = i + 1; j < terms; ++j) {
        if (!request.connections.empty() && i == 0 && j == 1) continue;
        const size_t shared = SharedLabels(request.paths[i], request.paths[j]);
        if (shared == 0 || Below(2) == 0) continue;
        ChosenConnection tree;
        tree.term_a = i;
        tree.term_b = j;
        tree.join_path = Prefix(request.paths[i], 1 + Below(shared));
        request.connections.push_back(tree);
      }
    }
    for (size_t t = 0; t < terms; ++t) {
      request.searches.push_back(Below(4) == 0 ? kWords[Below(4)] : "");
    }
    return request;
  }

 private:
  static constexpr const char* kWords[] = {"red", "green", "blue", "gold"};

  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  static std::vector<std::string> Labels(const std::string& path) {
    return SplitSkipEmpty(path, '/');
  }
  static std::string Root(const std::string& path) { return Prefix(path, 1); }
  static std::string Prefix(const std::string& path, size_t depth) {
    std::string out;
    std::vector<std::string> labels = Labels(path);
    for (size_t d = 0; d < depth && d < labels.size(); ++d) out += "/" + labels[d];
    return out;
  }
  static size_t SharedLabels(const std::string& a, const std::string& b) {
    std::vector<std::string> la = Labels(a), lb = Labels(b);
    size_t d = 0;
    while (d < la.size() && d < lb.size() && la[d] == lb[d]) ++d;
    return d;
  }
  /// A path under the same root as `path`; half the time one at or below
  /// `path` itself, so that joins and links meet often.
  std::string PathNear(const std::string& path) {
    const bool below = Below(2) == 0;
    std::vector<const std::string*> near;
    for (const std::string& candidate : paths_) {
      if (below ? candidate == path || StartsWith(candidate, path + "/")
                : Root(candidate) == Root(path)) {
        near.push_back(&candidate);
      }
    }
    return *near[Below(near.size())];
  }

  const graph::DataGraph* graph_;
  std::mt19937_64 rng_;
  std::vector<std::string> paths_;
  std::unordered_map<store::NodeId, std::string, store::NodeIdHasher> path_of_;
};

/// Runs `count` generated requests through Execute and the oracle; every
/// request Execute accepts must return the oracle's tuple set. Returns how
/// many requests were compared.
size_t ExpectExecuteMatchesOracle(const core::Snapshot& snapshot, uint64_t seed,
                                  size_t count, size_t* tuples) {
  CompleteResultGenerator generator(&snapshot.index(), &snapshot.data_graph());
  reference::ReferenceGraph graph(snapshot.data_graph());
  RequestGenerator requests(snapshot.store(), snapshot.data_graph(), seed);
  size_t compared = 0;
  for (size_t r = 0; r < count; ++r) {
    Request request = requests.Next();
    std::vector<std::unique_ptr<text::TextExpr>> exprs;
    std::vector<TermBinding> terms;
    std::string label;
    for (size_t t = 0; t < request.paths.size(); ++t) {
      exprs.push_back(request.searches[t].empty()
                          ? nullptr
                          : text::ParseTextExpr(request.searches[t]).value());
      terms.push_back({request.paths[t], exprs.back().get()});
      label += " (" + request.paths[t] + ", " + request.searches[t] + ")";
    }
    for (const ChosenConnection& c : request.connections) {
      label += c.is_link ? " link " + std::to_string(c.term_a) + "-" +
                               std::to_string(c.term_b) + " " + c.source_path +
                               " -" + c.link_label + "-> " + c.target_path
                         : " tree " + std::to_string(c.term_a) + "-" +
                               std::to_string(c.term_b) + " " + c.join_path;
    }
    SCOPED_TRACE("request" + label);
    auto result = generator.Execute(terms, request.connections);
    if (!result.ok()) continue;  // rejected plans have no R(q) to compare
    ++compared;
    auto oracle =
        reference::CompleteResults(snapshot.index(), graph, terms,
                                   request.connections);
    *tuples += oracle.size();
    EXPECT_EQ(result.value().tuples.size(), oracle.size());
    for (size_t i = 0; i < oracle.size() && i < result.value().tuples.size();
         ++i) {
      EXPECT_EQ(result.value().tuples[i].nodes, oracle[i].nodes) << "row " << i;
      EXPECT_EQ(result.value().tuples[i].paths, oracle[i].paths) << "row " << i;
      if (result.value().tuples[i].nodes != oracle[i].nodes) break;
    }
  }
  return compared;
}

TEST(CompleteOracleTest, MicroCollectionsAgreeWithTheOracle) {
  size_t compared = 0, tuples = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const reference::MicroCollection collection =
        reference::GenerateMicroCollection(seed);
    core::Seda seda;
    ASSERT_TRUE(collection.Populate(seda.mutable_store()).ok());
    ASSERT_TRUE(seda.Finalize().ok());
    compared += ExpectExecuteMatchesOracle(*seda.snapshot(), seed, 40, &tuples);
  }
  std::printf("micro-collections: %zu requests compared, %zu tuples\n",
              compared, tuples);
  EXPECT_GT(compared, 400u);
  EXPECT_GT(tuples, 0u);
}

TEST(CompleteOracleTest, MondialAndFactbookAgreeWithTheOracle) {
  core::Seda mondial;
  data::MondialGenerator::Options mondial_options;
  mondial_options.scale = 0.03;
  data::MondialGenerator(mondial_options).Populate(mondial.mutable_store());
  ASSERT_TRUE(mondial.Finalize().ok());
  core::Seda factbook;
  data::WorldFactbookGenerator::Options factbook_options;
  factbook_options.scale = 0.03;
  data::WorldFactbookGenerator(factbook_options).Populate(factbook.mutable_store());
  ASSERT_TRUE(factbook.Finalize().ok());
  size_t tuples = 0;
  const size_t compared =
      ExpectExecuteMatchesOracle(*mondial.snapshot(), 7, 150, &tuples) +
      ExpectExecuteMatchesOracle(*factbook.snapshot(), 8, 150, &tuples);
  std::printf("mondial + factbook: %zu requests compared, %zu tuples\n",
              compared, tuples);
  EXPECT_GT(compared, 100u);
  EXPECT_GT(tuples, 0u);
}

}  // namespace
}  // namespace seda::twig
