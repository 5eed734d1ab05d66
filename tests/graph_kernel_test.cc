#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "core/seda.h"
#include "data/generators.h"
#include "graph/csr.h"
#include "graph/data_graph.h"
#include "graph_kernels_golden.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "query/query.h"
#include "reference/bfs.h"
#include "reference/topk_oracle.h"
#include "store/document_store.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

namespace seda::graph {
namespace {

using reference::ReferenceGraph;

std::string TempImagePath(const std::string& name) {
  return ::testing::TempDir() + "seda_graph_kernel_" + name + "_" +
         std::to_string(::getpid()) + ".img";
}

/// All non-text nodes of the store, in document order — the CSR vertex
/// universe.
std::vector<store::NodeId> ElementNodes(const store::DocumentStore& store) {
  std::vector<store::NodeId> nodes;
  store.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    nodes.push_back(id);
  });
  return nodes;
}

/// Deterministic sample of ~`want` entries spread across the vector.
std::vector<store::NodeId> Sample(const std::vector<store::NodeId>& nodes,
                                  size_t want) {
  std::vector<store::NodeId> out;
  if (nodes.empty()) return out;
  size_t stride = std::max<size_t>(1, nodes.size() / want);
  for (size_t i = 0; i < nodes.size(); i += stride) out.push_back(nodes[i]);
  return out;
}

/// One corpus the property tests run over: an owned store + a resolved,
/// CSR-built graph.
struct Corpus {
  std::string name;
  std::unique_ptr<store::DocumentStore> store;
  std::unique_ptr<DataGraph> graph;
};

Corpus MakeScenario() {
  Corpus c;
  c.name = "scenario";
  c.store = std::make_unique<store::DocumentStore>();
  data::PopulateScenario(c.store.get());
  c.graph = std::make_unique<DataGraph>(c.store.get());
  c.graph->ResolveLinks(/*idrefs=*/true, /*xlinks=*/true);
  c.graph->AddValueBasedEdges(
      "/country/name", "/country/economy/import_partners/item/trade_country",
      "trade_partner");
  return c;
}

/// The ROADMAP hub cliff in miniature: every satellite's trade_country leaf
/// links to the one US name node, so one vertex carries ~all non-tree edges.
Corpus MakeHub(int satellites) {
  Corpus c;
  c.name = "hub";
  c.store = std::make_unique<store::DocumentStore>();
  EXPECT_TRUE(c.store
                  ->AddXml(
                      "<country><name>United States</name><economy>"
                      "<GDP>14000</GDP></economy></country>",
                      "us")
                  .ok());
  for (int i = 0; i < satellites; ++i) {
    EXPECT_TRUE(c.store
                    ->AddXml("<country><name>Satellite " + std::to_string(i) +
                                 "</name><economy><import_partners><item>"
                                 "<trade_country>United States</trade_country>"
                                 "<percentage>" + std::to_string(10 + i % 80) +
                                 ".5</percentage></item></import_partners>"
                                 "</economy></country>",
                             "satellite-" + std::to_string(i))
                    .ok());
  }
  c.graph = std::make_unique<DataGraph>(c.store.get());
  EXPECT_EQ(c.graph->AddValueBasedEdges(
                "/country/name",
                "/country/economy/import_partners/item/trade_country",
                "trade_partner"),
            static_cast<size_t>(satellites));
  return c;
}

Corpus MakeMondial() {
  Corpus c;
  c.name = "mondial";
  c.store = std::make_unique<store::DocumentStore>();
  data::MondialGenerator::Options options;
  options.scale = 0.02;
  data::MondialGenerator(options).Populate(c.store.get());
  c.graph = std::make_unique<DataGraph>(c.store.get());
  c.graph->ResolveLinks(/*idrefs=*/true, /*xlinks=*/true);
  return c;
}

Corpus MakeFactbook() {
  Corpus c;
  c.name = "factbook";
  c.store = std::make_unique<store::DocumentStore>();
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.02;
  data::WorldFactbookGenerator(options).Populate(c.store.get());
  c.graph = std::make_unique<DataGraph>(c.store.get());
  c.graph->ResolveLinks(/*idrefs=*/true, /*xlinks=*/true);
  c.graph->AddValueBasedEdges(
      "/country/name", "/country/economy/import_partners/item/trade_country",
      "trade_partner");
  return c;
}

/// Hand-wired edge shapes no resolve scan produces: duplicate parallel
/// edges, a self-loop, edges inside one document and from attribute nodes —
/// each changes row order or multiplicity.
Corpus MakeTangle() {
  Corpus c;
  c.name = "tangle";
  c.store = std::make_unique<store::DocumentStore>();
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(c.store
                    ->AddXml("<r k=\"" + std::to_string(i) + "\"><a><b>x" +
                                 std::to_string(i) + "</b><c/></a><d><e/>"
                                 "</d></r>",
                             "tangle-" + std::to_string(i))
                    .ok());
  }
  c.graph = std::make_unique<DataGraph>(c.store.get());
  std::vector<store::NodeId> nodes = ElementNodes(*c.store);
  const size_t n = nodes.size();
  auto add = [&](size_t from, size_t to) {
    c.graph->AddEdge(nodes[from % n], nodes[to % n], EdgeType::kIdRef, "t");
  };
  add(2, 15);
  add(2, 15);  // parallel duplicate
  add(9, 9);   // self-loop
  add(15, 2);  // the reverse of the duplicate pair
  add(3, 6);   // same document
  add(1, 40);  // from doc 0's attribute to a far document
  for (size_t i = 0; i < n; i += 7) add(i, i * 5 + 3);
  return c;
}

/// Runs `fn(corpus)` over every generator corpus with the CSR layer built.
template <typename Fn>
void ForEachCorpus(const Fn& fn) {
  for (auto* make : {&MakeScenario, &MakeMondial, &MakeFactbook, &MakeTangle}) {
    Corpus c = make();
    ASSERT_TRUE(c.graph->BuildCsr()) << c.name;
    ASSERT_NE(c.graph->csr(), nullptr) << c.name;
    fn(c);
  }
  Corpus hub = MakeHub(40);
  ASSERT_TRUE(hub.graph->BuildCsr());
  fn(hub);
}

/// Deterministic pair sample: each sampled node against a handful of
/// pseudo-scattered partners (same-document and cross-document mixes).
std::vector<std::pair<store::NodeId, store::NodeId>> SamplePairs(
    const std::vector<store::NodeId>& nodes, size_t want_nodes) {
  std::vector<store::NodeId> sampled = Sample(nodes, want_nodes);
  std::vector<std::pair<store::NodeId, store::NodeId>> pairs;
  for (size_t i = 0; i < sampled.size(); ++i) {
    for (size_t step : {1u, 7u, 23u}) {
      pairs.emplace_back(sampled[i], sampled[(i * 3 + step) % sampled.size()]);
    }
  }
  return pairs;
}

/// Saves `graph` (edge log + CSR) to an image and loads it back over the
/// same store.
std::unique_ptr<DataGraph> Reopen(const Corpus& c, const std::string& tag) {
  std::string path = TempImagePath(tag);
  {
    persist::ImageWriter writer;
    EXPECT_TRUE(writer.Open(path).ok());
    EXPECT_TRUE(c.graph->SaveTo(&writer).ok());
    EXPECT_TRUE(writer.Finish(/*epoch=*/1).ok());
  }
  auto image = persist::MappedImage::Open(path);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  std::remove(path.c_str());  // the mapping keeps the bytes alive
  if (!image.ok()) return nullptr;
  auto loaded = DataGraph::LoadFrom(std::move(image).value(), c.store.get());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return nullptr;
  return std::move(loaded).value();
}

/// Everything an Edge carries, as one comparable string.
std::vector<std::string> EdgeKeys(const std::vector<Edge>& edges) {
  std::vector<std::string> keys;
  for (const Edge& e : edges) {
    keys.push_back(e.from.ToString() + ">" + e.to.ToString() + " " +
                   EdgeTypeName(e.type) + " " + e.label);
  }
  return keys;
}

TEST(CsrLayoutTest, RowsMatchForEachNeighborWalk) {
  ForEachCorpus([](const Corpus& c) {
    const Csr* csr = c.graph->csr();
    ReferenceGraph ref(*c.graph);
    std::vector<store::NodeId> nodes = ElementNodes(*c.store);
    EXPECT_EQ(csr->num_vertices(), nodes.size()) << c.name;
    EXPECT_EQ(csr->edge_count(), c.graph->EdgeCount()) << c.name;
    for (const store::NodeId& id : Sample(nodes, 300)) {
      auto v = csr->VertexOf(id);
      ASSERT_TRUE(v.has_value()) << c.name;
      EXPECT_EQ(csr->NodeIdOf(*v), id) << c.name;
      // The reference walk, mapped to vertices, must equal the CSR row
      // element for element (duplicates and all).
      std::vector<uint32_t> walk;
      for (const store::NodeId& n : ref.Neighbors(id)) {
        auto vn = csr->VertexOf(n);
        ASSERT_TRUE(vn.has_value()) << c.name;
        walk.push_back(*vn);
      }
      std::vector<uint32_t> row(csr->RowBegin(*v), csr->RowEnd(*v));
      EXPECT_EQ(row, walk) << c.name << " vertex " << *v;
      EXPECT_EQ(csr->DegreeOf(*v), walk.size()) << c.name;
      EXPECT_EQ(csr->NonTreeDegreeOf(*v), ref.NonTreeEdges(id).size())
          << c.name;
      EXPECT_EQ(c.graph->Degree(id), ref.NonTreeEdges(id).size()) << c.name;
    }
  });
}

TEST(CsrLayoutTest, NonTreeEdgesMatchReferenceLogOrder) {
  // Every node — text nodes included — before and after a Save/Open round
  // trip: the derived edge-id rows reproduce the out-then-in log order.
  ForEachCorpus([](const Corpus& c) {
    ReferenceGraph ref(*c.graph);
    std::unique_ptr<DataGraph> reopened = Reopen(c, "edges_" + c.name);
    ASSERT_NE(reopened, nullptr) << c.name;
    size_t with_edges = 0;
    c.store->ForEachNode([&](const store::NodeId& id, xml::Node*) {
      std::vector<std::string> expected = EdgeKeys(ref.NonTreeEdges(id));
      if (!expected.empty()) ++with_edges;
      EXPECT_EQ(EdgeKeys(c.graph->NonTreeEdges(id)), expected)
          << c.name << " " << id.ToString();
      EXPECT_EQ(EdgeKeys(reopened->NonTreeEdges(id)), expected)
          << c.name << " reopened " << id.ToString();
    });
    EXPECT_GT(with_edges, 0u) << c.name;
  });
}

TEST(CsrLayoutTest, SortedRowsAreSortedDedupedRows) {
  ForEachCorpus([](const Corpus& c) {
    const Csr* csr = c.graph->csr();
    for (uint32_t v = 0; v < csr->num_vertices();
         v += std::max<uint32_t>(1, csr->num_vertices() / 300)) {
      std::vector<uint32_t> expect(csr->RowBegin(v), csr->RowEnd(v));
      std::sort(expect.begin(), expect.end());
      expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
      std::vector<uint32_t> sorted(csr->SortedRowBegin(v),
                                   csr->SortedRowEnd(v));
      EXPECT_EQ(sorted, expect) << c.name << " vertex " << v;
    }
  });
}

TEST(CsrLayoutTest, TextNodesHaveNoVertexAndAnswerThroughTheirParent) {
  Corpus c = MakeScenario();
  ASSERT_TRUE(c.graph->BuildCsr());
  ReferenceGraph ref(*c.graph);
  std::vector<store::NodeId> texts;
  c.store->ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) texts.push_back(id);
  });
  ASSERT_FALSE(texts.empty());
  texts = Sample(texts, 12);
  std::vector<store::NodeId> targets = Sample(ElementNodes(*c.store), 20);
  size_t budget_checked = 0;
  for (const store::NodeId& text : texts) {
    EXPECT_FALSE(c.graph->csr()->VertexOf(text).has_value());
    EXPECT_EQ(c.graph->ShortestPathLength(text, text, 12),
              std::optional<size_t>(0));
    for (const store::NodeId& b : targets) {
      // A text start: one step to its parent, then the parent's answer.
      EXPECT_EQ(c.graph->ShortestPathLength(text, b, 12),
                ref.ShortestPathLength(text, b, 12))
          << text.ToString() << " -> " << b.ToString();
      EXPECT_EQ(c.graph->ShortestPath(text, b, 6), ref.ShortestPath(text, b, 6))
          << text.ToString() << " -> " << b.ToString();
      // A text target is reachable only from itself.
      EXPECT_EQ(c.graph->ShortestPathLength(b, text, 12), std::nullopt);
      EXPECT_EQ(ref.ShortestPathLength(b, text, 12), std::nullopt);
      // Beyond the parent's distance-2 shortcut, the budgeted walk counts
      // exactly like the reference, the text step included.
      auto unbudgeted = ref.ShortestPathLength(text, b, 12);
      if (unbudgeted.has_value() && *unbudgeted <= 3) continue;
      for (size_t visits : {1u, 2u, 3u, 8u}) {
        GraphStats ref_stats, csr_stats;
        EXPECT_EQ(c.graph->ShortestPathLength(text, b, 12, visits, &csr_stats),
                  ref.ShortestPathLength(text, b, 12, visits, &ref_stats));
        EXPECT_EQ(csr_stats.bfs_expansions, ref_stats.bfs_expansions)
            << text.ToString() << " -> " << b.ToString() << " visits "
            << visits;
        ++budget_checked;
      }
    }
  }
  EXPECT_GT(budget_checked, 0u);
}

TEST(KernelEquivalenceTest, ShortestPathLengthMatchesLegacyBudgetOff) {
  // "Legacy" is the hash-map walker the engine used before the CSR, kept as
  // the reference in tests/reference/.
  ForEachCorpus([](const Corpus& c) {
    ReferenceGraph ref(*c.graph);
    auto pairs = SamplePairs(ElementNodes(*c.store), 40);
    for (const auto& [a, b] : pairs) {
      for (size_t depth : {2u, 4u, 12u}) {
        EXPECT_EQ(c.graph->ShortestPathLength(a, b, depth),
                  ref.ShortestPathLength(a, b, depth))
            << c.name << " depth " << depth;
      }
    }
  });
}

TEST(KernelEquivalenceTest, ShortestPathNodesMatchLegacyBudgetOff) {
  ForEachCorpus([](const Corpus& c) {
    ReferenceGraph ref(*c.graph);
    auto pairs = SamplePairs(ElementNodes(*c.store), 25);
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(c.graph->ShortestPath(a, b, 6), ref.ShortestPath(a, b, 6))
          << c.name;
    }
  });
}

TEST(KernelEquivalenceTest, ConnectionSizeMatchesLegacyBudgetOff) {
  ForEachCorpus([](const Corpus& c) {
    ReferenceGraph ref(*c.graph);
    std::vector<store::NodeId> sampled = Sample(ElementNodes(*c.store), 30);
    for (size_t i = 0; i + 2 < sampled.size(); i += 3) {
      std::vector<store::NodeId> tuple = {sampled[i], sampled[i + 1],
                                          sampled[i + 2]};
      EXPECT_EQ(c.graph->ConnectionSize(tuple), ref.ConnectionSize(tuple))
          << c.name;
    }
  });
}

TEST(KernelEquivalenceTest, BudgetedCsrBfsMatchesLegacyExactly) {
  // Wherever the reference puts a pair beyond distance 2 (or finds it
  // unreachable), the CSR runs the same budgeted BFS: same answers, same
  // paths, and the same expansion counts under every budget.
  ForEachCorpus([](const Corpus& c) {
    ReferenceGraph ref(*c.graph);
    auto pairs = SamplePairs(ElementNodes(*c.store), 30);
    size_t checked = 0;
    for (const auto& [a, b] : pairs) {
      auto unbudgeted = ref.ShortestPathLength(a, b, 12);
      if (unbudgeted.has_value() && *unbudgeted <= 2) continue;
      for (size_t visits : {1u, 3u, 8u, 64u}) {
        GraphStats ref_stats, csr_stats;
        EXPECT_EQ(c.graph->ShortestPathLength(a, b, 12, visits, &csr_stats),
                  ref.ShortestPathLength(a, b, 12, visits, &ref_stats))
            << c.name << " visits " << visits;
        EXPECT_EQ(csr_stats.bfs_expansions, ref_stats.bfs_expansions)
            << c.name << " visits " << visits;
        EXPECT_EQ(c.graph->ShortestPath(a, b, 12, visits),
                  ref.ShortestPath(a, b, 12, visits))
            << c.name << " visits " << visits;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u) << c.name;
  });
}

TEST(KernelEquivalenceTest, AutoAnswersWithinTwoAreBudgetIndependent) {
  // Any distance <= 2 answer is exact regardless of max_visits (the
  // reference walker's budget can truncate those to "not connected").
  ForEachCorpus([](const Corpus& c) {
    auto pairs = SamplePairs(ElementNodes(*c.store), 30);
    for (const auto& [a, b] : pairs) {
      auto unbudgeted = c.graph->ShortestPathLength(a, b, 12);
      if (!unbudgeted.has_value() || *unbudgeted > 2) continue;
      for (size_t visits : {1u, 2u, 5u}) {
        GraphStats stats;
        EXPECT_EQ(c.graph->ShortestPathLength(a, b, 12, visits, &stats),
                  unbudgeted)
            << c.name;
        EXPECT_EQ(stats.bfs_expansions, 0u) << c.name;
        EXPECT_EQ(c.graph->ShortestPath(a, b, 12, visits),
                  c.graph->ShortestPath(a, b, 12))
            << c.name;
      }
    }
  });
}

TEST(KernelEquivalenceTest, SameDocumentNodeDoesNotConnectAnotherForFree) {
  // (item@1, trade_country@2, percentage@1): item and percentage share
  // satellite 1's item subtree (1 edge); trade_country@2 reaches it through
  // the hub, trade_country@2 -> US name -> trade_country@1 -> item@1 (3
  // edges). Connecting percentage@1 at cost 0 must not also connect
  // trade_country@2, which an earlier scan of the greedy loop priced at 3.
  Corpus c = MakeHub(2);
  ASSERT_TRUE(c.graph->BuildCsr());
  const std::vector<store::NodeId> tuple = {
      {1, xml::DeweyId::Parse("1.2.1.1")},
      {2, xml::DeweyId::Parse("1.2.1.1.1")},
      {1, xml::DeweyId::Parse("1.2.1.1.2")}};
  EXPECT_EQ(c.graph->ConnectionSize(tuple), std::optional<size_t>(1 + 3));
  EXPECT_EQ(ReferenceGraph(*c.graph).ConnectionSize(tuple),
            std::optional<size_t>(1 + 3));
}

/// Byte-exact rendering of everything a caller observes in a ranking: node
/// identities, the connection size and the exact score bits (%a).
std::string RankingFingerprint(const std::vector<topk::ScoredTuple>& tuples) {
  std::string fp;
  char buf[64];
  for (const auto& tuple : tuples) {
    for (const auto& match : tuple.nodes) {
      fp += std::to_string(match.node.doc) + ':' + match.node.dewey.ToString() +
            ' ';
    }
    std::snprintf(buf, sizeof(buf), "c=%a n=%zu s=%a\n", tuple.content_score,
                  tuple.connection_size, tuple.score);
    fp += buf;
  }
  return fp;
}

TEST(KernelEquivalenceTest, CliffQueryRankingMatchesTheGoldenUnderAnyBudget) {
  // The hub cliff at full size: 200 satellites all link to the US name node.
  Corpus c = MakeHub(200);
  ASSERT_TRUE(c.graph->BuildCsr());
  text::InvertedIndex index(c.store.get());
  topk::TopKSearcher searcher(&index, c.graph.get());
  auto query = query::ParseQuery(
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))");
  ASSERT_TRUE(query.ok());
  topk::TopKOptions options;
  options.k = 5;
  options.max_per_doc_per_term = 4;
  options.max_hub_degree = 0;  // uncapped: exercise the hub
  // The tuple budget trims in TA order before any kernel runs; the golden
  // ranking was captured under the same budget.
  options.max_tuples_per_query = 1000;
  options.max_connect_visits = 0;
  auto budget_off = searcher.Search(query.value(), options);
  ASSERT_TRUE(budget_off.ok());
  EXPECT_EQ(RankingFingerprint(budget_off.value()), kGoldenCliffRanking);

  // Every answer within 2 hub hops is budget-independent.
  options.max_connect_visits = 64;
  auto budget_on = searcher.Search(query.value(), options);
  ASSERT_TRUE(budget_on.ok());
  EXPECT_EQ(RankingFingerprint(budget_on.value()),
            RankingFingerprint(budget_off.value()));

  // Each row is the oracle's score of the same nodes, bit for bit, with the
  // content scores taken from the oracle's own candidates.
  ReferenceGraph ref(*c.graph);
  reference::TopKOracle oracle(index, ref);
  const auto candidates = oracle.Candidates(query.value());
  for (const topk::ScoredTuple& tuple : budget_off.value()) {
    std::vector<text::NodeMatch> nodes;
    for (size_t t = 0; t < tuple.nodes.size(); ++t) {
      auto found = std::find_if(candidates[t].begin(), candidates[t].end(),
                                [&](const text::NodeMatch& m) {
                                  return m.node == tuple.nodes[t].node;
                                });
      ASSERT_NE(found, candidates[t].end()) << tuple.ToString(*c.store);
      nodes.push_back(*found);
    }
    auto scored = oracle.Score(nodes, options.max_connect_depth);
    ASSERT_TRUE(scored.has_value()) << tuple.ToString(*c.store);
    EXPECT_EQ(RankingFingerprint({*scored}), RankingFingerprint({tuple}));
  }
}

TEST(KernelCounterTest, CountersFireOnTheHubCorpus) {
  Corpus c = MakeHub(40);
  CsrOptions options;
  options.sketch_min_degree = 4;
  options.sketch_max_count = 4;
  ASSERT_TRUE(c.graph->BuildCsr(options));
  const Csr* csr = c.graph->csr();
  ASSERT_GT(csr->SketchCount(), 0u);

  // Probes from the hub (US name node) into one satellite: trade_country is
  // distance 1 (the value edge), its parent item distance 2, and the sibling
  // percentage leaf distance 3 — one node per kernel tier.
  std::vector<store::NodeId> nodes = ElementNodes(*c.store);
  std::optional<store::NodeId> hub, dist1, dist2, dist3;
  for (const store::NodeId& id : nodes) {
    xml::Node* n = c.store->GetNode(id);
    if (id.doc == 0 && n->name() == "name") hub = id;
    if (id.doc == 5 && n->name() == "trade_country") dist1 = id;
    if (id.doc == 5 && n->name() == "item") dist2 = id;
    if (id.doc == 5 && n->name() == "percentage") dist3 = id;
  }
  ASSERT_TRUE(hub.has_value() && dist1.has_value() && dist2.has_value() &&
              dist3.has_value());

  GraphStats bfs_stats;
  EXPECT_EQ(c.graph->ShortestPathLength(*hub, *dist3, 12, 0, &bfs_stats),
            std::optional<size_t>(3));
  EXPECT_GT(bfs_stats.bfs_expansions, 0u);

  GraphStats isect_stats;
  EXPECT_EQ(c.graph->ShortestPathLength(*hub, *dist1, 12, 0, &isect_stats),
            std::optional<size_t>(1));
  EXPECT_GT(isect_stats.intersection_probes, 0u);
  EXPECT_EQ(isect_stats.bfs_expansions, 0u);

  GraphStats sketch_stats;
  EXPECT_EQ(c.graph->ShortestPathLength(*hub, *dist2, 12, 0, &sketch_stats),
            std::optional<size_t>(2));
  EXPECT_GT(sketch_stats.sketch_hits, 0u);
  EXPECT_EQ(sketch_stats.bfs_expansions, 0u);
}

TEST(KernelCounterTest, SketchAnswersMatchIntersection) {
  Corpus sketched = MakeHub(60);
  CsrOptions options;
  options.sketch_min_degree = 2;
  options.sketch_max_count = 8;
  ASSERT_TRUE(sketched.graph->BuildCsr(options));
  ASSERT_GT(sketched.graph->csr()->SketchCount(), 0u);
  Corpus plain = MakeHub(60);
  CsrOptions no_sketches;
  no_sketches.sketch_max_count = 0;
  ASSERT_TRUE(plain.graph->BuildCsr(no_sketches));
  ASSERT_EQ(plain.graph->csr()->SketchCount(), 0u);
  auto pairs = SamplePairs(ElementNodes(*sketched.store), 40);
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(sketched.graph->ShortestPathLength(a, b, 12),
              plain.graph->ShortestPathLength(a, b, 12));
    EXPECT_EQ(sketched.graph->ShortestPath(a, b, 12),
              plain.graph->ShortestPath(a, b, 12));
  }
}

TEST(CsrPersistenceTest, ImageRoundTripPreservesKernels) {
  Corpus c = MakeScenario();
  ASSERT_TRUE(c.graph->BuildCsr());
  ReferenceGraph ref(*c.graph);
  std::unique_ptr<DataGraph> reopened = Reopen(c, "roundtrip");
  ASSERT_NE(reopened, nullptr);
  ASSERT_NE(reopened->csr(), nullptr);
  EXPECT_EQ(reopened->csr()->num_vertices(), c.graph->csr()->num_vertices());
  EXPECT_EQ(reopened->csr()->edge_count(), c.graph->csr()->edge_count());

  auto pairs = SamplePairs(ElementNodes(*c.store), 30);
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(reopened->ShortestPathLength(a, b, 12),
              ref.ShortestPathLength(a, b, 12));
    EXPECT_EQ(reopened->ShortestPath(a, b, 6), ref.ShortestPath(a, b, 6));
  }
}

TEST(CsrPersistenceTest, MissingCsrSectionIsRejected) {
  // Every commit builds the CSR and Save writes it, so an edge log without
  // its CSR section is not an image this system wrote: the load fails
  // instead of rebuilding the kernels.
  Corpus c = MakeScenario();  // deliberately no BuildCsr()
  std::string path = TempImagePath("nocsr");
  {
    persist::ImageWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(c.graph->SaveTo(&writer).ok());
    ASSERT_TRUE(writer.Finish(/*epoch=*/1).ok());
  }
  auto image = persist::MappedImage::Open(path);
  ASSERT_TRUE(image.ok());
  EXPECT_FALSE(image.value()->HasSection(persist::SectionId::kGraphCsr));
  auto loaded = DataGraph::LoadFrom(std::move(image).value(), c.store.get());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(CsrPersistenceTest, SedaSaveOpenRoundTripKeepsKernelAnswers) {
  core::SedaOptions options;
  options.value_edges.push_back(
      {"/country/name", "/country/economy/import_partners/item/trade_country",
       "trade_partner"});
  core::Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(options).ok());
  ASSERT_NE(writer.snapshot()->data_graph().csr(), nullptr);

  std::string path = TempImagePath("seda");
  ASSERT_TRUE(writer.Save(path).ok());
  core::Seda reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ASSERT_NE(reader.snapshot()->data_graph().csr(), nullptr);

  auto pairs = SamplePairs(ElementNodes(writer.snapshot()->store()), 30);
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(reader.snapshot()->data_graph().ShortestPathLength(a, b, 12),
              writer.snapshot()->data_graph().ShortestPathLength(a, b, 12));
  }
  std::remove(path.c_str());
}

TEST(CsrAuditTest, StaleCsrIsCaughtByTheAuditor) {
  Corpus c = MakeScenario();
  ASSERT_TRUE(c.graph->BuildCsr());
  {
    audit::SnapshotAuditor auditor(c.store.get(), nullptr, c.graph.get(),
                                   nullptr);
    audit::AuditReport report;
    auditor.AuditGraph(&report);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  // An edge added after BuildCsr leaves the arrays stale — exactly what the
  // csr invariants exist to catch.
  std::vector<store::NodeId> nodes = ElementNodes(*c.store);
  c.graph->AddEdge(nodes.front(), nodes.back(), EdgeType::kIdRef, "stale");
  audit::SnapshotAuditor auditor(c.store.get(), nullptr, c.graph.get(),
                                 nullptr);
  audit::AuditReport report;
  auditor.AuditGraph(&report);
  EXPECT_TRUE(report.Has("graph.csr_offsets")) << report.ToString();
}

}  // namespace
}  // namespace seda::graph
