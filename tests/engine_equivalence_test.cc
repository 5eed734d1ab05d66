// Property tests for the streaming top-k engine:
//  1. Search agrees with the brute-force top-k oracle
//     (tests/reference/topk_oracle.h) over seeded micro-collections and the
//     five generator corpora, every cap and budget off: exactly within
//     documents; with cross-document search on, every engine tuple is an
//     oracle tuple and none repeats.
//  2. The TA threshold stop is sound: Search at k returns the first k
//     results of Search at unbounded k, bit for bit.
//  3. Parallel tuple scoring is deterministic: 1, 2 and 8 scoring threads
//     produce byte-identical SearchResponses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/seda.h"
#include "data/generators.h"
#include "graph/data_graph.h"
#include "query/query.h"
#include "reference/bfs.h"
#include "reference/micro_collection.h"
#include "reference/topk_oracle.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

namespace seda {
namespace {

/// Exact (bit-preserving) rendering of a double, so serialized responses
/// differ iff any score differs in even the last ulp.
std::string HexDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string SerializeTuples(const std::vector<topk::ScoredTuple>& tuples) {
  std::string out;
  for (const topk::ScoredTuple& t : tuples) {
    out += HexDouble(t.score) + "|" + HexDouble(t.content_score) + "|" +
           std::to_string(t.connection_size) + "[";
    for (const text::NodeMatch& nm : t.nodes) {
      out += nm.node.ToString() + "#" + std::to_string(nm.path) + "#" +
             HexDouble(nm.score) + ",";
    }
    out += "]\n";
  }
  return out;
}

std::string SerializeStats(const topk::SearchStats& s) {
  return std::to_string(s.candidates_total) + "/" +
         std::to_string(s.docs_considered) + "/" + std::to_string(s.docs_scored) +
         "/" + std::to_string(s.tuples_scored) + "/" +
         std::to_string(s.postings_advanced) + "/" +
         std::to_string(s.docs_skipped) + "/" + std::to_string(s.heap_evictions) +
         "/" + (s.early_terminated ? "T" : "F");
}

std::string SerializeResponse(const core::SearchResponse& r) {
  return SerializeTuples(r.topk) + "---\n" + r.contexts.ToString() + "---\n" +
         r.connections.ToString() + "---\n" + SerializeStats(r.stats);
}

struct Corpus {
  std::string name;
  std::unique_ptr<store::DocumentStore> store;
  std::unique_ptr<graph::DataGraph> graph;
  std::unique_ptr<text::InvertedIndex> index;
};

std::vector<Corpus> MakeCorpora() {
  std::vector<Corpus> corpora;
  {
    Corpus c;
    c.name = "factbook";
    c.store = std::make_unique<store::DocumentStore>();
    data::WorldFactbookGenerator::Options options;
    options.scale = 0.04;
    data::WorldFactbookGenerator(options).Populate(c.store.get());
    corpora.push_back(std::move(c));
  }
  {
    Corpus c;
    c.name = "mondial";
    c.store = std::make_unique<store::DocumentStore>();
    data::MondialGenerator::Options options;
    options.scale = 0.04;
    data::MondialGenerator(options).Populate(c.store.get());
    corpora.push_back(std::move(c));
  }
  {
    Corpus c;
    c.name = "scenario";
    c.store = std::make_unique<store::DocumentStore>();
    data::PopulateScenario(c.store.get());
    corpora.push_back(std::move(c));
  }
  for (Corpus& c : corpora) {
    c.graph = std::make_unique<graph::DataGraph>(c.store.get());
    c.graph->ResolveIdRefs();
    EXPECT_TRUE(c.graph->BuildCsr()) << c.name;
    c.index = std::make_unique<text::InvertedIndex>(c.store.get());
  }
  return corpora;
}

const char* kQueries[] = {
    R"((*, "United States") AND (trade_country, *))",
    R"((name, china OR canada) AND (percentage, *))",
    "(name, *) AND (*, china)",
    R"((*, NOT china) AND (name, *))",
    R"((*, pacific))",
};

/// A k above every tuple count: the heap never fills, so the threshold never
/// stops the scan and every candidate combination is scored.
constexpr size_t kEveryTuple = size_t{1} << 30;

// TA early termination must not change results: Search at k = 8 returns
// exactly the first 8 tuples of the exhaustive ranking (Search at unbounded
// k), with cross-document search on and the default caps.
TEST(EngineEquivalenceTest, SearchAtKEqualsUnboundedPrefixAcrossCorpora) {
  for (Corpus& corpus : MakeCorpora()) {
    topk::TopKSearcher searcher(corpus.index.get(), corpus.graph.get());
    for (const char* text : kQueries) {
      SCOPED_TRACE(corpus.name + ": " + text);
      auto query = query::ParseQuery(text);
      ASSERT_TRUE(query.ok());
      topk::TopKOptions options;
      options.k = 8;
      topk::TopKOptions exhaustive = options;
      exhaustive.k = kEveryTuple;
      topk::SearchStats ta_stats, full_stats;
      auto ta = searcher.Search(query.value(), options, &ta_stats);
      auto full = searcher.Search(query.value(), exhaustive, &full_stats);
      ASSERT_TRUE(ta.ok());
      ASSERT_TRUE(full.ok());
      std::vector<topk::ScoredTuple> prefix = full.value();
      if (prefix.size() > options.k) prefix.resize(options.k);
      EXPECT_EQ(SerializeTuples(ta.value()), SerializeTuples(prefix));
      EXPECT_FALSE(full_stats.early_terminated);
      EXPECT_LE(ta_stats.docs_scored, full_stats.docs_scored);
    }
  }
}

/// Every cap and budget off, so the engine's answer set is the paper's.
topk::TopKOptions Uncapped(bool cross_document) {
  topk::TopKOptions options;
  options.k = kEveryTuple;
  options.max_candidates_per_term = 0;
  options.max_per_doc_per_term = 0;
  options.max_hub_degree = 0;
  options.max_connect_visits = 0;
  options.max_tuples_per_query = 0;
  options.allow_cross_document = cross_document;
  return options;
}

/// Answers with cross-document search on, from the engine and from the
/// oracle, for the completeness-gap report.
struct GapCount {
  size_t engine = 0;
  size_t oracle = 0;
};

/// Largest candidate cross product the oracle ranks across documents (one
/// reference BFS per tuple); larger queries get the per-tuple checks only.
constexpr size_t kMaxOracleProduct = 20000;

/// Checks one query against the oracle: exact equality within documents;
/// with cross-document search on, every engine tuple scores identically in
/// the oracle, binds oracle candidates only, and appears once, and Search at
/// small k returns the prefix of the full ranking. When `gap` is non-null
/// and the cross product is at most kMaxOracleProduct, also ranks the
/// oracle's full cross-document answer set and adds both counts.
void ExpectMatchesOracle(const core::Snapshot& snapshot,
                         const reference::TopKOracle& oracle,
                         const std::string& text, GapCount* gap) {
  SCOPED_TRACE(text);
  auto query = query::ParseQuery(text);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const size_t depth = topk::TopKOptions{}.max_connect_depth;

  auto within = snapshot.Search(query.value(), Uncapped(false));
  ASSERT_TRUE(within.ok()) << within.status().ToString();
  EXPECT_EQ(SerializeTuples(within.value().topk),
            SerializeTuples(oracle.Rank(query.value(), false, depth)));

  auto across = snapshot.Search(query.value(), Uncapped(true));
  ASSERT_TRUE(across.ok()) << across.status().ToString();
  const std::vector<topk::ScoredTuple>& tuples = across.value().topk;
  std::vector<std::set<std::string>> candidates;
  for (const auto& term : oracle.Candidates(query.value())) {
    std::set<std::string> keys;
    for (const text::NodeMatch& match : term) {
      keys.insert(SerializeTuples({topk::ScoredTuple{{match}}}));
    }
    candidates.push_back(std::move(keys));
  }
  std::set<std::string> seen;
  for (const topk::ScoredTuple& tuple : tuples) {
    const std::string key = SerializeTuples({tuple});
    EXPECT_TRUE(seen.insert(key).second) << "repeated tuple " << key;
    ASSERT_EQ(tuple.nodes.size(), candidates.size());
    for (size_t t = 0; t < tuple.nodes.size(); ++t) {
      EXPECT_TRUE(candidates[t].count(
          SerializeTuples({topk::ScoredTuple{{tuple.nodes[t]}}})))
          << "term " << t << " is not an oracle candidate in " << key;
    }
    auto scored = oracle.Score(tuple.nodes, depth);
    ASSERT_TRUE(scored.has_value()) << "not an oracle tuple: " << key;
    EXPECT_EQ(SerializeTuples({*scored}), key);
  }
  // The TA stop at small k keeps the exhaustive ranking's prefix, ties
  // included.
  for (size_t k : {1u, 10u}) {
    topk::TopKOptions bounded = Uncapped(true);
    bounded.k = k;
    auto top = snapshot.Search(query.value(), bounded);
    ASSERT_TRUE(top.ok());
    std::vector<topk::ScoredTuple> prefix(
        tuples.begin(), tuples.begin() + std::min(k, tuples.size()));
    EXPECT_EQ(SerializeTuples(top.value().topk), SerializeTuples(prefix))
        << "k=" << k;
  }
  size_t product = 1;
  for (const std::set<std::string>& term : candidates) product *= term.size();
  if (gap != nullptr && product <= kMaxOracleProduct) {
    gap->engine += tuples.size();
    gap->oracle += oracle.Rank(query.value(), true, depth).size();
  }
}

constexpr uint64_t kOracleSeeds = 24;

TEST(TopKOracleTest, MicroCollectionsAgreeWithTheOracle) {
  GapCount gap;
  for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const reference::MicroCollection collection =
        reference::GenerateMicroCollection(seed);
    core::Seda seda;
    ASSERT_TRUE(collection.Populate(seda.mutable_store()).ok());
    ASSERT_TRUE(seda.Finalize().ok());
    auto snapshot = seda.snapshot();
    reference::ReferenceGraph graph(snapshot->data_graph());
    reference::TopKOracle oracle(snapshot->index(), graph);
    for (const std::string& text : collection.queries) {
      ExpectMatchesOracle(*snapshot, oracle, text, &gap);
    }
  }
  // The engine forms cross-document tuples only by borrowing over a
  // candidate's own links, so it returns a subset of the oracle's set.
  std::printf("cross-document search over %llu seeds, queries with at most "
              "%zu candidate tuples: engine %zu tuples, oracle %zu\n",
              static_cast<unsigned long long>(kOracleSeeds), kMaxOracleProduct,
              gap.engine,
              gap.oracle);
  EXPECT_LE(gap.engine, gap.oracle);
}

TEST(TopKOracleTest, GeneratorCorporaAgreeWithTheOracle) {
  struct Case {
    const char* name;
    void (*populate)(store::DocumentStore*);
    std::vector<std::string> queries;
  };
  const Case cases[] = {
      {"factbook",
       [](store::DocumentStore* s) {
         data::WorldFactbookGenerator::Options o;
         o.scale = 0.02;
         data::WorldFactbookGenerator(o).Populate(s);
       },
       {R"((*, "United States") AND (trade_country, *))",
        "(name, *) AND (*, china)", R"((name, china OR canada) AND (percentage, *))",
        "(*, pacific)"}},
      {"mondial",
       [](store::DocumentStore* s) {
         data::MondialGenerator::Options o;
         o.scale = 0.03;
         data::MondialGenerator(o).Populate(s);
       },
       {"(city, *) AND (province, *)", "(name, *) AND (*, china)",
        R"((*, NOT china) AND (population, *))"}},
      {"googlebase",
       [](store::DocumentStore* s) {
         data::GoogleBaseGenerator::Options o;
         o.scale = 0.005;
         data::GoogleBaseGenerator(o).Populate(s);
       },
       {"(title, *) AND (price, *)", R"((*, "United States") AND (item_type, *))"}},
      {"recipeml",
       [](store::DocumentStore* s) {
         data::RecipeMLGenerator::Options o;
         o.scale = 0.003;
         data::RecipeMLGenerator(o).Populate(s);
       },
       {"(item, sugar OR salt) AND (amt, *)", "(title, *) AND (categories, dessert)"}},
      {"scenario", [](store::DocumentStore* s) { data::PopulateScenario(s); },
       {R"((*, "United States") AND (trade_country, *) AND (percentage, *))",
        R"((sea, *) AND (name, "Pacific"))", "(name, *) AND (*, china)"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::Seda seda;
    c.populate(seda.mutable_store());
    ASSERT_TRUE(seda.Finalize().ok());
    auto snapshot = seda.snapshot();
    reference::ReferenceGraph graph(snapshot->data_graph());
    reference::TopKOracle oracle(snapshot->index(), graph);
    for (const std::string& text : c.queries) {
      ExpectMatchesOracle(*snapshot, oracle, text, nullptr);
    }
  }
}

// The scoring pool must never change results: the same searcher state with
// 0 (inline), 1 and 7 extra workers returns byte-identical tuples and stats.
TEST(EngineEquivalenceTest, ParallelScoringIsDeterministicAtSearcherLevel) {
  for (Corpus& corpus : MakeCorpora()) {
    ThreadPool pool1(1), pool7(7);
    topk::TopKSearcher inline_searcher(corpus.index.get(), corpus.graph.get());
    topk::TopKSearcher small(corpus.index.get(), corpus.graph.get(), &pool1);
    topk::TopKSearcher wide(corpus.index.get(), corpus.graph.get(), &pool7);
    for (const char* text : kQueries) {
      SCOPED_TRACE(corpus.name + ": " + text);
      auto query = query::ParseQuery(text);
      ASSERT_TRUE(query.ok());
      topk::TopKOptions options;
      options.k = 10;
      options.parallel_batch_min = 1;  // force the pool onto every batch
      topk::SearchStats s0, s1, s7;
      auto r0 = inline_searcher.Search(query.value(), options, &s0);
      auto r1 = small.Search(query.value(), options, &s1);
      auto r7 = wide.Search(query.value(), options, &s7);
      ASSERT_TRUE(r0.ok() && r1.ok() && r7.ok());
      EXPECT_EQ(SerializeTuples(r0.value()), SerializeTuples(r1.value()));
      EXPECT_EQ(SerializeTuples(r0.value()), SerializeTuples(r7.value()));
      EXPECT_EQ(SerializeStats(s0), SerializeStats(s1));
      EXPECT_EQ(SerializeStats(s0), SerializeStats(s7));
    }
  }
}

// Full-system determinism: Seda instances built over identical corpora with
// 1, 2 and 8 query threads return byte-identical SearchResponses (top-k,
// both summaries and stats).
TEST(EngineEquivalenceTest, SedaSearchByteIdenticalAcrossQueryThreads) {
  auto make = [](size_t query_threads) {
    auto seda = std::make_unique<core::Seda>();
    data::WorldFactbookGenerator::Options data_options;
    data_options.scale = 0.04;
    data::WorldFactbookGenerator(data_options).Populate(seda->mutable_store());
    core::SedaOptions options;
    options.num_threads = 2;
    options.query_threads = query_threads;
    options.topk.parallel_batch_min = 1;
    EXPECT_TRUE(seda->Finalize(options).ok());
    return seda;
  };
  auto seda1 = make(1);
  auto seda2 = make(2);
  auto seda8 = make(8);

  const char* queries[] = {
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))",
      R"((name, china OR mexico) AND (GDP, *))",
      R"((*, NOT germany) AND (name, *))",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    auto r1 = seda1->snapshot()->Search(text);
    auto r2 = seda2->snapshot()->Search(text);
    auto r8 = seda8->snapshot()->Search(text);
    ASSERT_TRUE(r1.ok() && r2.ok() && r8.ok());
    std::string s1 = SerializeResponse(r1.value());
    EXPECT_EQ(s1, SerializeResponse(r2.value()));
    EXPECT_EQ(s1, SerializeResponse(r8.value()));
    EXPECT_FALSE(r1.value().topk.empty());
  }
}

}  // namespace
}  // namespace seda
