// Property tests for the streaming top-k engine:
//  1. Search (TA early termination) and NaiveSearch (exhaustive) agree on the
//     top-k result sets over generated corpora.
//  2. Parallel tuple scoring is deterministic: 1, 2 and 8 scoring threads
//     produce byte-identical SearchResponses.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/seda.h"
#include "data/generators.h"
#include "graph/data_graph.h"
#include "query/query.h"
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

TEST(EngineEquivalenceTest, SearchMatchesNaiveSearchAcrossCorpora) {
  for (Corpus& corpus : MakeCorpora()) {
    topk::TopKSearcher searcher(corpus.index.get(), corpus.graph.get());
    for (const char* text : kQueries) {
      SCOPED_TRACE(corpus.name + ": " + text);
      auto query = query::ParseQuery(text);
      ASSERT_TRUE(query.ok());
      topk::TopKOptions options;
      options.k = 8;
      topk::SearchStats ta_stats, naive_stats;
      auto ta = searcher.Search(query.value(), options, &ta_stats);
      auto naive = searcher.NaiveSearch(query.value(), options, &naive_stats);
      ASSERT_TRUE(ta.ok());
      ASSERT_TRUE(naive.ok());
      ASSERT_EQ(ta.value().size(), naive.value().size());
      for (size_t i = 0; i < ta.value().size(); ++i) {
        EXPECT_NEAR(ta.value()[i].score, naive.value()[i].score, 1e-12)
            << "rank " << i;
      }
      EXPECT_LE(ta_stats.docs_scored, naive_stats.docs_scored);
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
