// Shard-by-DocId scatter-gather exactness: the serving mode behind
// `seda_server --shards N` must produce BYTE-identical rankings to the
// unsharded scan. The exactness argument (see topk::TopKOptions::
// shard_count): sharding filters only the TA enumeration order, while
// candidate grouping and cross-document borrowing run over the full
// candidate set in every shard — so the per-shard enumerations partition
// the unsharded one and merging local top-k lists under the total tuple
// order reproduces it exactly, as long as no per-shard budget
// (max_tuples_per_query, deadline_ms) fires.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/seda.h"
#include "data/generators.h"
#include "graph/data_graph.h"
#include "query/query.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

namespace seda {
namespace {

struct Corpus {
  std::string name;
  std::unique_ptr<core::Seda> seda;
};

std::vector<Corpus> MakeCorpora() {
  std::vector<Corpus> corpora;
  auto add = [&corpora](std::string name, auto populate) {
    Corpus c;
    c.name = std::move(name);
    c.seda = std::make_unique<core::Seda>();
    populate(c.seda->mutable_store());
    ASSERT_TRUE(c.seda->Finalize().ok()) << c.name;
    corpora.push_back(std::move(c));
  };
  add("factbook", [](store::DocumentStore* store) {
    data::WorldFactbookGenerator::Options options;
    options.scale = 0.05;
    data::WorldFactbookGenerator(options).Populate(store);
  });
  add("mondial", [](store::DocumentStore* store) {
    data::MondialGenerator::Options options;
    options.scale = 0.05;
    data::MondialGenerator(options).Populate(store);
  });
  add("googlebase", [](store::DocumentStore* store) {
    data::GoogleBaseGenerator::Options options;
    options.scale = 0.05;
    data::GoogleBaseGenerator(options).Populate(store);
  });
  add("recipeml", [](store::DocumentStore* store) {
    data::RecipeMLGenerator::Options options;
    options.scale = 0.05;
    data::RecipeMLGenerator(options).Populate(store);
  });
  add("scenario",
      [](store::DocumentStore* store) { data::PopulateScenario(store); });
  return corpora;
}

const char* kQueries[] = {
    R"((*, "United States") AND (trade_country, *))",
    R"((name, china OR canada) AND (percentage, *))",
    "(name, *) AND (*, china)",
    R"((*, pacific))",
    "(title, *) AND (price, *)",
    "(ingredient, *)",
};

constexpr size_t kShardCounts[] = {2, 3, 8};

/// The ranking sections of a ScoredTuple list, hex-exact. Stats are
/// deliberately excluded: per-shard TA scans terminate at different points,
/// so counters sum differently — the exactness claim is about the ranking.
std::string RankingFp(const std::vector<topk::ScoredTuple>& topk) {
  std::string out;
  char buf[128];
  for (const topk::ScoredTuple& tuple : topk) {
    for (const text::NodeMatch& match : tuple.nodes) {
      std::snprintf(buf, sizeof(buf), "n%u@%s ", match.node.doc,
                    match.node.dewey.ToString().c_str());
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "c=%a n=%llu s=%a\n", tuple.content_score,
                  static_cast<unsigned long long>(tuple.connection_size),
                  tuple.score);
    out += buf;
  }
  return out;
}

TEST(ShardSearchTest, SnapshotShardingIsByteExactAcrossCorpora) {
  for (Corpus& corpus : MakeCorpora()) {
    std::shared_ptr<const core::Snapshot> snapshot = corpus.seda->snapshot();
    ASSERT_NE(snapshot, nullptr);
    for (const char* text : kQueries) {
      auto query = query::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << text;
      topk::TopKOptions unsharded = snapshot->options().topk;
      unsharded.k = 10;
      auto baseline = snapshot->Search(query.value(), unsharded);
      ASSERT_TRUE(baseline.ok()) << corpus.name << ": " << text;
      const std::string baseline_fp = RankingFp(baseline.value().topk);
      for (size_t shards : kShardCounts) {
        SCOPED_TRACE(corpus.name + " x" + std::to_string(shards) + ": " + text);
        topk::TopKOptions sharded = unsharded;
        sharded.shard_count = shards;
        auto result = snapshot->Search(query.value(), sharded);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(RankingFp(result.value().topk), baseline_fp);
        // Summaries are computed from the (unsharded) candidate set and
        // must be oblivious to the serving mode.
        EXPECT_EQ(result.value().contexts.buckets.size(),
                  baseline.value().contexts.buckets.size());
        EXPECT_EQ(result.value().connections.entries.size(),
                  baseline.value().connections.entries.size());
      }
    }
  }
}

/// End-to-end through the service facade: the exact bytes a network client
/// receives (minus volatile timing fields) are independent of topk_shards.
TEST(ShardSearchTest, ServiceShardingKeepsWireBytesIdentical) {
  core::Seda seda;
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.08;
  data::WorldFactbookGenerator(options).Populate(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());

  auto canonical_bytes = [](api::SearchResponseDto response) {
    response.stats = api::StatsDto{};  // timing + shard-dependent counters
    return Encode(response);
  };

  api::SedaService unsharded(&seda);
  for (size_t shards : kShardCounts) {
    api::ServiceOptions service_options;
    service_options.topk_shards = shards;
    api::SedaService sharded(&seda, service_options);
    for (const char* text : kQueries) {
      SCOPED_TRACE("x" + std::to_string(shards) + ": " + text);
      api::SearchRequest request;
      request.query = text;
      request.k = 7;
      EXPECT_EQ(canonical_bytes(sharded.Search(request)),
                canonical_bytes(unsharded.Search(request)));
    }
  }
}

/// The sharded stats merge: with k large enough that no TA stop fires and
/// no budget trims, two shards together do exactly the unsharded scan's
/// work. Counters over the shared candidate set are copies of one value in
/// every shard; scan-side counters partition across shards and sum back to
/// the unsharded totals.
TEST(ShardSearchTest, ShardedStatsMergeMatchesTheUnshardedScan) {
  core::Seda seda;
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.05;
  data::WorldFactbookGenerator(options).Populate(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  std::shared_ptr<const core::Snapshot> snapshot = seda.snapshot();
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    auto query = query::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    topk::TopKOptions unsharded = snapshot->options().topk;
    unsharded.k = 1u << 20;
    unsharded.max_tuples_per_query = 0;
    unsharded.shard_count = 1;
    topk::TopKOptions sharded = unsharded;
    sharded.shard_count = 2;
    auto one = snapshot->Search(query.value(), unsharded);
    auto two = snapshot->Search(query.value(), sharded);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(two.ok());
    const topk::SearchStats& a = one.value().stats;
    const topk::SearchStats& b = two.value().stats;
    ASSERT_FALSE(a.early_terminated);
    ASSERT_FALSE(b.early_terminated);
    ASSERT_EQ(a.tuples_trimmed, 0u);
    ASSERT_EQ(b.tuples_trimmed, 0u);
    // Copied: computed over the full candidate set in every shard.
    EXPECT_EQ(b.candidates_total, a.candidates_total);
    EXPECT_EQ(b.postings_advanced, a.postings_advanced);
    EXPECT_EQ(b.docs_skipped, a.docs_skipped);
    EXPECT_EQ(b.hub_links_skipped, a.hub_links_skipped);
    // Summed: each shard scans its own documents.
    EXPECT_EQ(b.docs_considered, a.docs_considered);
    EXPECT_EQ(b.docs_scored, a.docs_scored);
    EXPECT_EQ(b.tuples_scored, a.tuples_scored);
  }
}

/// An invalid shard assignment must fail loudly, not serve a wrong subset.
/// (Snapshot::Search assigns shard_index itself, so this exercises the
/// engine-level validation directly.)
TEST(ShardSearchTest, ShardIndexOutOfRangeIsRejected) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  graph::DataGraph graph(&store);
  graph.ResolveIdRefs();
  ASSERT_TRUE(graph.BuildCsr());
  text::InvertedIndex index(&store);
  topk::TopKSearcher searcher(&index, &graph);
  auto query = query::ParseQuery("(name, *)");
  ASSERT_TRUE(query.ok());
  topk::TopKOptions bad;
  bad.shard_count = 4;
  bad.shard_index = 4;
  topk::SearchStats stats;
  auto result = searcher.Search(query.value(), bad, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace seda
