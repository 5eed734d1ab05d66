#include <gtest/gtest.h>

#include "data/generators.h"
#include "summary/connection_summary.h"
#include "summary/context_summary.h"
#include "topk/topk.h"

namespace seda::summary {
namespace {

class SummaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    graph_ = std::make_unique<graph::DataGraph>(&store_);
    graph_->ResolveIdRefs();
    ASSERT_TRUE(graph_->BuildCsr());
    index_ = std::make_unique<text::InvertedIndex>(&store_);
    dataguide::DataguideCollection::Options options;
    options.overlap_threshold = 0.4;
    guides_ = std::make_unique<dataguide::DataguideCollection>(
        dataguide::DataguideCollection::Build(store_, options));
    guides_->AddLinksFromGraph(*graph_);
    searcher_ = std::make_unique<topk::TopKSearcher>(index_.get(), graph_.get());
  }

  query::Query Q(const std::string& text) {
    auto q = query::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  store::DocumentStore store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<dataguide::DataguideCollection> guides_;
  std::unique_ptr<topk::TopKSearcher> searcher_;
};

TEST_F(SummaryTest, UnitedStatesContextBucket) {
  ContextSummaryGenerator generator(index_.get());
  auto bucket = generator.GenerateBucket(Q(R"((*, "United States"))").terms[0]);
  // Scenario contexts: /country/name, import trade_country, export
  // trade_country, /mondial_country/name.
  ASSERT_EQ(bucket.entries.size(), 4u);
  // Sorted by document frequency in the whole collection.
  for (size_t i = 1; i < bucket.entries.size(); ++i) {
    EXPECT_GE(bucket.entries[i - 1].doc_count, bucket.entries[i].doc_count);
  }
}

TEST_F(SummaryTest, FrequenciesAreAbsoluteNotResultScoped) {
  // §5: SEDA shows the frequency of the path itself, irrespective of the
  // keyword. "Germany" appears once, but its path (import trade_country)
  // has doc_count 4 (us-2002/2004/2005/2006 + mexico-2003 = 5 actually).
  ContextSummaryGenerator generator(index_.get());
  auto bucket = generator.GenerateBucket(Q(R"((*, "Germany"))").terms[0]);
  ASSERT_EQ(bucket.entries.size(), 1u);
  EXPECT_EQ(bucket.entries[0].path_text,
            "/country/economy/import_partners/item/trade_country");
  EXPECT_EQ(bucket.entries[0].doc_count,
            store_.paths().DocCount(bucket.entries[0].path));
  EXPECT_GT(bucket.entries[0].doc_count, 1u);
}

TEST_F(SummaryTest, TagContextProbing) {
  // (trade_country, *): both import and export contexts.
  ContextSummaryGenerator generator(index_.get());
  auto bucket = generator.GenerateBucket(Q("(trade_country, *)").terms[0]);
  EXPECT_EQ(bucket.entries.size(), 2u);
  // (percentage, *): likewise two contexts.
  auto pct = generator.GenerateBucket(Q("(percentage, *)").terms[0]);
  EXPECT_EQ(pct.entries.size(), 2u);
}

TEST_F(SummaryTest, TwelveCombinationsBeforeRefinement) {
  // Example 1: 3 x 2 x 2 = 12 ways before context selection (factbook-only;
  // the mondial name context adds a 4th for the first term -> 16 here).
  ContextSummaryGenerator generator(index_.get());
  auto summary = generator.Generate(
      Q(R"((*, "United States") AND (trade_country, *) AND (percentage, *))"));
  ASSERT_EQ(summary.buckets.size(), 3u);
  EXPECT_EQ(summary.buckets[0].entries.size(), 4u);  // 3 factbook + 1 mondial
  EXPECT_EQ(summary.buckets[1].entries.size(), 2u);
  EXPECT_EQ(summary.buckets[2].entries.size(), 2u);
  EXPECT_EQ(summary.CombinationCount(), 16u);
}

TEST_F(SummaryTest, PathContextRestrictsBucket) {
  ContextSummaryGenerator generator(index_.get());
  auto bucket = generator.GenerateBucket(
      Q(R"((/country/economy/import_partners/item/trade_country, "United States"))")
          .terms[0]);
  ASSERT_EQ(bucket.entries.size(), 1u);
  EXPECT_EQ(bucket.entries[0].path_text,
            "/country/economy/import_partners/item/trade_country");
}

TEST_F(SummaryTest, ConnectionSummaryFindsBothItemConnections) {
  topk::TopKOptions options;
  options.k = 20;
  auto topk_result = searcher_->Search(
      Q("(trade_country, *) AND (percentage, *)"), options);
  ASSERT_TRUE(topk_result.ok());
  ConnectionSummaryGenerator generator(guides_.get(), graph_.get());
  auto summary = generator.Generate(topk_result.value());
  ASSERT_FALSE(summary.entries.empty());
  // The same-item connection (length 2) must be instantiated by top-k
  // results; the cross-item connection (length 4) is discovered from the
  // dataguide.
  bool saw_len2_with_instances = false;
  bool saw_len4 = false;
  for (const ConnectionEntry& entry : summary.entries) {
    if (entry.connection.Length() == 2 && entry.instance_count > 0) {
      saw_len2_with_instances = true;
    }
    if (entry.connection.Length() == 4) saw_len4 = true;
  }
  EXPECT_TRUE(saw_len2_with_instances);
  EXPECT_TRUE(saw_len4);
}

TEST_F(SummaryTest, FalsePositivesAreFlagged) {
  topk::TopKOptions options;
  options.k = 5;
  auto topk_result = searcher_->Search(
      Q("(trade_country, \"China\") AND (percentage, *)"), options);
  ASSERT_TRUE(topk_result.ok());
  ConnectionSummaryGenerator generator(guides_.get(), graph_.get());
  auto summary = generator.Generate(topk_result.value());
  // Any entry with zero instances must be flagged, and FalsePositiveCount
  // must agree.
  uint64_t manual = 0;
  for (const ConnectionEntry& entry : summary.entries) {
    EXPECT_EQ(entry.false_positive, entry.instance_count == 0);
    if (entry.false_positive) ++manual;
  }
  EXPECT_EQ(summary.FalsePositiveCount(), manual);
}

TEST_F(SummaryTest, EmptyTopKYieldsEmptyConnectionSummary) {
  ConnectionSummaryGenerator generator(guides_.get(), graph_.get());
  auto summary = generator.Generate({});
  EXPECT_TRUE(summary.entries.empty());
}

TEST_F(SummaryTest, SummariesRenderToText) {
  ContextSummaryGenerator generator(index_.get());
  auto summary = generator.Generate(Q(R"((*, "United States"))"));
  EXPECT_NE(summary.ToString().find("/country/name"), std::string::npos);
}

}  // namespace
}  // namespace seda::summary
