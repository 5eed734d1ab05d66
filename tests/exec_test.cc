#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "exec/candidates.h"
#include "exec/cursor.h"
#include "query/query.h"
#include "reference/evaluate_nodes.h"
#include "text/inverted_index.h"
#include "text/text_expr.h"

namespace seda::exec {
namespace {

using text::NodeMatch;
using text::TextExpr;

void ExpectSameMatches(const std::vector<NodeMatch>& got,
                       const std::vector<NodeMatch>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << label << " @" << i;
    EXPECT_EQ(got[i].path, want[i].path) << label << " @" << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " @" << i;
  }
}

class CursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    index_ = std::make_unique<text::InvertedIndex>(&store_);
  }

  std::unique_ptr<TextExpr> Expr(const std::string& text) {
    auto e = text::ParseTextExpr(text);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  }

  store::DocumentStore store_;
  std::unique_ptr<text::InvertedIndex> index_;
};

TEST_F(CursorTest, MatchesEvaluateNodesOnExpressionPanel) {
  const char* panel[] = {
      "china",
      "\"united states\"",
      "china AND sea",
      "china OR canada OR mexico",
      "united states",               // juxtaposition = AND
      "(china OR canada) AND percentage",
      "NOT china",
      "sea AND NOT china",
      "NOT china AND NOT mexico",    // pure negation conjunction
      "*",
      "zzznonexistent",
      "\"states united\"",           // reversed phrase: no matches
      "china AND zzznonexistent",
  };
  for (const char* text : panel) {
    auto expr = Expr(text);
    ExpectSameMatches(EvaluateWithCursor(*index_, *expr),
                      reference::EvaluateNodes(*index_, *expr), text);
  }
}

// The NOT fix must preserve the original universe-minus-child semantics:
// compare against an expectation computed the old way, from public pieces.
TEST_F(CursorTest, NotCursorMatchesOldUniverseSubtraction) {
  auto child = Expr("china");
  std::vector<NodeMatch> universe =
      reference::EvaluateNodes(*index_, *TextExpr::All());
  std::vector<NodeMatch> negative = reference::EvaluateNodes(*index_, *child);
  std::vector<NodeMatch> expected;
  size_t j = 0;
  for (const NodeMatch& m : universe) {
    while (j < negative.size() && negative[j].node < m.node) ++j;
    if (j < negative.size() && negative[j].node == m.node) continue;
    expected.push_back(m);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), universe.size());

  auto not_expr = TextExpr::Not(child->Clone());
  ExpectSameMatches(EvaluateWithCursor(*index_, *not_expr), expected,
                    "NOT china vs old subtraction");
  ExpectSameMatches(reference::EvaluateNodes(*index_, *not_expr), expected,
                    "EvaluateNodes NOT china vs old subtraction");
}

TEST_F(CursorTest, ContextFilterPushdownMatchesPostFilter) {
  query::ContextSpec spec = query::ContextSpec::Parse("name | percentage").value();
  std::vector<store::PathId> paths = spec.ResolvePathIds(store_.paths());
  ASSERT_FALSE(paths.empty());
  std::unordered_set<store::PathId> allowed(paths.begin(), paths.end());

  const char* panel[] = {"china", "china OR canada", "NOT china",
                         "\"united states\" OR mexico"};
  for (const char* text : panel) {
    auto expr = Expr(text);
    std::vector<NodeMatch> expected = reference::EvaluateNodes(*index_, *expr);
    std::erase_if(expected,
                  [&](const NodeMatch& m) { return !allowed.count(m.path); });
    ExpectSameMatches(EvaluateWithCursor(*index_, *expr, &allowed), expected,
                      std::string(text) + " [filtered]");
  }
}

TEST_F(CursorTest, SeekSkipsToTargetDocument) {
  auto expr = Expr("china");
  CursorStats stats;
  auto cursor = BuildCursor(*index_, *expr, nullptr, &stats);
  ASSERT_FALSE(cursor->AtEnd());
  store::DocId first_doc = cursor->Current().node.doc;
  // Seek beyond the first document: every produced node must be >= target.
  cursor->SeekToDoc(first_doc + 1);
  while (!cursor->AtEnd()) {
    EXPECT_GE(cursor->Current().node.doc, first_doc + 1);
    cursor->Next();
  }
}

TEST_F(CursorTest, CursorsEmitStrictlyIncreasingNodeOrder) {
  const char* panel[] = {"china OR canada OR mexico", "NOT sea",
                         "united AND states", "*"};
  for (const char* text : panel) {
    auto expr = Expr(text);
    auto matches = EvaluateWithCursor(*index_, *expr);
    for (size_t i = 1; i < matches.size(); ++i) {
      EXPECT_TRUE(matches[i - 1].node < matches[i].node)
          << text << " @" << i;
    }
  }
}

// Intersection alignment must seek over documents that cannot match instead
// of scanning them, and the skip must be visible in the cursor counters.
TEST(CursorSeekTest, AndAlignmentSkipsDocuments) {
  store::DocumentStore store;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        store.AddXml("<r><a>apple</a></r>", "d" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store.AddXml("<r><a>apple</a><b>berry</b></r>", "last").ok());
  text::InvertedIndex index(&store);

  auto expr = text::ParseTextExpr("apple AND berry");
  ASSERT_TRUE(expr.ok());
  CursorStats stats;
  auto matches = EvaluateWithCursor(index, *expr.value(), nullptr, &stats);
  ASSERT_FALSE(matches.empty());
  for (const NodeMatch& m : matches) {
    EXPECT_EQ(m.node.doc, 6u);  // only the last document holds both terms
  }
  EXPECT_GT(stats.docs_skipped, 0u);
  ExpectSameMatches(matches, reference::EvaluateNodes(index, *expr.value()),
                    "apple AND berry");
}

// Property test: random boolean expressions over a generated corpus must
// evaluate identically through cursors and through EvaluateNodes.
TEST(CursorPropertyTest, RandomExpressionsMatchEvaluateNodes) {
  store::DocumentStore store;
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.02;
  data::WorldFactbookGenerator(options).Populate(&store);
  text::InvertedIndex index(&store);

  const std::vector<std::string> words = {
      "united", "states",  "china",   "canada", "mexico",  "germany",
      "gdp",    "country", "imports", "export", "nosuchword"};
  Rng rng(20260727);

  // Recursive random expression builder, depth-bounded.
  auto build = [&](auto&& self, size_t depth) -> std::unique_ptr<TextExpr> {
    uint64_t kind = rng.Uniform(depth == 0 ? 2 : 6);
    switch (kind) {
      case 0:
        return TextExpr::Term(words[rng.Uniform(words.size())]);
      case 1: {
        std::vector<std::string> tokens;
        size_t len = 2 + rng.Uniform(2);
        for (size_t i = 0; i < len; ++i) {
          tokens.push_back(words[rng.Uniform(words.size())]);
        }
        return TextExpr::Phrase(std::move(tokens));
      }
      case 2:
      case 3: {
        std::vector<std::unique_ptr<TextExpr>> children;
        size_t n = 2 + rng.Uniform(2);
        for (size_t i = 0; i < n; ++i) children.push_back(self(self, depth - 1));
        return kind == 2 ? TextExpr::And(std::move(children))
                         : TextExpr::Or(std::move(children));
      }
      case 4:
        return TextExpr::Not(self(self, depth - 1));
      default:
        return TextExpr::All();
    }
  };

  for (int trial = 0; trial < 40; ++trial) {
    auto expr = build(build, 2);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + expr->ToString());
    ExpectSameMatches(EvaluateWithCursor(index, *expr),
                      reference::EvaluateNodes(index, *expr), expr->ToString());
  }
}

class CandidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    index_ = std::make_unique<text::InvertedIndex>(&store_);
  }

  query::Query Q(const std::string& text) {
    auto q = query::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  store::DocumentStore store_;
  std::unique_ptr<text::InvertedIndex> index_;
};

// The bounded selection must reproduce stable_sort-by-score + truncate.
TEST_F(CandidateTest, BoundedSelectionMatchesStableSortTruncate) {
  const char* queries[] = {
      R"((*, "United States") AND (trade_country, *))",
      R"((name, china OR canada))",
      R"((*, NOT china))",
      R"((percentage, *))",
  };
  for (const char* text : queries) {
    query::Query query = Q(text);
    for (size_t cap : {0ul, 1ul, 3ul, 100ul}) {
      CandidateSet set = BuildCandidates(*index_, query, cap);
      ASSERT_EQ(set.terms.size(), query.terms.size());
      for (size_t t = 0; t < query.terms.size(); ++t) {
        const query::QueryTerm& term = query.terms[t];
        // Reference: the old CandidateStreams recipe.
        std::vector<NodeMatch> expected;
        bool all_content =
            !term.search || term.search->kind == TextExpr::Kind::kAll;
        if (all_content) {
          for (store::PathId path : term.context.ResolvePathIds(store_.paths())) {
            for (const store::NodeId& node : index_->NodesWithPath(path)) {
              expected.push_back({node, path, kStructureOnlyScore});
            }
          }
        } else {
          expected = reference::EvaluateNodes(*index_, *term.search);
          if (!term.context.unrestricted()) {
            auto paths = term.context.ResolvePathIds(store_.paths());
            std::unordered_set<store::PathId> allowed(paths.begin(), paths.end());
            std::erase_if(expected, [&](const NodeMatch& m) {
              return !allowed.count(m.path);
            });
          }
        }
        std::stable_sort(expected.begin(), expected.end(),
                         [](const NodeMatch& a, const NodeMatch& b) {
                           return a.score > b.score;
                         });
        if (cap > 0 && expected.size() > cap) expected.resize(cap);
        ExpectSameMatches(set.terms[t].matches, expected,
                          std::string(text) + " term " + std::to_string(t) +
                              " cap " + std::to_string(cap));
      }
    }
  }
}

// A NOT/kAll term with a candidate cap must not walk the node universe: the
// constant-score early stop bounds the drain near the cap.
TEST_F(CandidateTest, NotQueryStopsEarlyInsteadOfMaterializingUniverse) {
  query::Query query = Q(R"((*, NOT china))");
  size_t cap = 16;
  CandidateSet set = BuildCandidates(*index_, query, cap);
  ASSERT_EQ(set.terms[0].matches.size(), cap);
  EXPECT_LT(set.stats.postings_advanced, index_->IndexedNodeCount())
      << "NOT term drained the whole universe despite the cap";
}

TEST_F(CandidateTest, StructureOnlyTermStopsAtCap) {
  query::Query query = Q("(trade_country, *)");
  CandidateSet set = BuildCandidates(*index_, query, 2);
  EXPECT_EQ(set.terms[0].matches.size(), 2u);
  EXPECT_TRUE(set.terms[0].structure_only);
  EXPECT_LE(set.stats.postings_advanced, 2u);
  for (const NodeMatch& m : set.terms[0].matches) {
    EXPECT_EQ(m.score, kStructureOnlyScore);
  }
}

TEST_F(CandidateTest, SharedContextPathsMatchResolvePathIds) {
  query::Query query = Q(R"((name, "United States") AND (percentage, *))");
  CandidateSet set = BuildCandidates(*index_, query, 0);
  for (size_t t = 0; t < query.terms.size(); ++t) {
    EXPECT_TRUE(set.terms[t].context_restricted);
    EXPECT_EQ(set.terms[t].context_paths,
              query.terms[t].context.ResolvePathIds(store_.paths()));
  }
}

}  // namespace
}  // namespace seda::exec
