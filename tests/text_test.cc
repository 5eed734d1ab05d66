#include <gtest/gtest.h>

#include <algorithm>

#include "data/generators.h"
#include "reference/evaluate_nodes.h"
#include "text/analyzer.h"
#include "text/inverted_index.h"
#include "text/text_expr.h"

namespace seda::text {
namespace {

TEST(AnalyzerTest, LowercasesAndSplits) {
  EXPECT_EQ(Tokenize("United States"), (std::vector<std::string>{"united", "states"}));
  EXPECT_EQ(Tokenize("GDP_ppp"), (std::vector<std::string>{"gdp_ppp"}));
  EXPECT_EQ(Tokenize("a,b;c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(Tokenize("  ,;  ").empty());
}

TEST(AnalyzerTest, KeepsDecimalNumbersWhole) {
  EXPECT_EQ(Tokenize("12.31T rate"), (std::vector<std::string>{"12.31t", "rate"}));
  EXPECT_EQ(Tokenize("16.9%"), (std::vector<std::string>{"16.9"}));
  // A '.' not between digits splits.
  EXPECT_EQ(Tokenize("a.b"), (std::vector<std::string>{"a", "b"}));
}

TEST(AnalyzerTest, NormalizeToken) {
  EXPECT_EQ(NormalizeToken("Romania"), "romania");
  EXPECT_EQ(NormalizeToken("!!"), "");
}

TEST(TextExprTest, ParseSingleTerm) {
  auto e = ParseTextExpr("Romania");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->kind, TextExpr::Kind::kTerm);
  EXPECT_EQ(e.value()->term, "romania");
}

TEST(TextExprTest, ParsePhrase) {
  auto e = ParseTextExpr("\"United States\"");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->kind, TextExpr::Kind::kPhrase);
  EXPECT_EQ(e.value()->phrase, (std::vector<std::string>{"united", "states"}));
}

TEST(TextExprTest, SingleWordPhraseBecomesTerm) {
  auto e = ParseTextExpr("\"import\"");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->kind, TextExpr::Kind::kTerm);
}

TEST(TextExprTest, BareWordWithPunctuationBecomesItsPhrase) {
  auto hyphen = ParseTextExpr("Guinea-Bissau");
  ASSERT_TRUE(hyphen.ok());
  EXPECT_EQ(hyphen.value()->kind, TextExpr::Kind::kPhrase);
  EXPECT_EQ(hyphen.value()->phrase,
            (std::vector<std::string>{"guinea", "bissau"}));
  EXPECT_EQ(hyphen.value()->ToString(),
            ParseTextExpr("\"Guinea-Bissau\"").value()->ToString());
  auto dots = ParseTextExpr("U.S.");
  ASSERT_TRUE(dots.ok());
  EXPECT_EQ(dots.value()->phrase, (std::vector<std::string>{"u", "s"}));
  // One token stays one term: decimals and '_' are token characters.
  for (const char* word : {"12.31", "GDP_ppp"}) {
    auto e = ParseTextExpr(word);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value()->kind, TextExpr::Kind::kTerm) << word;
    EXPECT_EQ(e.value()->term, Tokenize(word).front());
  }
  auto blank = ParseTextExpr("a --");
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(blank.value()->ToString(), ParseTextExpr("a *").value()->ToString());
}

TEST(TextExprTest, ParseBooleanCombinations) {
  auto e = ParseTextExpr("a AND b OR c");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->kind, TextExpr::Kind::kOr);
  auto f = ParseTextExpr("a b");  // juxtaposition = AND (bag of words)
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->kind, TextExpr::Kind::kAnd);
  auto g = ParseTextExpr("NOT a b");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value()->kind, TextExpr::Kind::kAnd);
}

TEST(TextExprTest, ParseParenthesesAndStar) {
  auto e = ParseTextExpr("(a OR b) AND c");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->kind, TextExpr::Kind::kAnd);
  auto star = ParseTextExpr("*");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star.value()->kind, TextExpr::Kind::kAll);
  auto empty = ParseTextExpr("   ");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value()->kind, TextExpr::Kind::kAll);
}

TEST(TextExprTest, ParseErrors) {
  EXPECT_FALSE(ParseTextExpr("(a").ok());
  EXPECT_FALSE(ParseTextExpr("\"unterminated").ok());
  EXPECT_FALSE(ParseTextExpr("a )").ok());
}

TEST(TextExprTest, MatchesSemantics) {
  std::vector<std::string> tokens{"united", "states", "import", "partners"};
  EXPECT_TRUE(ParseTextExpr("united").value()->Matches(tokens));
  EXPECT_TRUE(ParseTextExpr("\"united states\"").value()->Matches(tokens));
  EXPECT_FALSE(ParseTextExpr("\"states united\"").value()->Matches(tokens));
  EXPECT_TRUE(ParseTextExpr("united AND import").value()->Matches(tokens));
  EXPECT_FALSE(ParseTextExpr("united AND export").value()->Matches(tokens));
  EXPECT_TRUE(ParseTextExpr("united OR export").value()->Matches(tokens));
  EXPECT_TRUE(ParseTextExpr("united AND NOT export").value()->Matches(tokens));
  EXPECT_FALSE(ParseTextExpr("united AND NOT import").value()->Matches(tokens));
  EXPECT_TRUE(ParseTextExpr("*").value()->Matches({}));
}

TEST(TextExprTest, PositiveTermsAndClone) {
  auto e = ParseTextExpr("\"united states\" AND NOT mexico OR gdp");
  ASSERT_TRUE(e.ok());
  auto terms = e.value()->PositiveTerms();
  EXPECT_EQ(terms, (std::vector<std::string>{"gdp", "states", "united"}));
  auto clone = e.value()->Clone();
  EXPECT_EQ(clone->ToString(), e.value()->ToString());
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(&store_);
    index_ = std::make_unique<InvertedIndex>(&store_);
  }
  store::DocumentStore store_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(IndexTest, PostingsAreInDocumentOrder) {
  const PostingList postings = index_->Postings("united");
  ASSERT_FALSE(postings.empty());
  for (size_t i = 1; i < postings.size(); ++i) {
    EXPECT_TRUE(postings.node(i - 1) < postings.node(i));
  }
}

TEST_F(IndexTest, LowerBoundSeeksInDocumentOrder) {
  const PostingList postings = index_->Postings("united");
  ASSERT_GT(postings.size(), 2u);
  for (size_t i = 0; i < postings.size(); ++i) {
    const store::NodeId node = postings.node(i);
    EXPECT_EQ(postings.LowerBound(0, node), i);
    EXPECT_EQ(postings.LowerBound(i + 1, node), i + 1);  // never backwards
    // A target just past the node (its first child) lands on the next
    // posting at or after it in document order.
    store::NodeId child{node.doc, node.dewey.Child(1)};
    size_t expected = i + 1;
    while (expected < postings.size() && postings.node(expected) < child) {
      ++expected;
    }
    EXPECT_EQ(postings.LowerBound(0, child), expected);
  }
  EXPECT_EQ(postings.LowerBound(0, store::NodeId{~store::DocId{0}, {}}),
            postings.size());
  EXPECT_TRUE(index_->Postings("no-such-term").empty());
}

TEST_F(IndexTest, NodePostingsIncludeAncestors) {
  // "china" appears in trade_country leaves; the /country roots containing
  // them must also match (Definition 3 content semantics).
  auto matches = reference::EvaluateNodes(*index_, *TextExpr::Term("china"));
  bool saw_leaf = false, saw_root = false;
  for (const NodeMatch& m : matches) {
    const std::string& path = store_.paths().PathString(m.path);
    if (path == "/country/economy/import_partners/item/trade_country") saw_leaf = true;
    if (path == "/country") saw_root = true;
  }
  EXPECT_TRUE(saw_leaf);
  EXPECT_TRUE(saw_root);
}

TEST_F(IndexTest, PathPostingsAreDirectOnly) {
  // Figure 8 semantics: the term maps to the paths *directly* containing it.
  auto paths = index_->TermPaths("china");
  std::vector<std::string> texts;
  for (store::PathId p : paths) texts.push_back(store_.paths().PathString(p));
  EXPECT_TRUE(std::find(texts.begin(), texts.end(), "/country") == texts.end());
  EXPECT_TRUE(std::find(texts.begin(), texts.end(),
                        "/country/economy/import_partners/item/trade_country") !=
              texts.end());
}

TEST_F(IndexTest, UnitedStatesHasThreeFactbookContexts) {
  // The paper's Example 1: "United States" occurs as a country name, an
  // import partner and an export partner (plus the Mondial country name in
  // the combined scenario).
  auto expr = ParseTextExpr("\"united states\"");
  ASSERT_TRUE(expr.ok());
  auto paths = index_->EvaluatePaths(*expr.value());
  std::vector<std::string> texts;
  for (store::PathId p : paths) texts.push_back(store_.paths().PathString(p));
  EXPECT_TRUE(std::count(texts.begin(), texts.end(), "/country/name") == 1);
  EXPECT_TRUE(std::count(texts.begin(), texts.end(),
                         "/country/economy/import_partners/item/trade_country") == 1);
  EXPECT_TRUE(std::count(texts.begin(), texts.end(),
                         "/country/economy/export_partners/item/trade_country") == 1);
  EXPECT_TRUE(std::count(texts.begin(), texts.end(), "/mondial_country/name") == 1);
  EXPECT_EQ(texts.size(), 4u);
}

TEST_F(IndexTest, PhraseEvaluationRequiresAdjacency) {
  auto phrase = ParseTextExpr("\"pacific ocean\"");
  ASSERT_TRUE(phrase.ok());
  auto matches = reference::EvaluateNodes(*index_, *phrase.value());
  EXPECT_FALSE(matches.empty());
  auto reversed = ParseTextExpr("\"ocean pacific\"");
  EXPECT_TRUE(reference::EvaluateNodes(*index_, *reversed.value()).empty());
}

TEST_F(IndexTest, BooleanEvaluation) {
  auto expr = ParseTextExpr("mexico AND germany");
  auto matches = reference::EvaluateNodes(*index_, *expr.value());
  // Only nodes containing both: the mexico-2003 doc's root/economy chain.
  ASSERT_FALSE(matches.empty());
  for (const NodeMatch& m : matches) {
    EXPECT_EQ(m.node.doc, 4u);  // mexico-2003
  }
  auto none = ParseTextExpr("mexico AND philippines");
  EXPECT_TRUE(reference::EvaluateNodes(*index_, *none.value()).empty());
}

TEST_F(IndexTest, NotEvaluation) {
  auto expr = ParseTextExpr("mexico AND NOT germany");
  auto matches = reference::EvaluateNodes(*index_, *expr.value());
  ASSERT_FALSE(matches.empty());
  for (const NodeMatch& m : matches) {
    auto tokens = Tokenize(store_.GetNode(m.node)->ContentString());
    EXPECT_NE(std::find(tokens.begin(), tokens.end(), "mexico"), tokens.end());
    EXPECT_EQ(std::find(tokens.begin(), tokens.end(), "germany"), tokens.end());
  }
}

TEST_F(IndexTest, TagNamesAreIndexedForPaths) {
  auto paths = index_->TermPaths("trade_country");
  EXPECT_EQ(paths.size(), 2u);  // import + export variants
}

TEST_F(IndexTest, DocumentFrequencyAndIdf) {
  // mexico-2003, mexico-2005 plus us-2004/us-2005 (Mexico as trade partner).
  EXPECT_EQ(index_->DocumentFrequency("mexico"), 4u);
  EXPECT_GT(index_->Idf("germany"), index_->Idf("united"));
}

TEST_F(IndexTest, TermPathCountMatchesDictionaryScale) {
  auto paths = index_->TermPaths("china");
  for (store::PathId p : paths) {
    EXPECT_GE(index_->TermPathCount("china", p), 1u);
    EXPECT_GE(store_.paths().NodeCount(p), index_->TermPathCount("china", p));
  }
}

TEST_F(IndexTest, NodesWithPathReturnsDocumentOrder) {
  store::PathId pid =
      store_.paths().Find("/country/economy/import_partners/item/trade_country");
  ASSERT_NE(pid, store::kInvalidPathId);
  const auto& nodes = index_->NodesWithPath(pid);
  ASSERT_GT(nodes.size(), 3u);
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_TRUE(nodes[i - 1] < nodes[i]);
  }
  EXPECT_TRUE(index_->NodesWithPath(store::kInvalidPathId).empty());
}

// Property: index evaluation agrees with brute-force Matches() over the
// node contents, for a panel of random boolean queries.
class IndexEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IndexEquivalenceTest, MatchesBruteForce) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  InvertedIndex index(&store);
  auto expr = ParseTextExpr(GetParam());
  ASSERT_TRUE(expr.ok());

  std::set<std::string> expected;
  store.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    auto tokens = Tokenize(node->ContentString());
    if (expr.value()->Matches(tokens)) expected.insert(id.ToString());
  });
  std::set<std::string> actual;
  for (const NodeMatch& m : reference::EvaluateNodes(index, *expr.value())) {
    actual.insert(m.node.ToString());
  }
  EXPECT_EQ(actual, expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, IndexEquivalenceTest,
    ::testing::Values("united", "\"united states\"", "china AND canada",
                      "mexico OR philippines", "germany AND NOT mexico",
                      "(china OR canada) AND 2006", "gdp_ppp",
                      "NOT united", "\"pacific ocean\" OR \"china sea\""));

}  // namespace
}  // namespace seda::text
