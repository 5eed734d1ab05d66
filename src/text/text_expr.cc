#include "text/text_expr.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "text/analyzer.h"

namespace seda::text {

std::unique_ptr<TextExpr> TextExpr::All() {
  auto e = std::make_unique<TextExpr>();
  e->kind = Kind::kAll;
  return e;
}

std::unique_ptr<TextExpr> TextExpr::Term(std::string t) {
  auto e = std::make_unique<TextExpr>();
  e->kind = Kind::kTerm;
  e->term = NormalizeToken(t);
  return e;
}

std::unique_ptr<TextExpr> TextExpr::Phrase(std::vector<std::string> tokens) {
  auto e = std::make_unique<TextExpr>();
  e->kind = Kind::kPhrase;
  for (auto& t : tokens) {
    std::string norm = NormalizeToken(t);
    if (!norm.empty()) e->phrase.push_back(std::move(norm));
  }
  if (e->phrase.size() == 1) {
    return Term(e->phrase.front());
  }
  return e;
}

std::unique_ptr<TextExpr> TextExpr::And(std::vector<std::unique_ptr<TextExpr>> cs) {
  if (cs.size() == 1) return std::move(cs.front());
  auto e = std::make_unique<TextExpr>();
  e->kind = Kind::kAnd;
  e->children = std::move(cs);
  return e;
}

std::unique_ptr<TextExpr> TextExpr::Or(std::vector<std::unique_ptr<TextExpr>> cs) {
  if (cs.size() == 1) return std::move(cs.front());
  auto e = std::make_unique<TextExpr>();
  e->kind = Kind::kOr;
  e->children = std::move(cs);
  return e;
}

std::unique_ptr<TextExpr> TextExpr::Not(std::unique_ptr<TextExpr> child) {
  auto e = std::make_unique<TextExpr>();
  e->kind = Kind::kNot;
  e->children.push_back(std::move(child));
  return e;
}

std::unique_ptr<TextExpr> TextExpr::Clone() const {
  auto e = std::make_unique<TextExpr>();
  e->kind = kind;
  e->term = term;
  e->phrase = phrase;
  for (const auto& child : children) e->children.push_back(child->Clone());
  return e;
}

bool TextExpr::Matches(const std::vector<std::string>& tokens) const {
  switch (kind) {
    case Kind::kAll:
      return true;
    case Kind::kTerm:
      return std::find(tokens.begin(), tokens.end(), term) != tokens.end();
    case Kind::kPhrase: {
      if (phrase.empty()) return true;
      if (tokens.size() < phrase.size()) return false;
      for (size_t i = 0; i + phrase.size() <= tokens.size(); ++i) {
        bool match = true;
        for (size_t j = 0; j < phrase.size(); ++j) {
          if (tokens[i + j] != phrase[j]) {
            match = false;
            break;
          }
        }
        if (match) return true;
      }
      return false;
    }
    case Kind::kAnd:
      for (const auto& child : children) {
        if (!child->Matches(tokens)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& child : children) {
        if (child->Matches(tokens)) return true;
      }
      return false;
    case Kind::kNot:
      return !children.front()->Matches(tokens);
  }
  return false;
}

std::vector<std::string> TextExpr::PositiveTerms() const {
  std::vector<std::string> out;
  switch (kind) {
    case Kind::kAll:
      break;
    case Kind::kTerm:
      out.push_back(term);
      break;
    case Kind::kPhrase:
      out = phrase;
      break;
    case Kind::kAnd:
    case Kind::kOr:
      for (const auto& child : children) {
        for (auto& t : child->PositiveTerms()) out.push_back(std::move(t));
      }
      break;
    case Kind::kNot:
      break;  // negated terms contribute no positive evidence
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string TextExpr::ToString() const {
  switch (kind) {
    case Kind::kAll:
      return "*";
    case Kind::kTerm:
      return "\"" + term + "\"";
    case Kind::kPhrase:
      return "\"" + Join(phrase, " ") + "\"";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kNot:
      return "NOT " + children.front()->ToString();
  }
  return "?";
}

namespace {

/// Recursive-descent parser for the full-text query grammar.
class ExprParser {
 public:
  explicit ExprParser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<TextExpr>> Parse() {
    auto expr = ParseOr();
    if (!expr.ok()) return expr;
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("unexpected trailing input in search query at offset " +
                                std::to_string(pos_));
    }
    return expr;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= input_.size();
  }

  bool PeekChar(char c) {
    SkipSpace();
    return pos_ < input_.size() && input_[pos_] == c;
  }

  /// Reads a bare word (no quotes); empty when next char is punctuation.
  std::string PeekWord() {
    SkipSpace();
    size_t p = pos_;
    std::string word;
    while (p < input_.size() && !std::isspace(static_cast<unsigned char>(input_[p])) &&
           input_[p] != '(' && input_[p] != ')' && input_[p] != '"') {
      word.push_back(input_[p++]);
    }
    return word;
  }

  void ConsumeWord(const std::string& word) { pos_ += word.size(); }

  Result<std::unique_ptr<TextExpr>> ParseOr() {
    std::vector<std::unique_ptr<TextExpr>> parts;
    auto first = ParseAnd();
    if (!first.ok()) return first;
    parts.push_back(std::move(first).value());
    while (true) {
      std::string word = PeekWord();
      if (ToLower(word) != "or") break;
      ConsumeWord(word);
      auto next = ParseAnd();
      if (!next.ok()) return next;
      parts.push_back(std::move(next).value());
    }
    return TextExpr::Or(std::move(parts));
  }

  Result<std::unique_ptr<TextExpr>> ParseAnd() {
    std::vector<std::unique_ptr<TextExpr>> parts;
    auto first = ParseUnary();
    if (!first.ok()) return first;
    parts.push_back(std::move(first).value());
    while (!AtEnd() && !PeekChar(')')) {
      std::string word = PeekWord();
      std::string lower = ToLower(word);
      if (lower == "or") break;
      if (lower == "and") {
        ConsumeWord(word);
      }
      auto next = ParseUnary();
      if (!next.ok()) return next;
      parts.push_back(std::move(next).value());
    }
    return TextExpr::And(std::move(parts));
  }

  Result<std::unique_ptr<TextExpr>> ParseUnary() {
    SkipSpace();
    if (pos_ >= input_.size()) {
      return Status::ParseError("unexpected end of search query");
    }
    std::string word = PeekWord();
    if (ToLower(word) == "not") {
      ConsumeWord(word);
      auto child = ParseUnary();
      if (!child.ok()) return child;
      return TextExpr::Not(std::move(child).value());
    }
    if (PeekChar('(')) {
      ++pos_;
      auto inner = ParseOr();
      if (!inner.ok()) return inner;
      if (!PeekChar(')')) return Status::ParseError("expected ')' in search query");
      ++pos_;
      return inner;
    }
    if (PeekChar('"')) {
      ++pos_;
      size_t close = input_.find('"', pos_);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated phrase in search query");
      }
      std::string phrase(input_.substr(pos_, close - pos_));
      pos_ = close + 1;
      auto tokens = Tokenize(phrase);
      if (tokens.empty()) return TextExpr::All();
      return TextExpr::Phrase(std::move(tokens));
    }
    if (word.empty()) {
      return Status::ParseError("expected term in search query at offset " +
                                std::to_string(pos_));
    }
    ConsumeWord(word);
    if (word == "*") return TextExpr::All();
    // A bare word is tokenized like indexed text: "Guinea-Bissau" or "U.S."
    // holds several tokens and means the phrase of them, as when quoted.
    auto tokens = Tokenize(word);
    if (tokens.empty()) return TextExpr::All();
    return TextExpr::Phrase(std::move(tokens));
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<TextExpr>> ParseTextExpr(std::string_view input) {
  std::string_view stripped = StripWhitespace(input);
  if (stripped.empty() || stripped == "*") {
    return TextExpr::All();
  }
  return ExprParser(stripped).Parse();
}

}  // namespace seda::text
