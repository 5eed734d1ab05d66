#ifndef SEDA_TEXT_ANALYZER_H_
#define SEDA_TEXT_ANALYZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace seda::text {

namespace internal {
inline bool IsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }
}  // namespace internal

/// The one tokenizer definition, for indexing and querying alike: calls
/// `fn(std::string_view token)` for each token of `input`, in order. A token
/// is a maximal run of alphanumerics and '_', lowercased; a '.' between two
/// digits stays inside it, so numbers (incl. decimal values like "12.31")
/// are kept whole and fact values remain searchable. Every other character
/// separates tokens, so `input` split at any separator tokenizes piece by
/// piece to the same sequence — the property the index build relies on to
/// tokenize each text leaf once (content(n) joins its pieces with a space).
/// The view is valid only during the call.
template <typename Fn>
void ForEachToken(std::string_view input, Fn&& fn) {
  std::string current;
  for (size_t i = 0; i < input.size(); ++i) {
    char c = input[i];
    if (internal::IsTokenChar(c)) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      continue;
    }
    if (c == '.' && !current.empty() && internal::IsDigit(current.back()) &&
        i + 1 < input.size() && internal::IsDigit(input[i + 1])) {
      current.push_back('.');
      continue;
    }
    if (!current.empty()) {
      fn(std::string_view(current));
      current.clear();
    }
  }
  if (!current.empty()) fn(std::string_view(current));
}

/// ForEachToken's tokens, collected.
std::vector<std::string> Tokenize(std::string_view input);

/// Normalizes a single keyword the same way Tokenize normalizes tokens: its
/// first token. Returns an empty string when the keyword contains no
/// indexable character.
std::string NormalizeToken(std::string_view token);

}  // namespace seda::text

#endif  // SEDA_TEXT_ANALYZER_H_
