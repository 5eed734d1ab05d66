#include "text/analyzer.h"

namespace seda::text {

std::vector<std::string> Tokenize(std::string_view input) {
  std::vector<std::string> tokens;
  ForEachToken(input, [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

std::string NormalizeToken(std::string_view token) {
  std::string first;
  ForEachToken(token, [&](std::string_view t) {
    if (first.empty()) first = t;
  });
  return first;
}

}  // namespace seda::text
