// Ablation A2: the holistic twig-join complete-result generator (paper §7,
// Bruno et al. [4]) vs. a naive backtracking join that checks every
// connection predicate literally as soon as both of its terms are bound (the
// complete-result oracle, tests/reference/complete_oracle.h). Both must
// produce identical tuple sets; the holistic engine's advantage grows with
// the candidate list sizes.

#include <chrono>
#include <cstdio>

#include "data/generators.h"
#include "graph/data_graph.h"
#include "reference/bfs.h"
#include "reference/complete_oracle.h"
#include "text/inverted_index.h"
#include "twig/twig.h"

using Clock = std::chrono::steady_clock;

namespace {
constexpr const char* kName = "/country/name";
constexpr const char* kTrade = "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct = "/country/economy/import_partners/item/percentage";
}  // namespace

int main() {
  std::printf("=== Ablation A2: holistic twig join vs naive backtracking join ===\n");
  std::printf("The naive engine enumerates candidates in term order, so it is\n"
              "fast when a selective term comes first and degrades when the\n"
              "selective term comes last; the holistic engine is order-"
              "independent.\n\n");
  std::printf("%8s | %8s | %12s %12s | %14s %14s | %5s\n", "docs", "tuples",
              "twig(sel 1st)", "twig(sel last)", "naive(sel 1st)",
              "naive(sel last)", "same");

  for (double scale : {0.05, 0.1, 0.2, 0.4}) {
    seda::store::DocumentStore store;
    seda::data::WorldFactbookGenerator::Options options;
    options.scale = scale;
    seda::data::WorldFactbookGenerator(options).Populate(&store);
    seda::graph::DataGraph graph(&store);
    graph.BuildCsr();
    seda::text::InvertedIndex index(&store);
    seda::twig::CompleteResultGenerator generator(&index, &graph);

    auto us = seda::text::ParseTextExpr("\"united states\"").value();
    // Selective term (the US name predicate) first vs last.
    std::vector<seda::twig::TermBinding> sel_first{
        {kName, us.get()}, {kTrade, nullptr}, {kPct, nullptr}};
    std::vector<seda::twig::TermBinding> sel_last{
        {kTrade, nullptr}, {kPct, nullptr}, {kName, us.get()}};

    auto time = [](auto&& fn) {
      auto start = Clock::now();
      auto result = fn();
      double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start).count();
      return std::make_pair(std::move(result), ms);
    };
    auto [twig_a, twig_a_ms] =
        time([&] { return generator.Execute(sel_first, {}); });
    auto [twig_b, twig_b_ms] = time([&] { return generator.Execute(sel_last, {}); });
    const seda::reference::ReferenceGraph reference_graph(graph);
    auto [naive_a, naive_a_ms] = time([&] {
      return seda::reference::CompleteResults(index, reference_graph, sel_first, {});
    });
    auto [naive_b, naive_b_ms] = time([&] {
      return seda::reference::CompleteResults(index, reference_graph, sel_last, {});
    });

    bool same = twig_a.ok() && twig_b.ok() &&
                twig_a.value().tuples.size() == naive_a.size() &&
                twig_b.value().tuples.size() == naive_b.size() &&
                twig_a.value().tuples.size() == twig_b.value().tuples.size();
    for (size_t i = 0; same && i < naive_a.size(); ++i) {
      same = twig_a.value().tuples[i].nodes == naive_a[i].nodes &&
             twig_b.value().tuples[i].nodes == naive_b[i].nodes;
    }
    std::printf("%8zu | %8zu | %12.2f %12.2f | %14.2f %14.2f | %5s\n",
                store.DocumentCount(),
                twig_a.ok() ? twig_a.value().tuples.size() : 0, twig_a_ms,
                twig_b_ms, naive_a_ms, naive_b_ms, same ? "YES" : "NO");
    if (!same) return 1;
  }
  std::printf("\nBoth engines implement identical semantics (verified above); the\n"
              "holistic engine's cost is term-order independent, matching the\n"
              "holistic-vs-binary-join motivation of Bruno et al. [4] (paper §7).\n");
  return 0;
}
