// Golden ranking of the graph-kernel cliff query
// (KernelEquivalenceTest.CliffQueryRankingMatchesTheGoldenUnderAnyBudget):
// the byte-exact RankingFingerprint of the budget-off search (k=5, uncapped
// hub, 1000-tuple budget) on the 1 hub + 200 satellite corpus. Rows 1-4 are
// the same-item tuples of satellites 1-4 (size 2); row 5 joins the hub's
// name to satellite 1's trade_country and percentage (size 3), the best
// tuple left once the 1000-tuple budget has scored documents 0-4. Every
// row is confirmed bit for bit by the top-k oracle
// (tests/reference/topk_oracle.h), which the test re-checks.
#ifndef SEDA_TESTS_GRAPH_KERNELS_GOLDEN_H_
#define SEDA_TESTS_GRAPH_KERNELS_GOLDEN_H_

inline constexpr char kGoldenCliffRanking[] = R"golden(1:1.2.1.1 1:1.2.1.1.1 1:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=2 s=0x1.e003e05769856p-2
2:1.2.1.1 2:1.2.1.1.1 2:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=2 s=0x1.e003e05769856p-2
3:1.2.1.1 3:1.2.1.1.1 3:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=2 s=0x1.e003e05769856p-2
4:1.2.1.1 4:1.2.1.1.1 4:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=2 s=0x1.e003e05769856p-2
0:1.1 1:1.2.1.1.1 1:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=3 s=0x1.6802e8418f241p-2
)golden";

#endif  // SEDA_TESTS_GRAPH_KERNELS_GOLDEN_H_
