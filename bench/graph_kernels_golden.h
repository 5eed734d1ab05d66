// Golden ranking of the bench_graph_kernels cliff query: the byte-exact
// RankingFingerprint of the budget-off search (k=5, uncapped hub, 1000-tuple
// budget) on the 1 hub + 200 satellite corpus (every --scale up to 0.133,
// including the CI smoke's 0.05). First captured from the hash-map BFS
// engine; the rows are five distinct tuples, each confirmed bit for bit by
// the top-k oracle (tests/reference/topk_oracle.h), since the engine scores
// a tuple reached from two borrowing groups once. The CSR engine's
// budget-off ranking must reproduce it exactly.
#ifndef SEDA_BENCH_GRAPH_KERNELS_GOLDEN_H_
#define SEDA_BENCH_GRAPH_KERNELS_GOLDEN_H_

inline constexpr int kGoldenSatellites = 200;

inline constexpr char kGoldenCliffRanking[] = R"golden(1:1.2.1.1 2:1.2.1.1.1 1:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=1 s=0x1.6802e8418f241p-1
1:1.2.1.1 3:1.2.1.1.1 1:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=1 s=0x1.6802e8418f241p-1
1:1.2.1.1 4:1.2.1.1.1 1:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=1 s=0x1.6802e8418f241p-1
1:1.2.1.1 5:1.2.1.1.1 1:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=1 s=0x1.6802e8418f241p-1
1:1.2.1.1 6:1.2.1.1.1 1:1.2.1.1.2 c=0x1.6802e8418f241p+0 n=1 s=0x1.6802e8418f241p-1
)golden";

#endif  // SEDA_BENCH_GRAPH_KERNELS_GOLDEN_H_
