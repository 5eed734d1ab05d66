// The workloads. Each builds its inputs from the seed, sets up the
// serving path (timed as setup_s), measures for `seconds`, then checks the
// outputs it recorded against in-process references.
#ifndef SEDABENCH_WORKLOADS_H_
#define SEDABENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace sedabench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout for images and the span dump.
  std::string work_dir;
};

/// Set-up is repeated kSetupReps times before the timed phase (the last one
/// serves) and kLateSetupReps times after it; setup_s is the median, so it
/// does not rest on one stretch of the run. The ingest set-up (801
/// documents, no warm-up) is short enough for more.
inline constexpr int kSetupReps = 3;
inline constexpr int kLateSetupReps = 2;
inline constexpr int kIngestSetupReps = 4;
inline constexpr int kIngestLateSetupReps = 4;
/// Reopens behind open_ms (median), spread over the run: kOpenReps after
/// each set-up and twice that at the end of the timed phase (four times
/// that at the end for ingest, whose image is the final epoch).
inline constexpr int kOpenReps = 4;

RunResult RunKeyword(const RunConfig& config);
RunResult RunIngest(const RunConfig& config);

}  // namespace sedabench

#endif  // SEDABENCH_WORKLOADS_H_
