// Small shared helpers of the end-to-end benchmark: clocks, order
// statistics, process resource probes and the result line.
#ifndef SEDABENCH_UTIL_H_
#define SEDABENCH_UTIL_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sedabench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 1]; 0 if empty.
double Percentile(std::vector<double> values, double p);

/// Number of samples strictly beyond the nearest-rank percentile p; a tail
/// figure is only reported when this is at least ten.
size_t SamplesBeyond(size_t count, double p);

/// Resident set of this process right now, in MB (VmRSS).
double ResidentMb();
/// CPU time (user + system) this process has used so far, in ms.
double ProcessCpuMs();
/// CPU time the calling thread has used so far, in ms.
double ThreadCpuMs();

/// Returns freed heap pages to the kernel so a later ResidentMb() reading
/// does not count scratch memory that is already released.
void ReleaseFreeHeap();

/// Number of online processors.
unsigned OnlineCpus();

/// Pins the calling thread to one processor for its lifetime and restores
/// the thread's previous affinity afterwards. Repeated single-threaded
/// measurements rotate over the processors with it, so a median is not the
/// speed of whichever processor the thread happened to stay on.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(unsigned cpu);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t previous_;
  bool pinned_ = false;
};

/// Size of a file in bytes (0 if missing).
uint64_t FileBytes(const std::string& path);

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the last line of standard output is this object as
/// JSON, with exactly the keys correct/attempted/failed/metrics.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Marks the run incorrect and logs why (stderr).
  void Fail(const std::string& why);
  std::string ToJson() const;
};

}  // namespace sedabench

#endif  // SEDABENCH_UTIL_H_
