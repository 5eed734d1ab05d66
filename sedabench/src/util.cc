#include "util.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

namespace sedabench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {
size_t RankIndex(size_t count, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(count)));
  return rank == 0 ? 0 : std::min(rank, count) - 1;
}
}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[RankIndex(values.size(), p)];
}

size_t SamplesBeyond(size_t count, double p) {
  if (count == 0) return 0;
  return count - 1 - RankIndex(count, p);
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1000.0 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void ReleaseFreeHeap() { malloc_trim(0); }

unsigned OnlineCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

PinnedToCpu::PinnedToCpu(unsigned cpu) {
  CPU_ZERO(&previous_);
  if (sched_getaffinity(0, sizeof(previous_), &previous_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu % OnlineCpus(), &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(previous_), &previous_);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace sedabench
