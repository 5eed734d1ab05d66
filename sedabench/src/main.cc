// End-to-end benchmark of SEDA: the seda_e2e_bench binary.
//
//   seda_e2e_bench --workload keyword|ingest --seed N --seconds S
//                  --trace 0|1
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Images and
// span dumps go to .bench_out/ under the working directory.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util.h"
#include "workloads.h"

int main(int argc, char** argv) {
  std::string workload;
  sedabench::RunConfig config;
  config.work_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::atoi(value) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
  }
  if (config.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  mkdir(config.work_dir.c_str(), 0755);
  // Clients, server threads and engine pools add up to at most 4 in every
  // workload; fewer processors would queue them on each other.
  std::fprintf(stderr, "pinned threads: at most 4, online processors: %u\n",
               sedabench::OnlineCpus());

  sedabench::RunResult result;
  if (workload == "keyword") {
    result = sedabench::RunKeyword(config);
  } else if (workload == "ingest") {
    result = sedabench::RunIngest(config);
  } else {
    std::fprintf(stderr, "--workload must be keyword or ingest\n");
    return 2;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation attempted; no result\n");
    return 1;
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
