#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where trace files and durable-store directories go.
  std::string out_dir = ".bench_out";
  /// Recorded in the output as given.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Runs one workload and prints the meta line and the result line.
int BenchMain(const BenchArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
