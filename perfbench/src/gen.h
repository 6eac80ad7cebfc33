#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Entry point of the load-generator child process (see gen.cc).
int GenMain(const std::string& workload, uint64_t seed, uint16_t port);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
