// perfbench: the pipeline benchmark binary. run.py builds and invokes
// it; it also re-executes itself as the load generator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]
//   perfbench --role gen --workload <name> --seed <n> --port <p>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "gen.h"

int main(int argc, char** argv) {
  perfbench::BenchArgs args;
  std::string role = "bench";
  unsigned long port = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--role") {
      role = val;
    } else if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--out-dir") {
      args.out_dir = val;
    } else if (key == "--commit") {
      args.commit = val;
    } else if (key == "--source-digest") {
      args.source_digest = val;
    } else if (key == "--port") {
      port = std::strtoul(val.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (role == "gen") {
    return perfbench::GenMain(args.workload, args.seed, static_cast<uint16_t>(port));
  }
  if (args.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return 2;
  }
  return perfbench::BenchMain(args);
}
