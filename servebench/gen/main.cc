// servebench_gen — the serving benchmark's load generator.
//
//   servebench_gen --workload <query_heavy|small_rpc|fit_churn> --seed N
//                  --seconds S --trace <0|1> --server <privtree_server>
//                  --workdir DIR [--spans FILE]
//
// Prints a human-readable report and, as its last line, "RESULT <json>".
// Exits non-zero without a RESULT line when the run cannot be made.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "core/simd.h"

int main(int argc, char** argv) {
  servebench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--server") {
      o.server_binary = value;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      servebench::Fail("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.server_binary.empty() || o.workdir.empty() ||
      o.seconds <= 0) {
    servebench::Fail("usage: servebench_gen --workload W --seed N --seconds S "
                     "--trace 0|1 --server BIN --workdir DIR [--spans FILE]");
  }
  std::printf("simd_isa %s\n", privtree::SimdKernelName());
  return o.trace ? servebench::RunTraced(o) : servebench::RunTimed(o);
}
