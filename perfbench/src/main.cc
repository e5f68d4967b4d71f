// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload <kway_open|write_mix|paper_batch|cluster_kway>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object with the run's metrics, notes, correctness findings and build
// stamp. run.py builds this program, runs it and checks that object
// against BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  eq::perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (next && arg == "--workload") {
      opts.workload = argv[++i];
    } else if (next && arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (next && arg == "--seconds") {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (next && arg == "--trace") {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.seconds <= 0) opts.seconds = 10;

  eq::perfbench::Report report(opts);
  if (opts.workload == "kway_open") {
    eq::perfbench::RunKwayOpen(&report);
  } else if (opts.workload == "write_mix") {
    eq::perfbench::RunWriteMix(&report);
  } else if (opts.workload == "paper_batch") {
    eq::perfbench::RunPaperBatch(&report);
  } else if (opts.workload == "cluster_kway") {
    eq::perfbench::RunClusterKway(&report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
