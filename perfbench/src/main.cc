// perfbench: the repository benchmark.
//
//   perfbench --workload <tpch_scan|tpcds_join|ingest_serve> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints human-readable lines, then as its last line one JSON object with
// "correct", "attempted", "failed" and "metrics": the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. perfbench/run.py
// checks the names against BENCHMARK.json and adds the per-layer metrics a
// workload leaves idle as 0.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "perfbench/src/bench.h"

namespace minihive::perfbench {
namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tpch_scan|tpcds_join|ingest_serve> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               message);
  std::exit(64);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing flag value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace minihive::perfbench

int main(int argc, char** argv) {
  using namespace minihive::perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.trace) std::filesystem::create_directories(kTraceDir);
  Report report;
  if (args.workload == "tpch_scan") {
    report = RunTpchScan(args);
  } else if (args.workload == "tpcds_join") {
    report = RunTpcdsJoin(args);
  } else if (args.workload == "ingest_serve") {
    report = RunIngestServe(args);
  } else {
    Usage("unknown workload");
  }
  PrintReport(report);
  return 0;
}
