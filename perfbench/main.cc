// perfbench: the end-to-end benchmark driver for newsdiff.
//
//   perfbench --workload <serve_read|ingest_refresh|offline_refresh>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds its inputs from --seed, measures for --seconds, checks the
// program's answers, and prints one JSON object as the last stdout line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// (README.md lists both). Progress and diagnostics go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && args->seconds > 0.0 && argc % 2 == 1;
}

void PrintResult(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].first.c_str(),
                r.metrics[i].second.first, r.metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  newsdiff::SetLogLevel(newsdiff::LogLevel::kWarning);
  perfbench::Result result;
  if (args.workload == "serve_read") {
    result = perfbench::RunServeRead(args);
  } else if (args.workload == "ingest_refresh") {
    result = perfbench::RunIngestRefresh(args);
  } else if (args.workload == "offline_refresh") {
    result = perfbench::RunOfflineRefresh(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  PrintResult(result);
  return 0;
}
