// bench_diff: compare a fresh bench report against a baseline report of the
// same bench (bench/report.h), row by row, matched by metric name.
//
// Usage:
//   bench_diff <baseline.json> <fresh.json> [--out report.txt]
//
// Exits 1 when the fresh run failed one of its own self-gates, when a
// gated baseline row is missing from the fresh report, or when a row moved
// the worse way beyond the tolerance its baseline row carries. Rows without
// a tolerance are printed, not gated. When the two runs differ in mode or
// seed (e.g. a checked-in full run against a CI smoke run), the row
// comparisons are report-only, but a failed fresh self-gate still exits 1.
// The report is printed, and also written to --out for a CI artifact.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.h"
#include "common/file_io.h"

using newsdiff::DefaultFileIo;
using newsdiff::StatusOr;
using newsdiff::bench::Report;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff <baseline.json> <fresh.json> "
               "[--out report.txt]\n");
  return 2;
}

StatusOr<Report> Load(const std::string& path) {
  StatusOr<std::string> bytes = DefaultFileIo().ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return Report::Parse(*bytes);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.starts_with("-")) {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return Usage();

  std::vector<Report> reports;
  for (const std::string& path : paths) {
    StatusOr<Report> r = Load(path);
    if (!r.ok()) {
      std::fprintf(stderr, "bench_diff: %s: %s\n", path.c_str(),
                   r.status().message().c_str());
      return 2;
    }
    reports.push_back(std::move(*r));
  }

  const newsdiff::bench::Diff diff =
      newsdiff::bench::DiffReports(reports[0], reports[1]);
  const std::string text =
      "baseline file: " + paths[0] + "\nfresh file:    " + paths[1] + "\n" +
      diff.text;
  std::fputs(text.c_str(), stdout);
  if (!out_path.empty()) {
    const newsdiff::Status wrote = DefaultFileIo().WriteFile(out_path, text);
    if (!wrote.ok()) {
      std::fprintf(stderr, "bench_diff: cannot write %s: %s\n",
                   out_path.c_str(), wrote.message().c_str());
      return 2;
    }
  }
  return diff.failures > 0 ? 1 : 0;
}
