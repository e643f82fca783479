#ifndef NEWSDIFF_BENCH_REPORT_H_
#define NEWSDIFF_BENCH_REPORT_H_

// The one report format of the gated benches (kernels_bench, index_bench,
// serving_bench, ablation_durability, ablation_replication) and of
// tools/bench_diff, written and parsed through store/json.
//
// A report records its run's bench, mode, seed and machine, then rows of
// metric, value, unit and which way is better. A row may carry
//   * a self-gate: a min and/or max the value must hold in this run. The
//     bench exits 1 when one fails; gates_ok comes from these rows alone;
//   * a tolerance: how far the value may move the worse way from a
//     baseline report's value before bench_diff calls it a regression.
//     Only rows whose values do not depend on the machine (byte counts,
//     exactness counts, recall) carry one, plus the serving rows bench_diff
//     has always gated; every other row is printed, not gated.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/value.h"

namespace newsdiff::bench {

/// Which way a metric improves; kNone marks rows that describe the run.
enum class Better { kHigher, kLower, kNone };

/// A fresh value regresses when it moves the worse way by more than
/// rel * |baseline| + abs; a kNone row may move that far either way.
struct Tolerance {
  double rel = 0.0;
  double abs = 0.0;
};

/// For deterministic rows: any move the worse way is a regression.
inline constexpr Tolerance kExact{};

struct Row {
  std::string metric;
  double value = 0.0;
  std::string unit;
  Better better = Better::kNone;
  std::optional<double> min, max;  ///< Self-gate bounds.
  std::optional<Tolerance> tolerance;

  bool gated() const { return min || max; }
  /// False when the value breaks a self-gate bound; NaN breaks any bound.
  bool passes() const;
};

/// Where a report was produced.
struct Machine {
  std::string host;
  int64_t hardware_threads = 0;
  std::string isa;  ///< x86 extensions the CPU supports, e.g. "avx2 fma".
  std::string build_type;
  std::string compiler;

  static Machine Current();
  bool operator==(const Machine&) const = default;
};

class Report {
 public:
  /// Starts the report of `bench` on this machine and parses the bench's
  /// command line: `--smoke` (only if `has_smoke`) and `--out <path>`,
  /// which defaults to `default_out`. Anything else prints usage and
  /// exits 2. `seed` is the seed the bench's inputs are drawn from.
  Report(std::string bench, std::string default_out, uint64_t seed, int argc,
         char** argv, bool has_smoke = true);

  static StatusOr<Report> Parse(std::string_view json);

  bool smoke() const { return mode_ == "smoke"; }
  const std::string& bench() const { return bench_; }
  const std::string& mode() const { return mode_; }
  uint64_t seed() const { return seed_; }
  const Machine& machine() const { return machine_; }
  const std::vector<Row>& rows() const { return rows_; }
  /// Facts that are not numbers (a digest, a verdict); never gated.
  const std::map<std::string, std::string>& notes() const { return notes_; }
  const Row* Find(std::string_view metric) const;

  void Add(std::string metric, double value, std::string unit, Better better,
           std::optional<Tolerance> tolerance = std::nullopt);
  /// Self-gates: record the row and return whether it holds.
  bool AtLeast(std::string metric, double value, double min, std::string unit,
               std::optional<Tolerance> tolerance = std::nullopt);
  bool AtMost(std::string metric, double value, double max, std::string unit,
              std::optional<Tolerance> tolerance = std::nullopt);
  /// A yes/no self-gate, recorded as 1 or 0 with min 1.
  bool Check(std::string metric, bool ok);
  void Note(const std::string& key, std::string text) {
    notes_[key] = std::move(text);
  }

  bool gates_ok() const;
  store::Value ToValue() const;

  /// Prints every row, writes the report to the --out path and returns the
  /// bench's exit code: 0 when every self-gate holds and the file was
  /// written, 1 otherwise.
  int Finish() const;

 private:
  Report() = default;

  std::string bench_;
  std::string mode_ = "full";
  uint64_t seed_ = 0;
  Machine machine_;
  std::string out_path_;
  std::map<std::string, std::string> notes_;
  std::vector<Row> rows_;
};

/// bench_diff's verdict on a fresh report against a baseline.
struct Diff {
  std::string text;  ///< One line per row, then the result.
  /// Failed fresh self-gates, and, when the runs are comparable, gated
  /// baseline rows missing from the fresh report and rows past their
  /// baseline tolerance. Reports of two different benches count as one.
  size_t failures = 0;
  /// Same bench, mode and seed; otherwise rows are printed, not gated.
  bool comparable = true;
};

Diff DiffReports(const Report& baseline, const Report& fresh);

}  // namespace newsdiff::bench

#endif  // NEWSDIFF_BENCH_REPORT_H_
