// The bench report format (bench/report.h) and bench_diff's verdicts: each
// way a diff passes, fails, or only reports. BenchBaselinesTest pins the
// checked-in BENCH_*.json reports: they parse, record their machine, hold
// their gates, and the serving baseline keeps bench_diff's serving checks.
#include "bench/report.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "store/json.h"

namespace newsdiff::bench {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Report Make(bool smoke = false, const char* bench = "serving_bench") {
  char name[] = "bench", flag[] = "--smoke";
  char* argv[] = {name, flag};
  return Report(bench, "unused.json", 2021, smoke ? 2 : 1, argv);
}

/// Serialises and parses `r` back, as bench_diff reads a report file.
Report RoundTrip(const Report& r) {
  StatusOr<Report> parsed = Report::Parse(store::ToPrettyJson(r.ToValue()));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : r;
}

/// A serving-shaped report: the rows bench_diff has always gated, plus an
/// ungated timing row.
Report Serving(double ratio, double p99, double errors, bool smoke = false) {
  Report r = Make(smoke);
  r.AtLeast("achieved_ratio", ratio, 0.85, "ratio", Tolerance{0.0, 0.10});
  r.Add("per_class.predict_interest.p99_ms", p99, "ms", Better::kLower,
        Tolerance{0.5, 5.0});
  r.AtMost("errors", errors, 0.0, "requests");
  r.Add("achieved_rate", 590.0, "req/s", Better::kHigher);
  return RoundTrip(r);
}

size_t Failures(const Report& base, const Report& fresh) {
  return DiffReports(base, fresh).failures;
}

TEST(BenchReportTest, GatesOkComesFromTheGateRows) {
  Report r = Make();
  EXPECT_TRUE(r.AtLeast("speedup", 10.0, 10.0, "x"));
  EXPECT_TRUE(r.AtMost("errors", 0.0, 0.0, "requests"));
  EXPECT_TRUE(r.Check("bitwise", true));
  r.Add("seconds", 1e9, "s", Better::kLower);  // not a gate
  EXPECT_TRUE(r.gates_ok());
  EXPECT_FALSE(r.AtLeast("nan", kNaN, 0.0, "x"));
  EXPECT_FALSE(r.gates_ok());
  Report failed = Make();
  EXPECT_FALSE(failed.Check("bitwise", false));
  EXPECT_FALSE(failed.gates_ok());
}

TEST(BenchReportTest, FinishWritesTheReportAndReturnsTheExitCode) {
  std::string path = ::testing::TempDir() + "bench_report_test.json";
  std::string bad = ::testing::TempDir() + "no_such_dir/report.json";
  char name[] = "bench", out[] = "--out";
  char* argv[] = {name, out, path.data()};
  Report r("index_bench", "unused.json", 7, 3, argv);
  r.Check("bitwise", true);
  EXPECT_EQ(r.Finish(), 0);
  StatusOr<std::string> written = DefaultFileIo().ReadFile(path);
  ASSERT_TRUE(written.ok());
  EXPECT_TRUE(Report::Parse(*written).ok());
  r.AtMost("errors", 1.0, 0.0, "requests");
  EXPECT_EQ(r.Finish(), 1);
  argv[2] = bad.data();
  EXPECT_EQ(Report("index_bench", "unused.json", 7, 3, argv).Finish(), 1);
}

TEST(BenchReportTest, RoundTripsThroughJson) {
  Report r = Make(/*smoke=*/true);
  r.AtLeast("recall", 1.0, 1.0, "fraction", kExact);
  r.AtMost("staleness_ms", 500.0, 2000.0, "ms");
  r.Add("p99_ms", 12.25, "ms", Better::kLower, Tolerance{0.5, 5.0});
  r.Add("docs", 6000.0, "docs", Better::kNone);
  r.Add("inf", std::numeric_limits<double>::infinity(), "x", Better::kHigher);
  r.Note("saturation", "unsaturated at 16000 req/s");

  const Report back = RoundTrip(r);
  EXPECT_EQ(back.bench(), "serving_bench");
  EXPECT_TRUE(back.smoke());
  EXPECT_EQ(back.seed(), 2021u);
  EXPECT_EQ(back.machine(), Machine::Current());
  EXPECT_GT(back.machine().hardware_threads, 0);
  ASSERT_EQ(back.rows().size(), 5u);
  const Row* p99 = back.Find("p99_ms");
  EXPECT_EQ(p99->value, 12.25);
  EXPECT_EQ(p99->unit, "ms");
  EXPECT_EQ(p99->better, Better::kLower);
  EXPECT_FALSE(p99->gated());
  EXPECT_EQ(p99->tolerance->rel, 0.5);
  EXPECT_EQ(p99->tolerance->abs, 5.0);
  EXPECT_EQ(back.Find("recall")->min, 1.0);
  EXPECT_EQ(back.Find("staleness_ms")->max, 2000.0);
  EXPECT_EQ(back.Find("docs")->better, Better::kNone);
  // store/json writes inf as null, which reads back as NaN.
  EXPECT_TRUE(std::isnan(back.Find("inf")->value));
  EXPECT_EQ(back.notes().at("saturation"), "unsaturated at 16000 req/s");
}

TEST(BenchReportTest, ParseRejectsWhatIsNotAReport) {
  const std::string head = R"({"bench": "b", "mode": "full", "rows": )";
  const std::string row = R"({"metric": "m", "value": 1, "better": "none"})";
  EXPECT_FALSE(Report::Parse("{").ok());
  EXPECT_FALSE(Report::Parse(R"({"mode": "full", "rows": []})").ok());
  EXPECT_FALSE(Report::Parse(R"({"bench": "b", "mode": "full"})").ok());
  for (const char* bad : {R"({"metric": "m", "value": 1, "better": "up"})",
                          R"({"metric": "m", "value": "1", "better": "none"})",
                          R"({"value": 1, "better": "none"})"}) {
    EXPECT_FALSE(Report::Parse(head + "[" + bad + "]}").ok()) << bad;
  }
  EXPECT_FALSE(Report::Parse(head + "[" + row + ", " + row + "]}").ok());
  EXPECT_TRUE(Report::Parse(head + "[" + row + "]}").ok());
}

TEST(BenchDiffTest, PassesWithinTolerance) {
  // The ratio may drop by 0.10; the p99 may reach 100 * 1.5 + 5 = 155 ms.
  const Diff d = DiffReports(Serving(0.95, 100.0, 0), Serving(0.85, 155.0, 0));
  EXPECT_EQ(d.failures, 0u) << d.text;
  EXPECT_TRUE(d.comparable);
  EXPECT_NE(d.text.find("RESULT: PASS"), std::string::npos) << d.text;
}

TEST(BenchDiffTest, UngatedRowsArePrintedNotGated) {
  Report base = Make(), fresh = Make();
  base.Add("seconds", 1.0, "s", Better::kLower);
  fresh.Add("seconds", 100.0, "s", Better::kLower);
  base.Add("gone", 1.0, "s", Better::kLower);
  fresh.Add("new", 1.0, "s", Better::kLower);
  const Diff d = DiffReports(RoundTrip(base), RoundTrip(fresh));
  EXPECT_EQ(d.failures, 0u) << d.text;
  for (const char* text : {"seconds 1 -> 100 s (+9900.0%)",
                           "gone missing from fresh",
                           "new 1 s (not in baseline)"}) {
    EXPECT_NE(d.text.find(text), std::string::npos) << text << "\n" << d.text;
  }
}

TEST(BenchDiffTest, FailsWhenARowRegressesBeyondItsTolerance) {
  // 0.89 holds the run's own 0.85 floor but drops more than 0.10.
  EXPECT_EQ(Failures(Serving(1.0, 100.0, 0), Serving(0.89, 100.0, 0)), 1u);
  EXPECT_EQ(Failures(Serving(0.95, 100.0, 0), Serving(0.95, 155.5, 0)), 1u);
  // A NaN (a non-finite value in the file) regresses.
  EXPECT_EQ(Failures(Serving(0.95, 100.0, 0), Serving(0.95, kNaN, 0)), 1u);
  // Improvements never fail, however large.
  EXPECT_EQ(Failures(Serving(0.86, 100.0, 0), Serving(1.0, 1.0, 0)), 0u);
}

TEST(BenchDiffTest, FailsWhenTheFreshRunFailedItsOwnGates) {
  // errors = 1 and a ratio under its 0.85 floor break the fresh run's
  // self-gates, although both are within the diff tolerances.
  const Diff d = DiffReports(Serving(0.86, 100.0, 0), Serving(0.80, 100.0, 1));
  EXPECT_EQ(d.failures, 2u) << d.text;
  EXPECT_NE(d.text.find("FAIL  fresh self-gate errors = 1 requests (max 0)"),
            std::string::npos)
      << d.text;
  EXPECT_NE(d.text.find("RESULT: FAIL (2)"), std::string::npos);
}

TEST(BenchDiffTest, FailsWhenAGatedRowIsMissing) {
  // A row with a tolerance, then a self-gate row.
  Report no_p99 = Make(), no_errors = Make();
  no_p99.AtLeast("achieved_ratio", 0.95, 0.85, "ratio");
  no_p99.AtMost("errors", 0.0, 0.0, "requests");
  no_errors.AtLeast("achieved_ratio", 0.95, 0.85, "ratio");
  no_errors.Add("per_class.predict_interest.p99_ms", 100.0, "ms",
                Better::kLower);
  const Diff d = DiffReports(Serving(0.95, 100.0, 0), RoundTrip(no_p99));
  EXPECT_EQ(d.failures, 1u) << d.text;
  EXPECT_NE(
      d.text.find("FAIL  per_class.predict_interest.p99_ms missing from fresh"),
      std::string::npos)
      << d.text;
  EXPECT_EQ(Failures(Serving(0.95, 100.0, 0), RoundTrip(no_errors)), 1u);
}

TEST(BenchDiffTest, ModeMismatchIsReportOnlyButSelfGatesStillCount) {
  // A full baseline against a smoke run: regressions and missing rows are
  // printed, not counted.
  const Diff d =
      DiffReports(Serving(0.99, 10.0, 0), Serving(0.86, 500.0, 0, true));
  EXPECT_FALSE(d.comparable);
  EXPECT_EQ(d.failures, 0u) << d.text;
  EXPECT_NE(d.text.find("RESULT: report-only"), std::string::npos) << d.text;
  Report missing = Make(/*smoke=*/true);
  missing.AtLeast("achieved_ratio", 0.95, 0.85, "ratio");
  EXPECT_EQ(Failures(Serving(0.99, 10.0, 0), RoundTrip(missing)), 0u);
  // A failed fresh self-gate still fails the diff.
  EXPECT_EQ(Failures(Serving(0.99, 10.0, 0), Serving(0.99, 10.0, 3, true)),
            1u);
}

TEST(BenchDiffTest, DifferentBenchesFail) {
  const Diff d = DiffReports(Serving(0.95, 100.0, 0),
                             RoundTrip(Make(false, "index_bench")));
  EXPECT_FALSE(d.comparable);
  EXPECT_EQ(d.failures, 1u) << d.text;
}

Report CheckedIn(const std::string& name) {
  StatusOr<std::string> bytes =
      DefaultFileIo().ReadFile(std::string(NEWSDIFF_SOURCE_DIR) + "/" + name);
  StatusOr<Report> r = Report::Parse(bytes.ok() ? *bytes : "");
  EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
  return r.ok() ? *r : Make();
}

TEST(BenchBaselinesTest, CheckedInReportsAreFullRunsThatHoldTheirGates) {
  for (const char* name :
       {"BENCH_kernels.json", "BENCH_index.json", "BENCH_serving.json",
        "BENCH_durability.json", "BENCH_replication.json"}) {
    const Report r = CheckedIn(name);
    EXPECT_EQ(r.mode(), "full") << name;
    EXPECT_TRUE(r.gates_ok()) << name;
    EXPECT_FALSE(r.machine().host.empty()) << name;
    EXPECT_GT(r.machine().hardware_threads, 0) << name;
    EXPECT_FALSE(r.machine().build_type.empty()) << name;
    EXPECT_FALSE(r.rows().empty()) << name;
    EXPECT_EQ(Failures(r, r), 0u) << name;
  }
}

TEST(BenchBaselinesTest, ServingBaselineKeepsTheServingChecks) {
  const Report r = CheckedIn("BENCH_serving.json");
  ASSERT_NE(r.Find("achieved_ratio"), nullptr);
  EXPECT_EQ(r.Find("achieved_ratio")->tolerance->rel, 0.0);
  EXPECT_EQ(r.Find("achieved_ratio")->tolerance->abs, 0.10);
  size_t p99_rows = 0;
  for (const Row& row : r.rows()) {
    if (row.metric.starts_with("per_class.") &&
        row.metric.ends_with(".p99_ms")) {
      ++p99_rows;
      ASSERT_TRUE(row.tolerance.has_value()) << row.metric;
      EXPECT_EQ(row.tolerance->rel, 0.5) << row.metric;
      EXPECT_EQ(row.tolerance->abs, 5.0) << row.metric;
    }
  }
  EXPECT_EQ(p99_rows, 4u);
  for (const char* zero : {"errors", "inference.serving_errors"}) {
    ASSERT_NE(r.Find(zero), nullptr) << zero;
    EXPECT_EQ(r.Find(zero)->max, 0.0) << zero;
  }
}

}  // namespace
}  // namespace newsdiff::bench
