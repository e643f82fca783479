#include "bench/report.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>

#include "common/file_io.h"
#include "common/parallel.h"
#include "store/json.h"

#ifndef NEWSDIFF_BUILD_TYPE
#define NEWSDIFF_BUILD_TYPE ""
#endif

namespace newsdiff::bench {
namespace {

using store::Value;

/// Indexed by Better.
const char* const kBetterNames[] = {"higher", "lower", "none"};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Field(const Value& v, const char* key) {
  const Value* f = v.Find(key);
  return f == nullptr ? "" : f->AsString();
}

/// A number field; null (how store/json writes NaN and inf) reads as NaN.
std::optional<double> Number(const Value& v, const char* key) {
  const Value* f = v.Find(key);
  if (f == nullptr || !(f->is_number() || f->is_null())) return std::nullopt;
  return f->is_null() ? std::numeric_limits<double>::quiet_NaN()
                      : f->AsDouble();
}

std::string Bounds(const Row& r) {
  std::string out = r.min ? "min " + Num(*r.min) : "";
  if (r.max) out += (out.empty() ? "max " : ", max ") + Num(*r.max);
  return out;
}

std::string Describe(const Report& r) {
  const Machine& m = r.machine();
  return r.bench() + " mode=" + r.mode() + " seed=" +
         std::to_string(r.seed()) + " host=" + m.host + " threads=" +
         std::to_string(m.hardware_threads) + " isa=" + m.isa + " build=" +
         m.build_type + " " + m.compiler;
}

}  // namespace

bool Row::passes() const {
  // Negated comparisons, so that NaN breaks any bound.
  if (min && !(value >= *min)) return false;
  return !(max && !(value <= *max));
}

Machine Machine::Current() {
  Machine m;
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0) m.host = host;
  m.hardware_threads = static_cast<int64_t>(HardwareThreads());
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const std::pair<const char*, bool> features[] = {
      {"sse4.2", __builtin_cpu_supports("sse4.2")},
      {"avx", __builtin_cpu_supports("avx")},
      {"avx2", __builtin_cpu_supports("avx2")},
      {"fma", __builtin_cpu_supports("fma")},
      {"avx512f", __builtin_cpu_supports("avx512f")},
  };
  for (const auto& [name, supported] : features) {
    if (supported) m.isa += (m.isa.empty() ? "" : " ") + std::string(name);
  }
#endif
  m.build_type = NEWSDIFF_BUILD_TYPE;
#if defined(__clang__)
  m.compiler = "clang " __clang_version__;
#else
  m.compiler = "gcc " __VERSION__;
#endif
  return m;
}

Report::Report(std::string bench, std::string default_out, uint64_t seed,
               int argc, char** argv, bool has_smoke)
    : bench_(std::move(bench)),
      seed_(seed),
      machine_(Machine::Current()),
      out_path_(std::move(default_out)) {
  for (int i = 1; i < argc; ++i) {
    if (has_smoke && std::strcmp(argv[i], "--smoke") == 0) {
      mode_ = "smoke";
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path_ = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s%s [--out <report.json>]\n",
                   bench_.c_str(), has_smoke ? " [--smoke]" : "");
      std::exit(2);
    }
  }
}

const Row* Report::Find(std::string_view metric) const {
  for (const Row& r : rows_) {
    if (r.metric == metric) return &r;
  }
  return nullptr;
}

void Report::Add(std::string metric, double value, std::string unit,
                 Better better, std::optional<Tolerance> tolerance) {
  rows_.push_back(Row{std::move(metric), value, std::move(unit), better,
                      std::nullopt, std::nullopt, tolerance});
}

bool Report::AtLeast(std::string metric, double value, double min,
                     std::string unit, std::optional<Tolerance> tolerance) {
  Add(std::move(metric), value, std::move(unit), Better::kHigher, tolerance);
  rows_.back().min = min;
  return rows_.back().passes();
}

bool Report::AtMost(std::string metric, double value, double max,
                    std::string unit, std::optional<Tolerance> tolerance) {
  Add(std::move(metric), value, std::move(unit), Better::kLower, tolerance);
  rows_.back().max = max;
  return rows_.back().passes();
}

bool Report::Check(std::string metric, bool ok) {
  return AtLeast(std::move(metric), ok ? 1.0 : 0.0, 1.0, "bool");
}

bool Report::gates_ok() const {
  for (const Row& r : rows_) {
    if (!r.passes()) return false;
  }
  return true;
}

store::Value Report::ToValue() const {
  store::Array rows;
  for (const Row& r : rows_) {
    Value row = store::MakeObject(
        {{"metric", r.metric},
         {"value", r.value},
         {"unit", r.unit},
         {"better", kBetterNames[static_cast<int>(r.better)]}});
    if (r.min) row.Set("min", *r.min);
    if (r.max) row.Set("max", *r.max);
    if (r.tolerance) {
      row.Set("tolerance", store::MakeObject({{"rel", r.tolerance->rel},
                                              {"abs", r.tolerance->abs}}));
    }
    rows.push_back(std::move(row));
  }
  Value notes = store::Object{};
  for (const auto& [key, text] : notes_) notes.Set(key, text);
  return store::MakeObject(
      {{"bench", bench_},
       {"mode", mode_},
       {"seed", static_cast<int64_t>(seed_)},
       {"machine",
        store::MakeObject({{"host", machine_.host},
                           {"hardware_threads", machine_.hardware_threads},
                           {"isa", machine_.isa},
                           {"build_type", machine_.build_type},
                           {"compiler", machine_.compiler}})},
       {"gates_ok", gates_ok()},
       {"notes", std::move(notes)},
       {"rows", std::move(rows)}});
}

StatusOr<Report> Report::Parse(std::string_view json) {
  StatusOr<Value> parsed = store::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const Value& doc = *parsed;
  const Value* rows = doc.Find("rows");
  if (!doc.Find("bench") || !doc.Find("mode") || !rows || !rows->is_array()) {
    return Status::ParseError("not a bench report: needs bench, mode, rows");
  }
  Report r;
  r.bench_ = Field(doc, "bench");
  r.mode_ = Field(doc, "mode");
  r.seed_ = static_cast<uint64_t>(Number(doc, "seed").value_or(0));
  if (const Value* m = doc.Find("machine")) {
    r.machine_ = {Field(*m, "host"),
                  static_cast<int64_t>(
                      Number(*m, "hardware_threads").value_or(0)),
                  Field(*m, "isa"), Field(*m, "build_type"),
                  Field(*m, "compiler")};
  }
  if (const Value* notes = doc.Find("notes"); notes && notes->is_object()) {
    for (const auto& [key, text] : notes->object()) {
      r.notes_[key] = text.AsString();
    }
  }
  std::set<std::string> seen;
  for (const Value& v : rows->array()) {
    Row row;
    row.metric = Field(v, "metric");
    const std::optional<double> value = Number(v, "value");
    const std::string better = Field(v, "better");
    int b = 0;
    while (b < 3 && better != kBetterNames[b]) ++b;
    if (row.metric.empty() || !value || b == 3) {
      return Status::ParseError("bad row '" + row.metric +
                                "': needs metric, value and better");
    }
    if (!seen.insert(row.metric).second) {
      return Status::ParseError("duplicate row '" + row.metric + "'");
    }
    row.value = *value;
    row.unit = Field(v, "unit");
    row.better = static_cast<Better>(b);
    row.min = Number(v, "min");
    row.max = Number(v, "max");
    if (const Value* tol = v.Find("tolerance")) {
      row.tolerance = Tolerance{Number(*tol, "rel").value_or(0.0),
                                Number(*tol, "abs").value_or(0.0)};
    }
    r.rows_.push_back(std::move(row));
  }
  return r;
}

int Report::Finish() const {
  std::printf("\n");
  for (const Row& r : rows_) {
    const std::string gate =
        !r.gated() ? ""
                   : (r.passes() ? "  ok (" : "  FAIL (") + Bounds(r) + ")";
    std::printf(gate.empty() ? "%-44s %12s %s%s\n" : "%-44s %12s %-8s%s\n",
                r.metric.c_str(), Num(r.value).c_str(), r.unit.c_str(),
                gate.c_str());
  }
  for (const auto& [key, text] : notes_) {
    std::printf("%-44s %s\n", key.c_str(), text.c_str());
  }
  std::printf("\ngates=%s\n", gates_ok() ? "ok" : "FAIL");
  const Status wrote = DefaultFileIo().WriteFile(
      out_path_, store::ToPrettyJson(ToValue()) + "\n");
  if (!wrote.ok()) {
    std::fprintf(stderr, "FAIL: could not write %s: %s\n", out_path_.c_str(),
                 wrote.message().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path_.c_str());
  return gates_ok() ? 0 : 1;
}

Diff DiffReports(const Report& baseline, const Report& fresh) {
  Diff d;
  auto line = [&d](const std::string& s) { d.text += s + "\n"; };
  auto fail = [&](const std::string& s) {
    ++d.failures;
    line("FAIL  " + s);
  };

  line("baseline: " + Describe(baseline));
  line("fresh:    " + Describe(fresh));
  if (baseline.machine() != fresh.machine()) {
    line("machine differs: timing rows compare two machines");
  }
  if (baseline.bench() != fresh.bench()) {
    d.comparable = false;
    fail("baseline is " + baseline.bench() + ", fresh is " + fresh.bench());
  } else if (baseline.mode() != fresh.mode() ||
             baseline.seed() != fresh.seed()) {
    d.comparable = false;
    line("mode or seed differs: rows are reported, not gated");
  }
  line("");

  // A failed fresh self-gate fails the diff, whatever the baseline.
  size_t self_gates = 0;
  for (const Row& r : fresh.rows()) {
    self_gates += r.gated();
    if (!r.passes()) {
      fail("fresh self-gate " + r.metric + " = " + Num(r.value) + " " +
           r.unit + " (" + Bounds(r) + ")");
    }
  }
  if (fresh.gates_ok()) {
    line("  ok  fresh self-gates hold (" + std::to_string(self_gates) + ")");
  }

  for (const Row& base : baseline.rows()) {
    const bool gated = d.comparable && (base.tolerance || base.gated());
    const Row* got = fresh.Find(base.metric);
    if (got == nullptr) {
      gated ? fail(base.metric + " missing from fresh")
            : line("      " + base.metric + " missing from fresh");
      continue;
    }
    std::string text = base.metric + " " + Num(base.value) + " -> " +
                       Num(got->value) + " " + base.unit;
    if (!gated || !base.tolerance) {
      if (base.value != 0.0 && got->value != base.value) {
        char change[32];
        std::snprintf(change, sizeof(change), " (%+.1f%%)",
                      100.0 * (got->value - base.value) / std::abs(base.value));
        text += change;
      }
      line("      " + text);
      continue;
    }
    const double slack =
        base.tolerance->rel * std::abs(base.value) + base.tolerance->abs;
    // Written so that a NaN fresh value regresses.
    bool ok = true;
    std::string band;
    if (base.better != Better::kLower) {
      ok = got->value >= base.value - slack;
      band = "floor " + Num(base.value - slack);
    }
    if (base.better != Better::kHigher) {
      ok = ok && got->value <= base.value + slack;
      band += (band.empty() ? "budget " : ", budget ") +
              Num(base.value + slack);
    }
    text += " (" + band + ")";
    ok ? line("  ok  " + text) : fail(text);
  }
  for (const Row& r : fresh.rows()) {
    if (baseline.Find(r.metric) == nullptr) {
      line("      " + r.metric + " " + Num(r.value) + " " + r.unit +
           " (not in baseline)");
    }
  }
  for (const auto& [key, text] : fresh.notes()) {
    const auto base = baseline.notes().find(key);
    line("      " + key + ": " +
         (base == baseline.notes().end() ? "(none)" : base->second) + " -> " +
         text);
  }

  line("");
  line(d.failures > 0 ? "RESULT: FAIL (" + std::to_string(d.failures) + ")"
       : d.comparable ? "RESULT: PASS"
                      : "RESULT: report-only (mode or seed differs); fresh "
                        "self-gates hold");
  return d;
}

}  // namespace newsdiff::bench
