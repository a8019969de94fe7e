// bench_regress: the perf-regression observatory's gate. Compares BENCH_*.json
// artifacts produced by the bench suite against committed baselines in
// bench/baselines/ and fails (exit 1) when a gated metric regresses beyond its
// tolerance band.
//
// Metric policy — the central lesson of cross-machine CI:
//   * Simulated results (committed/submitted/failed counts, sim-time latency
//     percentiles, sim-time throughput) are deterministic, so they gate HARD:
//     counts must match exactly, sim-time latencies/throughputs within 2%.
//   * Host wall-clock metrics (wall_ms, ns/op, events/sec, speedup) vary by
//     machine and load, so they are INFO-ONLY: printed for humans, never
//     gating.
//   * allocs_per_event sits in between — deterministic in steady state but
//     sensitive to allocator warm-up, so it gets a loose 30% band.
//   * Unknown numeric fields default to info-only; a field must be
//     classified here before it can break CI.
//   * A gated (exact or banded) baseline field that the current run no
//     longer emits is a regression: a gate cannot pass by going silent.
//     Missing info-only fields are noted, never gating.
//
// Usage:
//   bench_regress --baselines DIR [--update] [--report FILE] FILES...
//   bench_regress --self-test
//
// Exit codes: 0 ok, 1 regression (or self-test failure), 2 usage/IO error.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json_subset.h"

namespace {

namespace json = orderless::obs::json;

enum class MetricClass {
  kExact,      // deterministic simulated count: any mismatch fails
  kBand2,      // simulated time/throughput: 2% relative band
  kBand30,     // allocator behaviour: 30% relative band
  kInfoOnly,   // host wall-clock: reported, never gates
};

enum class Direction {
  kLowerIsBetter,   // latency, failure fraction, allocations
  kHigherIsBetter,  // throughput
  kAnyChangeIsBad,  // exact counts
};

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// Classifies a numeric field by key. The key list mirrors what the bench
/// suite actually emits (obs/json.h writers in bench/*.cpp).
MetricClass Classify(const std::string& key, Direction* direction) {
  *direction = Direction::kLowerIsBetter;
  // Host wall-clock and machine-shape fields: never gate.
  if (key == "wall_ms" || key == "wall_s" || key == "iterations" ||
      key == "speedup" || key == "threads_used" || key == "host_threads" ||
      Contains(key, "ns_per") || Contains(key, "_ns") ||
      Contains(key, "per_second") || Contains(key, "per_sec") ||
      Contains(key, "mb_per") || Contains(key, "host_")) {
    return MetricClass::kInfoOnly;
  }
  // Deterministic simulated counts.
  if (key == "events_processed" || key == "committed" || key == "submitted" ||
      key == "failed" || key == "rejected" || key == "count" ||
      key == "sum_us" || key == "reads" || key == "writes" ||
      key == "checkpoints" || key == "value") {
    *direction = Direction::kAnyChangeIsBad;
    return MetricClass::kExact;
  }
  // Catch-up sweep counts (fig_catchup / fig_byzantine_catchup): pulled
  // bodies, installed/attested/refused checkpoints, pruned records — all
  // functions of simulated event order, so any drift is a real change.
  if (key == "tx_count" || key == "honest_pushback" ||
      Contains(key, "sync_txs") || Contains(key, "ckpt_") ||
      Contains(key, "_records")) {
    *direction = Direction::kAnyChangeIsBad;
    return MetricClass::kExact;
  }
  // Allocator behaviour: loose band, lower is better.
  if (Contains(key, "allocs_per")) return MetricClass::kBand30;
  // Simulated-time latency and throughput.
  if (EndsWith(key, "_ms") || Contains(key, "fraction")) {
    return MetricClass::kBand2;
  }
  if (EndsWith(key, "_tps")) {
    *direction = Direction::kHigherIsBetter;
    return MetricClass::kBand2;
  }
  return MetricClass::kInfoOnly;
}

double BandOf(MetricClass cls) {
  switch (cls) {
    case MetricClass::kExact: return 0.0;
    case MetricClass::kBand2: return 0.02;
    case MetricClass::kBand30: return 0.30;
    case MetricClass::kInfoOnly: return 0.0;
  }
  return 0.0;
}

/// One bench document flattened for comparison: point identity -> numeric
/// fields. Point identity is "name" plus every other string-typed field, so
/// e.g. {"name": "latency", "org": "org2"} and the org3 row stay distinct;
/// rows repeating an identity are numbered in document order ("#1", ...).
struct FlatBench {
  std::string bench;
  // point key -> (metric key -> value). std::map for deterministic order.
  std::map<std::string, std::map<std::string, double>> points;
};

/// Numeric fields that name a sweep row (its thread count, size, load or
/// cluster shape). They join the point key, so a sweep that drops or adds a
/// row names that row instead of shifting every later one.
bool IsSweepField(const std::string& k) {
  return k == "threads" || k == "tx_count" || k == "rate" || k == "orgs" ||
         k == "q";
}

/// A point's identity: its name, its string fields and its sweep fields.
std::string PointKey(const json::JsonValue& point) {
  std::string key;
  if (const json::JsonValue* name = point.Find("name")) {
    if (name->type == json::JsonValue::Type::kString) key = name->string;
  }
  for (const auto& [k, v] : point.object) {
    if (k == "name") continue;
    if (v.type == json::JsonValue::Type::kString) {
      key += "|" + k + "=" + v.string;
    } else if (v.type == json::JsonValue::Type::kNumber && IsSweepField(k)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      key += "|" + k + "=" + buf;
    }
  }
  return key.empty() ? "<unnamed>" : key;
}

bool Flatten(const json::JsonValue& doc, const std::string& label,
             FlatBench& out) {
  const json::JsonValue* bench = doc.Find("bench");
  if (bench == nullptr || bench->type != json::JsonValue::Type::kString) {
    std::fprintf(stderr, "%s: no \"bench\" field\n", label.c_str());
    return false;
  }
  out.bench = bench->string;
  // Top-level scalars live under a reserved point key so they participate in
  // comparison exactly like point fields ("meta" and "points" excluded).
  for (const auto& [k, v] : doc.object) {
    if (v.type == json::JsonValue::Type::kNumber) {
      out.points["<scalars>"][k] = v.number;
    }
  }
  const json::JsonValue* points = doc.Find("points");
  if (points == nullptr || points->type != json::JsonValue::Type::kArray) {
    return true;  // scalar-only documents are fine
  }
  // Rows that still share one identity (true duplicates) are keyed "#n" for
  // the n-th repeat, so each is compared with the same row of the baseline
  // instead of overwriting it.
  std::map<std::string, int> repeats;
  for (const json::JsonValue& point : points->array) {
    if (point.type != json::JsonValue::Type::kObject) continue;
    std::string key = PointKey(point);
    if (const int n = repeats[key]++; n > 0) key += "#" + std::to_string(n);
    auto& fields = out.points[key];
    for (const auto& [k, v] : point.object) {
      if (v.type == json::JsonValue::Type::kNumber) fields[k] = v.number;
    }
  }
  return true;
}

bool LoadFlat(const std::string& path, FlatBench& out) {
  std::string text;
  if (!json::ReadFile(path, text)) {
    std::fprintf(stderr, "bench_regress: cannot read %s\n", path.c_str());
    return false;
  }
  json::JsonValue doc;
  if (!json::ParseDocument(text, path, doc)) return false;
  return Flatten(doc, path, out);
}

struct Verdict {
  int regressions = 0;
  int improvements = 0;
  int info = 0;
  int missing = 0;         // baseline fields absent from the current run
  int missing_gated = 0;   // ... of which gated (counted as regressions)
  std::vector<std::string> lines;  // human log, also mirrored to --report
};

void Note(Verdict& v, const char* tag, const std::string& what) {
  v.lines.push_back(std::string("[") + tag + "] " + what);
}

/// A baseline field the current run did not emit: a regression when the
/// field is gated, a note when it is info-only.
void NoteMissing(Verdict& v, const std::string& what, MetricClass cls) {
  ++v.missing;
  if (cls == MetricClass::kInfoOnly) {
    Note(v, "MISSING", what + " (info-only)");
    return;
  }
  ++v.missing_gated;
  ++v.regressions;
  Note(v, "FAIL", what + ": gated field absent from current run");
}

/// Compares one current bench document against its baseline.
void Compare(const FlatBench& base, const FlatBench& cur, Verdict& v) {
  static const std::map<std::string, double> kNoFields;
  for (const auto& [point, base_fields] : base.points) {
    const auto cur_it = cur.points.find(point);
    const auto& cur_fields =
        cur_it == cur.points.end() ? kNoFields : cur_it->second;
    for (const auto& [key, base_value] : base_fields) {
      Direction direction;
      const MetricClass cls = Classify(key, &direction);
      const auto field_it = cur_fields.find(key);
      if (field_it == cur_fields.end()) {
        NoteMissing(v, base.bench + " / " + point + " / " + key, cls);
        continue;
      }
      const double cur_value = field_it->second;
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s / %s / %s: %.6g -> %.6g",
                    base.bench.c_str(), point.c_str(), key.c_str(), base_value,
                    cur_value);
      if (cls == MetricClass::kInfoOnly) {
        ++v.info;
        continue;  // host wall-clock noise: not even worth a log line
      }
      if (cls == MetricClass::kExact) {
        if (cur_value != base_value) {
          ++v.regressions;
          Note(v, "FAIL", std::string(buf) + " (exact metric changed)");
        }
        continue;
      }
      const double band = BandOf(cls);
      const double scale = std::max(std::fabs(base_value), 1e-9);
      const double delta = (cur_value - base_value) / scale;
      const bool worse = direction == Direction::kHigherIsBetter
                             ? delta < -band
                             : delta > band;
      const bool better = direction == Direction::kHigherIsBetter
                              ? delta > band
                              : delta < -band;
      if (worse) {
        ++v.regressions;
        std::snprintf(buf + std::strlen(buf), sizeof buf - std::strlen(buf),
                      " (%+.1f%%, band %.0f%%)", delta * 100.0, band * 100.0);
        Note(v, "FAIL", buf);
      } else if (better) {
        ++v.improvements;
        std::snprintf(buf + std::strlen(buf), sizeof buf - std::strlen(buf),
                      " (%+.1f%% — improvement; refresh with --update)",
                      delta * 100.0);
        Note(v, "BETTER", buf);
      }
    }
  }
}

std::string Basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::string text;
  if (!json::ReadFile(from, text)) return false;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out << text;
  return out.good();
}

bool WriteReport(const std::string& path, const Verdict& v, bool ok) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << "{\n  \"bench_regress\": \"v1\",\n";
  out << "  \"ok\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"regressions\": " << v.regressions << ",\n";
  out << "  \"improvements\": " << v.improvements << ",\n";
  out << "  \"missing\": " << v.missing << ",\n";
  out << "  \"missing_gated\": " << v.missing_gated << ",\n";
  out << "  \"lines\": [\n";
  for (std::size_t i = 0; i < v.lines.size(); ++i) {
    std::string escaped;
    for (const char c : v.lines[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out << "    \"" << escaped << (i + 1 < v.lines.size() ? "\",\n" : "\"\n");
  }
  out << "  ]\n}\n";
  return out.good();
}

/// Self-test: builds a synthetic baseline/current pair in memory with (a) a
/// 2x p99_ms regression and (b) an exact-count mismatch, and checks both are
/// caught while an info-only wall_ms doubling is not; then checks that gated
/// fields missing from a run fail while missing info-only fields do not.
/// Guards the gate itself.
int SelfTest() {
  const char* base_text = R"({
  "bench": "selftest",
  "speedup": 3.0,
  "points": [
    {"name": "latency", "kind": "histogram", "count": 1000, "p50_ms": 10.0, "p99_ms": 40.0},
    {"name": "totals", "committed": 900, "failed": 100, "wall_ms": 1234.0},
    {"name": "rate", "commit_tps": 500.0}
  ]
})";
  const char* cur_text = R"({
  "bench": "selftest",
  "speedup": 1.0,
  "points": [
    {"name": "latency", "kind": "histogram", "count": 1000, "p50_ms": 10.1, "p99_ms": 80.0},
    {"name": "totals", "committed": 899, "failed": 100, "wall_ms": 2468.0},
    {"name": "rate", "commit_tps": 496.0}
  ]
})";
  json::JsonValue base_doc;
  json::JsonValue cur_doc;
  if (!json::ParseDocument(base_text, "selftest-baseline", base_doc) ||
      !json::ParseDocument(cur_text, "selftest-current", cur_doc)) {
    return 1;
  }
  FlatBench base;
  FlatBench cur;
  if (!Flatten(base_doc, "selftest-baseline", base) ||
      !Flatten(cur_doc, "selftest-current", cur)) {
    return 1;
  }
  Verdict v;
  Compare(base, cur, v);
  for (const std::string& line : v.lines) std::printf("%s\n", line.c_str());
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      ++failures;
      std::printf("self-test FAILED: %s\n", what);
    }
  };
  auto logged = [&](const char* tag, const char* needle) {
    for (const std::string& line : v.lines) {
      if (line.rfind(std::string("[") + tag, 0) == 0 &&
          line.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  // Exactly two regressions: the 2x p99_ms and the exact committed-count
  // mismatch. p50 moved 1% (inside band), commit_tps moved 0.8% (inside
  // band), wall_ms doubled and speedup collapsed (info-only: host metrics).
  expect(v.regressions == 2, "expected exactly 2 regressions");
  expect(logged("FAIL", "p99_ms"), "2x p99_ms regression not caught");
  expect(logged("FAIL", "committed"), "exact count mismatch not caught");
  expect(!logged("FAIL", "wall_ms"), "info-only wall_ms must not gate");
  expect(!logged("FAIL", "speedup"), "info-only speedup must not gate");
  expect(!logged("FAIL", "p50_ms"), "in-band p50_ms drift must not gate");
  expect(!logged("FAIL", "commit_tps"), "in-band tps drift must not gate");
  expect(v.missing == 0, "no fields should be missing");

  // A gate cannot pass by going silent: a current run that drops a gated
  // field (exact count, banded latency) or a whole point carrying one fails;
  // a dropped info-only field is only noted.
  const char* dropped_text = R"({
  "bench": "selftest",
  "points": [
    {"name": "latency", "kind": "histogram", "count": 1000, "p50_ms": 10.0},
    {"name": "totals", "failed": 100}
  ]
})";
  json::JsonValue dropped_doc;
  FlatBench dropped;
  if (!json::ParseDocument(dropped_text, "selftest-dropped", dropped_doc) ||
      !Flatten(dropped_doc, "selftest-dropped", dropped)) {
    return 1;
  }
  Verdict d;
  Compare(base, dropped, d);
  for (const std::string& line : d.lines) std::printf("%s\n", line.c_str());
  const auto logged_in = [](const Verdict& verdict, const char* tag,
                            const char* needle) {
    for (const std::string& line : verdict.lines) {
      if (line.rfind(std::string("[") + tag, 0) == 0 &&
          line.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  // Missing: speedup (info), p99_ms (band), committed (exact), wall_ms
  // (info) and the whole "rate" point's commit_tps (band).
  expect(d.missing == 5, "expected 5 missing baseline fields");
  expect(d.missing_gated == 3, "expected 3 missing gated fields");
  expect(d.regressions == 3, "missing gated fields must be regressions");
  expect(logged_in(d, "FAIL", "histogram / p99_ms"),
         "missing banded p99_ms not caught");
  expect(logged_in(d, "FAIL", "totals / committed"),
         "missing exact committed not caught");
  expect(logged_in(d, "FAIL", "rate / commit_tps"),
         "missing point's banded commit_tps not caught");
  expect(logged_in(d, "MISSING", "totals / wall_ms"),
         "missing info-only wall_ms must be noted");
  expect(!logged_in(d, "FAIL", "wall_ms"), "missing wall_ms must not gate");
  expect(!logged_in(d, "FAIL", "speedup"), "missing speedup must not gate");

  // Rows that share a name and differ only in a numeric parameter (a
  // thread-count sweep) are each compared, not collapsed into the last one.
  const char* sweep_base = R"({"bench": "sweep", "points": [
    {"name": "run", "threads": 1, "committed": 600},
    {"name": "run", "threads": 2, "committed": 600}]})";
  const char* sweep_cur = R"({"bench": "sweep", "points": [
    {"name": "run", "threads": 1, "committed": 599},
    {"name": "run", "threads": 2, "committed": 600}]})";
  json::JsonValue sweep_base_doc;
  json::JsonValue sweep_cur_doc;
  FlatBench sweep_b;
  FlatBench sweep_c;
  if (!json::ParseDocument(sweep_base, "selftest-sweep-base", sweep_base_doc) ||
      !json::ParseDocument(sweep_cur, "selftest-sweep-cur", sweep_cur_doc) ||
      !Flatten(sweep_base_doc, "selftest-sweep-base", sweep_b) ||
      !Flatten(sweep_cur_doc, "selftest-sweep-cur", sweep_c)) {
    return 1;
  }
  Verdict sweep;
  Compare(sweep_b, sweep_c, sweep);
  for (const std::string& line : sweep.lines) std::printf("%s\n", line.c_str());
  expect(sweep.regressions == 1 &&
             logged_in(sweep, "FAIL", "run|threads=1 / committed"),
         "a changed count in a sweep row must be caught and named");

  // Dropping a middle sweep row names that row as missing; the rows after it
  // still compare with their own baselines (the threads=8 count change is
  // caught, the unchanged threads=4 row is not flagged). True duplicates
  // keep their "#n" numbering.
  const char* gap_base = R"({"bench": "sweep", "points": [
    {"name": "run", "threads": 1, "committed": 600},
    {"name": "run", "threads": 2, "committed": 601},
    {"name": "run", "threads": 4, "committed": 602},
    {"name": "run", "threads": 8, "committed": 603},
    {"name": "dup", "committed": 7},
    {"name": "dup", "committed": 8}]})";
  const char* gap_cur = R"({"bench": "sweep", "points": [
    {"name": "run", "threads": 1, "committed": 600},
    {"name": "run", "threads": 4, "committed": 602},
    {"name": "run", "threads": 8, "committed": 604},
    {"name": "dup", "committed": 7},
    {"name": "dup", "committed": 9}]})";
  json::JsonValue gap_base_doc;
  json::JsonValue gap_cur_doc;
  FlatBench gap_b;
  FlatBench gap_c;
  if (!json::ParseDocument(gap_base, "selftest-gap-base", gap_base_doc) ||
      !json::ParseDocument(gap_cur, "selftest-gap-cur", gap_cur_doc) ||
      !Flatten(gap_base_doc, "selftest-gap-base", gap_b) ||
      !Flatten(gap_cur_doc, "selftest-gap-cur", gap_c)) {
    return 1;
  }
  Verdict gap;
  Compare(gap_b, gap_c, gap);
  for (const std::string& line : gap.lines) std::printf("%s\n", line.c_str());
  expect(gap.missing_gated == 1 &&
             logged_in(gap, "FAIL", "run|threads=2 / committed: gated field"),
         "a dropped sweep row must be named as missing");
  expect(logged_in(gap, "FAIL", "run|threads=8 / committed: 603 -> 604"),
         "a later sweep row must compare with its own baseline");
  expect(!logged_in(gap, "FAIL", "run|threads=4"),
         "an unchanged later sweep row must not be flagged");
  expect(logged_in(gap, "FAIL", "dup#1 / committed: 8 -> 9"),
         "true duplicates keep their #n numbering");
  expect(gap.regressions == 3, "expected exactly 3 sweep regressions");
  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baselines DIR [--update] [--report FILE] "
               "BENCH_*.json...\n"
               "       %s --self-test\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baselines_dir;
  std::string report_path;
  bool update = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (arg == "--update") {
      update = true;
    } else if (arg == "--baselines") {
      if (i + 1 >= argc) { Usage(argv[0]); return 2; }
      baselines_dir = argv[++i];
    } else if (arg == "--report") {
      if (i + 1 >= argc) { Usage(argv[0]); return 2; }
      report_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_regress: unknown option %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (baselines_dir.empty() || files.empty()) {
    Usage(argv[0]);
    return 2;
  }

  Verdict verdict;
  int io_errors = 0;
  for (const std::string& file : files) {
    const std::string baseline = baselines_dir + "/" + Basename(file);
    if (update) {
      if (!CopyFile(file, baseline)) {
        std::fprintf(stderr, "bench_regress: cannot update %s\n",
                     baseline.c_str());
        ++io_errors;
      } else {
        std::printf("updated %s\n", baseline.c_str());
      }
      continue;
    }
    FlatBench base;
    FlatBench cur;
    std::string base_text;
    if (!json::ReadFile(baseline, base_text)) {
      std::printf("[NEW] %s: no baseline at %s (run with --update to seed)\n",
                  file.c_str(), baseline.c_str());
      continue;
    }
    json::JsonValue base_doc;
    if (!json::ParseDocument(base_text, baseline, base_doc) ||
        !Flatten(base_doc, baseline, base) || !LoadFlat(file, cur)) {
      ++io_errors;
      continue;
    }
    if (base.bench != cur.bench) {
      std::fprintf(stderr, "bench_regress: %s is bench \"%s\" but baseline "
                           "is \"%s\"\n",
                   file.c_str(), cur.bench.c_str(), base.bench.c_str());
      ++io_errors;
      continue;
    }
    Compare(base, cur, verdict);
  }

  for (const std::string& line : verdict.lines) {
    std::printf("%s\n", line.c_str());
  }
  const bool ok = verdict.regressions == 0 && io_errors == 0;
  std::printf("bench_regress: %d regression(s), %d improvement(s), "
              "%d missing (%d gated), %d file error(s) -> %s\n",
              verdict.regressions, verdict.improvements, verdict.missing,
              verdict.missing_gated, io_errors, ok ? "OK" : "FAIL");
  if (!report_path.empty() && !WriteReport(report_path, verdict, ok)) {
    std::fprintf(stderr, "bench_regress: cannot write %s\n",
                 report_path.c_str());
    return 2;
  }
  if (io_errors > 0) return 2;
  return ok ? 0 : 1;
}
