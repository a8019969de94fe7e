// One simulation run of one benchmark workload, printed as one JSON line.
//
//   perfbench --workload <name> --seed <n> [--trace 0|1]
//   perfbench --selftest
//
// The run drives the system only through harness::RunExperiment. Untraced
// runs measure what a user waits for (host time, CPU, memory, set-up) and
// the paper's simulated metrics. A traced run additionally attaches the
// obs::Tracer and obs::Profiler and records the interposed layer spans
// (interpose.cpp), and reports per-layer figures. run.py repeats runs,
// takes medians and applies the gates that compare runs.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "harness/experiment.h"
#include "interpose.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "spans.h"

namespace perfbench {
namespace {

using orderless::harness::ExperimentConfig;
using orderless::harness::ExperimentResult;
using orderless::harness::LatencyRecorder;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  ExperimentConfig config;
  /// Organizations 0..byzantine_orgs-1 turn Byzantine at t=0; clients must
  /// then retry (client_retries > 0).
  std::uint32_t byzantine_orgs = 0;
  bool checkpoints = false;  // seal/install/prune counters must be > 0
};

/// The paper's default point (Table 2): 16 orgs, EP{4 of 16}, synthetic
/// G-Counter with one object and one operation, R50M50 at 3000 tps.
ExperimentConfig Fanout16() {
  ExperimentConfig c;
  c.num_orgs = 16;
  c.policy = {4, 16};
  c.workload.arrival_tps = 3000;
  c.workload.duration = orderless::sim::Sec(4);
  c.workload.modify_fraction = 0.5;
  c.workload.num_clients = 1000;
  c.workload.obj_count = 1;
  c.workload.ops_per_obj = 1;
  c.workload.crdt_type = "g-counter";
  c.threads = 2;
  return c;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> all;

  Workload fanout{"fanout16", Fanout16()};
  all.push_back(fanout);

  Workload byz{"reads8_byz", ExperimentConfig{}};
  ExperimentConfig& b = byz.config;
  b.num_orgs = 8;
  b.policy = {2, 8};
  b.workload.arrival_tps = 6000;
  b.workload.duration = orderless::sim::Sec(16);
  b.workload.modify_fraction = 0.1;
  b.workload.num_clients = 1200;
  b.byzantine_phases = {{0, 1}};
  b.byzantine_org_behavior.ignore_proposal_prob = 0.5;
  b.byzantine_org_behavior.wrong_endorse_prob = 0.5;
  b.client_avoidance = true;
  b.client_max_attempts = 3;
  b.threads = 1;
  byz.byzantine_orgs = 1;
  all.push_back(byz);

  Workload soak{"soak_ckpt16", Fanout16()};
  soak.config.workload.duration = 2 * fanout.config.workload.duration;
  soak.config.checkpoint_interval = orderless::sim::Sec(1);
  soak.config.checkpoint_attest = false;
  soak.checkpoints = true;
  all.push_back(soak);
  return all;
}

// ---------------------------------------------------------------- samples

/// The recorder's samples in ascending order, in integer µs. LatencyRecorder
/// keeps them private; its PercentileMs(p) returns
/// sorted[llround(p/100 * (n-1))], so asking for p = 100 i / (n-1) yields
/// sample i exactly.
std::vector<std::uint64_t> SortedUs(const LatencyRecorder& recorder) {
  const std::size_t n = recorder.count();
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double p =
        n == 1 ? 0.0
               : 100.0 * static_cast<double>(i) / static_cast<double>(n - 1);
    out.push_back(
        static_cast<std::uint64_t>(std::llround(recorder.PercentileMs(p) * 1e3)));
  }
  return out;
}

// ------------------------------------------------------------------ output

/// Flat JSON object writer (numbers, strings, nested objects by name).
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, std::uint64_t v) {
    Raw(key, std::to_string(v));
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Obj(const std::string& key, const Json& inner) { Raw(key, inner.str()); }
  void Ints(const std::string& key, const std::vector<std::uint64_t>& v) {
    std::string list;
    for (std::uint64_t x : v) {
      if (!list.empty()) list += ",";
      list += std::to_string(x);
    }
    Raw(key, "[" + list + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

const char* KernelName(orderless::crypto::batch::Kernel k) {
  using orderless::crypto::batch::Kernel;
  switch (k) {
    case Kernel::kShaNi:
      return "sha_ni";
    case Kernel::kWide8:
    case Kernel::kWide4:
      return "wide";
    default:
      return "scalar";
  }
}

/// num / den, or 0 when nothing was counted.
double Frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

unsigned HardwareThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

// -------------------------------------------------------------------- run

int RunOne(const Workload& w, std::uint64_t seed, bool trace,
           std::uint64_t main_entry_ns) {
  const unsigned hw = HardwareThreads();
  if (hw < w.config.threads) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u engine threads, host has %u\n",
                 w.name, w.config.threads, hw);
    return 3;
  }
  ExperimentConfig config = w.config;
  config.seed = seed;

  orderless::obs::TracerConfig tracer_config;
  tracer_config.max_events = 64u << 20;
  orderless::obs::Tracer tracer(tracer_config);
  orderless::obs::Profiler profiler;
  if (trace) {
    config.tracer = &tracer;
    config.profiler = &profiler;
  }
  SetTraceRun(trace);
  const ExperimentResult r = orderless::harness::RunExperiment(config);
  const RunRecord& run = Run();

  const auto& m = r.metrics;
  const std::uint64_t committed = m.committed_modify + m.committed_read;
  const std::vector<std::uint64_t> modify = SortedUs(m.modify_latency);
  const std::vector<std::uint64_t> read = SortedUs(m.read_latency);
  const double per_tx = Frac(1, committed);

  // Gates a single run can decide; run.py adds the cross-run ones.
  std::vector<std::string> failures;
  if (m.submitted != committed + m.failed) {
    failures.push_back("submitted != committed + failed");
  }
  if (run.calls != 1) failures.push_back("RunUntil not called exactly once");
  if (w.checkpoints) {
    const auto& rb = m.robustness;
    if (rb.ckpt_sealed == 0) failures.push_back("ckpt_sealed == 0");
    if (rb.ckpt_installed == 0) failures.push_back("ckpt_installed == 0");
    if (rb.pruned_records == 0) failures.push_back("pruned_records == 0");
  }
  if (w.byzantine_orgs > 0 && m.robustness.client_retries == 0) {
    failures.push_back("client_retries == 0");
  }

  Json host;
  host.Num("host_us_per_tx", static_cast<double>(run.wall_ns) / 1e3 * per_tx);
  host.Num("cpu_us_per_tx", static_cast<double>(run.cpu_ns) / 1e3 * per_tx);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  host.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  host.Num("setup_s", static_cast<double>(run.entry_ns - main_entry_ns) / 1e9);

  Json counts;
  counts.Int("submitted", m.submitted);
  counts.Int("committed_modify", m.committed_modify);
  counts.Int("committed_read", m.committed_read);
  counts.Int("failed", m.failed);
  counts.Int("rejected", m.rejected);
  counts.Int("events_processed", r.events_processed);
  counts.Int("commit_window_us", m.last_commit - m.first_commit);
  counts.Int("client_retries", m.robustness.client_retries);
  counts.Int("ckpt_sealed", m.robustness.ckpt_sealed);
  counts.Int("ckpt_installed", m.robustness.ckpt_installed);
  counts.Int("pruned_records", m.robustness.pruned_records);
  counts.Int("sync_txs_sent", m.robustness.sync_txs_sent);

  Json record;
  record.Int("hw_threads", hw);
  record.Int("engine_threads", w.config.threads);
  record.Str("crypto_kernel",
             KernelName(orderless::crypto::batch::ActiveKernel(8)));
  record.Str("git", orderless::obs::JsonBench::GitDescribe());
  record.Int("generator_lateness_ms", 0);  // open loop, events at due time

  Json out;
  out.Str("workload", w.name);
  out.Int("seed", seed);
  out.Bool("trace", trace);
  out.Obj("record", record);
  out.Obj("counts", counts);
  out.Obj("host", host);
  out.Ints("modify_us", modify);
  out.Ints("read_us", read);

  if (trace) {
    const Shard s = Collect();
    const auto ns = [&](std::initializer_list<Fn> fns) {
      std::uint64_t sum = 0;
      for (Fn f : fns) sum += s.at(f).self_ns;
      return static_cast<double>(sum) * per_tx;
    };
    const auto calls = [&](Fn f) { return s.at(f).calls; };
    const std::uint64_t workers = w.config.threads - 1;
    const std::uint64_t run_ns = s.at(Fn::kRunUntil).total_ns;
    const std::uint64_t engine_ns =
        run_ns + profiler.epoch_wall_ns() * workers;
    const std::uint64_t layer_self = s.SelfNs() - s.at(Fn::kRunUntil).self_ns;
    const double other_ns = static_cast<double>(engine_ns) -
                            static_cast<double>(layer_self);

    const auto per = [&](std::uint64_t count) { return Frac(count, committed); };
    const auto& pipe = profiler.pipeline();

    Json layer;
    layer.Num("sim.events_per_tx", per(r.events_processed));
    layer.Num("sim.msgs_per_tx", per(calls(Fn::kSend)));
    layer.Num("sim.bytes_per_tx", per(s.count(Counter::kSendBytes)));
    layer.Num("sim.send_ns_per_tx", ns({Fn::kSend}));
    layer.Num("sim.other_ns_per_tx", other_ns * per_tx);
    layer.Num("sim.utilization", profiler.Utilization());
    layer.Num("sim.barrier_wait_frac",
              Frac(profiler.barrier_wait_ns(), profiler.epoch_wall_ns()));
    layer.Num("sim.serial_frac", 1.0 - Frac(profiler.epoch_wall_ns(), run_ns));
    layer.Num("crypto.verify_sigs_per_tx", per(s.count(Counter::kVerifySigs)));
    layer.Num("crypto.verify_ns_per_tx", ns({Fn::kVerify, Fn::kVerifyBatch}));
    layer.Num("crypto.sign_ns_per_tx", ns({Fn::kSign}));
    layer.Num("crypto.hash_ns_per_tx", ns({Fn::kHash, Fn::kHashBatch}));
    layer.Num("codec.encode_ns_per_tx",
              ns({Fn::kTxEncode, Fn::kTxEncodedBody, Fn::kCkptEncode}));
    layer.Num("codec.decode_ns_per_tx", ns({Fn::kTxDecode, Fn::kCkptDecode}));
    layer.Num("crdt.apply_ns_per_tx", ns({Fn::kApply}));
    layer.Num("crdt.dup_apply_frac",
              Frac(s.count(Counter::kApplyDup), calls(Fn::kApply)));
    layer.Num("crdt.read_ns_per_tx", ns({Fn::kCrdtRead}));
    layer.Num("crdt.state_ns_per_tx",
              ns({Fn::kEncodeState, Fn::kDecodeState, Fn::kMergeState}));
    layer.Num("ledger.commit_ns_per_tx", ns({Fn::kLedgerCommit}));
    layer.Num("ledger.body_put_ns_per_tx", ns({Fn::kBodyPut, Fn::kBodyPutRef}));
    layer.Num("ledger.read_ns_per_tx", ns({Fn::kLedgerRead}));
    layer.Num("ledger.prune_ns_per_tx", ns({Fn::kPrune}));
    layer.Num("core.validate_ns_per_tx",
              ns({Fn::kValidate, Fn::kValidateBatch}));
    layer.Num("core.memo_hit_frac",
              Frac(s.count(Counter::kMemoHits), calls(Fn::kMemoLookup)));
    layer.Num("core.pipeline_steal_frac", Frac(pipe.stolen, pipe.published));
    layer.Num("core.client_submit_ns_per_tx",
              ns({Fn::kSubmitModify, Fn::kSubmitRead}));
    layer.Num("core.retries_per_tx", per(m.robustness.client_retries));
    layer.Num("core.sync_txs_per_tx", per(m.robustness.sync_txs_sent));
    layer.Num("core.pruned_per_tx", per(m.robustness.pruned_records));
    layer.Num("core.ckpt_ns_per_tx", ns({Fn::kCkptSeal, Fn::kCkptVerify}));

    // Critical-path legs of every finished transaction (simulated time).
    const orderless::obs::TimelineAnalysis analysis = orderless::obs::Analyze(
        orderless::obs::BuildTimelines(tracer.events()), 0);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(orderless::obs::Segment::kSegmentCount);
         ++i) {
      const auto seg = static_cast<orderless::obs::Segment>(i);
      const std::string name =
          "timeline." + std::string(orderless::obs::SegmentName(seg));
      double p50 = 0, p99 = 0;
      for (const auto& phase : analysis.phases) {
        if (phase.segment == seg) {
          p50 = phase.dist.p50_ms;
          p99 = phase.dist.p99_ms;
        }
      }
      layer.Num(name + ".p50_ms", p50);
      layer.Num(name + ".p99_ms", p99);
    }

    // Tiling: per thread, self times add up to the outermost spans, and the
    // outermost spans fit inside the engine's thread time.
    Json tiling;
    tiling.Int("engine_ns", engine_ns);
    tiling.Int("self_ns", s.SelfNs());
    tiling.Int("top_ns", s.top_ns);
    tiling.Num("other_ns", other_ns);
    if (s.SelfNs() != s.top_ns) failures.push_back("self times != top spans");
    if (other_ns < 0) failures.push_back("spans exceed engine thread time");

    // SEC delivery: (honest organization, committed modify) pairs the
    // organization neither applied nor adopted from an installed checkpoint
    // by the end of the run. Organizations are nodes 1..n; the first
    // `byzantine_orgs` are Byzantine. Reported, not gated: see README.md,
    // "SEC delivery".
    std::uint64_t sec_pairs = 0, sec_delivered = m.robustness.ckpt_txs_covered;
    for (std::uint32_t org = w.byzantine_orgs; org < w.config.num_orgs;
         ++org) {
      const auto it = tracer.convergence().find(1 + org);
      const std::uint64_t applies =
          it == tracer.convergence().end() ? 0 : it->second.applies;
      sec_pairs += m.committed_modify;
      sec_delivered += std::min(applies, m.committed_modify);
    }
    const std::uint64_t sec_missing =
        sec_pairs - std::min(sec_delivered, sec_pairs);
    layer.Num("core.sec_missing_frac", Frac(sec_missing, sec_pairs));
    if (tracer.dropped() > 0) failures.push_back("tracer dropped events");
    if (w.config.threads > 1 && profiler.epochs() == 0) {
      failures.push_back("no profiler epochs");
    }
    if (w.config.threads > 1 && pipe.published == 0) {
      failures.push_back("no pipeline publications");
    }

    // Engagement: each group must have seen at least one call.
    std::vector<std::vector<Fn>> groups = {
        {Fn::kSend},         {Fn::kVerify, Fn::kVerifyBatch},
        {Fn::kSign},         {Fn::kHash, Fn::kHashBatch},
        {Fn::kApply},        {Fn::kCrdtRead},
        {Fn::kLedgerCommit}, {Fn::kLedgerRead},
        {Fn::kValidate},     {Fn::kMemoLookup},
        {Fn::kSubmitModify}, {Fn::kSubmitRead}};
    if (w.config.threads > 1) {  // the commit-pipeline hub's batch path
      groups.push_back({Fn::kValidateBatch});
      groups.push_back({Fn::kTxEncodedBody});
    }
    if (w.checkpoints) {
      for (Fn f : {Fn::kPrune, Fn::kBodyPutRef, Fn::kCkptSeal, Fn::kCkptVerify,
                   Fn::kCkptEncode, Fn::kEncodeState, Fn::kDecodeState,
                   Fn::kMergeState}) {
        groups.push_back({f});
      }
    }
    for (const auto& group : groups) {
      std::uint64_t n = 0;
      for (Fn f : group) n += calls(f);
      if (n == 0) {
        failures.push_back(std::string("no calls seen by ") +
                           FnName(group.front()));
      }
    }

    Json fns;
    for (std::size_t i = 0; i < kFnCount; ++i) {
      Json f;
      f.Int("calls", s.fn[i].calls);
      f.Int("total_ns", s.fn[i].total_ns);
      f.Int("self_ns", s.fn[i].self_ns);
      fns.Obj(FnName(static_cast<Fn>(i)), f);
    }
    out.Obj("layer", layer);
    out.Obj("tiling", tiling);
    out.Obj("spans", fns);
  }

  std::string failure_list;
  for (const std::string& f : failures) {
    if (!failure_list.empty()) failure_list += "; ";
    failure_list += f;
  }
  out.Str("failures", failure_list);
  std::printf("%s\n", out.str().c_str());
  return failures.empty() ? 0 : 1;
}

// --------------------------------------------------------------- self-test

int SelfTest() {
  int bad = 0;
  const auto check = [&bad](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };

  // The recorder round trip used to read samples back.
  LatencyRecorder recorder;
  for (int us : {900000, 100000, 500000, 1000001, 300000}) recorder.Record(us);
  check(SortedUs(recorder) ==
            std::vector<std::uint64_t>({100000, 300000, 500000, 900000,
                                        1000001}),
        "recorder samples read back sorted");

  // Self time on hand-built nested spans: RunUntil [0,1000] contains
  // Ledger::Commit [100,600] > ApplyOperation [200,500] > Sha256::Hash
  // [300,400], and a sibling Hash [700,750] directly under RunUntil.
  SpanStack st;
  st.Enter(Fn::kRunUntil, 0);
  st.Enter(Fn::kLedgerCommit, 100);
  st.Enter(Fn::kApply, 200);
  st.Enter(Fn::kHash, 300);
  st.Exit(400);
  st.Exit(500);
  st.Exit(600);
  st.Enter(Fn::kHash, 700);
  st.Exit(750);
  st.Exit(1000);
  const Shard& h = st.shard();
  check(h.at(Fn::kRunUntil).self_ns == 450, "RunUntil self 450");
  check(h.at(Fn::kLedgerCommit).self_ns == 200, "Commit self 200");
  check(h.at(Fn::kApply).self_ns == 200, "Apply self 200");
  check(h.at(Fn::kHash).self_ns == 150 && h.at(Fn::kHash).calls == 2,
        "Hash self 150 over 2 calls");
  check(h.at(Fn::kLedgerCommit).total_ns == 500, "Commit total 500");
  check(h.SelfNs() == 1000 && h.top_ns == 1000, "self times tile the root");
  check(st.depth() == 0, "stack balanced");

  // Per-thread shards merge on thread exit and on Collect.
  const Shard before = Collect();
  auto record = [](std::uint64_t base) {
    SpanStack& t = ThisThread();
    t.Enter(Fn::kSend, base);
    t.Enter(Fn::kHash, base + 10);
    t.Exit(base + 30);
    t.Exit(base + 100);
    t.Count(Counter::kSendBytes, 64);
  };
  std::thread a(record, 0), b(record, 1000);
  a.join();
  b.join();
  record(5000);  // live shard of this thread
  const Shard after = Collect();
  check(after.at(Fn::kSend).calls - before.at(Fn::kSend).calls == 3,
        "3 Send spans merged");
  check(after.at(Fn::kSend).self_ns - before.at(Fn::kSend).self_ns == 240,
        "Send self 3 x 80");
  check(after.at(Fn::kHash).self_ns - before.at(Fn::kHash).self_ns == 60,
        "Hash self 3 x 20");
  check(after.count(Counter::kSendBytes) - before.count(Counter::kSendBytes) ==
            192,
        "byte counters merged");
  check(after.top_ns - before.top_ns == 300, "top spans merged");
  Shard twice = h;
  twice.Merge(h);
  check(twice.SelfNs() == 2000 && twice.at(Fn::kHash).calls == 4,
        "Shard::Merge adds");

  if (bad == 0) std::printf("selftest ok\n");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::uint64_t main_entry_ns = perfbench::NowNs();
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") return perfbench::SelfTest();
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  for (const perfbench::Workload& w : perfbench::Workloads()) {
    if (workload == w.name) {
      return perfbench::RunOne(w, seed, trace, main_entry_ns);
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
