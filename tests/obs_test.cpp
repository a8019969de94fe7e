// Observability subsystem: tracer recording semantics, metrics registry,
// exporters, and the harness statistics the registry is fed from
// (LatencyRecorder percentile edge cases, ThroughputSeries bucketing).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "harness/metrics.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace orderless {
namespace {

using obs::EventKind;
using obs::TraceEvent;
using obs::Tracer;
using obs::TracerConfig;

// --- harness::LatencyRecorder: nearest-rank percentile edge cases ---

TEST(LatencyRecorderTest, EmptyRecorderReportsZero) {
  harness::LatencyRecorder r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.AverageMs(), 0.0);
  EXPECT_EQ(r.PercentileMs(0), 0.0);
  EXPECT_EQ(r.PercentileMs(50), 0.0);
  EXPECT_EQ(r.PercentileMs(100), 0.0);
}

TEST(LatencyRecorderTest, SingleSampleIsEveryPercentile) {
  harness::LatencyRecorder r;
  r.Record(sim::Ms(7));
  EXPECT_DOUBLE_EQ(r.PercentileMs(0), 7.0);
  EXPECT_DOUBLE_EQ(r.PercentileMs(1), 7.0);
  EXPECT_DOUBLE_EQ(r.PercentileMs(50), 7.0);
  EXPECT_DOUBLE_EQ(r.PercentileMs(99), 7.0);
  EXPECT_DOUBLE_EQ(r.PercentileMs(100), 7.0);
  EXPECT_DOUBLE_EQ(r.AverageMs(), 7.0);
}

TEST(LatencyRecorderTest, PercentileEndpointsAreMinAndMax) {
  harness::LatencyRecorder r;
  // Recorded out of order: percentile must sort first.
  r.Record(sim::Ms(30));
  r.Record(sim::Ms(10));
  r.Record(sim::Ms(20));
  r.Record(sim::Ms(40));
  EXPECT_DOUBLE_EQ(r.PercentileMs(0), 10.0);
  EXPECT_DOUBLE_EQ(r.PercentileMs(100), 40.0);
  EXPECT_DOUBLE_EQ(r.AverageMs(), 25.0);
}

TEST(LatencyRecorderTest, NearestRankRoundsToClosestSample) {
  harness::LatencyRecorder r;
  for (int ms = 1; ms <= 5; ++ms) r.Record(sim::Ms(ms));
  // rank = p/100 * (n-1); p=50 -> 2.0 -> samples[2].
  EXPECT_DOUBLE_EQ(r.PercentileMs(50), 3.0);
  // p=60 -> 2.4 -> rounds to samples[2]; p=65 -> 2.6 -> samples[3].
  EXPECT_DOUBLE_EQ(r.PercentileMs(60), 3.0);
  EXPECT_DOUBLE_EQ(r.PercentileMs(65), 4.0);
}

TEST(LatencyRecorderTest, RecordingAfterPercentileKeepsStatsConsistent) {
  harness::LatencyRecorder r;
  r.Record(sim::Ms(5));
  r.Record(sim::Ms(1));
  EXPECT_DOUBLE_EQ(r.PercentileMs(0), 1.0);  // triggers the sort
  r.Record(sim::Ms(3));                      // appended after sorting
  EXPECT_DOUBLE_EQ(r.PercentileMs(100), 5.0);
  EXPECT_DOUBLE_EQ(r.PercentileMs(50), 3.0);
}

// --- harness::ThroughputSeries: bucket boundary semantics ---

TEST(ThroughputSeriesTest, CommitExactlyOnBoundaryFallsIntoLaterBucket) {
  harness::ThroughputSeries series;
  series.Record(sim::Sec(1) - 1);  // last µs of bucket 0
  series.Record(sim::Sec(1));      // exactly on the boundary -> bucket 1
  const auto per_second = series.PerSecond(sim::Sec(2));
  ASSERT_EQ(per_second.size(), 2u);
  EXPECT_DOUBLE_EQ(per_second[0], 1.0);
  EXPECT_DOUBLE_EQ(per_second[1], 1.0);
}

TEST(ThroughputSeriesTest, UntilShorterThanRecordedDataTruncates) {
  harness::ThroughputSeries series;
  series.Record(sim::Ms(100));
  series.Record(sim::Sec(3) + sim::Ms(500));
  // `until` covers only the first second: the later commit must not appear,
  // and a partial final bucket is not reported.
  const auto per_second = series.PerSecond(sim::Sec(1) + sim::Ms(500));
  ASSERT_EQ(per_second.size(), 1u);
  EXPECT_DOUBLE_EQ(per_second[0], 1.0);
}

TEST(ThroughputSeriesTest, GapsBetweenCommitsAreZeroBuckets) {
  harness::ThroughputSeries series;
  series.Record(sim::Ms(10));
  series.Record(sim::Sec(2) + sim::Ms(10));
  const auto per_second = series.PerSecond(sim::Sec(3));
  ASSERT_EQ(per_second.size(), 3u);
  EXPECT_DOUBLE_EQ(per_second[0], 1.0);
  EXPECT_DOUBLE_EQ(per_second[1], 0.0);
  EXPECT_DOUBLE_EQ(per_second[2], 1.0);
}

// --- obs::MetricsRegistry ---

TEST(MetricsRegistryTest, CountersGaugesAndHistogramsRoundTrip) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").Add(3);
  registry.counter("a.count").Add(2);  // same name -> same counter
  registry.gauge("a.gauge").Set(1.5);
  registry.gauge("a.gauge").Set(2.5);  // last writer wins
  auto& h = registry.histogram("a.hist");
  h.Record(500);       // <= 1ms bucket
  h.Record(90'000'000);  // past 60s -> overflow
  EXPECT_EQ(registry.counter("a.count").value(), 5u);
  EXPECT_DOUBLE_EQ(registry.gauge("a.gauge").value(), 2.5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryTest, HistogramBucketPlacement) {
  obs::Histogram h({1000, 2000, 4000});
  h.Record(1000);  // bucket 0 (<= bound)
  h.Record(1001);  // bucket 1
  h.Record(4000);  // bucket 2
  h.Record(4001);  // overflow
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.sum_us(), 1000u + 1001u + 4000u + 4001u);
  EXPECT_DOUBLE_EQ(h.PercentileUpperBoundMs(0), 1.0);
  EXPECT_DOUBLE_EQ(h.PercentileUpperBoundMs(100), 4.0);  // overflow -> max
}

TEST(MetricsRegistryTest, FillHistogramMatchesRecorderCount) {
  harness::LatencyRecorder r;
  r.Record(sim::Ms(2));
  r.Record(sim::Ms(20));
  r.Record(sim::Sec(90));  // overflow
  obs::Histogram h(obs::Histogram::DefaultLatencyBoundsUs());
  r.FillHistogram(h);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(MetricsRegistryTest, WriteJsonFileEmitsEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("x.events").Add(7);
  registry.gauge("x.rate").Set(12.5);
  registry.histogram("x.lat").Record(1500);
  const std::string path = testing::TempDir() + "/obs_metrics.json";
  ASSERT_TRUE(registry.WriteJsonFile("unit", path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"x.events\""), std::string::npos);
  EXPECT_NE(json.find("\"x.rate\""), std::string::npos);
  EXPECT_NE(json.find("\"x.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  std::remove(path.c_str());
}

// --- obs::Tracer recording semantics ---

TEST(TracerTest, ParseKindMaskSelectsNamedKinds) {
  EXPECT_EQ(obs::ParseKindMask(""), ~0u);
  const std::uint32_t mask = obs::ParseKindMask("gossip_send,validate");
  EXPECT_TRUE(mask & (1u << static_cast<unsigned>(EventKind::kGossipSend)));
  EXPECT_TRUE(mask & (1u << static_cast<unsigned>(EventKind::kValidate)));
  EXPECT_FALSE(mask & (1u << static_cast<unsigned>(EventKind::kTxSubmit)));
  // Unknown names are ignored, known ones still land.
  EXPECT_EQ(obs::ParseKindMask("nonsense,validate"),
            1u << static_cast<unsigned>(EventKind::kValidate));
}

TEST(TracerTest, KindMaskFiltersRecording) {
  TracerConfig config;
  config.kind_mask = obs::ParseKindMask("validate");
  Tracer tracer(config);
  EXPECT_TRUE(tracer.WantsKind(EventKind::kValidate));
  EXPECT_FALSE(tracer.WantsKind(EventKind::kTxSubmit));
  tracer.Instant(EventKind::kValidate, sim::Ms(1), 0, 1);
  tracer.Instant(EventKind::kTxSubmit, sim::Ms(2), 0, 1);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].kind, EventKind::kValidate);
}

TEST(TracerTest, MaxEventsCapCountsDrops) {
  TracerConfig config;
  config.max_events = 3;
  Tracer tracer(config);
  for (int i = 0; i < 5; ++i) {
    tracer.Instant(EventKind::kTxSubmit, sim::Ms(i), 0, i + 1);
  }
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, ConvergenceLagMeasuresFromFirstApply) {
  Tracer tracer;
  tracer.CommitApplied(sim::Ms(10), /*actor=*/0, /*tx=*/42);  // first apply
  tracer.CommitApplied(sim::Ms(25), /*actor=*/1, /*tx=*/42);  // 15ms later
  tracer.CommitApplied(sim::Ms(40), /*actor=*/2, /*tx=*/42);  // 30ms later
  const auto& conv = tracer.convergence();
  ASSERT_EQ(conv.size(), 3u);
  EXPECT_EQ(conv.at(0).lag_max_us, 0u);
  EXPECT_EQ(conv.at(1).lag_max_us, sim::Ms(15));
  EXPECT_EQ(conv.at(2).lag_max_us, sim::Ms(30));
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[0].kind, EventKind::kConverge);
  EXPECT_EQ(tracer.events()[2].aux, sim::Ms(30));
}

TEST(TracerTest, EventsForTxFollowsWriteSetMatchLink) {
  Tracer tracer;
  constexpr std::uint64_t kProposal = 0xAAA;
  constexpr std::uint64_t kTx = 0xBBB;
  // Submit phase keyed by the proposal digest, commit phase by the tx id,
  // joined by the kWriteSetMatch event's aux link.
  tracer.Instant(EventKind::kTxSubmit, sim::Ms(1), 0, kProposal);
  tracer.Instant(EventKind::kWriteSetMatch, sim::Ms(2), 0, kTx, kProposal);
  tracer.Instant(EventKind::kLedgerAppend, sim::Ms(3), 1, kTx);
  tracer.Instant(EventKind::kTxSubmit, sim::Ms(4), 0, 0xCCC);  // unrelated
  const auto timeline = tracer.EventsForTx(kTx);
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].kind, EventKind::kTxSubmit);
  EXPECT_EQ(timeline[1].kind, EventKind::kWriteSetMatch);
  EXPECT_EQ(timeline[2].kind, EventKind::kLedgerAppend);
}

TEST(TracerTest, TailReturnsLastEventsInOrder) {
  Tracer tracer;
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(EventKind::kTxSubmit, sim::Ms(i), 0, i + 1);
  }
  const auto tail = tracer.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].tx, 8u);
  EXPECT_EQ(tail[2].tx, 10u);
  EXPECT_EQ(tracer.Tail(100).size(), 10u);
}

TEST(TracerTest, PhasesAggregateSpanDurations) {
  Tracer tracer;
  tracer.Span(EventKind::kValidate, sim::Ms(0), sim::Ms(2), 0, 1);
  tracer.Span(EventKind::kValidate, sim::Ms(0), sim::Ms(4), 0, 2);
  bool saw_validate = false;
  for (const auto& phase : tracer.Phases()) {
    if (phase.kind != EventKind::kValidate) continue;
    saw_validate = true;
    EXPECT_EQ(phase.count, 2u);
    EXPECT_DOUBLE_EQ(phase.avg_ms, 3.0);
    EXPECT_DOUBLE_EQ(phase.max_ms, 4.0);
  }
  EXPECT_TRUE(saw_validate);
}

// --- end to end: a small traced experiment covers the whole lifecycle ---

harness::ExperimentConfig SmallTracedConfig() {
  harness::ExperimentConfig config;
  config.system = harness::SystemKind::kOrderless;
  config.app = harness::AppKind::kSynthetic;
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.workload.arrival_tps = 100;
  config.workload.duration = sim::Sec(2);
  config.workload.drain = sim::Sec(10);
  config.workload.num_clients = 10;
  config.seed = 9;
  return config;
}

TEST(TracedExperimentTest, RecordsEveryLifecyclePhase) {
  Tracer tracer;
  harness::ExperimentConfig config = SmallTracedConfig();
  config.tracer = &tracer;
  const auto result = harness::RunExperiment(config);
  EXPECT_GT(result.metrics.committed_modify + result.metrics.committed_read,
            0u);
  ASSERT_FALSE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);

  std::set<EventKind> kinds;
  std::uint64_t gossip_send = 0, gossip_recv = 0;
  for (const TraceEvent& e : tracer.events()) {
    kinds.insert(e.kind);
    if (e.kind == EventKind::kGossipSend) ++gossip_send;
    if (e.kind == EventKind::kGossipRecv) ++gossip_recv;
  }
  // Submit -> endorse -> match -> commit -> validate -> append -> apply ->
  // gossip -> converge: the full pipeline must appear in one small run.
  const EventKind expected[] = {
      EventKind::kTxSubmit,     EventKind::kProposalSend,
      EventKind::kEndorseExec,  EventKind::kEndorseReply,
      EventKind::kWriteSetMatch, EventKind::kCommitSend,
      EventKind::kValidate,     EventKind::kLedgerAppend,
      EventKind::kCrdtApply,    EventKind::kGossipSend,
      EventKind::kGossipRecv,   EventKind::kReceipt,
      EventKind::kTxOutcome,    EventKind::kConverge,
  };
  for (EventKind kind : expected) {
    EXPECT_TRUE(kinds.count(kind))
        << "missing kind " << obs::EventKindName(kind);
  }
  // With no faults every gossiped transaction is received somewhere.
  EXPECT_EQ(gossip_send, gossip_recv);
  // Every organization applied commits, so all four show convergence stats.
  EXPECT_EQ(tracer.convergence().size(), 4u);

  // Exporters accept the buffer and produce parseable-looking artifacts.
  const std::string trace_path = testing::TempDir() + "/obs_trace.json";
  const std::string jsonl_path = testing::TempDir() + "/obs_trace.jsonl";
  ASSERT_TRUE(obs::WriteChromeTrace(tracer, trace_path));
  ASSERT_TRUE(obs::WriteJsonl(tracer, jsonl_path));
  {
    std::ifstream in(trace_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"org-0\""), std::string::npos);
    EXPECT_NE(json.find("\"client-0\""), std::string::npos);
  }
  {
    std::ifstream in(jsonl_path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ASSERT_FALSE(line.empty());
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
      ++lines;
    }
    EXPECT_EQ(lines, tracer.events().size());
  }
  std::remove(trace_path.c_str());
  std::remove(jsonl_path.c_str());

  // The trace-derived metrics agree with the raw buffer.
  obs::MetricsRegistry registry;
  result.metrics.FillRegistry(registry);
  obs::FillTraceMetrics(tracer, registry);
  EXPECT_EQ(registry.counter("trace.events").value(), tracer.events().size());
  EXPECT_EQ(registry.counter("experiment.submitted").value(),
            result.metrics.submitted);
  EXPECT_GT(registry.counter("trace.phase.validate.count").value(), 0u);
  // End-of-run state gauges: every committed modify sits in some org's
  // commit index and CRDT state.
  EXPECT_EQ(registry.gauge("state.crdt_entries").value(),
            static_cast<double>(result.metrics.state.crdt_entries));
  EXPECT_GT(result.metrics.state.crdt_entries, 0u);
  EXPECT_GE(result.metrics.state.commit_index_entries,
            result.metrics.committed_modify);
}

TEST(TracedExperimentTest, FilteredTracerRecordsOnlyRequestedKinds) {
  TracerConfig tracer_config;
  tracer_config.kind_mask = obs::ParseKindMask("ledger_append");
  Tracer tracer(tracer_config);
  harness::ExperimentConfig config = SmallTracedConfig();
  config.tracer = &tracer;
  harness::RunExperiment(config);
  ASSERT_FALSE(tracer.events().empty());
  for (const TraceEvent& e : tracer.events()) {
    EXPECT_EQ(e.kind, EventKind::kLedgerAppend);
  }
}

}  // namespace
}  // namespace orderless
