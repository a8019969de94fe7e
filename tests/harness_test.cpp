// Tests for the benchmark harness itself: metrics math, throughput series,
// table rendering, workload accounting, and the Byzantine-phase scheduler.
#include <gtest/gtest.h>

#include "codec/codec.h"
#include "crypto/sha256.h"
#include "harness/experiment.h"
#include "harness/table.h"

namespace orderless::harness {
namespace {

TEST(ThroughputSeriesTest, BucketsPerSecond) {
  ThroughputSeries series;
  series.Record(sim::Ms(100));
  series.Record(sim::Ms(900));
  series.Record(sim::Ms(1500));
  series.Record(sim::Ms(2100));
  series.Record(sim::Ms(2200));
  series.Record(sim::Ms(2300));
  const auto per_second = series.PerSecond(sim::Sec(4));
  ASSERT_EQ(per_second.size(), 4u);
  EXPECT_EQ(per_second[0], 2.0);
  EXPECT_EQ(per_second[1], 1.0);
  EXPECT_EQ(per_second[2], 3.0);
  EXPECT_EQ(per_second[3], 0.0);
}

TEST(MetricsTest, ThroughputUsesCommitWindow) {
  ExperimentMetrics metrics;
  metrics.committed_modify = 90;
  metrics.committed_read = 10;
  metrics.first_commit = sim::Sec(1);
  metrics.last_commit = sim::Sec(11);
  EXPECT_NEAR(metrics.ThroughputTps(), 10.0, 1e-9);

  ExperimentMetrics empty;
  EXPECT_EQ(empty.ThroughputTps(), 0.0);
}

TEST(MetricsTest, MeanHelper) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_NEAR(Mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(1000, 0), "1000");
}

TEST(NamesTest, SystemAndAppNames) {
  EXPECT_EQ(SystemName(SystemKind::kOrderless), "OrderlessChain");
  EXPECT_EQ(SystemName(SystemKind::kFabric), "Fabric");
  EXPECT_EQ(SystemName(SystemKind::kFabricCrdt), "FabricCRDT");
  EXPECT_EQ(SystemName(SystemKind::kBidl), "BIDL");
  EXPECT_EQ(SystemName(SystemKind::kSyncHotStuff), "SyncHotStuff");
  EXPECT_EQ(AppName(AppKind::kSynthetic), "synthetic");
  EXPECT_EQ(AppName(AppKind::kVoting), "voting");
  EXPECT_EQ(AppName(AppKind::kAuction), "auction");
}

TEST(ExperimentTest, SubmissionAccountingBalances) {
  ExperimentConfig config;
  config.system = SystemKind::kOrderless;
  config.app = AppKind::kVoting;
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.workload.arrival_tps = 100;
  config.workload.duration = sim::Sec(2);
  config.workload.drain = sim::Sec(10);
  config.workload.num_clients = 10;
  config.seed = 77;
  const auto result = RunExperiment(config);
  EXPECT_EQ(result.metrics.submitted, 200u);
  EXPECT_EQ(result.metrics.committed_modify + result.metrics.committed_read +
                result.metrics.failed,
            result.metrics.submitted);
  EXPECT_EQ(result.metrics.failed, 0u);
}

TEST(ExperimentTest, ByzantinePhaseScheduleReducesThroughput) {
  auto run = [](bool with_faults) {
    ExperimentConfig config;
    config.system = SystemKind::kOrderless;
    config.app = AppKind::kSynthetic;
    config.num_orgs = 8;
    config.policy = core::EndorsementPolicy{4, 8};
    config.workload.arrival_tps = 200;
    config.workload.duration = sim::Sec(4);
    config.workload.drain = sim::Sec(10);
    config.workload.num_clients = 50;
    config.seed = 13;
    if (with_faults) {
      config.byzantine_phases = {{sim::Sec(0), 3}};
      config.byzantine_org_behavior.ignore_proposal_prob = 1.0;
      config.byzantine_org_behavior.ignore_commit_prob = 1.0;
    }
    return RunExperiment(config).metrics;
  };
  const auto healthy = run(false);
  const auto faulty = run(true);
  EXPECT_EQ(healthy.failed, 0u);
  EXPECT_GT(faulty.failed, 0u);
  EXPECT_LT(faulty.committed_modify + faulty.committed_read,
            healthy.committed_modify + healthy.committed_read);
}

TEST(ExperimentTest, AveragedPointRunsMultipleSeeds) {
  ExperimentConfig config;
  config.system = SystemKind::kOrderless;
  config.app = AppKind::kVoting;
  config.num_orgs = 4;
  config.policy = core::EndorsementPolicy{2, 4};
  config.workload.arrival_tps = 80;
  config.workload.duration = sim::Sec(2);
  config.workload.drain = sim::Sec(8);
  config.workload.num_clients = 10;
  config.seed = 3;
  const AveragedPoint p = RunAveraged(config, 2);
  EXPECT_GT(p.throughput_tps, 40.0);
  EXPECT_GT(p.modify_avg_ms, 0.0);
  EXPECT_GT(p.read_avg_ms, 0.0);
  EXPECT_LT(p.read_avg_ms, p.modify_avg_ms);
  EXPECT_EQ(p.failed_fraction, 0.0);
}

// Golden pin for the sequential engine: a reads8_byz-shaped experiment
// (8 orgs, EP{2 of 8}, R90M10, org 0 Byzantine from t=0, client avoidance
// and retries, 1 engine thread) at reduced duration must keep producing
// exactly the outcome recorded before open-loop arrivals were streamed into
// the event queue. Any change to the event order — arrival keys, timer
// placement, tie-breaking — moves one of these numbers.
TEST(ExperimentGolden, Reads8ByzShapedSequentialRunMatchesRecordedOutcome) {
  ExperimentConfig c;
  c.num_orgs = 8;
  c.policy = core::EndorsementPolicy{2, 8};
  c.workload.arrival_tps = 6000;
  c.workload.duration = sim::Sec(2);
  c.workload.modify_fraction = 0.1;
  c.workload.num_clients = 1200;
  c.byzantine_phases = {{0, 1}};
  c.byzantine_org_behavior.ignore_proposal_prob = 0.5;
  c.byzantine_org_behavior.wrong_endorse_prob = 0.5;
  c.client_avoidance = true;
  c.client_max_attempts = 3;
  c.threads = 1;
  c.seed = 1;
  const ExperimentResult r = RunExperiment(c);

  // Recorded on the up-front submission plan (same config and seed).
  codec::Writer heads;
  for (const crypto::Digest& head : r.org_chain_heads) {
    heads.PutBytes(head.View());
  }
  const std::uint64_t heads_fingerprint =
      crypto::Sha256::Hash(BytesView(heads.data())).Prefix64();
  EXPECT_EQ(r.metrics.submitted, 12000u);
  EXPECT_EQ(r.metrics.committed_modify, 1231u);
  EXPECT_EQ(r.metrics.committed_read, 10769u);
  EXPECT_EQ(r.metrics.failed, 0u);
  EXPECT_EQ(r.metrics.robustness.client_retries, 1623u);
  EXPECT_EQ(r.events_processed, 163542u);
  EXPECT_EQ(r.metrics.modify_latency.SumUs(), 1066825510u);
  EXPECT_EQ(r.metrics.read_latency.SumUs(), 6478422014u);
  ASSERT_EQ(r.org_chain_heads.size(), 8u);
  EXPECT_EQ(heads_fingerprint, 0xae8cc1005024bdd2ULL);
}

}  // namespace
}  // namespace orderless::harness
