#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulation.h"

namespace orderless::sim {
namespace {

struct TestMsg final : Message {
  explicit TestMsg(std::size_t size = 100) : size_(size) {}
  std::string_view TypeName() const override { return "Test"; }
  std::size_t WireSize() const override { return size_; }
  std::size_t size_;
};

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.Schedule(Ms(30), [&order] { order.push_back(3); });
  simulation.Schedule(Ms(10), [&order] { order.push_back(1); });
  simulation.Schedule(Ms(20), [&order] { order.push_back(2); });
  simulation.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulation.now(), Ms(30));
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulation.Schedule(Ms(5), [&order, i] { order.push_back(i); });
  }
  simulation.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  Simulation simulation;
  int fired = 0;
  simulation.Schedule(Ms(10), [&fired] { ++fired; });
  simulation.Schedule(Ms(50), [&fired] { ++fired; });
  simulation.RunUntil(Ms(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.now(), Ms(20));
  simulation.RunUntil(Ms(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedSchedulingFromEvents) {
  Simulation simulation;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) simulation.Schedule(Ms(1), recur);
  };
  simulation.Schedule(Ms(1), recur);
  simulation.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(simulation.now(), Ms(5));
}

TEST(Network, DeliversWithLatency) {
  Simulation simulation;
  NetworkConfig config;
  config.one_way_latency = Ms(50);
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(1));

  SimTime arrival = 0;
  network.Register(2, [&](const Delivery& d) {
    arrival = simulation.now();
    EXPECT_EQ(d.from, 1u);
    EXPECT_FALSE(d.corrupted);
  });
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_GE(arrival, Ms(50));
  EXPECT_LT(arrival, Ms(52));
}

TEST(Network, JitterVariesArrival) {
  Simulation simulation;
  NetworkConfig config;
  config.one_way_latency = Ms(50);
  config.jitter_stddev_ms = 2.0;
  Network network(simulation, config, Rng(7));

  std::vector<SimTime> arrivals;
  network.Register(2, [&](const Delivery&) {
    arrivals.push_back(simulation.now());
  });
  for (int i = 0; i < 50; ++i) network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 50u);
  SimTime min = arrivals[0];
  SimTime max = arrivals[0];
  for (SimTime t : arrivals) {
    min = std::min(min, t);
    max = std::max(max, t);
  }
  EXPECT_GT(max - min, Us(100));  // jitter spreads arrivals
}

TEST(Network, BandwidthSerializesLargeMessages) {
  Simulation simulation;
  NetworkConfig config;
  config.one_way_latency = 0;
  config.jitter_stddev_ms = 0;
  config.bandwidth_bps = 8e6;  // 1 MB/s
  Network network(simulation, config, Rng(1));

  std::vector<SimTime> arrivals;
  network.Register(2, [&](const Delivery&) {
    arrivals.push_back(simulation.now());
  });
  // Two 1 MB messages: second must wait for the first's serialization.
  network.Send(1, 2, std::make_shared<TestMsg>(1000000));
  network.Send(1, 2, std::make_shared<TestMsg>(1000000));
  simulation.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(static_cast<double>(arrivals[0]), 1e6, 1e4);  // ~1 s
  EXPECT_NEAR(static_cast<double>(arrivals[1]), 2e6, 1e4);  // ~2 s
}

TEST(Network, DropProbabilityDropsRoughlyThatShare) {
  Simulation simulation;
  NetworkConfig config;
  config.drop_probability = 0.5;
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(3));
  int received = 0;
  network.Register(2, [&received](const Delivery&) { ++received; });
  for (int i = 0; i < 1000; ++i) network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_GT(received, 400);
  EXPECT_LT(received, 600);
  EXPECT_EQ(network.messages_dropped() + received, 1000u);
}

TEST(Network, DuplicationDeliversTwice) {
  Simulation simulation;
  NetworkConfig config;
  config.duplicate_probability = 1.0;
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(3));
  int received = 0;
  network.Register(2, [&received](const Delivery&) { ++received; });
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_EQ(received, 2);
}

TEST(Network, CorruptionFlagsDelivery) {
  Simulation simulation;
  NetworkConfig config;
  config.corrupt_probability = 1.0;
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(3));
  bool corrupted = false;
  network.Register(2, [&corrupted](const Delivery& d) {
    corrupted = d.corrupted;
  });
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_TRUE(corrupted);
}

TEST(Network, PartitionBlocksAndHealRestores) {
  Simulation simulation;
  Network network(simulation, NetworkConfig{}, Rng(5));
  int received = 0;
  network.Register(2, [&received](const Delivery&) { ++received; });

  network.SetPartition(1, 0);
  network.SetPartition(2, 1);
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_EQ(received, 0);

  network.HealPartitions();
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST(Network, LocalDeliveryIsImmediate) {
  Simulation simulation;
  Network network(simulation, NetworkConfig{}, Rng(5));
  bool received = false;
  network.Register(1, [&received](const Delivery&) { received = true; });
  network.Send(1, 1, std::make_shared<TestMsg>());
  EXPECT_TRUE(received);  // synchronous, no event needed
}

TEST(Processor, SingleCoreQueues) {
  Simulation simulation;
  Processor cpu(simulation, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    cpu.Submit(Ms(10), [&] { completions.push_back(simulation.now()); });
  }
  simulation.RunUntilIdle();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Ms(10));
  EXPECT_EQ(completions[1], Ms(20));
  EXPECT_EQ(completions[2], Ms(30));
}

TEST(Processor, MultiCoreRunsInParallel) {
  Simulation simulation;
  Processor cpu(simulation, 4);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(Ms(10), [&] { completions.push_back(simulation.now()); });
  }
  simulation.RunUntilIdle();
  for (SimTime t : completions) EXPECT_EQ(t, Ms(10));
  EXPECT_EQ(cpu.busy_time(), Ms(40));
}

TEST(Simulation, ReserveEventsForAccumulatesInSequentialMode) {
  Simulation simulation;
  const ActorId a = simulation.RegisterActor(1);
  const ActorId b = simulation.RegisterActor(2);
  // Interleaved bursts for two lanes all land in the one global queue.
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    simulation.ScheduleAtFor(a, Ms(10), [&order, i] { order.push_back(2 * i); });
    simulation.ScheduleAtFor(b, Ms(10),
                             [&order, i] { order.push_back(2 * i + 1); });
  }
  simulation.RunUntilIdle();
  ASSERT_EQ(order.size(), 200u);
  // Canonical order (time, dst, src, seq): at equal times every event bound
  // for lane a precedes every event bound for lane b, each in schedule
  // order.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], 2 * i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[100 + i], 2 * i + 1);
}

namespace {

// Self-rescheduling tick on one lane that also pings a peer lane at
// cross-lane distance >= the lookahead. Appends happen only from events on
// the owning lane, so parallel epochs never race on the vectors.
struct Ticker {
  Simulation& simulation;
  ActorId peer = 0;
  std::vector<SimTime>* ticks = nullptr;
  std::vector<SimTime>* peer_inbox = nullptr;
  int remaining = 0;

  void Tick() {
    ticks->push_back(simulation.now());
    simulation.ScheduleFor(peer, Ms(10),
                           [inbox = peer_inbox, sim = &simulation] {
                             inbox->push_back(sim->now());
                           });
    if (--remaining > 0) {
      simulation.Schedule(Ms(3), [this] { Tick(); });
    }
  }
};

struct ParallelRunResult {
  std::vector<SimTime> ticks_a, ticks_b, inbox_a, inbox_b;
  std::size_t processed_mid = 0, processed_end = 0;
  SimTime now_mid = 0, now_end = 0;
};

ParallelRunResult RunTickers(unsigned threads) {
  Simulation simulation;
  simulation.SetThreads(threads);
  const ActorId a = simulation.RegisterActor(1);
  const ActorId b = simulation.RegisterActor(2);
  simulation.ProposeLookahead(Ms(10));
  ParallelRunResult r;
  Ticker ta{simulation, b, &r.ticks_a, &r.inbox_b, 30};
  Ticker tb{simulation, a, &r.ticks_b, &r.inbox_a, 30};
  simulation.ScheduleAtFor(a, Ms(1), [&ta] { ta.Tick(); });
  simulation.ScheduleAtFor(b, Ms(2), [&tb] { tb.Tick(); });
  // Stop mid-run at a time that is not an epoch boundary: RunUntil must
  // process exactly the events with time <= until and leave now() == until,
  // then resume seamlessly.
  simulation.RunUntil(Ms(37));
  r.processed_mid = simulation.events_processed();
  r.now_mid = simulation.now();
  simulation.RunUntilIdle();
  r.processed_end = simulation.events_processed();
  r.now_end = simulation.now();
  return r;
}

}  // namespace

TEST(Simulation, ParallelRunMatchesSequentialAcrossEpochBoundaries) {
  const ParallelRunResult seq = RunTickers(1);
  EXPECT_EQ(seq.now_mid, Ms(37));
  EXPECT_EQ(seq.ticks_a.size(), 30u);
  EXPECT_EQ(seq.inbox_a.size(), 30u);
  for (unsigned threads : {2u, 4u}) {
    const ParallelRunResult par = RunTickers(threads);
    EXPECT_EQ(par.ticks_a, seq.ticks_a) << "threads=" << threads;
    EXPECT_EQ(par.ticks_b, seq.ticks_b) << "threads=" << threads;
    EXPECT_EQ(par.inbox_a, seq.inbox_a) << "threads=" << threads;
    EXPECT_EQ(par.inbox_b, seq.inbox_b) << "threads=" << threads;
    EXPECT_EQ(par.processed_mid, seq.processed_mid) << "threads=" << threads;
    EXPECT_EQ(par.processed_end, seq.processed_end) << "threads=" << threads;
    EXPECT_EQ(par.now_mid, seq.now_mid) << "threads=" << threads;
    EXPECT_EQ(par.now_end, seq.now_end) << "threads=" << threads;
  }
}

// --- Canonical order under mixed queue traffic. ---

// An event's canonical key as the engine assigns it: the test mirrors each
// lane's source-local sequence counter.
struct Key {
  SimTime time = 0;
  ActorId dst = 0;
  ActorId src = 0;
  std::uint64_t seq = 0;
  auto Tie() const { return std::tie(time, dst, src, seq); }
  bool operator<(const Key& o) const { return Tie() < o.Tie(); }
  bool operator==(const Key& o) const { return Tie() == o.Tie(); }
};
void PrintTo(const Key& k, std::ostream* os) {
  *os << "(" << k.time << "," << k.dst << "," << k.src << "," << k.seq << ")";
}

constexpr ActorId kProbeLanes = 5;  // lane 0 (harness) + four actor lanes
constexpr SimTime kProbeLookahead = Ms(2);
constexpr SimTime kProbeTimer = Ms(40);  // fixed-delay, never cancelled

// Random event cascade: every event arms a fixed-delay timer on its own
// lane with probability 1/2 and spawns 0-2 near-future events — same-lane
// ones 0-1.5 ms out (zero-delay and equal-time ties included), cross-lane
// ones one lookahead further. Delays are multiples of 500 us, so equal
// times across dst and src are common. Children derive from the parent's
// key alone, never from host timing. The probe runs either on a Simulation
// or on the reference model: a std::set of keys, popped smallest first.
// Logs are per lane (only the owning lane appends), so parallel epochs
// never race on them.
class OrderProbe {
 public:
  /// threads == 0 selects the reference model.
  OrderProbe(unsigned threads, std::uint64_t seed)
      : threads_(threads), seed_(seed) {
    simulation_.SetThreads(threads == 0 ? 1 : threads);
    for (ActorId lane = 1; lane < kProbeLanes; ++lane) {
      simulation_.RegisterActor(lane);
    }
    simulation_.ProposeLookahead(kProbeLookahead);
  }

  /// Harness-context scheduling (outside events).
  void Inject(ActorId dst, SimTime when, int depth) {
    Schedule(0, dst, when, depth);
  }

  void RunUntil(SimTime until) {
    if (threads_ != 0) {
      simulation_.RunUntil(until);
      return;
    }
    while (!reference_.empty() && reference_.begin()->first.time <= until) {
      const auto [key, depth] = *reference_.begin();
      reference_.erase(reference_.begin());
      reference_now_ = key.time;
      ++reference_processed_;
      Execute(key, depth);
    }
    reference_now_ = std::max(reference_now_, until);
  }

  SimTime now() const {
    return threads_ == 0 ? reference_now_ : simulation_.now();
  }
  std::size_t processed() const {
    return threads_ == 0 ? reference_processed_
                         : simulation_.events_processed();
  }
  std::size_t pending() const {
    return threads_ == 0 ? reference_.size() : simulation_.pending();
  }
  const std::vector<Key>& executed(ActorId lane) const {
    return executed_[lane];
  }
  const std::vector<Key>& global() const { return global_; }

 private:
  void Schedule(ActorId from, ActorId dst, SimTime when, int depth) {
    const Key key{when, dst, from, next_seq_[from]++};
    if (threads_ == 0) {
      reference_.emplace(key, depth);
      return;
    }
    simulation_.ScheduleAtFor(dst, when, [this, key, depth] {
      Execute(key, depth);
    });
  }

  void Execute(const Key& key, int depth) {
    Key ran = key;
    ran.time = now();
    executed_[key.dst].push_back(ran);
    if (threads_ <= 1) global_.push_back(ran);
    if (depth == 0) return;
    Rng rng(seed_ ^ (key.src * 0x9e3779b97f4a7c15ULL) ^
            (key.seq * 0xc2b2ae3d27d4eb4fULL) ^ key.time);
    if (rng.NextBelow(2) == 0) {
      Schedule(key.dst, key.dst, ran.time + kProbeTimer, depth - 1);
    }
    const std::uint64_t children = rng.NextBelow(3);
    for (std::uint64_t c = 0; c < children; ++c) {
      const auto dst = static_cast<ActorId>(rng.NextBelow(kProbeLanes));
      SimTime delay = Us(500) * rng.NextBelow(4);
      if (dst != key.dst) delay += kProbeLookahead;
      Schedule(key.dst, dst, ran.time + delay, depth - 1);
    }
  }

  Simulation simulation_;
  unsigned threads_;
  std::uint64_t seed_;
  std::uint64_t next_seq_[kProbeLanes] = {};
  std::vector<Key> executed_[kProbeLanes];
  std::vector<Key> global_;
  std::set<std::pair<Key, int>> reference_;
  SimTime reference_now_ = 0;
  std::size_t reference_processed_ = 0;
};

struct ProbeRun {
  std::vector<Key> lanes[kProbeLanes];
  std::vector<Key> global;  // sequential and reference runs only
  std::vector<std::size_t> processed_at_stop, pending_at_stop;
  std::vector<SimTime> now_at_stop;
};

ProbeRun RunProbe(unsigned threads, std::uint64_t seed) {
  OrderProbe probe(threads, seed);
  Rng rng(seed);
  // Roots at equal and near-equal times across every lane.
  for (int i = 0; i < 24; ++i) {
    probe.Inject(static_cast<ActorId>(rng.NextBelow(kProbeLanes)),
                 Us(500) * rng.NextBelow(6), 9);
  }
  // Mid-run stops, some off the 500 us grid, one repeated, the last past
  // the end; between stops the harness injects more roots.
  ProbeRun run;
  for (SimTime stop : {Us(3700), Ms(11), Ms(11), Us(42001), Ms(90), Sec(10)}) {
    probe.RunUntil(stop);
    run.processed_at_stop.push_back(probe.processed());
    run.pending_at_stop.push_back(probe.pending());
    run.now_at_stop.push_back(probe.now());
    for (int i = 0; i < 3; ++i) {
      probe.Inject(static_cast<ActorId>(rng.NextBelow(kProbeLanes)),
                   stop + Us(500) * rng.NextBelow(4), 6);
    }
  }
  probe.RunUntil(Sec(20));
  run.processed_at_stop.push_back(probe.processed());
  run.pending_at_stop.push_back(probe.pending());
  for (ActorId lane = 0; lane < kProbeLanes; ++lane) {
    run.lanes[lane] = probe.executed(lane);
  }
  run.global = probe.global();
  return run;
}

TEST(Simulation, MixedQueueTrafficPopsInCanonicalOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ProbeRun reference = RunProbe(/*threads=*/0, seed);
    EXPECT_GT(reference.global.size(), 1000u) << "seed=" << seed;
    EXPECT_EQ(reference.pending_at_stop.back(), 0u) << "seed=" << seed;
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " threads=" << threads);
      const ProbeRun run = RunProbe(threads, seed);
      for (ActorId lane = 0; lane < kProbeLanes; ++lane) {
        EXPECT_EQ(run.lanes[lane], reference.lanes[lane]) << "lane " << lane;
      }
      if (threads == 1) {
        EXPECT_EQ(run.global, reference.global);
      }
      EXPECT_EQ(run.processed_at_stop, reference.processed_at_stop);
      EXPECT_EQ(run.pending_at_stop, reference.pending_at_stop);
      EXPECT_EQ(run.now_at_stop, reference.now_at_stop);
    }
  }
}

// --- Arrival stream vs up-front scheduling. ---

struct Logged {
  SimTime time = 0;
  int label = 0;
  auto Tie() const { return std::tie(time, label); }
  bool operator==(const Logged& o) const { return Tie() == o.Tie(); }
};
void PrintTo(const Logged& l, std::ostream* os) {
  *os << "(" << l.time << "," << l.label << ")";
}

struct ArrivalRun {
  std::vector<Logged> lanes[kProbeLanes];
  std::vector<Logged> global;  // sequential runs only
  std::size_t pending_at_start = 0, pending_mid = 0;
  std::size_t processed_mid = 0, processed_end = 0;
  SimTime now_mid = 0, now_end = 0;
};

// Labels: arrival i logs 100 + i and sends an echo (1000 + i) one
// lookahead later to the next actor lane; the harness event at 5 ms logs 1
// and schedules, at runtime, a harness-lane event (label 2) for the same
// (time, dst) as the pending 9 ms lane-0 arrival. Lane-0 arrivals also bump
// a shared gate that actor-lane arrivals add to their label (10000 per
// step): the 40.3 ms lane-0 arrival falls strictly inside the lookahead
// window that starts at 40 ms, so the 40.6 ms arrival sees it only if the
// parallel engine ends that epoch at the lane-0 arrival.
ArrivalRun RunArrivals(bool stream, unsigned threads) {
  struct Planned {
    SimTime at;
    ActorId dst;
  };
  const std::vector<Planned> plan = {
      {Ms(1), 4},  {Ms(1), 3},  {Ms(1), 2},  {Ms(1), 1},  // descending lanes
      {Ms(2), 0},  {Ms(2), 2},  {Us(3500), 1},            // lane-0 arrival
      {Ms(9), 0},  {Ms(9), 3},  {Ms(12), 2},              // seq-reservation pin
      {Ms(20), 1}, {Ms(20), 0}, {Ms(30), 4},              // after the stop
      {Ms(40), 1}, {Us(40300), 0}, {Us(40600), 2},        // epoch bound
  };
  Simulation simulation;
  simulation.SetThreads(threads);
  for (ActorId lane = 1; lane < kProbeLanes; ++lane) {
    simulation.RegisterActor(lane);
  }
  simulation.ProposeLookahead(Ms(1));
  ArrivalRun run;
  const auto log = [&run, &simulation, threads](ActorId lane, int label) {
    run.lanes[lane].push_back({simulation.now(), label});
    if (threads == 1) run.global.push_back({simulation.now(), label});
  };
  simulation.ScheduleAt(Ms(5), [&simulation, log] {
    log(0, 1);
    simulation.ScheduleAtFor(0, Ms(9), [log] { log(0, 2); });
  });
  int gate = 0;  // written on lane 0 only, which runs exclusively
  const auto arrival_fn = [&simulation, &gate, log](std::size_t i,
                                                    ActorId dst) {
    return [&simulation, &gate, log, i, dst] {
      if (dst == 0) {
        log(dst, 100 + static_cast<int>(i));
        ++gate;
      } else {
        log(dst, 100 + static_cast<int>(i) + 10000 * gate);
      }
      const ActorId next = dst % (kProbeLanes - 1) + 1;
      simulation.ScheduleFor(next, Ms(1), [log, i, next] {
        log(next, 1000 + static_cast<int>(i));
      });
    };
  };
  std::size_t drawn = 0;  // outlives the stream, which draws lazily
  if (stream) {
    simulation.AttachArrivals(plan.size(), [&](Arrival& next) {
      const std::size_t i = drawn++;
      next.at = plan[i].at;
      next.dst = plan[i].dst;
      next.fn = arrival_fn(i, plan[i].dst);
    });
  } else {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      simulation.ScheduleAtFor(plan[i].dst, plan[i].at,
                               arrival_fn(i, plan[i].dst));
    }
  }
  run.pending_at_start = simulation.pending();
  simulation.RunUntil(Ms(15));  // between the 12 ms and 20 ms arrivals
  run.pending_mid = simulation.pending();
  run.processed_mid = simulation.events_processed();
  run.now_mid = simulation.now();
  simulation.RunUntilIdle();
  run.processed_end = simulation.events_processed();
  run.now_end = simulation.now();
  return run;
}

void ExpectSameArrivalRun(const ArrivalRun& a, const ArrivalRun& b) {
  for (ActorId lane = 0; lane < kProbeLanes; ++lane) {
    EXPECT_EQ(a.lanes[lane], b.lanes[lane]) << "lane " << lane;
  }
  if (!a.global.empty() && !b.global.empty()) {
    EXPECT_EQ(a.global, b.global);
  }
  EXPECT_EQ(a.pending_at_start, b.pending_at_start);
  EXPECT_EQ(a.pending_mid, b.pending_mid);
  EXPECT_EQ(a.processed_mid, b.processed_mid);
  EXPECT_EQ(a.processed_end, b.processed_end);
  EXPECT_EQ(a.now_mid, b.now_mid);
  EXPECT_EQ(a.now_end, b.now_end);
}

TEST(Simulation, ArrivalStreamMatchesUpFrontScheduling) {
  const ArrivalRun upfront = RunArrivals(/*stream=*/false, 1);
  // 16 arrivals + their echoes + the two harness events.
  EXPECT_EQ(upfront.processed_end, 34u);
  EXPECT_EQ(upfront.pending_at_start, 17u);
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectSameArrivalRun(RunArrivals(/*stream=*/true, threads), upfront);
    if (threads > 1) {
      ExpectSameArrivalRun(RunArrivals(/*stream=*/false, threads), upfront);
    }
  }

  // Equal-time arrivals to descending lanes run in lane order.
  const std::vector<Logged> first(upfront.global.begin(),
                                  upfront.global.begin() + 4);
  EXPECT_EQ(first, (std::vector<Logged>{{Ms(1), 103},
                                        {Ms(1), 102},
                                        {Ms(1), 101},
                                        {Ms(1), 100}}));
  // At (9 ms, lane 0) the arrival's reserved sequence number precedes the
  // harness event scheduled at runtime for the same instant and lane.
  const std::vector<Logged> harness = {{Ms(2), 104},  {Ms(5), 1},
                                       {Ms(9), 107},  {Ms(9), 2},
                                       {Ms(20), 111}, {Us(40300), 114}};
  EXPECT_EQ(upfront.lanes[0], harness);
  // The 40.6 ms arrival on lane 2 runs after all four lane-0 arrivals.
  EXPECT_EQ(std::count(upfront.lanes[2].begin(), upfront.lanes[2].end(),
                       Logged{Us(40600), 40115}),
            1);
  // The stop at 15 ms leaves the six arrivals from 20 ms on undrawn.
  EXPECT_EQ(upfront.now_mid, Ms(15));
  EXPECT_EQ(upfront.pending_mid, 6u);
}

TEST(Processor, BacklogReflectsQueue) {
  Simulation simulation;
  Processor cpu(simulation, 1);
  cpu.Submit(Ms(10), [] {});
  cpu.Submit(Ms(10), [] {});
  EXPECT_EQ(cpu.Backlog(), Ms(20));
  simulation.RunUntilIdle();
  EXPECT_EQ(cpu.Backlog(), 0u);
}

}  // namespace
}  // namespace orderless::sim
