// Tests for the resilience layer and the chaos harness: retry policies,
// circuit breaking, retry deadlines, health probes, fault plans, and graceful
// degradation of the fog pipeline under injected failures. Everything runs
// on simulated time, so every schedule here is deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>

#include "core/infrastructure.h"
#include "core/pipeline.h"
#include "fog/fog.h"
#include "ingest/flume.h"
#include "mq/broker_cluster.h"
#include "net/simulator.h"
#include "resilience/chaos.h"
#include "resilience/health.h"
#include "resilience/policy.h"
#include "util/clock.h"
#include "util/rng.h"

namespace metro {
namespace {

using resilience::BreakerConfig;
using resilience::CircuitBreaker;
using resilience::HealthRegistry;
using resilience::RetryConfig;
using resilience::RetryPolicy;
using resilience::chaos::FaultEvent;
using resilience::chaos::FaultKind;
using resilience::chaos::FaultPlan;
using resilience::chaos::FaultTargets;

FaultEvent Event(TimeNs at, FaultKind kind, int index,
                 const std::string& topic = "") {
  FaultEvent e;
  e.at = at;
  e.kind = kind;
  e.index = index;
  e.topic = topic;
  return e;
}

// ---------------------------------------------------------------- Retry

TEST(RetryPolicyTest, RetriesTransientFailuresUntilSuccess) {
  SimClock clock;
  RetryConfig config;
  config.max_attempts = 5;
  config.initial_backoff = kMillisecond;
  RetryPolicy policy(config, clock);
  int calls = 0;
  const Status st = policy.Run([&]() -> Status {
    if (++calls < 3) return UnavailableError("transient");
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(policy.retries(), 2);
  EXPECT_GT(clock.Now(), 0);  // backoff waits consumed simulated time
}

TEST(RetryPolicyTest, TerminalErrorsAreNotRetried) {
  SimClock clock;
  RetryPolicy policy({}, clock);
  int calls = 0;
  const Status st = policy.Run([&]() -> Status {
    ++calls;
    return NotFoundError("gone");
  });
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.Now(), 0);
}

TEST(RetryPolicyTest, ResourceExhaustedRetriesOnlyWhenOptedIn) {
  // Backpressure (kResourceExhausted) is terminal by default: most callers
  // should shed load, not pile retries onto a full queue.
  SimClock clock;
  int calls = 0;
  const auto flaky = [&]() -> Status {
    if (++calls < 3) return ResourceExhaustedError("backlog at bound");
    return Status::Ok();
  };
  RetryPolicy no_opt_in({}, clock);
  calls = 0;
  EXPECT_EQ(no_opt_in.Run(flaky).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 1);

  // Buffering producers (ingest agents) opt in and wait the bound out.
  RetryConfig config;
  config.retry_resource_exhausted = true;
  config.initial_backoff = kMillisecond;
  RetryPolicy opted_in(config, clock);
  calls = 0;
  EXPECT_TRUE(opted_in.Run(flaky).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(opted_in.retries(), 2);
}

TEST(RetryPolicyTest, ExhaustedAttemptsReturnLastError) {
  SimClock clock;
  RetryConfig config;
  config.max_attempts = 3;
  RetryPolicy policy(config, clock);
  int calls = 0;
  const auto result = policy.Run([&]() -> Result<int> {
    ++calls;
    return UnavailableError("attempt " + std::to_string(calls));
  });
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("attempt 3"), std::string::npos);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, DeadlineBoundsTheRetrySchedule) {
  SimClock clock;
  RetryConfig config;
  config.max_attempts = 100;
  config.initial_backoff = 10 * kMillisecond;
  config.multiplier = 1.0;
  config.jitter = 0.0;
  config.deadline = 35 * kMillisecond;
  RetryPolicy policy(config, clock);
  int calls = 0;
  const Status st = policy.Run([&]() -> Status {
    ++calls;
    return UnavailableError("down");
  });
  // Attempts at t=0,10,20,30ms; the next would land at 40 > 35.
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_LE(clock.Now(), config.deadline);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  SimClock clock;
  RetryConfig config;
  config.initial_backoff = kMillisecond;
  config.max_backoff = 4 * kMillisecond;
  config.multiplier = 2.0;
  config.jitter = 0.25;
  RetryPolicy policy(config, clock);
  const TimeNs b1 = policy.BackoffFor(1);
  const TimeNs b4 = policy.BackoffFor(4);  // 8ms uncapped -> capped at 4ms
  EXPECT_GE(b1, TimeNs(0.75 * kMillisecond));
  EXPECT_LE(b1, TimeNs(1.25 * kMillisecond));
  EXPECT_LE(b4, TimeNs(1.25 * 4 * kMillisecond));
  EXPECT_GE(b4, TimeNs(0.75 * 4 * kMillisecond));
}

// ---------------------------------------------------------------- Breaker

TEST(CircuitBreakerTest, FullStateMachineOnSimulatedTime) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown = 100 * kMillisecond;
  CircuitBreaker breaker(config, clock);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // fast rejection while open
  EXPECT_EQ(breaker.rejected(), 1);

  // Half-open after the cool-down; the probe succeeds and closes it within
  // a single cool-down window.
  clock.Advance(config.cooldown);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // only one probe admitted
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, FailedProbeReopensAndRestartsCooldown) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = 50 * kMillisecond;
  CircuitBreaker breaker(config, clock);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.Advance(config.cooldown);
  EXPECT_TRUE(breaker.Allow());  // half-open probe
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // cool-down restarted
  clock.Advance(config.cooldown);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, RunWrapperCountsOnlyRetryableFailures) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 2;
  CircuitBreaker breaker(config, clock);
  // Terminal errors pass through without tripping the breaker.
  for (int i = 0; i < 5; ++i) {
    const Status st = breaker.Run([] { return NotFoundError("no"); });
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 2; ++i) {
    (void)breaker.Run([] { return UnavailableError("down"); });
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  const Status st = breaker.Run([] { return Status::Ok(); });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);  // rejected, fn not run
}

// ---------------------------------------------------------------- Health

TEST(HealthRegistryTest, ProbesReportPerComponentStatus) {
  HealthRegistry registry;
  bool dfs_ok = true;
  registry.Register("dfs", [&]() -> Status {
    if (dfs_ok) return Status::Ok();
    return UnavailableError("2 under-replicated blocks");
  });
  registry.Register("mq", [] { return Status::Ok(); });
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.AllHealthy());
  EXPECT_TRUE(registry.Check("dfs").ok());
  EXPECT_EQ(registry.Check("nope").code(), StatusCode::kNotFound);

  dfs_ok = false;
  EXPECT_FALSE(registry.AllHealthy());
  const auto all = registry.CheckAll();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].component, "dfs");
  EXPECT_EQ(all[0].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(all[1].status.ok());
  EXPECT_NE(registry.Report().find("under-replicated"), std::string::npos);

  registry.Unregister("dfs");
  EXPECT_TRUE(registry.AllHealthy());
}

TEST(InfrastructureHealthTest, BuiltInProbesSeeInjectedFaults) {
  SimClock clock;
  core::InfrastructureConfig config;
  config.dfs_datanodes = 4;
  config.dfs.replication = 3;
  config.fog.num_edges = 4;
  config.fog.edges_per_fog = 2;
  config.fog.fogs_per_server = 2;
  core::Cyberinfrastructure infra(config, clock);
  EXPECT_TRUE(infra.health().AllHealthy());

  ASSERT_TRUE(infra.storage().Create("/f", std::string(4096, 'x')).ok());
  infra.storage().node(0).Kill();
  infra.storage().node(1).Kill();
  EXPECT_EQ(infra.health().Check("dfs").code(), StatusCode::kUnavailable);

  auto& fog = infra.fog();
  ASSERT_TRUE(fog.sim()
                  .SetLinkUp(fog.fog_node(0), fog.server_of_fog_index(0), false)
                  .ok());
  EXPECT_EQ(infra.health().Check("fog.server").code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(infra.health().AllHealthy());

  infra.storage().node(0).Revive();
  infra.storage().node(1).Revive();
  EXPECT_TRUE(infra.health().Check("dfs").ok());
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, AppliesEventsUpToNowExactlyOnce) {
  SimClock clock;
  mq::BrokerCluster broker(clock, {.nodes = 1, .replication_factor = 1});
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  FaultPlan plan;
  plan.Add(Event(20 * kMillisecond, FaultKind::kMqPartitionUp, 0, "t"));
  plan.Add(Event(10 * kMillisecond, FaultKind::kMqPartitionDown, 0, "t"));
  FaultTargets targets;
  targets.mq_cluster = &broker;

  EXPECT_EQ(plan.ApplyUpTo(5 * kMillisecond, targets), 0);
  EXPECT_EQ(broker.LeaderOf("t", 0).value(), 0);
  EXPECT_EQ(plan.NextAt(), 10 * kMillisecond);

  EXPECT_EQ(plan.ApplyUpTo(10 * kMillisecond, targets), 1);
  EXPECT_EQ(broker.LeaderOf("t", 0).value(), -1);  // no replica to fail to
  EXPECT_EQ(plan.ApplyUpTo(10 * kMillisecond, targets), 0);  // fires once

  EXPECT_EQ(plan.ApplyUpTo(25 * kMillisecond, targets), 1);
  EXPECT_EQ(broker.LeaderOf("t", 0).value(), 0);
  EXPECT_EQ(plan.applied(), 2u);
  EXPECT_EQ(plan.NextAt(), -1);
}

TEST(FaultPlanTest, ClusterRetargetsPartitionFaultsToPreferredLeader) {
  SimClock clock;
  mq::BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const int preferred = *cluster.PreferredLeader("t", 0);

  FaultPlan plan;
  plan.Add(Event(10 * kMillisecond, FaultKind::kMqPartitionDown, 0, "t"));
  plan.Add(Event(20 * kMillisecond, FaultKind::kMqPartitionUp, 0, "t"));
  FaultTargets targets;
  targets.mq_cluster = &cluster;

  EXPECT_EQ(plan.ApplyUpTo(10 * kMillisecond, targets), 1);
  EXPECT_FALSE(cluster.NodeUp(preferred).value());
  // Against the cluster the partition fault is a leader kill, and a leader
  // kill is a failover, not an outage: a surviving replica took over.
  const auto view = *cluster.View("t", 0);
  EXPECT_NE(view.leader, preferred);
  EXPECT_GE(view.leader, 0);

  EXPECT_EQ(plan.ApplyUpTo(25 * kMillisecond, targets), 1);
  EXPECT_TRUE(cluster.NodeUp(preferred).value());
}

TEST(FaultPlanTest, ClusterNodeKillReviveRoundTrips) {
  SimClock clock;
  mq::BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  FaultPlan plan;
  plan.Add(Event(kMillisecond, FaultKind::kMqNodeKill, 1));
  plan.Add(Event(2 * kMillisecond, FaultKind::kMqNodeRevive, 1));
  FaultTargets targets;
  targets.mq_cluster = &cluster;

  EXPECT_EQ(plan.ApplyUpTo(kMillisecond, targets), 1);
  EXPECT_FALSE(cluster.NodeUp(1).value());
  EXPECT_EQ(plan.ApplyUpTo(2 * kMillisecond, targets), 1);
  EXPECT_TRUE(cluster.NodeUp(1).value());
  EXPECT_TRUE(cluster.Probe().ok());
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministicAndPaired) {
  dfs::Cluster cluster(3, {});
  SimClock clock;
  mq::BrokerCluster broker(clock, {.nodes = 1, .replication_factor = 1});
  ASSERT_TRUE(broker.CreateTopic("frames", 2).ok());
  fog::FogConfig fog_config;
  fog_config.num_edges = 4;
  fog_config.edges_per_fog = 2;
  fog_config.fogs_per_server = 2;
  fog::FogTopology topo(fog_config);
  FaultTargets targets;
  targets.dfs = &cluster;
  targets.mq_cluster = &broker;
  targets.fog = &topo;
  const TimeNs horizon = kSecond;

  const auto a = FaultPlan::Random(0.8, horizon, targets, {"frames"}, 7);
  const auto b = FaultPlan::Random(0.8, horizon, targets, {"frames"}, 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a.size() % 2, 0u);  // every fault has its recovery
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].index, b.events()[i].index);
    EXPECT_GE(a.events()[i].at, 0);
    EXPECT_LT(a.events()[i].at, horizon);
  }
  // Events come out sorted by timestamp.
  EXPECT_TRUE(std::is_sorted(
      a.events().begin(), a.events().end(),
      [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; }));
  EXPECT_EQ(FaultPlan::Random(0.0, horizon, targets, {"frames"}, 7).size(), 0u);
}

TEST(FaultPlanTest, ScheduleOnDrivesSimulatorFaults) {
  fog::FogConfig config;
  config.num_edges = 2;
  config.edges_per_fog = 2;
  config.fogs_per_server = 1;
  fog::FogTopology topo(config);
  FaultPlan plan;
  plan.Add(Event(10 * kMillisecond, FaultKind::kServerOutage, 0));
  plan.Add(Event(30 * kMillisecond, FaultKind::kServerRecovery, 0));
  FaultTargets targets;
  targets.fog = &topo;
  plan.ScheduleOn(topo.sim(), targets);

  const auto fog_node = topo.fog_node(0);
  const auto server = topo.server(0);
  bool down_mid = true, up_end = false;
  topo.sim().ScheduleAt(20 * kMillisecond, [&] {
    down_mid = !topo.sim().LinkUp(fog_node, server).value();
  });
  topo.sim().ScheduleAt(40 * kMillisecond, [&] {
    up_end = topo.sim().LinkUp(fog_node, server).value();
  });
  topo.sim().RunUntilIdle();
  EXPECT_TRUE(down_mid);
  EXPECT_TRUE(up_end);
}

// ---------------------------------------------------------------- Net faults

TEST(LinkLatencyTest, ScaledLatencyDelaysDelivery) {
  net::Simulator sim;
  const auto a = sim.AddNode({"a", 1e9});
  const auto b = sim.AddNode({"b", 1e9});
  ASSERT_TRUE(sim.Connect(a, b, {1e9, 10 * kMillisecond}).ok());

  TimeNs first = -1;
  ASSERT_TRUE(sim.Send(a, b, 1000, [&] { first = sim.Now(); }).ok());
  sim.RunUntilIdle();
  ASSERT_GE(first, 10 * kMillisecond);

  ASSERT_TRUE(sim.ScaleLinkLatency(a, b, 3.0).ok());
  const TimeNs start = sim.Now();
  TimeNs second = -1;
  ASSERT_TRUE(sim.Send(a, b, 1000, [&] { second = sim.Now(); }).ok());
  sim.RunUntilIdle();
  EXPECT_GE(second - start, 30 * kMillisecond);

  ASSERT_TRUE(sim.ScaleLinkLatency(a, b, 1.0).ok());
  EXPECT_EQ(sim.ScaleLinkLatency(a, 99, 2.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(sim.ScaleLinkLatency(a, b, -1.0).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Fog

fog::FogConfig ChaosFogConfig() {
  fog::FogConfig config;
  config.num_edges = 4;
  config.edges_per_fog = 2;
  config.fogs_per_server = 2;  // 2 fogs -> 1 server
  return config;
}

std::vector<fog::WorkItem> OffloadItems(int n, TimeNs spacing) {
  std::vector<fog::WorkItem> items;
  for (int i = 0; i < n; ++i) {
    fog::WorkItem item;
    item.id = std::uint64_t(i);
    item.edge = i % 4;
    item.arrival = TimeNs(i) * spacing;
    item.raw_bytes = 20'000;
    item.feature_bytes = 8'000;
    item.edge_filter_macs = 10'000;
    item.local_macs = 2'000'000;
    item.server_macs = 20'000'000;
    item.local_exit = false;
    item.local_correct = i % 2 == 0;  // the local answer is right half the time
    item.server_correct = true;
    items.push_back(item);
  }
  return items;
}

void TakeDownServerLinks(fog::FogTopology& topo) {
  for (int f = 0; f < topo.num_fogs(); ++f) {
    ASSERT_TRUE(topo.sim()
                    .SetLinkUp(topo.fog_node(f), topo.server_of_fog_index(f),
                               false)
                    .ok());
  }
}

// bench_chaos_recovery's topology and workload: 16 edges (4 fogs, 2
// servers), ~15 fps per edge, half the frames exit early.
fog::FogConfig ChaosBenchConfig() {
  fog::FogConfig config;
  config.num_edges = 16;
  return config;
}

std::vector<fog::WorkItem> ChaosBenchWorkload(int items_per_edge,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fog::WorkItem> items;
  std::uint64_t id = 0;
  for (int e = 0; e < ChaosBenchConfig().num_edges; ++e) {
    for (int i = 0; i < items_per_edge; ++i) {
      fog::WorkItem item;
      item.id = id++;
      item.edge = e;
      item.arrival = TimeNs(i) * 66 * kMillisecond;
      item.raw_bytes = 24'576;
      item.feature_bytes = 3'072;
      item.edge_filter_macs = 50'000;
      item.local_macs = 4'000'000;
      item.server_macs = 40'000'000;
      item.local_exit = rng.Bernoulli(0.5);
      item.local_correct = rng.Bernoulli(0.88);
      item.server_correct = rng.Bernoulli(0.95);
      items.push_back(item);
    }
  }
  return items;
}

// A PipelineResult pinned as readable counts plus a digest of every field,
// so a mismatch says what moved before it says that something did.
struct ResultPin {
  std::string counts;
  std::uint64_t digest = 0;
};

ResultPin PinOf(const fog::PipelineResult& r) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  mix(r.outcomes.size());
  for (const fog::ItemOutcome& o : r.outcomes) {
    mix(o.id);
    mix(std::uint64_t(o.completed));
    mix(std::uint64_t(o.latency));
    mix(std::uint64_t(o.dropped) | std::uint64_t(o.offloaded) << 1 |
        std::uint64_t(o.degraded) << 2 | std::uint64_t(o.failed) << 3);
    mix(std::uint64_t(o.retries));
  }
  mix(r.traffic.edge_to_fog);
  mix(r.traffic.fog_to_server);
  mix(r.traffic.server_to_cloud);
  for (const std::int64_t c : {r.items_dropped, r.items_local,
                               r.items_offloaded, r.items_degraded,
                               r.items_failed, r.send_retries}) {
    mix(std::uint64_t(c));
  }
  mix_double(r.mean_latency_ms);
  mix_double(r.p99_latency_ms);
  mix_double(r.server_macs_total);

  char counts[256];
  std::snprintf(counts, sizeof(counts),
                "outcomes=%zu dropped=%lld local=%lld offloaded=%lld "
                "degraded=%lld failed=%lld retries=%lld bytes=%llu/%llu/%llu "
                "mean=%.6f p99=%.6f server_macs=%.0f",
                r.outcomes.size(), (long long)r.items_dropped,
                (long long)r.items_local, (long long)r.items_offloaded,
                (long long)r.items_degraded, (long long)r.items_failed,
                (long long)r.send_retries,
                (unsigned long long)r.traffic.edge_to_fog,
                (unsigned long long)r.traffic.fog_to_server,
                (unsigned long long)r.traffic.server_to_cloud,
                r.mean_latency_ms, r.p99_latency_ms, r.server_macs_total);
  return {counts, h};
}

void ExpectPin(const fog::PipelineResult& result, const ResultPin& want) {
  const ResultPin got = PinOf(result);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.digest, want.digest)
      << "pin: {\"" << got.counts << "\", " << got.digest << "ull}";
}

void ExpectSameResult(const fog::PipelineResult& a,
                      const fog::PipelineResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const fog::ItemOutcome& x = a.outcomes[i];
    const fog::ItemOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.id, y.id) << "outcome " << i;
    EXPECT_EQ(x.completed, y.completed) << "outcome " << i;
    EXPECT_EQ(x.latency, y.latency) << "outcome " << i;
    EXPECT_EQ(x.dropped, y.dropped) << "outcome " << i;
    EXPECT_EQ(x.offloaded, y.offloaded) << "outcome " << i;
    EXPECT_EQ(x.degraded, y.degraded) << "outcome " << i;
    EXPECT_EQ(x.failed, y.failed) << "outcome " << i;
    EXPECT_EQ(x.retries, y.retries) << "outcome " << i;
  }
  EXPECT_EQ(a.traffic.edge_to_fog, b.traffic.edge_to_fog);
  EXPECT_EQ(a.traffic.fog_to_server, b.traffic.fog_to_server);
  EXPECT_EQ(a.traffic.server_to_cloud, b.traffic.server_to_cloud);
  EXPECT_EQ(a.items_dropped, b.items_dropped);
  EXPECT_EQ(a.items_local, b.items_local);
  EXPECT_EQ(a.items_offloaded, b.items_offloaded);
  EXPECT_EQ(a.items_degraded, b.items_degraded);
  EXPECT_EQ(a.items_failed, b.items_failed);
  EXPECT_EQ(a.send_retries, b.send_retries);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_EQ(a.server_macs_total, b.server_macs_total);
}

enum class Chain { kBaseline, kResilient };

fog::PipelineResult RunEntryPoint(Chain chain, fog::FogTopology& topo,
                                  const std::vector<fog::WorkItem>& items) {
  if (chain == Chain::kBaseline) return fog::RunEarlyExitPipeline(topo, items);
  return fog::RunResilientPipeline(topo, items);
}

// bench_chaos_recovery's Chaos A: every server loses its fog links for
// t = [1s, 3s).
void ScheduleServerOutage(fog::FogTopology& topo) {
  FaultPlan plan;
  for (int s = 0; s < topo.num_servers(); ++s) {
    plan.Add(Event(kSecond, FaultKind::kServerOutage, s));
    plan.Add(Event(3 * kSecond, FaultKind::kServerRecovery, s));
  }
  FaultTargets targets;
  targets.fog = &topo;
  plan.ScheduleOn(topo.sim(), targets);
}

// Both entry points, pinned bit for bit on the runs their callers make.
const ResultPin kHealthyPin{"outcomes=960 dropped=0 local=453 offloaded=507 "
                            "degraded=0 failed=0 retries=0 "
                            "bytes=23592960/1673472/245760 "
                            "mean=33.135735 p99=34.055327 "
                            "server_macs=20280000000",
                            17258291152339526435ull};

TEST(FogPipelinePinTest, Healthy) {
  const auto items = ChaosBenchWorkload(60, 42);
  for (const Chain chain : {Chain::kBaseline, Chain::kResilient}) {
    fog::FogTopology topo(ChaosBenchConfig());
    ExpectPin(RunEntryPoint(chain, topo, items), kHealthyPin);
  }
}

const ResultPin kServerOutagePin[2] = {
    {"outcomes=960 dropped=0 local=220 offloaded=244 "
     "degraded=0 failed=496 retries=0 "
     "bytes=23592960/805888/118784 "
     "mean=33.135344 p99=34.055327 server_macs=9760000000",
     2270036044882017020ull},
    {"outcomes=960 dropped=0 local=220 offloaded=232 "
     "degraded=508 failed=0 retries=492 "
     "bytes=23592960/769024/115712 "
     "mean=25.523179 p99=34.055327 server_macs=9280000000",
     8572437654747411780ull},
};

TEST(FogPipelinePinTest, ScriptedServerOutage) {
  const auto items = ChaosBenchWorkload(60, 42);
  for (const Chain chain : {Chain::kBaseline, Chain::kResilient}) {
    fog::FogTopology topo(ChaosBenchConfig());
    ScheduleServerOutage(topo);
    ExpectPin(RunEntryPoint(chain, topo, items), kServerOutagePin[int(chain)]);
  }
}

TEST(FogPipelinePinTest, RandomFaultPlans) {
  const auto items = ChaosBenchWorkload(60, 42);
  struct Case {
    double intensity;
    ResultPin want[2];
  };
  const Case cases[] = {
      // This plan holds only fog<->server latency spikes: no item fails or
      // degrades, and both chains return the same, slower, result.
      {0.25,
       {{"outcomes=960 dropped=0 local=453 offloaded=507 "
         "degraded=0 failed=0 retries=0 "
         "bytes=23592960/1673472/245760 "
         "mean=35.680232 p99=62.634176 server_macs=20280000000",
         3291411204471503114ull},
        {"outcomes=960 dropped=0 local=453 offloaded=507 "
         "degraded=0 failed=0 retries=0 "
         "bytes=23592960/1673472/245760 "
         "mean=35.680232 p99=62.634176 server_macs=20280000000",
         3291411204471503114ull}}},
      {0.5,
       {{"outcomes=960 dropped=0 local=405 offloaded=451 "
         "degraded=0 failed=104 retries=0 "
         "bytes=23592960/1489152/219136 "
         "mean=36.211272 p99=77.089068 server_macs=18040000000",
         1182228943889357058ull},
        {"outcomes=960 dropped=0 local=405 offloaded=396 "
         "degraded=159 failed=0 retries=114 "
         "bytes=23592960/1320192/205056 "
         "mean=33.190704 p99=77.001707 server_macs=15840000000",
         2863855479584448792ull}}},
      {0.75,
       {{"outcomes=960 dropped=0 local=392 offloaded=440 "
         "degraded=0 failed=128 retries=0 "
         "bytes=23592960/1452032/212992 "
         "mean=37.273241 p99=91.543961 server_macs=17600000000",
         3436060909322603991ull},
        {"outcomes=960 dropped=0 local=392 offloaded=359 "
         "degraded=209 failed=0 retries=148 "
         "bytes=23592960/1203200/192256 "
         "mean=33.180126 p99=91.456600 server_macs=14360000000",
         15187279909823258569ull}}},
      {1.0,
       {{"outcomes=960 dropped=0 local=344 offloaded=400 "
         "degraded=0 failed=216 retries=0 "
         "bytes=23592960/1316864/190464 "
         "mean=37.824469 p99=105.511493 server_macs=16000000000",
         4686111338952690458ull},
        {"outcomes=960 dropped=0 local=351 offloaded=334 "
         "degraded=275 failed=0 retries=238 "
         "bytes=23592960/1115904/175360 "
         "mean=32.267707 p99=105.198854 server_macs=13360000000",
         5138420815736435429ull}}},
  };
  for (const Case& c : cases) {
    for (const Chain chain : {Chain::kBaseline, Chain::kResilient}) {
      SCOPED_TRACE(testing::Message() << "intensity " << c.intensity
                                      << " chain " << int(chain));
      fog::FogTopology topo(ChaosBenchConfig());
      FaultTargets targets;
      targets.fog = &topo;
      auto plan = FaultPlan::Random(c.intensity, 4 * kSecond, targets, {}, 7);
      plan.ScheduleOn(topo.sim(), targets);
      ExpectPin(RunEntryPoint(chain, topo, items), c.want[int(chain)]);
    }
  }
}

// Edge 0's 20 items fail on either chain. The resilient chain retries each
// one's uplink twice first, and send_retries counts those 40 retries.
TEST(FogPipelinePinTest, EdgeUplinkDown) {
  const auto items = ChaosBenchWorkload(20, 42);
  const ResultPin want[2] = {
      {"outcomes=320 dropped=0 local=152 offloaded=148 "
       "degraded=0 failed=20 retries=0 "
       "bytes=7372800/493568/76800 "
       "mean=33.077162 p99=34.055327 server_macs=5920000000",
       14779791367324950300ull},
      {"outcomes=320 dropped=0 local=152 offloaded=148 "
       "degraded=0 failed=20 retries=40 "
       "bytes=7372800/493568/76800 "
       "mean=33.077162 p99=34.055327 server_macs=5920000000",
       14949746789518326557ull},
  };
  for (const Chain chain : {Chain::kBaseline, Chain::kResilient}) {
    fog::FogTopology topo(ChaosBenchConfig());
    ASSERT_TRUE(
        topo.sim().SetLinkUp(topo.edge(0), topo.fog_of_edge(0), false).ok());
    ExpectPin(RunEntryPoint(chain, topo, items), want[int(chain)]);
  }
}

TEST(FogPipelinePinTest, ResilientSpansDoNotChangeTheResult) {
  // Same run as ScriptedServerOutage's resilient pin, traced.
  const auto items = ChaosBenchWorkload(60, 42);
  fog::FogTopology topo(ChaosBenchConfig());
  ScheduleServerOutage(topo);
  obs::SpanCollector spans(topo.sim().clock());
  ExpectPin(fog::RunResilientPipeline(topo, items, &spans),
            kServerOutagePin[int(Chain::kResilient)]);
  EXPECT_GT(spans.Snapshot().size(), 0u);
}

TEST(ResilientPipelineTest, MatchesBaselineWhenHealthy) {
  for (const std::uint64_t seed : {1, 7, 42, 1234, 99991}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    auto items = ChaosBenchWorkload(30, seed);
    for (fog::WorkItem& item : items) {
      item.dropped_by_edge_filter = item.id % 7 == 3;
    }
    fog::FogTopology baseline_topo(ChaosBenchConfig());
    fog::FogTopology resilient_topo(ChaosBenchConfig());
    const auto baseline =
        RunEntryPoint(Chain::kBaseline, baseline_topo, items);
    const auto resilient =
        RunEntryPoint(Chain::kResilient, resilient_topo, items);
    EXPECT_GT(resilient.items_dropped, 0);
    EXPECT_EQ(resilient.items_degraded, 0);
    EXPECT_EQ(resilient.items_failed, 0);
    EXPECT_EQ(resilient.send_retries, 0);
    ExpectSameResult(baseline, resilient);
  }
  // All-offload items: every answer comes from the server.
  fog::FogTopology topo(ChaosFogConfig());
  const auto items = OffloadItems(12, kMillisecond);
  const auto result = RunEntryPoint(Chain::kResilient, topo, items);
  EXPECT_EQ(result.items_offloaded, 12);
  EXPECT_DOUBLE_EQ(result.Availability(), 1.0);
  EXPECT_DOUBLE_EQ(result.AccuracyOver(items), 1.0);  // server answers
}

TEST(ResilientPipelineTest, EveryItemGetsExactlyOneOutcome) {
  // With the archive tier unreachable, no item may vanish: local exits lose
  // their annotation hop, offloads their cloud hop.
  auto items = OffloadItems(200, kMillisecond);
  for (fog::WorkItem& item : items) {
    item.local_exit = item.id % 2 == 0;
    item.dropped_by_edge_filter = item.id % 8 == 0;
  }
  for (const Chain chain : {Chain::kBaseline, Chain::kResilient}) {
    SCOPED_TRACE(testing::Message() << "chain " << int(chain));
    fog::FogTopology topo(ChaosFogConfig());
    for (int s = 0; s < topo.num_servers(); ++s) {
      ASSERT_TRUE(
          topo.sim().SetLinkUp(topo.server(s), topo.cloud(), false).ok());
    }
    const auto result = RunEntryPoint(chain, topo, items);
    EXPECT_EQ(result.outcomes.size(), items.size());
    EXPECT_EQ(result.items_dropped + result.items_local +
                  result.items_offloaded + result.items_degraded +
                  result.items_failed,
              std::int64_t(items.size()));
    EXPECT_EQ(result.items_dropped, 25);
    EXPECT_EQ(result.items_offloaded, 100);  // the cloud hop is deferred
    // Resilience off fails what the resilient chain serves degraded.
    EXPECT_EQ(chain == Chain::kBaseline ? result.items_failed
                                        : result.items_degraded,
              75);
  }
}

TEST(ResilientPipelineTest, ServerOutageDegradesInsteadOfFailing) {
  // 20ms spacing: the first items burn their retries and trip the breaker,
  // later items arrive after the trip and must fast-degrade on Allow().
  const auto items = OffloadItems(12, 20 * kMillisecond);

  // Baseline: the same outage hard-fails every offload.
  fog::FogTopology baseline_topo(ChaosFogConfig());
  TakeDownServerLinks(baseline_topo);
  const auto baseline = fog::RunEarlyExitPipeline(baseline_topo, items);
  EXPECT_EQ(baseline.items_failed, 12);
  EXPECT_DOUBLE_EQ(baseline.Availability(), 0.0);

  // Resilient: every item falls back to its local answer.
  fog::FogTopology topo(ChaosFogConfig());
  TakeDownServerLinks(topo);
  obs::SpanCollector spans(topo.sim().clock());
  const auto result = fog::RunResilientPipeline(topo, items, &spans);
  EXPECT_EQ(result.items_failed, 0);
  EXPECT_EQ(result.items_offloaded, 0);
  EXPECT_EQ(result.items_degraded, 12);
  EXPECT_DOUBLE_EQ(result.Availability(), 1.0);
  // Degraded items score their local answer: half right by construction.
  EXPECT_DOUBLE_EQ(result.AccuracyOver(items), 0.5);
  // The breaker tripped, so later items degraded without burning retries:
  // their traces carry the fast-path cause.
  int server_unavailable = 0;
  for (const auto& span : spans.Snapshot()) {
    const std::string* cause = span.FindTag("degraded");
    if (span.name == "degrade" && cause != nullptr &&
        *cause == "fog.degraded.server_unavailable") {
      ++server_unavailable;
    }
  }
  EXPECT_GT(server_unavailable, 0);
  EXPECT_GT(result.send_retries, 0);
}

TEST(ResilientPipelineTest, RecoversAfterScriptedOutageEnds) {
  fog::FogTopology topo(ChaosFogConfig());
  FaultPlan plan;
  plan.Add(Event(0, FaultKind::kServerOutage, 0));
  plan.Add(Event(300 * kMillisecond, FaultKind::kServerRecovery, 0));
  FaultTargets targets;
  targets.fog = &topo;
  plan.ScheduleOn(topo.sim(), targets);

  const auto items = OffloadItems(30, 20 * kMillisecond);  // t = 0..580ms
  const auto result = fog::RunResilientPipeline(topo, items);
  EXPECT_EQ(result.items_failed, 0);
  EXPECT_DOUBLE_EQ(result.Availability(), 1.0);
  // Early items degrade during the outage; once the links heal and the
  // breaker's cool-down probe succeeds, offloading resumes.
  EXPECT_GT(result.items_degraded, 0);
  EXPECT_GT(result.items_offloaded, 0);
  EXPECT_EQ(result.items_degraded + result.items_offloaded, 30);
}

TEST(ResilientPipelineTest, EdgeUplinkLossIsTheOnlyHardFailure) {
  fog::FogTopology topo(ChaosFogConfig());
  // Sever edge 0's uplink; its items have no compute tier to fall back to.
  ASSERT_TRUE(
      topo.sim().SetLinkUp(topo.edge(0), topo.fog_of_edge(0), false).ok());
  const auto items = OffloadItems(8, kMillisecond);  // edges 0..3 round-robin
  const auto result = fog::RunResilientPipeline(topo, items);
  EXPECT_EQ(result.items_failed, 2);  // items from edge 0
  EXPECT_EQ(result.items_offloaded, 6);
  EXPECT_LT(result.Availability(), 1.0);
}

// ---------------------------------------------------------------- Ingest

TEST(IngestRetryTest, SinkRetriesWithBackoffThenSucceeds) {
  SimClock clock;
  std::atomic<int> next{0};
  ingest::SourceFn source = [&]() -> std::optional<ingest::Event> {
    if (next.fetch_add(1) >= 6) return std::nullopt;
    return ingest::Event{"k", "v"};
  };
  std::atomic<int> attempts{0};
  ingest::SinkFn sink = [&](const std::vector<ingest::Event>&) -> Status {
    // Two transient failures per batch, then success.
    if (attempts.fetch_add(1) % 3 != 2) return UnavailableError("flaky");
    return Status::Ok();
  };
  ingest::AgentConfig config;
  config.batch_size = 3;
  config.max_sink_retries = 4;
  config.clock = &clock;
  ingest::Agent agent("chaos", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(agent.events_out(), 6);
  EXPECT_EQ(agent.events_dropped(), 0);
  EXPECT_EQ(agent.sink_retries(), 4);  // 2 batches x 2 retried attempts
}

TEST(IngestRetryTest, TerminalSinkErrorDropsWithoutRetrying) {
  SimClock clock;
  std::atomic<int> next{0};
  ingest::SourceFn source = [&]() -> std::optional<ingest::Event> {
    if (next.fetch_add(1) >= 2) return std::nullopt;
    return ingest::Event{"k", "v"};
  };
  std::atomic<int> attempts{0};
  ingest::SinkFn sink = [&](const std::vector<ingest::Event>&) -> Status {
    attempts.fetch_add(1);
    return InvalidArgumentError("malformed batch");
  };
  ingest::AgentConfig config;
  config.batch_size = 2;
  config.max_sink_retries = 5;
  config.clock = &clock;
  ingest::Agent agent("terminal", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(attempts.load(), 1);  // no retry budget spent on a terminal error
  EXPECT_EQ(agent.events_dropped(), 2);
  EXPECT_EQ(agent.sink_retries(), 0);
}

// ---------------------------------------------------------------- Pipeline

TEST(PipelineResilienceTest, ProduceRetriesThroughQuorumLoss) {
  SimClock clock;
  core::CityPipeline pipeline(clock);
  core::CityPipeline::TopicSpec spec;
  spec.topic = "frames";
  spec.partitions = 1;
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());

  // Kill two of the three replicas: the first kill fails the leader over,
  // the second drops the ISR below quorum — the retrying produce still
  // fails, but spent its whole budget waiting for a recovery.
  const auto view = *pipeline.log().View("frames", 0);
  ASSERT_TRUE(pipeline.log().KillNode(view.replicas[0]).ok());
  ASSERT_TRUE(pipeline.log().KillNode(view.replicas[1]).ok());
  const auto nack = pipeline.Produce("frames", "k", "v");
  EXPECT_EQ(nack.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pipeline.Stats().produce_retries, 3);

  // Revival restores quorum; the next produce lands on the failed-over
  // leader without any operator involvement.
  ASSERT_TRUE(pipeline.log().ReviveNode(view.replicas[0]).ok());
  ASSERT_TRUE(pipeline.log().ReviveNode(view.replicas[1]).ok());
  EXPECT_TRUE(pipeline.Produce("frames", "k", "v").ok());
  // Unknown topics are terminal — no retries burned.
  const std::int64_t before = pipeline.Stats().produce_retries;
  EXPECT_EQ(pipeline.Produce("nope", "k", "v").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pipeline.Stats().produce_retries, before);
}

TEST(PipelineResilienceTest, ConsumerSkipsPastRetentionTruncation) {
  SimClock clock;
  core::CityPipeline pipeline(clock);
  core::CityPipeline::TopicSpec spec;
  spec.topic = "frames";
  spec.partitions = 1;
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());

  // Five records age past retention before the consumer ever starts.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipeline.Produce("frames", "k", "v").ok());
  }
  clock.Advance(10 * kSecond);
  EXPECT_EQ(pipeline.log().EnforceRetention(kSecond), 5);
  // Three fresh records the consumer should still deliver.
  store::Document doc;
  doc["x"] = std::int64_t(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        pipeline.Produce("frames", "k", core::EncodeDocument(doc)).ok());
  }

  ASSERT_TRUE(pipeline.Start().ok());
  pipeline.Drain();
  pipeline.Stop();
  const auto stats = pipeline.Stats();
  EXPECT_EQ(stats.records_skipped, 5);  // the truncated offsets
  EXPECT_EQ(stats.records_consumed, 3);
  EXPECT_EQ(stats.documents_stored, 3);
}

}  // namespace
}  // namespace metro
