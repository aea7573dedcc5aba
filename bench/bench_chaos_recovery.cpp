// Chaos-recovery bench: availability under injected faults (Sec. II-B1's
// availability claim, stress-tested).
//
// The headline experiment scripts an analysis-server outage into the fog
// simulation and runs the same workload twice: with resilience off (a
// failed send fails the item) and through the resilience layer (retry +
// circuit breaker + local-answer degradation). The resilient run must keep
// item availability >= 99% — degraded local answers count as answers,
// errors do not — while the baseline collapses for the outage window. A
// second sweep draws seeded random fault plans at rising intensity, and a
// breaker trace shows the open -> half-open -> closed recovery landing
// within one configured cool-down on simulated time.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "fog/fog.h"
#include "resilience/chaos.h"
#include "resilience/policy.h"
#include "util/rng.h"

namespace {

using namespace metro;
using resilience::CircuitBreaker;
using resilience::chaos::FaultKind;
using resilience::chaos::FaultPlan;
using resilience::chaos::FaultTargets;

fog::FogConfig ChaosTopology() {
  fog::FogConfig config;
  config.num_edges = 16;  // 4 fogs -> 2 analysis servers
  return config;
}

// ~15 fps cameras with a fog-side early-exit gate. The correctness flags
// model the paper's split-model accuracy gap: the full (server) model is
// right more often than the local half, so degradation trades accuracy for
// availability instead of dropping items.
std::vector<fog::WorkItem> MakeWorkload(const fog::FogConfig& config,
                                        int items_per_edge,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fog::WorkItem> items;
  std::uint64_t id = 0;
  for (int e = 0; e < config.num_edges; ++e) {
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

FaultPlan ServerOutagePlan(TimeNs from, TimeNs until) {
  FaultPlan plan;
  fog::FogTopology probe(ChaosTopology());  // sized like the real runs
  for (int s = 0; s < probe.num_servers(); ++s) {
    resilience::chaos::FaultEvent down;
    down.at = from;
    down.kind = FaultKind::kServerOutage;
    down.index = s;
    plan.Add(down);
    resilience::chaos::FaultEvent up;
    up.at = until;
    up.kind = FaultKind::kServerRecovery;
    up.index = s;
    plan.Add(up);
  }
  return plan;
}

void ScriptedServerOutage() {
  const TimeNs outage_from = kSecond;
  const TimeNs outage_until = 3 * kSecond;
  const int items_per_edge = 60;  // ~4s of frames per edge

  bench::Table table({"pipeline", "answered", "offloaded", "degraded",
                      "failed", "availability", "accuracy"});
  double resilient_availability = 0;
  double baseline_availability = 0;

  for (const bool resilient : {false, true}) {
    fog::FogTopology topo(ChaosTopology());
    auto plan = ServerOutagePlan(outage_from, outage_until);
    FaultTargets targets;
    targets.fog = &topo;
    plan.ScheduleOn(topo.sim(), targets);
    const auto items = MakeWorkload(topo.config(), items_per_edge, 42);

    fog::PipelineResult result;
    if (resilient) {
      result = fog::RunResilientPipeline(topo, items);
      resilient_availability = result.Availability();
    } else {
      result = fog::RunEarlyExitPipeline(topo, items);
      baseline_availability = result.Availability();
    }
    const std::int64_t answered =
        result.items_local + result.items_offloaded + result.items_degraded;
    table.AddRow({resilient ? "resilient" : "baseline",
                  bench::FmtInt(answered),
                  bench::FmtInt(result.items_offloaded),
                  bench::FmtInt(result.items_degraded),
                  bench::FmtInt(result.items_failed),
                  bench::Fmt(100.0 * result.Availability(), 2) + "%",
                  bench::Fmt(100.0 * result.AccuracyOver(items), 2) + "%"});
  }
  table.Print(
      "Chaos A: scripted analysis-server outage t=[1s,3s) "
      "(16 edges, 960 frames, exit rate 0.5)");
  std::printf("availability target >= 99%% with resilience: %s "
              "(resilient %.2f%%, baseline %.2f%%)\n",
              resilient_availability >= 0.99 ? "MET" : "MISSED",
              100.0 * resilient_availability, 100.0 * baseline_availability);
}

void IntensitySweep() {
  bench::Table table({"intensity", "faults", "baseline avail", "resil avail",
                      "degraded", "retries", "resil accuracy",
                      "resil p99 (ms)"});
  for (const double intensity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const TimeNs horizon = 4 * kSecond;
    double avail[2] = {0, 0};
    std::int64_t degraded = 0, retries = 0;
    double accuracy = 0, p99_ms = 0;
    std::size_t faults = 0;
    for (const bool resilient : {false, true}) {
      fog::FogTopology topo(ChaosTopology());
      FaultTargets targets;
      targets.fog = &topo;
      auto plan = FaultPlan::Random(intensity, horizon, targets, {}, 7);
      faults = plan.size();
      plan.ScheduleOn(topo.sim(), targets);
      const auto items = MakeWorkload(topo.config(), 60, 42);
      fog::PipelineResult result;
      if (resilient) {
        result = fog::RunResilientPipeline(topo, items);
        degraded = result.items_degraded;
        retries = result.send_retries;
        accuracy = result.AccuracyOver(items);
        p99_ms = result.p99_latency_ms;
      } else {
        result = fog::RunEarlyExitPipeline(topo, items);
      }
      avail[resilient ? 1 : 0] = result.Availability();
    }
    table.AddRow({bench::Fmt(intensity, 2),
                  bench::FmtInt(static_cast<long long>(faults)),
                  bench::Fmt(100.0 * avail[0], 2) + "%",
                  bench::Fmt(100.0 * avail[1], 2) + "%",
                  bench::FmtInt(degraded), bench::FmtInt(retries),
                  bench::Fmt(100.0 * accuracy, 2) + "%",
                  bench::Fmt(p99_ms, 1)});
  }
  table.Print("Chaos B: random fault plans at rising intensity (seed 7)");
}

void BreakerRecoveryTrace() {
  SimClock clock;
  resilience::BreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown = 200 * kMillisecond;
  CircuitBreaker breaker(config, clock);

  bench::Table table({"t (ms)", "event", "state"});
  auto row = [&](const char* event) {
    table.AddRow({bench::Fmt(double(clock.Now()) / kMillisecond, 0), event,
                  std::string(resilience::BreakerStateName(breaker.state()))});
  };
  row("start");
  for (int i = 0; i < config.failure_threshold; ++i) {
    breaker.RecordFailure();
    clock.Advance(10 * kMillisecond);
  }
  row("threshold failures recorded");
  const TimeNs tripped_at = clock.Now();
  (void)breaker.Allow();
  row("call rejected while open");
  clock.Advance(config.cooldown);
  (void)breaker.Allow();  // admitted as the half-open probe
  row("cool-down elapsed, probe admitted");
  breaker.RecordSuccess();
  row("probe succeeded");
  const TimeNs recovered_at = clock.Now();
  table.Print("Chaos C: breaker recovery on simulated time");
  std::printf("half-open -> closed %.0f ms after trip "
              "(configured cool-down %.0f ms): %s\n",
              double(recovered_at - tripped_at) / kMillisecond,
              double(config.cooldown) / kMillisecond,
              recovered_at - tripped_at <= config.cooldown + 10 * kMillisecond
                  ? "within cool-down"
                  : "LATE");
}

void BM_ResilientPipelineUnderOutage(benchmark::State& state) {
  for (auto _ : state) {
    fog::FogTopology topo(ChaosTopology());
    auto plan = ServerOutagePlan(kSecond, 3 * kSecond);
    FaultTargets targets;
    targets.fog = &topo;
    plan.ScheduleOn(topo.sim(), targets);
    const auto result =
        fog::RunResilientPipeline(topo, MakeWorkload(topo.config(), 60, 42));
    benchmark::DoNotOptimize(result.items_degraded);
  }
  state.SetItemsProcessed(state.iterations() * 960);
}
BENCHMARK(BM_ResilientPipelineUnderOutage);

}  // namespace

int main(int argc, char** argv) {
  ScriptedServerOutage();
  IntensitySweep();
  BreakerRecoveryTrace();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
