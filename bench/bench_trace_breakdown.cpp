// Trace-breakdown bench: where does the Fig. 3 latency go?
//
// Runs the resilient fog pipeline with the span collector attached, on
// simulated time, healthy and under a scripted analysis-server outage. For
// each run it prints the span-derived per-stage p50/p95/p99 table and checks
// the accounting invariant the tracing layer is built around: per-trace
// stage durations must sum to the measured end-to-end latency (within 5%;
// on the simulator they agree exactly). The chaos run additionally shows
// degraded traces and the breaker's transition events riding in the same
// span stream. A final microbenchmark measures the collector's overhead on
// the simulation itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "fog/fog.h"
#include "obs/trace.h"
#include "resilience/chaos.h"
#include "util/rng.h"

namespace {

using namespace metro;
using resilience::chaos::FaultKind;
using resilience::chaos::FaultPlan;
using resilience::chaos::FaultTargets;

fog::FogConfig Topology() {
  fog::FogConfig config;
  config.num_edges = 16;  // 4 fogs -> 2 analysis servers
  return config;
}

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
      items.push_back(item);
    }
  }
  return items;
}

FaultPlan ServerOutagePlan(TimeNs from, TimeNs until) {
  FaultPlan plan;
  fog::FogTopology probe(Topology());
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

// Runs the pipeline with tracing and prints the stage table plus the
// stage-sum / end-to-end reconciliation check.
void TracedRun(bool chaos) {
  fog::FogTopology topo(Topology());
  if (chaos) {
    auto plan = ServerOutagePlan(kSecond, 3 * kSecond);
    FaultTargets targets;
    targets.fog = &topo;
    plan.ScheduleOn(topo.sim(), targets);
  }
  obs::SpanCollector spans(topo.sim().clock());
  const auto items = MakeWorkload(topo.config(), 60, 42);
  const auto result = fog::RunResilientPipeline(topo, items, &spans);

  bench::Table table({"stage", "count", "mean (ms)", "p50 (ms)", "p95 (ms)",
                      "p99 (ms)"});
  for (const auto& st : spans.StageBreakdown()) {
    table.AddRow({st.stage, bench::FmtInt(st.count), bench::Fmt(st.mean_ms, 3),
                  bench::Fmt(st.p50_ms, 3), bench::Fmt(st.p95_ms, 3),
                  bench::Fmt(st.p99_ms, 3)});
  }
  table.Print(chaos ? "Trace breakdown B: server outage t=[1s,3s) "
                      "(16 edges, 960 frames)"
                    : "Trace breakdown A: healthy run (16 edges, 960 frames)");

  // The invariant: stage spans partition each trace, so per-trace stage
  // sums must reconcile with the trace's end-to-end extent.
  double stage_ms = 0, e2e_ms = 0;
  std::int64_t traces = 0, degraded = 0, retried = 0, worst_off = 0;
  for (const auto& t : spans.Traces()) {
    if (t.stage_total == 0) continue;  // run-level breaker-event trace
    stage_ms += double(t.stage_total) / kMillisecond;
    e2e_ms += double(t.total()) / kMillisecond;
    worst_off = std::max<std::int64_t>(
        worst_off, std::abs(std::int64_t(t.total() - t.stage_total)));
    ++traces;
    if (t.degraded) ++degraded;
    if (t.retried) ++retried;
  }
  const double off = e2e_ms == 0 ? 0 : std::abs(stage_ms - e2e_ms) / e2e_ms;
  std::printf("reconciliation: %lld traces, stage sums %.1f ms vs e2e "
              "%.1f ms (off by %.3f%%, worst trace %.3f ms) -- %s within 5%%\n",
              (long long)traces, stage_ms, e2e_ms, 100.0 * off,
              double(worst_off) / kMillisecond,
              off <= 0.05 ? "MET" : "MISSED");
  std::printf("annotations: %lld degraded traces (pipeline reported %lld), "
              "%lld retried; send retries %lld\n\n",
              (long long)degraded, (long long)result.items_degraded,
              (long long)retried, (long long)result.send_retries);
  if (chaos) {
    std::printf("%s\n", spans.CriticalPathReport().c_str());
  }
}

// Collector overhead on the simulation: same workload with and without the
// tracer attached.
void BM_ResilientPipeline(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  for (auto _ : state) {
    fog::FogTopology topo(Topology());
    obs::SpanCollector spans(topo.sim().clock());
    const auto result = fog::RunResilientPipeline(
        topo, MakeWorkload(topo.config(), 60, 42), traced ? &spans : nullptr);
    benchmark::DoNotOptimize(result.items_offloaded);
  }
  state.SetItemsProcessed(state.iterations() * 960);
  state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_ResilientPipeline)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  TracedRun(/*chaos=*/false);
  TracedRun(/*chaos=*/true);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
