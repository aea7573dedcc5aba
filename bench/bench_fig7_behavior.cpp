// Fig. 7 reproduction: the split ResNet+LSTM behavior recognizer with an
// entropy-gated early exit.
//
// Trains the joint two-exit model on synthetic action clips, then sweeps
// the entropy threshold and reports gated accuracy, offload fraction, and
// the exit-1 / exit-2 accuracy floor and ceiling. Expected shape: at
// threshold 0 everything offloads (accuracy = exit-2 ceiling); raising the
// threshold keeps more clips local, trading a little accuracy for large
// offload savings; somewhere in between the gated accuracy tracks the
// ceiling at well under 100% offloads.

// With --json[=path] the bench instead measures the eager local/server
// inference halves against the planned arena-backed session on a single
// clip and merges the numbers into BENCH_infer.json.

#include <benchmark/benchmark.h>

#include "apps/behavior_app.h"
#include "bench_util.h"
#include "fog/fog.h"
#include "infer_json.h"

namespace {

using namespace metro;

constexpr int kTrainSteps = 160;
constexpr int kEvalClips = 150;

int g_train_steps = kTrainSteps;  // --json mode trains fewer steps

apps::BehaviorRecognitionApp& TrainedApp() {
  static auto* app = [] {
    zoo::BehaviorConfig config;
    auto* a = new apps::BehaviorRecognitionApp(config, 1276);
    std::printf("[training split behavior net: %d steps ...]\n",
                g_train_steps);
    a->Train(g_train_steps, 12);
    return a;
  }();
  return *app;
}

void EntropySweep() {
  auto& app = TrainedApp();
  bench::Table table({"entropy threshold", "offload %", "gated acc",
                      "exit-1 acc", "exit-2 acc", "bytes/clip shipped",
                      "mean lat (ms)"});
  for (const float threshold :
       {0.0f, 0.1f, 0.25f, 0.5f, 0.75f, 1.0f, 1.3f, 1.61f}) {
    const auto eval = app.Evaluate(kEvalClips, threshold);

    fog::FogConfig fog_config;
    fog_config.num_edges = 8;
    fog::FogTopology topo(fog_config);
    std::vector<fog::WorkItem> items;
    Rng gate(9);
    const auto& model = app.model();
    const auto& config = app.model().config();
    for (int i = 0; i < kEvalClips; ++i) {
      fog::WorkItem item;
      item.id = std::uint64_t(i);
      item.edge = i % fog_config.num_edges;
      item.arrival = TimeNs(i) * 200 * kMillisecond;
      item.raw_bytes = std::uint64_t(config.clip_length) * config.frame_size *
                       config.frame_size * config.channels * 4;
      item.feature_bytes = model.FeatureMapBytes();
      item.local_macs = model.LocalMacs();
      item.server_macs = model.ServerMacs();
      item.local_exit = !gate.Bernoulli(eval.offload_fraction);
      items.push_back(item);
    }
    const auto fog_result = fog::RunEarlyExitPipeline(topo, std::move(items));

    table.AddRow(
        {bench::Fmt(threshold, 2), bench::Fmt(eval.offload_fraction * 100, 1),
         bench::Fmt(eval.accuracy, 3), bench::Fmt(eval.exit1_accuracy, 3),
         bench::Fmt(eval.exit2_accuracy, 3),
         bench::FmtBytes(std::uint64_t(eval.offload_fraction *
                                       double(model.FeatureMapBytes()))),
         bench::Fmt(fog_result.mean_latency_ms, 2)});
  }
  table.Print(
      "Fig. 7: entropy-threshold sweep of the split ResNet+LSTM recognizer "
      "(exit 1 on local device, exit 2 on analysis server)");

  bench::Table costs({"stage", "MACs/clip", "tensor bytes"});
  const auto& model = app.model();
  const auto& config = model.config();
  costs.AddRow({"raw clip (edge->fog)", "-",
                bench::FmtBytes(std::uint64_t(config.clip_length) *
                                config.frame_size * config.frame_size *
                                config.channels * 4)});
  costs.AddRow({"block1+LSTM1+FC1 (local)",
                bench::FmtInt(std::int64_t(model.LocalMacs())),
                bench::FmtBytes(model.FeatureMapBytes())});
  costs.AddRow({"blocks2-3+LSTM2+FC2 (server)",
                bench::FmtInt(std::int64_t(model.ServerMacs())), "-"});
  costs.Print("Fig. 7: per-stage compute/bytes of the split architecture");
}

void PerClassBreakdown() {
  auto& app = TrainedApp();
  bench::Table table({"behavior class", "clips", "gated acc", "offload %"});
  for (int cls = 0; cls < app.model().config().num_classes; ++cls) {
    int hits = 0, offloads = 0;
    const int n = 40;
    for (int i = 0; i < n; ++i) {
      const auto clip = app.generator().Generate(cls);
      const auto pred = app.model().Predict(clip, 0.5f);
      if (pred.label == cls) ++hits;
      if (pred.used_server) ++offloads;
    }
    table.AddRow({std::string(datagen::BehaviorName(datagen::BehaviorClass(cls))),
                  bench::FmtInt(n), bench::Fmt(double(hits) / n, 3),
                  bench::Fmt(double(offloads) / n * 100, 1)});
  }
  table.Print("Fig. 7: per-class gated accuracy at threshold 0.5");
}

void BM_LocalInference(benchmark::State& state) {
  auto& app = TrainedApp();
  const auto clip = app.generator().Generate(1);
  for (auto _ : state) {
    auto pass = app.model().RunLocal(clip);
    benchmark::DoNotOptimize(pass.entropy);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalInference);

void BM_ServerEscalation(benchmark::State& state) {
  auto& app = TrainedApp();
  const auto clip = app.generator().Generate(1);
  auto pass = app.model().RunLocal(clip);
  for (auto _ : state) {
    auto probs = app.model().RunServer(pass.block1_out);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerEscalation);

// Eager-vs-planned comparison on the Fig. 7 single-clip workload: the
// local half (block1 + GAP + LSTM1 + FC1 + entropy) and the server
// escalation (blocks 2-3 + GAP + LSTM2 + FC2), written to JSON.
int RunJsonMode(const std::string& path) {
  auto& app = TrainedApp();
  const auto clip = app.generator().Generate(1);
  constexpr int kIters = 200;

  const auto local_eager = bench_json::Measure(10, kIters, [&] {
    auto pass = app.model().RunLocal(clip);
    benchmark::DoNotOptimize(pass.entropy);
  });
  const auto local_planned = bench_json::Measure(10, kIters, [&] {
    auto pass =
        app.session().RunLocal(tensor::TensorView::OfConst(clip.frames));
    benchmark::DoNotOptimize(pass.entropy.front());
  });

  auto eager_pass = app.model().RunLocal(clip);
  const auto server_eager = bench_json::Measure(10, kIters, [&] {
    auto probs = app.model().RunServer(eager_pass.block1_out);
    benchmark::DoNotOptimize(probs.data());
  });
  auto planned_pass =
      app.session().RunLocal(tensor::TensorView::OfConst(clip.frames));
  const auto server_planned = bench_json::Measure(10, kIters, [&] {
    auto logits = app.session().ServerLogits(planned_pass.block1_out);
    benchmark::DoNotOptimize(logits.data());
  });

  const auto speedup = [](const bench_json::PathMetrics& eager,
                          const bench_json::PathMetrics& planned) {
    return planned.latency_ms > 0 ? eager.latency_ms / planned.latency_ms : 0;
  };
  const auto alloc_cut = [](const bench_json::PathMetrics& eager,
                            const bench_json::PathMetrics& planned) {
    return planned.heap_allocs_per_call > 0
               ? eager.heap_allocs_per_call / planned.heap_allocs_per_call
               : eager.heap_allocs_per_call;
  };

  std::ostringstream os;
  os << "{\n    \"train_steps\": " << g_train_steps
     << ",\n    \"iters\": " << kIters
     << ",\n    \"local_eager\": " << bench_json::PathJson(local_eager)
     << ",\n    \"local_planned\": " << bench_json::PathJson(local_planned)
     << ",\n    \"server_eager\": " << bench_json::PathJson(server_eager)
     << ",\n    \"server_planned\": " << bench_json::PathJson(server_planned)
     << ",\n    \"peak_arena_bytes\": " << app.session().arena().peak_bytes()
     << ",\n    \"local_latency_speedup\": "
     << bench_json::Num(speedup(local_eager, local_planned))
     << ",\n    \"local_alloc_reduction\": "
     << bench_json::Num(alloc_cut(local_eager, local_planned))
     << ",\n    \"server_latency_speedup\": "
     << bench_json::Num(speedup(server_eager, server_planned))
     << ",\n    \"server_alloc_reduction\": "
     << bench_json::Num(alloc_cut(server_eager, server_planned)) << "\n  }";
  bench_json::MergeInferJson(path, "fig7_behavior", os.str());

  std::printf(
      "fig7 local: eager %.3f ms (%.1f allocs) -> planned %.3f ms "
      "(%.1f allocs), %.2fx; server: %.3f ms -> %.3f ms, %.2fx; "
      "peak arena %zu bytes -> %s\n",
      local_eager.latency_ms, local_eager.heap_allocs_per_call,
      local_planned.latency_ms, local_planned.heap_allocs_per_call,
      speedup(local_eager, local_planned), server_eager.latency_ms,
      server_planned.latency_ms, speedup(server_eager, server_planned),
      app.session().arena().peak_bytes(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (bench_json::ParseJsonFlag(argc, argv, json_path)) {
    g_train_steps = 40;
    return RunJsonMode(json_path);
  }
  EntropySweep();
  PerClassBreakdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
