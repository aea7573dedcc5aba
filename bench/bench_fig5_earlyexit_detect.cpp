// Fig. 5 reproduction: the split Tiny/Full early-exit vehicle detector.
//
// The figure's claim: run Tiny locally; when its best detection score is
// below a threshold, ship the branch feature map to the analysis server for
// the full model. This bench trains the split detector on synthetic vehicle
// frames, then sweeps the exit threshold and reports accuracy, detection
// precision/recall, offload fraction, bytes shipped per 1000 frames, and
// mean per-frame latency on the fog topology. Expected shape: accuracy and
// offloads rise together with the threshold; a mid threshold recovers most
// of the full model's accuracy at a fraction of the offloads.

// With --json[=path] the bench instead measures the eager layer-by-layer
// inference path against the planned arena-backed session on the
// single-image local-exit workload and merges the numbers into
// BENCH_infer.json (latency, throughput, heap allocations per inference,
// peak arena bytes) — the acceptance evidence for the inference engine.

#include <benchmark/benchmark.h>

#include <vector>

#include "apps/vehicle_app.h"
#include "bench_util.h"
#include "fog/fog.h"
#include "infer_json.h"

namespace {

using namespace metro;

constexpr int kTrainSteps = 220;
constexpr int kEvalFrames = 150;

int g_train_steps = kTrainSteps;  // --json mode trains fewer steps

apps::VehicleDetectionApp& TrainedApp() {
  static auto* app = [] {
    zoo::DetectorConfig config;
    auto* a = new apps::VehicleDetectionApp(config, 2026);
    std::printf("[training split detector: %d steps ...]\n", g_train_steps);
    a->Train(g_train_steps, 16);
    return a;
  }();
  return *app;
}

void ThresholdSweep() {
  auto& app = TrainedApp();
  bench::Table table({"exit threshold", "offload %", "top-cls acc", "recall",
                      "precision", "mean IoU", "bytes/1k frames",
                      "mean lat (ms)"});

  for (const float threshold :
       {0.0f, 0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.7f, 0.9f, 1.01f}) {
    const auto eval = app.Evaluate(kEvalFrames, threshold);

    // Price the offloads on the Fig. 3 fog topology.
    fog::FogConfig fog_config;
    fog_config.num_edges = 8;
    fog::FogTopology topo(fog_config);
    std::vector<fog::WorkItem> items;
    Rng gate(7);
    const auto& det = app.detector();
    for (int i = 0; i < kEvalFrames; ++i) {
      fog::WorkItem item;
      item.id = std::uint64_t(i);
      item.edge = i % fog_config.num_edges;
      item.arrival = TimeNs(i) * 66 * kMillisecond;
      item.raw_bytes = std::uint64_t(det.config().image_size) *
                       det.config().image_size * 3 * 4;
      item.feature_bytes = det.FeatureMapBytes();
      item.local_macs = det.StemMacs(1) + det.TinyHeadMacs(1);
      item.server_macs = det.FullHeadMacs(1);
      item.local_exit = !gate.Bernoulli(eval.offload_fraction);
      items.push_back(item);
    }
    const auto fog_result = fog::RunEarlyExitPipeline(topo, std::move(items));

    const double bytes_per_1k =
        eval.offload_fraction * double(det.FeatureMapBytes()) * 1000.0;
    table.AddRow({bench::Fmt(threshold, 2),
                  bench::Fmt(eval.offload_fraction * 100, 1),
                  bench::Fmt(eval.classification_accuracy, 3),
                  bench::Fmt(eval.recall, 3), bench::Fmt(eval.precision, 3),
                  bench::Fmt(eval.mean_iou, 3),
                  bench::FmtBytes(std::uint64_t(bytes_per_1k)),
                  bench::Fmt(fog_result.mean_latency_ms, 2)});
  }
  table.Print(
      "Fig. 5: exit-threshold sweep of the split detector "
      "(tiny head local, full head on analysis server)");

  // Compute-cost context for the split (why the exit pays).
  bench::Table costs({"stage", "MACs/frame", "output bytes"});
  const auto& det = app.detector();
  costs.AddRow({"shared stem (local)", bench::FmtInt(std::int64_t(det.StemMacs(1))),
                bench::FmtBytes(det.FeatureMapBytes())});
  costs.AddRow({"tiny head (local)", bench::FmtInt(std::int64_t(det.TinyHeadMacs(1))), "-"});
  costs.AddRow({"full head (server)", bench::FmtInt(std::int64_t(det.FullHeadMacs(1))), "-"});
  costs.Print("Fig. 5: per-stage compute of the split architecture");
}

void BM_TinyInference(benchmark::State& state) {
  auto& app = TrainedApp();
  auto frame = app.generator().Generate(1);
  const auto& config = app.detector().config();
  const auto batch = frame.image.Reshape(
      {1, config.image_size, config.image_size, config.channels});
  for (auto _ : state) {
    auto result = app.ProcessFrame(batch, 0.0f);  // never offload
    benchmark::DoNotOptimize(result.tiny_confidence);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TinyInference);

void BM_FullInference(benchmark::State& state) {
  auto& app = TrainedApp();
  auto frame = app.generator().Generate(1);
  const auto& config = app.detector().config();
  const auto batch = frame.image.Reshape(
      {1, config.image_size, config.image_size, config.channels});
  for (auto _ : state) {
    auto result = app.ProcessFrame(batch, 1.01f);  // always offload
    benchmark::DoNotOptimize(result.detections.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullInference);

// Eager-vs-planned comparison on the Fig. 5 single-image local-exit
// workload (stem + tiny head + gate + decode + NMS), written to JSON.
int RunJsonMode(const std::string& path) {
  auto& app = TrainedApp();
  auto& det = app.detector();
  const auto& config = det.config();
  constexpr int kIters = 300;
  // One distinct generated frame per timed call, for both paths, so the
  // timing covers what changes from frame to frame (activation signs and
  // the branches and gate decisions they drive), not one frame repeated.
  std::vector<nn::Tensor> frames;
  frames.reserve(kIters);
  for (int i = 0; i < kIters; ++i) {
    frames.push_back(app.generator().Generate(1).image.Reshape(
        {1, config.image_size, config.image_size, config.channels}));
  }
  std::size_t next = 0;
  const auto next_frame = [&]() -> const nn::Tensor& {
    return frames[next++ % frames.size()];
  };

  // Eager path: Layer::Forward, one heap-allocated activation per layer
  // (the same ForwardInto kernels the session runs).
  const auto eager = bench_json::Measure(20, kIters, [&] {
    nn::Tensor stem = det.Stem(next_frame(), false);
    nn::Tensor tiny = det.TinyHead(stem, false);
    const float conf = det.Confidence(tiny, 0);
    auto dets = zoo::Nms(det.Decode(tiny, 0, 0.1f), 0.4f, 0.1f);
    benchmark::DoNotOptimize(conf);
    benchmark::DoNotOptimize(dets.size());
  });

  // Planned session path: same math, arena-backed (threshold 0 never
  // offloads, matching the eager loop above).
  next = 0;
  const auto planned = bench_json::Measure(20, kIters, [&] {
    auto result = app.ProcessFrame(next_frame(), 0.0f);
    benchmark::DoNotOptimize(result.tiny_confidence);
    benchmark::DoNotOptimize(result.detections.size());
  });

  const double speedup =
      planned.latency_ms > 0 ? eager.latency_ms / planned.latency_ms : 0;
  const double alloc_reduction =
      planned.heap_allocs_per_call > 0
          ? eager.heap_allocs_per_call / planned.heap_allocs_per_call
          : eager.heap_allocs_per_call;

  std::ostringstream os;
  os << "{\n    \"train_steps\": " << g_train_steps
     << ",\n    \"iters\": " << kIters
     << ",\n    \"eager\": " << bench_json::PathJson(eager)
     << ",\n    \"planned\": " << bench_json::PathJson(planned)
     << ",\n    \"peak_arena_bytes\": " << app.session().arena().peak_bytes()
     << ",\n    \"latency_speedup\": " << bench_json::Num(speedup)
     << ",\n    \"alloc_reduction\": " << bench_json::Num(alloc_reduction)
     << "\n  }";
  bench_json::MergeInferJson(path, "fig5_earlyexit_detect", os.str());

  std::printf(
      "fig5 local-exit: eager %.3f ms (%.1f allocs/call) -> planned %.3f ms "
      "(%.1f allocs/call); speedup %.2fx, alloc reduction %.1fx, "
      "peak arena %zu bytes -> %s\n",
      eager.latency_ms, eager.heap_allocs_per_call, planned.latency_ms,
      planned.heap_allocs_per_call, speedup, alloc_reduction,
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
  ThresholdSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
