// video_fog: the Fig. 3/5 split detector at the paper's 200-camera scale.
//
// 200 cameras at 15 fps, each at a seeded phase, offer 3,000 frames/s
// open-loop to one thread running zoo::DetectorSession::Detect over
// VehicleDetectionApp's detector (trained 40 steps, seed 2026). An op's
// result is the gated detections; the exit threshold 0.12 offloads about a
// third of the frames to the full head. nn, tensor and zoo do the work; mq
// and store are idle. The recorded gate decisions are then replayed through
// fog::RunEarlyExitPipeline on a 16-edge topology for the per-tier bytes.

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "apps/vehicle_app.h"
#include "fog/fog.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workloads.h"
#include "zoo/session.h"

namespace metrobench {
namespace {

using namespace metro;

constexpr int kCameras = 200;
constexpr double kFps = 15;
constexpr double kWarmupS = 0.5;
constexpr float kExitThreshold = 0.12f;
constexpr int kTrainSteps = 40;
constexpr std::uint64_t kModelSeed = 2026;
/// Distinct frames; camera frames cycle through them (the detector keeps no
/// state between frames, so a repeat costs what a new frame costs).
constexpr int kPoolFrames = 3'000;
constexpr int kCapacityFrames = 10'000;
constexpr int kCapacityChunks = 10;
constexpr int kEdges = 16;

const char* const kOp = "video.op";

struct Frame {
  tensor::Tensor image;  ///< (1, H, W, 3)
  std::vector<zoo::GroundTruthBox> boxes;
};

/// The top detection matches the best-overlapping labelled vehicle
/// (IoU > 0.3) in class: VehicleDetectionApp::Evaluate's accuracy rule.
bool TopClassHit(const std::vector<zoo::Detection>& dets,
                 const std::vector<zoo::GroundTruthBox>& boxes) {
  if (dets.empty()) return false;
  const zoo::Detection& det = dets.front();
  double best_iou = 0;
  int best = -1;
  for (std::size_t g = 0; g < boxes.size(); ++g) {
    zoo::Detection gt;
    gt.cx = boxes[g].cx;
    gt.cy = boxes[g].cy;
    gt.w = boxes[g].w;
    gt.h = boxes[g].h;
    const double iou = zoo::Iou(det, gt);
    if (iou > best_iou) {
      best_iou = iou;
      best = int(g);
    }
  }
  return best >= 0 && best_iou > 0.3 && det.cls == boxes[std::size_t(best)].cls;
}

/// Trained detector plus a planned session over its own arena.
struct Deployment {
  std::unique_ptr<apps::VehicleDetectionApp> app;
  tensor::Workspace arena;
  std::optional<zoo::DetectorSession> session;
};

/// Frames back to back on a fresh session over the same model, timed in
/// chunks; the median chunk rate.
double MeasureCapacity(zoo::SplitDetector& detector,
                       const std::vector<Frame>& pool) {
  tensor::Workspace arena;
  zoo::DetectorSession session(detector, 1, arena);
  constexpr int kPerChunk = kCapacityFrames / kCapacityChunks;
  std::vector<double> rates;
  for (int c = 0; c < kCapacityChunks; ++c) {
    const TimeNs t = Now();
    for (int j = 0; j < kPerChunk; ++j) {
      const Frame& frame = pool[std::size_t(c * kPerChunk + j) % pool.size()];
      (void)session.Detect(tensor::TensorView::OfConst(frame.image),
                           kExitThreshold);
    }
    rates.push_back(kPerChunk / (double(Now() - t) / 1e9));
  }
  return Median(rates);
}

/// Replays the window's gate decisions (ops from `first` on) through the
/// Fig. 3 tiers on a kEdges-edge topology and adds the per-tier bytes.
void AddReplay(RunResult& r, zoo::SplitDetector& det,
               const std::vector<std::pair<TimeNs, int>>& arrivals,
               std::int64_t first, const std::vector<std::uint8_t>& offloaded) {
  const zoo::DetectorConfig& c = det.config();
  fog::FogConfig fog_config;
  fog_config.num_edges = kEdges;
  fog::FogTopology topology(fog_config);
  std::vector<fog::WorkItem> items;
  for (std::size_t i = std::size_t(first); i < arrivals.size(); ++i) {
    fog::WorkItem item;
    item.id = i;
    item.edge = arrivals[i].second % kEdges;
    item.arrival = arrivals[i].first - arrivals[std::size_t(first)].first;
    item.raw_bytes = std::uint64_t(c.image_size) * std::uint64_t(c.image_size) *
                     std::uint64_t(c.channels) * sizeof(float);
    item.feature_bytes = det.FeatureMapBytes();
    item.local_macs = det.StemMacs(1) + det.TinyHeadMacs(1);
    item.server_macs = det.FullHeadMacs(1);
    item.local_exit = !offloaded[i];
    items.push_back(item);
  }
  const double frames = double(items.size());
  const fog::PipelineResult replay =
      fog::RunEarlyExitPipeline(topology, std::move(items));
  const auto& traffic = replay.traffic;
  r.Add("upstream_bytes_per_frame",
        double(traffic.fog_to_server + traffic.server_to_cloud) / frames, "B");
  r.Add("fog.edge_to_fog_bytes", double(traffic.edge_to_fog), "B");
  r.Add("fog.fog_to_server_bytes", double(traffic.fog_to_server), "B");
  r.Add("fog.server_to_cloud_bytes", double(traffic.server_to_cloud), "B");
  r.Add("fog.sim_latency_p99_ms", replay.p99_latency_ms, "ms");
}

}  // namespace

RunResult RunVideoFog(const Options& options) {
  RunResult r;
  zoo::DetectorConfig config;

  // Inputs: the frame pool and the cameras' arrival schedule.
  datagen::VehicleFrameGenerator generator(config, options.seed);
  std::vector<Frame> pool;
  pool.reserve(kPoolFrames);
  for (int j = 0; j < kPoolFrames; ++j) {
    datagen::LabeledFrame f = generator.Generate();
    pool.push_back(Frame{
        f.image.Reshape({1, config.image_size, config.image_size,
                         config.channels}),
        std::move(f.boxes)});
  }
  const TimeNs period = TimeNs(1e9 / kFps);
  const TimeNs horizon = TimeNs((kWarmupS + options.seconds) * 1e9);
  std::vector<std::pair<TimeNs, int>> arrivals;  // (offset, camera)
  Rng rng(options.seed ^ 0xCA3E7A);
  for (int c = 0; c < kCameras; ++c) {
    // Camera c starts in the c-th of kCameras equal slots of the frame
    // period, at a seeded point within it: unsynchronized, but without the
    // seed-to-seed swings in burstiness that fully random phases give.
    const auto phase =
        TimeNs((c + rng.UniformDouble()) * double(period) / kCameras);
    for (TimeNs t = phase; t < horizon; t += period) {
      arrivals.emplace_back(t, c);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  const auto n = std::int64_t(arrivals.size());
  std::vector<TimeNs> offsets;
  offsets.reserve(arrivals.size());
  for (const auto& a : arrivals) offsets.push_back(a.first);
  const TimeNs warmup_ns = TimeNs(kWarmupS * 1e9);
  std::int64_t first = 0;
  while (first < n && offsets[std::size_t(first)] < warmup_ns) ++first;

  // Set-up: training and planning, repeated; the last deployment is used.
  obs::SpanCollector collector(WallClock::Instance());
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s;
  while (MoreSetups(setup_s)) {
    d.reset();
    const TimeNs t = Now();
    d = std::make_unique<Deployment>();
    d->app = std::make_unique<apps::VehicleDetectionApp>(config, kModelSeed);
    d->app->Train(kTrainSteps);
    d->session.emplace(d->app->detector(), 1, d->arena, nullptr,
                       options.trace ? &collector : nullptr);
    setup_s.push_back(double(Now() - t) / 1e9);
  }

  // Untimed reference pass through the app's own session.
  std::vector<std::uint8_t> ref_offload(kPoolFrames), ref_hit(kPoolFrames);
  for (int j = 0; j < kPoolFrames; ++j) {
    const apps::FrameResult fr =
        d->app->ProcessFrame(pool[std::size_t(j)].image, kExitThreshold);
    ref_offload[std::size_t(j)] = fr.offloaded;
    ref_hit[std::size_t(j)] =
        TopClassHit(fr.detections, pool[std::size_t(j)].boxes);
  }

  std::vector<double> latency_ms;
  latency_ms.reserve(std::size_t(n - first));
  const auto frames_total = static_cast<std::size_t>(n);
  std::vector<std::uint8_t> offloaded(frames_total), hit(frames_total);
  std::vector<TimeNs> done_at(frames_total);
  const TimeNs t0 = Now() + 10 * kMillisecond;
  OpenLoop loop(t0, std::move(offsets));
  std::uint64_t allocs_at_window = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = std::size_t(i);
    const Frame& frame = pool[k % kPoolFrames];
    if (i == first) {
      collector.Clear();
      allocs_at_window = ThreadAllocs();
    }
    const TimeNs due = loop.Due(i);
    WaitUntil(due);
    const TimeNs start = Now();
    loop.Start(i, start);
    auto gated = d->session->Detect(tensor::TensorView::OfConst(frame.image),
                                    kExitThreshold);
    const TimeNs done = Now();
    done_at[k] = done;
    offloaded[k] = gated.front().offloaded;
    hit[k] = TopClassHit(gated.front().detections, frame.boxes);
    if (i < first) continue;
    latency_ms.push_back(double(done - due) / 1e6);
    if (options.trace) {
      spans::Record(kOp, nullptr, std::uint64_t(i), due, done);
      spans::Record("core.gen_lag", kOp, std::uint64_t(i), due, start);
      spans::Record("zoo.detect", kOp, std::uint64_t(i), start, done);
    }
    if (i == (first + n) / 2) CheckThreads(r);
  }
  const std::uint64_t window_allocs = ThreadAllocs() - allocs_at_window;

  // Oracle: every frame's gate and top class equal the reference pass.
  std::int64_t mismatches = 0, offloads = 0, hits = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = std::size_t(i);
    if (offloaded[k] != ref_offload[k % kPoolFrames] ||
        hit[k] != ref_hit[k % kPoolFrames]) {
      ++mismatches;
    }
    if (i >= first) {
      offloads += offloaded[k];
      hits += hit[k];
    }
  }
  if (mismatches > 0) {
    r.Fail(std::to_string(mismatches) +
           " frames differ from the reference pass");
  }
  const std::int64_t frames = n - first;
  r.attempted = frames;
  r.Add("setup_s", Median(setup_s), "s");
  AddLatency(r, "latency", std::move(latency_ms), "ms");
  r.Add("throughput_rps",
        Throughput(std::span(done_at).subspan(std::size_t(first)),
                   t0 + warmup_ns),
        "ops/s");
  r.Add("failed_ratio", 0, "ratio");
  r.Add("core.gen_lag_ms.max", double(loop.max_lateness()) / 1e6, "ms");
  r.Add("zoo.offload_ratio", double(offloads) / double(frames), "ratio");
  r.Add("accuracy", double(hits) / double(frames), "ratio");
  r.Add("tensor.arena_peak_bytes", double(d->arena.peak_bytes()), "B");

  if (options.trace) {
    r.Add("obs.spans_recorded", double(collector.size()), "count");
    r.Add("obs.spans_dropped", double(collector.dropped()), "count");
    std::vector<double> stem, tiny, full;
    for (const obs::Span& s : collector.Snapshot()) {
      const std::string* stage = s.FindTag("stage");
      if (s.name != "infer.exec" || stage == nullptr) continue;
      const double us = double(s.duration()) / 1e3;
      if (*stage == "stem") stem.push_back(us);
      if (*stage == "tiny_head") tiny.push_back(us);
      if (*stage == "full_head") full.push_back(us);
    }
    AddSpanQuantiles(r, "zoo.stem_us", stem, false);
    AddSpanQuantiles(r, "zoo.tiny_us", tiny, false);
    AddSpanQuantiles(r, "zoo.full_us", full, false);
    if (!WriteSpans(options.out_dir + "/trace_video_fog.jsonl",
                    spans::Collect(), 50'000)) {
      r.Fail("cannot write trace_video_fog.jsonl");
    }
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }
  r.Add("zoo.heap_allocs_per_frame", double(window_allocs) / double(frames),
        "count");

  r.Add("capacity_rps", MeasureCapacity(d->app->detector(), pool), "ops/s");
  AddReplay(r, d->app->detector(), arrivals, first, offloaded);
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

}  // namespace metrobench
