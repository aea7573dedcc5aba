#pragma once

// Arena-backed inference sessions for the zoo models.
//
// Each session binds a split model's halves to nn::InferenceSession plans
// sharing ONE tensor::Workspace, mirroring the paper's deployment: the local
// half runs on the fog node, the cut-point activation stays live in the
// arena, and the server half continues from it without a copy when the gate
// offloads (Figs. 5 and 7). Every layer of both split models, the Fig. 7
// LSTM tails included, runs planned: steady-state runs perform no heap
// allocation inside the halves, only in the result containers (logits
// copies, decoded detections, per-clip entropies).
//
// When an obs::SpanCollector is attached, sessions emit
//   infer.plan  — once per (re)plan, tagged with the model and batch shape
//   infer.exec  — per planned half executed (stage tag: stem/tiny/full/...)
//   infer.gate  — event marking each early-exit decision (exit=local|server)
// on the collector's clock. Fog simulations keep their own sim-clock
// collector; inference spans are wall-clock and belong to a separate one.
//
// Every session output is bit-identical to its model's `Forward(x, false)`,
// which runs the same ForwardInto kernels one layer at a time (checked by
// tests/inference_parity_test.cpp).

#include <span>
#include <vector>

#include "nn/inference.h"
#include "obs/trace.h"
#include "util/analysis.h"
#include "zoo/behavior.h"
#include "zoo/detector.h"
#include "zoo/fusion.h"

namespace metro::zoo {

using nn::InferenceSession;
using tensor::TensorView;
using tensor::Workspace;

/// Fig. 5 split detector bound to one arena: stem, tiny head and full head
/// planned as three sessions with disjoint slots, so the stem output remains
/// valid while either head (or both) consumes it.
class DetectorSession {
 public:
  DetectorSession(SplitDetector& model, int batch, Workspace& arena,
                  ThreadPool* pool = nullptr,
                  obs::SpanCollector* spans = nullptr);

  /// Planned halves. Returned views live in the arena and stay valid until
  /// the next run of the same half.
  TensorView Stem(const TensorView& images) METRO_LIFETIME_BOUND;
  TensorView TinyHead(const TensorView& stem_out) METRO_LIFETIME_BOUND;
  TensorView FullHead(const TensorView& stem_out) METRO_LIFETIME_BOUND;

  /// One image's gated outcome from Detect().
  struct Gated {
    std::vector<Detection> detections;  ///< post-NMS, from the winning head
    float tiny_confidence = 0;
    bool offloaded = false;
  };

  /// Batched early-exit inference: stem + tiny head run for every image; the
  /// full head runs (batched) only when at least one image's local
  /// confidence misses `threshold`. Bit-exact per image with the eager
  /// gate in apps::VehicleDetectionApp::ProcessFrame.
  std::vector<Gated> Detect(const TensorView& images, float threshold,
                            float score_floor = 0.1f, float nms_iou = 0.4f);

  SplitDetector& model() { return *model_; }
  Workspace& arena() METRO_LIFETIME_BOUND { return *arena_; }

 private:
  SplitDetector* model_;
  Workspace* arena_;
  obs::SpanCollector* spans_;
  InferenceSession stem_;
  InferenceSession tiny_;
  InferenceSession full_;
};

/// Fig. 7 split behavior recognizer bound to one arena: block 1, the local
/// tail (GAP -> LSTM 1 -> FC1) and the server half (blocks 2-3 -> GAP ->
/// LSTM 2 -> FC2) planned as three sessions with disjoint slots, so the
/// block-1 map remains valid while either exit consumes it. The clip count
/// of a run is its input's leading dimension over the clip length.
class BehaviorSession {
 public:
  BehaviorSession(SplitBehaviorNet& model, int n_clips, Workspace& arena,
                  ThreadPool* pool = nullptr,
                  obs::SpanCollector* spans = nullptr);

  /// Local half over clip-major stacked frames (n_clips*T, H, W, C).
  struct LocalPass {
    nn::Tensor logits;            ///< exit-1 logits (n_clips, classes)
    TensorView block1_out;        ///< cut-point features, arena-resident
    std::vector<float> entropy;   ///< per-clip exit-1 entropy (nats)
  };
  LocalPass RunLocal(const TensorView& frames);

  /// Server half continuing from a (possibly arena-resident) block-1 map.
  nn::Tensor ServerLogits(const TensorView& block1_out);

  /// Entropy-gated prediction for one clip; bit-exact with
  /// SplitBehaviorNet::Predict.
  BehaviorPrediction Predict(const Clip& clip, float entropy_threshold);

  SplitBehaviorNet& model() { return *model_; }
  Workspace& arena() METRO_LIFETIME_BOUND { return *arena_; }

 private:
  SplitBehaviorNet* model_;
  Workspace* arena_;
  obs::SpanCollector* spans_;
  InferenceSession block1_;
  InferenceSession local_tail_;
  InferenceSession server_;
};

/// Sec. III-C fusion autoencoder bound to one arena: the six Dense stages
/// are planned; the concat/split glue runs through persistent arena staging
/// buffers.
class FusionSession {
 public:
  FusionSession(MultiModalAutoencoder& model, int batch, Workspace& arena,
                ThreadPool* pool = nullptr,
                obs::SpanCollector* spans = nullptr);

  /// Fused bottleneck code; bit-exact with model.Encode(a, b, false).
  nn::Tensor Encode(const TensorView& a, const TensorView& b);

  /// Reconstructions; bit-exact with model.Decode(code, false).
  MultiModalAutoencoder::Reconstruction Decode(const TensorView& code);

  /// Mean reconstruction error; bit-exact with model.ReconstructionError.
  float ReconstructionError(const nn::Tensor& a, const nn::Tensor& b);

  MultiModalAutoencoder& model() { return *model_; }

 private:
  void EnsureStaging(int batch);

  MultiModalAutoencoder* model_;
  Workspace* arena_;
  obs::SpanCollector* spans_;
  InferenceSession enc_a_, enc_b_, enc_joint_;
  InferenceSession dec_joint_, dec_a_, dec_b_;
  std::span<float> concat_;          ///< (batch, 2*hidden) encoder staging
  std::span<float> split_a_, split_b_;  ///< (batch, hidden) decoder staging
  int staging_batch_ = 0;
};

}  // namespace metro::zoo
