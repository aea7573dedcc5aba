#include "apps/behavior_app.h"

#include <algorithm>

#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace metro::apps {

BehaviorRecognitionApp::BehaviorRecognitionApp(
    const zoo::BehaviorConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      model_(config, rng_),
      generator_(config, seed ^ 0xBEEF),
      session_(model_, /*n_clips=*/1, arena_) {}

float BehaviorRecognitionApp::Train(int steps, int batch_size, float lr) {
  nn::Adam opt(lr);
  float loss = 0;
  for (int step = 0; step < steps; ++step) {
    std::vector<zoo::Clip> batch;
    batch.reserve(std::size_t(batch_size));
    for (int i = 0; i < batch_size; ++i) {
      batch.push_back(generator_.Generate());
    }
    loss = model_.TrainStep(batch, opt);
  }
  return loss;
}

BehaviorEvaluation BehaviorRecognitionApp::Evaluate(int num_clips,
                                                    float entropy_threshold) {
  BehaviorEvaluation eval;
  eval.entropy_threshold = entropy_threshold;
  eval.clips = std::size_t(num_clips);
  std::size_t offloads = 0, gated_hits = 0, e1_hits = 0, e2_hits = 0;

  for (int i = 0; i < num_clips; ++i) {
    const zoo::Clip clip = generator_.Generate();
    // Ungated paths, for the accuracy floor/ceiling — planned sessions; the
    // block-1 cut-point features stay arena-resident between the halves.
    auto local = session_.RunLocal(tensor::TensorView::OfConst(clip.frames));
    const int e1_label = int(local.logits.ArgMax());
    if (e1_label == clip.label) ++e1_hits;
    const nn::Tensor server_logits = session_.ServerLogits(local.block1_out);
    const nn::Tensor server_probs = tensor::Softmax(server_logits);
    const int e2_label = int(server_probs.ArgMax());
    if (e2_label == clip.label) ++e2_hits;
    // Gated decision (reuses the already computed passes).
    const bool offload = local.entropy.front() > entropy_threshold;
    const int gated = offload ? e2_label : e1_label;
    if (offload) ++offloads;
    if (gated == clip.label) ++gated_hits;
  }

  const double n = std::max(1, num_clips);
  eval.offload_fraction = double(offloads) / n;
  eval.accuracy = double(gated_hits) / n;
  eval.exit1_accuracy = double(e1_hits) / n;
  eval.exit2_accuracy = double(e2_hits) / n;
  return eval;
}

bool BehaviorRecognitionApp::IsSuspicious(int label) {
  const auto cls = datagen::BehaviorClass(label);
  return cls == datagen::BehaviorClass::kAltercation ||
         cls == datagen::BehaviorClass::kZigzag ||
         cls == datagen::BehaviorClass::kRunning;
}

zoo::BehaviorPrediction BehaviorRecognitionApp::Monitor(
    const zoo::Clip& clip, const geo::LatLon& camera_location, TimeNs now,
    float entropy_threshold, store::Collection& incidents,
    core::AlertManager& alerts) {
  zoo::BehaviorPrediction pred = session_.Predict(clip, entropy_threshold);
  if (IsSuspicious(pred.label)) {
    // Index time, location, and activity type (Sec. IV-A2's logging step).
    store::Document doc;
    doc["type"] = std::string("behavior_incident");
    doc["activity"] =
        std::string(datagen::BehaviorName(datagen::BehaviorClass(pred.label)));
    doc["lat"] = camera_location.lat;
    doc["lon"] = camera_location.lon;
    doc["timestamp"] = std::int64_t(now);
    doc["entropy"] = double(pred.entropy);
    doc["escalated"] = pred.used_server;
    incidents.Insert(std::move(doc));

    core::Alert alert;
    alert.time = now;
    alert.location = camera_location;
    alert.kind = "suspicious_behavior";
    alert.message =
        std::string(datagen::BehaviorName(datagen::BehaviorClass(pred.label))) +
        " detected on camera feed";
    alert.severity =
        datagen::BehaviorClass(pred.label) == datagen::BehaviorClass::kAltercation
            ? 4
            : 2;
    alerts.Raise(std::move(alert));
  }
  return pred;
}

}  // namespace metro::apps
