#include "zoo/session.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "tensor/ops.h"

namespace metro::zoo {

namespace {

using nn::Shape;

std::string ShapeTag(const Shape& shape) {
  std::string s;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) s += 'x';
    s += std::to_string(shape[i]);
  }
  return s;
}

void EmitPlan(obs::SpanCollector* spans, const char* model, const char* stage,
              const Shape& input_shape) {
  if (spans == nullptr) return;
  spans->Event("infer.plan", spans->StartTrace(),
               {{"model", model},
                {"stage", stage},
                {"input", ShapeTag(input_shape)}});
}

/// Runs one planned half inside an `infer.exec` span; re-plans (batch-size
/// changes) additionally emit an `infer.plan` event.
TensorView RunPlanned(InferenceSession& session, const TensorView& in,
                      obs::SpanCollector* spans, const char* model,
                      const char* stage) {
  if (spans == nullptr) return session.Run(in);
  const std::int64_t replans_before = session.stats().replans;
  obs::Span span = spans->Begin("infer.exec", spans->StartTrace());
  span.SetTag("model", model);
  span.SetTag("stage", stage);
  TensorView out = session.Run(in);
  spans->End(std::move(span));
  if (session.stats().replans != replans_before) {
    EmitPlan(spans, model, stage, in.shape());
  }
  return out;
}

void EmitGate(obs::SpanCollector* spans, const char* model, bool offloaded) {
  if (spans == nullptr) return;
  spans->Event("infer.gate", spans->StartTrace(),
               {{"model", model}, {"exit", offloaded ? "server" : "local"}});
}

Shape DetectorImageShape(const SplitDetector& model, int batch) {
  const DetectorConfig& c = model.config();
  return {batch, c.image_size, c.image_size, c.channels};
}

Shape DetectorStemShape(const SplitDetector& model, int batch) {
  Shape s = model.stem_out_shape();
  s[0] = batch;
  return s;
}

Shape BehaviorFrameShape(const SplitBehaviorNet& model, int n_clips) {
  const BehaviorConfig& c = model.config();
  return {n_clips * c.clip_length, c.frame_size, c.frame_size, c.channels};
}

Shape BehaviorBlock1Shape(const SplitBehaviorNet& model, int n_clips) {
  Shape s = model.block1_out_shape();
  s[0] = n_clips * model.config().clip_length;
  return s;
}

/// Same interleaving arithmetic as zoo::ConcatCols, into borrowed storage.
METRO_NOALLOC
void ConcatColsInto(const TensorView& a, const TensorView& b,
                    const TensorView& out) {
  const int n = a.dim(0), da = a.dim(1), db = b.dim(1);
  assert(b.dim(0) == n && out.dim(0) == n && out.dim(1) == da + db);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < da; ++j) {
      out[std::size_t(i) * std::size_t(da + db) + std::size_t(j)] =
          a[std::size_t(i) * std::size_t(da) + std::size_t(j)];
    }
    for (int j = 0; j < db; ++j) {
      out[std::size_t(i) * std::size_t(da + db) + std::size_t(da + j)] =
          b[std::size_t(i) * std::size_t(db) + std::size_t(j)];
    }
  }
}

/// Same arithmetic as zoo::SplitCols, into borrowed storage.
METRO_NOALLOC
void SplitColsInto(const TensorView& x, const TensorView& a,
                   const TensorView& b) {
  const int n = x.dim(0), d = x.dim(1), da = a.dim(1), db = b.dim(1);
  assert(da + db == d && a.dim(0) == n && b.dim(0) == n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < da; ++j) {
      a[std::size_t(i) * std::size_t(da) + std::size_t(j)] =
          x[std::size_t(i) * std::size_t(d) + std::size_t(j)];
    }
    for (int j = 0; j < db; ++j) {
      b[std::size_t(i) * std::size_t(db) + std::size_t(j)] =
          x[std::size_t(i) * std::size_t(d) + std::size_t(da + j)];
    }
  }
}

}  // namespace

// --- DetectorSession ---

DetectorSession::DetectorSession(SplitDetector& model, int batch,
                                 Workspace& arena, ThreadPool* pool,
                                 obs::SpanCollector* spans)
    : model_(&model),
      arena_(&arena),
      spans_(spans),
      stem_(model.stem_net(), DetectorImageShape(model, batch), arena, pool),
      tiny_(model.tiny_head_net(), DetectorStemShape(model, batch), arena,
            pool),
      full_(model.full_head_net(), DetectorStemShape(model, batch), arena,
            pool) {
  EmitPlan(spans_, "detector", "stem", stem_.plan().input_shape());
  EmitPlan(spans_, "detector", "tiny_head", tiny_.plan().input_shape());
  EmitPlan(spans_, "detector", "full_head", full_.plan().input_shape());
}

TensorView DetectorSession::Stem(const TensorView& images) {
  return RunPlanned(stem_, images, spans_, "detector", "stem");
}

TensorView DetectorSession::TinyHead(const TensorView& stem_out) {
  return RunPlanned(tiny_, stem_out, spans_, "detector", "tiny_head");
}

TensorView DetectorSession::FullHead(const TensorView& stem_out) {
  return RunPlanned(full_, stem_out, spans_, "detector", "full_head");
}

std::vector<DetectorSession::Gated> DetectorSession::Detect(
    const TensorView& images, float threshold, float score_floor,
    float nms_iou) {
  const int n = images.dim(0);
  const TensorView stem_out = Stem(images);
  const TensorView tiny_out = TinyHead(stem_out);

  std::vector<Gated> results(static_cast<std::size_t>(n));
  bool any_offload = false;
  for (int i = 0; i < n; ++i) {
    Gated& g = results[std::size_t(i)];
    g.tiny_confidence =
        model_->Confidence(std::span<const float>(tiny_out.data()), i);
    g.offloaded = g.tiny_confidence < threshold;
    any_offload |= g.offloaded;
    EmitGate(spans_, "detector", g.offloaded);
  }

  if (any_offload) {
    // At least one image misses the local gate: run the server half once,
    // batched, and decode the offloaded images from it.
    const TensorView full_out = FullHead(stem_out);
    for (int i = 0; i < n; ++i) {
      Gated& g = results[std::size_t(i)];
      if (!g.offloaded) continue;
      g.detections =
          Nms(model_->Decode(std::span<const float>(full_out.data()), i,
                             score_floor),
              nms_iou, score_floor);
    }
  }
  for (int i = 0; i < n; ++i) {
    Gated& g = results[std::size_t(i)];
    if (g.offloaded) continue;
    g.detections = Nms(
        model_->Decode(std::span<const float>(tiny_out.data()), i, score_floor),
        nms_iou, score_floor);
  }
  return results;
}

// --- BehaviorSession ---

BehaviorSession::BehaviorSession(SplitBehaviorNet& model, int n_clips,
                                 Workspace& arena, ThreadPool* pool,
                                 obs::SpanCollector* spans)
    : model_(&model),
      arena_(&arena),
      spans_(spans),
      block1_(model.block1_net(), BehaviorFrameShape(model, n_clips), arena,
              pool),
      local_tail_(model.local_tail_net(), BehaviorBlock1Shape(model, n_clips),
                  arena, pool),
      server_(model.server_net(), BehaviorBlock1Shape(model, n_clips), arena,
              pool) {
  EmitPlan(spans_, "behavior", "block1", block1_.plan().input_shape());
  EmitPlan(spans_, "behavior", "local_tail", local_tail_.plan().input_shape());
  EmitPlan(spans_, "behavior", "server", server_.plan().input_shape());
}

BehaviorSession::LocalPass BehaviorSession::RunLocal(const TensorView& frames) {
  LocalPass pass;
  pass.block1_out = RunPlanned(block1_, frames, spans_, "behavior", "block1");
  pass.logits = RunPlanned(local_tail_, pass.block1_out, spans_, "behavior",
                           "local_tail")
                    .ToTensor();

  const nn::Tensor probs = tensor::Softmax(pass.logits);
  const int n_clips = pass.logits.dim(0), classes = pass.logits.dim(1);
  pass.entropy.reserve(std::size_t(n_clips));
  for (int c = 0; c < n_clips; ++c) {
    pass.entropy.push_back(tensor::Entropy(std::span<const float>(
        probs.data().data() + std::size_t(c) * classes, std::size_t(classes))));
  }
  return pass;
}

nn::Tensor BehaviorSession::ServerLogits(const TensorView& block1_out) {
  return RunPlanned(server_, block1_out, spans_, "behavior", "server")
      .ToTensor();
}

BehaviorPrediction BehaviorSession::Predict(const Clip& clip,
                                            float entropy_threshold) {
  LocalPass pass = RunLocal(TensorView::OfConst(clip.frames));
  BehaviorPrediction pred;
  if (pass.entropy.front() <= entropy_threshold) {
    const nn::Tensor probs = tensor::Softmax(pass.logits);
    pred.probs.assign(probs.data().begin(), probs.data().end());
    pred.entropy = pass.entropy.front();
    pred.used_server = false;
  } else {
    const nn::Tensor logits = ServerLogits(pass.block1_out);
    const nn::Tensor probs = tensor::Softmax(logits);
    pred.probs.assign(probs.data().begin(), probs.data().end());
    pred.entropy = tensor::Entropy(
        std::span<const float>(pred.probs.data(), pred.probs.size()));
    pred.used_server = true;
  }
  EmitGate(spans_, "behavior", pred.used_server);
  pred.label = int(std::max_element(pred.probs.begin(), pred.probs.end()) -
                   pred.probs.begin());
  return pred;
}

// --- FusionSession ---

FusionSession::FusionSession(MultiModalAutoencoder& model, int batch,
                             Workspace& arena, ThreadPool* pool,
                             obs::SpanCollector* spans)
    : model_(&model),
      arena_(&arena),
      spans_(spans),
      enc_a_(model.enc_a_net(), {batch, model.config().dim_a}, arena, pool),
      enc_b_(model.enc_b_net(), {batch, model.config().dim_b}, arena, pool),
      enc_joint_(model.enc_joint_net(), {batch, 2 * model.config().hidden},
                 arena, pool),
      dec_joint_(model.dec_joint_net(), {batch, model.config().bottleneck},
                 arena, pool),
      dec_a_(model.dec_a_net(), {batch, model.config().hidden}, arena, pool),
      dec_b_(model.dec_b_net(), {batch, model.config().hidden}, arena, pool) {
  EnsureStaging(batch);
  EmitPlan(spans_, "fusion", "encode", enc_a_.plan().input_shape());
  EmitPlan(spans_, "fusion", "decode", dec_joint_.plan().input_shape());
}

void FusionSession::EnsureStaging(int batch) {
  if (batch <= staging_batch_) return;
  const std::size_t h = std::size_t(model_->config().hidden);
  concat_ = arena_->Alloc(std::size_t(batch) * 2 * h);
  split_a_ = arena_->Alloc(std::size_t(batch) * h);
  split_b_ = arena_->Alloc(std::size_t(batch) * h);
  staging_batch_ = batch;
}

nn::Tensor FusionSession::Encode(const TensorView& a, const TensorView& b) {
  const int n = a.dim(0);
  EnsureStaging(n);
  const int h = model_->config().hidden;
  const TensorView ha = RunPlanned(enc_a_, a, spans_, "fusion", "enc_a");
  const TensorView hb = RunPlanned(enc_b_, b, spans_, "fusion", "enc_b");
  const TensorView cat({n, 2 * h}, concat_.first(std::size_t(n) * 2 * h));
  ConcatColsInto(ha, hb, cat);
  return RunPlanned(enc_joint_, cat, spans_, "fusion", "enc_joint").ToTensor();
}

MultiModalAutoencoder::Reconstruction FusionSession::Decode(
    const TensorView& code) {
  const int n = code.dim(0);
  EnsureStaging(n);
  const int h = model_->config().hidden;
  const TensorView hj =
      RunPlanned(dec_joint_, code, spans_, "fusion", "dec_joint");
  const TensorView va({n, h}, split_a_.first(std::size_t(n) * h));
  const TensorView vb({n, h}, split_b_.first(std::size_t(n) * h));
  SplitColsInto(hj, va, vb);
  return {RunPlanned(dec_a_, va, spans_, "fusion", "dec_a").ToTensor(),
          RunPlanned(dec_b_, vb, spans_, "fusion", "dec_b").ToTensor()};
}

float FusionSession::ReconstructionError(const nn::Tensor& a,
                                         const nn::Tensor& b) {
  const nn::Tensor code = Encode(TensorView::OfConst(a), TensorView::OfConst(b));
  const auto recon = Decode(TensorView::OfConst(code));
  // Same accumulation order as MultiModalAutoencoder::ReconstructionError.
  double loss = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = recon.a[i] - a[i];
    loss += double(d) * d / double(a.size());
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    const float d = recon.b[i] - b[i];
    loss += double(d) * d / double(b.size());
  }
  return float(loss);
}

}  // namespace metro::zoo
