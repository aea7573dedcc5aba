#include "zoo/behavior.h"

#include <algorithm>
#include <cassert>

#include "nn/lstm.h"

namespace metro::zoo {

SplitBehaviorNet::SplitBehaviorNet(const BehaviorConfig& config, Rng& rng)
    : config_(config) {
  const int t_len = config.clip_length;
  block1_.Emplace<ResNetBlock>(config.channels, config.block1_channels, 2,
                               config.shortcut, rng);
  local_tail_.Emplace<nn::GlobalAvgPool>()
      .Emplace<nn::Lstm>(config.block1_channels, config.lstm1_hidden, t_len,
                         rng)
      .Emplace<nn::Dense>(config.lstm1_hidden, config.num_classes, rng);
  server_
      .Emplace<ResNetBlock>(config.block1_channels, config.block2_channels, 2,
                            config.shortcut, rng)
      .Emplace<ResNetBlock>(config.block2_channels, config.block3_channels, 2,
                            config.shortcut, rng)
      .Emplace<nn::GlobalAvgPool>()
      .Emplace<nn::Lstm>(config.block3_channels, config.lstm2_hidden, t_len,
                         rng)
      .Emplace<nn::Dense>(config.lstm2_hidden, config.num_classes, rng);
  block1_out_shape_ = block1_.OutputShape(
      {1, config.frame_size, config.frame_size, config.channels});
}

nn::Tensor SplitBehaviorNet::LocalLogits(const nn::Tensor& frames,
                                         bool training) {
  return local_tail_.Forward(block1_.Forward(frames, training), training);
}

nn::Tensor SplitBehaviorNet::ServerLogits(const nn::Tensor& block1_out,
                                          bool training) {
  return server_.Forward(block1_out, training);
}

float SplitBehaviorNet::TrainStep(const std::vector<Clip>& batch,
                                  nn::Optimizer& opt) {
  const int n = int(batch.size());
  const int t_len = config_.clip_length;
  const int hw = config_.frame_size;
  const int ch = config_.channels;

  // Stack clips into (N*T, H, W, C), clip-major.
  nn::Tensor frames({n * t_len, hw, hw, ch});
  std::vector<int> labels(static_cast<std::size_t>(n));
  const std::size_t frame_elems = std::size_t(t_len) * hw * hw * ch;
  for (int c = 0; c < n; ++c) {
    const auto& clip = batch[std::size_t(c)];
    assert(clip.frames.size() == frame_elems);
    const std::size_t dst = std::size_t(c) * frame_elems;
    for (std::size_t i = 0; i < frame_elems; ++i) {
      frames[dst + i] = clip.frames[i];
    }
    labels[std::size_t(c)] = clip.label;
  }

  // Both exits share block 1; its gradient is the sum of theirs.
  const nn::Tensor b1 = block1_.Forward(frames, true);
  const auto ce1 =
      tensor::CrossEntropyLoss(local_tail_.Forward(b1, true), labels);
  const auto ce2 =
      tensor::CrossEntropyLoss(server_.Forward(b1, true), labels);
  nn::Tensor grad_b1 = local_tail_.Backward(ce1.grad);
  grad_b1 += server_.Backward(ce2.grad);
  block1_.Backward(grad_b1);

  auto params = Params();
  nn::ClipGradNorm(params, 5.0f);
  opt.Step(params);
  return ce1.loss + ce2.loss;
}

SplitBehaviorNet::LocalPass SplitBehaviorNet::RunLocal(const Clip& clip) {
  LocalPass pass;
  pass.block1_out = block1_.Forward(clip.frames, false);
  pass.logits = local_tail_.Forward(pass.block1_out, false);
  nn::Tensor probs = tensor::Softmax(pass.logits);
  pass.entropy = tensor::Entropy(probs.data());
  return pass;
}

std::vector<float> SplitBehaviorNet::RunServer(const nn::Tensor& block1_out) {
  nn::Tensor logits = ServerLogits(block1_out, false);
  nn::Tensor probs = tensor::Softmax(logits);
  return {probs.data().begin(), probs.data().end()};
}

BehaviorPrediction SplitBehaviorNet::Predict(const Clip& clip,
                                             float entropy_threshold) {
  LocalPass pass = RunLocal(clip);
  BehaviorPrediction pred;
  if (pass.entropy <= entropy_threshold) {
    nn::Tensor probs = tensor::Softmax(pass.logits);
    pred.probs.assign(probs.data().begin(), probs.data().end());
    pred.entropy = pass.entropy;
    pred.used_server = false;
  } else {
    pred.probs = RunServer(pass.block1_out);
    pred.entropy = tensor::Entropy(
        std::span<const float>(pred.probs.data(), pred.probs.size()));
    pred.used_server = true;
  }
  pred.label = int(std::max_element(pred.probs.begin(), pred.probs.end()) -
                   pred.probs.begin());
  return pred;
}

std::vector<nn::Param*> SplitBehaviorNet::Params() {
  std::vector<nn::Param*> params;
  for (nn::Sequential* half : {&block1_, &local_tail_, &server_}) {
    for (nn::Param* p : half->Params()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Tensor*> SplitBehaviorNet::Buffers() {
  std::vector<nn::Tensor*> buffers;
  for (nn::Sequential* half : {&block1_, &local_tail_, &server_}) {
    for (nn::Tensor* b : half->Buffers()) buffers.push_back(b);
  }
  return buffers;
}

std::size_t SplitBehaviorNet::FeatureMapBytes() const {
  return tensor::NumElements(block1_out_shape_) * std::size_t(config_.clip_length) *
         sizeof(float);
}

std::size_t SplitBehaviorNet::LocalMacs() const {
  const nn::Shape frames = {config_.clip_length, config_.frame_size,
                            config_.frame_size, config_.channels};
  return block1_.ForwardMacs(frames) +
         local_tail_.ForwardMacs(block1_.OutputShape(frames));
}

std::size_t SplitBehaviorNet::ServerMacs() const {
  nn::Shape b1 = block1_out_shape_;
  b1[0] = config_.clip_length;
  return server_.ForwardMacs(b1);
}

}  // namespace metro::zoo
