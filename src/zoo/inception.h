#pragma once

// Inception-style CNN module (Sec. III-A: "Besides the regular CNNs, we
// also include inception types of CNN as used in the GoogleNet and the
// ResNet type of CNN").
//
// Four parallel branches over an NHWC input, concatenated along channels:
//   1) 1x1 conv
//   2) 1x1 reduce -> 3x3 conv
//   3) 1x1 reduce -> 5x5 conv
//   4) 3x3 max pool -> 1x1 projection
// Spatial size is preserved (stride 1, same padding), as in GoogLeNet.

#include <memory>

#include "nn/layer.h"

namespace metro::zoo {

/// Branch widths of an inception module.
struct InceptionConfig {
  int out_1x1 = 8;
  int reduce_3x3 = 4;
  int out_3x3 = 8;
  int reduce_5x5 = 2;
  int out_5x5 = 4;
  int out_pool = 4;

  int total_out() const { return out_1x1 + out_3x3 + out_5x5 + out_pool; }
};

/// GoogLeNet-style inception module as a single Layer.
class InceptionBlock final : public nn::Layer {
 public:
  InceptionBlock(int in_channels, const InceptionConfig& config, Rng& rng);

  nn::Tensor Backward(const nn::Tensor& grad_out) override;
  void ForwardInto(const nn::TensorView& x, const nn::TensorView& out,
                   nn::InferenceContext& ctx) override;
  std::vector<nn::Param*> Params() override;
  std::string name() const override;
  std::size_t ForwardMacs(const nn::Shape& input_shape) const override;
  nn::Shape OutputShape(const nn::Shape& input_shape) const override;

  const InceptionConfig& config() const { return config_; }

 private:
  nn::Tensor ForwardTrain(const nn::Tensor& x) override;

  int cin_;
  InceptionConfig config_;

  nn::Conv2d b1_;               // 1x1
  nn::Conv2d b2_reduce_, b2_;   // 1x1 -> 3x3
  nn::Conv2d b3_reduce_, b3_;   // 1x1 -> 5x5
  nn::MaxPool2d b4_pool_;       // 3x3 pool (stride 1 via pad trick below)
  nn::Conv2d b4_;               // -> 1x1

  nn::Activation act1_, act2a_, act2b_, act3a_, act3b_, act4_;
};

/// Concatenates NHWC tensors along the channel axis (equal N/H/W).
nn::Tensor ConcatChannels(const std::vector<const nn::Tensor*>& parts);

/// Splits an NHWC tensor's channels at the given widths (sum == C).
std::vector<nn::Tensor> SplitChannels(const nn::Tensor& x,
                                      const std::vector<int>& widths);

}  // namespace metro::zoo
