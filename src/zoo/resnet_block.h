#pragma once

// The paper's ResNet block (Fig. 8).
//
// Main path: conv3x3(stride) -> BN -> ReLU -> conv3x3 -> BN.
// Shortcut: the paper replaces the usual identity/max-pool shortcut with a
// *convolutional* shortcut (1x1, stride). Both alternatives are implemented
// so bench_fig8_resnet_block can ablate the design choice.

#include <memory>

#include "nn/layer.h"

namespace metro::zoo {

using nn::Layer;
using nn::Param;
using nn::Shape;
using nn::Tensor;

/// Shortcut-path implementation of a residual block.
enum class ShortcutKind {
  kConv,      ///< 1x1 convolution (the paper's Fig. 8 choice)
  kIdentity,  ///< plain skip; requires matching shape (stride 1, cin == cout)
  kMaxPool,   ///< max-pool downsample + zero channel padding (the common
              ///< parameter-free alternative the paper replaces)
};

/// Residual block over NHWC activations.
class ResNetBlock final : public Layer {
 public:
  ResNetBlock(int in_channels, int out_channels, int stride,
              ShortcutKind shortcut, Rng& rng);

  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const nn::TensorView& x, const nn::TensorView& out,
                   nn::InferenceContext& ctx) override;
  std::vector<Param*> Params() override;
  std::vector<Tensor*> Buffers() override;
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

  ShortcutKind shortcut_kind() const { return shortcut_; }

 private:
  Tensor ForwardTrain(const Tensor& x) override;
  Tensor ShortcutForward(const Tensor& x);
  Tensor ShortcutBackward(const Tensor& grad);

  int cin_, cout_, stride_;
  ShortcutKind shortcut_;

  nn::Conv2d conv1_;
  nn::BatchNorm bn1_;
  nn::Conv2d conv2_;
  nn::BatchNorm bn2_;
  nn::Activation relu1_;  // after bn1
  nn::Activation relu2_;  // after the residual add
  std::unique_ptr<nn::Conv2d> conv_sc_;      // kConv only
  std::unique_ptr<nn::MaxPool2d> pool_sc_;   // kMaxPool with stride > 1
};

}  // namespace metro::zoo
