#pragma once

// Trainable layer abstraction.
//
// Layers cache whatever the matching backward pass needs, so a layer instance
// services one forward/backward pair at a time (standard single-stream
// training). Parameters expose value+grad pairs the optimizers consume.

#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace metro::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;

/// Execution resources for ForwardInto.
struct InferenceContext {
  /// Scratch arena for a layer's intermediates; the caller rewinds it after
  /// the layer returns (an InferenceSession after every layer), so a layer
  /// may Alloc freely.
  tensor::Workspace& scratch;
  /// Optional kernel parallelism (conv/matmul row fan-out). May be null.
  ThreadPool* pool = nullptr;
};

/// How a layer's planned output relates to its input buffer.
enum class InferencePlacement {
  kNewBuffer,  ///< writes a distinct output buffer (ping-pong slot)
  kInPlace,    ///< elementwise: `out` aliases the input view
  kAlias,      ///< pure reshape/identity: no kernel runs, the view is relabeled
};

/// A trainable parameter: value and the gradient accumulated by backward.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. With `training` it runs ForwardTrain, which
  /// caches what Backward needs (BatchNorm uses batch statistics, Dropout
  /// drops). Without it, the output is allocated and filled by ForwardInto
  /// over a call-local scratch Workspace, so inference has one
  /// implementation per layer.
  Tensor Forward(const Tensor& x, bool training);

  /// Propagates `grad_out` (dL/dy) to dL/dx, accumulating parameter grads.
  ///
  /// Only defined after a `Forward(x, /*training=*/true)` call: inference
  /// (`Forward(x, false)` and `ForwardInto`) holds zero backward state.
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  /// Inference forward into a preallocated view: the layer's one inference
  /// implementation, run by `Forward(x, false)` and by planned sessions
  /// (nn/inference.h). Never caches backward state and never allocates
  /// (scratch comes from `ctx`). `out` aliases `x` when `placement()` is
  /// kInPlace. The default is the identity copy that kAlias layers compute
  /// (planned sessions relabel the view instead of calling it).
  virtual void ForwardInto(const TensorView& x, const TensorView& out,
                           InferenceContext& ctx);

  /// Buffer discipline `ForwardInto` follows (drives arena planning).
  virtual InferencePlacement placement() const {
    return InferencePlacement::kNewBuffer;
  }

  /// The layer's trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> Params() { return {}; }

  /// Non-trainable state that must ship with a checkpoint (BatchNorm
  /// running statistics); optimizers never touch these.
  virtual std::vector<Tensor*> Buffers() { return {}; }

  /// Short human-readable description ("conv3x3x16", "dense128").
  virtual std::string name() const = 0;

  /// Multiply-accumulate count of one forward pass at the given input shape —
  /// drives the Fig. 8 compute-cost ablation.
  virtual std::size_t ForwardMacs(const Shape& input_shape) const = 0;

  /// Output shape for a given input shape (batch dimension preserved).
  virtual Shape OutputShape(const Shape& input_shape) const = 0;

 protected:
  /// Training forward: computes the output and caches backward state.
  /// Layers whose training output equals their inference output cache and
  /// then return `Forward(x, false)`.
  virtual Tensor ForwardTrain(const Tensor& x) = 0;
};

/// Fully connected layer: y = xW + b over (N, D) inputs.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, Rng& rng);

  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  std::vector<Param*> Params() override { return {&w_, &b_}; }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  int in_, out_;
  Param w_, b_;
  Tensor cached_x_;
};

/// 2-D convolution layer over NHWC inputs.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng);

  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  /// ForwardInto with `epilogue` applied to each output before it is
  /// stored: planned inference runs a conv and the BatchNorm and LeakyReLU
  /// after it this way (nn/inference.h).
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx,
                   const tensor::ConvEpilogue& epilogue);
  std::vector<Param*> Params() override { return {&w_, &b_}; }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

  int stride() const { return stride_; }
  int pad() const { return pad_; }

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  int cin_, cout_, k_, stride_, pad_;
  Param w_, b_;
  Tensor cached_x_;
};

/// Max pooling (square window, no padding).
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(int k, int stride) : k_(k), stride_(stride) {}

  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  int k_, stride_;
  Tensor cached_x_;
};

/// Global average pooling: NHWC -> (N, C).
class GlobalAvgPool final : public Layer {
 public:
  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  std::string name() const override { return "gap"; }
  /// An unweighted mean: like the activations it counts no MACs, so the
  /// Fig. 7 per-stage budgets cover the weighted layers only.
  std::size_t ForwardMacs(const Shape&) const override { return 0; }
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  Shape cached_in_shape_;
};

/// Reshapes NHWC to (N, H*W*C).
class Flatten final : public Layer {
 public:
  Tensor Backward(const Tensor& grad_out) override;
  InferencePlacement placement() const override {
    return InferencePlacement::kAlias;
  }
  std::string name() const override { return "flatten"; }
  std::size_t ForwardMacs(const Shape&) const override { return 0; }
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  Shape cached_in_shape_;
};

enum class ActKind { kRelu, kLeakyRelu, kSigmoid, kTanh };

/// Elementwise activation.
class Activation final : public Layer {
 public:
  explicit Activation(ActKind kind, float alpha = 0.1f)
      : kind_(kind), alpha_(alpha) {}

  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  InferencePlacement placement() const override {
    return InferencePlacement::kInPlace;
  }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape&) const override { return 0; }
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

  ActKind kind() const { return kind_; }
  float alpha() const { return alpha_; }

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  ActKind kind_;
  float alpha_;
  Tensor cached_;  // input for (leaky)relu, output for sigmoid/tanh
};

/// Batch normalization over the trailing (channel/feature) dimension.
///
/// Works for both (N, C) and NHWC inputs; maintains running statistics for
/// inference, per the usual momentum update.
class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(int channels, float momentum = 0.9f, float eps = 1e-5f);

  Tensor Backward(const Tensor& grad_out) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  InferencePlacement placement() const override {
    return InferencePlacement::kInPlace;
  }
  std::vector<Param*> Params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> Buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

  std::span<const float> running_mean() const { return running_mean_.data(); }
  std::span<const float> running_var() const { return running_var_.data(); }

  int channels() const { return c_; }

  /// The inference affine `y = x * scale[ch] + shift[ch]`, folded from the
  /// running statistics into `scale` and `shift` ([C] each).
  void FoldScaleShift(std::span<float> scale, std::span<float> shift) const;

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  int c_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Saved batch statistics and normalized input for backward.
  Tensor cached_xhat_;
  std::vector<float> batch_mean_, batch_inv_std_;
  std::size_t rows_ = 0;
};

/// Inverted dropout; identity at inference.
class Dropout final : public Layer {
 public:
  Dropout(float rate, Rng& rng) : rate_(rate), rng_(&rng) {}

  Tensor Backward(const Tensor& grad_out) override;
  InferencePlacement placement() const override {
    // Identity at inference: the planned path skips it entirely.
    return InferencePlacement::kAlias;
  }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape&) const override { return 0; }
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  float rate_;
  Rng* rng_;
  std::vector<float> mask_;
};

}  // namespace metro::nn
