#pragma once

// Sequential model container and training utilities.

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace metro::nn {

/// A straight-line stack of layers.
///
/// Building block for the zoo models; the split architectures of Figs. 5 and 7
/// are expressed as Sequential halves joined by an exit gate.
class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Runs all layers.
  Tensor Forward(const Tensor& x, bool training);

  /// Backpropagates through all layers, accumulating parameter grads.
  Tensor Backward(const Tensor& grad_out);

  /// All trainable parameters in layer order.
  std::vector<Param*> Params();

  /// All non-trainable checkpoint state (BatchNorm running stats) in order.
  std::vector<Tensor*> Buffers();

  void ZeroGrads();

  /// Total multiply-accumulates for one forward pass at `input_shape`.
  std::size_t ForwardMacs(const Shape& input_shape) const;

  /// Shape this stack produces for `input_shape`.
  Shape OutputShape(const Shape& input_shape) const;

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// "conv3x3x16 -> relu -> maxpool2/s2 -> dense256x10"
  std::string Summary() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// One optimizer step result for progress tracking.
struct StepStats {
  float loss = 0.0f;
  float accuracy = 0.0f;
};

}  // namespace metro::nn
