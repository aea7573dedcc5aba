#pragma once

// LSTM layer with truncated-BPTT training.
//
// The temporal-analysis module of Sec. III-B: consumes a clip of feature
// vectors (one per video frame) and produces the last hidden state, which
// feeds the behavior classifier of Fig. 7.

#include <vector>

#include "nn/layer.h"

namespace metro::nn {

/// Single-direction LSTM over clips of a fixed length T.
///
/// The input is clip-major `(N*T, input)`: row `n*T + t` is step t of clip n,
/// the layout a per-frame feature extractor (global average pool) produces
/// for stacked clips. The output is the hidden state after the last step,
/// `(N, hidden)`; initial h/c are zero. Gate order in the packed weight
/// matrices is [i, f, g, o]; forget-gate bias is initialized to +1 (the
/// standard trick for gradient flow).
class Lstm final : public Layer {
 public:
  Lstm(int input_size, int hidden_size, int steps, Rng& rng);

  /// Backpropagates dL/dh_T through time; returns dL/dx as (N*T, input).
  Tensor Backward(const Tensor& grad_h) override;
  void ForwardInto(const TensorView& x, const TensorView& out,
                   InferenceContext& ctx) override;
  std::vector<Param*> Params() override { return {&wx_, &wh_, &b_}; }
  std::string name() const override;
  std::size_t ForwardMacs(const Shape& input_shape) const override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  Tensor ForwardTrain(const Tensor& x) override;

  /// One time step over n clips, the layer's only cell update. `zx` is
  /// x_t*Wx of clip 0, the next clip's row `zx_stride` floats on. Writes the
  /// post-activation gates to `gates` (n, 4H) and the new state to c_out and
  /// h_out, which may alias c_prev and h_prev.
  void CellStep(const float* zx, std::size_t zx_stride, const float* h_prev,
                const float* c_prev, int n, float* gates, float* c_out,
                float* h_out) const;

  int input_, hidden_, steps_;
  Param wx_;  // (input, 4H)
  Param wh_;  // (hidden, 4H)
  Param b_;   // (4H)

  // BPTT cache of the last ForwardTrain: the input, and per step the gates
  // (N, 4H) plus the states h_t, c_t (N, H) for t = 0..T.
  Tensor cached_x_;
  std::vector<Tensor> gates_, h_, c_;
};

}  // namespace metro::nn
