#pragma once

// Stateless neural-network kernels over NHWC tensors.
//
// Forward and backward passes for convolution, pooling, activations, and the
// softmax/cross-entropy head. Stateful layers (parameters, batch-norm running
// stats) live in nn/; these are the math underneath them. Each forward
// operation has one kernel, the *Into variant below, which training and
// inference both run.

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace metro {
class ThreadPool;
}  // namespace metro

namespace metro::tensor {

/// Gradients produced by Conv2dBackward.
struct ConvGrads {
  Tensor input;    ///< dL/dx, same shape as the forward input
  Tensor weights;  ///< dL/dW, shape [KH, KW, Cin, Cout]
  Tensor bias;     ///< dL/db, shape [Cout]
};

/// Backward pass matching Conv2dForwardInto.
ConvGrads Conv2dBackward(const Tensor& input, const Tensor& weights,
                         const Tensor& grad_out, int stride, int pad);

/// Backward pass matching MaxPool2dForwardInto: routes each output gradient
/// to the first strictly greater element of its window in `input` (the
/// forward input), the one the forward scan kept.
Tensor MaxPool2dBackward(const Tensor& input, int k, int stride,
                         const Tensor& grad_out);

/// Backward pass matching GlobalAvgPoolForwardInto.
Tensor GlobalAvgPoolBackward(const Shape& input_shape, const Tensor& grad_out);

// Elementwise activation backward passes. They take the *forward input* (x)
// except for sigmoid/tanh, which take the forward output (y) — the cheaper
// formulation.
Tensor ReluBackward(const Tensor& x, const Tensor& grad_out);
Tensor LeakyReluBackward(const Tensor& x, const Tensor& grad_out, float alpha);
Tensor SigmoidBackward(const Tensor& y, const Tensor& grad_out);
Tensor TanhBackward(const Tensor& y, const Tensor& grad_out);

/// Row-wise softmax of a (N, C) tensor (numerically stabilized).
Tensor Softmax(const Tensor& logits);

/// Mean cross-entropy over a batch plus the gradient w.r.t. the logits.
struct CrossEntropyResult {
  float loss;      ///< mean negative log-likelihood
  Tensor grad;     ///< dL/dlogits, shape (N, C)
  Tensor probs;    ///< softmax(logits)
  int correct;     ///< argmax hits, for accuracy tracking
};

/// `labels[i]` in [0, C). Gradient is already divided by the batch size.
CrossEntropyResult CrossEntropyLoss(const Tensor& logits,
                                    const std::vector<int>& labels);

/// Shannon entropy (nats) of one probability row — the early-exit gate
/// signal used by the Fig. 7 architecture.
float Entropy(std::span<const float> probs);

// ---------------------------------------------------------------------------
// Forward kernels.
//
// The *Into kernels write into caller-provided views (arena-backed in
// planned sessions, see workspace.h and nn/inference.h) and never allocate.
// ParallelFor only changes which thread computes a given output row, never
// the arithmetic inside it, so results do not depend on `pool`. The
// in-place variants allow `out` to alias `x`.

/// What a convolution applies to each output after its last tap, before
/// storing it: `y = y * scale[oc] + shift[oc]` when `scale` is set (a
/// BatchNorm folded by BatchNormFoldScaleShift), then
/// `y = y < 0 ? y * alpha : y` when `leaky_relu` is set. These are the
/// rounded operations of BatchNormInferenceInto and LeakyReluInto, so a
/// convolution with an epilogue gives the bits of the convolution followed
/// by those kernels. The default applies nothing.
struct ConvEpilogue {
  std::span<const float> scale{};  ///< [Cout], or empty for no affine
  std::span<const float> shift{};  ///< [Cout], set whenever `scale` is
  bool leaky_relu = false;
  float alpha = 0.0f;

  bool empty() const { return scale.empty() && !leaky_relu; }
};

/// 2-D convolution into `out`, parallelized over batch × output rows when
/// `pool` is given.
///
/// `input` is NHWC, `weights` is [KH, KW, Cin, Cout], `bias` is [Cout] (may be
/// empty for no bias). Zero padding of `pad` pixels on each side; `out` must
/// have shape (N, (H + 2p - KH)/stride + 1, (W + 2p - KW)/stride + 1, Cout).
/// Each output starts from its bias and adds the in-bounds taps in
/// (ky, kx, ic) order, whichever row kernel runs; `epilogue` then applies to
/// it while its row is still in cache.
void Conv2dForwardInto(const TensorView& input, const Tensor& weights,
                       const Tensor& bias, int stride, int pad,
                       const TensorView& out, ThreadPool* pool = nullptr,
                       const ConvEpilogue& epilogue = {});

/// The instruction sets the conv row kernels are built for, from one source.
/// Conv2dForwardInto runs the widest one the host supports; every build
/// gives the same bits.
enum class ConvIsa { kSse2, kAvx2 };

/// Whether this host can run `isa`'s build of the conv row kernels.
bool ConvIsaSupported(ConvIsa isa);

/// Conv2dForwardInto on `isa`'s build of the row kernels, which the host
/// must support. Lets tests check every build against a reference, not only
/// the one this host picks.
void Conv2dForwardIntoForIsa(ConvIsa isa, const TensorView& input,
                             const Tensor& weights, const Tensor& bias,
                             int stride, int pad, const TensorView& out,
                             ThreadPool* pool = nullptr,
                             const ConvEpilogue& epilogue = {});

/// Max pooling with square window `k` and stride `stride` (no padding):
/// each output is the first strictly greater value of its window in (ky, kx)
/// order, starting from -inf. One kernel runs every channel width as a
/// sequence of fixed-width channel slabs (the zoo's 8, 12 and 24 as one
/// slab each), keeping a pixel's running maximum in registers; every width
/// gives the same bits.
void MaxPool2dForwardInto(const TensorView& input, int k, int stride,
                          const TensorView& out);

/// Mean over H and W: NHWC -> (N, C).
void GlobalAvgPoolForwardInto(const TensorView& input, const TensorView& out);

/// Rows [row_begin, row_end) of C(MxN) = A(MxK) * B(KxN) over raw row-major
/// storage: the row kernel of MatMulInto and MatMul. Each row of C depends
/// on its own row of A alone, so any row split gives the same bits.
void MatMulRows(const float* a, const float* b, float* c, int k, int n,
                std::int64_t row_begin, std::int64_t row_end);

/// C = A(MxK) * B(KxN), parallel over rows of A (i-k-j order).
void MatMulInto(const TensorView& a, const Tensor& b, const TensorView& c,
                ThreadPool* pool = nullptr);

/// Allocating MatMulInto (same kernel); shapes are validated with
/// assertions.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// y = xW + b (Dense forward) — MatMulInto plus in-place row bias add.
void DenseForwardInto(const TensorView& x, const Tensor& w, const Tensor& b,
                      const TensorView& out, ThreadPool* pool = nullptr);

// Elementwise activations; `out` may alias `x`. LeakyReluInto returns
// `x < 0 ? x * alpha : x`, bit for bit, for any alpha.
void ReluInto(const TensorView& x, const TensorView& out);
void LeakyReluInto(const TensorView& x, const TensorView& out, float alpha);
void SigmoidInto(const TensorView& x, const TensorView& out);
void TanhInto(const TensorView& x, const TensorView& out);

/// Folds BatchNorm inference statistics into per-channel affine factors:
/// y = x * scale[ch] + shift[ch].
void BatchNormFoldScaleShift(std::span<const float> gamma,
                             std::span<const float> beta,
                             std::span<const float> mean,
                             std::span<const float> var, float eps,
                             std::span<float> scale, std::span<float> shift);

/// Applies the folded affine over the trailing channel dimension; `out` may
/// alias `x`.
void BatchNormInferenceInto(const TensorView& x, std::span<const float> scale,
                            std::span<const float> shift,
                            const TensorView& out);

/// Adds a + b elementwise into `out` (any operand may alias `out`).
void AddInto(const TensorView& a, const TensorView& b, const TensorView& out);

}  // namespace metro::tensor
