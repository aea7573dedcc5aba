#include "zoo/inception.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace metro::zoo {

using nn::ActKind;
using nn::Shape;
using nn::Tensor;
using tensor::TensorView;

namespace {

/// Copies `x` into the interior of `out`, whose border of `pad` pixels on
/// each spatial side must already hold the fill value. Raw row memcpys with
/// precomputed strides — the padded interior is contiguous per (b, y) row.
void PadSpatialRows(const float* xd, int n, int h, int w, int c, int pad,
                    float* od) {
  const int ph = h + 2 * pad, pw = w + 2 * pad;
  const std::size_t row = std::size_t(w) * c;
  const std::size_t prow = std::size_t(pw) * c;
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      std::memcpy(
          &od[(std::size_t(b) * ph + y + pad) * prow + std::size_t(pad) * c],
          &xd[(std::size_t(b) * h + y) * row], row * sizeof(float));
    }
  }
}

/// Zero-pads H and W by `pad` on each side (for the same-size pooling
/// branch; MaxPool2d itself is unpadded).
Tensor PadSpatial(const Tensor& x, int pad) {
  const int n = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  Tensor out({n, h + 2 * pad, w + 2 * pad, c},
             -1e30f);  // -inf-ish so padding never wins the max
  PadSpatialRows(x.data().data(), n, h, w, c, pad, out.data().data());
  return out;
}

/// PadSpatial into preallocated (arena) storage.
void PadSpatialInto(const TensorView& x, int pad, const TensorView& out) {
  const int n = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  assert(out.dim(0) == n && out.dim(1) == h + 2 * pad &&
         out.dim(2) == w + 2 * pad && out.dim(3) == c);
  std::fill(out.data().begin(), out.data().end(), -1e30f);
  PadSpatialRows(x.data().data(), n, h, w, c, pad, out.data().data());
}

/// Drops the padded border from a gradient tensor.
Tensor UnpadSpatial(const Tensor& g, int pad) {
  const int n = g.dim(0), h = g.dim(1) - 2 * pad, w = g.dim(2) - 2 * pad,
            c = g.dim(3);
  Tensor out({n, h, w, c});
  const float* gd = g.data().data();
  float* od = out.data().data();
  const int pw = w + 2 * pad, ph = h + 2 * pad;
  const std::size_t row = std::size_t(w) * c;
  const std::size_t prow = std::size_t(pw) * c;
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      std::memcpy(
          &od[(std::size_t(b) * h + y) * row],
          &gd[(std::size_t(b) * ph + y + pad) * prow + std::size_t(pad) * c],
          row * sizeof(float));
    }
  }
  return out;
}

/// Interleaves channel-wise parts into `out` — same values in the same
/// positions as ConcatChannels.
void ConcatChannelsInto(const std::vector<TensorView>& parts,
                        const TensorView& out) {
  const int total_c = out.dim(3);
  const std::size_t pixels =
      std::size_t(out.dim(0)) * out.dim(1) * out.dim(2);
  float* od = out.data().data();
  std::size_t offset = 0;
  for (const TensorView& part : parts) {
    const int pc = part.dim(3);
    const float* pd = part.data().data();
    for (std::size_t px = 0; px < pixels; ++px) {
      std::memcpy(&od[px * std::size_t(total_c) + offset],
                  &pd[px * std::size_t(pc)], std::size_t(pc) * sizeof(float));
    }
    offset += std::size_t(pc);
  }
}

}  // namespace

Tensor ConcatChannels(const std::vector<const Tensor*>& parts) {
  assert(!parts.empty());
  const int n = parts[0]->dim(0), h = parts[0]->dim(1), w = parts[0]->dim(2);
  int total_c = 0;
  for (const Tensor* part : parts) {
    assert(part->dim(0) == n && part->dim(1) == h && part->dim(2) == w);
    total_c += part->dim(3);
  }
  Tensor out({n, h, w, total_c});
  const std::size_t pixels = std::size_t(n) * h * w;
  for (std::size_t px = 0; px < pixels; ++px) {
    std::size_t offset = 0;
    for (const Tensor* part : parts) {
      const int pc = part->dim(3);
      for (int ch = 0; ch < pc; ++ch) {
        out[px * std::size_t(total_c) + offset + std::size_t(ch)] =
            (*part)[px * std::size_t(pc) + std::size_t(ch)];
      }
      offset += std::size_t(pc);
    }
  }
  return out;
}

std::vector<Tensor> SplitChannels(const Tensor& x,
                                  const std::vector<int>& widths) {
  const int n = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  int sum = 0;
  for (const int width : widths) sum += width;
  assert(sum == c);
  std::vector<Tensor> parts;
  parts.reserve(widths.size());
  const std::size_t pixels = std::size_t(n) * h * w;
  std::size_t offset = 0;
  for (const int width : widths) {
    Tensor part({n, h, w, width});
    for (std::size_t px = 0; px < pixels; ++px) {
      for (int ch = 0; ch < width; ++ch) {
        part[px * std::size_t(width) + std::size_t(ch)] =
            x[px * std::size_t(c) + offset + std::size_t(ch)];
      }
    }
    parts.push_back(std::move(part));
    offset += std::size_t(width);
  }
  return parts;
}

InceptionBlock::InceptionBlock(int in_channels, const InceptionConfig& config,
                               Rng& rng)
    : cin_(in_channels),
      config_(config),
      b1_(in_channels, config.out_1x1, 1, 1, 0, rng),
      b2_reduce_(in_channels, config.reduce_3x3, 1, 1, 0, rng),
      b2_(config.reduce_3x3, config.out_3x3, 3, 1, 1, rng),
      b3_reduce_(in_channels, config.reduce_5x5, 1, 1, 0, rng),
      b3_(config.reduce_5x5, config.out_5x5, 5, 1, 2, rng),
      b4_pool_(3, 1),
      b4_(in_channels, config.out_pool, 1, 1, 0, rng),
      act1_(ActKind::kRelu),
      act2a_(ActKind::kRelu),
      act2b_(ActKind::kRelu),
      act3a_(ActKind::kRelu),
      act3b_(ActKind::kRelu),
      act4_(ActKind::kRelu) {}

Tensor InceptionBlock::ForwardTrain(const Tensor& x) {
  Tensor y1 = act1_.Forward(b1_.Forward(x, true), true);
  Tensor y2 = act2b_.Forward(
      b2_.Forward(act2a_.Forward(b2_reduce_.Forward(x, true), true), true),
      true);
  Tensor y3 = act3b_.Forward(
      b3_.Forward(act3a_.Forward(b3_reduce_.Forward(x, true), true), true),
      true);
  Tensor pooled = b4_pool_.Forward(PadSpatial(x, 1), true);
  Tensor y4 = act4_.Forward(b4_.Forward(pooled, true), true);
  return ConcatChannels({&y1, &y2, &y3, &y4});
}

METRO_NOALLOC
void InceptionBlock::ForwardInto(const nn::TensorView& x,
                                 const nn::TensorView& out,
                                 nn::InferenceContext& ctx) {
  // Each branch computes into block-local scratch (activations run in
  // place), then the four results interleave into `out`. The caller rewinds
  // the scratch after this layer returns.
  const Shape& in = x.shape();
  TensorView y1 = ctx.scratch.AllocView(b1_.OutputShape(in));
  b1_.ForwardInto(x, y1, ctx);
  tensor::ReluInto(y1, y1);

  TensorView r2 = ctx.scratch.AllocView(b2_reduce_.OutputShape(in));
  b2_reduce_.ForwardInto(x, r2, ctx);
  tensor::ReluInto(r2, r2);
  TensorView y2 = ctx.scratch.AllocView(b2_.OutputShape(r2.shape()));
  b2_.ForwardInto(r2, y2, ctx);
  tensor::ReluInto(y2, y2);

  TensorView r3 = ctx.scratch.AllocView(b3_reduce_.OutputShape(in));
  b3_reduce_.ForwardInto(x, r3, ctx);
  tensor::ReluInto(r3, r3);
  TensorView y3 = ctx.scratch.AllocView(b3_.OutputShape(r3.shape()));
  b3_.ForwardInto(r3, y3, ctx);
  tensor::ReluInto(y3, y3);

  Shape padded_shape = in;
  padded_shape[1] += 2;
  padded_shape[2] += 2;
  TensorView padded = ctx.scratch.AllocView(padded_shape);
  PadSpatialInto(x, 1, padded);
  TensorView pooled =
      ctx.scratch.AllocView(b4_pool_.OutputShape(padded_shape));
  b4_pool_.ForwardInto(padded, pooled, ctx);
  TensorView y4 = ctx.scratch.AllocView(b4_.OutputShape(pooled.shape()));
  b4_.ForwardInto(pooled, y4, ctx);
  tensor::ReluInto(y4, y4);

  ConcatChannelsInto({y1, y2, y3, y4}, out);
}

Tensor InceptionBlock::Backward(const Tensor& grad_out) {
  auto grads = SplitChannels(
      grad_out, {config_.out_1x1, config_.out_3x3, config_.out_5x5,
                 config_.out_pool});
  Tensor gx = b1_.Backward(act1_.Backward(grads[0]));
  gx += b2_reduce_.Backward(
      act2a_.Backward(b2_.Backward(act2b_.Backward(grads[1]))));
  gx += b3_reduce_.Backward(
      act3a_.Backward(b3_.Backward(act3b_.Backward(grads[2]))));
  Tensor g_pool = b4_pool_.Backward(b4_.Backward(act4_.Backward(grads[3])));
  gx += UnpadSpatial(g_pool, 1);
  return gx;
}

std::vector<nn::Param*> InceptionBlock::Params() {
  std::vector<nn::Param*> params;
  for (nn::Conv2d* conv :
       {&b1_, &b2_reduce_, &b2_, &b3_reduce_, &b3_, &b4_}) {
    for (nn::Param* p : conv->Params()) params.push_back(p);
  }
  return params;
}

std::string InceptionBlock::name() const {
  return "inception" + std::to_string(config_.total_out());
}

std::size_t InceptionBlock::ForwardMacs(const Shape& input_shape) const {
  std::size_t macs = b1_.ForwardMacs(input_shape);
  macs += b2_reduce_.ForwardMacs(input_shape);
  macs += b2_.ForwardMacs(b2_reduce_.OutputShape(input_shape));
  macs += b3_reduce_.ForwardMacs(input_shape);
  macs += b3_.ForwardMacs(b3_reduce_.OutputShape(input_shape));
  Shape padded = input_shape;
  padded[1] += 2;
  padded[2] += 2;
  macs += b4_pool_.ForwardMacs(padded);
  macs += b4_.ForwardMacs(input_shape);
  return macs;
}

Shape InceptionBlock::OutputShape(const Shape& input_shape) const {
  return {input_shape[0], input_shape[1], input_shape[2], config_.total_out()};
}

}  // namespace metro::zoo
