#include "zoo/resnet_block.h"

#include <cassert>

namespace metro::zoo {

ResNetBlock::ResNetBlock(int in_channels, int out_channels, int stride,
                         ShortcutKind shortcut, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      stride_(stride),
      shortcut_(shortcut),
      conv1_(in_channels, out_channels, 3, stride, 1, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, rng),
      bn2_(out_channels),
      relu1_(nn::ActKind::kRelu),
      relu2_(nn::ActKind::kRelu) {
  switch (shortcut_) {
    case ShortcutKind::kConv:
      conv_sc_ = std::make_unique<nn::Conv2d>(in_channels, out_channels, 1,
                                              stride, 0, rng);
      break;
    case ShortcutKind::kIdentity:
      assert(stride == 1 && in_channels == out_channels &&
             "identity shortcut requires matching shapes");
      break;
    case ShortcutKind::kMaxPool:
      assert(out_channels >= in_channels &&
             "max-pool shortcut pads channels, it cannot drop them");
      if (stride > 1) {
        pool_sc_ = std::make_unique<nn::MaxPool2d>(stride, stride);
      }
      break;
  }
}

Tensor ResNetBlock::ShortcutForward(const Tensor& x) {
  switch (shortcut_) {
    case ShortcutKind::kConv:
      return conv_sc_->Forward(x, /*training=*/true);
    case ShortcutKind::kIdentity:
      return x;
    case ShortcutKind::kMaxPool: {
      Tensor pooled = pool_sc_ ? pool_sc_->Forward(x, /*training=*/true) : x;
      if (cout_ == cin_) return pooled;
      // Zero-pad the channel dimension up to cout_.
      Tensor padded({pooled.dim(0), pooled.dim(1), pooled.dim(2), cout_});
      const int pix = pooled.dim(0) * pooled.dim(1) * pooled.dim(2);
      for (int p = 0; p < pix; ++p) {
        for (int ch = 0; ch < cin_; ++ch) {
          padded[std::size_t(p) * cout_ + ch] = pooled[std::size_t(p) * cin_ + ch];
        }
      }
      return padded;
    }
  }
  return x;
}

Tensor ResNetBlock::ShortcutBackward(const Tensor& grad) {
  switch (shortcut_) {
    case ShortcutKind::kConv:
      return conv_sc_->Backward(grad);
    case ShortcutKind::kIdentity:
      return grad;
    case ShortcutKind::kMaxPool: {
      Tensor g = grad;
      if (cout_ != cin_) {
        // Drop gradients flowing into the zero-padded channels.
        Tensor trimmed({grad.dim(0), grad.dim(1), grad.dim(2), cin_});
        const int pix = grad.dim(0) * grad.dim(1) * grad.dim(2);
        for (int p = 0; p < pix; ++p) {
          for (int ch = 0; ch < cin_; ++ch) {
            trimmed[std::size_t(p) * cin_ + ch] = grad[std::size_t(p) * cout_ + ch];
          }
        }
        g = std::move(trimmed);
      }
      return pool_sc_ ? pool_sc_->Backward(g) : g;
    }
  }
  return grad;
}

Tensor ResNetBlock::ForwardTrain(const Tensor& x) {
  Tensor main = bn1_.Forward(conv1_.Forward(x, true), true);
  main = relu1_.Forward(main, true);
  main = bn2_.Forward(conv2_.Forward(main, true), true);

  Tensor sc = ShortcutForward(x);
  assert(sc.shape() == main.shape());
  main += sc;
  return relu2_.Forward(main, true);
}

METRO_NOALLOC
void ResNetBlock::ForwardInto(const nn::TensorView& x,
                              const nn::TensorView& out,
                              nn::InferenceContext& ctx) {
  using tensor::TensorView;
  // Main path: conv1 -> bn1 -> relu runs in block-local scratch; conv2 writes
  // straight into `out` (distinct from `x` by the engine's ping-pong rule),
  // then bn2 / the residual add / the final relu execute in place on `out`.
  TensorView mid = ctx.scratch.AllocView(conv1_.OutputShape(x.shape()));
  conv1_.ForwardInto(x, mid, ctx);
  bn1_.ForwardInto(mid, mid, ctx);
  relu1_.ForwardInto(mid, mid, ctx);
  conv2_.ForwardInto(mid, out, ctx);
  bn2_.ForwardInto(out, out, ctx);

  switch (shortcut_) {
    case ShortcutKind::kConv: {
      TensorView sc = ctx.scratch.AllocView(out.shape());
      conv_sc_->ForwardInto(x, sc, ctx);
      tensor::AddInto(out, sc, out);
      break;
    }
    case ShortcutKind::kIdentity:
      tensor::AddInto(out, x, out);
      break;
    case ShortcutKind::kMaxPool: {
      TensorView pooled = x;
      if (pool_sc_) {
        pooled = ctx.scratch.AllocView(pool_sc_->OutputShape(x.shape()));
        pool_sc_->ForwardInto(x, pooled, ctx);
      }
      if (cout_ == cin_) {
        tensor::AddInto(out, pooled, out);
      } else {
        // Add the pooled channels; the zero-padded tail contributes nothing.
        const float* pd = pooled.data().data();
        float* od = out.data().data();
        const std::size_t pix = pooled.size() / std::size_t(cin_);
        for (std::size_t p = 0; p < pix; ++p) {
          float* opx = &od[p * std::size_t(cout_)];
          const float* ppx = &pd[p * std::size_t(cin_)];
          for (int ch = 0; ch < cin_; ++ch) opx[ch] += ppx[ch];
          // The training forward adds the zero padding too; the same
          // += 0.0f normalizes signed zeros identically in both.
          for (int ch = cin_; ch < cout_; ++ch) opx[ch] += 0.0f;
        }
      }
      break;
    }
  }
  relu2_.ForwardInto(out, out, ctx);
}

Tensor ResNetBlock::Backward(const Tensor& grad_out) {
  Tensor g = relu2_.Backward(grad_out);
  // Branch 1: main path.
  Tensor gm = conv2_.Backward(bn2_.Backward(g));
  gm = relu1_.Backward(gm);
  Tensor gx = conv1_.Backward(bn1_.Backward(gm));
  // Branch 2: shortcut.
  gx += ShortcutBackward(g);
  return gx;
}

std::vector<Param*> ResNetBlock::Params() {
  std::vector<Param*> params;
  for (Param* p : conv1_.Params()) params.push_back(p);
  for (Param* p : bn1_.Params()) params.push_back(p);
  for (Param* p : conv2_.Params()) params.push_back(p);
  for (Param* p : bn2_.Params()) params.push_back(p);
  if (conv_sc_) {
    for (Param* p : conv_sc_->Params()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor*> ResNetBlock::Buffers() {
  std::vector<Tensor*> buffers = bn1_.Buffers();
  for (Tensor* b : bn2_.Buffers()) buffers.push_back(b);
  return buffers;
}

std::string ResNetBlock::name() const {
  std::string sc;
  switch (shortcut_) {
    case ShortcutKind::kConv: sc = "conv-sc"; break;
    case ShortcutKind::kIdentity: sc = "id-sc"; break;
    case ShortcutKind::kMaxPool: sc = "pool-sc"; break;
  }
  return "resblock" + std::to_string(cout_) + "(" + sc + ")";
}

std::size_t ResNetBlock::ForwardMacs(const Shape& input_shape) const {
  std::size_t macs = conv1_.ForwardMacs(input_shape);
  const Shape mid = conv1_.OutputShape(input_shape);
  macs += bn1_.ForwardMacs(mid);
  macs += conv2_.ForwardMacs(mid);
  macs += bn2_.ForwardMacs(mid);
  if (conv_sc_) macs += conv_sc_->ForwardMacs(input_shape);
  if (pool_sc_) macs += pool_sc_->ForwardMacs(input_shape);
  return macs;
}

Shape ResNetBlock::OutputShape(const Shape& input_shape) const {
  return conv1_.OutputShape(input_shape);
}

}  // namespace metro::zoo
