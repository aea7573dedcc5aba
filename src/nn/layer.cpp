#include "nn/layer.h"

#include <cmath>

namespace metro::nn {

using tensor::MatMulTransposeA;
using tensor::MatMulTransposeB;

// ---------------------------------------------------------------- Layer

Tensor Layer::Forward(const Tensor& x, bool training) {
  if (training) return ForwardTrain(x);
  Tensor y(OutputShape(x.shape()));
  tensor::Workspace scratch;
  InferenceContext ctx{scratch};
  ForwardInto(TensorView::OfConst(x), TensorView(y), ctx);
  return y;
}

METRO_NOALLOC
void Layer::ForwardInto(const TensorView& x, const TensorView& out,
                        InferenceContext& /*ctx*/) {
  out.CopyFrom(x.data());
}

// ---------------------------------------------------------------- Dense

Dense::Dense(int in_features, int out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_("w", Tensor::HeNormal({in_features, out_features}, in_features, rng)),
      b_("b", Tensor({out_features})) {}

Tensor Dense::ForwardTrain(const Tensor& x) {
  assert(x.rank() == 2 && x.dim(1) == in_);
  cached_x_ = x;
  return Forward(x, /*training=*/false);
}

METRO_NOALLOC
void Dense::ForwardInto(const TensorView& x, const TensorView& out,
                        InferenceContext& ctx) {
  assert(x.rank() == 2 && x.dim(1) == in_);
  tensor::DenseForwardInto(x, w_.value, b_.value, out, ctx.pool);
}

Tensor Dense::Backward(const Tensor& grad_out) {
  assert(grad_out.rank() == 2 && grad_out.dim(1) == out_);
  // dW = x^T * dY, db = colsum(dY), dX = dY * W^T.
  w_.grad += MatMulTransposeA(cached_x_, grad_out);
  const int n = grad_out.dim(0);
  auto gb = b_.grad.data();
  const auto go = grad_out.data();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < out_; ++j) gb[j] += go[std::size_t(i) * out_ + j];
  }
  return MatMulTransposeB(grad_out, w_.value);
}

std::string Dense::name() const {
  return "dense" + std::to_string(in_) + "x" + std::to_string(out_);
}

std::size_t Dense::ForwardMacs(const Shape& input_shape) const {
  return std::size_t(input_shape[0]) * in_ * out_;
}

Shape Dense::OutputShape(const Shape& input_shape) const {
  return {input_shape[0], out_};
}

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      w_("w", Tensor::HeNormal({kernel, kernel, in_channels, out_channels},
                               kernel * kernel * in_channels, rng)),
      b_("b", Tensor({out_channels})) {}

Tensor Conv2d::ForwardTrain(const Tensor& x) {
  assert(x.rank() == 4 && x.dim(3) == cin_);
  cached_x_ = x;
  return Forward(x, /*training=*/false);
}

METRO_NOALLOC
void Conv2d::ForwardInto(const TensorView& x, const TensorView& out,
                         InferenceContext& ctx) {
  ForwardInto(x, out, ctx, tensor::ConvEpilogue{});
}

METRO_NOALLOC
void Conv2d::ForwardInto(const TensorView& x, const TensorView& out,
                         InferenceContext& ctx,
                         const tensor::ConvEpilogue& epilogue) {
  assert(x.rank() == 4 && x.dim(3) == cin_);
  tensor::Conv2dForwardInto(x, w_.value, b_.value, stride_, pad_, out,
                            ctx.pool, epilogue);
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  auto grads =
      tensor::Conv2dBackward(cached_x_, w_.value, grad_out, stride_, pad_);
  w_.grad += grads.weights;
  b_.grad += grads.bias;
  return std::move(grads.input);
}

std::string Conv2d::name() const {
  return "conv" + std::to_string(k_) + "x" + std::to_string(k_) + "x" +
         std::to_string(cout_) + (stride_ > 1 ? "/s" + std::to_string(stride_) : "");
}

std::size_t Conv2d::ForwardMacs(const Shape& input_shape) const {
  const Shape out = OutputShape(input_shape);
  return std::size_t(out[0]) * out[1] * out[2] * out[3] * k_ * k_ * cin_;
}

Shape Conv2d::OutputShape(const Shape& input_shape) const {
  const int oh = (input_shape[1] + 2 * pad_ - k_) / stride_ + 1;
  const int ow = (input_shape[2] + 2 * pad_ - k_) / stride_ + 1;
  return {input_shape[0], oh, ow, cout_};
}

// ---------------------------------------------------------------- MaxPool2d

Tensor MaxPool2d::ForwardTrain(const Tensor& x) {
  cached_x_ = x;
  return Forward(x, /*training=*/false);
}

METRO_NOALLOC
void MaxPool2d::ForwardInto(const TensorView& x, const TensorView& out,
                            InferenceContext& /*ctx*/) {
  tensor::MaxPool2dForwardInto(x, k_, stride_, out);
}

Tensor MaxPool2d::Backward(const Tensor& grad_out) {
  return tensor::MaxPool2dBackward(cached_x_, k_, stride_, grad_out);
}

std::string MaxPool2d::name() const {
  return "maxpool" + std::to_string(k_) + "/s" + std::to_string(stride_);
}

std::size_t MaxPool2d::ForwardMacs(const Shape& input_shape) const {
  // Comparisons, not MACs; count them anyway as unit work.
  const Shape out = OutputShape(input_shape);
  return std::size_t(out[0]) * out[1] * out[2] * out[3] * k_ * k_;
}

Shape MaxPool2d::OutputShape(const Shape& input_shape) const {
  const int oh = (input_shape[1] - k_) / stride_ + 1;
  const int ow = (input_shape[2] - k_) / stride_ + 1;
  return {input_shape[0], oh, ow, input_shape[3]};
}

// ---------------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::ForwardTrain(const Tensor& x) {
  cached_in_shape_ = x.shape();
  return Forward(x, /*training=*/false);
}

METRO_NOALLOC
void GlobalAvgPool::ForwardInto(const TensorView& x, const TensorView& out,
                                InferenceContext& /*ctx*/) {
  tensor::GlobalAvgPoolForwardInto(x, out);
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_out) {
  return tensor::GlobalAvgPoolBackward(cached_in_shape_, grad_out);
}

Shape GlobalAvgPool::OutputShape(const Shape& input_shape) const {
  return {input_shape[0], input_shape[3]};
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::ForwardTrain(const Tensor& x) {
  cached_in_shape_ = x.shape();
  return x.Reshape(OutputShape(x.shape()));
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  return grad_out.Reshape(cached_in_shape_);
}

Shape Flatten::OutputShape(const Shape& input_shape) const {
  int features = 1;
  for (std::size_t i = 1; i < input_shape.size(); ++i) features *= input_shape[i];
  return {input_shape[0], features};
}

// ---------------------------------------------------------------- Activation

Tensor Activation::ForwardTrain(const Tensor& x) {
  Tensor y = Forward(x, /*training=*/false);
  const bool relu = kind_ == ActKind::kRelu || kind_ == ActKind::kLeakyRelu;
  cached_ = relu ? x : y;
  return y;
}

METRO_NOALLOC
void Activation::ForwardInto(const TensorView& x, const TensorView& out,
                             InferenceContext& /*ctx*/) {
  switch (kind_) {
    case ActKind::kRelu:
      tensor::ReluInto(x, out);
      return;
    case ActKind::kLeakyRelu:
      tensor::LeakyReluInto(x, out, alpha_);
      return;
    case ActKind::kSigmoid:
      tensor::SigmoidInto(x, out);
      return;
    case ActKind::kTanh:
      tensor::TanhInto(x, out);
      return;
  }
}

Tensor Activation::Backward(const Tensor& grad_out) {
  switch (kind_) {
    case ActKind::kRelu:
      return tensor::ReluBackward(cached_, grad_out);
    case ActKind::kLeakyRelu:
      return tensor::LeakyReluBackward(cached_, grad_out, alpha_);
    case ActKind::kSigmoid:
      return tensor::SigmoidBackward(cached_, grad_out);
    case ActKind::kTanh:
      return tensor::TanhBackward(cached_, grad_out);
  }
  return grad_out;
}

std::string Activation::name() const {
  switch (kind_) {
    case ActKind::kRelu: return "relu";
    case ActKind::kLeakyRelu: return "lrelu";
    case ActKind::kSigmoid: return "sigmoid";
    case ActKind::kTanh: return "tanh";
  }
  return "act";
}

// ---------------------------------------------------------------- BatchNorm

BatchNorm::BatchNorm(int channels, float momentum, float eps)
    : c_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("gamma", Tensor({channels}, 1.0f)),
      beta_("beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_({channels}, 1.0f) {}

Tensor BatchNorm::ForwardTrain(const Tensor& x) {
  assert(x.rank() >= 2 && x.dim(x.rank() - 1) == c_);
  const std::size_t rows = x.size() / std::size_t(c_);
  Tensor y(x.shape());
  const auto xd = x.data();
  auto yd = y.data();
  const auto g = gamma_.value.data();
  const auto b = beta_.value.data();

  batch_mean_.assign(std::size_t(c_), 0.0f);
  batch_inv_std_.assign(std::size_t(c_), 0.0f);
  std::vector<double> mean(std::size_t(c_), 0.0), var(std::size_t(c_), 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int ch = 0; ch < c_; ++ch) mean[std::size_t(ch)] += xd[r * c_ + ch];
  }
  for (auto& m : mean) m /= double(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int ch = 0; ch < c_; ++ch) {
      const double d = xd[r * c_ + ch] - mean[std::size_t(ch)];
      var[std::size_t(ch)] += d * d;
    }
  }
  for (auto& v : var) v /= double(rows);

  auto rm = running_mean_.data();
  auto rv = running_var_.data();
  for (int ch = 0; ch < c_; ++ch) {
    batch_mean_[std::size_t(ch)] = float(mean[std::size_t(ch)]);
    batch_inv_std_[std::size_t(ch)] =
        1.0f / std::sqrt(float(var[std::size_t(ch)]) + eps_);
    rm[ch] = momentum_ * rm[ch] + (1 - momentum_) * float(mean[std::size_t(ch)]);
    rv[ch] = momentum_ * rv[ch] + (1 - momentum_) * float(var[std::size_t(ch)]);
  }

  cached_xhat_ = Tensor(x.shape());
  auto xh = cached_xhat_.data();
  for (std::size_t r = 0; r < rows; ++r) {
    for (int ch = 0; ch < c_; ++ch) {
      const std::size_t i = r * c_ + ch;
      xh[i] = (xd[i] - batch_mean_[std::size_t(ch)]) * batch_inv_std_[std::size_t(ch)];
      yd[i] = g[ch] * xh[i] + b[ch];
    }
  }
  rows_ = rows;
  return y;
}

METRO_NOALLOC
void BatchNorm::FoldScaleShift(std::span<float> scale,
                               std::span<float> shift) const {
  tensor::BatchNormFoldScaleShift(gamma_.value.data(), beta_.value.data(),
                                  running_mean_.data(), running_var_.data(),
                                  eps_, scale, shift);
}

METRO_NOALLOC
void BatchNorm::ForwardInto(const TensorView& x, const TensorView& out,
                            InferenceContext& ctx) {
  assert(x.rank() >= 2 && x.dim(x.rank() - 1) == c_);
  const std::span<float> scale = ctx.scratch.Alloc(std::size_t(c_));
  const std::span<float> shift = ctx.scratch.Alloc(std::size_t(c_));
  FoldScaleShift(scale, shift);
  tensor::BatchNormInferenceInto(x, scale, shift, out);
}

Tensor BatchNorm::Backward(const Tensor& grad_out) {
  // Standard batch-norm backward over the cached normalized activations.
  const std::size_t rows = rows_;
  assert(rows > 0 && grad_out.size() == rows * std::size_t(c_));
  Tensor grad_in(grad_out.shape());
  const auto go = grad_out.data();
  const auto xh = cached_xhat_.data();
  auto gi = grad_in.data();
  auto gg = gamma_.grad.data();
  auto gb = beta_.grad.data();
  const auto g = gamma_.value.data();

  std::vector<double> sum_go(std::size_t(c_), 0.0), sum_go_xh(std::size_t(c_), 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int ch = 0; ch < c_; ++ch) {
      const std::size_t i = r * c_ + ch;
      sum_go[std::size_t(ch)] += go[i];
      sum_go_xh[std::size_t(ch)] += double(go[i]) * xh[i];
    }
  }
  for (int ch = 0; ch < c_; ++ch) {
    gg[ch] += float(sum_go_xh[std::size_t(ch)]);
    gb[ch] += float(sum_go[std::size_t(ch)]);
  }
  const double invn = 1.0 / double(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int ch = 0; ch < c_; ++ch) {
      const std::size_t i = r * c_ + ch;
      const double term = double(go[i]) - sum_go[std::size_t(ch)] * invn -
                          double(xh[i]) * sum_go_xh[std::size_t(ch)] * invn;
      gi[i] = float(double(g[ch]) * batch_inv_std_[std::size_t(ch)] * term);
    }
  }
  return grad_in;
}

std::string BatchNorm::name() const { return "bn" + std::to_string(c_); }

std::size_t BatchNorm::ForwardMacs(const Shape& input_shape) const {
  return tensor::NumElements(input_shape) * 2;
}

// ---------------------------------------------------------------- Dropout

Tensor Dropout::ForwardTrain(const Tensor& x) {
  if (rate_ <= 0.0f) {
    mask_.clear();
    return x;
  }
  Tensor y = x;
  mask_.assign(x.size(), 0.0f);
  const float scale = 1.0f / (1.0f - rate_);
  auto yd = y.data();
  for (std::size_t i = 0; i < yd.size(); ++i) {
    if (rng_->Bernoulli(rate_)) {
      yd[i] = 0.0f;
    } else {
      mask_[i] = scale;
      yd[i] *= scale;
    }
  }
  return y;
}

Tensor Dropout::Backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  Tensor g = grad_out;
  auto gd = g.data();
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= mask_[i];
  return g;
}

std::string Dropout::name() const {
  return "dropout" + std::to_string(int(rate_ * 100));
}

}  // namespace metro::nn
