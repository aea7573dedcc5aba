#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

namespace metro::nn {

using tensor::MatMul;
using tensor::MatMulRows;
using tensor::MatMulTransposeA;
using tensor::MatMulTransposeB;

Lstm::Lstm(int input_size, int hidden_size, int steps, Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      steps_(steps),
      wx_("wx", Tensor::HeNormal({input_size, 4 * hidden_size}, input_size, rng)),
      wh_("wh",
          Tensor::HeNormal({hidden_size, 4 * hidden_size}, hidden_size, rng)),
      b_("b", Tensor({4 * hidden_size})) {
  // Forget-gate bias (+1) — second block of the packed layout.
  auto bd = b_.value.data();
  for (int j = hidden_; j < 2 * hidden_; ++j) bd[j] = 1.0f;
}

METRO_NOALLOC
void Lstm::CellStep(const float* zx, std::size_t zx_stride,
                    const float* h_prev, const float* c_prev, int n,
                    float* gates, float* c_out, float* h_out) const {
  const int hid = hidden_;
  const std::size_t h4 = 4 * std::size_t(hid);
  // z = x_t*Wx + h*Wh + b, summed in that order; h*Wh lands in `gates`
  // first, so h_out may overwrite h_prev below.
  MatMulRows(h_prev, wh_.value.data().data(), gates, hid, int(h4), 0, n);
  const float* bd = b_.value.data().data();
  for (int r = 0; r < n; ++r) {
    float* z = gates + std::size_t(r) * h4;
    const float* zxr = zx + std::size_t(r) * zx_stride;
    for (std::size_t j = 0; j < h4; ++j) z[j] = zxr[j] + z[j] + bd[j];
    const std::size_t row = std::size_t(r) * hid;
    for (int j = 0; j < hid; ++j) {
      const float gi = 1.0f / (1.0f + std::exp(-z[j]));
      const float gf = 1.0f / (1.0f + std::exp(-z[hid + j]));
      const float gg = std::tanh(z[2 * hid + j]);
      const float go = 1.0f / (1.0f + std::exp(-z[3 * hid + j]));
      const float cv = gf * c_prev[row + j] + gi * gg;
      z[j] = gi;
      z[hid + j] = gf;
      z[2 * hid + j] = gg;
      z[3 * hid + j] = go;
      c_out[row + j] = cv;
      h_out[row + j] = go * std::tanh(cv);
    }
  }
}

METRO_NOALLOC
void Lstm::ForwardInto(const TensorView& x, const TensorView& out,
                       InferenceContext& ctx) {
  assert(x.rank() == 2 && x.dim(1) == input_ && x.dim(0) % steps_ == 0);
  const int rows = x.dim(0), n = rows / steps_;
  const std::size_t h4 = 4 * std::size_t(hidden_);
  // x*Wx for every (clip, step) row in one call: MatMulRows computes each
  // row on its own, so this equals the per-step products bit for bit.
  const std::span<float> zx = ctx.scratch.Alloc(std::size_t(rows) * h4);
  MatMulRows(x.data().data(), wx_.value.data().data(), zx.data(), input_,
             int(h4), 0, rows);
  const std::span<float> gates = ctx.scratch.Alloc(std::size_t(n) * h4);
  const std::span<float> c = ctx.scratch.Alloc(std::size_t(n) * hidden_);
  const std::span<float> h = out.data();
  std::fill(c.begin(), c.end(), 0.0f);
  std::fill(h.begin(), h.end(), 0.0f);
  for (int t = 0; t < steps_; ++t) {
    CellStep(zx.data() + std::size_t(t) * h4, std::size_t(steps_) * h4,
             h.data(), c.data(), n, gates.data(), c.data(), h.data());
  }
}

Tensor Lstm::ForwardTrain(const Tensor& x) {
  assert(x.rank() == 2 && x.dim(1) == input_ && x.dim(0) % steps_ == 0);
  const int n = x.dim(0) / steps_;
  const std::size_t h4 = 4 * std::size_t(hidden_);
  cached_x_ = x;
  const Tensor zx = MatMul(x, wx_.value);
  gates_.assign(std::size_t(steps_), Tensor({n, int(h4)}));
  h_.assign(std::size_t(steps_) + 1, Tensor({n, hidden_}));
  c_.assign(std::size_t(steps_) + 1, Tensor({n, hidden_}));
  for (std::size_t t = 0; t < std::size_t(steps_); ++t) {
    CellStep(zx.data().data() + t * h4, std::size_t(steps_) * h4,
             h_[t].data().data(), c_[t].data().data(), n,
             gates_[t].data().data(), c_[t + 1].data().data(),
             h_[t + 1].data().data());
  }
  return h_.back();
}

Tensor Lstm::Backward(const Tensor& grad_h) {
  assert(!gates_.empty() && grad_h.rank() == 2 && grad_h.dim(1) == hidden_);
  const int n = grad_h.dim(0), hid = hidden_, h4 = 4 * hidden_;
  assert(n * steps_ == cached_x_.dim(0));

  Tensor dz_all({n * steps_, h4});  // clip-major, like the input
  Tensor x_t({n, input_});
  Tensor dh_next({n, hid});
  Tensor dc_next({n, hid});

  for (int t = steps_ - 1; t >= 0; --t) {
    const Tensor& gates = gates_[std::size_t(t)];
    const Tensor& c_prev = c_[std::size_t(t)];
    const Tensor& c = c_[std::size_t(t) + 1];
    // The head's gradient reaches h only at the last step.
    const bool last = t == steps_ - 1;

    Tensor dz({n, h4});
    Tensor dc_prev({n, hid});
    auto dzd = dz.data();
    for (int r = 0; r < n; ++r) {
      const std::size_t row = std::size_t(r) * hid;
      const std::size_t zrow = std::size_t(r) * h4;
      for (int j = 0; j < hid; ++j) {
        const float i = gates[zrow + j], f = gates[zrow + hid + j],
                    g = gates[zrow + 2 * hid + j],
                    o = gates[zrow + 3 * hid + j], tc = std::tanh(c[row + j]);
        const float dhv = (last ? grad_h[row + j] : 0.0f) + dh_next[row + j];
        const float dcv = dhv * o * (1 - tc * tc) + dc_next[row + j];
        const float dov = dhv * tc;
        const float div = dcv * g;
        const float dfv = dcv * c_prev[row + j];
        const float dgv = dcv * i;
        dzd[zrow + j] = div * i * (1 - i);
        dzd[zrow + hid + j] = dfv * f * (1 - f);
        dzd[zrow + 2 * hid + j] = dgv * (1 - g * g);
        dzd[zrow + 3 * hid + j] = dov * o * (1 - o);
        dc_prev[row + j] = dcv * f;
      }
    }

    // Step t's rows of the clip-major input and gradient.
    for (int r = 0; r < n; ++r) {
      const std::size_t src = std::size_t(r) * steps_ + std::size_t(t);
      std::copy_n(&cached_x_[src * input_], input_,
                  &x_t[std::size_t(r) * input_]);
      std::copy_n(&dz[std::size_t(r) * h4], h4, &dz_all[src * h4]);
    }
    wx_.grad += MatMulTransposeA(x_t, dz);
    wh_.grad += MatMulTransposeA(h_[std::size_t(t)], dz);
    {
      auto gb = b_.grad.data();
      for (int r = 0; r < n; ++r) {
        for (int j = 0; j < h4; ++j) gb[j] += dzd[std::size_t(r) * h4 + j];
      }
    }
    dh_next = MatMulTransposeB(dz, wh_.value);
    dc_next = std::move(dc_prev);
  }
  return MatMulTransposeB(dz_all, wx_.value);
}

std::string Lstm::name() const {
  return "lstm" + std::to_string(input_) + "x" + std::to_string(hidden_) +
         "/t" + std::to_string(steps_);
}

std::size_t Lstm::ForwardMacs(const Shape& input_shape) const {
  // Per (clip, step) row: x*Wx and h*Wh.
  return std::size_t(input_shape[0]) * (std::size_t(input_) + hidden_) * 4 *
         hidden_;
}

Shape Lstm::OutputShape(const Shape& input_shape) const {
  return {input_shape[0] / steps_, hidden_};
}

}  // namespace metro::nn
