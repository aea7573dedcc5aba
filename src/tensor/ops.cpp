#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/thread_pool.h"

namespace metro::tensor {
namespace {

// `take ? a : b`, as a bit mask instead of a branch. Under GCC's default
// -ftrapping-math a `?:` with a multiply in one arm stays a branch, even when
// the source computes the product first: GCC sinks it into the arm, and may
// not then run it for elements that skip the arm. Such a loop never
// vectorizes and mispredicts on mixed-sign data. The mask keeps both arms
// live, vectorizes on baseline SSE2 (cmpltps + and/andn/or), and returns
// exactly the bits of the branchy form.
inline float SelectIf(bool take, float a, float b) {
  const std::uint32_t mask = -std::uint32_t(take);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & mask) |
                              (std::bit_cast<std::uint32_t>(b) & ~mask));
}

int ConvOutDim(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

struct ConvDims {
  int n, h, w, cin, kh, kw, cout, oh, ow, stride, pad;
};

// Computes output rows [row_begin, row_end), where a "row" is one (batch,
// output-y) pair. All indexing is raw pointers with precomputed strides —
// no per-element Tensor::at() — and the bias span is hoisted out of the
// pixel loop. The plain row kernel: Conv2dForwardInto runs it for output
// widths above kConvAccChannels, which no stack accumulator covers. Each
// output element is written by exactly one row, so ParallelFor over rows is
// race-free and order-preserving.
METRO_NOALLOC
void ConvRowRange(const float* in_d, const float* w_d, const float* bias_d,
                  const ConvDims& d, float* out_d, std::int64_t row_begin,
                  std::int64_t row_end) {
  const std::size_t in_row_stride = std::size_t(d.w) * d.cin;
  const std::size_t w_tap_stride = std::size_t(d.cin) * d.cout;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const int b = int(r / d.oh);
    const int oy = int(r % d.oh);
    const float* in_img = &in_d[std::size_t(b) * d.h * in_row_stride];
    float* out_row = &out_d[std::size_t(r) * d.ow * d.cout];
    for (int ox = 0; ox < d.ow; ++ox) {
      float* out_px = &out_row[std::size_t(ox) * d.cout];
      if (bias_d) {
        std::memcpy(out_px, bias_d, std::size_t(d.cout) * sizeof(float));
      } else {
        std::memset(out_px, 0, std::size_t(d.cout) * sizeof(float));
      }
      for (int ky = 0; ky < d.kh; ++ky) {
        const int iy = oy * d.stride + ky - d.pad;
        if (iy < 0 || iy >= d.h) continue;
        for (int kx = 0; kx < d.kw; ++kx) {
          const int ix = ox * d.stride + kx - d.pad;
          if (ix < 0 || ix >= d.w) continue;
          const float* in_px =
              &in_img[std::size_t(iy) * in_row_stride + std::size_t(ix) * d.cin];
          const float* w_px = &w_d[(std::size_t(ky) * d.kw + kx) * w_tap_stride];
          for (int ic = 0; ic < d.cin; ++ic) {
            const float iv = in_px[ic];
            if (iv == 0.0f) continue;
            const float* w_row = &w_px[std::size_t(ic) * d.cout];
            for (int oc = 0; oc < d.cout; ++oc) out_px[oc] += iv * w_row[oc];
          }
        }
      }
    }
  }
}

// Fixed-width kernel: identical tap order (and therefore bit-identical
// float results) to ConvRowRange, but each output pixel accumulates into a
// stack block the compiler can keep in SIMD registers, and the channel loop
// trip count is a template constant so it fully unrolls and SLP-vectorizes.
// In ConvRowRange the output pointer may alias the input as far as the
// compiler knows, so every tap is a load-modify-store through memory; here
// the accumulator is provably local, taps become pure multiply-adds, and
// the pixel is stored once. Results match the plain kernel bit for bit
// because each output element still receives the same additions in the
// same (ky, kx, ic) order — only the schedule around them changes.
constexpr int kConvAccChannels = 128;

template <int kCout>
METRO_NOALLOC
void ConvRowRangeFixed(const float* in_d, const float* w_d,
                       const float* bias_d, const ConvDims& d, float* out_d,
                       std::int64_t row_begin, std::int64_t row_end) {
  assert(d.cout == kCout);
  const std::size_t in_row_stride = std::size_t(d.w) * d.cin;
  const std::size_t w_tap_stride = std::size_t(d.cin) * kCout;
  // Interior ox range where every kx tap lands in-bounds, so the border
  // check can be hoisted out of ~all pixels. Skipped border taps contribute
  // no additions, so splitting the range preserves the accumulation order.
  const int ox_lo =
      std::min(d.ow, (d.pad + d.stride - 1) / std::max(d.stride, 1));
  const int ox_hi = std::max(
      ox_lo, std::min(d.ow, (d.w - d.kw + d.pad) / std::max(d.stride, 1) + 1));
  float acc[kCout];
  float acc2[kCout];

  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const int b = int(r / d.oh);
    const int oy = int(r % d.oh);
    const float* in_img = &in_d[std::size_t(b) * d.h * in_row_stride];
    float* out_row = &out_d[std::size_t(r) * d.ow * kCout];
    // Valid ky range for this output row (iy in [0, h)).
    int ky_lo = 0, ky_hi = d.kh;
    while (ky_lo < ky_hi && oy * d.stride + ky_lo - d.pad < 0) ++ky_lo;
    while (ky_hi > ky_lo && oy * d.stride + (ky_hi - 1) - d.pad >= d.h) {
      --ky_hi;
    }

    const auto pixel = [&](int ox, bool check_x) {
      if (bias_d) {
        for (int oc = 0; oc < kCout; ++oc) acc[oc] = bias_d[oc];
      } else {
        for (int oc = 0; oc < kCout; ++oc) acc[oc] = 0.0f;
      }
      for (int ky = ky_lo; ky < ky_hi; ++ky) {
        const int iy = oy * d.stride + ky - d.pad;
        const float* in_y = &in_img[std::size_t(iy) * in_row_stride];
        const float* w_ky = &w_d[std::size_t(ky) * d.kw * w_tap_stride];
        for (int kx = 0; kx < d.kw; ++kx) {
          const int ix = ox * d.stride + kx - d.pad;
          if (check_x && (ix < 0 || ix >= d.w)) continue;
          const float* in_px = &in_y[std::size_t(ix) * d.cin];
          const float* w_px = &w_ky[std::size_t(kx) * w_tap_stride];
          for (int ic = 0; ic < d.cin; ++ic) {
            const float iv = in_px[ic];
            if (iv == 0.0f) continue;
            const float* w_row = &w_px[std::size_t(ic) * kCout];
            for (int oc = 0; oc < kCout; ++oc) acc[oc] += iv * w_row[oc];
          }
        }
      }
      float* out_px = &out_row[std::size_t(ox) * kCout];
      for (int oc = 0; oc < kCout; ++oc) out_px[oc] = acc[oc];
    };

    // Interior pixels run in pairs so each weight row load feeds two
    // accumulators. Each output still receives its additions in the same
    // (ky, kx, ic) order as the single-pixel path, so results stay
    // bit-exact with the plain kernel.
    const auto pixel_pair = [&](int ox) {
      if (bias_d) {
        for (int oc = 0; oc < kCout; ++oc) acc[oc] = bias_d[oc];
        for (int oc = 0; oc < kCout; ++oc) acc2[oc] = bias_d[oc];
      } else {
        for (int oc = 0; oc < kCout; ++oc) acc[oc] = 0.0f;
        for (int oc = 0; oc < kCout; ++oc) acc2[oc] = 0.0f;
      }
      for (int ky = ky_lo; ky < ky_hi; ++ky) {
        const int iy = oy * d.stride + ky - d.pad;
        const float* in_y = &in_img[std::size_t(iy) * in_row_stride];
        const float* w_ky = &w_d[std::size_t(ky) * d.kw * w_tap_stride];
        for (int kx = 0; kx < d.kw; ++kx) {
          const int ix = ox * d.stride + kx - d.pad;
          const float* in_px = &in_y[std::size_t(ix) * d.cin];
          const float* in_px2 = in_px + std::size_t(d.stride) * d.cin;
          const float* w_px = &w_ky[std::size_t(kx) * w_tap_stride];
          for (int ic = 0; ic < d.cin; ++ic) {
            const float iv = in_px[ic];
            const float iv2 = in_px2[ic];
            const float* w_row = &w_px[std::size_t(ic) * kCout];
            if (iv != 0.0f) {
              for (int oc = 0; oc < kCout; ++oc) acc[oc] += iv * w_row[oc];
            }
            if (iv2 != 0.0f) {
              for (int oc = 0; oc < kCout; ++oc) acc2[oc] += iv2 * w_row[oc];
            }
          }
        }
      }
      float* out_px = &out_row[std::size_t(ox) * kCout];
      for (int oc = 0; oc < kCout; ++oc) out_px[oc] = acc[oc];
      float* out_px2 = out_px + kCout;
      for (int oc = 0; oc < kCout; ++oc) out_px2[oc] = acc2[oc];
    };

    for (int ox = 0; ox < ox_lo; ++ox) pixel(ox, /*check_x=*/true);
    int ox = ox_lo;
    for (; ox + 1 < ox_hi; ox += 2) pixel_pair(ox);
    for (; ox < ox_hi; ++ox) pixel(ox, /*check_x=*/false);
    for (ox = std::max(ox, ox_hi); ox < d.ow; ++ox) pixel(ox, /*check_x=*/true);
  }
}

// Generic-width fallback with the same local-accumulator structure.
METRO_NOALLOC
void ConvRowRangeBlocked(const float* in_d, const float* w_d,
                         const float* bias_d, const ConvDims& d, float* out_d,
                         std::int64_t row_begin, std::int64_t row_end) {
  assert(d.cout <= kConvAccChannels);
  const std::size_t in_row_stride = std::size_t(d.w) * d.cin;
  const std::size_t w_tap_stride = std::size_t(d.cin) * d.cout;
  float acc[kConvAccChannels];
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const int b = int(r / d.oh);
    const int oy = int(r % d.oh);
    const float* in_img = &in_d[std::size_t(b) * d.h * in_row_stride];
    float* out_row = &out_d[std::size_t(r) * d.ow * d.cout];
    for (int ox = 0; ox < d.ow; ++ox) {
      if (bias_d) {
        std::memcpy(acc, bias_d, std::size_t(d.cout) * sizeof(float));
      } else {
        std::memset(acc, 0, std::size_t(d.cout) * sizeof(float));
      }
      for (int ky = 0; ky < d.kh; ++ky) {
        const int iy = oy * d.stride + ky - d.pad;
        if (iy < 0 || iy >= d.h) continue;
        for (int kx = 0; kx < d.kw; ++kx) {
          const int ix = ox * d.stride + kx - d.pad;
          if (ix < 0 || ix >= d.w) continue;
          const float* in_px =
              &in_img[std::size_t(iy) * in_row_stride + std::size_t(ix) * d.cin];
          const float* w_px = &w_d[(std::size_t(ky) * d.kw + kx) * w_tap_stride];
          for (int ic = 0; ic < d.cin; ++ic) {
            const float iv = in_px[ic];
            if (iv == 0.0f) continue;
            const float* w_row = &w_px[std::size_t(ic) * d.cout];
            for (int oc = 0; oc < d.cout; ++oc) acc[oc] += iv * w_row[oc];
          }
        }
      }
      std::memcpy(&out_row[std::size_t(ox) * d.cout], acc,
                  std::size_t(d.cout) * sizeof(float));
    }
  }
}

using ConvRowFn = void (*)(const float*, const float*, const float*,
                           const ConvDims&, float*, std::int64_t,
                           std::int64_t);

// Picks the unrolled kernel for the channel widths the zoo actually uses.
ConvRowFn PickConvRowFn(int cout) {
  switch (cout) {
    case 4: return ConvRowRangeFixed<4>;
    case 8: return ConvRowRangeFixed<8>;
    case 12: return ConvRowRangeFixed<12>;
    case 13: return ConvRowRangeFixed<13>;
    case 16: return ConvRowRangeFixed<16>;
    case 24: return ConvRowRangeFixed<24>;
    case 32: return ConvRowRangeFixed<32>;
    default: return cout <= kConvAccChannels ? ConvRowRangeBlocked
                                             : ConvRowRange;
  }
}

ConvDims MakeConvDims(const Shape& in_shape, const Tensor& weights, int stride,
                      int pad) {
  ConvDims d;
  d.n = in_shape[0];
  d.h = in_shape[1];
  d.w = in_shape[2];
  d.cin = in_shape[3];
  d.kh = weights.dim(0);
  d.kw = weights.dim(1);
  d.cout = weights.dim(3);
  d.oh = ConvOutDim(d.h, d.kh, stride, pad);
  d.ow = ConvOutDim(d.w, d.kw, stride, pad);
  d.stride = stride;
  d.pad = pad;
  return d;
}

}  // namespace

METRO_NOALLOC
void Conv2dForwardInto(const TensorView& input, const Tensor& weights,
                       const Tensor& bias, int stride, int pad,
                       const TensorView& out, ThreadPool* pool) {
  assert(input.rank() == 4 && weights.rank() == 4 && out.rank() == 4);
  assert(weights.dim(2) == input.dim(3));
  assert(bias.empty() || int(bias.size()) == weights.dim(3));
  const ConvDims d = MakeConvDims(input.shape(), weights, stride, pad);
  assert(out.dim(0) == d.n && out.dim(1) == d.oh && out.dim(2) == d.ow &&
         out.dim(3) == d.cout);

  const float* in_d = input.data().data();
  const float* w_d = weights.data().data();
  const float* bias_d = bias.empty() ? nullptr : bias.data().data();
  float* out_d = out.data().data();
  // Aim for a handful of rows per chunk so even a single image (n == 1)
  // spreads across the pool; the MAC count per row is what matters, so
  // smaller feature maps get coarser chunks via the grain.
  const std::int64_t rows = std::int64_t(d.n) * d.oh;
  const std::int64_t macs_per_row =
      std::int64_t(d.ow) * d.cout * d.kh * d.kw * d.cin;
  const std::int64_t grain =
      std::max<std::int64_t>(1, 65536 / std::max<std::int64_t>(macs_per_row, 1));
  const ConvRowFn row_fn = PickConvRowFn(d.cout);
  ParallelFor(pool, 0, rows, grain,
              [&](std::int64_t lo, std::int64_t hi) {
                row_fn(in_d, w_d, bias_d, d, out_d, lo, hi);
              });
}

ConvGrads Conv2dBackward(const Tensor& input, const Tensor& weights,
                         const Tensor& grad_out, int stride, int pad) {
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            cin = input.dim(3);
  const int kh = weights.dim(0), kw = weights.dim(1), cout = weights.dim(3);
  const int oh = grad_out.dim(1), ow = grad_out.dim(2);
  assert(grad_out.dim(0) == n && grad_out.dim(3) == cout);

  ConvGrads grads{Tensor(input.shape()), Tensor(weights.shape()),
                  Tensor({cout})};
  const auto in_d = input.data();
  const auto w_d = weights.data();
  const auto go_d = grad_out.data();
  auto gi_d = grads.input.data();
  auto gw_d = grads.weights.data();
  auto gb_d = grads.bias.data();

  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const float* go_px =
            &go_d[((std::size_t(b) * oh + oy) * ow + ox) * cout];
        for (int oc = 0; oc < cout; ++oc) gb_d[oc] += go_px[oc];
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * stride + kx - pad;
            if (ix < 0 || ix >= w) continue;
            const std::size_t in_off =
                ((std::size_t(b) * h + iy) * w + ix) * cin;
            const std::size_t w_off = (std::size_t(ky) * kw + kx) * cin * cout;
            for (int ic = 0; ic < cin; ++ic) {
              const float iv = in_d[in_off + ic];
              const float* w_row = &w_d[w_off + std::size_t(ic) * cout];
              float* gw_row = &gw_d[w_off + std::size_t(ic) * cout];
              float gi_acc = 0.0f;
              for (int oc = 0; oc < cout; ++oc) {
                const float go = go_px[oc];
                gw_row[oc] += iv * go;
                gi_acc += w_row[oc] * go;
              }
              gi_d[in_off + ic] += gi_acc;
            }
          }
        }
      }
    }
  }
  return grads;
}

Tensor MaxPool2dBackward(const Tensor& input, int k, int stride,
                         const Tensor& grad_out) {
  assert(input.rank() == 4);
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  const int oh = (h - k) / stride + 1;
  const int ow = (w - k) / stride + 1;
  assert(grad_out.size() == std::size_t(n) * oh * ow * c);
  Tensor grad_in(input.shape());
  auto gi = grad_in.data();
  const auto in_d = input.data();
  const auto go = grad_out.data();
  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        for (int ch = 0; ch < c; ++ch) {
          // The first strictly greater tap, as the forward scan keeps it; a
          // window with nothing above -inf (all -inf or NaN) routes to its
          // first tap.
          const std::size_t first =
              ((std::size_t(b) * h + oy * stride) * w + ox * stride) * c + ch;
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = first;
          for (int ky = 0; ky < k; ++ky) {
            for (int kx = 0; kx < k; ++kx) {
              const std::size_t idx =
                  first + (std::size_t(ky) * w + kx) * c;
              if (in_d[idx] > best) {
                best = in_d[idx];
                best_idx = idx;
              }
            }
          }
          gi[best_idx] += go[((std::size_t(b) * oh + oy) * ow + ox) * c + ch];
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPoolBackward(const Shape& input_shape, const Tensor& grad_out) {
  assert(input_shape.size() == 4);
  const int n = input_shape[0], h = input_shape[1], w = input_shape[2],
            c = input_shape[3];
  Tensor grad_in(input_shape);
  const float inv = 1.0f / float(h * w);
  auto gi = grad_in.data();
  const auto go = grad_out.data();
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        float* px = &gi[((std::size_t(b) * h + y) * w + x) * c];
        const float* grow = &go[std::size_t(b) * c];
        for (int ch = 0; ch < c; ++ch) px[ch] = grow[ch] * inv;
      }
    }
  }
  return grad_in;
}

Tensor ReluBackward(const Tensor& x, const Tensor& grad_out) {
  assert(x.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto xd = x.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    if (xd[i] <= 0.0f) gd[i] = 0.0f;
  }
  return g;
}

Tensor LeakyReluBackward(const Tensor& x, const Tensor& grad_out, float alpha) {
  assert(x.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto xd = x.data();
  // Branch-free like LeakyReluInto (see SelectIf), so it vectorizes too.
  for (std::size_t i = 0; i < gd.size(); ++i) {
    gd[i] = SelectIf(xd[i] < 0.0f, gd[i] * alpha, gd[i]);
  }
  return g;
}

Tensor SigmoidBackward(const Tensor& y, const Tensor& grad_out) {
  assert(y.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto yd = y.data();
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= yd[i] * (1.0f - yd[i]);
  return g;
}

Tensor TanhBackward(const Tensor& y, const Tensor& grad_out) {
  assert(y.size() == grad_out.size());
  Tensor g = grad_out;
  auto gd = g.data();
  const auto yd = y.data();
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= 1.0f - yd[i] * yd[i];
  return g;
}

Tensor Softmax(const Tensor& logits) {
  assert(logits.rank() == 2);
  const int n = logits.dim(0), c = logits.dim(1);
  Tensor out({n, c});
  for (int i = 0; i < n; ++i) {
    const float* row = &logits.data()[std::size_t(i) * c];
    float* orow = &out.data()[std::size_t(i) * c];
    float mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < c; ++j) orow[j] *= inv;
  }
  return out;
}

CrossEntropyResult CrossEntropyLoss(const Tensor& logits,
                                    const std::vector<int>& labels) {
  assert(logits.rank() == 2 && int(labels.size()) == logits.dim(0));
  const int n = logits.dim(0), c = logits.dim(1);
  CrossEntropyResult res{0.0f, Tensor(logits.shape()), Softmax(logits), 0};
  const float invn = 1.0f / float(n);
  for (int i = 0; i < n; ++i) {
    const int label = labels[std::size_t(i)];
    assert(label >= 0 && label < c);
    const float* prow = &res.probs.data()[std::size_t(i) * c];
    float* grow = &res.grad.data()[std::size_t(i) * c];
    res.loss -= std::log(std::max(prow[label], 1e-12f)) * invn;
    for (int j = 0; j < c; ++j) grow[j] = prow[j] * invn;
    grow[label] -= invn;
    std::size_t am = 0;
    for (int j = 1; j < c; ++j) {
      if (prow[j] > prow[am]) am = std::size_t(j);
    }
    if (int(am) == label) ++res.correct;
  }
  return res;
}

float Entropy(std::span<const float> probs) {
  float h = 0.0f;
  for (const float p : probs) {
    if (p > 1e-12f) h -= p * std::log(p);
  }
  return h;
}

float MaxProb(std::span<const float> probs) {
  float mx = 0.0f;
  for (const float p : probs) mx = std::max(mx, p);
  return mx;
}

// ---------------------------------------------------------------------------
// Forward kernels.

METRO_NOALLOC
void MaxPool2dForwardInto(const TensorView& input, int k, int stride,
                          const TensorView& out) {
  assert(input.rank() == 4 && out.rank() == 4);
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  const int oh = (h - k) / stride + 1;
  const int ow = (w - k) / stride + 1;
  assert(out.dim(0) == n && out.dim(1) == oh && out.dim(2) == ow &&
         out.dim(3) == c);

  // Channels are the innermost loop over each contiguous NHWC pixel, so
  // the running maximum of a whole output pixel updates with one `maxps` per
  // four channels instead of a strided scalar scan per channel. Every output
  // still sees the same comparisons in the same (ky, kx) order, starting
  // from -inf: `px > best ? px : best` keeps the first strictly greater
  // value and never takes a NaN, exactly as the per-channel scan did.
  const float* in_d = input.data().data();
  float* out_d = out.data().data();
  const std::size_t row_stride = std::size_t(w) * c;
  for (int b = 0; b < n; ++b) {
    const float* in_img = &in_d[std::size_t(b) * h * row_stride];
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float* best = &out_d[((std::size_t(b) * oh + oy) * ow + ox) * c];
        for (int ch = 0; ch < c; ++ch) {
          best[ch] = -std::numeric_limits<float>::infinity();
        }
        for (int ky = 0; ky < k; ++ky) {
          const float* in_row =
              &in_img[std::size_t(oy * stride + ky) * row_stride];
          for (int kx = 0; kx < k; ++kx) {
            const float* px = &in_row[std::size_t(ox * stride + kx) * c];
            for (int ch = 0; ch < c; ++ch) {
              best[ch] = px[ch] > best[ch] ? px[ch] : best[ch];
            }
          }
        }
      }
    }
  }
}

METRO_NOALLOC
void GlobalAvgPoolForwardInto(const TensorView& input, const TensorView& out) {
  assert(input.rank() == 4 && out.rank() == 2);
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  assert(out.dim(0) == n && out.dim(1) == c);
  const float inv = 1.0f / float(h * w);
  const float* in_d = input.data().data();
  float* out_d = out.data().data();
  std::memset(out_d, 0, std::size_t(n) * c * sizeof(float));
  for (int b = 0; b < n; ++b) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const float* px = &in_d[((std::size_t(b) * h + y) * w + x) * c];
        float* orow = &out_d[std::size_t(b) * c];
        for (int ch = 0; ch < c; ++ch) orow[ch] += px[ch] * inv;
      }
    }
  }
}

// i-k-j order: unit-stride inner loop over both b and c.
METRO_NOALLOC
void MatMulRows(const float* ad, const float* bd, float* cd, int k, int n,
                std::int64_t row_begin, std::int64_t row_end) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    float* crow = &cd[std::size_t(i) * n];
    std::memset(crow, 0, std::size_t(n) * sizeof(float));
    for (int p = 0; p < k; ++p) {
      const float av = ad[std::size_t(i) * k + p];
      if (av == 0.0f) continue;
      const float* brow = &bd[std::size_t(p) * n];
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

METRO_NOALLOC
void MatMulInto(const TensorView& a, const Tensor& b, const TensorView& c,
                ThreadPool* pool) {
  assert(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  assert(a.dim(1) == b.dim(0) && c.dim(0) == a.dim(0) && c.dim(1) == b.dim(1));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* cd = c.data().data();
  const std::int64_t grain =
      std::max<std::int64_t>(1, 65536 / std::max(std::int64_t(k) * n, std::int64_t(1)));
  ParallelFor(pool, 0, m, grain, [&](std::int64_t lo, std::int64_t hi) {
    MatMulRows(ad, bd, cd, k, n, lo, hi);
  });
}

// Runs MatMulInto's row kernel directly: wrapping the tensors in views would
// copy both shapes, two heap allocations per call.
Tensor MatMul(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0));
  Tensor c({a.dim(0), b.dim(1)});
  MatMulRows(a.data().data(), b.data().data(), c.data().data(), a.dim(1),
             b.dim(1), 0, a.dim(0));
  return c;
}

METRO_NOALLOC
void DenseForwardInto(const TensorView& x, const Tensor& w, const Tensor& b,
                      const TensorView& out, ThreadPool* pool) {
  MatMulInto(x, w, out, pool);
  const int n = out.dim(0), features = out.dim(1);
  const float* bd = b.data().data();
  float* yd = out.data().data();
  for (int i = 0; i < n; ++i) {
    float* row = &yd[std::size_t(i) * features];
    for (int j = 0; j < features; ++j) row[j] += bd[j];
  }
}

METRO_NOALLOC
void ReluInto(const TensorView& x, const TensorView& out) {
  assert(x.size() == out.size());
  const std::span<float> xd = x.data();
  const std::span<float> od = out.data();
  for (std::size_t i = 0; i < xd.size(); ++i) od[i] = std::max(xd[i], 0.0f);
}

METRO_NOALLOC
void LeakyReluInto(const TensorView& x, const TensorView& out, float alpha) {
  assert(x.size() == out.size());
  const std::span<float> xd = x.data();
  const std::span<float> od = out.data();
  // Branch-free (see SelectIf): the multiply runs for every element and
  // the sign test only picks which bits to keep.
  for (std::size_t i = 0; i < xd.size(); ++i) {
    const float v = xd[i];
    od[i] = SelectIf(v < 0.0f, v * alpha, v);
  }
}

METRO_NOALLOC
void SigmoidInto(const TensorView& x, const TensorView& out) {
  assert(x.size() == out.size());
  const std::span<float> xd = x.data();
  const std::span<float> od = out.data();
  for (std::size_t i = 0; i < xd.size(); ++i) {
    od[i] = 1.0f / (1.0f + std::exp(-xd[i]));
  }
}

METRO_NOALLOC
void TanhInto(const TensorView& x, const TensorView& out) {
  assert(x.size() == out.size());
  const std::span<float> xd = x.data();
  const std::span<float> od = out.data();
  for (std::size_t i = 0; i < xd.size(); ++i) od[i] = std::tanh(xd[i]);
}

METRO_NOALLOC
void BatchNormFoldScaleShift(std::span<const float> gamma,
                             std::span<const float> beta,
                             std::span<const float> mean,
                             std::span<const float> var, float eps,
                             std::span<float> scale, std::span<float> shift) {
  assert(gamma.size() == beta.size() && gamma.size() == mean.size() &&
         gamma.size() == var.size() && gamma.size() == scale.size() &&
         gamma.size() == shift.size());
  for (std::size_t ch = 0; ch < gamma.size(); ++ch) {
    scale[ch] = gamma[ch] / std::sqrt(var[ch] + eps);
    shift[ch] = beta[ch] - mean[ch] * scale[ch];
  }
}

METRO_NOALLOC
void BatchNormInferenceInto(const TensorView& x, std::span<const float> scale,
                            std::span<const float> shift,
                            const TensorView& out) {
  assert(x.size() == out.size());
  const int c = int(scale.size());
  assert(int(shift.size()) == c && x.size() % std::size_t(c) == 0);
  const std::size_t rows = x.size() / std::size_t(c);
  const float* xd = x.data().data();
  float* od = out.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = &xd[r * c];
    float* orow = &od[r * c];
    for (int ch = 0; ch < c; ++ch) orow[ch] = xr[ch] * scale[ch] + shift[ch];
  }
}

METRO_NOALLOC
void AddInto(const TensorView& a, const TensorView& b, const TensorView& out) {
  assert(a.size() == b.size() && a.size() == out.size());
  const std::span<float> ad = a.data();
  const std::span<float> bd = b.data();
  const std::span<float> od = out.data();
  for (std::size_t i = 0; i < ad.size(); ++i) od[i] = ad[i] + bd[i];
}

}  // namespace metro::tensor
