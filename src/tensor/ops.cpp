#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <type_traits>

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

// The conv row kernel, written once and compiled for two instruction sets
// (ConvRowsSse2/Avx2 below). One instantiation computes a slab of kCout
// output channels, from channel c0 of rows d.cout channels wide; a width
// the zoo uses is one slab (see ConvSlabWidth). An output pixel's kCout
// channels split into lane groups: full vectors of kLanes floats, then at
// most one 4-float vector, then single floats, so no load or store runs
// past the slab.
//
// Interior pixels, whose every kx tap is in bounds, run in blocks of
// kBlock pixels, sized so that about kConvAccRegisters registers hold
// accumulators: each weight row load then feeds kBlock broadcast inputs,
// and the block's independent accumulators hide the add latency that one
// pixel's serial chain would expose. Border pixels run as blocks of one over
// their in-bounds kx range.
//
// Each output channel starts from its bias and then receives, per tap in
// (ky, kx, ic) order, one rounded multiply and one rounded add, with no
// zero-input skip: the reference's operations, whatever the slab or the
// schedule around them. A target that includes FMA would let -ffp-contract
// fuse the two and change the bits, so neither build enables it. With
// kEpilogue, the epilogue runs on the accumulators in registers, just before
// the store.
constexpr int kConvAccRegisters = 12;

template <int kWidth>
struct Lanes {
  typedef float Vec __attribute__((vector_size(kWidth * sizeof(float))));
};
template <>
struct Lanes<1> {
  using Vec = float;
};

// LeakyReluInto's `v < 0 ? v * alpha : v` on one lane group, in place. The
// vector `?:` computes both arms and selects per lane, as SelectIf does.
template <typename Vec>
[[gnu::always_inline]] inline void LeakyReluLanes(Vec& v, float alpha) {
  if constexpr (std::is_same_v<Vec, float>) {
    v = SelectIf(v < 0.0f, v * alpha, v);
  } else {
    v = v < Vec{} ? v * alpha : v;
  }
}

// Accumulators of kPixels output pixels over kCount vectors of kWidth
// channels each, from channel kFirst of a slab. Vectors stay in locals and
// pass by reference: by value, a 32-byte vector in a function not built for
// AVX would change the calling convention.
template <int kFirst, int kWidth, int kCount, int kPixels>
struct LaneGroup {
  using Vec = typename Lanes<kWidth>::Vec;
  Vec acc[kPixels][kCount];

  [[gnu::always_inline]] void Init(const float* bias) {
#pragma GCC unroll 16
    for (int p = 0; p < kPixels; ++p) {
#pragma GCC unroll 16
      for (int c = 0; c < kCount; ++c) {
        if (bias) {
          std::memcpy(&acc[p][c], bias + kFirst + c * kWidth, sizeof(Vec));
        } else {
          acc[p][c] = Vec{};
        }
      }
    }
  }

  // One tap: `x` is the first pixel's input, `px_step` floats from the next
  // pixel's; `w_tap` is the tap's weight row.
  [[gnu::always_inline]] void Mac(const float* x, std::size_t px_step,
                                  const float* w_tap) {
    Vec wv[kCount];
#pragma GCC unroll 16
    for (int c = 0; c < kCount; ++c) {
      std::memcpy(&wv[c], w_tap + kFirst + c * kWidth, sizeof(Vec));
    }
#pragma GCC unroll 16
    for (int p = 0; p < kPixels; ++p) {
      const float xp = x[std::size_t(p) * px_step];
#pragma GCC unroll 16
      for (int c = 0; c < kCount; ++c) acc[p][c] += xp * wv[c];
    }
  }

  // BatchNormInferenceInto's `v * scale + shift`, then LeakyReluInto, on
  // the accumulators.
  [[gnu::always_inline]] void Epilogue(const ConvEpilogue& ep) {
    if (!ep.scale.empty()) {
      Vec scale[kCount], shift[kCount];
#pragma GCC unroll 16
      for (int c = 0; c < kCount; ++c) {
        std::memcpy(&scale[c], ep.scale.data() + kFirst + c * kWidth,
                    sizeof(Vec));
        std::memcpy(&shift[c], ep.shift.data() + kFirst + c * kWidth,
                    sizeof(Vec));
      }
#pragma GCC unroll 16
      for (int p = 0; p < kPixels; ++p) {
#pragma GCC unroll 16
        for (int c = 0; c < kCount; ++c) {
          acc[p][c] = acc[p][c] * scale[c] + shift[c];
        }
      }
    }
    if (ep.leaky_relu) {
#pragma GCC unroll 16
      for (int p = 0; p < kPixels; ++p) {
#pragma GCC unroll 16
        for (int c = 0; c < kCount; ++c) LeakyReluLanes(acc[p][c], ep.alpha);
      }
    }
  }

  // `out` is the first pixel's slab, `px_stride` floats from the next's.
  [[gnu::always_inline]] void Store(float* out, std::size_t px_stride) const {
#pragma GCC unroll 16
    for (int p = 0; p < kPixels; ++p) {
#pragma GCC unroll 16
      for (int c = 0; c < kCount; ++c) {
        std::memcpy(out + std::size_t(p) * px_stride + kFirst + c * kWidth,
                    &acc[p][c], sizeof(Vec));
      }
    }
  }
};

template <int kFirst, int kWidth, int kPixels>
struct LaneGroup<kFirst, kWidth, 0, kPixels> {
  void Init(const float*) {}
  void Mac(const float*, std::size_t, const float*) {}
  void Epilogue(const ConvEpilogue&) {}
  void Store(float*, std::size_t) const {}
};

template <int kCout, int kLanes, bool kEpilogue>
struct ConvRowKernel {
  static constexpr int kFull = kCout / kLanes;
  static constexpr int kQuads = kCout % kLanes / 4;
  static constexpr int kSingles = kCout % 4;
  static constexpr int kBlock =
      std::max(1, kConvAccRegisters / (kFull + kQuads + kSingles));
  static constexpr int kHalf = std::max(1, kBlock / 2);

  // What every pixel of one output row shares. `w`, `out`, `bias` and
  // `ep`'s factors start at the slab's first channel.
  struct RowArgs {
    const float* in;            // input row of the first in-bounds kernel row
    const float* w;             // weights of the first in-bounds kernel row
    float* out;                 // output row
    std::size_t px_step;        // input floats between neighbouring pixels
    std::size_t in_row_stride;  // input floats between kernel rows
    std::size_t w_row_stride;   // weight floats between kernel rows
    std::size_t cout;           // floats between weight rows and out pixels
    int rows;                   // in-bounds kernel rows
    const float* bias;          // kCout floats, or null for none
    const ConvEpilogue* ep;     // set when kEpilogue
  };

  // kPixels neighbouring output pixels, each over `row.rows` kernel rows of
  // `taps` contiguous (kx, ic) taps. `in` and `w` point at the first pixel's
  // first tap and at that tap's weight row.
  template <int kPixels>
  [[gnu::always_inline]] static void Pixels(const RowArgs& row,
                                            const float* in, const float* w,
                                            int taps, float* out) {
    constexpr int kQuadsFirst = kFull * kLanes;
    constexpr int kSinglesFirst = kQuadsFirst + kQuads * 4;
    LaneGroup<0, kLanes, kFull, kPixels> full;
    LaneGroup<kQuadsFirst, 4, kQuads, kPixels> quads;
    LaneGroup<kSinglesFirst, 1, kSingles, kPixels> singles;
    full.Init(row.bias);
    quads.Init(row.bias);
    singles.Init(row.bias);
    for (int r = 0; r < row.rows; ++r) {
      const float* in_r = in + std::size_t(r) * row.in_row_stride;
      const float* w_r = w + std::size_t(r) * row.w_row_stride;
      for (int t = 0; t < taps; ++t) {
        const float* w_tap = w_r + std::size_t(t) * row.cout;
        full.Mac(in_r + t, row.px_step, w_tap);
        quads.Mac(in_r + t, row.px_step, w_tap);
        singles.Mac(in_r + t, row.px_step, w_tap);
      }
    }
    if constexpr (kEpilogue) {
      full.Epilogue(*row.ep);
      quads.Epilogue(*row.ep);
      singles.Epilogue(*row.ep);
    }
    full.Store(out, row.cout);
    quads.Store(out, row.cout);
    singles.Store(out, row.cout);
  }

  // kPixels interior pixels from `ox` on, whose every kx tap is in bounds.
  template <int kPixels>
  [[gnu::always_inline]] static void Interior(const ConvDims& d,
                                              const RowArgs& row, int ox) {
    Pixels<kPixels>(row, row.in + std::size_t(ox * d.stride - d.pad) * d.cin,
                    row.w, d.kw * d.cin, row.out + std::size_t(ox) * row.cout);
  }

  // One pixel over its in-bounds kx taps, which are contiguous in the input
  // row and in the weights.
  [[gnu::always_inline]] static void Border(const ConvDims& d,
                                            const RowArgs& row, int ox) {
    const int x0 = ox * d.stride - d.pad;
    const int kx_lo = std::clamp(-x0, 0, d.kw);
    const int kx_hi = std::clamp(d.w - x0, kx_lo, d.kw);
    const int x_first = kx_lo < kx_hi ? x0 + kx_lo : 0;
    Pixels<1>(row, row.in + std::size_t(x_first) * d.cin,
              row.w + std::size_t(kx_lo) * d.cin * row.cout,
              (kx_hi - kx_lo) * d.cin, row.out + std::size_t(ox) * row.cout);
  }

  [[gnu::always_inline]] static void Rows(const float* in_d, const float* w_d,
                                          const float* bias_d,
                                          const ConvDims& d,
                                          const ConvEpilogue* ep, float* out_d,
                                          int c0, std::int64_t row_begin,
                                          std::int64_t row_end) {
    assert(c0 >= 0 && c0 + kCout <= d.cout);
    const std::size_t cout = std::size_t(d.cout);
    const std::size_t in_row_stride = std::size_t(d.w) * d.cin;
    const std::size_t w_row_stride = std::size_t(d.kw) * d.cin * cout;
    // Interior ox range where every kx tap lands in bounds. Skipped border
    // taps contribute no additions, so splitting the range preserves the
    // accumulation order.
    const int ox_lo = std::min(d.ow, (d.pad + d.stride - 1) / d.stride);
    const int last_fit = d.w - d.kw + d.pad;  // last in-bounds x0 + pad
    const int ox_hi =
        last_fit < 0
            ? ox_lo
            : std::max(ox_lo, std::min(d.ow, last_fit / d.stride + 1));
    ConvEpilogue slab_ep;
    if constexpr (kEpilogue) {
      slab_ep = *ep;
      if (!ep->scale.empty()) {
        slab_ep.scale = ep->scale.subspan(std::size_t(c0), kCout);
        slab_ep.shift = ep->shift.subspan(std::size_t(c0), kCout);
      }
    }

    for (std::int64_t r = row_begin; r < row_end; ++r) {
      const int b = int(r / d.oh);
      const int oy = int(r % d.oh);
      // In-bounds kernel rows of this output row (iy in [0, h)).
      const int ky_lo = std::clamp(d.pad - oy * d.stride, 0, d.kh);
      const int ky_hi = std::clamp(d.h + d.pad - oy * d.stride, ky_lo, d.kh);
      const float* in_y = &in_d[std::size_t(b) * d.h * in_row_stride];
      if (ky_lo < ky_hi) {
        in_y += std::size_t(oy * d.stride + ky_lo - d.pad) * in_row_stride;
      }
      const RowArgs row{in_y,
                        &w_d[std::size_t(ky_lo) * w_row_stride + c0],
                        &out_d[std::size_t(r) * d.ow * cout + c0],
                        std::size_t(d.stride) * d.cin,
                        in_row_stride,
                        w_row_stride,
                        cout,
                        ky_hi - ky_lo,
                        bias_d ? bias_d + c0 : nullptr,
                        &slab_ep};

      // Interior: whole blocks, then half blocks. Fewer than a half block
      // left run as one half block ending at ox_hi, which overlaps the block
      // before it: the overlapped pixels are computed again to the same
      // bits. What no half block covers runs pixel by pixel.
      int ox = 0;
      for (; ox < ox_lo; ++ox) Border(d, row, ox);
      for (; ox + kBlock <= ox_hi; ox += kBlock) Interior<kBlock>(d, row, ox);
      for (; ox + kHalf <= ox_hi; ox += kHalf) Interior<kHalf>(d, row, ox);
      if (ox < ox_hi && ox_hi - ox_lo >= kHalf) {
        Interior<kHalf>(d, row, ox_hi - kHalf);
        ox = ox_hi;
      }
      for (; ox < d.ow; ++ox) Border(d, row, ox);
    }
  }
};

template <int kCout, bool kEpilogue>
METRO_NOALLOC
void ConvRowsSse2(const float* in_d, const float* w_d, const float* bias_d,
                  const ConvDims& d, const ConvEpilogue* ep, float* out_d,
                  int c0, std::int64_t row_begin, std::int64_t row_end) {
  ConvRowKernel<kCout, 4, kEpilogue>::Rows(in_d, w_d, bias_d, d, ep, out_d, c0,
                                           row_begin, row_end);
}

template <int kCout, bool kEpilogue>
METRO_NOALLOC
[[gnu::target("avx2")]] void ConvRowsAvx2(
    const float* in_d, const float* w_d, const float* bias_d,
    const ConvDims& d, const ConvEpilogue* ep, float* out_d, int c0,
    std::int64_t row_begin, std::int64_t row_end) {
  ConvRowKernel<kCout, 8, kEpilogue>::Rows(in_d, w_d, bias_d, d, ep, out_d, c0,
                                           row_begin, row_end);
}

using ConvRowFn = void (*)(const float*, const float*, const float*,
                           const ConvDims&, const ConvEpilogue*, float*, int,
                           std::int64_t, std::int64_t);

template <int kCout>
ConvRowFn PickConvRowFnFor(ConvIsa isa, bool epilogue) {
  if (isa == ConvIsa::kAvx2) {
    return epilogue ? ConvRowsAvx2<kCout, true> : ConvRowsAvx2<kCout, false>;
  }
  return epilogue ? ConvRowsSse2<kCout, true> : ConvRowsSse2<kCout, false>;
}

// The channels of the slab that starts at channel c0 of a `c`-channel row:
// the whole row if `c` is one of `whole`, else the widest of `slabs` (in
// descending order) that fits, else the 1 to 3 channels left.
int SlabWidth(int c, int c0, std::initializer_list<int> whole,
              std::initializer_list<int> slabs) {
  if (std::find(whole.begin(), whole.end(), c) != whole.end()) return c;
  for (const int width : slabs) {
    if (c - c0 >= width) return width;
  }
  return c - c0;
}

// A conv width the zoo uses is one slab. Any other runs 32-channel slabs,
// then at most one of 16, 8 and 4 each, then the channels left.
int ConvSlabWidth(int cout, int c0) {
  return SlabWidth(cout, c0, {4, 8, 12, 13, 16, 24, 32}, {32, 16, 8, 4});
}

// The kernel for a ConvSlabWidth slab, built for `isa` and with or without
// an epilogue.
ConvRowFn PickConvRowFn(int width, ConvIsa isa, bool epilogue) {
  switch (width) {
    case 1: return PickConvRowFnFor<1>(isa, epilogue);
    case 2: return PickConvRowFnFor<2>(isa, epilogue);
    case 3: return PickConvRowFnFor<3>(isa, epilogue);
    case 4: return PickConvRowFnFor<4>(isa, epilogue);
    case 8: return PickConvRowFnFor<8>(isa, epilogue);
    case 12: return PickConvRowFnFor<12>(isa, epilogue);
    case 13: return PickConvRowFnFor<13>(isa, epilogue);
    case 16: return PickConvRowFnFor<16>(isa, epilogue);
    case 24: return PickConvRowFnFor<24>(isa, epilogue);
    default: assert(width == 32); return PickConvRowFnFor<32>(isa, epilogue);
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

bool ConvIsaSupported(ConvIsa isa) {
  switch (isa) {
    case ConvIsa::kSse2: return true;  // baseline x86-64
    case ConvIsa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
  }
  return false;
}

METRO_NOALLOC
void Conv2dForwardIntoForIsa(ConvIsa isa, const TensorView& input,
                             const Tensor& weights, const Tensor& bias,
                             int stride, int pad, const TensorView& out,
                             ThreadPool* pool, const ConvEpilogue& epilogue) {
  assert(input.rank() == 4 && weights.rank() == 4 && out.rank() == 4);
  assert(weights.dim(2) == input.dim(3));
  assert(bias.empty() || int(bias.size()) == weights.dim(3));
  assert(epilogue.scale.size() == epilogue.shift.size());
  assert(epilogue.scale.empty() ||
         int(epilogue.scale.size()) == weights.dim(3));
  assert(ConvIsaSupported(isa));
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
  const ConvEpilogue* ep = epilogue.empty() ? nullptr : &epilogue;
  ParallelFor(pool, 0, rows, grain, [&](std::int64_t lo, std::int64_t hi) {
    for (int c0 = 0; c0 < d.cout;) {
      const int width = ConvSlabWidth(d.cout, c0);
      PickConvRowFn(width, isa, ep != nullptr)(in_d, w_d, bias_d, d, ep, out_d,
                                               c0, lo, hi);
      c0 += width;
    }
  });
}

METRO_NOALLOC
void Conv2dForwardInto(const TensorView& input, const Tensor& weights,
                       const Tensor& bias, int stride, int pad,
                       const TensorView& out, ThreadPool* pool,
                       const ConvEpilogue& epilogue) {
  // Probed once: the widest build this host runs.
  static const ConvIsa host_isa = ConvIsaSupported(ConvIsa::kAvx2)
                                      ? ConvIsa::kAvx2
                                      : ConvIsa::kSse2;
  Conv2dForwardIntoForIsa(host_isa, input, weights, bias, stride, pad, out,
                          pool, epilogue);
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

// ---------------------------------------------------------------------------
// Forward kernels.

namespace {

struct PoolDims {
  int n, h, w, c, k, stride, oh, ow;
};

// Max pooling over a slab of kC channels from channel c0 of each d.c-channel
// pixel. Channels are the innermost loop over each contiguous NHWC pixel, and
// an output pixel's running maximum lives in registers and is stored once:
// kC / 4 4-float vectors when kC is a multiple of 4, else kC single floats.
template <int kC>
METRO_NOALLOC
void MaxPoolSlab(const float* in_d, const PoolDims& d, int c0, float* out_d) {
  static_assert(kC % 4 == 0 || kC < 4);
  constexpr int kWidth = kC % 4 == 0 ? 4 : 1;
  constexpr int kVecs = kC / kWidth;
  using Vec = typename Lanes<kWidth>::Vec;
  assert(c0 >= 0 && c0 + kC <= d.c);
  const float inf = std::numeric_limits<float>::infinity();
  const std::size_t px_stride = std::size_t(d.c);
  const std::size_t row_stride = std::size_t(d.w) * px_stride;
  for (int b = 0; b < d.n; ++b) {
    const float* in_img = &in_d[std::size_t(b) * d.h * row_stride + c0];
    for (int oy = 0; oy < d.oh; ++oy) {
      for (int ox = 0; ox < d.ow; ++ox) {
        Vec best[kVecs];
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v) best[v] = Vec{} - inf;
        for (int ky = 0; ky < d.k; ++ky) {
          const float* in_row =
              &in_img[std::size_t(oy * d.stride + ky) * row_stride];
          for (int kx = 0; kx < d.k; ++kx) {
            const float* px =
                &in_row[std::size_t(ox * d.stride + kx) * px_stride];
#pragma GCC unroll 8
            for (int v = 0; v < kVecs; ++v) {
              Vec x;
              std::memcpy(&x, px + kWidth * v, sizeof(Vec));
              best[v] = x > best[v] ? x : best[v];
            }
          }
        }
        float* out =
            &out_d[((std::size_t(b) * d.oh + oy) * d.ow + ox) * px_stride + c0];
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v) {
          std::memcpy(out + kWidth * v, &best[v], sizeof(Vec));
        }
      }
    }
  }
}

// A width the zoo pools is one slab. Any other runs 24-channel slabs, then
// at most one of 12, 8 and 4 each, then the channels left.
int MaxPoolSlabWidth(int c, int c0) {
  return SlabWidth(c, c0, {8, 12, 24}, {24, 12, 8, 4});
}

using MaxPoolFn = void (*)(const float*, const PoolDims&, int, float*);

MaxPoolFn PickMaxPoolFn(int width) {
  switch (width) {
    case 1: return MaxPoolSlab<1>;
    case 2: return MaxPoolSlab<2>;
    case 3: return MaxPoolSlab<3>;
    case 4: return MaxPoolSlab<4>;
    case 8: return MaxPoolSlab<8>;
    case 12: return MaxPoolSlab<12>;
    default: assert(width == 24); return MaxPoolSlab<24>;
  }
}

}  // namespace

// Every slab sees the same comparisons in the same (ky, kx) order, starting
// from -inf: `px > best ? px : best` keeps the first strictly greater value
// and never takes a NaN, exactly as a per-channel scan would.
METRO_NOALLOC
void MaxPool2dForwardInto(const TensorView& input, int k, int stride,
                          const TensorView& out) {
  assert(input.rank() == 4 && out.rank() == 4);
  PoolDims d;
  d.n = input.dim(0);
  d.h = input.dim(1);
  d.w = input.dim(2);
  d.c = input.dim(3);
  d.k = k;
  d.stride = stride;
  d.oh = (d.h - k) / stride + 1;
  d.ow = (d.w - k) / stride + 1;
  assert(out.dim(0) == d.n && out.dim(1) == d.oh && out.dim(2) == d.ow &&
         out.dim(3) == d.c);
  for (int c0 = 0; c0 < d.c;) {
    const int width = MaxPoolSlabWidth(d.c, c0);
    PickMaxPoolFn(width)(input.data().data(), d, c0, out.data().data());
    c0 += width;
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
