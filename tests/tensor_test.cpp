// Unit tests for the tensor math kernels: every forward kernel branch is
// checked bit for bit against a naive reference written here, and the
// convolution/pooling backward passes get numerical gradient checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace metro::tensor {
namespace {

TEST(TensorTest, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(ShapeToString(t.shape()), "[2, 3, 4]");
  for (const float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, FillAndArithmetic) {
  Tensor a({2, 2}, 1.0f);
  Tensor b({2, 2}, 2.0f);
  a += b;
  for (const float v : a.data()) EXPECT_EQ(v, 3.0f);
  a -= b;
  for (const float v : a.data()) EXPECT_EQ(v, 1.0f);
  a *= 4.0f;
  EXPECT_EQ(a.Sum(), 16.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({2, 3});
  EXPECT_EQ(r.at(1, 2), 6.0f);
  EXPECT_EQ(r.at(0, 0), 1.0f);
}

TEST(TensorTest, SliceBatch) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}).Reshape({3, 2});
  Tensor s = t.SliceBatch(1, 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.at(0, 0), 3.0f);
  EXPECT_EQ(s.at(1, 1), 6.0f);
}

TEST(TensorTest, ArgMax) {
  Tensor t = Tensor::FromVector({0.1f, 0.9f, 0.3f});
  EXPECT_EQ(t.ArgMax(), 1u);
}

TEST(TensorTest, HeNormalStddev) {
  Rng rng(5);
  Tensor t = Tensor::HeNormal({10000}, 50, rng);
  double sq = 0;
  for (const float v : t.data()) sq += double(v) * v;
  EXPECT_NEAR(std::sqrt(sq / double(t.size())), std::sqrt(2.0 / 50.0), 0.01);
}

TEST(MatMulTest, KnownProduct) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}).Reshape({2, 3});
  Tensor b = Tensor::FromVector({7, 8, 9, 10, 11, 12}).Reshape({3, 2});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, TransposeVariantsAgree) {
  Rng rng(7);
  Tensor a = Tensor::RandomNormal({4, 6}, 1.0f, rng);
  Tensor b = Tensor::RandomNormal({6, 5}, 1.0f, rng);
  Tensor c = MatMul(a, b);

  // MatMulTransposeB(a, b') with b' = b^T stored as (5, 6).
  Tensor bt({5, 6});
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor c2 = MatMulTransposeB(a, bt);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], c2[i], 1e-4f);

  // MatMulTransposeA(a', b) == a'^T b, with a' = a^T stored as (6, 4):
  // (a^T)^T b == a b == c.
  Tensor at({6, 4});
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 6; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor c3 = MatMulTransposeA(at, b);
  ASSERT_EQ(c3.shape(), c.shape());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], c3[i], 1e-4f);
}

Tensor ConvOutput(const Tensor& input, const Tensor& weights, int stride,
                  int pad) {
  const int oh = (input.dim(1) + 2 * pad - weights.dim(0)) / stride + 1;
  const int ow = (input.dim(2) + 2 * pad - weights.dim(1)) / stride + 1;
  return Tensor({input.dim(0), oh, ow, weights.dim(3)});
}

// Runs Conv2dForwardInto into a freshly allocated output.
Tensor Conv(const Tensor& input, const Tensor& weights, const Tensor& bias,
            int stride, int pad, ThreadPool* pool = nullptr,
            const ConvEpilogue& epilogue = {}) {
  Tensor out = ConvOutput(input, weights, stride, pad);
  Conv2dForwardInto(TensorView::OfConst(input), weights, bias, stride, pad,
                    TensorView(out), pool, epilogue);
  return out;
}

// The same on one ISA's build of the row kernels.
Tensor ConvOnIsa(ConvIsa isa, const Tensor& input, const Tensor& weights,
                 const Tensor& bias, int stride, int pad,
                 const ConvEpilogue& epilogue = {}) {
  Tensor out = ConvOutput(input, weights, stride, pad);
  Conv2dForwardIntoForIsa(isa, TensorView::OfConst(input), weights, bias,
                          stride, pad, TensorView(out), nullptr, epilogue);
  return out;
}

// Direct convolution kept independent of ops.cpp: each output starts from
// its bias, then adds every in-bounds tap in (ky, kx, ic) order, zero inputs
// included. That is the accumulation order Conv2dForwardInto promises at
// every width, so the kernels must match it bit for bit.
Tensor ReferenceConv(const Tensor& input, const Tensor& weights,
                     const Tensor& bias, int stride, int pad) {
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            cin = input.dim(3);
  const int kh = weights.dim(0), kw = weights.dim(1), cout = weights.dim(3);
  const int oh = (h + 2 * pad - kh) / stride + 1;
  const int ow = (w + 2 * pad - kw) / stride + 1;
  Tensor out({n, oh, ow, cout});
  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        for (int oc = 0; oc < cout; ++oc) {
          float acc = bias.empty() ? 0.0f : bias[std::size_t(oc)];
          for (int ky = 0; ky < kh; ++ky) {
            const int iy = oy * stride + ky - pad;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = ox * stride + kx - pad;
              if (ix < 0 || ix >= w) continue;
              for (int ic = 0; ic < cin; ++ic) {
                acc += input.at(b, iy, ix, ic) *
                       weights[((std::size_t(ky) * kw + kx) * cin + ic) * cout +
                               std::size_t(oc)];
              }
            }
          }
          out.at(b, oy, ox, oc) = acc;
        }
      }
    }
  }
  return out;
}

// A conv epilogue applied to a reference conv's output, one operation at a
// time: `y * scale + shift`, then the branchy LeakyReLU.
Tensor ReferenceEpilogue(Tensor y, const ConvEpilogue& ep) {
  const std::size_t c = std::size_t(y.dim(3));
  for (std::size_t i = 0; i < y.size(); ++i) {
    float v = y[i];
    if (!ep.scale.empty()) v = v * ep.scale[i % c] + ep.shift[i % c];
    if (ep.leaky_relu && v < 0.0f) v = v * ep.alpha;
    y[i] = v;
  }
  return y;
}

// Uniform values in [-1, 1) with roughly every third element an exact zero,
// as in post-ReLU activations and sparse weights.
Tensor UniformWithZeros(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = rng.Bernoulli(0.33) ? 0.0f : rng.UniformFloat(-1.0f, 1.0f);
  }
  return t;
}

void ExpectSameFloats(const Tensor& expected, const Tensor& actual) {
  ASSERT_EQ(expected.shape(), actual.shape());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "float mismatch at index " << i;
  }
}

// Stricter than ExpectSameFloats: compares the float bits, so the sign of a
// zero and NaN payloads count, and NaN matches only an identical NaN.
void ExpectSameBits(const Tensor& expected, const Tensor& actual) {
  ASSERT_EQ(expected.shape(), actual.shape());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const float e = expected[i], a = actual[i];
    if (std::memcmp(&e, &a, sizeof(float)) != 0) {
      std::uint32_t eb, ab;
      std::memcpy(&eb, &e, sizeof(float));
      std::memcpy(&ab, &a, sizeof(float));
      FAIL() << "bit mismatch at index " << i << ": expected " << e << " (0x"
             << std::hex << eb << "), got " << a << " (0x" << ab << ")"
             << std::dec;
    }
  }
}

// Every channel slab Conv2dForwardInto runs against the reference, bit for
// bit: the zoo's widths, each one slab (4, 8, 12, 13, 16, 24, 32), and other
// widths, which run as a sequence of slabs: 1, 2, 3, 6 (4 + 2), 7 (4 + 3),
// 20 (16 + 4) and 130 (four 32s + 2). The input widths give rows of border
// pixels only (1, 2) and rows whose interior holds whole pixel blocks plus a
// remainder for every block size the kernels use (5, 9, 17, 33); 3 and 8
// input channels cover the stem's first layer and a wider tap loop. Each ISA
// build the host supports runs too, not only the one Conv2dForwardInto
// picks, so the SSE2 build stays checked on AVX2 hosts. Each case runs the
// plain conv and three epilogues: a folded BatchNorm whose factors include
// 0, -0 and negatives (so outputs of -0 occur), the same followed by
// LeakyReLU, and LeakyReLU alone with alpha 0. Each case runs again with
// its first image zeroed and every other bias -0: an output over an
// all-zero window is then -0 + 0 * w + ..., which is -0 only if every tap's
// product is -0, so a kernel that skips zero inputs (and keeps the -0 bias)
// gets the sign wrong.
TEST(ConvTest, EveryKernelBranchMatchesReference) {
  struct Geometry {
    int k, stride, pad;
  };
  std::vector<ConvIsa> isas;
  for (const ConvIsa isa : {ConvIsa::kSse2, ConvIsa::kAvx2}) {
    if (ConvIsaSupported(isa)) isas.push_back(isa);
  }
  ThreadPool pool(3);
  Rng rng(21);
  std::size_t negative_zeros = 0;
  for (const int cout : {1, 2, 3, 4, 6, 7, 8, 12, 13, 16, 20, 24, 32, 130}) {
    for (const int cin : {3, 8}) {
      for (const int w : {1, 2, 5, 9, 17, 33}) {
        for (const Geometry g : {Geometry{3, 1, 1}, Geometry{3, 2, 1},
                                 Geometry{3, 1, 0}, Geometry{3, 2, 0},
                                 Geometry{1, 1, 0}, Geometry{1, 2, 0}}) {
          if (w + 2 * g.pad < g.k) continue;  // no output column
          SCOPED_TRACE("cout " + std::to_string(cout) + " cin " +
                       std::to_string(cin) + " w " + std::to_string(w) +
                       " k " + std::to_string(g.k) + " stride " +
                       std::to_string(g.stride) + " pad " +
                       std::to_string(g.pad));
          const Tensor input = UniformWithZeros({2, 5, w, cin}, rng);
          const Tensor weights = UniformWithZeros({g.k, g.k, cin, cout}, rng);
          const Tensor bias = UniformWithZeros({cout}, rng);
          Tensor scale = UniformWithZeros({cout}, rng);
          Tensor shift = UniformWithZeros({cout}, rng);
          for (int oc = 0; oc < cout; ++oc) {
            if (oc % 4 == 1) scale[std::size_t(oc)] = -0.0f;
            if (oc % 3 == 0) shift[std::size_t(oc)] = -0.0f;
          }
          const ConvEpilogue epilogues[] = {
              {},
              {scale.data(), shift.data(), false, 0.0f},
              {scale.data(), shift.data(), true, 0.1f},
              {{}, {}, true, 0.0f},
          };
          Tensor zeroed_input = input;
          std::fill_n(zeroed_input.data().begin(), input.size() / 2, 0.0f);
          Tensor signed_zero_bias = bias;
          for (int oc = 0; oc < cout; oc += 2) {
            signed_zero_bias[std::size_t(oc)] = -0.0f;
          }
          const std::pair<const Tensor*, const Tensor*> cases[] = {
              {&input, &bias}, {&zeroed_input, &signed_zero_bias}};
          for (const auto& [x, b] : cases) {
            SCOPED_TRACE(x == &input ? "" : "zeroed image, -0 bias");
            const Tensor expected =
                ReferenceConv(*x, weights, *b, g.stride, g.pad);
            for (const ConvEpilogue& ep : epilogues) {
              SCOPED_TRACE(std::string(ep.scale.empty() ? "" : "affine ") +
                           (ep.leaky_relu ? "leaky relu" : ""));
              const Tensor expected_ep = ReferenceEpilogue(expected, ep);
              for (const float v : expected_ep.data()) {
                negative_zeros += v == 0.0f && std::signbit(v);
              }
              ExpectSameBits(expected_ep, Conv(*x, weights, *b, g.stride,
                                               g.pad, nullptr, ep));
              ExpectSameBits(expected_ep, Conv(*x, weights, *b, g.stride,
                                               g.pad, &pool, ep));
              for (const ConvIsa isa : isas) {
                SCOPED_TRACE("isa " + std::to_string(int(isa)));
                ExpectSameBits(expected_ep, ConvOnIsa(isa, *x, weights, *b,
                                                      g.stride, g.pad, ep));
              }
            }
          }

          const Tensor expected_unbiased =
              ReferenceConv(input, weights, Tensor(), g.stride, g.pad);
          ExpectSameBits(expected_unbiased,
                         Conv(input, weights, Tensor(), g.stride, g.pad, &pool));
          for (const ConvIsa isa : isas) {
            SCOPED_TRACE("isa " + std::to_string(int(isa)));
            ExpectSameBits(expected_unbiased,
                           ConvOnIsa(isa, input, weights, Tensor(), g.stride,
                                     g.pad));
          }
        }
      }
    }
  }
  EXPECT_GT(negative_zeros, 0u);
}

TEST(ConvTest, IdentityKernelPreservesInput) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor input({1, 3, 3, 1});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = float(i);
  Tensor w({1, 1, 1, 1});
  w[0] = 1.0f;
  Tensor out = Conv(input, w, Tensor({1}), 1, 0);
  ASSERT_EQ(out.shape(), input.shape());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], input[i]);
}

TEST(ConvTest, KnownSum3x3) {
  // All-ones 3x3 kernel over all-ones 3x3 input, pad 1: center sees 9.
  Tensor input({1, 3, 3, 1}, 1.0f);
  Tensor w({3, 3, 1, 1}, 1.0f);
  Tensor out = Conv(input, w, Tensor(), 1, 1);
  EXPECT_EQ(out.at(0, 1, 1, 0), 9.0f);
  EXPECT_EQ(out.at(0, 0, 0, 0), 4.0f);  // corner sees 2x2
  EXPECT_EQ(out.at(0, 0, 1, 0), 6.0f);  // edge sees 2x3
}

TEST(ConvTest, StrideHalvesOutput) {
  Tensor input({2, 8, 8, 3});
  Rng rng(3);
  Tensor w = Tensor::RandomNormal({3, 3, 3, 4}, 0.1f, rng);
  Tensor out = Conv(input, w, Tensor({4}), 2, 1);
  EXPECT_EQ(out.shape(), (Shape{2, 4, 4, 4}));
}

// Numerical gradient check helper: compares analytic grads to central
// differences for a scalar loss L = sum(out * probe).
void CheckConvGradients(int n, int h, int w, int cin, int cout, int k,
                        int stride, int pad) {
  Rng rng(42);
  Tensor input = Tensor::RandomNormal({n, h, w, cin}, 1.0f, rng);
  Tensor weights = Tensor::RandomNormal({k, k, cin, cout}, 0.5f, rng);
  Tensor bias = Tensor::RandomNormal({cout}, 0.5f, rng);
  Tensor out = Conv(input, weights, bias, stride, pad);
  Tensor probe = Tensor::RandomNormal(out.shape(), 1.0f, rng);

  auto loss = [&](const Tensor& in, const Tensor& wt, const Tensor& b) {
    Tensor o = Conv(in, wt, b, stride, pad);
    double acc = 0;
    for (std::size_t i = 0; i < o.size(); ++i) acc += double(o[i]) * probe[i];
    return acc;
  };

  ConvGrads grads = Conv2dBackward(input, weights, probe, stride, pad);

  const float eps = 1e-3f;
  // Sample a handful of coordinates in each tensor.
  for (const std::size_t idx : {std::size_t{0}, input.size() / 3, input.size() - 1}) {
    Tensor in_hi = input, in_lo = input;
    in_hi[idx] += eps;
    in_lo[idx] -= eps;
    const double numeric = (loss(in_hi, weights, bias) - loss(in_lo, weights, bias)) / (2 * eps);
    EXPECT_NEAR(grads.input[idx], numeric, 2e-2) << "input grad @" << idx;
  }
  for (const std::size_t idx : {std::size_t{0}, weights.size() / 2, weights.size() - 1}) {
    Tensor w_hi = weights, w_lo = weights;
    w_hi[idx] += eps;
    w_lo[idx] -= eps;
    const double numeric = (loss(input, w_hi, bias) - loss(input, w_lo, bias)) / (2 * eps);
    EXPECT_NEAR(grads.weights[idx], numeric, 2e-2) << "weight grad @" << idx;
  }
  {
    Tensor b_hi = bias, b_lo = bias;
    b_hi[0] += eps;
    b_lo[0] -= eps;
    const double numeric = (loss(input, weights, b_hi) - loss(input, weights, b_lo)) / (2 * eps);
    EXPECT_NEAR(grads.bias[0], numeric, 2e-2);
  }
}

TEST(ConvTest, GradientCheckStride1) { CheckConvGradients(2, 5, 5, 2, 3, 3, 1, 1); }
TEST(ConvTest, GradientCheckStride2) { CheckConvGradients(1, 6, 6, 3, 2, 3, 2, 1); }
TEST(ConvTest, GradientCheck1x1) { CheckConvGradients(2, 4, 4, 3, 4, 1, 1, 0); }

// Naive i-k-j product with no zero skip (skipping only flips zero signs).
Tensor ReferenceMatMul(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      for (int j = 0; j < n; ++j) c.at(i, j) += a.at(i, p) * b.at(p, j);
    }
  }
  return c;
}

TEST(MatMulTest, IntoKernelsMatchReference) {
  ThreadPool pool(3);
  Rng rng(22);
  for (const int m : {1, 5, 64}) {
    SCOPED_TRACE("rows " + std::to_string(m));
    const Tensor a = UniformWithZeros({m, 17}, rng);
    const Tensor w = UniformWithZeros({17, 11}, rng);
    const Tensor bias = UniformWithZeros({11}, rng);
    const Tensor expected = ReferenceMatMul(a, w);
    Tensor dense_expected = expected;
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < 11; ++j) {
        dense_expected.at(i, j) += bias[std::size_t(j)];
      }
    }
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Tensor c({m, 11});
      TensorView c_view(c);
      MatMulInto(TensorView::OfConst(a), w, c_view, p);
      ExpectSameFloats(expected, c);
      Tensor y({m, 11});
      TensorView y_view(y);
      DenseForwardInto(TensorView::OfConst(a), w, bias, y_view, p);
      ExpectSameFloats(dense_expected, y);
    }
    ExpectSameFloats(expected, MatMul(a, w));
  }
}

TEST(MaxPoolTest, ForwardPicksMax) {
  Tensor input({1, 4, 4, 1});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = float(i);
  Tensor output({1, 2, 2, 1});
  TensorView output_view(output);
  MaxPool2dForwardInto(TensorView::OfConst(input), 2, 2, output_view);
  EXPECT_EQ(output.shape(), (Shape{1, 2, 2, 1}));
  EXPECT_EQ(output.at(0, 0, 0, 0), 5.0f);
  EXPECT_EQ(output.at(0, 1, 1, 0), 15.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  Tensor input({1, 4, 4, 1});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = float(i);
  Tensor grad_out({1, 2, 2, 1}, 1.0f);
  Tensor grad_in = MaxPool2dBackward(input, 2, 2, grad_out);
  EXPECT_EQ(grad_in[5], 1.0f);
  EXPECT_EQ(grad_in[15], 1.0f);
  EXPECT_EQ(grad_in[0], 0.0f);
  float total = 0;
  for (const float v : grad_in.data()) total += v;
  EXPECT_EQ(total, 4.0f);
}

// Naive max pooling: per output element, scan the window in (ky, kx) order
// and keep the first strictly greater value, starting from -inf. NaN never
// compares greater, so a window of NaN and -inf pools to -inf.
Tensor ReferenceMaxPool(const Tensor& input, int k, int stride) {
  const int n = input.dim(0), h = input.dim(1), w = input.dim(2),
            c = input.dim(3);
  const int oh = (h - k) / stride + 1, ow = (w - k) / stride + 1;
  Tensor out({n, oh, ow, c});
  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        for (int ch = 0; ch < c; ++ch) {
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < k; ++ky) {
            for (int kx = 0; kx < k; ++kx) {
              const float v =
                  input.at(b, oy * stride + ky, ox * stride + kx, ch);
              if (v > best) best = v;
            }
          }
          out.at(b, oy, ox, ch) = best;
        }
      }
    }
  }
  return out;
}

// Pooling input built to stress the comparison: small integers (many ties),
// signed zeros (a tie that only the bits can see), -inf and NaN. Batch 1 is
// all negative, so it has all-negative windows, and the first window of
// batch 0 is all NaN and -inf.
Tensor AdversarialPoolInput(int h, int w, int c, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t({2, h, w, c});
  for (std::size_t i = 0; i < t.size(); ++i) {
    switch (rng.UniformInt(0, 5)) {
      case 0: t[i] = rng.Bernoulli(0.5) ? 0.0f : -0.0f; break;
      case 1: t[i] = -inf; break;
      case 2: t[i] = rng.Bernoulli(0.5) ? nan : -nan; break;
      case 3: t[i] = rng.UniformFloat(-1.0f, 1.0f); break;
      default: t[i] = float(rng.UniformInt(-3, 3)); break;
    }
  }
  const std::size_t half = t.size() / 2;
  for (std::size_t i = half; i < t.size(); ++i) {
    if (!(t[i] < 0.0f) && !std::isnan(t[i])) t[i] = -1.0f - t[i];
  }
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        t.at(0, y, x, ch) = (x + ch) % 2 ? nan : -inf;
      }
    }
  }
  return t;
}

// MaxPool2dForwardInto against the naive loop, bit for bit, across the
// detector's k2/s2 and the inception branch's k3/s1, at every channel count
// from 1 to 33 (below, at and off the vector width, and the zoo's 8, 12 and
// 24, which run fixed-width kernels) and at 61.
TEST(MaxPoolTest, ForwardMatchesReferenceBits) {
  Rng rng(23);
  std::vector<int> widths;
  for (int c = 1; c <= 33; ++c) widths.push_back(c);
  widths.push_back(61);
  for (const int c : widths) {
    for (const auto& [k, stride] : {std::pair{2, 2}, std::pair{3, 1}}) {
      SCOPED_TRACE("c=" + std::to_string(c) + " k=" + std::to_string(k) +
                   " s=" + std::to_string(stride));
      const Tensor input = AdversarialPoolInput(7, 6, c, rng);
      const Tensor expected = ReferenceMaxPool(input, k, stride);
      Tensor out(expected.shape());
      TensorView out_view(out);
      MaxPool2dForwardInto(TensorView::OfConst(input), k, stride, out_view);
      ExpectSameBits(expected, out);
    }
  }
}

// The backward pass routes each output gradient to the first strictly
// greater element of its window (the one the forward scan kept), so among
// tied maxima the earliest (ky, kx) tap takes the whole gradient.
TEST(MaxPoolTest, BackwardRoutesToFirstMaxOnTies) {
  Rng rng(29);
  for (const int c : {1, 8, 13}) {
    for (const auto& [k, stride] : {std::pair{2, 2}, std::pair{3, 1}}) {
      Tensor input({2, 7, 6, c});
      for (std::size_t i = 0; i < input.size(); ++i) {
        input[i] = float(rng.UniformInt(-2, 2));
      }
      const int oh = (7 - k) / stride + 1, ow = (6 - k) / stride + 1;
      Tensor grad_out({2, oh, ow, c});
      for (std::size_t i = 0; i < grad_out.size(); ++i) {
        grad_out[i] = float(rng.UniformInt(1, 9));
      }
      Tensor expected(input.shape());
      for (int b = 0; b < 2; ++b) {
        for (int oy = 0; oy < oh; ++oy) {
          for (int ox = 0; ox < ow; ++ox) {
            for (int ch = 0; ch < c; ++ch) {
              int by = oy * stride, bx = ox * stride;
              for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                  const int iy = oy * stride + ky, ix = ox * stride + kx;
                  if (input.at(b, iy, ix, ch) > input.at(b, by, bx, ch)) {
                    by = iy;
                    bx = ix;
                  }
                }
              }
              expected.at(b, by, bx, ch) += grad_out.at(b, oy, ox, ch);
            }
          }
        }
      }
      ExpectSameBits(expected, MaxPool2dBackward(input, k, stride, grad_out));
    }
  }
}

// A window with nothing above -inf (here -inf and NaN) has no strictly
// greater tap; its gradient goes to the window's own first tap.
TEST(MaxPoolTest, BackwardRoutesEmptyWindowToFirstTap) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor input({1, 2, 4, 1}, 1.0f);
  input.at(0, 0, 2, 0) = -inf;
  input.at(0, 0, 3, 0) = std::numeric_limits<float>::quiet_NaN();
  input.at(0, 1, 2, 0) = -inf;
  input.at(0, 1, 3, 0) = -inf;
  Tensor grad_in = MaxPool2dBackward(input, 2, 2, Tensor({1, 1, 2, 1}, 1.0f));
  EXPECT_EQ(grad_in.at(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(grad_in.at(0, 0, 2, 0), 1.0f);
  float total = 0;
  for (const float v : grad_in.data()) total += v;
  EXPECT_EQ(total, 2.0f);
}

TEST(GlobalAvgPoolTest, ForwardAndBackward) {
  Tensor input({1, 2, 2, 2});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = float(i);
  Tensor out({1, 2});
  TensorView out_view(out);
  GlobalAvgPoolForwardInto(TensorView::OfConst(input), out_view);
  EXPECT_EQ(out.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0), (0 + 2 + 4 + 6) / 4.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), (1 + 3 + 5 + 7) / 4.0f);
  Tensor grad = GlobalAvgPoolBackward(input.shape(), Tensor({1, 2}, 1.0f));
  for (const float v : grad.data()) EXPECT_FLOAT_EQ(v, 0.25f);
}

// Applies an elementwise *Into kernel into a fresh output tensor.
template <typename Kernel>
Tensor Elementwise(const Tensor& x, Kernel kernel) {
  Tensor y(x.shape());
  TensorView y_view(y);
  kernel(TensorView::OfConst(x), y_view);
  return y;
}

TEST(ActivationTest, ReluAndBackward) {
  Tensor x = Tensor::FromVector({-1, 0, 2});
  Tensor y = Elementwise(x, ReluInto);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g = ReluBackward(x, Tensor({3}, 1.0f));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[2], 1.0f);
}

TEST(ActivationTest, LeakyRelu) {
  Tensor x = Tensor::FromVector({-10, 10});
  Tensor y = Elementwise(x, [](const TensorView& in, const TensorView& out) {
    LeakyReluInto(in, out, 0.1f);
  });
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 10.0f);
}

// Every IEEE class a LeakyReLU input can hold, then a run of ordinary values
// long enough (and odd-sized) to reach a vectorized loop and its scalar tail.
Tensor LeakyReluSpecials(Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float fmax = std::numeric_limits<float>::max();
  const float fmin = std::numeric_limits<float>::min();
  std::vector<float> v = {0.0f,        -0.0f,      denorm,     -denorm,
                          3 * denorm,  -3 * denorm, fmin / 2,  -fmin / 2,
                          fmin,        -fmin,      fmax,       -fmax,
                          inf,         -inf,       nan,        -nan,
                          1.5f,        -1.5f};
  for (int i = 0; i < 37; ++i) v.push_back(rng.UniformFloat(-4.0f, 4.0f));
  return Tensor::FromVector(v);
}

// LeakyReluInto against the naive branchy loop, bit for bit, in place and
// out of place, at the ends of the alpha range and at the detector's 0.1.
TEST(ActivationTest, LeakyReluMatchesReferenceBits) {
  Rng rng(31);
  const Tensor x = LeakyReluSpecials(rng);
  for (const float alpha : {0.0f, 0.1f, 1.0f}) {
    SCOPED_TRACE("alpha=" + std::to_string(alpha));
    Tensor expected(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float v = x[i];
      expected[i] = v < 0.0f ? v * alpha : v;
    }
    Tensor out(x.shape());
    TensorView out_view(out);
    LeakyReluInto(TensorView::OfConst(x), out_view, alpha);
    ExpectSameBits(expected, out);

    Tensor in_place = x;
    TensorView in_place_view(in_place);
    LeakyReluInto(in_place_view, in_place_view, alpha);
    ExpectSameBits(expected, in_place);
  }
}

// LeakyReluBackward scales the gradient exactly where the forward input was
// negative; the special values go through both the input and the gradient.
TEST(ActivationTest, LeakyReluBackwardMatchesReferenceBits) {
  Rng rng(37);
  const Tensor x = LeakyReluSpecials(rng);
  Tensor grad = LeakyReluSpecials(rng);
  for (std::size_t i = 0; i < grad.size() / 2; ++i) {
    std::swap(grad[i], grad[grad.size() - 1 - i]);
  }
  for (const float alpha : {0.0f, 0.1f, 1.0f}) {
    SCOPED_TRACE("alpha=" + std::to_string(alpha));
    Tensor expected = grad;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] < 0.0f) expected[i] = grad[i] * alpha;
    }
    ExpectSameBits(expected, LeakyReluBackward(x, grad, alpha));
  }
}

TEST(ActivationTest, SigmoidRange) {
  Tensor x = Tensor::FromVector({-100, 0, 100});
  Tensor y = Elementwise(x, SigmoidInto);
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-6f);
}

TEST(ActivationTest, TanhGradientAtZero) {
  Tensor x = Tensor::FromVector({0.0f});
  Tensor y = Elementwise(x, TanhInto);
  Tensor g = TanhBackward(y, Tensor({1}, 1.0f));
  EXPECT_FLOAT_EQ(g[0], 1.0f);  // 1 - tanh(0)^2
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::RandomNormal({4, 7}, 3.0f, rng);
  Tensor p = Softmax(logits);
  for (int i = 0; i < 4; ++i) {
    float sum = 0;
    for (int j = 0; j < 7; ++j) sum += p.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, LargeLogitsStable) {
  Tensor logits = Tensor::FromVector({1000.0f, 1000.0f}).Reshape({1, 2});
  Tensor p = Softmax(logits);
  EXPECT_NEAR(p[0], 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(CrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor logits = Tensor::FromVector({10.0f, -10.0f, -10.0f}).Reshape({1, 3});
  auto res = CrossEntropyLoss(logits, {0});
  EXPECT_LT(res.loss, 1e-3f);
  EXPECT_EQ(res.correct, 1);
}

TEST(CrossEntropyTest, GradientIsProbsMinusOneHot) {
  Tensor logits = Tensor::FromVector({0.0f, 0.0f}).Reshape({1, 2});
  auto res = CrossEntropyLoss(logits, {1});
  EXPECT_NEAR(res.grad[0], 0.5f, 1e-5f);
  EXPECT_NEAR(res.grad[1], -0.5f, 1e-5f);
}

TEST(CrossEntropyTest, NumericalGradientCheck) {
  Rng rng(9);
  Tensor logits = Tensor::RandomNormal({3, 4}, 1.0f, rng);
  const std::vector<int> labels = {2, 0, 3};
  auto res = CrossEntropyLoss(logits, labels);
  const float eps = 1e-3f;
  for (const std::size_t idx : {std::size_t{0}, std::size_t{5}, std::size_t{11}}) {
    Tensor hi = logits, lo = logits;
    hi[idx] += eps;
    lo[idx] -= eps;
    const float numeric = (CrossEntropyLoss(hi, labels).loss -
                           CrossEntropyLoss(lo, labels).loss) /
                          (2 * eps);
    EXPECT_NEAR(res.grad[idx], numeric, 1e-3f);
  }
}

TEST(EntropyTest, UniformIsMaximal) {
  const std::vector<float> uniform = {0.25f, 0.25f, 0.25f, 0.25f};
  const std::vector<float> peaked = {0.97f, 0.01f, 0.01f, 0.01f};
  EXPECT_NEAR(Entropy(uniform), std::log(4.0f), 1e-5f);
  EXPECT_LT(Entropy(peaked), Entropy(uniform));
}

}  // namespace
}  // namespace metro::tensor
