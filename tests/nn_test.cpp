// Unit tests for the layer library: gradient checks per layer, end-to-end
// training convergence, LSTM BPTT, optimizers, and checkpointing.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"

namespace metro::nn {
namespace {

using tensor::CrossEntropyLoss;
using tensor::Shape;

// Scalar probe loss L = sum(out * probe); returns dL/dparam numerically.
template <typename ForwardFn>
double NumericGrad(ForwardFn forward, Tensor& target, std::size_t idx,
                   const Tensor& probe) {
  const float eps = 1e-3f;
  const float saved = target[idx];
  auto eval = [&] {
    Tensor out = forward();
    double acc = 0;
    for (std::size_t i = 0; i < out.size(); ++i) acc += double(out[i]) * probe[i];
    return acc;
  };
  target[idx] = saved + eps;
  const double hi = eval();
  target[idx] = saved - eps;
  const double lo = eval();
  target[idx] = saved;
  return (hi - lo) / (2 * eps);
}

TEST(DenseTest, ForwardMatchesManual) {
  Rng rng(1);
  Dense dense(2, 3, rng);
  // Overwrite with known weights.
  auto params = dense.Params();
  Tensor& w = params[0]->value;
  Tensor& b = params[1]->value;
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = float(i);
  b.Fill(1.0f);
  Tensor x = Tensor::FromVector({1, 2}).Reshape({1, 2});
  Tensor y = dense.Forward(x, false);
  // y_j = 1*w[0,j] + 2*w[1,j] + 1
  EXPECT_FLOAT_EQ(y[0], 0 + 2 * 3 + 1);
  EXPECT_FLOAT_EQ(y[1], 1 + 2 * 4 + 1);
  EXPECT_FLOAT_EQ(y[2], 2 + 2 * 5 + 1);
}

TEST(DenseTest, GradientCheck) {
  Rng rng(2);
  Dense dense(3, 2, rng);
  Tensor x = Tensor::RandomNormal({4, 3}, 1.0f, rng);
  Tensor out = dense.Forward(x, true);
  Tensor probe = Tensor::RandomNormal(out.shape(), 1.0f, rng);
  Tensor grad_in = dense.Backward(probe);

  auto params = dense.Params();
  for (Param* p : params) {
    for (const std::size_t idx : {std::size_t{0}, p->value.size() - 1}) {
      const double numeric = NumericGrad(
          [&] { return dense.Forward(x, true); }, p->value, idx, probe);
      EXPECT_NEAR(p->grad[idx], numeric, 5e-2) << p->name << "@" << idx;
    }
  }
  const double numeric =
      NumericGrad([&] { return dense.Forward(x, true); }, x, 0, probe);
  EXPECT_NEAR(grad_in[0], numeric, 5e-2);
}

TEST(BatchNormTest, NormalizesTrainingBatch) {
  Rng rng(3);
  BatchNorm bn(4);
  Tensor x = Tensor::RandomNormal({32, 4}, 5.0f, rng);
  x += Tensor({32, 4}, 10.0f);  // mean 10, std 5
  Tensor y = bn.Forward(x, true);
  // Per-channel mean ~0, var ~1.
  for (int c = 0; c < 4; ++c) {
    double mean = 0, var = 0;
    for (int i = 0; i < 32; ++i) mean += y.at(i, c);
    mean /= 32;
    for (int i = 0; i < 32; ++i) var += (y.at(i, c) - mean) * (y.at(i, c) - mean);
    var /= 32;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  Rng rng(4);
  BatchNorm bn(2);
  // Train on many batches so running stats converge.
  for (int step = 0; step < 200; ++step) {
    Tensor x = Tensor::RandomNormal({16, 2}, 2.0f, rng);
    x += Tensor({16, 2}, 4.0f);
    (void)bn.Forward(x, true);
  }
  // A constant input at the running mean should map near beta (= 0).
  Tensor probe({1, 2}, 4.0f);
  Tensor y = bn.Forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

TEST(BatchNormTest, GradientCheck) {
  Rng rng(5);
  BatchNorm bn(3);
  Tensor x = Tensor::RandomNormal({8, 3}, 1.0f, rng);
  Tensor out = bn.Forward(x, true);
  Tensor probe = Tensor::RandomNormal(out.shape(), 1.0f, rng);
  Tensor grad_in = bn.Backward(probe);
  for (const std::size_t idx : {std::size_t{0}, std::size_t{10}}) {
    const double numeric =
        NumericGrad([&] { return bn.Forward(x, true); }, x, idx, probe);
    EXPECT_NEAR(grad_in[idx], numeric, 5e-2);
  }
}

TEST(DropoutTest, InferenceIsIdentity) {
  Rng rng(6);
  Dropout dropout(0.5f, rng);
  Tensor x = Tensor::RandomNormal({4, 4}, 1.0f, rng);
  Tensor y = dropout.Forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(DropoutTest, TrainingZeroesAboutHalfAndScales) {
  Rng rng(7);
  Dropout dropout(0.5f, rng);
  Tensor x({1, 10000}, 1.0f);
  Tensor y = dropout.Forward(x, true);
  int zeros = 0;
  for (const float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scale 1/(1-0.5)
    }
  }
  EXPECT_NEAR(double(zeros) / 10000, 0.5, 0.03);
}

TEST(SequentialTest, OutputShapeTracksLayers) {
  Rng rng(8);
  Sequential net;
  net.Emplace<Conv2d>(3, 8, 3, 1, 1, rng)
      .Emplace<Activation>(ActKind::kRelu)
      .Emplace<MaxPool2d>(2, 2)
      .Emplace<Flatten>()
      .Emplace<Dense>(8 * 8 * 8, 10, rng);
  EXPECT_EQ(net.OutputShape({4, 16, 16, 3}), (Shape{4, 10}));
  EXPECT_GT(net.ForwardMacs({4, 16, 16, 3}), 0u);
  EXPECT_NE(net.Summary().find("conv3x3x8"), std::string::npos);
}

TEST(SequentialTest, TrainsSmallClassifier) {
  // Two Gaussian blobs in 2-D; a 2-layer MLP should separate them.
  Rng rng(9);
  Sequential net;
  net.Emplace<Dense>(2, 16, rng)
      .Emplace<Activation>(ActKind::kRelu)
      .Emplace<Dense>(16, 2, rng);
  Adam opt(5e-3f);

  auto make_batch = [&rng](int n, Tensor& x, std::vector<int>& labels) {
    x = Tensor({n, 2});
    labels.resize(std::size_t(n));
    for (int i = 0; i < n; ++i) {
      const int cls = int(rng.UniformU64(2));
      labels[std::size_t(i)] = cls;
      const float cx = cls == 0 ? -1.0f : 1.0f;
      x[std::size_t(i) * 2] = cx + float(rng.Normal(0, 0.4));
      x[std::size_t(i) * 2 + 1] = -cx + float(rng.Normal(0, 0.4));
    }
  };

  for (int step = 0; step < 200; ++step) {
    Tensor x;
    std::vector<int> labels;
    make_batch(32, x, labels);
    Tensor logits = net.Forward(x, true);
    auto ce = CrossEntropyLoss(logits, labels);
    net.Backward(ce.grad);
    auto params = net.Params();
    opt.Step(params);
  }

  Tensor x;
  std::vector<int> labels;
  make_batch(256, x, labels);
  auto ce = CrossEntropyLoss(net.Forward(x, false), labels);
  EXPECT_GT(double(ce.correct) / 256.0, 0.95);
}

// Lstm input is clip-major (N*T, F): row n*T + t is step t of clip n.

TEST(LstmTest, OutputShapes) {
  Rng rng(10);
  Lstm lstm(4, 6, /*steps=*/5, rng);
  const Tensor x = Tensor::RandomNormal({3 * 5, 4}, 1.0f, rng);
  const Tensor out = lstm.Forward(x, false);
  EXPECT_EQ(lstm.name(), "lstm4x6/t5");
  EXPECT_EQ(lstm.OutputShape(x.shape()), (Shape{3, 6}));
  EXPECT_EQ(out.shape(), (Shape{3, 6}));
  // One cell kernel: training computes the same bits as inference.
  const Tensor trained = lstm.Forward(x, true);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(trained[i], out[i]);
}

TEST(LstmTest, GradientCheckThroughTime) {
  Rng rng(11);
  const int t_len = 3, batch = 2;
  Lstm lstm(3, 4, t_len, rng);
  Tensor x = Tensor::RandomNormal({batch * t_len, 3}, 1.0f, rng);
  lstm.Forward(x, true);
  // Probe only the last step (like a classifier head).
  Tensor probe = Tensor::RandomNormal({batch, 4}, 1.0f, rng);
  Tensor grad_x = lstm.Backward(probe);

  auto loss = [&] {
    Tensor o = lstm.Forward(x, true);
    double acc = 0;
    for (std::size_t i = 0; i < o.size(); ++i) acc += double(o[i]) * probe[i];
    return acc;
  };
  const float eps = 1e-3f;
  // Check an early-step input gradient (exercises BPTT) and a weight grad.
  {
    const std::size_t idx = 1;  // clip 0, step 0, feature 1
    const float saved = x[idx];
    x[idx] = saved + eps;
    const double hi = loss();
    x[idx] = saved - eps;
    const double lo = loss();
    x[idx] = saved;
    EXPECT_NEAR(grad_x[idx], (hi - lo) / (2 * eps), 5e-2);
  }
  {
    Param* wx = lstm.Params()[0];
    const std::size_t idx = wx->value.size() / 2;
    // Re-run forward/backward to get a fresh grad (params unchanged).
    lstm.Forward(x, true);
    for (Param* p : lstm.Params()) p->ZeroGrad();
    lstm.Forward(x, true);
    lstm.Backward(probe);
    const float analytic = wx->grad[idx];
    const float saved = wx->value[idx];
    wx->value[idx] = saved + eps;
    const double hi = loss();
    wx->value[idx] = saved - eps;
    const double lo = loss();
    wx->value[idx] = saved;
    EXPECT_NEAR(analytic, (hi - lo) / (2 * eps), 5e-2);
  }
}

// Multi-step BPTT against central differences, in the style of Dali's
// `gradient_same`: at batch 2 and T 4, over three seeds, every input
// coordinate of every step and a spread of wx, wh and b coordinates.
TEST(LstmTest, BpttGradientsMatchNumericAcrossSeeds) {
  const int batch = 2, t_len = 4, in = 3, hidden = 5;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Lstm lstm(in, hidden, t_len, rng);
    Tensor x = Tensor::RandomNormal({batch * t_len, in}, 1.0f, rng);
    const Tensor probe = Tensor::RandomNormal({batch, hidden}, 1.0f, rng);

    for (Param* p : lstm.Params()) p->ZeroGrad();
    lstm.Forward(x, true);
    const Tensor grad_x = lstm.Backward(probe);
    ASSERT_EQ(grad_x.shape(), x.shape());

    // L = <h_T, probe>, evaluated in double over the float forward.
    auto loss = [&] {
      const Tensor h = lstm.Forward(x, false);
      double acc = 0;
      for (std::size_t i = 0; i < h.size(); ++i) acc += double(h[i]) * probe[i];
      return acc;
    };
    auto numeric = [&](float& v) {
      const float eps = 1e-2f, saved = v;
      v = saved + eps;
      const double hi = loss();
      v = saved - eps;
      const double lo = loss();
      v = saved;
      return (hi - lo) / (2.0 * double(eps));
    };
    auto expect_close = [](double analytic, double num) {
      EXPECT_NEAR(analytic, num, 2e-3 + 2e-2 * std::fabs(num));
    };

    // Every row of x is one (clip, step): this covers every step.
    for (std::size_t i = 0; i < x.size(); ++i) {
      SCOPED_TRACE("dx row " + std::to_string(i / in) + " col " +
                   std::to_string(i % in));
      expect_close(grad_x[i], numeric(x[i]));
    }
    for (Param* p : lstm.Params()) {
      const std::size_t n = p->value.size();
      for (std::size_t i : {std::size_t(0), n / 3, n / 2, n - 1}) {
        SCOPED_TRACE(p->name + " idx " + std::to_string(i));
        expect_close(p->grad[i], numeric(p->value[i]));
      }
    }
  }
}

TEST(LstmTest, LearnsLastSymbolTask) {
  // Sequence of one-hot symbols; target = symbol at the last step. The LSTM
  // plus a linear head must learn to read its most recent input.
  Rng rng(12);
  const int symbols = 4, t_len = 5, hidden = 12;
  Lstm lstm(symbols, hidden, t_len, rng);
  Dense head(hidden, symbols, rng);
  Adam opt(1e-2f);

  auto make = [&rng, symbols, t_len](int n, Tensor& x,
                                     std::vector<int>& labels) {
    x = Tensor({n * t_len, symbols});
    labels.resize(std::size_t(n));
    for (int i = 0; i < n; ++i) {
      for (int t = 0; t < t_len; ++t) {
        const int s = int(rng.UniformU64(std::size_t(symbols)));
        x[(std::size_t(i) * t_len + t) * symbols + s] = 1.0f;
        if (t == t_len - 1) labels[std::size_t(i)] = s;
      }
    }
  };

  for (int step = 0; step < 150; ++step) {
    Tensor x;
    std::vector<int> labels;
    make(16, x, labels);
    Tensor logits = head.Forward(lstm.Forward(x, true), true);
    auto ce = CrossEntropyLoss(logits, labels);
    lstm.Backward(head.Backward(ce.grad));
    std::vector<Param*> params = lstm.Params();
    for (Param* p : head.Params()) params.push_back(p);
    ClipGradNorm(params, 5.0f);
    opt.Step(params);
  }

  Tensor x;
  std::vector<int> labels;
  make(128, x, labels);
  auto ce = CrossEntropyLoss(head.Forward(lstm.Forward(x, false), false), labels);
  EXPECT_GT(double(ce.correct) / 128.0, 0.9);
}

TEST(OptimizerTest, SgdMomentumDescendsQuadratic) {
  // Minimize f(w) = (w - 3)^2 by hand-fed gradients.
  Param w("w", Tensor::FromVector({0.0f}));
  Sgd opt(0.1f, 0.9f);
  for (int i = 0; i < 100; ++i) {
    w.grad[0] = 2 * (w.value[0] - 3.0f);
    std::vector<Param*> params{&w};
    opt.Step(params);
  }
  EXPECT_NEAR(w.value[0], 3.0f, 0.05f);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Param w("w", Tensor::FromVector({-5.0f}));
  Adam opt(0.3f);
  for (int i = 0; i < 200; ++i) {
    w.grad[0] = 2 * (w.value[0] - 1.0f);
    std::vector<Param*> params{&w};
    opt.Step(params);
  }
  EXPECT_NEAR(w.value[0], 1.0f, 0.05f);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Param w("w", Tensor::FromVector({1.0f}));
  w.grad[0] = 5.0f;
  Sgd opt(0.1f);
  std::vector<Param*> params{&w};
  opt.Step(params);
  EXPECT_EQ(w.grad[0], 0.0f);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Param w("w", Tensor::FromVector({10.0f}));
  Sgd opt(0.1f, 0.0f, 0.5f);
  for (int i = 0; i < 50; ++i) {
    w.grad[0] = 0.0f;  // only decay acts
    std::vector<Param*> params{&w};
    opt.Step(params);
  }
  EXPECT_LT(std::fabs(w.value[0]), 1.0f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Param a("a", Tensor::FromVector({0.0f}));
  Param b("b", Tensor::FromVector({0.0f}));
  a.grad[0] = 30.0f;
  b.grad[0] = 40.0f;  // norm 50
  ClipGradNorm({&a, &b}, 5.0f);
  EXPECT_NEAR(a.grad[0], 3.0f, 1e-4f);
  EXPECT_NEAR(b.grad[0], 4.0f, 1e-4f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Param a("a", Tensor::FromVector({0.0f}));
  a.grad[0] = 0.5f;
  ClipGradNorm({&a}, 5.0f);
  EXPECT_FLOAT_EQ(a.grad[0], 0.5f);
}

TEST(SerializeTest, RoundTripRestoresWeights) {
  Rng rng(13);
  Sequential net1;
  net1.Emplace<Dense>(4, 8, rng).Emplace<Dense>(8, 2, rng);
  Sequential net2;
  net2.Emplace<Dense>(4, 8, rng).Emplace<Dense>(8, 2, rng);

  const std::string bytes = SaveParams(net1.Params());
  ASSERT_TRUE(LoadParams(net2.Params(), bytes).ok());

  Tensor x = Tensor::RandomNormal({3, 4}, 1.0f, rng);
  Tensor y1 = net1.Forward(x, false);
  Tensor y2 = net2.Forward(x, false);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(SerializeTest, CorruptionDetected) {
  Rng rng(14);
  Sequential net;
  net.Emplace<Dense>(2, 2, rng);
  std::string bytes = SaveParams(net.Params());
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_EQ(LoadParams(net.Params(), bytes).code(), StatusCode::kCorruption);
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(15);
  Sequential small, big;
  small.Emplace<Dense>(2, 2, rng);
  big.Emplace<Dense>(2, 3, rng);
  const std::string bytes = SaveParams(small.Params());
  EXPECT_EQ(LoadParams(big.Params(), bytes).code(),
            StatusCode::kInvalidArgument);
}


TEST(SerializeTest, CheckpointRoundTripWithBuffers) {
  Rng rng(17);
  nn::Sequential a;
  a.Emplace<Dense>(3, 4, rng).Emplace<BatchNorm>(4).Emplace<Dense>(4, 2, rng);
  // Drift the running stats away from their defaults.
  for (int i = 0; i < 20; ++i) {
    (void)a.Forward(Tensor::RandomNormal({8, 3}, 2.0f, rng), true);
  }
  const std::string bytes = SaveCheckpoint(a.Params(), a.Buffers());

  nn::Sequential b;
  b.Emplace<Dense>(3, 4, rng).Emplace<BatchNorm>(4).Emplace<Dense>(4, 2, rng);
  ASSERT_TRUE(LoadCheckpoint(b.Params(), b.Buffers(), bytes).ok());
  Tensor x = Tensor::RandomNormal({5, 3}, 1.0f, rng);
  Tensor ya = a.Forward(x, false);
  Tensor yb = b.Forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(SerializeTest, CheckpointCorruptionDetected) {
  Rng rng(18);
  nn::Sequential net;
  net.Emplace<Dense>(2, 2, rng).Emplace<BatchNorm>(2);
  std::string bytes = SaveCheckpoint(net.Params(), net.Buffers());
  bytes[bytes.size() / 3] ^= 0x04;
  EXPECT_EQ(LoadCheckpoint(net.Params(), net.Buffers(), bytes).code(),
            StatusCode::kCorruption);
}

TEST(SerializeTest, CheckpointBufferCountMismatch) {
  Rng rng(19);
  nn::Sequential with_bn, without_bn;
  with_bn.Emplace<Dense>(2, 2, rng).Emplace<BatchNorm>(2);
  without_bn.Emplace<Dense>(2, 2, rng);
  const std::string bytes =
      SaveCheckpoint(with_bn.Params(), with_bn.Buffers());
  // Same param count only if we drop BN gamma/beta too, so mismatch hits
  // the param check first with this pair; build an explicit buffer-only
  // mismatch instead: same params, no buffers supplied.
  EXPECT_FALSE(
      LoadCheckpoint(with_bn.Params(), {}, bytes).ok());
}

TEST(SerializeTest, ParamCountMismatchRejected) {
  Rng rng(16);
  Sequential one, two;
  one.Emplace<Dense>(2, 2, rng);
  two.Emplace<Dense>(2, 2, rng).Emplace<Dense>(2, 2, rng);
  const std::string bytes = SaveParams(one.Params());
  EXPECT_EQ(LoadParams(two.Params(), bytes).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace metro::nn
