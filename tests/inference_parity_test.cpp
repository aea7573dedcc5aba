// Planner and kernel checks for planned inference.
//
// Two kinds of check live here:
//  - Planner parity: a session must reproduce running the same layers one
//    by one (`Forward(x, /*training=*/false)`, which gives every layer its
//    own output buffer) bit for bit, across ping-pong slot reuse, in-place
//    steps, transparent replanning and arenas shared at a split model's cut
//    point. Steady-state runs must not grow the workspace.
//  - Golden outputs: fixed-seed zoo models with uniform parameters and
//    inputs must produce committed output shapes and FNV-1a hashes of their
//    float bit patterns, through `Forward(x, false)` and through the
//    sessions alike. The goldens pin the kernels' arithmetic; the naive
//    reference kernels in tensor_test.cpp pin each kernel branch.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "apps/vehicle_app.h"
#include "datagen/video.h"
#include "nn/inference.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"
#include "zoo/behavior.h"
#include "zoo/detector.h"
#include "zoo/fusion.h"
#include "zoo/inception.h"
#include "zoo/resnet_block.h"
#include "zoo/session.h"

namespace metro {
namespace {

using nn::Tensor;
using tensor::TensorView;
using tensor::Workspace;

// Compares the float bits, so the sign of a zero counts and NaN matches only
// an identical NaN.
void ExpectBitExact(const Tensor& expected, const nn::Shape& shape,
                    std::span<const float> actual) {
  ASSERT_EQ(expected.shape(), shape);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const float e = expected[i];
    ASSERT_EQ(std::memcmp(&e, &actual[i], sizeof(float)), 0)
        << "bit mismatch at index " << i << ": expected " << e << ", got "
        << actual[i];
  }
}

void ExpectBitExact(const Tensor& expected, const Tensor& actual) {
  ExpectBitExact(expected, actual.shape(), actual.data());
}

void ExpectBitExact(const Tensor& expected, const TensorView& actual) {
  ExpectBitExact(expected, actual.shape(), actual.data());
}

Tensor RandomInput(const nn::Shape& shape, Rng& rng) {
  Tensor x(shape);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  return x;
}

// Overwrites every parameter with U(-0.5, 0.5) and every BatchNorm buffer
// pair (running mean, running var) with U(-0.5, 0.5) and U(0.5, 1.5), so the
// goldens depend on no libm call in the initializers.
void FillUniform(const std::vector<nn::Param*>& params,
                 const std::vector<Tensor*>& buffers, Rng& rng) {
  for (nn::Param* p : params) {
    for (float& v : p->value.data()) v = rng.UniformFloat(-0.5f, 0.5f);
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const bool var = i % 2 == 1;
    for (float& v : buffers[i]->data()) {
      v = var ? rng.UniformFloat(0.5f, 1.5f) : rng.UniformFloat(-0.5f, 0.5f);
    }
  }
}

// ------------------------------------------------------------ single layers

TEST(InferenceParityTest, ResNetBlockAllShortcuts) {
  for (auto kind : {zoo::ShortcutKind::kConv, zoo::ShortcutKind::kIdentity,
                    zoo::ShortcutKind::kMaxPool}) {
    Rng rng(100 + static_cast<int>(kind));
    const int cin = kind == zoo::ShortcutKind::kIdentity ? 6 : 4;
    const int cout = 6;
    const int stride = kind == zoo::ShortcutKind::kIdentity ? 1 : 2;
    zoo::ResNetBlock block(cin, cout, stride, kind, rng);
    Tensor x = RandomInput({2, 8, 8, cin}, rng);

    const Tensor eager = block.Forward(x, false);

    Workspace arena;
    nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                                 arena);
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
}

TEST(InferenceParityTest, InceptionBlock) {
  Rng rng(7);
  zoo::InceptionConfig config;
  zoo::InceptionBlock block(3, config, rng);
  Tensor x = RandomInput({2, 6, 6, 3}, rng);

  const Tensor eager = block.Forward(x, false);

  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena);
  ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
}

TEST(InferenceParityTest, SessionWithThreadPoolIsStillBitExact) {
  Rng rng(8);
  zoo::ResNetBlock block(3, 8, 2, zoo::ShortcutKind::kConv, rng);
  Tensor x = RandomInput({3, 10, 10, 3}, rng);
  const Tensor eager = block.Forward(x, false);

  ThreadPool pool(4);
  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena, &pool);
  ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
}

// ---------------------------------------------------------- layer sequences

// Layer stacks around the planner's conv epilogue rule (a Conv2d followed by
// a BatchNorm, a LeakyReLU or both), built with uniform parameters and
// BatchNorm statistics. Conv widths 8 and 12 run as one channel slab each,
// 5 as two (4 + 1). `steps` is the planned step count: one per layer, less
// one per layer folded into a conv.
struct SequenceCase {
  const char* name;
  void (*build)(nn::Sequential& model, Rng& rng);
  std::size_t steps;
};

const SequenceCase kSequenceCases[] = {
    {"conv-bn-lrelu-pool",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng)
           .Emplace<nn::BatchNorm>(8)
           .Emplace<nn::Activation>(nn::ActKind::kLeakyRelu)
           .Emplace<nn::MaxPool2d>(2, 2);
     },
     2},
    {"two conv-bn-lrelu runs",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 12, 3, 1, 1, rng)
           .Emplace<nn::BatchNorm>(12)
           .Emplace<nn::Activation>(nn::ActKind::kLeakyRelu)
           .Emplace<nn::Conv2d>(12, 5, 3, 2, 1, rng)
           .Emplace<nn::BatchNorm>(5)
           .Emplace<nn::Activation>(nn::ActKind::kLeakyRelu, 0.3f);
     },
     2},
    {"conv-lrelu",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 8, 3, 2, 1, rng)
           .Emplace<nn::Activation>(nn::ActKind::kLeakyRelu);
     },
     1},
    {"conv-bn",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 12, 1, 1, 0, rng).Emplace<nn::BatchNorm>(12);
     },
     1},
    {"conv-lrelu-bn",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng)
           .Emplace<nn::Activation>(nn::ActKind::kLeakyRelu)
           .Emplace<nn::BatchNorm>(8);
     },
     2},
    {"conv-bn-bn-lrelu",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng)
           .Emplace<nn::BatchNorm>(8)
           .Emplace<nn::BatchNorm>(8)
           .Emplace<nn::Activation>(nn::ActKind::kLeakyRelu);
     },
     3},
    {"conv-sigmoid",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng)
           .Emplace<nn::Activation>(nn::ActKind::kSigmoid);
     },
     2},
    {"conv-relu",
     [](nn::Sequential& m, Rng& rng) {
       m.Emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng)
           .Emplace<nn::Activation>(nn::ActKind::kRelu);
     },
     2},
    {"bn-lrelu without conv",
     [](nn::Sequential& m, Rng&) {
       m.Emplace<nn::BatchNorm>(3).Emplace<nn::Activation>(
           nn::ActKind::kLeakyRelu);
     },
     2},
};

// The planner folds each Conv2d -> [BatchNorm] -> [LeakyReLU] run into the
// conv's step and leaves every other layer a step of its own.
TEST(InferenceParityTest, PlanFoldsBatchNormAndLeakyReluIntoConv) {
  for (const SequenceCase& c : kSequenceCases) {
    SCOPED_TRACE(c.name);
    Rng rng(301);
    nn::Sequential model;
    c.build(model, rng);
    const nn::InferencePlan plan =
        nn::InferencePlan::For(model, {2, 8, 8, 3});
    EXPECT_EQ(plan.steps().size(), c.steps);
    EXPECT_EQ(plan.output_shape(), model.OutputShape({2, 8, 8, 3}));
  }

  // The detector stem: conv, bn, lrelu, pool, twice.
  Rng rng(302);
  zoo::DetectorConfig config;
  zoo::SplitDetector det(config, rng);
  const nn::InferencePlan stem = nn::InferencePlan::For(
      det.stem_net(),
      {1, config.image_size, config.image_size, config.channels});
  ASSERT_EQ(det.stem_net().num_layers(), 8u);
  ASSERT_EQ(stem.steps().size(), 4u);
  for (const std::size_t conv_step : {0u, 2u}) {
    const nn::InferencePlan::Step& step = stem.steps()[conv_step];
    EXPECT_EQ(step.layer, &det.stem_net().layer(2 * conv_step));
    EXPECT_EQ(step.fused_bn, &det.stem_net().layer(2 * conv_step + 1));
    EXPECT_EQ(step.fused_act, &det.stem_net().layer(2 * conv_step + 2));
    EXPECT_EQ(stem.steps()[conv_step + 1].layer,
              &det.stem_net().layer(2 * conv_step + 3));
  }
}

// Each stack, planned, against running its layers one by one: bit for bit,
// with and without a thread pool, over repeated runs.
TEST(InferenceParityTest, LayerSequencesMatchEager) {
  ThreadPool pool(3);
  for (const SequenceCase& c : kSequenceCases) {
    SCOPED_TRACE(c.name);
    Rng rng(300);
    nn::Sequential model;
    c.build(model, rng);
    FillUniform(model.Params(), model.Buffers(), rng);
    const Tensor x = RandomInput({2, 8, 8, 3}, rng);
    const Tensor eager = model.Forward(x, false);

    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Workspace arena;
      nn::InferenceSession session(model, x.shape(), arena, p);
      for (int run = 0; run < 2; ++run) {
        ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
      }
    }
  }
}

// -------------------------------------------------------------- arena rules

// A session's arena stops growing after its first run, whether or not its
// plan folds layers into a conv.
TEST(InferenceParityTest, SteadyStateRunsDoNotGrowArena) {
  auto expect_steady = [](nn::InferenceSession& session, const Tensor& x) {
    session.Run(TensorView::OfConst(x));  // warm-up may grow chunks
    const std::size_t grown = session.arena().grow_count();
    const std::size_t peak = session.arena().peak_bytes();
    for (int i = 0; i < 8; ++i) {
      session.Run(TensorView::OfConst(x));
    }
    EXPECT_EQ(session.arena().grow_count(), grown);
    EXPECT_EQ(session.arena().peak_bytes(), peak);
    EXPECT_EQ(session.stats().runs, 9);
    EXPECT_EQ(session.stats().replans, 0);
  };

  Rng rng(9);
  zoo::InceptionConfig config;
  zoo::InceptionBlock block(3, config, rng);
  const Tensor x = RandomInput({2, 6, 6, 3}, rng);
  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena);
  expect_steady(session, x);

  nn::Sequential stem;
  kSequenceCases[0].build(stem, rng);
  FillUniform(stem.Params(), stem.Buffers(), rng);
  const Tensor images = RandomInput({2, 8, 8, 3}, rng);
  Workspace stem_arena;
  nn::InferenceSession stem_session(stem, images.shape(), stem_arena);
  expect_steady(stem_session, images);
}

TEST(InferenceParityTest, RepeatedRunsStayBitExact) {
  Rng rng(10);
  zoo::ResNetBlock block(4, 8, 2, zoo::ShortcutKind::kMaxPool, rng);
  Tensor x = RandomInput({2, 8, 8, 4}, rng);
  const Tensor eager = block.Forward(x, false);

  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena);
  for (int i = 0; i < 4; ++i) {
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
}

TEST(InferenceParityTest, BatchSizeChangeReplansTransparently) {
  Rng rng(11);
  zoo::ResNetBlock block(3, 6, 1, zoo::ShortcutKind::kConv, rng);

  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, {1, 8, 8, 3},
                               arena);
  for (int batch : {1, 3, 2, 3}) {
    Tensor x = RandomInput({batch, 8, 8, 3}, rng);
    const Tensor eager = block.Forward(x, false);
    ExpectBitExact(eager, session.Run(TensorView::OfConst(x)));
  }
  EXPECT_EQ(session.stats().runs, 4);
  // 1 -> 3 -> 2 -> 3 changed shape three times.
  EXPECT_EQ(session.stats().replans, 3);
}

// ------------------------------------------------------------- zoo sessions

// At construction every BatchNorm's running statistics are the identity;
// the second detector gets uniform parameters and statistics, so a folded
// BatchNorm that dropped or reordered a term would show.
TEST(InferenceParityTest, DetectorHalvesMatchEager) {
  for (const bool uniform : {false, true}) {
    SCOPED_TRACE(uniform ? "uniform parameters" : "initial parameters");
    Rng rng(12);
    zoo::DetectorConfig config;
    zoo::SplitDetector det(config, rng);
    if (uniform) FillUniform(det.Params(), det.Buffers(), rng);
    datagen::VehicleFrameGenerator gen(config, 99);
    auto [images, truth] = gen.Batch(2);

    const Tensor stem = det.Stem(images, false);
    const Tensor tiny = det.TinyHead(stem, false);
    const Tensor full = det.FullHead(stem, false);

    Workspace arena;
    zoo::DetectorSession session(det, /*batch=*/2, arena);
    const TensorView stem_v = session.Stem(TensorView::OfConst(images));
    ExpectBitExact(stem, stem_v);
    ExpectBitExact(tiny, session.TinyHead(stem_v));
    ExpectBitExact(full, session.FullHead(stem_v));
  }
}

TEST(InferenceParityTest, DetectorGateMatchesEagerProcessFrame) {
  zoo::DetectorConfig config;
  apps::VehicleDetectionApp app(config, 1234);
  app.Train(6, 4);  // a few steps so confidences are non-degenerate

  datagen::VehicleFrameGenerator& gen = app.generator();
  for (float threshold : {0.0f, 0.4f, 1.01f}) {
    datagen::LabeledFrame frame = gen.Generate();
    const Tensor batch1 = frame.image.Reshape(
        {1, config.image_size, config.image_size, config.channels});

    // Eager oracle re-derived from the halves.
    const Tensor stem = app.detector().Stem(batch1, false);
    const Tensor tiny = app.detector().TinyHead(stem, false);
    const float conf = app.detector().Confidence(tiny, 0);
    const bool offload = conf < threshold;
    const Tensor head = offload ? app.detector().FullHead(stem, false) : tiny;
    const auto expected =
        zoo::Nms(app.detector().Decode(head, 0, 0.1f), 0.4f, 0.1f);

    const apps::FrameResult got = app.ProcessFrame(batch1, threshold);
    EXPECT_EQ(got.offloaded, offload);
    EXPECT_EQ(got.tiny_confidence, conf);
    ASSERT_EQ(got.detections.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got.detections[i].score, expected[i].score);
      EXPECT_EQ(got.detections[i].cls, expected[i].cls);
      EXPECT_EQ(got.detections[i].cx, expected[i].cx);
      EXPECT_EQ(got.detections[i].cy, expected[i].cy);
      EXPECT_EQ(got.detections[i].w, expected[i].w);
      EXPECT_EQ(got.detections[i].h, expected[i].h);
    }
  }
}

TEST(InferenceParityTest, BehaviorLocalAndServerMatchEager) {
  Rng rng(13);
  zoo::BehaviorConfig config;
  zoo::SplitBehaviorNet net(config, rng);
  datagen::BehaviorClipGenerator gen(config, 77);
  const zoo::Clip clip = gen.Generate(1);

  auto eager_local = net.RunLocal(clip);
  const auto eager_server = net.RunServer(eager_local.block1_out);

  Workspace arena;
  zoo::BehaviorSession session(net, /*n_clips=*/1, arena);
  auto local = session.RunLocal(TensorView::OfConst(clip.frames));
  ExpectBitExact(eager_local.logits, local.logits);
  ExpectBitExact(eager_local.block1_out, local.block1_out);
  ASSERT_EQ(local.entropy.size(), 1u);
  EXPECT_EQ(local.entropy.front(), eager_local.entropy);

  const Tensor server_logits = session.ServerLogits(local.block1_out);
  const Tensor server_probs = tensor::Softmax(server_logits);
  ASSERT_EQ(server_probs.size(), eager_server.size());
  for (std::size_t i = 0; i < eager_server.size(); ++i) {
    EXPECT_EQ(server_probs[i], eager_server[i]);
  }
}

TEST(InferenceParityTest, BehaviorPredictMatchesEagerBothExits) {
  Rng rng(14);
  zoo::BehaviorConfig config;
  zoo::SplitBehaviorNet net(config, rng);
  datagen::BehaviorClipGenerator gen(config, 78);

  Workspace arena;
  zoo::BehaviorSession session(net, 1, arena);
  // Threshold 0 forces the server exit; a huge one forces the local exit.
  for (float threshold : {0.0f, 100.0f}) {
    const zoo::Clip clip = gen.Generate();
    const auto expected = net.Predict(clip, threshold);
    const auto got = session.Predict(clip, threshold);
    EXPECT_EQ(got.label, expected.label);
    EXPECT_EQ(got.entropy, expected.entropy);
    EXPECT_EQ(got.used_server, expected.used_server);
    ASSERT_EQ(got.probs.size(), expected.probs.size());
    for (std::size_t i = 0; i < expected.probs.size(); ++i) {
      EXPECT_EQ(got.probs[i], expected.probs[i]);
    }
  }
}

TEST(InferenceParityTest, FusionEncodeDecodeMatchEager) {
  Rng rng(15);
  zoo::FusionConfig config;
  zoo::MultiModalAutoencoder model(config, rng);
  Tensor a = RandomInput({3, config.dim_a}, rng);
  Tensor b = RandomInput({3, config.dim_b}, rng);

  const Tensor eager_code = model.Encode(a, b, false);
  const auto eager_recon = model.Decode(eager_code, false);
  const float eager_err = model.ReconstructionError(a, b);

  Workspace arena;
  zoo::FusionSession session(model, 3, arena);
  const Tensor code =
      session.Encode(TensorView::OfConst(a), TensorView::OfConst(b));
  ExpectBitExact(eager_code, code);
  const auto recon = session.Decode(TensorView::OfConst(code));
  ExpectBitExact(eager_recon.a, recon.a);
  ExpectBitExact(eager_recon.b, recon.b);
  EXPECT_EQ(session.ReconstructionError(a, b), eager_err);
}

TEST(InferenceParityTest, SharedArenaSessionsDoNotClobberCutPoint) {
  Rng rng(17);
  zoo::DetectorConfig config;
  zoo::SplitDetector det(config, rng);
  datagen::VehicleFrameGenerator gen(config, 55);
  auto [images, truth] = gen.Batch(1);

  const Tensor stem = det.Stem(images, false);
  const Tensor tiny = det.TinyHead(stem, false);
  const Tensor full = det.FullHead(stem, false);

  Workspace arena;
  zoo::DetectorSession session(det, 1, arena);
  // Run both heads off the same stem output: the second head's execution
  // must not invalidate either the stem view or the first head's output.
  const TensorView stem_v = session.Stem(TensorView::OfConst(images));
  const TensorView tiny_v = session.TinyHead(stem_v);
  const TensorView full_v = session.FullHead(stem_v);
  ExpectBitExact(stem, stem_v);
  ExpectBitExact(tiny, tiny_v);
  ExpectBitExact(full, full_v);
}

// ------------------------------------------------------------------ goldens

// 64-bit FNV-1a over the floats' bit patterns: any change to any bit of any
// output (including the sign of a zero) changes the hash.
std::uint64_t Fnv1a(std::span<const float> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : values) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct Golden {
  nn::Shape shape;
  std::uint64_t fnv1a;
};

void ExpectGolden(const Golden& golden, const nn::Shape& shape,
                  std::span<const float> values) {
  EXPECT_EQ(shape, golden.shape);
  EXPECT_EQ(Fnv1a(values), golden.fnv1a)
      << std::hex << std::showbase << "actual fnv1a " << Fnv1a(values);
}

void ExpectGolden(const Golden& golden, const Tensor& t) {
  ExpectGolden(golden, t.shape(), t.data());
}

void ExpectGolden(const Golden& golden, const TensorView& v) {
  ExpectGolden(golden, v.shape(), v.data());
}

TEST(InferenceGoldenTest, ResNetBlockAllShortcuts) {
  const Golden goldens[] = {
      {{2, 4, 4, 6}, 0x3d7787389628e8d5ULL},  // kConv
      {{2, 8, 8, 6}, 0xa095d868baed9943ULL},  // kIdentity
      {{2, 4, 4, 6}, 0xd4217c1bd4a397e4ULL},  // kMaxPool
  };
  for (auto kind : {zoo::ShortcutKind::kConv, zoo::ShortcutKind::kIdentity,
                    zoo::ShortcutKind::kMaxPool}) {
    SCOPED_TRACE("shortcut " + std::to_string(static_cast<int>(kind)));
    Rng rng(200 + static_cast<int>(kind));
    const int cin = kind == zoo::ShortcutKind::kIdentity ? 6 : 4;
    const int stride = kind == zoo::ShortcutKind::kIdentity ? 1 : 2;
    zoo::ResNetBlock block(cin, 6, stride, kind, rng);
    FillUniform(block.Params(), block.Buffers(), rng);
    const Tensor x = RandomInput({2, 8, 8, cin}, rng);
    const Golden& golden = goldens[static_cast<int>(kind)];

    ExpectGolden(golden, block.Forward(x, false));
    Workspace arena;
    nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                                 arena);
    ExpectGolden(golden, session.Run(TensorView::OfConst(x)));
  }
}

TEST(InferenceGoldenTest, InceptionBlock) {
  const Golden golden{{2, 6, 6, 24}, 0xd1e22649c3dd2dcbULL};
  Rng rng(210);
  zoo::InceptionBlock block(3, zoo::InceptionConfig{}, rng);
  FillUniform(block.Params(), {}, rng);
  const Tensor x = RandomInput({2, 6, 6, 3}, rng);

  ExpectGolden(golden, block.Forward(x, false));
  Workspace arena;
  nn::InferenceSession session(std::vector<nn::Layer*>{&block}, x.shape(),
                               arena);
  ExpectGolden(golden, session.Run(TensorView::OfConst(x)));
}

TEST(InferenceGoldenTest, DetectorHalves) {
  const Golden stem_golden{{2, 8, 8, 12}, 0x2e686477106bd4dbULL};
  const Golden tiny_golden{{2, 4, 4, 13}, 0x4fce6dd05980bb38ULL};
  const Golden full_golden{{2, 4, 4, 13}, 0x4c63abf17a8334a9ULL};
  Rng rng(220);
  zoo::DetectorConfig config;
  zoo::SplitDetector det(config, rng);
  FillUniform(det.Params(), det.Buffers(), rng);
  const Tensor images =
      RandomInput({2, config.image_size, config.image_size, config.channels},
                  rng);

  const Tensor stem = det.Stem(images, false);
  ExpectGolden(stem_golden, stem);
  ExpectGolden(tiny_golden, det.TinyHead(stem, false));
  ExpectGolden(full_golden, det.FullHead(stem, false));

  Workspace arena;
  zoo::DetectorSession session(det, /*batch=*/2, arena);
  const TensorView stem_v = session.Stem(TensorView::OfConst(images));
  ExpectGolden(stem_golden, stem_v);
  ExpectGolden(tiny_golden, session.TinyHead(stem_v));
  ExpectGolden(full_golden, session.FullHead(stem_v));
}

// The Fig. 7 halves at one clip and at three, where the recurrent tail
// reads the clip-major (N*T, F) features with a stride of T rows.
TEST(InferenceGoldenTest, BehaviorHalves) {
  struct Case {
    int n_clips;
    Golden block1, local, server;
  };
  const Case cases[] = {
      {1,
       {{6, 8, 8, 8}, 0x9dfa9c198573730aULL},
       {{1, 5}, 0x664645d0fd313d3dULL},
       {{1, 5}, 0x291208b13e17fa50ULL}},
      {3,
       {{18, 8, 8, 8}, 0x71ac7adb0843264bULL},
       {{3, 5}, 0xcc219dac079b2f77ULL},
       {{3, 5}, 0x80eaa469e433c9a8ULL}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n_clips " + std::to_string(c.n_clips));
    Rng rng(240);
    zoo::BehaviorConfig config;
    zoo::SplitBehaviorNet net(config, rng);
    FillUniform(net.Params(), net.Buffers(), rng);
    const Tensor frames =
        RandomInput({c.n_clips * config.clip_length, config.frame_size,
                     config.frame_size, config.channels},
                    rng);

    const Tensor block1 = net.block1_net().Forward(frames, false);
    ExpectGolden(c.block1, block1);
    ExpectGolden(c.local, net.LocalLogits(frames, false));
    ExpectGolden(c.server, net.ServerLogits(block1, false));

    Workspace arena;
    zoo::BehaviorSession session(net, c.n_clips, arena);
    const auto pass = session.RunLocal(TensorView::OfConst(frames));
    ExpectGolden(c.block1, pass.block1_out);
    ExpectGolden(c.local, pass.logits);
    ExpectGolden(c.server, session.ServerLogits(pass.block1_out));
  }
}

// Joint two-exit training over a three-clip batch: the float bits of the
// first five losses pin the BPTT gradients and the optimizer steps.
TEST(InferenceGoldenTest, BehaviorTrainStepLosses) {
  const std::uint32_t golden_bits[] = {0x404aa258u, 0x404dcba6u, 0x405c5d58u,
                                       0x4059e15eu, 0x406b15ccu};
  Rng rng(250);
  zoo::BehaviorConfig config;
  zoo::SplitBehaviorNet net(config, rng);
  FillUniform(net.Params(), net.Buffers(), rng);
  nn::Adam opt(2e-3f);
  for (int step = 0; step < 5; ++step) {
    std::vector<zoo::Clip> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(zoo::Clip{
          RandomInput({config.clip_length, config.frame_size,
                       config.frame_size, config.channels},
                      rng),
          (step + i) % config.num_classes});
    }
    const float loss = net.TrainStep(batch, opt);
    std::uint32_t bits;
    std::memcpy(&bits, &loss, sizeof bits);
    EXPECT_EQ(bits, golden_bits[step])
        << "step " << step << std::hex << std::showbase << ": actual bits "
        << bits << " (loss " << loss << ")";
  }
}

TEST(InferenceGoldenTest, FusionEncodeDecode) {
  const Golden code_golden{{3, 12}, 0x74f5412c173d9e15ULL};
  const Golden recon_a_golden{{3, 16}, 0x9fa7d2c80bd3fadbULL};
  const Golden recon_b_golden{{3, 8}, 0x5c03fd4c2aa32021ULL};
  Rng rng(230);
  zoo::FusionConfig config;
  zoo::MultiModalAutoencoder model(config, rng);
  FillUniform(model.Params(), {}, rng);
  const Tensor a = RandomInput({3, config.dim_a}, rng);
  const Tensor b = RandomInput({3, config.dim_b}, rng);

  const Tensor code = model.Encode(a, b, false);
  ExpectGolden(code_golden, code);
  const auto recon = model.Decode(code, false);
  ExpectGolden(recon_a_golden, recon.a);
  ExpectGolden(recon_b_golden, recon.b);

  Workspace arena;
  zoo::FusionSession session(model, 3, arena);
  const Tensor session_code =
      session.Encode(TensorView::OfConst(a), TensorView::OfConst(b));
  ExpectGolden(code_golden, session_code);
  const auto session_recon = session.Decode(TensorView::OfConst(session_code));
  ExpectGolden(recon_a_golden, session_recon.a);
  ExpectGolden(recon_b_golden, session_recon.b);
}

}  // namespace
}  // namespace metro
