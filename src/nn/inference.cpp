#include "nn/inference.h"

#include <cassert>
#include <span>
#include <utility>

namespace metro::nn {
namespace {

// Runs a Conv2d step with the BatchNorm and LeakyReLU it absorbed as its
// epilogue. The BatchNorm folds into scratch here, not at plan time, as its
// own ForwardInto does: a plan may be built before the statistics are
// trained.
METRO_NOALLOC
void RunFusedConv(const InferencePlan::Step& step, const TensorView& x,
                  const TensorView& out, InferenceContext& ctx) {
  tensor::ConvEpilogue epilogue;
  if (step.fused_bn) {
    const std::size_t channels = std::size_t(step.fused_bn->channels());
    const std::span<float> scale = ctx.scratch.Alloc(channels);
    const std::span<float> shift = ctx.scratch.Alloc(channels);
    step.fused_bn->FoldScaleShift(scale, shift);
    epilogue.scale = scale;
    epilogue.shift = shift;
  }
  if (step.fused_act) {
    epilogue.leaky_relu = true;
    epilogue.alpha = step.fused_act->alpha();
  }
  // The planner sets fused_* on Conv2d steps only.
  static_cast<Conv2d*>(step.layer)->ForwardInto(x, out, ctx, epilogue);
}

}  // namespace

InferencePlan::InferencePlan(std::vector<Layer*> layers,
                             const Shape& input_shape)
    : layers_(std::move(layers)), input_shape_(input_shape) {
  steps_.reserve(layers_.size());
  Shape cur = input_shape_;
  // -1 means the current activation still lives in the caller's input
  // buffer, which the plan must never write to.
  int cur_slot = -1;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer* layer = layers_[i];
    Step step;
    step.layer = layer;
    step.in_shape = cur;
    step.out_shape = layer->OutputShape(cur);
    // Conv2d -> [BatchNorm] -> [LeakyReLU]: the layers after the conv keep
    // its shape and become its epilogue.
    if (dynamic_cast<Conv2d*>(layer)) {
      auto next = [&]() -> const Layer* {
        return i + 1 < layers_.size() ? layers_[i + 1] : nullptr;
      };
      if (const auto* bn = dynamic_cast<const BatchNorm*>(next())) {
        step.fused_bn = bn;
        ++i;
      }
      const auto* act = dynamic_cast<const Activation*>(next());
      if (act && act->kind() == ActKind::kLeakyRelu) {
        step.fused_act = act;
        ++i;
      }
    }
    switch (layer->placement()) {
      case InferencePlacement::kAlias:
        step.kind = ExecKind::kReshape;
        step.dst_slot = -1;
        break;
      case InferencePlacement::kInPlace:
        if (cur_slot == -1) {
          // Elementwise over the caller's input: redirect into a slot
          // instead of mutating foreign storage (the kernels support
          // non-aliased out, so this costs nothing extra).
          step.kind = ExecKind::kCompute;
          step.dst_slot = 0;
        } else {
          step.kind = ExecKind::kInPlace;
          step.dst_slot = -1;
        }
        break;
      case InferencePlacement::kNewBuffer:
        step.kind = ExecKind::kCompute;
        step.dst_slot = cur_slot == 0 ? 1 : 0;
        break;
    }
    if (step.kind == ExecKind::kCompute) {
      cur_slot = step.dst_slot;
      slot_floats_[std::size_t(cur_slot)] =
          std::max(slot_floats_[std::size_t(cur_slot)],
                   tensor::NumElements(step.out_shape));
    }
    cur = step.out_shape;
    steps_.push_back(std::move(step));
  }
  output_shape_ = cur;
  output_slot_ = cur_slot;
}

InferencePlan InferencePlan::For(Sequential& model, const Shape& input_shape) {
  std::vector<Layer*> layers;
  layers.reserve(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    layers.push_back(&model.layer(i));
  }
  return InferencePlan(std::move(layers), input_shape);
}

InferenceSession::InferenceSession(Sequential& model, const Shape& input_shape,
                                   Workspace& arena, ThreadPool* pool)
    : arena_(&arena),
      pool_(pool),
      plan_(InferencePlan::For(model, input_shape)) {
  EnsureSlots();
}

InferenceSession::InferenceSession(std::vector<Layer*> layers,
                                   const Shape& input_shape, Workspace& arena,
                                   ThreadPool* pool)
    : arena_(&arena),
      pool_(pool),
      plan_(InferencePlan(std::move(layers), input_shape)) {
  EnsureSlots();
}

void InferenceSession::EnsureSlots() {
  for (int s = 0; s < 2; ++s) {
    const std::size_t need = plan_.slot_floats(s);
    if (need > slot_capacity_[s]) {
      // Growth abandons the old (smaller) span inside the arena; steady
      // state never reaches this after the largest batch has been seen.
      slots_[s] = arena_->Alloc(need);
      slot_capacity_[s] = need;
    }
  }

  // Prebuild each step's output view so the Run loop allocates nothing
  // (TensorView holds a Shape, i.e. a heap vector — building one per step
  // per run was the last steady-state allocation). Views are resolvable
  // ahead of time once the activation lives in an arena slot; the only
  // unresolvable case is a kReshape relabeling of the caller's input
  // before the first compute step, left empty and handled in Run.
  const auto& steps = plan_.steps();
  step_views_.assign(steps.size(), TensorView());
  std::span<float> cur;
  bool in_arena = false;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& step = steps[i];
    if (step.kind == InferencePlan::ExecKind::kCompute) {
      cur = slots_[step.dst_slot].first(tensor::NumElements(step.out_shape));
      in_arena = true;
      step_views_[i] = TensorView(step.out_shape, cur);
    } else if (in_arena) {
      // kInPlace / kReshape over arena storage: same floats, new label.
      cur = cur.first(tensor::NumElements(step.out_shape));
      step_views_[i] = TensorView(step.out_shape, cur);
    }
  }
}

void InferenceSession::Replan(const Shape& input_shape) {
  plan_ = InferencePlan(plan_.layers(), input_shape);
  EnsureSlots();
}

METRO_NOALLOC
TensorView InferenceSession::Run(const TensorView& input) {
  bool replanned = false;
  if (input.shape() != plan_.input_shape()) {
    Replan(input.shape());  // cold path: plan + slot storage rebuilt
    replanned = true;
  }

  InferenceContext ctx{*arena_, pool_};
  // Walk pointers between the input and the prebuilt step views; copying a
  // TensorView copies its Shape (a heap vector), so the loop avoids it.
  const TensorView* cur = &input;
  TensorView relabeled;  // only used for kReshape over the caller's input
  const auto& steps = plan_.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const InferencePlan::Step& step = steps[i];
    switch (step.kind) {
      case InferencePlan::ExecKind::kReshape:
        if (step_views_[i].empty()) {
          relabeled = cur->Reshaped(step.out_shape);
          cur = &relabeled;
        } else {
          cur = &step_views_[i];
        }
        break;
      case InferencePlan::ExecKind::kInPlace:
      case InferencePlan::ExecKind::kCompute: {
        const TensorView& out = step_views_[i];
        const Workspace::Mark scratch = arena_->Position();
        if (step.fused_bn || step.fused_act) {
          RunFusedConv(step, *cur, out, ctx);
        } else {
          step.layer->ForwardInto(*cur, out, ctx);
        }
        arena_->Rewind(scratch);
        cur = &out;
        break;
      }
    }
  }

  runs_.fetch_add(1, std::memory_order_relaxed);
  if (replanned) replans_.fetch_add(1, std::memory_order_relaxed);
  return *cur;
}

Tensor InferenceSession::Run(const Tensor& input) {
  return Run(TensorView::OfConst(input)).ToTensor();
}

InferenceSession::Stats InferenceSession::stats() const {
  return {runs_.load(std::memory_order_relaxed),
          replans_.load(std::memory_order_relaxed)};
}

}  // namespace metro::nn
