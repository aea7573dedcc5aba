#pragma once

// Planned inference execution engine.
//
// Layer::Forward heap-allocates every layer's output (and, in training,
// caches backward state); planned inference pays for neither. An InferencePlan
// walks a layer stack once, runs shape inference via Layer::OutputShape, and
// assigns every activation to one of two ping-pong arena slots, collapsing
// elementwise layers to in-place execution and reshapes/identities to free
// view relabelings. A Conv2d followed by a BatchNorm, a LeakyReLU Activation
// or both plans as one step: the conv applies them to each output before
// storing it (tensor::ConvEpilogue), which saves a pass over the map per
// folded layer and gives the same bits. An InferenceSession binds a plan to
// a tensor::Workspace (and optional ThreadPool) and replays it
// allocation-free: after the first Run the arena is warm and steady-state
// inference performs zero heap allocations inside the engine.
//
// Several sessions may share one Workspace — the Fig. 5/7 split models bind
// their local and server halves to the same arena so the cut-point
// activation stays live while the second half runs (slot storage is
// allocated per session at construction; run-time scratch is rewound after
// every layer). Each layer has one inference implementation, ForwardInto,
// which `Forward(x, /*training=*/false)` also runs, so a session's output is
// bit-identical to running the layers one by one. The parity suite
// (tests/inference_parity_test.cpp) checks the planner that way and pins
// the kernels with golden output hashes.
//
// Thread model: Run() must be called by one thread at a time per session
// (sessions sharing a Workspace must also share that one caller thread);
// stats() is safe to call concurrently from other threads.

#include <atomic>
#include <cstdint>
#include <vector>

#include "nn/sequential.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace metro::nn {

using tensor::TensorView;
using tensor::Workspace;

/// Shape-planned execution schedule for a straight-line layer stack.
class InferencePlan {
 public:
  /// How a planned step executes.
  enum class ExecKind {
    kReshape,  ///< no kernel: the current view is relabeled to out_shape
    kInPlace,  ///< elementwise kernel writing over the current buffer
    kCompute,  ///< kernel writing into ping-pong slot `dst_slot`
  };

  struct Step {
    Layer* layer;
    ExecKind kind;
    int dst_slot;  ///< 0 or 1 for kCompute; -1 otherwise
    Shape in_shape;
    Shape out_shape;
    /// Set only on a Conv2d step: the BatchNorm and the LeakyReLU that
    /// directly follow the conv, in that order, run as its epilogue and get
    /// no step of their own.
    const BatchNorm* fused_bn = nullptr;
    const Activation* fused_act = nullptr;
  };

  InferencePlan() = default;

  /// Plans `layers` for `input_shape` (leading dimension is the batch).
  InferencePlan(std::vector<Layer*> layers, const Shape& input_shape);

  /// Plans every layer of a Sequential.
  static InferencePlan For(Sequential& model, const Shape& input_shape);

  const std::vector<Step>& steps() const { return steps_; }
  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }

  /// Floats each ping-pong slot must hold for this plan.
  std::size_t slot_floats(int slot) const {
    return slot_floats_[std::size_t(slot)];
  }

  /// Slot index holding the final output (-1: the output aliases the input,
  /// which happens only for all-reshape plans).
  int output_slot() const { return output_slot_; }

  const std::vector<Layer*>& layers() const { return layers_; }

 private:
  std::vector<Layer*> layers_;
  std::vector<Step> steps_;
  Shape input_shape_;
  Shape output_shape_;
  std::size_t slot_floats_[2] = {0, 0};
  int output_slot_ = -1;
};

/// Replays an InferencePlan against arena-backed activation slots.
class InferenceSession {
 public:
  /// Binds `model` to `arena` at `input_shape`. Slot storage is carved out
  /// of the arena immediately, so sessions sharing an arena get disjoint,
  /// stable slots in construction order.
  InferenceSession(Sequential& model, const Shape& input_shape,
                   Workspace& arena, ThreadPool* pool = nullptr);

  /// Same, over an explicit layer list (for models that are not a single
  /// Sequential, e.g. a zoo block or a spliced stack).
  InferenceSession(std::vector<Layer*> layers, const Shape& input_shape,
                   Workspace& arena, ThreadPool* pool = nullptr);

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Executes the plan on `input`. The returned view lives in this session's
  /// arena slots and stays valid until the next Run() on this session (other
  /// sessions on the same arena do not clobber it). If the input shape
  /// differs from the planned one (batch growth/shrink), the session replans
  /// transparently; the arena only grows if the new shapes need more room.
  /// The definition carries METRO_NOALLOC: the steady-state walk is
  /// allocation-free (the replan branch delegates to the cold Replan()).
  TensorView Run(const TensorView& input) METRO_LIFETIME_BOUND;

  /// Convenience wrapper matching Layer::Forward: copies the result out.
  Tensor Run(const Tensor& input);

  const InferencePlan& plan() const { return plan_; }
  Workspace& arena() METRO_LIFETIME_BOUND { return *arena_; }

  /// Run counters, readable from any thread while another runs the session.
  struct Stats {
    std::int64_t runs = 0;     ///< completed Run() calls
    std::int64_t replans = 0;  ///< runs that had to re-plan for a new shape
  };
  Stats stats() const;

 private:
  void EnsureSlots();
  /// Cold path for Run(): rebuilds the plan (and slot storage) for a new
  /// input shape. Allocates; kept out of the METRO_NOALLOC Run body.
  void Replan(const Shape& input_shape);

  Workspace* arena_;
  ThreadPool* pool_;
  InferencePlan plan_;
  std::span<float> slots_[2];
  std::size_t slot_capacity_[2] = {0, 0};
  /// Per-step output views prebuilt at (re)plan time so Run() allocates
  /// nothing; empty for reshape steps over the caller's input.
  std::vector<TensorView> step_views_;

  // Relaxed counters, as util::Counter: each is read on its own, so a
  // snapshot taken during a Run() need not be consistent across the two.
  std::atomic<std::int64_t> runs_{0};
  std::atomic<std::int64_t> replans_{0};
};

}  // namespace metro::nn
