#pragma once

// Arena storage for planned inference.
//
// A Workspace is a bump allocator over float storage with chunked growth:
// once a span is handed out it stays valid until Reset()/Rewind() past it,
// even if the arena grows (new chunks are appended; existing chunks never
// reallocate). The inference engine (nn/inference.h) allocates its ping-pong
// activation slots from one Workspace and rewinds per-run scratch with
// Mark/Rewind, so a warmed-up session runs allocation-free.
//
// A Workspace is single-owner state: exactly one thread may Alloc/Rewind at a
// time (sessions sharing an arena — the Fig. 5/7 split halves — run on the
// caller's thread). Cross-thread kernels (ParallelFor conv/matmul) only write
// through disjoint sub-spans of already-allocated views, which is race-free
// without locks.
//
// Shape-vs-storage invariants are METRO_CHECKed (always on, including the
// Release build scripts/check_perf.sh gates on): a mismatched view, a
// rewind to a stale mark, or a write through a read-only (OfConst) view
// aborts with shape context instead of corrupting memory. Dangling-view
// lifetime bugs are additionally caught at compile time under Clang via the
// METRO_LIFETIME_BOUND annotations (-DMETRO_LIFETIME=ON escalates them to
// errors).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"
#include "util/analysis.h"
#include "util/viewcheck.h"

namespace metro::tensor {

class Workspace;

/// Non-owning view of a tensor: a shape over borrowed float storage.
///
/// Views are cheap value types (pointer + shape). Like std::span, constness
/// of the view does not propagate to the elements; views made from const
/// tensors (OfConst) carry a read-only bit that the bulk-write API rejects.
class TensorView {
 public:
  TensorView() = default;

  TensorView(Shape shape, std::span<float> data)
      : shape_(std::move(shape)), data_(data) {
    METRO_CHECK(NumElements(shape_) == data_.size(),
                "view shape %s addresses %zu floats over %zu of storage",
                ShapeToString(shape_).c_str(), NumElements(shape_),
                data_.size());
  }

  /// Views an owning tensor's storage (no copy).
  explicit TensorView(Tensor& t METRO_LIFETIME_BOUND)
      : shape_(t.shape()), data_(t.data()) {}

  /// Views a const tensor's storage. Constness is dropped (views never
  /// propagate it, mirroring std::span<float>), but the view is marked
  /// read-only: CopyFrom through it aborts. Element writes via operator[]
  /// cannot be intercepted (reads share the same operator) — writing through
  /// an OfConst view is undefined behavior on a genuinely immutable tensor.
  static TensorView OfConst(const Tensor& t METRO_LIFETIME_BOUND) {
    TensorView v(t.shape(), std::span<float>(
                                const_cast<float*>(t.data().data()), t.size()));
    v.read_only_ = true;
    return v;
  }

  const Shape& shape() const { return shape_; }
  int dim(int i) const { return shape_[std::size_t(i)]; }
  int rank() const { return int(shape_.size()); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// True for views made by OfConst (and views derived from them).
  bool read_only() const { return read_only_; }

  std::span<float> data() const {
    CheckLive();
    return data_;
  }
  float& operator[](std::size_t i) const {
    CheckLive();
    return data_[i];
  }

  /// Same storage reinterpreted as `shape` (element count must match).
  TensorView Reshaped(Shape shape) const {
    METRO_CHECK(NumElements(shape) == data_.size(),
                "reshape %s -> %s changes element count (%zu -> %zu)",
                ShapeToString(shape_).c_str(), ShapeToString(shape).c_str(),
                data_.size(), NumElements(shape));
    TensorView v(std::move(shape), data_);
    v.read_only_ = read_only_;
    v.InheritStamp(*this);
    return v;
  }

  /// Rows [begin, end) of the leading dimension — same storage, no copy.
  TensorView SliceBatch(int begin, int end) const {
    METRO_CHECK(rank() >= 1 && begin >= 0 && begin <= end && end <= dim(0),
                "slice [%d, %d) out of range for %s", begin, end,
                ShapeToString(shape_).c_str());
    std::size_t row = 1;
    for (int i = 1; i < rank(); ++i) row *= std::size_t(dim(i));
    Shape s = shape_;
    s[0] = end - begin;
    TensorView v(std::move(s),
                 data_.subspan(std::size_t(begin) * row,
                               std::size_t(end - begin) * row));
    v.read_only_ = read_only_;
    v.InheritStamp(*this);
    return v;
  }

  /// Owning copy (for handing results past the arena's lifetime).
  Tensor ToTensor() const& { return CopyInto(Tensor(shape_)); }
  /// Same, but an expiring view (a session's returned half) hands its shape
  /// over instead of copying it.
  Tensor ToTensor() && { return CopyInto(Tensor(std::move(shape_))); }

  /// Copies `src` into this view (sizes must match; shapes may differ).
  /// Rejected on read-only (OfConst) views.
  void CopyFrom(std::span<const float> src) const {
    CheckLive();
    METRO_CHECK(!read_only_,
                "CopyFrom into a read-only (OfConst) view of shape %s",
                ShapeToString(shape_).c_str());
    METRO_CHECK(src.size() == data_.size(),
                "CopyFrom %zu floats into view %s (%zu floats)", src.size(),
                ShapeToString(shape_).c_str(), data_.size());
    std::copy(src.begin(), src.end(), data_.begin());
  }

 private:
  friend class Workspace;

  Tensor CopyInto(Tensor t) const {
    std::copy(data_.begin(), data_.end(), t.data().begin());
    return t;
  }

  /// Aborts when the owning arena has rewound past this view. No-op when the
  /// checker is compiled out, for views not minted by a Workspace, and while
  /// viewcheck::SetEnabled(false). Defined after Workspace (it reads the
  /// arena's rewind events).
  void CheckLive() const;

  /// Derived views (Reshaped/SliceBatch) alias the same storage, so they
  /// inherit the parent's invalidation stamp verbatim.
  void InheritStamp(const TensorView& parent) {
#if METRO_VIEW_CHECK
    vc_ws_ = parent.vc_ws_;
    vc_end_ = parent.vc_end_;
    vc_gen_ = parent.vc_gen_;
#else
    (void)parent;
#endif
  }

  Shape shape_;
  std::span<float> data_;
  bool read_only_ = false;
#if METRO_VIEW_CHECK
  const Workspace* vc_ws_ = nullptr;  ///< minting arena (null: unchecked)
  std::size_t vc_end_ = 0;   ///< linearized arena offset one past this view
  std::uint64_t vc_gen_ = 0;  ///< arena generation at mint time
#endif
};

/// Chunked bump arena for inference activations and scratch.
class Workspace {
 public:
  Workspace() = default;

  /// Pre-sizes the first chunk so warm-up does not grow the arena.
  explicit Workspace(std::size_t initial_floats) { Reserve(initial_floats); }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Hands out `n` floats of uninitialized storage. The span stays valid
  /// until Reset() or a Rewind() past the current position.
  std::span<float> Alloc(std::size_t n) METRO_LIFETIME_BOUND;

  /// Alloc shaped as a view. Storage is NOT zeroed — kernels writing into
  /// views must fully initialize them. `shape` is moved into the view, so a
  /// temporary shape costs no copy.
  TensorView AllocView(Shape shape) METRO_LIFETIME_BOUND {
    const std::span<float> data = Alloc(NumElements(shape));
    TensorView v(std::move(shape), data);
#if METRO_VIEW_CHECK
    v.vc_ws_ = this;
    v.vc_end_ = VcOffset();
    v.vc_gen_ = vc_gen_;
#endif
    return v;
  }

  /// Bump position, for scoped scratch (see Rewind).
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  Mark Position() const { return Mark{current_, ChunkUsed(current_)}; }

  /// Releases everything allocated after `m` (spans handed out after the
  /// mark become dangling). Storage is retained for reuse. Rewinding to a
  /// position ahead of the arena cursor — a mark that a previous
  /// Rewind/Reset already released, i.e. a stale mark — aborts.
  void Rewind(const Mark& m);

  /// Rewinds the whole arena, keeping the storage. Marks taken before a
  /// Reset are stale: a later Rewind to one aborts unless the position has
  /// been legitimately re-allocated past it.
  void Reset() { Rewind(Mark{0, 0}); }

  /// Grows capacity so at least `floats` are allocatable without a new chunk.
  void Reserve(std::size_t floats);

  /// Floats currently handed out.
  std::size_t live_floats() const { return live_floats_; }
  /// High-water mark of live bytes since construction.
  std::size_t peak_bytes() const { return peak_floats_ * sizeof(float); }
  /// Total bytes of backing storage owned by the arena.
  std::size_t reserved_bytes() const;
  /// Number of Alloc calls that had to grow the arena (0 once warm).
  std::size_t grow_count() const { return grow_count_; }
  std::size_t chunk_count() const { return chunks_.size(); }

#if METRO_VIEW_CHECK
  /// True when a view ending at linearized offset `end`, minted at
  /// generation `gen`, has not been released by any later rewind. Rewind
  /// events are kept strictly increasing in both offset and generation (see
  /// VcRecordRewind), so one pass suffices and the list stays tiny.
  bool VcLive(std::size_t end, std::uint64_t gen) const {
    for (const VcEvent& e : vc_events_) {
      if (e.gen > gen && e.offset < end) return false;
    }
    return true;
  }
#endif

 private:
  struct Chunk {
    std::vector<float> storage;
    std::size_t used = 0;
  };

  std::size_t ChunkUsed(std::size_t i) const {
    return i < chunks_.size() ? chunks_[i].used : 0;
  }

#if METRO_VIEW_CHECK
  /// A rewind that lowered the arena cursor to `offset`, stamped with the
  /// generation it started.
  struct VcEvent {
    std::size_t offset = 0;
    std::uint64_t gen = 0;
  };

  /// The bump cursor linearized over chunk boundaries: full capacity of the
  /// chunks before the current one plus the current chunk's fill. Chunk
  /// storage never reallocates or shrinks, so a view's end offset is stable
  /// and the cursor only moves backward through Rewind.
  std::size_t VcOffset() const {
    std::size_t off = 0;
    for (std::size_t i = 0; i < current_ && i < chunks_.size(); ++i) {
      off += chunks_[i].storage.size();
    }
    return off + ChunkUsed(current_);
  }

  /// Called by Rewind when the cursor actually moved backward. A new event
  /// dominates every recorded event at or above its offset (lower offset,
  /// higher generation invalidates a superset of views), so those coalesce
  /// away — a steady-state Mark/Rewind loop keeps exactly one event.
  void VcRecordRewind(std::size_t new_offset) {
    ++vc_gen_;
    while (!vc_events_.empty() && vc_events_.back().offset >= new_offset) {
      vc_events_.pop_back();
    }
    vc_events_.push_back(VcEvent{new_offset, vc_gen_});
  }
#endif

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // chunk index allocations go to
  std::size_t live_floats_ = 0;
  std::size_t peak_floats_ = 0;
  std::size_t grow_count_ = 0;
#if METRO_VIEW_CHECK
  std::uint64_t vc_gen_ = 0;
  std::vector<VcEvent> vc_events_;
#endif
};

inline void TensorView::CheckLive() const {
#if METRO_VIEW_CHECK
  if (vc_ws_ == nullptr || !viewcheck::Enabled()) return;
  if (!vc_ws_->VcLive(vc_end_, vc_gen_)) {
    viewcheck::Die("TensorView used after Workspace Rewind/Reset released it",
                   ShapeToString(shape_).c_str());
  }
#endif
}

}  // namespace metro::tensor
