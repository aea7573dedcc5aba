#pragma once

// The per-partition append-only record segment shared by every broker role.
//
// One `PartitionLog` is one replica of one partition: each `BrokerNode`
// holds one per (topic, partition) it hosts. It models a broker's disk —
// offsets are assigned monotonically, the front is trimmed by retention,
// and the tail can be truncated during follower resync. It carries no
// synchronization: the owning broker guards it with its own lock.
//
// Storage is a ring of *segments*, each one `shared_ptr<const RecordBatch>`
// (see record_batch.h). A replicated batch is therefore the SAME object on
// every ISR member — replication and resync bump a refcount instead of
// copying payload bytes — and fetches hand out `BatchView`s over it. The
// batch is the log's only record representation: nothing is materialized
// record by record.
//
// Fetch boundary contract (relied on by both the consumer path and
// revive-time replica resync in broker_cluster.cpp):
//
//   * `offset < begin_offset()`          -> kOutOfRange ("below retention
//     floor"; the consumer's cursor points at trimmed history and must be
//     reset — see `BrokerCluster::FetchBatch` for the reset policy).
//   * `offset > end_offset()`            -> kOutOfRange ("beyond end"; the
//     cursor points past anything the log has ever assigned).
//   * otherwise                          -> OK with the records in
//     `[offset, min(limit, end_offset()))` up to the end of the segment
//     holding `offset`, POSSIBLY EMPTY. In particular `offset == limit` (a
//     consumer parked at the high-water mark) and `offset == end_offset()`
//     with `limit < end_offset()` (a cursor at the unreplicated tail) both
//     return empty-OK: the position is valid, there is simply nothing
//     readable yet.

#include <cstdint>
#include <memory>
#include <vector>

#include "mq/record_batch.h"
#include "util/analysis.h"
#include "util/clock.h"
#include "util/status.h"

namespace metro::mq {

/// Per-partition high-water marks etc.
struct PartitionInfo {
  int partition = 0;
  std::int64_t begin_offset = 0;  ///< first retained offset
  std::int64_t end_offset = 0;    ///< next offset to be assigned
};

/// A successful produce: where the record(s) landed. `duplicate` marks an
/// idempotent retry the broker suppressed — the records were already
/// appended by an earlier attempt and `offset` is the original base offset
/// when the broker still remembers it (-1 for older duplicates past the
/// remembered window). `count` is the number of records acked.
struct ProduceAck {
  int partition = 0;
  std::int64_t offset = 0;
  std::int64_t count = 1;
  bool duplicate = false;
  TimeNs timestamp = 0;  ///< broker append time; 0 on a duplicate ack
};

/// Append-only in-memory log for one partition replica. NOT thread-safe —
/// the owning broker serializes access.
class PartitionLog {
 public:
  std::int64_t begin_offset() const { return begin_offset_; }
  std::int64_t end_offset() const { return end_offset_; }
  /// Retained records (end - begin); the backlog the backpressure bound
  /// applies to.
  std::int64_t size() const { return end_offset_ - begin_offset_; }

  /// Appends a sealed batch as leader. The broker must have sealed it with
  /// `base_offset == end_offset()` (it owns offset assignment under its
  /// lock); violating that is a programming error (METRO_CHECK). Returns
  /// the batch's base offset. Steady state allocates nothing — the segment
  /// ring grows only on the cold wrap path.
  std::int64_t AppendBatch(std::shared_ptr<const RecordBatch> batch);

  /// Appends the first `count` records of a sealed batch as follower:
  /// `batch->base_offset()` must equal `end_offset()` (the replication
  /// stream is contiguous); kFailedPrecondition otherwise. Shares the
  /// leader's batch — no payload copy. `count` is the batch's size except
  /// when resync shares a leader segment that `TruncateTo` shortened.
  Status AppendReplicaBatch(std::shared_ptr<const RecordBatch> batch,
                            std::size_t count);

  /// Reads a view of at most `max_records` from `offset`, never past
  /// `limit` (exclusive — the high-water mark for replicated reads) and
  /// never across a segment boundary: one call returns records from one
  /// batch, and the caller advances to `view.next_offset()` and fetches
  /// again. Boundary contract as documented at the top of this header; an
  /// empty view carries `next_offset() == offset`.
  Result<BatchView> FetchBatch(std::int64_t offset, std::size_t max_records,
                               std::int64_t limit) const;

  /// The whole retained segment holding `offset`, for replica resync: a
  /// view from the segment's base over its retained count (short of the
  /// batch's size after a tail truncation). Empty outside the retained
  /// window.
  BatchView SegmentAt(std::int64_t offset) const;

  // --- retention / truncation ---

  /// Drops whole segments with `timestamp < cutoff` from the front,
  /// advancing `begin_offset`; returns the number of records dropped.
  /// (Every record in a batch shares the batch's append timestamp, so
  /// batch-granular trimming equals record-granular trimming.)
  std::int64_t EnforceRetention(TimeNs cutoff);

  /// Truncates the tail so `end_offset() == end` (follower resync discards
  /// a never-acked divergent suffix). No-op when already shorter; returns
  /// the number of records dropped.
  std::int64_t TruncateTo(std::int64_t end);

  /// Clears all records and restarts the log at `begin` (a follower whose
  /// retained window fell entirely behind the leader's).
  void Reset(std::int64_t begin);

 private:
  /// One retained slice of one immutable batch. `count` can be smaller than
  /// the batch's size after a tail truncation; `first_offset` always equals
  /// `batch->base_offset()` (front trimming is whole-segment).
  struct Segment {
    std::shared_ptr<const RecordBatch> batch;
    std::int64_t first_offset = 0;
    std::uint32_t count = 0;
  };

  Segment& Slot(std::size_t logical) {
    return ring_[(head_ + logical) % ring_.size()];
  }
  const Segment& Slot(std::size_t logical) const {
    return ring_[(head_ + logical) % ring_.size()];
  }
  /// Binary search for the segment containing `offset`; nullptr outside the
  /// retained window. Allocation-free.
  const Segment* SegmentFor(std::int64_t offset) const;
  /// Cold path: re-linearizes the ring into a larger backing vector.
  void GrowRing();
  /// Places the first `count` records of a validated batch at the tail
  /// (shared by leader/replica paths).
  void PlaceBatch(std::shared_ptr<const RecordBatch> batch, std::size_t count);

  std::vector<Segment> ring_;  ///< circular; segments live at head_..+count
  std::size_t head_ = 0;
  std::size_t seg_count_ = 0;
  std::int64_t begin_offset_ = 0;
  std::int64_t end_offset_ = 0;
};

}  // namespace metro::mq
