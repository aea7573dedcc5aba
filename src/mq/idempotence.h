#pragma once

// Broker-side idempotent-producer dedup state (the Kafka PID/sequence role).
//
// An idempotent producer attaches a broker-assigned producer id and a
// monotonically increasing per-partition sequence number to every record.
// Each partition replica keeps a `SequenceTable` rebuilt purely from the
// records it holds, so after a leader failover the new leader suppresses the
// same retries the old one would have — a produce retried across the
// failover cannot duplicate.
//
// Dedup rule: a (producer, sequence) pair is a duplicate iff that exact
// sequence was already appended. Sequences are assigned at Prepare time but
// may land out of order — a prepared request can fail transiently (no
// leader mid-failover, backpressure) while later sequences from the same
// producer succeed, and its retry then arrives *below* the highest appended
// sequence. Such a gap sequence was never appended, so it is fresh, not a
// duplicate; only genuinely-appended sequences are suppressed. The table
// therefore tracks the exact appended set, compressed as a contiguous floor
// plus a sparse window of appended sequences above it (gaps only form from
// failed produces and collapse into the floor when their retry lands).
//
// The sparse window is bounded (`kMaxTracked`): if a gap never fills — a
// producer dropped a prepared request for good — the floor eventually
// advances past it and the abandoned sequence's status is forgotten. A
// retry from below the floor is then `kTooOld` and the produce is rejected
// with an explicit error (Kafka's OutOfOrderSequence role) rather than
// silently dropped as a false duplicate.

#include <cstdint>
#include <set>
#include <unordered_map>

#include "util/analysis.h"

namespace metro::mq {

/// Broker-assigned idempotent-producer identity; 0 means "no producer"
/// (plain, non-idempotent produce).
using ProducerId = std::int64_t;

/// Exact appended-sequence tracking per producer for one partition replica.
class SequenceTable {
 public:
  /// Appended sequences kept above the contiguous floor, per producer. Only
  /// unfilled gaps (permanently abandoned sequences) can grow the window;
  /// when it overflows, the floor advances and the oldest statuses are
  /// forgotten (their retries become kTooOld).
  static constexpr std::size_t kMaxTracked = 4096;

  enum class Verdict {
    kFresh,      ///< never appended; append it
    kDuplicate,  ///< already appended; suppress
    kTooOld,     ///< below the tracked window; reject, status unknown
    kOverlap,    ///< batch range partially appended; reject (range checks
                 ///< only — a pinned batch either landed whole or not at
                 ///< all, so overlap means a mis-built retry)
  };
  struct Probe {
    Verdict verdict = Verdict::kFresh;
    /// For kDuplicate: the original base offset, when the range ends at the
    /// producer's highest appended sequence (the pinned-retry case); -1 for
    /// older duplicates past the remembered offset.
    std::int64_t duplicate_offset = -1;
  };

  /// Classifies a (producer, sequence) pair against the replica's history.
  /// Equivalent to `CheckRange(producer, sequence, 1)`.
  Probe Check(ProducerId producer, std::int64_t sequence) const;

  /// Classifies a batch's contiguous sequence range
  /// `[first, first + count)`. kDuplicate only when EVERY sequence in the
  /// range was appended (a whole-batch retry); kTooOld when any part of the
  /// range fell below the tracked window; kOverlap when some but not all
  /// sequences were appended.
  Probe CheckRange(ProducerId producer, std::int64_t first,
                   std::int64_t count) const;

  /// Folds an appended batch — sequences `[first, first + count)` landed at
  /// offsets `[base_offset, base_offset + count)`. Leader append and
  /// follower replication/resync both call this, keeping the tables
  /// identical across the ISR; folding a range again is a no-op. The
  /// in-order fast path (the next contiguous range, no gaps outstanding) is
  /// allocation-free; gap bookkeeping and first contact from a producer
  /// take the cold path.
  void ObserveRange(ProducerId producer, std::int64_t first,
                    std::int64_t count, std::int64_t base_offset);

  void Clear() { producers_.clear(); }

 private:
  struct ProducerState {
    /// Sequences <= too_old have had their status forgotten (window
    /// overflow); <= contiguous (but > too_old) were all appended; above
    /// that, exactly the members of `appended` were. too_old <= contiguous.
    std::int64_t too_old = -1;
    std::int64_t contiguous = -1;
    std::set<std::int64_t> appended;
    std::int64_t last_sequence = -1;  ///< highest appended
    std::int64_t last_offset = -1;
  };

  /// Cold half of ObserveRange: out-of-order ranges, outstanding gaps, and
  /// a producer's first contact (creates the map entry).
  void ObserveRangeSlow(ProducerId producer, std::int64_t first,
                        std::int64_t count, std::int64_t base_offset);
  /// Folds one appended sequence, landed at `offset`.
  void Observe(ProducerId producer, std::int64_t sequence,
               std::int64_t offset);

  std::unordered_map<ProducerId, ProducerState> producers_;
};

}  // namespace metro::mq
