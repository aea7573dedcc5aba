#pragma once

// Immutable record batches with arena-backed payloads — the unit of the
// zero-copy produce/replicate/fetch path (ROADMAP item 1, the throughput
// half of the replicated MQ).
//
// A `RecordBatchBuilder` accumulates records by copying every key/value/
// header byte into ONE contiguous char arena (the `tensor::Workspace` bump-
// arena idiom, re-grown in chunks only while building). `Build()` freezes
// the payloads into a `RecordBatch`; the broker then `Seal`s the batch's
// identity (base offset, timestamp, producer id, first sequence) exactly
// once at append time, appends it to the leader log, and replicates it to
// every ISR member **by shared reference** — one `shared_ptr` refcount bump
// per replica instead of the per-record `std::string` copies the pre-batch
// path paid per ISR member.
//
// Ownership/mutability contract (DESIGN.md "Record batches & payload
// ownership" has the full statement):
//
//   * The builder owns the arena while building; `Build()` transfers it to
//     the batch. After `Build()` the payload bytes never move or change.
//   * Only the broker, under the lock of the partition the batch is
//     produced to and before the batch is visible in any log, may call
//     `Seal` (assigning identity); a batch is produced to one partition
//     only. Once a sealed batch has been appended, nothing mutates it —
//     replicas and consumers hold `shared_ptr<const RecordBatch>` views of
//     the same object, which is what makes sharing across threads
//     race-free.
//   * `RecordView` / `BatchView` are non-owning / shared-owning views;
//     record offsets and sequences are derived (`base + index`), never
//     stored per record.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/analysis.h"
#include "util/clock.h"
#include "util/viewcheck.h"

namespace metro::mq {

/// Opaque per-record metadata carried alongside the payload (the Kafka
/// record-headers role). The broker stores and returns them untouched; the
/// tracing layer rides on the `x-trace` key (see src/obs/trace.h).
using Headers = std::map<std::string, std::string>;

class RecordBatch;

/// Non-owning view of one record inside a `RecordBatch`. Cheap value type
/// (batch pointer + index); valid only while the batch is alive — hold the
/// owning `BatchView` (or the batch's `shared_ptr`) across lock boundaries.
class RecordView {
 public:
  RecordView() = default;
  RecordView(const RecordBatch* batch METRO_LIFETIME_BOUND, std::size_t index);

  std::int64_t offset() const;
  TimeNs timestamp() const;
  std::string_view key() const;
  std::string_view value() const;
  /// Idempotent-producer identity (0 / -1 for non-idempotent batches).
  std::int64_t producer_id() const;
  std::int64_t sequence() const;

  /// Linear scan for `key` (header counts are tiny); nullopt when absent.
  std::optional<std::string_view> FindHeader(std::string_view key) const;

 private:
  /// Aborts when the batch was (re-)Sealed after this view was minted: the
  /// derived fields (offset, sequence, timestamp) silently changed under the
  /// view. No-op unless METRO_VIEW_CHECK is compiled in and enabled. Every
  /// accessor in record_batch.cpp calls this first.
  void CheckLive() const;

  const RecordBatch* batch_ = nullptr;
  std::size_t index_ = 0;
#if METRO_VIEW_CHECK
  std::uint64_t vc_epoch_ = 0;  ///< batch seal epoch at mint time
#endif
};

/// An immutable batch of records over one contiguous payload arena.
class RecordBatch {
 public:
  /// A span of the payload arena.
  struct Slice {
    std::uint32_t pos = 0;
    std::uint32_t len = 0;
  };
  struct HeaderSlice {
    Slice key;
    Slice value;
  };
  /// Per-record payload coordinates; offset/sequence are derived from the
  /// batch identity, not stored.
  struct Entry {
    Slice key;
    Slice value;
    std::uint32_t header_begin = 0;
    std::uint32_t header_count = 0;
  };

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Offset of record 0; record i sits at `base_offset() + i`.
  std::int64_t base_offset() const { return base_offset_; }
  /// Broker-assigned append time, shared by every record in the batch.
  TimeNs timestamp() const { return timestamp_; }
  std::int64_t producer_id() const { return producer_id_; }
  /// Sequence of record 0 (record i carries `first_sequence() + i`); -1 for
  /// non-idempotent batches.
  std::int64_t first_sequence() const { return first_sequence_; }
  /// Offset one past the last record once sealed.
  std::int64_t end_offset() const {
    return base_offset_ + std::int64_t(entries_.size());
  }

  /// True once the broker has assigned identity (see Seal).
  bool sealed() const { return sealed_; }

  /// True once an append of this batch was acked (it is shared into live
  /// logs and must never be re-sealed). Set by the broker at ack time.
  bool committed() const { return committed_; }
  void MarkCommitted() { committed_ = true; }

  /// Total arena bytes (keys + values + headers) — what replication shares
  /// instead of copying.
  std::size_t payload_bytes() const { return arena_.size(); }
  /// Key + value bytes only (the `mq.bytes_produced` accounting unit).
  std::size_t key_value_bytes() const { return kv_bytes_; }

  /// The record at `i`. METRO_NOALLOC: pure pointer math over the arena.
  METRO_NOALLOC RecordView view(std::size_t i) const METRO_LIFETIME_BOUND {
    return RecordView(this, i);
  }

  /// Assigns the batch identity at append time. Called by the broker under
  /// the partition's lock, before the batch becomes visible in any log; a
  /// rolled-back append may re-seal on retry, an appended batch is never
  /// sealed again (the idempotent path dedups the retry first).
  void Seal(std::int64_t base_offset, TimeNs timestamp,
            std::int64_t producer_id, std::int64_t first_sequence) {
    base_offset_ = base_offset;
    timestamp_ = timestamp;
    producer_id_ = producer_id;
    first_sequence_ = first_sequence;
    sealed_ = true;
#if METRO_VIEW_CHECK
    // Identity changed: RecordViews minted before this Seal now derive
    // different offsets/sequences and must not be read again.
    ++vc_epoch_;
#endif
  }

 private:
  friend class RecordView;
  friend class RecordBatchBuilder;

  std::string_view Text(const Slice& s) const {
    return std::string_view(arena_.data() + s.pos, s.len);
  }

  std::vector<char> arena_;         ///< every payload byte, contiguous
  std::vector<Entry> entries_;      ///< one per record
  std::vector<HeaderSlice> headers_;///< flat header table, per-record runs
  std::int64_t base_offset_ = 0;
  TimeNs timestamp_ = 0;
  std::int64_t producer_id_ = 0;
  std::int64_t first_sequence_ = -1;
  std::size_t kv_bytes_ = 0;
  bool sealed_ = false;
  bool committed_ = false;
#if METRO_VIEW_CHECK
  std::uint64_t vc_epoch_ = 0;  ///< bumped by every Seal
#endif
};

inline RecordView::RecordView(const RecordBatch* batch, std::size_t index)
    : batch_(batch), index_(index) {
#if METRO_VIEW_CHECK
  if (batch_ != nullptr) vc_epoch_ = batch_->vc_epoch_;
#endif
}

inline void RecordView::CheckLive() const {
#if METRO_VIEW_CHECK
  if (batch_ == nullptr || !viewcheck::Enabled()) return;
  if (batch_->vc_epoch_ != vc_epoch_) {
    viewcheck::Die("RecordView used across a RecordBatch Seal",
                   "batch identity re-assigned after the view was minted");
  }
#endif
}

/// Shared-owning view of a contiguous record range inside one batch — what
/// `FetchBatch` hands across the broker lock. Holding the view keeps the
/// batch (and therefore every `RecordView` into it) alive; the records
/// themselves are never copied.
class BatchView {
 public:
  BatchView() = default;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  METRO_NOALLOC RecordView operator[](std::size_t i) const {
    return batch_->view(first_ + i);
  }

  /// The fetch cursor after this view: `last record's offset + 1`, or the
  /// requested offset unchanged for an empty view. Consumers advance to
  /// here and fetch again.
  std::int64_t next_offset() const { return next_offset_; }

  /// The whole underlying batch (replica resync shares it directly).
  const std::shared_ptr<const RecordBatch>& batch() const { return batch_; }

 private:
  friend class PartitionLog;
  BatchView(std::shared_ptr<const RecordBatch> batch, std::uint32_t first,
            std::uint32_t count, std::int64_t next_offset)
      : batch_(std::move(batch)),
        first_(first),
        count_(count),
        next_offset_(next_offset) {}

  std::shared_ptr<const RecordBatch> batch_;
  std::uint32_t first_ = 0;
  std::uint32_t count_ = 0;
  std::int64_t next_offset_ = 0;
};

/// Accumulates records into one arena, then freezes them into a batch.
/// Single-owner, not thread-safe; reusable after Build().
class RecordBatchBuilder {
 public:
  RecordBatchBuilder() = default;
  /// Pre-sizes the arena so steady-state building never regrows it.
  explicit RecordBatchBuilder(std::size_t reserve_bytes,
                              std::size_t reserve_records = 0);

  /// Copies the payload bytes into the arena (the one copy the produce path
  /// pays; everything downstream shares them).
  void Add(std::string_view key, std::string_view value);
  void Add(std::string_view key, std::string_view value,
           const Headers& headers);

  std::size_t size() const { return batch_ ? batch_->entries_.size() : 0; }
  bool empty() const { return size() == 0; }
  std::size_t payload_bytes() const {
    return batch_ ? batch_->arena_.size() : 0;
  }

  /// Freezes the accumulated records into an immutable (identity-unsealed)
  /// batch and resets the builder. Requires at least one record.
  std::shared_ptr<RecordBatch> Build();

 private:
  RecordBatch::Slice Intern(std::string_view text);
  void Ensure();

  std::shared_ptr<RecordBatch> batch_;  ///< under construction
  std::size_t reserve_bytes_ = 0;
  std::size_t reserve_records_ = 0;
};

}  // namespace metro::mq
