#include "mq/partition_log.h"

#include <algorithm>

namespace metro::mq {

namespace {

// Cold error construction, kept out of the METRO_NOALLOC bodies.
Status RetentionFloorError(std::int64_t offset, std::int64_t begin) {
  return OutOfRangeError("offset " + std::to_string(offset) +
                         " below retention floor " + std::to_string(begin));
}

Status BeyondEndError(std::int64_t offset, std::int64_t end) {
  return OutOfRangeError("offset " + std::to_string(offset) +
                         " beyond end of log at " + std::to_string(end));
}

Status ReplicaGapError(std::int64_t got, std::int64_t end) {
  return FailedPreconditionError(
      "replica append at offset " + std::to_string(got) + " but log ends at " +
      std::to_string(end));
}

}  // namespace

void PartitionLog::GrowRing() {
  std::vector<Segment> bigger(ring_.empty() ? 8 : ring_.size() * 2);
  for (std::size_t i = 0; i < seg_count_; ++i) bigger[i] = std::move(Slot(i));
  ring_.swap(bigger);
  head_ = 0;
}

METRO_NOALLOC void PartitionLog::PlaceBatch(
    std::shared_ptr<const RecordBatch> batch, std::size_t count) {
  if (seg_count_ == ring_.size()) GrowRing();  // cold: amortized wrap
  Segment& slot = ring_[(head_ + seg_count_) % ring_.size()];
  slot.first_offset = end_offset_;
  slot.count = std::uint32_t(count);
  end_offset_ += std::int64_t(slot.count);
  slot.batch = std::move(batch);
  ++seg_count_;
}

METRO_NOALLOC std::int64_t PartitionLog::AppendBatch(
    std::shared_ptr<const RecordBatch> batch) {
  METRO_CHECK(batch != nullptr && batch->sealed(),
              "AppendBatch requires a sealed batch");
  METRO_CHECK(batch->base_offset() == end_offset_,
              "batch sealed at base %lld but log ends at %lld",
              (long long)batch->base_offset(), (long long)end_offset_);
  const std::int64_t base = end_offset_;
  const std::size_t count = batch->size();
  PlaceBatch(std::move(batch), count);
  return base;
}

METRO_NOALLOC Status PartitionLog::AppendReplicaBatch(
    std::shared_ptr<const RecordBatch> batch, std::size_t count) {
  if (batch == nullptr || !batch->sealed() ||
      batch->base_offset() != end_offset_) {
    return ReplicaGapError(batch == nullptr ? -1 : batch->base_offset(),
                           end_offset_);
  }
  METRO_CHECK(count > 0 && count <= batch->size(),
              "replica append of %zu records from a batch of %zu", count,
              batch->size());
  PlaceBatch(std::move(batch), count);
  return Status::Ok();
}

METRO_NOALLOC const PartitionLog::Segment* PartitionLog::SegmentFor(
    std::int64_t offset) const {
  if (offset < begin_offset_ || offset >= end_offset_) return nullptr;
  // Last segment with first_offset <= offset; segments are offset-sorted in
  // logical ring order.
  std::size_t lo = 0;
  std::size_t hi = seg_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (Slot(mid).first_offset <= offset) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const Segment& seg = Slot(lo - 1);
  if (offset >= seg.first_offset + std::int64_t(seg.count)) return nullptr;
  return &seg;
}

METRO_NOALLOC Result<BatchView> PartitionLog::FetchBatch(
    std::int64_t offset, std::size_t max_records, std::int64_t limit) const {
  if (offset < begin_offset_) return RetentionFloorError(offset, begin_offset_);
  if (offset > end_offset_) return BeyondEndError(offset, end_offset_);
  const std::int64_t readable = limit < end_offset_ ? limit : end_offset_;
  if (offset >= readable) return BatchView(nullptr, 0, 0, offset);
  const Segment* seg = SegmentFor(offset);
  METRO_CHECK(seg != nullptr, "retained offset %lld has no segment",
              (long long)offset);
  const std::int64_t first = offset - seg->first_offset;
  std::int64_t take = std::int64_t(seg->count) - first;
  if (take > readable - offset) take = readable - offset;
  if (std::size_t(take) > max_records) take = std::int64_t(max_records);
  return BatchView(seg->batch, std::uint32_t(first), std::uint32_t(take),
                   offset + take);
}

BatchView PartitionLog::SegmentAt(std::int64_t offset) const {
  const Segment* seg = SegmentFor(offset);
  if (seg == nullptr) return BatchView(nullptr, 0, 0, offset);
  return BatchView(seg->batch, 0, seg->count,
                   seg->first_offset + std::int64_t(seg->count));
}

std::int64_t PartitionLog::EnforceRetention(TimeNs cutoff) {
  std::int64_t dropped = 0;
  while (seg_count_ > 0) {
    Segment& front = ring_[head_];
    if (front.batch->timestamp() >= cutoff) break;
    dropped += std::int64_t(front.count);
    begin_offset_ = front.first_offset + std::int64_t(front.count);
    front = Segment{};
    head_ = (head_ + 1) % ring_.size();
    --seg_count_;
  }
  return dropped;
}

std::int64_t PartitionLog::TruncateTo(std::int64_t end) {
  if (end >= end_offset_) return 0;
  const std::int64_t target = std::max(end, begin_offset_);
  const std::int64_t dropped = end_offset_ - target;
  while (seg_count_ > 0) {
    Segment& last = Slot(seg_count_ - 1);
    if (last.first_offset >= target) {
      end_offset_ = last.first_offset;
      last = Segment{};
      --seg_count_;
      continue;
    }
    // `target` falls inside `last`: retain its prefix. The dropped suffix
    // stays alive inside the shared batch but is no longer addressable
    // through this log.
    last.count = std::uint32_t(target - last.first_offset);
    end_offset_ = target;
    break;
  }
  return dropped;
}

void PartitionLog::Reset(std::int64_t begin) {
  for (std::size_t i = 0; i < seg_count_; ++i) Slot(i) = Segment{};
  head_ = 0;
  seg_count_ = 0;
  begin_offset_ = begin;
  end_offset_ = begin;
}

}  // namespace metro::mq
