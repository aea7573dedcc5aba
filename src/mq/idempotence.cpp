#include "mq/idempotence.h"

namespace metro::mq {

SequenceTable::Probe SequenceTable::Check(ProducerId producer,
                                          std::int64_t sequence) const {
  return CheckRange(producer, sequence, 1);
}

SequenceTable::Probe SequenceTable::CheckRange(ProducerId producer,
                                               std::int64_t first,
                                               std::int64_t count) const {
  Probe probe;
  if (producer <= 0 || first < 0 || count <= 0) {
    return probe;  // not idempotent: fresh
  }
  const auto it = producers_.find(producer);
  if (it == producers_.end()) return probe;  // fresh
  const ProducerState& state = it->second;
  const std::int64_t last = first + count - 1;
  if (first <= state.too_old) {
    // Part of the range fell off the tracked window; appended-or-not is no
    // longer known, so neither appending nor suppressing is safe — the
    // caller must reject.
    probe.verdict = Verdict::kTooOld;
    return probe;
  }
  // Appended sequences in [first, last]: the contiguous-floor overlap plus
  // the sparse members above it.
  std::int64_t appended = 0;
  if (first <= state.contiguous) {
    appended += std::min(last, state.contiguous) - first + 1;
  }
  const std::int64_t sparse_from = std::max(first, state.contiguous + 1);
  for (auto sit = state.appended.lower_bound(sparse_from);
       sit != state.appended.end() && *sit <= last; ++sit) {
    ++appended;
  }
  if (appended == 0) {
    return probe;  // fresh: above the highest, or an unfilled gap (a retry
                   // of a prepared request that never landed)
  }
  if (appended < count) {
    // A pinned batch lands atomically (append + rollback are all-or-
    // nothing), so a half-appended range cannot be a legitimate retry.
    probe.verdict = Verdict::kOverlap;
    return probe;
  }
  probe.verdict = Verdict::kDuplicate;
  probe.duplicate_offset = last == state.last_sequence
                               ? state.last_offset - (count - 1)
                               : -1;
  return probe;
}

void SequenceTable::Observe(ProducerId producer, std::int64_t sequence,
                            std::int64_t offset) {
  ProducerState& state = producers_[producer];
  if (sequence <= state.contiguous || state.appended.count(sequence) > 0) {
    return;  // already folded in (resync replays retained records)
  }
  state.appended.insert(sequence);
  if (sequence > state.last_sequence) {
    state.last_sequence = sequence;
    state.last_offset = offset;
  }
  // Collapse the contiguous prefix into the floor; in the common in-order
  // case the set holds at most one element at a time.
  auto it = state.appended.begin();
  while (it != state.appended.end() && *it == state.contiguous + 1) {
    state.contiguous = *it;
    it = state.appended.erase(it);
  }
  // Bound the sparse window. An unfilled gap (an abandoned prepared
  // request) below kMaxTracked later appends stops the contiguous collapse,
  // so on overflow the oldest gap is forgotten: every status at or below
  // the oldest tracked append becomes unknown (kTooOld on retry — an
  // explicit rejection, never a silent false duplicate).
  while (state.appended.size() > kMaxTracked) {
    const std::int64_t oldest = *state.appended.begin();
    state.too_old = oldest - 1;
    state.contiguous = oldest;
    state.appended.erase(state.appended.begin());
    auto next = state.appended.begin();
    while (next != state.appended.end() && *next == state.contiguous + 1) {
      state.contiguous = *next;
      next = state.appended.erase(next);
    }
  }
}

METRO_NOALLOC void SequenceTable::ObserveRange(ProducerId producer,
                                               std::int64_t first,
                                               std::int64_t count,
                                               std::int64_t base_offset) {
  if (producer <= 0 || first < 0 || count <= 0) return;
  const auto it = producers_.find(producer);
  if (it != producers_.end()) {
    ProducerState& state = it->second;
    // In-order fast path: the range extends the contiguous prefix and no
    // gaps are outstanding — collapse it straight into the floor.
    if (first == state.contiguous + 1 && state.appended.empty()) {
      state.contiguous = first + count - 1;
      state.last_sequence = state.contiguous;
      state.last_offset = base_offset + count - 1;
      return;
    }
  }
  ObserveRangeSlow(producer, first, count, base_offset);
}

void SequenceTable::ObserveRangeSlow(ProducerId producer, std::int64_t first,
                                     std::int64_t count,
                                     std::int64_t base_offset) {
  for (std::int64_t i = 0; i < count; ++i) {
    Observe(producer, first + i, base_offset + i);
  }
}

}  // namespace metro::mq
