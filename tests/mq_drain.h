#pragma once

// Test helper: reads a partition across batch boundaries through
// BrokerCluster::FetchBatch (one call returns at most one batch).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mq/broker_cluster.h"

namespace metro::mq {

/// Records read from one partition; `pins` keeps their batches alive.
struct Drained : std::vector<RecordView> {
  std::vector<BatchView> pins;
};

/// Up to `max_records` from `offset` to the high-water mark; the first
/// failing FetchBatch's status otherwise.
inline Result<Drained> Drain(
    const BrokerCluster& broker, const std::string& topic, int partition,
    std::int64_t offset,
    std::size_t max_records = std::numeric_limits<std::size_t>::max()) {
  Drained out;
  while (out.size() < max_records) {
    auto view = broker.FetchBatch(topic, partition, offset,
                                  max_records - out.size());
    if (!view.ok()) return view.status();
    if (view->empty()) break;
    for (std::size_t i = 0; i < view->size(); ++i) {
      out.push_back((*view)[i]);
    }
    offset = view->next_offset();
    out.pins.push_back(std::move(*view));
  }
  return out;
}

}  // namespace metro::mq
