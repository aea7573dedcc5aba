#pragma once

// Consumer-group bookkeeping for the `BrokerCluster`.
//
// A group binds to one topic; members get partitions assigned round-robin
// and the assignment rebalances as members join or leave. Committed offsets
// are validated against the topic's partition count and readable end, which
// the owning broker resolves *before* calling in — the coordinator never
// calls back into the broker, so its lock is a leaf (no cycles with the
// broker's own lock).

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::mq {

/// Thread-safe group/assignment/offset table.
class GroupCoordinator {
 public:
  /// Adds a member (idempotently) and rebalances over `partitions`; returns
  /// the partitions now assigned to this member. kFailedPrecondition when
  /// the group is already bound to a different topic.
  Result<std::vector<int>> Join(const std::string& group,
                                const std::string& topic,
                                const std::string& member, int partitions)
      METRO_EXCLUDES(mu_);

  /// Removes a member and rebalances over `partitions` (the group topic's
  /// partition count, resolved by the owner via `TopicOf`).
  Status Leave(const std::string& group, const std::string& member,
               int partitions) METRO_EXCLUDES(mu_);

  /// Current assignment for a member (empty when not joined).
  std::vector<int> Assignment(const std::string& group,
                              const std::string& member) const
      METRO_EXCLUDES(mu_);

  /// The topic a group is bound to; kNotFound for unknown groups.
  Result<std::string> TopicOf(const std::string& group) const
      METRO_EXCLUDES(mu_);

  /// Records a committed offset. The owner passes the topic's partition
  /// count and that partition's readable end offset: commits to a partition
  /// outside [0, partitions) fail with kInvalidArgument, negative offsets
  /// with kInvalidArgument, and offsets beyond `end_offset` with kOutOfRange
  /// — an unvalidated commit would silently corrupt `Lag`.
  Status Commit(const std::string& group, const std::string& topic,
                int partition, std::int64_t offset, int partitions,
                std::int64_t end_offset) METRO_EXCLUDES(mu_);

  /// Last committed offset, or 0 when the group never committed.
  std::int64_t Committed(const std::string& group, const std::string& topic,
                         int partition) const METRO_EXCLUDES(mu_);

  /// Snapshot of a group's committed offsets (partition -> offset), for the
  /// owner's Lag computation; kNotFound for unknown groups.
  Result<std::map<int, std::int64_t>> CommittedAll(
      const std::string& group) const METRO_EXCLUDES(mu_);

 private:
  struct Group {
    std::string topic;
    std::vector<std::string> members;  // sorted
    std::unordered_map<std::string, std::vector<int>> assignment;
    std::map<int, std::int64_t> committed;  // partition -> offset
  };

  /// Recomputes `group`'s round-robin partition assignment.
  static void Rebalance(Group& group, int partitions);

  mutable Mutex mu_{lockrank::kMqGroups, "mq.groups"};
  std::unordered_map<std::string, Group> groups_ METRO_GUARDED_BY(mu_);
};

}  // namespace metro::mq
