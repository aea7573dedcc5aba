#pragma once

// Replicated message broker: N `BrokerNode`s hosting leader/follower
// replicas of every partition, with deterministic leader placement,
// in-sync-replica (ISR) tracking, high-water-mark reads, quorum-acked
// produce, automatic leader failover, an idempotent produce path, and
// bounded per-partition backlogs.
//
// Replication contract (DESIGN.md "Failure model" has the full statement):
//
//   * Placement: partition p of a topic is replicated on nodes
//     `(hash(topic) + p + i) % nodes` for i in [0, replication_factor); the
//     i = 0 node is the *preferred* leader.
//   * Leader rule: the leader is the first ISR member in replica order.
//     When a leader dies, leadership moves to the next ISR member — which,
//     by the synchronous-replication invariant, holds every acked record.
//     A revived replica resyncs from the current leader and rejoins the ISR
//     as a follower (leadership does not flap back).
//   * Acked durability: a produce is acked only when the ISR holds at least
//     `quorum = replication_factor / 2 + 1` members, every one of which has
//     appended the record. An acked record therefore survives any failover
//     permitted by the quorum rule, and unclean election is impossible:
//     when every replica dies, only members of the final ISR may be elected
//     on revival, so a stale replica can never serve as leader.
//   * Visibility: fetches are served by the leader and never read past the
//     high-water mark (the replicated prefix), so consumers cannot observe
//     a record that a failover could retract.
//   * Backpressure: when a leader's retained backlog reaches
//     `max_partition_backlog`, produce fails with kResourceExhausted (and
//     the `mq.backpressure` counter ticks) instead of growing the log
//     without bound; retention is the release valve.
//   * Consumer wake-up: `AwaitRecords` is the long-poll wait. Every
//     high-water-mark advance (an appended batch, or a leader elected on
//     revival) rings the topic's `Doorbell` when a consumer sleeps in it
//     (mq/doorbell.h has the lost-wake-up argument).
//
// Two lock domains. The "network" between replicas is a function call,
// which is what makes replication synchronous and the chaos tests
// deterministic; the locks decide what runs in parallel:
//
//   * Data plane — one lock per partition (`mq.partition`). It guards the
//     partition's leader, ISR, final ISR, high-water mark, per-producer
//     sequence counters, and the logs and dedup tables of all its replicas.
//     Prepare, Produce, FetchBatch, partition metadata reads and the
//     high-water read of CommitOffset take only their partition's lock, so
//     producers on different partitions never wait on each other. Topics
//     are found through an immutable name table published by atomic
//     pointer, so the data path takes no cluster-wide lock.
//   * Control plane — the cluster lock (`mq.cluster`), taken by topology
//     changes: CreateTopic, KillNode/ReviveNode, EnforceRetention, Probe,
//     NodeUp and the event hook. It owns node liveness, and it visits
//     partitions one at a time under each partition's lock (never two at
//     once; the cluster lock ranks first).
//
// Failover is therefore atomic per partition, not across partitions: a
// produce to a partition runs entirely before or entirely after a kill's
// ISR shrink and leader move on that partition, but may land on another
// partition between the kill reaching the first and the second. That is
// enough for the contract above, which is per partition.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mq/consumer_groups.h"
#include "mq/doorbell.h"
#include "mq/idempotence.h"
#include "mq/partition_log.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::mq {

/// A (topic, partition) coordinate.
struct TopicPartition {
  std::string topic;
  int partition = 0;

  friend bool operator<(const TopicPartition& a, const TopicPartition& b) {
    if (a.topic != b.topic) return a.topic < b.topic;
    return a.partition < b.partition;
  }
};

/// One broker process. Its liveness is guarded by the cluster lock; each
/// hosted replica's contents are guarded by the lock of the partition it
/// replicates (`BrokerCluster` keeps direct pointers to them), so the node
/// carries no synchronization of its own. `Kill` models a process crash:
/// the node stops serving, but its replicas (its disk) survive and serve
/// again after `Revive` + resync.
class BrokerNode {
 public:
  explicit BrokerNode(int id) : id_(id) {}

  int id() const { return id_; }
  bool up() const { return up_; }
  void Kill() { up_ = false; }
  void Revive() { up_ = true; }

  /// One hosted partition replica: its log plus the idempotence table
  /// rebuilt from that log's records.
  struct Replica {
    PartitionLog log;
    SequenceTable sequences;

    /// Brings this (follower) replica level with `leader`: truncates any
    /// suffix the leader lacks, then shares the leader's segments from this
    /// log's end onward — whole batches, by reference — folding each
    /// shared range into `sequences`. An end inside a leader segment is
    /// first truncated back to that segment's base. A failed append leaves
    /// the replica behind the leader (retry later).
    Status ResyncFrom(const Replica& leader);
  };

  /// The replica for `tp`, created on first use. The reference stays valid
  /// for the node's lifetime (map nodes never move).
  Replica& replica(const TopicPartition& tp) { return replicas_[tp]; }

 private:
  int id_;
  bool up_ = true;
  std::map<TopicPartition, Replica> replicas_;
};

/// Cluster tuning.
struct BrokerClusterConfig {
  int nodes = 3;               ///< broker processes
  int replication_factor = 3;  ///< replicas per partition (clamped to nodes)
  /// Retained records per partition before produce fails with
  /// kResourceExhausted; 0 = unbounded.
  std::int64_t max_partition_backlog = 1 << 20;
};

/// A leadership/replication change, reported through the event hook so the
/// observability layer (which sits above mq in the include DAG) can record
/// failover events without mq depending on it.
struct ClusterEvent {
  enum class Kind {
    kLeaderElected,  ///< partition gained a leader (creation or revival)
    kFailover,       ///< leadership moved off a dead node
    kQuorumLost,     ///< last ISR member died; partition has no leader
    kIsrShrink,      ///< a replica left the ISR
    kIsrExpand,      ///< a resynced replica rejoined the ISR
    kNodeKilled,
    kNodeRevived,
  };
  Kind kind = Kind::kLeaderElected;
  std::string topic;   ///< empty for node-level events
  int partition = -1;
  int node = -1;       ///< the new leader / (re)joined / killed node
  int prev_node = -1;  ///< the previous leader for kFailover
};

std::string_view ClusterEventKindName(ClusterEvent::Kind kind);

/// A pinned, retry-safe produce (see `Prepare` / `PrepareBatch`). The
/// batch's payload arena is built once; the broker appends it to the
/// leader and shares it into every ISR replica by reference. Resubmitting
/// the same request after a transient failure (or across a leader failover)
/// cannot duplicate: the sequence range `[first_sequence,
/// first_sequence + batch->size())` is deduplicated as a unit.
struct ProduceBatchRequest {
  std::string topic;
  int partition = 0;
  ProducerId producer_id = 0;
  std::int64_t first_sequence = -1;
  std::shared_ptr<RecordBatch> batch;
};

/// Leader/ISR snapshot for one partition (tests, health, operators).
struct PartitionView {
  int leader = -1;            ///< node id; -1 = no leader (quorum lost)
  std::vector<int> replicas;  ///< preferred order; [0] is preferred leader
  std::vector<int> isr;       ///< in-sync subset, in replica order
  std::int64_t high_water_mark = 0;
  std::int64_t begin_offset = 0;
  std::int64_t end_offset = 0;
};

/// The broker: replicated across nodes, or, at one node and replication
/// factor 1, the single-broker deployment. Thread-safe.
class BrokerCluster {
 public:
  using EventFn = std::function<void(const ClusterEvent&)>;

  explicit BrokerCluster(Clock& clock, BrokerClusterConfig config = {});

  int num_nodes() const { return int(nodes_.size()); }
  int replication_factor() const { return config_.replication_factor; }
  int quorum() const { return config_.replication_factor / 2 + 1; }

  /// Registers the event hook (replacing any previous one). Events are
  /// delivered outside every broker lock; the hook may call back into
  /// read-side cluster methods but must not inject faults.
  void SetEventHook(EventFn hook) METRO_EXCLUDES(mu_);

  // --- topics ---

  /// Creates a topic with `partitions` partitions (>= 1), placing replicas
  /// and electing the preferred leaders.
  Status CreateTopic(const std::string& topic, int partitions)
      METRO_EXCLUDES(mu_);

  bool HasTopic(const std::string& topic) const;
  Result<int> NumPartitions(const std::string& topic) const;

  // --- produce ---

  /// Non-idempotent convenience produce; the partition is chosen by key
  /// hash, or round-robin over partitions that currently have a leader for
  /// empty keys (skipped leaderless partitions tick `mq.roundrobin_skips`).
  Result<ProduceAck> Produce(const std::string& topic, std::string key,
                             std::string value, Headers headers = {});

  /// Non-idempotent produce to an explicit partition.
  Result<ProduceAck> ProduceTo(const std::string& topic, int partition,
                               std::string key, std::string value,
                               Headers headers = {});

  /// Registers an idempotent producer and returns its id.
  ProducerId CreateProducer();

  /// Builds a pinned one-record request: picks the partition (as
  /// `Produce` does), builds the record's batch once and, for a registered
  /// producer, assigns the next per-partition sequence number. Submitted
  /// through `Produce(request)` as `PrepareBatch`'s requests are.
  Result<ProduceBatchRequest> Prepare(ProducerId producer,
                                      const std::string& topic,
                                      std::string key, std::string value,
                                      Headers headers = {});

  /// Builds a pinned batched request to an explicit partition from the
  /// records accumulated in `builder` (at least one). For a registered
  /// producer (id > 0) the batch is assigned the next `builder.size()`
  /// per-partition sequence numbers; producer 0 produces non-idempotently.
  /// The request may then be submitted through `Produce(request)` — for an
  /// idempotent producer any number of times, with exactly one append
  /// resulting.
  Result<ProduceBatchRequest> PrepareBatch(ProducerId producer,
                                           const std::string& topic,
                                           int partition,
                                           RecordBatchBuilder& builder);

  /// Submits a pinned request: quorum-acked, idempotent over the whole
  /// sequence range, appended to the leader and shared (not copied) into
  /// every ISR replica. kUnavailable when the partition has no leader or
  /// the ISR is below quorum (retry after failover); kResourceExhausted at
  /// the backlog bound; kFailedPrecondition for a partially-appended range
  /// (`mq.sequence_overlap`), a range below the idempotence window, or a
  /// resubmitted, already-committed non-idempotent batch. Steady state is
  /// allocation-free end to end.
  Result<ProduceAck> Produce(const ProduceBatchRequest& request);

  // --- fetch / metadata ---

  /// Zero-copy fetch: a shared view of up to `max_records` from the leader,
  /// never past the high-water mark and never across a batch boundary (the
  /// caller advances to `view.next_offset()` and fetches again; an empty
  /// view means "parked at the high-water mark"). kUnavailable when the
  /// partition has no leader; an offset below the retention floor or past
  /// the log end fails with kOutOfRange (the boundary contract in
  /// partition_log.h). The view keeps the underlying immutable batch alive,
  /// so it remains valid after the call returns — even across retention or
  /// failover.
  ///
  /// Reset policy: a consumer whose next offset has been retired by
  /// retention gets kOutOfRange and is expected to reset to the current
  /// `begin_offset` (from GetPartitionInfo), accounting the gap as skipped
  /// records — the records are gone; re-fetching older offsets cannot bring
  /// them back. See core::CityPipeline's consumer loop for the reference
  /// implementation.
  Result<BatchView> FetchBatch(const std::string& topic, int partition,
                               std::int64_t offset,
                               std::size_t max_records) const;

  Result<PartitionInfo> GetPartitionInfo(const std::string& topic,
                                         int partition) const;

  Result<PartitionView> View(const std::string& topic, int partition) const;

  /// The node that would lead `partition` with every replica healthy — the
  /// deterministic target for "kill the leader" fault plans.
  Result<int> PreferredLeader(const std::string& topic, int partition) const;

  Result<int> LeaderOf(const std::string& topic, int partition) const;

  /// The topic's doorbell, rung after every high-water-mark advance on any
  /// of its partitions while an `AwaitRecords` call is parked on it. Lives
  /// as long as the cluster. Read-only: only `AwaitRecords` registers.
  Result<const Doorbell*> TopicDoorbell(const std::string& topic) const;

  /// Long-poll wait for `group`'s consumer of `partitions` of `topic`:
  /// returns true at once when a listed partition with a leader holds
  /// records past the group's committed offset, else parks on the topic's
  /// doorbell until a ring (true) or until `max_wait` passes (false). A
  /// leaderless partition counts as nothing to read. False at once for an
  /// unknown topic.
  bool AwaitRecords(const std::string& group, const std::string& topic,
                    const std::vector<int>& partitions, TimeNs max_wait);

  /// Drops records older than `retention` from every replica of every
  /// partition (the disk-level janitor runs on dead nodes too, keeping
  /// replicas aligned); returns records dropped from leader replicas.
  std::int64_t EnforceRetention(TimeNs retention) METRO_EXCLUDES(mu_);

  // --- faults ---

  /// Crashes a broker process: its replicas leave every ISR and any
  /// partition it led fails over to the next ISR member.
  Status KillNode(int node) METRO_EXCLUDES(mu_);

  /// Restarts a broker process: its replicas resync from the current
  /// leaders and rejoin the ISRs. A leaderless partition elects the revived
  /// node only if it was in the final ISR (no unclean election).
  Status ReviveNode(int node) METRO_EXCLUDES(mu_);

  Result<bool> NodeUp(int node) const METRO_EXCLUDES(mu_);

  /// Health probe for `resilience::HealthRegistry`: Ok when every partition
  /// has a leader and an ISR at quorum; kUnavailable with a diagnostic
  /// otherwise.
  Status Probe() const METRO_EXCLUDES(mu_);

  // --- consumer groups (see GroupCoordinator) ---

  /// Adds a member and rebalances; returns the partitions now assigned to
  /// this member.
  Result<std::vector<int>> JoinGroup(const std::string& group,
                                     const std::string& topic,
                                     const std::string& member);
  Status LeaveGroup(const std::string& group, const std::string& member);
  std::vector<int> Assignment(const std::string& group,
                              const std::string& member) const;
  /// Validated commit: rejects partitions outside the topic and offsets
  /// beyond the high-water mark (kOutOfRange) — see GroupCoordinator.
  Status CommitOffset(const std::string& group, const std::string& topic,
                      int partition, std::int64_t offset);
  std::int64_t CommittedOffset(const std::string& group,
                               const std::string& topic, int partition) const;
  /// Uncommitted backlog across the group's topic (high-water mark minus
  /// committed, floored at 0 per partition).
  Result<std::int64_t> Lag(const std::string& group) const;

  MetricsRegistry& metrics() { return metrics_; }

 private:
  /// One partition: its placement, fixed at CreateTopic, and the data-plane
  /// state its own lock guards.
  struct Partition {
    /// Preferred replica order; [0] is the preferred leader.
    std::vector<int> replicas;
    /// storage[i] is the replica hosted on node replicas[i], resolved once
    /// at CreateTopic so the data path never searches a node's replica map.
    /// The pointers are fixed; what they point to is guarded by
    /// `partition_mu`.
    std::vector<BrokerNode::Replica*> storage;
    /// The owning topic's doorbell; fixed at CreateTopic.
    Doorbell* doorbell = nullptr;

    mutable Mutex partition_mu{lockrank::kMqPartition, "mq.partition"};
    int leader METRO_GUARDED_BY(partition_mu) = -1;
    /// In-sync subset of `replicas`, in replica order; empty iff leader < 0.
    std::vector<int> isr METRO_GUARDED_BY(partition_mu);
    /// ISR at the moment the last in-sync replica died.
    std::vector<int> final_isr METRO_GUARDED_BY(partition_mu);
    std::int64_t high_water METRO_GUARDED_BY(partition_mu) = 0;
    /// Next sequence `Prepare`/`PrepareBatch` assign, per producer.
    std::map<ProducerId, std::int64_t> next_sequence
        METRO_GUARDED_BY(partition_mu);

    /// The replica hosted on `node`, which must be one of `replicas`.
    BrokerNode::Replica& On(int node) const;
  };
  struct Topic {
    explicit Topic(int partitions) : partitions(std::size_t(partitions)) {}
    std::vector<Partition> partitions;  ///< sized once, never resized
    std::atomic<std::size_t> round_robin{0};
    Doorbell doorbell;
  };
  /// Name -> topic. A published table is never modified: CreateTopic
  /// publishes a copy with the new topic added.
  using TopicTable = std::map<std::string, Topic*, std::less<>>;

  /// Lock-free topic lookup through the published table; nullptr when
  /// unknown.
  Topic* FindTopic(std::string_view name) const;
  /// The partition, or kNotFound / kInvalidArgument. Lock-free.
  Result<Partition*> FindPartition(const std::string& topic,
                                   int partition) const;
  /// The latest table, for control-plane iteration in name order.
  const TopicTable& TopicsLocked() const METRO_REQUIRES(mu_);
  bool KnownProducer(ProducerId producer) const;
  /// Picks the partition for a produce (key hash / leader-skipping
  /// round-robin); never fails. Keyless picks briefly take each candidate
  /// partition's lock to read its leader.
  int PickPartition(Topic& topic, const std::string& key);
  /// Pins `batch` to `partition` (whose state is `part`) and, for a
  /// registered producer, assigns it the next `batch->size()` sequences.
  ProduceBatchRequest Pin(ProducerId producer, const std::string& topic,
                          Partition& part, int partition,
                          std::shared_ptr<RecordBatch> batch);
  /// The batched produce path: dedup (whole range), backlog bound, seal,
  /// leader append, shared replication, sequence-range observation.
  Result<ProduceAck> ProduceBatchLocked(Partition& part,
                                        const ProduceBatchRequest& request)
      METRO_REQUIRES(part.partition_mu);
  /// Resyncs `node`'s replica from the leader's (`Replica::ResyncFrom`) and
  /// rejoins the ISR.
  void ResyncReplicaLocked(const std::string& topic, int index,
                           Partition& part, int node,
                           std::vector<ClusterEvent>& events)
      METRO_REQUIRES(mu_, part.partition_mu);
  void Emit(std::vector<ClusterEvent> events) METRO_EXCLUDES(mu_);

  Clock* clock_;
  BrokerClusterConfig config_;
  // The control-plane lock. Lock order: mu_ before a partition lock (one at
  // a time), both before metrics_'s internal lock; the group coordinator's
  // lock is a leaf taken after partition state is read.
  mutable Mutex mu_{lockrank::kMqCluster, "mq.cluster"};
  std::vector<std::unique_ptr<BrokerNode>> nodes_ METRO_GUARDED_BY(mu_);
  /// Every topic, in creation order; topics are never deleted.
  std::vector<std::unique_ptr<Topic>> topics_ METRO_GUARDED_BY(mu_);
  /// Every table ever published, the latest last. Superseded tables are
  /// kept until destruction, so a data-path reader holding one needs no
  /// refcount.
  std::vector<std::unique_ptr<const TopicTable>> tables_
      METRO_GUARDED_BY(mu_);
  std::atomic<const TopicTable*> topic_table_{nullptr};
  std::atomic<ProducerId> next_producer_{1};
  EventFn hook_ METRO_GUARDED_BY(mu_);
  GroupCoordinator groups_;
  MetricsRegistry metrics_;
  // mq.* counters resolved once at construction (GetCounter takes the
  // registry lock and a map lookup; references stay valid for the
  // registry's lifetime) so the METRO_NOALLOC produce path ticks them with
  // a plain atomic add.
  Counter* c_records_produced_;
  Counter* c_batches_produced_;
  Counter* c_bytes_produced_;
  Counter* c_replica_bytes_shared_;
  Counter* c_duplicates_suppressed_;
  Counter* c_sequence_too_old_;
  Counter* c_sequence_overlap_;
  Counter* c_backpressure_;
  Counter* c_no_leader_;
  Counter* c_quorum_failures_;
  Counter* c_roundrobin_skips_;
  Counter* c_failovers_;
};

}  // namespace metro::mq
