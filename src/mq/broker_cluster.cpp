#include "mq/broker_cluster.h"

#include <algorithm>

#include "util/bytes.h"

namespace metro::mq {

namespace {

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// Cold error construction for the METRO_NOALLOC produce/fetch bodies: the
// annotated functions call these helpers so string building stays off the
// lexically-scanned hot path (and, at runtime, happens only when the
// produce already failed).
std::string Where(std::string_view topic, int partition) {
  return std::string(topic) + "/" + std::to_string(partition);
}

Status UnknownTopicError(const std::string& topic) {
  return NotFoundError("topic " + topic);
}

Status UnknownProducerError(ProducerId producer) {
  return InvalidArgumentError("unknown producer id " +
                              std::to_string(producer));
}

Status PartitionRangeError() {
  return InvalidArgumentError("partition out of range");
}

Status EmptyBatchError() {
  return InvalidArgumentError("batched produce requires a non-empty batch");
}

Status NoLeaderError(std::string_view topic, int partition) {
  return UnavailableError("partition " + Where(topic, partition) +
                          " has no leader");
}

Status QuorumError(std::string_view topic, int partition, int isr,
                   int quorum) {
  return UnavailableError("partition " + Where(topic, partition) + " ISR " +
                          std::to_string(isr) + " below quorum " +
                          std::to_string(quorum));
}

Status TooOldError(const ProduceBatchRequest& request) {
  return FailedPreconditionError(
      "producer " + std::to_string(request.producer_id) + " sequence " +
      std::to_string(request.first_sequence) + " on " +
      Where(request.topic, request.partition) +
      " below the tracked idempotence window");
}

Status OverlapError(const ProduceBatchRequest& request, std::int64_t count) {
  return FailedPreconditionError(
      "producer " + std::to_string(request.producer_id) + " sequence range [" +
      std::to_string(request.first_sequence) + ", " +
      std::to_string(request.first_sequence + count) + ") on " +
      Where(request.topic, request.partition) +
      " partially appended — not a whole-batch retry");
}

Status ResubmitError(const ProduceBatchRequest& request) {
  return FailedPreconditionError(
      "non-idempotent batch already committed to " +
      Where(request.topic, request.partition) +
      " resubmitted; build a new batch (or use an idempotent producer)");
}

Status BacklogError(const ProduceBatchRequest& request, std::int64_t bound) {
  return ResourceExhaustedError("partition " +
                                Where(request.topic, request.partition) +
                                " backlog at bound " + std::to_string(bound));
}

Status DivergenceError(const ProduceBatchRequest& request,
                       const Status& cause) {
  return InternalError("ISR divergence on " +
                       Where(request.topic, request.partition) + ": " +
                       cause.message());
}

// The batch behind a single-record produce, built before any lock is taken.
std::shared_ptr<RecordBatch> OneRecord(const std::string& key,
                                       const std::string& value,
                                       const Headers& headers) {
  RecordBatchBuilder builder;
  builder.Add(key, value, headers);
  return builder.Build();
}

}  // namespace

std::string_view ClusterEventKindName(ClusterEvent::Kind kind) {
  switch (kind) {
    case ClusterEvent::Kind::kLeaderElected:
      return "leader_elected";
    case ClusterEvent::Kind::kFailover:
      return "failover";
    case ClusterEvent::Kind::kQuorumLost:
      return "quorum_lost";
    case ClusterEvent::Kind::kIsrShrink:
      return "isr_shrink";
    case ClusterEvent::Kind::kIsrExpand:
      return "isr_expand";
    case ClusterEvent::Kind::kNodeKilled:
      return "node_killed";
    case ClusterEvent::Kind::kNodeRevived:
      return "node_revived";
  }
  return "unknown";
}

BrokerCluster::BrokerCluster(Clock& clock, BrokerClusterConfig config)
    : clock_(&clock), config_(config) {
  config_.nodes = std::max(1, config_.nodes);
  config_.replication_factor =
      std::clamp(config_.replication_factor, 1, config_.nodes);
  c_records_produced_ = &metrics_.GetCounter("mq.records_produced");
  c_batches_produced_ = &metrics_.GetCounter("mq.batches_produced");
  c_bytes_produced_ = &metrics_.GetCounter("mq.bytes_produced");
  c_replica_bytes_shared_ = &metrics_.GetCounter("mq.replica_bytes_shared");
  c_duplicates_suppressed_ = &metrics_.GetCounter("mq.duplicates_suppressed");
  c_sequence_too_old_ = &metrics_.GetCounter("mq.sequence_too_old");
  c_sequence_overlap_ = &metrics_.GetCounter("mq.sequence_overlap");
  c_backpressure_ = &metrics_.GetCounter("mq.backpressure");
  c_no_leader_ = &metrics_.GetCounter("mq.no_leader");
  c_quorum_failures_ = &metrics_.GetCounter("mq.quorum_failures");
  c_roundrobin_skips_ = &metrics_.GetCounter("mq.roundrobin_skips");
  c_failovers_ = &metrics_.GetCounter("mq.failovers");
  MutexLock lock(mu_);
  nodes_.reserve(std::size_t(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<BrokerNode>(i));
  }
  tables_.push_back(std::make_unique<const TopicTable>());
  topic_table_.store(tables_.back().get(), std::memory_order_release);
}

BrokerNode::Replica& BrokerCluster::Partition::On(int node) const {
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i] == node) return *storage[i];
  }
  METRO_CHECK(false, "node %d hosts no replica of this partition", node);
}

void BrokerCluster::SetEventHook(EventFn hook) {
  MutexLock lock(mu_);
  hook_ = std::move(hook);
}

void BrokerCluster::Emit(std::vector<ClusterEvent> events) {
  if (events.empty()) return;
  EventFn hook;
  {
    MutexLock lock(mu_);
    hook = hook_;
  }
  if (!hook) return;
  for (const ClusterEvent& event : events) hook(event);
}

BrokerCluster::Topic* BrokerCluster::FindTopic(std::string_view name) const {
  // A published table is immutable and outlives every reader (superseded
  // tables are kept until destruction), so no refcount is needed.
  const TopicTable& table = *topic_table_.load(std::memory_order_acquire);
  const auto it = table.find(name);
  return it == table.end() ? nullptr : it->second;
}

Result<BrokerCluster::Partition*> BrokerCluster::FindPartition(
    const std::string& topic, int partition) const {
  Topic* t = FindTopic(topic);
  if (t == nullptr) return UnknownTopicError(topic);
  if (partition < 0 || std::size_t(partition) >= t->partitions.size()) {
    return PartitionRangeError();
  }
  return &t->partitions[std::size_t(partition)];
}

const BrokerCluster::TopicTable& BrokerCluster::TopicsLocked() const {
  return *tables_.back();
}

Status BrokerCluster::CreateTopic(const std::string& topic, int partitions) {
  if (partitions < 1) return InvalidArgumentError("partitions must be >= 1");
  std::vector<ClusterEvent> events;
  MutexLock lock(mu_);
  const TopicTable& current = TopicsLocked();
  if (current.count(topic) > 0) return AlreadyExistsError("topic " + topic);
  auto t = std::make_unique<Topic>(partitions);
  const std::uint64_t base = Fnv1a64(topic);
  const auto rf = std::size_t(config_.replication_factor);
  for (int p = 0; p < partitions; ++p) {
    Partition& part = t->partitions[std::size_t(p)];
    const TopicPartition tp{topic, p};
    part.replicas.reserve(rf);
    part.storage.reserve(rf);
    part.doorbell = &t->doorbell;
    // Unpublished, so uncontended; taken for the guarded fields.
    MutexLock part_lock(part.partition_mu);
    part.isr.reserve(rf);
    for (std::size_t i = 0; i < rf; ++i) {
      const int node = int((base + std::uint64_t(p) + i) %
                           std::uint64_t(nodes_.size()));
      BrokerNode& host = *nodes_[std::size_t(node)];
      part.replicas.push_back(node);
      part.storage.push_back(&host.replica(tp));  // materialize the replica
      if (host.up()) part.isr.push_back(node);
    }
    if (!part.isr.empty()) {
      part.leader = part.isr.front();
      ClusterEvent event;
      event.kind = ClusterEvent::Kind::kLeaderElected;
      event.topic = topic;
      event.partition = p;
      event.node = part.leader;
      events.push_back(std::move(event));
    }
  }
  // Publish a copy of the table with the new topic; readers of the old one
  // keep it (it stays in tables_) and simply do not see the topic yet.
  auto table = std::make_unique<TopicTable>(current);
  table->emplace(topic, t.get());
  topics_.push_back(std::move(t));
  topic_table_.store(table.get(), std::memory_order_release);
  tables_.push_back(std::move(table));
  lock.Unlock();
  Emit(std::move(events));
  return Status::Ok();
}

bool BrokerCluster::HasTopic(const std::string& topic) const {
  return FindTopic(topic) != nullptr;
}

Result<int> BrokerCluster::NumPartitions(const std::string& topic) const {
  const Topic* t = FindTopic(topic);
  if (t == nullptr) return UnknownTopicError(topic);
  return int(t->partitions.size());
}

bool BrokerCluster::KnownProducer(ProducerId producer) const {
  return producer >= 0 &&
         producer < next_producer_.load(std::memory_order_acquire);
}

int BrokerCluster::PickPartition(Topic& topic, const std::string& key) {
  const std::size_t n = topic.partitions.size();
  if (!key.empty()) return int(Fnv1a64(key) % n);
  // Keyless round-robin skips partitions that currently have no leader so a
  // single dead preferred leader cannot fail a fraction of keyless traffic.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx =
        topic.round_robin.fetch_add(1, std::memory_order_relaxed) % n;
    Partition& part = topic.partitions[idx];
    MutexLock lock(part.partition_mu);
    if (part.leader >= 0) return int(idx);
    c_roundrobin_skips_->Increment();
  }
  // Every partition is leaderless; let the produce path report kUnavailable.
  return int(topic.round_robin.fetch_add(1, std::memory_order_relaxed) % n);
}

ProducerId BrokerCluster::CreateProducer() {
  return next_producer_.fetch_add(1, std::memory_order_acq_rel);
}

ProduceBatchRequest BrokerCluster::Pin(ProducerId producer,
                                       const std::string& topic,
                                       Partition& part, int partition,
                                       std::shared_ptr<RecordBatch> batch) {
  ProduceBatchRequest request;
  request.topic = topic;
  request.partition = partition;
  request.batch = std::move(batch);
  if (producer > 0) {
    MutexLock lock(part.partition_mu);
    request.producer_id = producer;
    std::int64_t& next = part.next_sequence[producer];
    request.first_sequence = next;
    next += std::int64_t(request.batch->size());
  }
  return request;
}

Result<ProduceBatchRequest> BrokerCluster::Prepare(ProducerId producer,
                                                   const std::string& topic,
                                                   std::string key,
                                                   std::string value,
                                                   Headers headers) {
  Topic* t = FindTopic(topic);
  if (t == nullptr) return UnknownTopicError(topic);
  if (!KnownProducer(producer)) return UnknownProducerError(producer);
  const int partition = PickPartition(*t, key);
  return Pin(producer, topic, t->partitions[std::size_t(partition)],
             partition, OneRecord(key, value, headers));
}

Result<ProduceBatchRequest> BrokerCluster::PrepareBatch(
    ProducerId producer, const std::string& topic, int partition,
    RecordBatchBuilder& builder) {
  if (builder.empty()) return EmptyBatchError();
  auto found = FindPartition(topic, partition);
  if (!found.ok()) return found.status();
  if (!KnownProducer(producer)) return UnknownProducerError(producer);
  return Pin(producer, topic, **found, partition, builder.Build());
}

Result<ProduceAck> BrokerCluster::Produce(const ProduceBatchRequest& request) {
  auto found = FindPartition(request.topic, request.partition);
  if (!found.ok()) return found.status();
  Partition& part = **found;
  MutexLock lock(part.partition_mu);
  Result<ProduceAck> ack = ProduceBatchLocked(part, request);
  // A consumer registers on the doorbell before its re-check fetch takes
  // this lock, so reading the count here, under the lock, cannot miss it.
  // Nothing is written on the produce path unless someone sleeps.
  const bool ring =
      ack.ok() && !ack->duplicate && part.doorbell->sleepers() > 0;
  lock.Unlock();
  if (ring) part.doorbell->Ring();
  return ack;
}

Result<ProduceAck> BrokerCluster::Produce(const std::string& topic,
                                          std::string key, std::string value,
                                          Headers headers) {
  Topic* t = FindTopic(topic);
  if (t == nullptr) return UnknownTopicError(topic);
  const int partition = PickPartition(*t, key);
  return ProduceTo(topic, partition, std::move(key), std::move(value),
                   std::move(headers));
}

Result<ProduceAck> BrokerCluster::ProduceTo(const std::string& topic,
                                            int partition, std::string key,
                                            std::string value,
                                            Headers headers) {
  ProduceBatchRequest request;
  request.topic = topic;
  request.partition = partition;
  request.batch = OneRecord(key, value, headers);
  return Produce(request);
}

METRO_NOALLOC Result<ProduceAck> BrokerCluster::ProduceBatchLocked(
    Partition& part, const ProduceBatchRequest& request) {
  if (request.batch == nullptr || request.batch->empty()) {
    return EmptyBatchError();
  }
  if (part.leader < 0) {
    c_no_leader_->Increment();
    return NoLeaderError(request.topic, request.partition);
  }
  if (int(part.isr.size()) < quorum()) {
    c_quorum_failures_->Increment();
    return QuorumError(request.topic, request.partition,
                       int(part.isr.size()), quorum());
  }
  BrokerNode::Replica& lead = part.On(part.leader);
  const std::int64_t count = std::int64_t(request.batch->size());
  const SequenceTable::Probe probe = lead.sequences.CheckRange(
      request.producer_id, request.first_sequence, count);
  if (probe.verdict == SequenceTable::Verdict::kDuplicate) {
    c_duplicates_suppressed_->Increment();
    ProduceAck ack;
    ack.partition = request.partition;
    ack.offset = probe.duplicate_offset;
    ack.count = count;
    ack.duplicate = true;
    return ack;
  }
  if (probe.verdict == SequenceTable::Verdict::kTooOld) {
    // The range fell below the broker's tracked window, so it cannot be
    // told apart from an already-appended one. Rejecting is the only safe
    // answer: appending risks a duplicate, a duplicate-ack risks silent
    // loss. Terminal for this prepared request — the producer must
    // re-prepare.
    c_sequence_too_old_->Increment();
    return TooOldError(request);
  }
  if (probe.verdict == SequenceTable::Verdict::kOverlap) {
    c_sequence_overlap_->Increment();
    return OverlapError(request, count);
  }
  if (request.producer_id <= 0 && request.batch->committed()) {
    // Without idempotence there is no dedup to absorb the resubmission, and
    // re-sealing a batch that live logs already share would mutate it under
    // them — refuse instead.
    return ResubmitError(request);
  }
  if (config_.max_partition_backlog > 0 &&
      lead.log.size() + count > config_.max_partition_backlog) {
    c_backpressure_->Increment();
    return BacklogError(request, config_.max_partition_backlog);
  }
  // Assign the batch its identity — offsets, broker timestamp, idempotence
  // range — and append to the leader. A rolled-back attempt re-seals on
  // retry; a committed one never reaches here (dedup or the guard above).
  request.batch->Seal(lead.log.end_offset(), clock_->Now(),
                      request.producer_id, request.first_sequence);
  const std::int64_t base = lead.log.AppendBatch(request.batch);
  // acks=quorum via synchronous replication: every ISR member appends before
  // the ack; quorum was pre-checked above, so the acked batch is on at
  // least `quorum()` replicas when the caller sees it. Replication shares
  // the leader's immutable batch — a refcount bump per member, not a
  // payload copy. A replication failure (defensive — ISR logs cannot
  // diverge under synchronous appends) rolls the append back everywhere so
  // an errored produce leaves no record: the producer may then safely
  // retry without duplicating.
  for (std::size_t i = 0; i < part.isr.size(); ++i) {
    const int node = part.isr[i];
    if (node == part.leader) continue;
    const Status replicated = part.On(node).log.AppendReplicaBatch(
        request.batch, std::size_t(count));
    if (!replicated.ok()) {
      lead.log.TruncateTo(base);
      for (std::size_t j = 0; j < i; ++j) {
        const int prior = part.isr[j];
        if (prior == part.leader) continue;
        part.On(prior).log.TruncateTo(base);
      }
      return DivergenceError(request, replicated);
    }
  }
  // The batch is durable on the full ISR; only now fold its sequence range
  // into the dedup tables (a rolled-back attempt must stay fresh for its
  // retry) and mark it committed.
  for (const int node : part.isr) {
    part.On(node).sequences.ObserveRange(
        request.producer_id, request.first_sequence, count, base);
  }
  request.batch->MarkCommitted();
  part.high_water = lead.log.end_offset();
  c_records_produced_->Increment(count);
  c_batches_produced_->Increment();
  c_bytes_produced_->Increment(std::int64_t(request.batch->key_value_bytes()));
  if (part.isr.size() > 1) {
    c_replica_bytes_shared_->Increment(
        std::int64_t(request.batch->payload_bytes()) *
        std::int64_t(part.isr.size() - 1));
  }
  ProduceAck ack;
  ack.partition = request.partition;
  ack.offset = base;
  ack.count = count;
  ack.timestamp = request.batch->timestamp();
  return ack;
}

METRO_NOALLOC Result<BatchView> BrokerCluster::FetchBatch(
    const std::string& topic, int partition, std::int64_t offset,
    std::size_t max_records) const {
  auto found = FindPartition(topic, partition);
  if (!found.ok()) return found.status();
  const Partition& part = **found;
  MutexLock lock(part.partition_mu);
  if (part.leader < 0) return NoLeaderError(topic, partition);
  return part.On(part.leader).log.FetchBatch(offset, max_records,
                                             part.high_water);
}

Result<PartitionInfo> BrokerCluster::GetPartitionInfo(const std::string& topic,
                                                      int partition) const {
  auto found = FindPartition(topic, partition);
  if (!found.ok()) return found.status();
  const Partition& part = **found;
  MutexLock lock(part.partition_mu);
  if (part.leader < 0) return NoLeaderError(topic, partition);
  PartitionInfo info;
  info.partition = partition;
  info.begin_offset = part.On(part.leader).log.begin_offset();
  info.end_offset = part.high_water;
  return info;
}

Result<PartitionView> BrokerCluster::View(const std::string& topic,
                                          int partition) const {
  auto found = FindPartition(topic, partition);
  if (!found.ok()) return found.status();
  const Partition& part = **found;
  MutexLock lock(part.partition_mu);
  PartitionView view;
  view.leader = part.leader;
  view.replicas = part.replicas;
  view.isr = part.isr;
  view.high_water_mark = part.high_water;
  const PartitionLog& sample =
      part.On(part.leader >= 0 ? part.leader : part.replicas.front()).log;
  view.begin_offset = sample.begin_offset();
  view.end_offset = sample.end_offset();
  return view;
}

Result<int> BrokerCluster::PreferredLeader(const std::string& topic,
                                           int partition) const {
  auto found = FindPartition(topic, partition);
  if (!found.ok()) return found.status();
  return (*found)->replicas.front();  // placement is fixed: no lock
}

Result<const Doorbell*> BrokerCluster::TopicDoorbell(
    const std::string& topic) const {
  const Topic* t = FindTopic(topic);
  if (t == nullptr) return UnknownTopicError(topic);
  return &t->doorbell;
}

bool BrokerCluster::AwaitRecords(const std::string& group,
                                 const std::string& topic,
                                 const std::vector<int>& partitions,
                                 TimeNs max_wait) {
  Topic* t = FindTopic(topic);
  if (t == nullptr) return false;
  // Register first, then re-check each high-water mark under the partition
  // lock Produce appends under (mq/doorbell.h has why nothing is lost).
  Doorbell::Waiter waiter(t->doorbell);
  for (const int p : partitions) {
    if (p < 0 || std::size_t(p) >= t->partitions.size()) continue;
    const std::int64_t committed = groups_.Committed(group, topic, p);
    const Partition& part = t->partitions[std::size_t(p)];
    MutexLock lock(part.partition_mu);
    if (part.leader >= 0 && part.high_water > committed) return true;
  }
  return waiter.Park(max_wait);
}

Result<int> BrokerCluster::LeaderOf(const std::string& topic,
                                    int partition) const {
  auto found = FindPartition(topic, partition);
  if (!found.ok()) return found.status();
  const Partition& part = **found;
  MutexLock lock(part.partition_mu);
  return part.leader;
}

std::int64_t BrokerCluster::EnforceRetention(TimeNs retention) {
  MutexLock lock(mu_);
  const TimeNs cutoff = clock_->Now() - retention;
  std::int64_t dropped = 0;
  for (const auto& topic : topics_) {
    for (Partition& part : topic->partitions) {
      MutexLock part_lock(part.partition_mu);
      // The janitor runs on every replica — dead nodes included — so the
      // retention floors stay aligned and a revived follower resyncs
      // against the same window the leader retains.
      for (std::size_t i = 0; i < part.replicas.size(); ++i) {
        const std::int64_t n = part.storage[i]->log.EnforceRetention(cutoff);
        if (part.replicas[i] == part.leader) dropped += n;
      }
    }
  }
  return dropped;
}

Status BrokerCluster::KillNode(int node) {
  std::vector<ClusterEvent> events;
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("node " + std::to_string(node) +
                                " out of range");
  }
  BrokerNode& killed = *nodes_[std::size_t(node)];
  if (!killed.up()) return Status::Ok();  // already dead
  killed.Kill();
  {
    ClusterEvent event;
    event.kind = ClusterEvent::Kind::kNodeKilled;
    event.node = node;
    events.push_back(std::move(event));
  }
  for (const auto& [name, topic] : TopicsLocked()) {
    for (std::size_t p = 0; p < topic->partitions.size(); ++p) {
      Partition& part = topic->partitions[p];
      MutexLock part_lock(part.partition_mu);
      if (!Contains(part.isr, node)) continue;
      const std::vector<int> old_isr = part.isr;
      part.isr.erase(std::find(part.isr.begin(), part.isr.end(), node));
      {
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kIsrShrink;
        event.topic = name;
        event.partition = int(p);
        event.node = node;
        events.push_back(std::move(event));
      }
      if (part.leader != node) continue;
      if (part.isr.empty()) {
        // The last in-sync replica died. Remember who was in sync at that
        // moment: only those replicas hold every acked record, so only they
        // may be elected when nodes come back (no unclean election).
        part.final_isr = old_isr;
        part.leader = -1;
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kQuorumLost;
        event.topic = name;
        event.partition = int(p);
        event.node = node;
        events.push_back(std::move(event));
      } else {
        // ISR members hold every acked record by the synchronous-replication
        // invariant, so the first survivor in replica order takes over with
        // the high-water mark intact.
        const int successor = part.isr.front();
        part.leader = successor;
        c_failovers_->Increment();
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kFailover;
        event.topic = name;
        event.partition = int(p);
        event.node = successor;
        event.prev_node = node;
        events.push_back(std::move(event));
      }
    }
  }
  lock.Unlock();
  Emit(std::move(events));
  return Status::Ok();
}

Status BrokerNode::Replica::ResyncFrom(const Replica& leader) {
  // A follower can never be ahead of the leader (appends are synchronous
  // across the ISR), but truncate defensively before sharing the suffix.
  log.TruncateTo(leader.log.end_offset());
  if (log.end_offset() < leader.log.begin_offset()) {
    // The follower's window fell entirely behind the leader's retention
    // floor; restart it from the floor. Dedup state from records older than
    // the retained window is rebuilt only from what the leader still holds.
    log.Reset(leader.log.begin_offset());
    sequences.Clear();
  }
  while (log.end_offset() < leader.log.end_offset()) {
    const std::int64_t off = log.end_offset();
    // The leader segment holding `off`, at its retained count: a segment
    // `TruncateTo` shortened is shared short.
    const BatchView seg = leader.log.SegmentAt(off);
    METRO_CHECK(!seg.empty(), "leader retains no segment at %lld",
                (long long)off);
    const std::int64_t base = seg.batch()->base_offset();
    if (base != off) {
      // The follower's end falls inside this leader segment: drop its
      // partial copy and share the segment whole. Retention trims every
      // replica's front by the same whole batches, so the follower's floor
      // never lies inside a leader segment and the truncation reaches `base`.
      log.TruncateTo(base);
      METRO_CHECK(log.end_offset() == base,
                  "follower floor %lld inside the leader segment at %lld",
                  (long long)log.begin_offset(), (long long)base);
      continue;
    }
    METRO_RETURN_IF_ERROR(log.AppendReplicaBatch(seg.batch(), seg.size()));
    sequences.ObserveRange(seg.batch()->producer_id(),
                           seg.batch()->first_sequence(),
                           std::int64_t(seg.size()), base);
  }
  return Status::Ok();
}

void BrokerCluster::ResyncReplicaLocked(const std::string& topic, int index,
                                        Partition& part, int node,
                                        std::vector<ClusterEvent>& events) {
  if (Contains(part.isr, node)) return;
  // Divergent follower state: the follower stays out of the ISR and the
  // next revive retries from its end offset.
  if (!part.On(node).ResyncFrom(part.On(part.leader)).ok()) return;
  // Rejoin the ISR, keeping it in replica (preferred-leader) order.
  std::vector<int> isr;
  for (const int r : part.replicas) {
    if (r == node || Contains(part.isr, r)) isr.push_back(r);
  }
  part.isr = std::move(isr);
  ClusterEvent event;
  event.kind = ClusterEvent::Kind::kIsrExpand;
  event.topic = topic;
  event.partition = index;
  event.node = node;
  events.push_back(std::move(event));
}

Status BrokerCluster::ReviveNode(int node) {
  std::vector<ClusterEvent> events;
  std::vector<Doorbell*> rings;
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("node " + std::to_string(node) +
                                " out of range");
  }
  BrokerNode& revived = *nodes_[std::size_t(node)];
  if (revived.up()) return Status::Ok();  // already alive
  revived.Revive();
  {
    ClusterEvent event;
    event.kind = ClusterEvent::Kind::kNodeRevived;
    event.node = node;
    events.push_back(std::move(event));
  }
  for (const auto& [name, topic] : TopicsLocked()) {
    for (std::size_t p = 0; p < topic->partitions.size(); ++p) {
      Partition& part = topic->partitions[p];
      if (!Contains(part.replicas, node)) continue;
      MutexLock part_lock(part.partition_mu);
      if (part.leader >= 0) {
        ResyncReplicaLocked(name, int(p), part, node, events);
        continue;
      }
      // Leaderless partition: elect the revived node only if it was in the
      // final ISR (an empty snapshot means the partition never had a leader,
      // so nothing acked can be lost). Anyone else waits, out of the ISR,
      // for a final-ISR member to return.
      if (!part.final_isr.empty() && !Contains(part.final_isr, node)) continue;
      part.leader = node;
      part.isr = {node};
      part.high_water = part.On(node).log.end_offset();
      if (part.doorbell->sleepers() > 0) rings.push_back(part.doorbell);
      {
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kLeaderElected;
        event.topic = name;
        event.partition = int(p);
        event.node = node;
        events.push_back(std::move(event));
      }
      // Bring the other survivors back in sync under the new leader.
      for (const int r : part.replicas) {
        if (r != node && nodes_[std::size_t(r)]->up()) {
          ResyncReplicaLocked(name, int(p), part, r, events);
        }
      }
    }
  }
  lock.Unlock();
  for (Doorbell* bell : rings) bell->Ring();
  Emit(std::move(events));
  return Status::Ok();
}

Result<bool> BrokerCluster::NodeUp(int node) const {
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("node " + std::to_string(node) +
                                " out of range");
  }
  return nodes_[std::size_t(node)]->up();
}

Status BrokerCluster::Probe() const {
  MutexLock lock(mu_);
  for (const auto& [name, topic] : TopicsLocked()) {
    for (std::size_t p = 0; p < topic->partitions.size(); ++p) {
      const Partition& part = topic->partitions[p];
      MutexLock part_lock(part.partition_mu);
      if (part.leader < 0) return NoLeaderError(name, int(p));
      if (int(part.isr.size()) < quorum()) {
        return QuorumError(name, int(p), int(part.isr.size()), quorum());
      }
    }
  }
  return Status::Ok();
}

Result<std::vector<int>> BrokerCluster::JoinGroup(const std::string& group,
                                                  const std::string& topic,
                                                  const std::string& member) {
  const Topic* t = FindTopic(topic);
  if (t == nullptr) return UnknownTopicError(topic);
  return groups_.Join(group, topic, member, int(t->partitions.size()));
}

Status BrokerCluster::LeaveGroup(const std::string& group,
                                 const std::string& member) {
  auto topic = groups_.TopicOf(group);
  if (!topic.ok()) return topic.status();
  const Topic* t = FindTopic(*topic);
  const int partitions = t == nullptr ? 0 : int(t->partitions.size());
  return groups_.Leave(group, member, partitions);
}

std::vector<int> BrokerCluster::Assignment(const std::string& group,
                                           const std::string& member) const {
  return groups_.Assignment(group, member);
}

Status BrokerCluster::CommitOffset(const std::string& group,
                                   const std::string& topic, int partition,
                                   std::int64_t offset) {
  Topic* t = FindTopic(topic);
  if (t == nullptr) return UnknownTopicError(topic);
  const int partitions = int(t->partitions.size());
  std::int64_t end = 0;
  if (partition >= 0 && partition < partitions) {
    const Partition& part = t->partitions[std::size_t(partition)];
    MutexLock lock(part.partition_mu);
    end = part.high_water;
  }
  return groups_.Commit(group, topic, partition, offset, partitions, end);
}

std::int64_t BrokerCluster::CommittedOffset(const std::string& group,
                                            const std::string& topic,
                                            int partition) const {
  return groups_.Committed(group, topic, partition);
}

Result<std::int64_t> BrokerCluster::Lag(const std::string& group) const {
  auto topic = groups_.TopicOf(group);
  if (!topic.ok()) return topic.status();
  auto committed = groups_.CommittedAll(group);
  if (!committed.ok()) return committed.status();
  const Topic* t = FindTopic(*topic);
  if (t == nullptr) return UnknownTopicError(*topic);
  std::int64_t lag = 0;
  for (std::size_t p = 0; p < t->partitions.size(); ++p) {
    const auto cit = committed->find(int(p));
    const std::int64_t done = cit == committed->end() ? 0 : cit->second;
    const Partition& part = t->partitions[p];
    MutexLock lock(part.partition_mu);
    lag += std::max<std::int64_t>(part.high_water - done, 0);
  }
  return lag;
}

}  // namespace metro::mq
