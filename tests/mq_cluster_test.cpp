// Tests for the replicated broker cluster: deterministic replica placement,
// quorum-acked produce, leader failover, unclean-election prevention, the
// idempotent produce path, bounded backlogs, consumer-group redelivery
// across failover, the chaos acceptance run (random node kills with zero
// acked-record loss and no duplicate delivery), the concurrency run
// (producers, a consumer and node kills racing on one wall-clock cluster),
// and the consumer wake-up doorbell.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mq/broker_cluster.h"
#include "mq_drain.h"
#include "resilience/chaos.h"
#include "util/clock.h"
#include "util/rng.h"

namespace metro::mq {
namespace {

using resilience::chaos::FaultPlan;
using resilience::chaos::FaultTargets;

// ------------------------------------------------------------- Placement

TEST(BrokerClusterTest, PlacementIsDeterministicAndDistinct) {
  SimClock clock;
  BrokerClusterConfig config;
  config.nodes = 5;
  config.replication_factor = 3;
  BrokerCluster a(clock, config);
  BrokerCluster b(clock, config);
  ASSERT_TRUE(a.CreateTopic("frames", 4).ok());
  ASSERT_TRUE(b.CreateTopic("frames", 4).ok());
  for (int p = 0; p < 4; ++p) {
    const auto va = *a.View("frames", p);
    const auto vb = *b.View("frames", p);
    ASSERT_EQ(va.replicas.size(), 3u);
    EXPECT_EQ(va.replicas, vb.replicas);  // same (topic, partition) -> same set
    EXPECT_EQ(std::set<int>(va.replicas.begin(), va.replicas.end()).size(),
              3u);
    // The preferred leader leads while healthy, and the full replica set
    // starts in sync.
    EXPECT_EQ(va.leader, va.replicas[0]);
    EXPECT_EQ(va.leader, *a.PreferredLeader("frames", p));
    EXPECT_EQ(va.isr, va.replicas);
    EXPECT_EQ(va.high_water_mark, 0);
  }
  EXPECT_EQ(a.CreateTopic("frames", 4).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(a.View("frames", 9).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.View("nope", 0).status().code(), StatusCode::kNotFound);
}

TEST(BrokerClusterTest, QuorumProduceAdvancesHighWaterMark) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  for (int i = 0; i < 3; ++i) {
    const auto ack = cluster.ProduceTo("t", 0, "k", "v" + std::to_string(i));
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->offset, i);
    EXPECT_FALSE(ack->duplicate);
  }
  const auto view = *cluster.View("t", 0);
  EXPECT_EQ(view.high_water_mark, 3);
  EXPECT_EQ(view.end_offset, 3);
  const auto records = Drain(cluster, "t", 0, 0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[1].value(), "v1");
}

// -------------------------------------------------------------- Failover

TEST(BrokerClusterTest, LeaderKillFailsOverWithoutLosingAckedRecords) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.ProduceTo("t", 0, "k", "v" + std::to_string(i)).ok());
  }
  const auto before = *cluster.View("t", 0);
  ASSERT_TRUE(cluster.KillNode(before.leader).ok());

  const auto after = *cluster.View("t", 0);
  EXPECT_NE(after.leader, before.leader);
  EXPECT_EQ(after.leader, before.isr[1]);  // ISR order decides succession
  EXPECT_EQ(after.isr.size(), 2u);
  EXPECT_EQ(after.high_water_mark, 10);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.failovers").value(), 1);

  // Every acked record survives on the new leader, and produce continues
  // against the two-member ISR (still at quorum).
  const auto records = Drain(cluster, "t", 0, 0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 10u);
  EXPECT_TRUE(cluster.ProduceTo("t", 0, "k", "v10").ok());
  EXPECT_EQ(cluster.View("t", 0)->high_water_mark, 11);
}

TEST(BrokerClusterTest, BelowQuorumProduceIsUnavailableUntilRevival) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  ASSERT_TRUE(cluster.ProduceTo("t", 0, "k", "acked").ok());
  const auto view = *cluster.View("t", 0);
  ASSERT_TRUE(cluster.KillNode(view.replicas[1]).ok());
  ASSERT_TRUE(cluster.KillNode(view.replicas[2]).ok());

  // Leader alive but ISR of one < quorum of two: fail the produce rather
  // than ack a record only one machine holds.
  const auto nack = cluster.ProduceTo("t", 0, "k", "lost?");
  EXPECT_EQ(nack.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(cluster.metrics().GetCounter("mq.quorum_failures").value(), 1);
  EXPECT_FALSE(cluster.Probe().ok());

  ASSERT_TRUE(cluster.ReviveNode(view.replicas[1]).ok());
  EXPECT_TRUE(cluster.ProduceTo("t", 0, "k", "back").ok());
  ASSERT_TRUE(cluster.ReviveNode(view.replicas[2]).ok());
  EXPECT_TRUE(cluster.Probe().ok());
  EXPECT_EQ(cluster.View("t", 0)->isr.size(), 3u);
}

TEST(BrokerClusterTest, StaleReplicaCannotWinUncleanElection) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const auto view = *cluster.View("t", 0);
  const int r0 = view.replicas[0], r1 = view.replicas[1],
            r2 = view.replicas[2];

  ASSERT_TRUE(cluster.ProduceTo("t", 0, "k", "a").ok());
  ASSERT_TRUE(cluster.KillNode(r1).ok());
  // Acked by {r0, r2}; r1 never saw it.
  ASSERT_TRUE(cluster.ProduceTo("t", 0, "k", "b").ok());
  ASSERT_TRUE(cluster.KillNode(r2).ok());
  EXPECT_EQ(cluster.ProduceTo("t", 0, "k", "c").status().code(),
            StatusCode::kUnavailable);  // below quorum, never acked
  ASSERT_TRUE(cluster.KillNode(r0).ok());
  EXPECT_EQ(cluster.View("t", 0)->leader, -1);

  // The stale replica returns first. Electing it would erase "b", so the
  // partition stays leaderless instead.
  ASSERT_TRUE(cluster.ReviveNode(r1).ok());
  EXPECT_EQ(cluster.View("t", 0)->leader, -1);
  EXPECT_EQ(cluster.ProduceTo("t", 0, "k", "d").status().code(),
            StatusCode::kUnavailable);
  EXPECT_GE(cluster.metrics().GetCounter("mq.no_leader").value(), 1);

  // A member of the final ISR returns: leadership resumes, the stale
  // replica is resynced, and no acked record went missing.
  ASSERT_TRUE(cluster.ReviveNode(r0).ok());
  const auto healed = *cluster.View("t", 0);
  EXPECT_EQ(healed.leader, r0);
  ASSERT_TRUE(cluster.ProduceTo("t", 0, "k", "e").ok());
  const auto records = Drain(cluster, "t", 0, 0);
  ASSERT_TRUE(records.ok());
  std::vector<std::string> values;
  for (const RecordView& rec : *records) values.emplace_back(rec.value());
  EXPECT_EQ(values, (std::vector<std::string>{"a", "b", "e"}));
}

// ---------------------------------------------------------------- Resync

// A sealed batch at `base` holding `keys`, producer 7's sequences from
// `first_sequence` on; every record carries an "n" header equal to its key.
std::shared_ptr<RecordBatch> Sealed(std::int64_t base,
                                    std::int64_t first_sequence,
                                    const std::vector<std::string>& keys) {
  RecordBatchBuilder builder;
  for (const std::string& key : keys) builder.Add(key, "v", {{"n", key}});
  auto batch = builder.Build();
  batch->Seal(base, /*timestamp=*/1, /*producer_id=*/7, first_sequence);
  return batch;
}

// The resynced follower reads back the leader's offsets, keys and headers
// from the same shared batches, and gives the leader's dedup verdict for
// every sequence below `sequences` and for every two-sequence range.
void ExpectResynced(const BrokerNode::Replica& leader,
                    const BrokerNode::Replica& follower,
                    std::int64_t sequences) {
  const std::int64_t end = leader.log.end_offset();
  ASSERT_EQ(follower.log.begin_offset(), leader.log.begin_offset());
  ASSERT_EQ(follower.log.end_offset(), end);
  for (std::int64_t off = leader.log.begin_offset(); off < end; ++off) {
    const auto want = leader.log.FetchBatch(off, 1, end);
    const auto got = follower.log.FetchBatch(off, 1, end);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ(got->batch(), want->batch());  // shared, not copied
    EXPECT_EQ((*got)[0].offset(), off);
    EXPECT_EQ((*got)[0].key(), (*want)[0].key());
    EXPECT_EQ((*got)[0].FindHeader("n"), (*want)[0].key());
  }
  for (std::int64_t seq = 0; seq < sequences; ++seq) {
    for (const std::int64_t count : {1, 2}) {
      const auto want = leader.sequences.CheckRange(7, seq, count);
      const auto got = follower.sequences.CheckRange(7, seq, count);
      EXPECT_EQ(got.verdict, want.verdict) << seq << "+" << count;
      EXPECT_EQ(got.duplicate_offset, want.duplicate_offset) << seq;
    }
  }
}

TEST(ReplicaResyncTest, FollowerEndInsideLeaderSegmentSharesItWhole) {
  BrokerNode::Replica leader, follower;
  leader.log.AppendBatch(Sealed(0, 0, {"a0", "a1", "a2", "a3"}));
  leader.log.AppendBatch(Sealed(4, 4, {"b0", "b1", "b2"}));
  leader.sequences.ObserveRange(7, 0, 7, 0);
  // The follower holds only the first two records of the leader's first
  // segment: its end (2) falls inside the segment [0, 4).
  ASSERT_TRUE(
      follower.log.AppendReplicaBatch(leader.log.SegmentAt(0).batch(), 2)
          .ok());
  follower.sequences.ObserveRange(7, 0, 2, 0);

  ASSERT_TRUE(follower.ResyncFrom(leader).ok());
  EXPECT_EQ(follower.log.FetchBatch(0, 10, 7)->size(), 4u);  // one segment
  ExpectResynced(leader, follower, 8);
}

TEST(ReplicaResyncTest, ShortenedLeaderTailSegmentIsSharedShort) {
  BrokerNode::Replica leader, follower;
  leader.log.AppendBatch(Sealed(0, 0, {"a0", "a1", "a2", "a3"}));
  leader.log.AppendBatch(Sealed(4, 4, {"b0", "b1", "b2"}));
  EXPECT_EQ(leader.log.TruncateTo(6), 1);  // the tail keeps b0, b1
  leader.sequences.ObserveRange(7, 0, 6, 0);
  ASSERT_TRUE(
      follower.log.AppendReplicaBatch(leader.log.SegmentAt(0).batch(), 4)
          .ok());
  follower.sequences.ObserveRange(7, 0, 4, 0);

  ASSERT_TRUE(follower.ResyncFrom(leader).ok());
  EXPECT_EQ(follower.log.SegmentAt(4).size(), 2u);
  ExpectResynced(leader, follower, 8);
  // The dropped b2 stays fresh on both: its sequence was never replicated.
  EXPECT_EQ(follower.sequences.Check(7, 6).verdict,
            SequenceTable::Verdict::kFresh);
}

// ----------------------------------------------------------- Idempotence

TEST(BrokerClusterTest, PreparedRequestRetriesAreDeduplicated) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 2).ok());
  const ProducerId producer = cluster.CreateProducer();
  ASSERT_GE(producer, 1);

  const auto request = cluster.Prepare(producer, "t", "k", "v");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->first_sequence, 0);
  const auto first = cluster.Produce(*request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->duplicate);

  // A client-side retry of the same prepared request is absorbed.
  const auto retry = cluster.Produce(*request);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->duplicate);
  EXPECT_EQ(retry->offset, first->offset);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.duplicates_suppressed").value(),
            1);

  // Fresh Prepares advance the per-partition sequence.
  const auto next = cluster.Prepare(producer, "t", "k", "v2");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->partition, request->partition);
  EXPECT_EQ(next->first_sequence, 1);
  EXPECT_EQ(cluster.Prepare(99, "t", "k", "v").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BrokerClusterTest, DuplicateDetectionSurvivesFailover) {
  // The dedup state replicates with the records, so a retry that lands on
  // the failed-over leader is still recognized.
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();
  const auto request = cluster.Prepare(producer, "t", "k", "v");
  ASSERT_TRUE(request.ok());
  const auto first = cluster.Produce(*request);
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE(cluster.KillNode(cluster.View("t", 0)->leader).ok());
  const auto retry = cluster.Produce(*request);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->duplicate);
  EXPECT_EQ(retry->offset, first->offset);
}

TEST(BrokerClusterTest, FailedLowSequenceRetryAfterLaterAppendIsNotDropped) {
  // A prepared request whose produce failed transiently (quorum lost) and
  // is retried only after a *higher* sequence from the same producer has
  // been appended was never appended itself: the retry must append it, not
  // misread the sequence gap as a duplicate and silently drop the record.
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();

  const auto early = cluster.Prepare(producer, "t", "k", "early");
  ASSERT_TRUE(early.ok());
  const auto view = *cluster.View("t", 0);
  ASSERT_TRUE(cluster.KillNode(view.replicas[1]).ok());
  ASSERT_TRUE(cluster.KillNode(view.replicas[2]).ok());
  EXPECT_EQ(cluster.Produce(*early).status().code(),
            StatusCode::kUnavailable);  // below quorum: nothing appended

  ASSERT_TRUE(cluster.ReviveNode(view.replicas[1]).ok());
  ASSERT_TRUE(cluster.ReviveNode(view.replicas[2]).ok());
  const auto late = cluster.Prepare(producer, "t", "k", "late");
  ASSERT_TRUE(late.ok());
  EXPECT_GT(late->first_sequence, early->first_sequence);
  ASSERT_TRUE(cluster.Produce(*late).ok());

  // The retried lower sequence is an unfilled gap — fresh, and acked with
  // its real offset.
  const auto retried = cluster.Produce(*early);
  ASSERT_TRUE(retried.ok());
  EXPECT_FALSE(retried->duplicate);
  EXPECT_EQ(retried->offset, 1);

  // Only now does re-submitting it dedup, and nothing was lost or doubled.
  const auto dup = cluster.Produce(*early);
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->duplicate);
  const auto records = Drain(cluster, "t", 0, 0);
  ASSERT_TRUE(records.ok());
  std::vector<std::string> values;
  for (const RecordView& rec : *records) values.emplace_back(rec.value());
  EXPECT_EQ(values, (std::vector<std::string>{"late", "early"}));
}

TEST(BrokerClusterTest, SequenceBelowTrackedWindowIsRejectedNotDropped) {
  // An abandoned prepared request (its sequence never produced) eventually
  // falls below the broker's tracked idempotence window. Submitting it then
  // must fail loudly — appending might duplicate, a duplicate-ack would be
  // silent loss.
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();
  const auto abandoned = cluster.Prepare(producer, "t", "k", "abandoned");
  ASSERT_TRUE(abandoned.ok());
  for (std::size_t i = 0; i <= SequenceTable::kMaxTracked; ++i) {
    const auto request = cluster.Prepare(producer, "t", "k", "v");
    ASSERT_TRUE(request.ok());
    ASSERT_TRUE(cluster.Produce(*request).ok());
  }
  const auto late = cluster.Produce(*abandoned);
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.sequence_too_old").value(), 1);
}

TEST(SequenceTableTest, TracksGapsExactlyAndForgetsOnlyAtTheWindowBound) {
  SequenceTable table;
  // Sequence 0 is never appended; 1..kMaxTracked land around the gap.
  for (std::int64_t seq = 1; seq <= std::int64_t(SequenceTable::kMaxTracked);
       ++seq) {
    table.ObserveRange(7, seq, 1, seq - 1);
  }
  // Within the window the gap stays retryable and appends stay duplicates.
  EXPECT_EQ(table.Check(7, 0).verdict, SequenceTable::Verdict::kFresh);
  EXPECT_EQ(table.Check(7, 1).verdict, SequenceTable::Verdict::kDuplicate);
  const auto last =
      table.Check(7, std::int64_t(SequenceTable::kMaxTracked));
  EXPECT_EQ(last.verdict, SequenceTable::Verdict::kDuplicate);
  EXPECT_EQ(last.duplicate_offset,
            std::int64_t(SequenceTable::kMaxTracked) - 1);
  // One more append overflows the window: the abandoned gap's status is
  // forgotten and its retry is rejected explicitly, never falsely deduped.
  const std::int64_t next = std::int64_t(SequenceTable::kMaxTracked) + 1;
  table.ObserveRange(7, next, 1, next - 1);
  EXPECT_EQ(table.Check(7, 0).verdict, SequenceTable::Verdict::kTooOld);
  EXPECT_EQ(table.Check(7, 1).verdict, SequenceTable::Verdict::kDuplicate);
  EXPECT_EQ(table.Check(7, next + 1).verdict, SequenceTable::Verdict::kFresh);
}

// ---------------------------------------------------------- Backpressure

TEST(BrokerClusterTest, BoundedBacklogRejectsWithResourceExhausted) {
  SimClock clock;
  BrokerClusterConfig config;
  config.max_partition_backlog = 4;
  BrokerCluster cluster(clock, config);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.ProduceTo("t", 0, "k", "v").ok());
  }
  const auto nack = cluster.ProduceTo("t", 0, "k", "overflow");
  EXPECT_EQ(nack.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.backpressure").value(), 1);

  // Retention trimming the backlog re-opens the partition.
  clock.Advance(10 * kSecond);
  EXPECT_EQ(cluster.EnforceRetention(kSecond), 4);
  EXPECT_TRUE(cluster.ProduceTo("t", 0, "k", "after").ok());
}

// ------------------------------------------------------- Keyless routing

TEST(BrokerClusterTest, KeylessProduceSkipsLeaderlessPartitions) {
  SimClock clock;
  BrokerClusterConfig config;
  config.nodes = 4;
  config.replication_factor = 1;  // one replica per partition, quorum of one
  BrokerCluster cluster(clock, config);
  ASSERT_TRUE(cluster.CreateTopic("t", 4).ok());
  ASSERT_TRUE(cluster.KillNode(*cluster.PreferredLeader("t", 0)).ok());

  std::set<int> used;
  for (int i = 0; i < 8; ++i) {
    const auto ack = cluster.Produce("t", "", "v");
    ASSERT_TRUE(ack.ok());
    used.insert(ack->partition);
  }
  EXPECT_EQ(used.count(0), 0u);  // the leaderless partition was skipped
  EXPECT_EQ(used.size(), 3u);
  EXPECT_GE(cluster.metrics().GetCounter("mq.roundrobin_skips").value(), 2);
}

// ------------------------------------------------------- Consumer groups

TEST(BrokerClusterTest, ConsumerResumesFromCommittedOffsetAfterFailover) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.ProduceTo("t", 0, "k", "v" + std::to_string(i)).ok());
  }
  const auto assignment = cluster.JoinGroup("g", "t", "m");
  ASSERT_TRUE(assignment.ok());
  ASSERT_EQ(assignment->size(), 1u);
  const auto batch = Drain(cluster, "t", 0, 0, 5);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(cluster.CommitOffset("g", "t", 0, 5).ok());
  EXPECT_EQ(cluster.Lag("g").value(), 5);

  // The leader dies with records 5..9 uncommitted. After failover the
  // consumer refetches from its committed offset — nothing skipped, the
  // in-flight batch is not replayed.
  ASSERT_TRUE(cluster.KillNode(cluster.View("t", 0)->leader).ok());
  const std::int64_t committed = cluster.CommittedOffset("g", "t", 0);
  EXPECT_EQ(committed, 5);
  const auto redelivered = Drain(cluster, "t", 0, committed);
  ASSERT_TRUE(redelivered.ok());
  ASSERT_EQ(redelivered->size(), 5u);
  EXPECT_EQ((*redelivered)[0].value(), "v5");
  ASSERT_TRUE(
      cluster.CommitOffset("g", "t", 0, redelivered->back().offset() + 1).ok());
  EXPECT_EQ(cluster.Lag("g").value(), 0);

  // Commits stay validated on the cluster path too.
  EXPECT_EQ(cluster.CommitOffset("g", "t", 7, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster.CommitOffset("g", "t", 0, 99).code(),
            StatusCode::kOutOfRange);
}

// ------------------------------------------------------ Chaos acceptance

TEST(BrokerClusterChaosTest, NoAckedLossNoDuplicateDeliveryUnderNodeKills) {
  SimClock clock;
  BrokerClusterConfig config;
  config.nodes = 5;
  BrokerCluster cluster(clock, config);
  ASSERT_TRUE(cluster.CreateTopic("frames", 2).ok());
  FaultTargets targets;
  targets.mq_cluster = &cluster;
  FaultPlan plan =
      FaultPlan::Random(0.9, kSecond, targets, {"frames"}, /*seed=*/11);
  ASSERT_GT(plan.size(), 0u);

  const ProducerId producer = cluster.CreateProducer();
  std::vector<std::string> acked;
  int shed = 0;
  for (int i = 0; i < 400; ++i) {
    clock.Advance(kSecond / 400);
    plan.ApplyUpTo(clock.Now(), targets);
    const std::string value = "v" + std::to_string(i);
    const auto request =
        cluster.Prepare(producer, "frames", "cam" + std::to_string(i % 8),
                        value);
    ASSERT_TRUE(request.ok());
    auto ack = cluster.Produce(*request);
    for (int r = 0; r < 3 && !ack.ok(); ++r) ack = cluster.Produce(*request);
    if (!ack.ok()) {
      ++shed;  // rejected below quorum — never acked, allowed to be lost
      continue;
    }
    acked.push_back(value);
    // Simulated client retry storm: re-submitting an acked request must be
    // absorbed as a duplicate, never re-appended.
    if (i % 10 == 0) {
      const auto dup = cluster.Produce(*request);
      if (dup.ok()) EXPECT_TRUE(dup->duplicate);
    }
  }
  plan.ApplyUpTo(kSecond, targets);  // a full replay ends healthy
  EXPECT_EQ(plan.applied(), plan.size());
  EXPECT_TRUE(cluster.Probe().ok());
  EXPECT_GT(acked.size(), 0u);

  std::map<std::string, int> delivered;
  for (int p = 0; p < 2; ++p) {
    const auto info = cluster.GetPartitionInfo("frames", p);
    ASSERT_TRUE(info.ok());
    const auto records = Drain(cluster, "frames", p, info->begin_offset);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(std::int64_t(records->size()),
              info->end_offset - info->begin_offset);
    for (const RecordView& rec : *records) {
      ++delivered[std::string(rec.value())];
    }
  }
  for (const std::string& value : acked) {
    EXPECT_EQ(delivered[value], 1) << "acked record " << value
                                   << " lost or duplicated";
  }
}

// -------------------------------------------------------- Batched produce

TEST(BrokerClusterTest, BatchedProduceSharesPayloadAcrossIsr) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();
  RecordBatchBuilder builder;
  Headers headers;
  headers["source"] = "cam-3";
  builder.Add("k0", "v0", headers);
  builder.Add("k1", "v1");
  builder.Add("k2", "v2");
  auto request = cluster.PrepareBatch(producer, "t", 0, builder);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->first_sequence, 0);
  const std::size_t payload = request->batch->payload_bytes();
  const auto ack = cluster.Produce(*request);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->offset, 0);
  EXPECT_EQ(ack->count, 3);

  EXPECT_EQ(cluster.metrics().GetCounter("mq.records_produced").value(), 3);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.batches_produced").value(), 1);
  // Followers share the leader's arena by reference: the bytes NOT copied
  // are payload * (isr - 1). With replication factor 3, that is 2x.
  EXPECT_EQ(
      std::size_t(
          cluster.metrics().GetCounter("mq.replica_bytes_shared").value()),
      payload * 2);

  // Zero-copy read-back, headers included.
  const auto view = cluster.FetchBatch("t", 0, 0, 10);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 3u);
  EXPECT_EQ((*view)[0].key(), "k0");
  ASSERT_TRUE((*view)[0].FindHeader("source").has_value());
  EXPECT_EQ(*(*view)[0].FindHeader("source"), "cam-3");
  EXPECT_EQ((*view)[2].sequence(), 2);
  EXPECT_EQ(view->next_offset(), 3);
  // A consumer parked at the high-water mark gets an empty view, not an
  // error.
  const auto parked = cluster.FetchBatch("t", 0, 3, 10);
  ASSERT_TRUE(parked.ok());
  EXPECT_TRUE(parked->empty());
}

TEST(BrokerClusterTest, BatchedRetryDeduplicatesWholeRange) {
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();
  RecordBatchBuilder builder;
  builder.Add("a", "1");
  builder.Add("b", "2");
  auto request = cluster.PrepareBatch(producer, "t", 0, builder);
  ASSERT_TRUE(request.ok());
  const auto first = cluster.Produce(*request);
  ASSERT_TRUE(first.ok());
  // The retry of the whole pinned range is suppressed and re-acked at the
  // original base offset.
  const auto retry = cluster.Produce(*request);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->duplicate);
  EXPECT_EQ(retry->offset, first->offset);
  EXPECT_EQ(retry->count, 2);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.duplicates_suppressed").value(),
            1);
  EXPECT_EQ(cluster.GetPartitionInfo("t", 0)->end_offset, 2);
}

TEST(BrokerClusterTest, BatchedRetryIsDeduplicatedAcrossFailover) {
  // The new leader rebuilds its sequence table from replicated *batches*
  // (ObserveRange on the follower path), so a batched retry crossing a
  // failover is suppressed exactly like a single-record one.
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();
  RecordBatchBuilder builder;
  builder.Add("a", "1");
  builder.Add("b", "2");
  builder.Add("c", "3");
  auto request = cluster.PrepareBatch(producer, "t", 0, builder);
  ASSERT_TRUE(request.ok());
  ASSERT_TRUE(cluster.Produce(*request).ok());
  const auto view = *cluster.View("t", 0);
  ASSERT_TRUE(cluster.KillNode(view.leader).ok());
  const auto retry = cluster.Produce(*request);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->duplicate);
  EXPECT_EQ(retry->offset, 0);
  EXPECT_EQ(cluster.GetPartitionInfo("t", 0)->end_offset, 3);
}

TEST(BrokerClusterTest, PartiallyAppendedRangeIsRejectedAsOverlap) {
  // A batch request whose sequence range partially intersects appended
  // history is a mis-built retry (a pinned batch lands whole or not at
  // all): rejected loudly, never half-deduplicated.
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();
  RecordBatchBuilder builder;
  builder.Add("a", "1");
  builder.Add("b", "2");
  builder.Add("c", "3");
  auto request = cluster.PrepareBatch(producer, "t", 0, builder);
  ASSERT_TRUE(request.ok());
  ASSERT_TRUE(cluster.Produce(*request).ok());  // sequences 0..2
  builder.Add("c", "3");
  builder.Add("d", "4");
  ProduceBatchRequest overlap;
  overlap.topic = "t";
  overlap.partition = 0;
  overlap.producer_id = producer;
  overlap.first_sequence = 2;  // straddles appended (2) and fresh (3)
  overlap.batch = builder.Build();
  const auto nack = cluster.Produce(overlap);
  EXPECT_EQ(nack.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.sequence_overlap").value(), 1);
  EXPECT_EQ(cluster.GetPartitionInfo("t", 0)->end_offset, 3);
}

TEST(BrokerClusterTest, CommittedNonIdempotentBatchCannotBeResubmitted) {
  // Producer 0 has no sequence range to dedup by; re-submitting its
  // already-committed batch must be rejected, not re-sealed into the log.
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  RecordBatchBuilder builder;
  builder.Add("a", "1");
  ProduceBatchRequest request;
  request.topic = "t";
  request.partition = 0;
  request.batch = builder.Build();
  ASSERT_TRUE(cluster.Produce(request).ok());
  const auto again = cluster.Produce(request);
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.GetPartitionInfo("t", 0)->end_offset, 1);
}

TEST(SequenceTableTest, RangeChecksClassifyWholeAgainstPartialOverlap) {
  SequenceTable table;
  table.ObserveRange(/*producer=*/7, /*first=*/0, /*count=*/3,
                     /*base_offset=*/100);
  // Whole-range retry: duplicate, re-acked at the remembered base offset.
  const auto whole = table.CheckRange(7, 0, 3);
  EXPECT_EQ(whole.verdict, SequenceTable::Verdict::kDuplicate);
  EXPECT_EQ(whole.duplicate_offset, 100);
  // A straddling range is an overlap; a strict sub-range is a duplicate
  // (every sequence in it was appended) and, since it ends at the
  // producer's highest appended sequence, carries the recovered offset.
  EXPECT_EQ(table.CheckRange(7, 2, 3).verdict,
            SequenceTable::Verdict::kOverlap);
  const auto sub = table.CheckRange(7, 1, 2);
  EXPECT_EQ(sub.verdict, SequenceTable::Verdict::kDuplicate);
  EXPECT_EQ(sub.duplicate_offset, 101);
  // Entirely-new range: fresh.
  EXPECT_EQ(table.CheckRange(7, 3, 4).verdict,
            SequenceTable::Verdict::kFresh);
  // Range folding is observable record by record.
  EXPECT_EQ(table.Check(7, 2).verdict, SequenceTable::Verdict::kDuplicate);
  EXPECT_EQ(table.Check(7, 3).verdict, SequenceTable::Verdict::kFresh);
}

// --------------------------------------------------- Sequence window edges

TEST(SequenceTableTest, GapSurvivesAtExactlyTheWindowBound) {
  // With the gap at 0 outstanding, appends 1..kMaxTracked put *exactly*
  // kMaxTracked sparse entries in the window — the bound itself must not
  // evict (off-by-one here silently shrinks the retry window).
  SequenceTable table;
  for (std::int64_t seq = 1; seq <= std::int64_t(SequenceTable::kMaxTracked);
       ++seq) {
    table.ObserveRange(9, seq, 1, seq - 1);
  }
  EXPECT_EQ(table.Check(9, 0).verdict, SequenceTable::Verdict::kFresh);
  EXPECT_EQ(table.Check(9, 1).verdict, SequenceTable::Verdict::kDuplicate);
  // One more append overflows: the gap's status falls off the window edge.
  const std::int64_t next = std::int64_t(SequenceTable::kMaxTracked) + 1;
  table.ObserveRange(9, next, 1, next - 1);
  EXPECT_EQ(table.Check(9, 0).verdict, SequenceTable::Verdict::kTooOld);
  // Batched ranges touching the forgotten region are kTooOld as well —
  // never a partial verdict that could half-append.
  EXPECT_EQ(table.CheckRange(9, 0, 2).verdict,
            SequenceTable::Verdict::kTooOld);
}

TEST(BrokerClusterTest, JustEvictedSequenceRetryFailsLoudNeverDuplicateAck) {
  // The retry of the sequence that just fell off the tracked window must
  // surface kFailedPrecondition (mq.sequence_too_old) — a silent
  // duplicate-ack would report a record as durable that may never have
  // landed.
  SimClock clock;
  BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const ProducerId producer = cluster.CreateProducer();
  const auto abandoned = cluster.Prepare(producer, "t", "k", "abandoned");
  ASSERT_TRUE(abandoned.ok());
  const std::int64_t before_end = cluster.GetPartitionInfo("t", 0)->end_offset;
  for (std::size_t i = 0; i <= SequenceTable::kMaxTracked; ++i) {
    const auto request = cluster.Prepare(producer, "t", "k", "v");
    ASSERT_TRUE(request.ok());
    ASSERT_TRUE(cluster.Produce(*request).ok());
  }
  const auto late = cluster.Produce(*abandoned);
  ASSERT_FALSE(late.ok());  // not an ack of any kind
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.metrics().GetCounter("mq.sequence_too_old").value(), 1);
  // The abandoned record was never appended by the rejected retry.
  const std::int64_t after_end = cluster.GetPartitionInfo("t", 0)->end_offset;
  EXPECT_EQ(after_end - before_end,
            std::int64_t(SequenceTable::kMaxTracked) + 1);
}

// ------------------------------------------------------------- Doorbell

// Parks a waiter on `topic`'s doorbell in its own thread, runs `poke` once
// the waiter has registered, and returns whether the park ended on a ring
// (true) or on `cap` (false).
bool ParkThenPoke(BrokerCluster& cluster, const std::string& topic,
                  TimeNs cap, const std::function<void()>& poke) {
  Doorbell& bell = *cluster.TopicDoorbell(topic).value();
  std::atomic<bool> rung{false};
  std::jthread waiter([&] {
    Doorbell::Waiter registration(bell);
    rung.store(registration.Park(cap));
  });
  while (bell.sleepers() == 0) std::this_thread::yield();
  // Let the waiter reach its park before poking.
  const TimeNs until = WallClock::Instance().Now() + kMillisecond;
  while (WallClock::Instance().Now() < until) std::this_thread::yield();
  poke();
  waiter.join();
  return rung.load();
}

TEST(DoorbellTest, ProduceToAnyPartitionWakesParkedWaiter) {
  BrokerCluster cluster(WallClock::Instance());
  ASSERT_TRUE(cluster.CreateTopic("t", 3).ok());
  for (int p = 0; p < 3; ++p) {
    const Stopwatch watch;
    EXPECT_TRUE(ParkThenPoke(cluster, "t", 10 * kSecond, [&] {
      EXPECT_TRUE(cluster.ProduceTo("t", p, "k", "v").ok());
    })) << "partition " << p;
    EXPECT_LT(watch.ElapsedNs(), 5 * kSecond) << "partition " << p;
  }
  EXPECT_EQ((*cluster.TopicDoorbell("t"))->sleepers(), 0);
}

TEST(DoorbellTest, LeaderElectedOnRevivalWakesParkedWaiter) {
  BrokerClusterConfig config;
  config.nodes = 1;
  config.replication_factor = 1;
  BrokerCluster cluster(WallClock::Instance(), config);
  ASSERT_TRUE(cluster.CreateTopic("t", 2).ok());
  ASSERT_TRUE(cluster.ProduceTo("t", 1, "k", "v").ok());
  ASSERT_TRUE(cluster.KillNode(0).ok());
  EXPECT_TRUE(ParkThenPoke(cluster, "t", 10 * kSecond, [&] {
    EXPECT_TRUE(cluster.ReviveNode(0).ok());
  }));
}

TEST(DoorbellTest, ProduceToAnotherTopicDoesNotWakeWaiter) {
  BrokerCluster cluster(WallClock::Instance());
  ASSERT_TRUE(cluster.CreateTopic("a", 2).ok());
  ASSERT_TRUE(cluster.CreateTopic("b", 2).ok());
  EXPECT_FALSE(ParkThenPoke(cluster, "a", 50 * kMillisecond, [&] {
    EXPECT_TRUE(cluster.ProduceTo("b", 0, "k", "v").ok());
    EXPECT_TRUE(cluster.ProduceTo("b", 1, "k", "v").ok());
  }));
}

// A producer and a consumer take turns: the producer appends one record and
// waits until the consumer has seen it; the consumer checks, registers,
// re-checks and parks. A lost wake-up would leave the consumer parked until
// its 10 s cap with the record already appended.
TEST(DoorbellTest, PingPongLosesNoWakeUp) {
  constexpr int kRounds = 10000;
  constexpr int kPartitions = 2;
  BrokerCluster cluster(WallClock::Instance());
  ASSERT_TRUE(cluster.CreateTopic("t", kPartitions).ok());
  Doorbell& bell = *cluster.TopicDoorbell("t").value();
  std::atomic<std::int64_t> seen{0};
  int expiries = 0;
  std::jthread consumer([&](std::stop_token stop) {
    // Records appended to the topic; each read takes the partition lock
    // the producer appends under, as a consumer's fetch does.
    const auto appended = [&] {
      std::int64_t total = 0;
      for (int p = 0; p < kPartitions; ++p) {
        total += cluster.GetPartitionInfo("t", p)->end_offset;
      }
      return total;
    };
    std::int64_t have = 0;
    while (have < kRounds && !stop.stop_requested()) {
      std::int64_t now = appended();
      if (now == have) {
        Doorbell::Waiter waiter(bell);
        now = appended();
        if (now == have) {
          if (!waiter.Park(10 * kSecond)) ++expiries;
          continue;
        }
      }
      have = now;
      seen.store(have, std::memory_order_release);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    const auto ack = cluster.ProduceTo("t", i % kPartitions, "k", "v");
    if (!ack.ok()) {
      ADD_FAILURE() << ack.status().message();
      break;
    }
    while (seen.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
  }
  consumer.request_stop();  // reached only early if a produce failed
  consumer.join();
  EXPECT_EQ(seen.load(), kRounds);
  EXPECT_EQ(expiries, 0);
}

// ------------------------------------------------------------ Concurrency

// Three idempotent producers, one FetchBatch + CommitOffset consumer and a
// seeded kill/revive thread race on one wall-clock cluster. Oracle: every
// acked record is fetched exactly once and no unacked record is fetched,
// fetched offsets rise strictly within each partition, and no partition's
// high-water mark ever decreases.
TEST(BrokerClusterConcurrencyTest, ProducersConsumerAndFailoverRace) {
  constexpr int kNodes = 5;
  constexpr int kPartitions = 6;
  constexpr int kProducers = 3;
  constexpr int kRecords = 3000;  // per producer
  BrokerClusterConfig config;
  config.nodes = kNodes;
  config.replication_factor = 3;
  BrokerCluster cluster(WallClock::Instance(), config);
  ASSERT_TRUE(cluster.CreateTopic("race", kPartitions).ok());
  ASSERT_TRUE(cluster.JoinGroup("g", "race", "c0").ok());

  // acked[p][j]: producer p's record j was acked. Each producer writes only
  // its own row; the consumer reads the rows after joining the producers.
  std::vector<std::vector<char>> acked(kProducers,
                                       std::vector<char>(kRecords, 0));
  std::atomic<int> producing{kProducers};
  std::atomic<bool> quiesced{false};  // producers done, every node revived
  std::vector<std::jthread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const ProducerId id = cluster.CreateProducer();
      for (int j = 0; j < kRecords; ++j) {
        const auto request = cluster.Prepare(
            id, "race", "key" + std::to_string((p * 31 + j) % 97),
            std::to_string(p) + "/" + std::to_string(j));
        EXPECT_TRUE(request.ok()) << request.status().message();
        if (!request.ok()) continue;
        for (int attempt = 0; attempt < 4; ++attempt) {
          const auto ack = cluster.Produce(*request);
          if (ack.ok()) {
            EXPECT_FALSE(ack->duplicate);  // failed attempts append nothing
            acked[std::size_t(p)][std::size_t(j)] = 1;
            break;
          }
          // Only a leaderless or below-quorum partition may refuse.
          EXPECT_EQ(ack.status().code(), StatusCode::kUnavailable)
              << ack.status().message();
        }
        // Hand the CPU over between records so the fault thread is not
        // starved of the locks it waits on.
        std::this_thread::yield();
      }
      producing.fetch_sub(1, std::memory_order_release);
    });
  }
  threads.emplace_back([&] {
    Rng rng(/*seed=*/2026);
    std::vector<char> down(kNodes, 0);
    int n_down = 0;
    while (producing.load(std::memory_order_acquire) > 0) {
      const int node = int(rng.UniformU64(kNodes));
      if (down[std::size_t(node)]) {
        EXPECT_TRUE(cluster.ReviveNode(node).ok());
        down[std::size_t(node)] = 0;
        --n_down;
      } else if (n_down < 3) {  // three down can take a whole replica set
        EXPECT_TRUE(cluster.KillNode(node).ok());
        down[std::size_t(node)] = 1;
        ++n_down;
      }
      // Let the data path run between faults.
      const TimeNs until = WallClock::Instance().Now() + 100 * 1000;
      while (WallClock::Instance().Now() < until &&
             producing.load(std::memory_order_acquire) > 0) {
        // Hand the CPU over between records so the fault thread is not
        // starved of the locks it waits on.
        std::this_thread::yield();
      }
    }
    for (int node = 0; node < kNodes; ++node) {
      EXPECT_TRUE(cluster.ReviveNode(node).ok());
    }
    quiesced.store(true, std::memory_order_release);
  });

  std::vector<std::vector<int>> seen(kProducers, std::vector<int>(kRecords, 0));
  std::vector<std::int64_t> cursor(kPartitions, 0);
  std::vector<std::int64_t> last_offset(kPartitions, -1);
  std::vector<std::int64_t> high_water(kPartitions, 0);
  std::int64_t malformed = 0;
  while (true) {
    const bool final_pass = quiesced.load(std::memory_order_acquire);
    bool progressed = false;
    for (int part = 0; part < kPartitions; ++part) {
      const auto view = cluster.View("race", part);
      ASSERT_TRUE(view.ok());
      EXPECT_GE(view->high_water_mark, high_water[std::size_t(part)])
          << "partition " << part << " high-water mark went backwards";
      high_water[std::size_t(part)] = view->high_water_mark;
      const auto batch =
          cluster.FetchBatch("race", part, cursor[std::size_t(part)], 64);
      if (!batch.ok()) {
        EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable)
            << batch.status().message();
        continue;
      }
      if (batch->empty()) continue;
      progressed = true;
      for (std::size_t i = 0; i < batch->size(); ++i) {
        const RecordView rec = (*batch)[i];
        EXPECT_GT(rec.offset(), last_offset[std::size_t(part)])
            << "partition " << part << " offsets not strictly rising";
        last_offset[std::size_t(part)] = rec.offset();
        const std::string value(rec.value());
        const std::size_t slash = value.find('/');
        const int p = slash == std::string::npos
                          ? -1
                          : std::stoi(value.substr(0, slash));
        const int j = p < 0 ? -1 : std::stoi(value.substr(slash + 1));
        if (p < 0 || p >= kProducers || j < 0 || j >= kRecords) {
          ++malformed;
          continue;
        }
        ++seen[std::size_t(p)][std::size_t(j)];
      }
      cursor[std::size_t(part)] = batch->next_offset();
      EXPECT_TRUE(
          cluster.CommitOffset("g", "race", part, cursor[std::size_t(part)])
              .ok());
    }
    if (final_pass && !progressed) break;
  }
  threads.clear();  // joins

  EXPECT_EQ(malformed, 0);
  EXPECT_TRUE(cluster.Probe().ok());
  EXPECT_EQ(cluster.Lag("g").value(), 0);
  int total_acked = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int j = 0; j < kRecords; ++j) {
      const int want = acked[std::size_t(p)][std::size_t(j)];
      total_acked += want;
      EXPECT_EQ(seen[std::size_t(p)][std::size_t(j)], want)
          << "record " << p << "/" << j
          << (want ? " acked but not fetched exactly once"
                   : " fetched but never acked");
    }
  }
  EXPECT_GT(total_acked, 0);
}

}  // namespace
}  // namespace metro::mq
