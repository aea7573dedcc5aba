// Tests for the partitioned message log on a single broker (a one-node,
// replication-factor-1 BrokerCluster): produce/fetch semantics, key
// partitioning, retention, partition outages, consumer-group rebalancing,
// and the PartitionLog fetch boundary contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mq/broker_cluster.h"
#include "mq_drain.h"

namespace metro::mq {
namespace {

// The single-broker deployment: one node, one replica per partition.
constexpr BrokerClusterConfig kSingleBroker{.nodes = 1,
                                            .replication_factor = 1};

TEST(SingleBrokerTest, CreateTopicValidation) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  EXPECT_TRUE(broker.CreateTopic("t", 3).ok());
  EXPECT_EQ(broker.CreateTopic("t", 3).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(broker.CreateTopic("bad", 0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(broker.HasTopic("t"));
  EXPECT_FALSE(broker.HasTopic("u"));
  EXPECT_EQ(broker.NumPartitions("t").value(), 3);
}

TEST(SingleBrokerTest, ProduceFetchRoundTrip) {
  SimClock clock(1000);
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  const auto ack = broker.Produce("t", "k", "v");
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->partition, 0);
  EXPECT_EQ(ack->offset, 0);
  const auto records = broker.FetchBatch("t", 0, 0, 10);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].key(), "k");
  EXPECT_EQ((*records)[0].value(), "v");
  EXPECT_EQ((*records)[0].timestamp(), 1000);
}

TEST(SingleBrokerTest, OffsetsMonotonic) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(broker.ProduceTo("t", 0, "", std::to_string(i))->offset, i);
  }
  const auto info = broker.GetPartitionInfo("t", 0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->begin_offset, 0);
  EXPECT_EQ(info->end_offset, 5);
}

TEST(SingleBrokerTest, SameKeySamePartition) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 8).ok());
  const int p1 = broker.Produce("t", "camera-42", "a")->partition;
  const int p2 = broker.Produce("t", "camera-42", "b")->partition;
  EXPECT_EQ(p1, p2);
}

TEST(SingleBrokerTest, EmptyKeyRoundRobins) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 4).ok());
  std::set<int> partitions;
  for (int i = 0; i < 4; ++i) {
    partitions.insert(broker.Produce("t", "", "v")->partition);
  }
  EXPECT_EQ(partitions.size(), 4u);
}

TEST(SingleBrokerTest, FetchBeyondEndEmptyOrError) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  ASSERT_TRUE(broker.ProduceTo("t", 0, "", "v").ok());
  // At end: empty (a consumer polling an idle partition).
  const auto at_end = broker.FetchBatch("t", 0, 1, 10);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end->empty());
  // Past end: error.
  EXPECT_EQ(broker.FetchBatch("t", 0, 5, 10).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SingleBrokerTest, FetchRespectsMaxRecords) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker.ProduceTo("t", 0, "", "v").ok());
  }
  EXPECT_EQ(Drain(broker, "t", 0, 0, 3)->size(), 3u);
  EXPECT_EQ(Drain(broker, "t", 0, 7, 100)->size(), 3u);
}

TEST(SingleBrokerTest, RetentionDropsOldRecords) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  ASSERT_TRUE(broker.ProduceTo("t", 0, "", "old").ok());
  clock.Advance(10 * kSecond);
  ASSERT_TRUE(broker.ProduceTo("t", 0, "", "new").ok());
  const auto dropped = broker.EnforceRetention(5 * kSecond);
  EXPECT_EQ(dropped, 1);
  // The old offset is now below the retention floor.
  EXPECT_EQ(broker.FetchBatch("t", 0, 0, 10).status().code(),
            StatusCode::kOutOfRange);
  const auto records = broker.FetchBatch("t", 0, 1, 10);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].value(), "new");
}

TEST(ConsumerGroupTest, SingleMemberGetsAllPartitions) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 4).ok());
  const auto assignment = broker.JoinGroup("g", "t", "m1");
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->size(), 4u);
}

TEST(ConsumerGroupTest, RebalanceOnJoinAndLeave) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 4).ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m1").ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m2").ok());
  const auto a1 = broker.Assignment("g", "m1");
  const auto a2 = broker.Assignment("g", "m2");
  EXPECT_EQ(a1.size() + a2.size(), 4u);
  EXPECT_EQ(a1.size(), 2u);
  // No overlap.
  for (const int p : a1) {
    EXPECT_EQ(std::find(a2.begin(), a2.end(), p), a2.end());
  }
  ASSERT_TRUE(broker.LeaveGroup("g", "m1").ok());
  EXPECT_EQ(broker.Assignment("g", "m2").size(), 4u);
  EXPECT_TRUE(broker.Assignment("g", "m1").empty());
}

TEST(ConsumerGroupTest, GroupBoundToOneTopic) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t1", 1).ok());
  ASSERT_TRUE(broker.CreateTopic("t2", 1).ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t1", "m").ok());
  EXPECT_EQ(broker.JoinGroup("g", "t2", "m").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ConsumerGroupTest, CommitAndFetchCommitted) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(broker.ProduceTo("t", 0, "", "v").ok());
  }
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m").ok());
  EXPECT_EQ(broker.CommittedOffset("g", "t", 0), 0);
  ASSERT_TRUE(broker.CommitOffset("g", "t", 0, 17).ok());
  EXPECT_EQ(broker.CommittedOffset("g", "t", 0), 17);
  EXPECT_EQ(broker.CommittedOffset("g", "t", 1), 0);
}

TEST(ConsumerGroupTest, CommitOffsetValidation) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  ASSERT_TRUE(broker.ProduceTo("t", 0, "", "v").ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m").ok());
  // The partition must exist...
  EXPECT_EQ(broker.CommitOffset("g", "t", 5, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.CommitOffset("g", "t", -1, 0).code(),
            StatusCode::kInvalidArgument);
  // ...and the offset must lie within [0, end]: a commit beyond the end
  // would silently skip records that were never delivered.
  EXPECT_EQ(broker.CommitOffset("g", "t", 0, -1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.CommitOffset("g", "t", 0, 2).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(broker.CommitOffset("g", "t", 0, 1).ok());
  EXPECT_EQ(broker.CommittedOffset("g", "t", 0), 1);
}

TEST(ConsumerGroupTest, RetentionOvertakesCommittedOffset) {
  // A slow consumer whose committed offset fell below the retention floor:
  // the fetch reports kOutOfRange and the documented recovery (see
  // BrokerCluster::FetchBatch) is to reset to the partition's begin offset,
  // skipping the truncated records but never rereading or missing a
  // surviving one.
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(broker.ProduceTo("t", 0, "", "old" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(broker.CommitOffset("g", "t", 0, 2).ok());
  clock.Advance(10 * kSecond);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(broker.ProduceTo("t", 0, "", "new" + std::to_string(i)).ok());
  }
  EXPECT_EQ(broker.EnforceRetention(5 * kSecond), 4);

  const std::int64_t committed = broker.CommittedOffset("g", "t", 0);
  EXPECT_EQ(committed, 2);
  EXPECT_EQ(broker.FetchBatch("t", 0, committed, 10).status().code(),
            StatusCode::kOutOfRange);

  const auto info = broker.GetPartitionInfo("t", 0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->begin_offset, 4);
  ASSERT_TRUE(broker.CommitOffset("g", "t", 0, info->begin_offset).ok());
  const auto records =
      Drain(broker, "t", 0, broker.CommittedOffset("g", "t", 0));
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].value(), "new0");
  EXPECT_EQ((*records)[1].value(), "new1");
}

TEST(ConsumerGroupTest, EndToEndConsumeLoop) {
  // A consumer using committed offsets sees every record exactly once.
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(broker.Produce("t", "k" + std::to_string(i), "v").ok());
  }
  const auto assignment = broker.JoinGroup("g", "t", "m");
  ASSERT_TRUE(assignment.ok());
  int consumed = 0;
  for (const int p : *assignment) {
    while (true) {
      const std::int64_t committed = broker.CommittedOffset("g", "t", p);
      const auto records = Drain(broker, "t", p, committed, 7);
      ASSERT_TRUE(records.ok());
      if (records->empty()) break;
      consumed += int(records->size());
      ASSERT_TRUE(
          broker.CommitOffset("g", "t", p, records->back().offset() + 1).ok());
    }
  }
  EXPECT_EQ(consumed, 20);
}

TEST(ConsumerGroupTest, MemberDeathMidPollRedeliversUncommitted) {
  // m1 fetches a batch but dies before committing. After the rebalance the
  // surviving member inherits the partition at the old committed offset and
  // sees the same records again — at-least-once delivery, nothing lost.
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(broker.ProduceTo("t", 0, "k", "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m1").ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m2").ok());
  // Partition 0 belongs to exactly one member; make m1 the one polling it.
  const auto owner = broker.Assignment("g", "m1");
  const bool m1_owns = !owner.empty();

  // The owner consumes and commits the first 3 records, then fetches the
  // next batch and crashes before committing it.
  ASSERT_TRUE(broker.CommitOffset("g", "t", 0, 3).ok());
  const auto in_flight = Drain(broker, "t", 0, 3, 5);
  ASSERT_TRUE(in_flight.ok());
  ASSERT_EQ(in_flight->size(), 5u);
  ASSERT_TRUE(broker.LeaveGroup("g", m1_owns ? "m1" : "m2").ok());

  // The survivor now owns every partition.
  const std::string survivor = m1_owns ? "m2" : "m1";
  EXPECT_EQ(broker.Assignment("g", survivor).size(), 1u);

  // It resumes from the committed offset: the uncommitted in-flight batch is
  // redelivered verbatim.
  const std::int64_t committed = broker.CommittedOffset("g", "t", 0);
  EXPECT_EQ(committed, 3);
  const auto redelivered = Drain(broker, "t", 0, committed, 5);
  ASSERT_TRUE(redelivered.ok());
  ASSERT_EQ(redelivered->size(), in_flight->size());
  for (std::size_t i = 0; i < redelivered->size(); ++i) {
    EXPECT_EQ((*redelivered)[i].offset(), (*in_flight)[i].offset());
    EXPECT_EQ((*redelivered)[i].value(), (*in_flight)[i].value());
  }
  // Finishing the log from the committed offset yields all 8 records with
  // offsets 3..7 seen twice in total across the two polls — at least once.
  ASSERT_TRUE(
      broker.CommitOffset("g", "t", 0, redelivered->back().offset() + 1).ok());
  const auto rest = Drain(broker, "t", 0, broker.CommittedOffset("g", "t", 0));
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->empty(), redelivered->back().offset() == 7);
}

TEST(SingleBrokerTest, PartitionFaultInjectionRoundTrip) {
  // A partition outage is a kill of the partition's only replica. Two nodes
  // place the two partitions on different nodes, so one stays up.
  SimClock clock;
  BrokerCluster broker(clock, {.nodes = 2, .replication_factor = 1});
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  const int leader = broker.PreferredLeader("t", 0).value();
  ASSERT_NE(leader, broker.PreferredLeader("t", 1).value());
  ASSERT_TRUE(broker.ProduceTo("t", 0, "k", "before").ok());

  ASSERT_TRUE(broker.KillNode(leader).ok());
  EXPECT_EQ(broker.LeaderOf("t", 0).value(), -1);
  EXPECT_EQ(broker.ProduceTo("t", 0, "k", "x").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(broker.FetchBatch("t", 0, 0, 10).status().code(),
            StatusCode::kUnavailable);
  // The other partition still serves.
  EXPECT_TRUE(broker.ProduceTo("t", 1, "k", "y").ok());

  // Keyless produce skips the dead partition — no retry loop needed — and
  // counts every skip it made.
  const auto skipped_to = broker.Produce("t", "", "v");
  ASSERT_TRUE(skipped_to.ok());
  EXPECT_EQ(skipped_to->partition, 1);
  EXPECT_GE(broker.metrics().GetCounter("mq.roundrobin_skips").value(), 1);

  ASSERT_TRUE(broker.ReviveNode(leader).ok());
  const auto records = broker.FetchBatch("t", 0, 0, 10);
  ASSERT_TRUE(records.ok());  // stored records survived the outage
  ASSERT_FALSE(records->empty());
  EXPECT_EQ((*records)[0].value(), "before");

  for (const int bad : {-1, broker.num_nodes()}) {
    EXPECT_EQ(broker.KillNode(bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(broker.ReviveNode(bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(broker.NodeUp(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(broker.PreferredLeader("nope", 0).status().code(),
            StatusCode::kNotFound);
}

TEST(SingleBrokerTest, UnknownTopicErrors) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  EXPECT_EQ(broker.Produce("nope", "k", "v").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(broker.FetchBatch("nope", 0, 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(broker.JoinGroup("g", "nope", "m").status().code(),
            StatusCode::kNotFound);
}

TEST(SingleBrokerTest, PartitionOutOfRange) {
  SimClock clock;
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  EXPECT_EQ(broker.ProduceTo("t", 5, "", "v").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.FetchBatch("t", -1, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- Fetch boundary contract

// Regressions for the unified fetch boundary contract (partition_log.h):
// inside [begin, end] a fetch is OK (possibly empty); only offsets beyond
// the end or below the retention floor are kOutOfRange.

// Appends `value` to `log` as a one-record batch stamped `timestamp`.
void AppendOne(PartitionLog& log, const std::string& value,
               TimeNs timestamp = 0) {
  RecordBatchBuilder builder;
  builder.Add("", value);
  auto batch = builder.Build();
  batch->Seal(log.end_offset(), timestamp, /*producer_id=*/0,
              /*first_sequence=*/-1);
  log.AppendBatch(std::move(batch));
}

TEST(PartitionLogTest, FetchAtReadableLimitIsEmptyOkNotError) {
  PartitionLog log;
  for (int i = 0; i < 5; ++i) AppendOne(log, std::to_string(i));
  // offset == limit (the high-water mark for replicated reads): caught up,
  // not out of range.
  const auto at_hwm = log.FetchBatch(3, 10, /*limit=*/3);
  ASSERT_TRUE(at_hwm.ok());
  EXPECT_TRUE(at_hwm->empty());
  EXPECT_EQ(at_hwm->next_offset(), 3);
}

TEST(PartitionLogTest, FetchAtEndWithLowerLimitIsEmptyOk) {
  // A consumer parked at the log end while the high-water mark trails
  // behind (un-acked suffix) is caught up, never kOutOfRange: the offset
  // exists — it is just not readable yet.
  PartitionLog log;
  for (int i = 0; i < 4; ++i) AppendOne(log, std::to_string(i));
  const auto at_end = log.FetchBatch(log.end_offset(), 10, /*limit=*/2);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end->empty());
  EXPECT_EQ(at_end->next_offset(), log.end_offset());
  // One past the end IS out of range — the offset does not exist.
  EXPECT_EQ(log.FetchBatch(log.end_offset() + 1, 10, 2).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PartitionLogTest, FetchAtRetentionFloorOkBelowItOutOfRange) {
  PartitionLog log;
  for (int i = 0; i < 6; ++i) {
    AppendOne(log, std::to_string(i), /*timestamp=*/i < 3 ? 10 : 100);
  }
  EXPECT_EQ(log.EnforceRetention(/*cutoff=*/50), 3);
  EXPECT_EQ(log.begin_offset(), 3);
  // Exactly at the floor: readable (one single-record segment per call).
  const auto at_floor = log.FetchBatch(3, 10, log.end_offset());
  ASSERT_TRUE(at_floor.ok());
  ASSERT_EQ(at_floor->size(), 1u);
  EXPECT_EQ((*at_floor)[0].value(), "3");
  // Below the floor: retired offsets, explicit error.
  EXPECT_EQ(log.FetchBatch(2, 10, log.end_offset()).status().code(),
            StatusCode::kOutOfRange);
}

// ------------------------------------------------------- Batched produce

TEST(SingleBrokerTest, BatchedProduceFetchRoundTrip) {
  SimClock clock(5000);
  BrokerCluster broker(clock, kSingleBroker);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  RecordBatchBuilder builder;
  Headers headers;
  headers["source"] = "cam-7";
  builder.Add("k0", "v0", headers);
  builder.Add("k1", "v1");
  builder.Add("k2", "v2");
  const auto request = broker.PrepareBatch(/*producer=*/0, "t", 0, builder);
  ASSERT_TRUE(request.ok());
  const auto ack = broker.Produce(*request);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->offset, 0);
  EXPECT_EQ(ack->count, 3);
  EXPECT_TRUE(builder.empty());  // consumed

  const auto view = broker.FetchBatch("t", 0, 0, 10);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 3u);
  EXPECT_EQ((*view)[0].key(), "k0");
  EXPECT_EQ((*view)[0].value(), "v0");
  EXPECT_EQ((*view)[0].timestamp(), 5000);
  ASSERT_TRUE((*view)[0].FindHeader("source").has_value());
  EXPECT_EQ(*(*view)[0].FindHeader("source"), "cam-7");
  EXPECT_EQ((*view)[2].offset(), 2);
  EXPECT_EQ(view->next_offset(), 3);

  RecordBatchBuilder empty;
  EXPECT_EQ(broker.PrepareBatch(0, "t", 0, empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionLogTest, FetchBatchStopsAtSegmentBoundary) {
  PartitionLog log;
  RecordBatchBuilder builder;
  builder.Add("a", "1");
  builder.Add("b", "2");
  auto first = builder.Build();
  first->Seal(log.end_offset(), /*timestamp=*/1, /*producer_id=*/0,
              /*first_sequence=*/-1);
  EXPECT_EQ(log.AppendBatch(std::move(first)), 0);
  builder.Add("c", "3");
  auto second = builder.Build();
  second->Seal(log.end_offset(), 2, 0, -1);
  EXPECT_EQ(log.AppendBatch(std::move(second)), 2);
  // max_records spans both segments, but one call returns one batch; the
  // caller advances via next_offset().
  const auto head = log.FetchBatch(0, 10, log.end_offset());
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->size(), 2u);
  EXPECT_EQ(head->next_offset(), 2);
  const auto tail = log.FetchBatch(head->next_offset(), 10, log.end_offset());
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].value(), "3");
}

}  // namespace
}  // namespace metro::mq
