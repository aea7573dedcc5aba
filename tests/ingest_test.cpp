// Tests for the Flume-style agents and the Sqoop-style bulk importer.

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "ingest/bulkload.h"
#include "ingest/flume.h"
#include "mq_drain.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/sync.h"

namespace metro::ingest {
namespace {

TEST(AgentTest, DeliversAllEventsInOrder) {
  std::atomic<int> next{0};
  SourceFn source = [&]() -> std::optional<Event> {
    const int i = next.fetch_add(1);
    if (i >= 100) return std::nullopt;
    return Event{"k" + std::to_string(i), "body" + std::to_string(i)};
  };
  metro::Mutex mu;
  std::vector<std::string> received;
  SinkFn sink = [&](const std::vector<Event>& batch) {
    metro::MutexLock lock(mu);
    for (const Event& e : batch) received.push_back(e.key);
    return Status::Ok();
  };
  Agent agent("test", source, sink);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(agent.events_in(), 100);
  EXPECT_EQ(agent.events_out(), 100);
  EXPECT_EQ(agent.events_dropped(), 0);
  ASSERT_EQ(received.size(), 100u);
  EXPECT_EQ(received.front(), "k0");
  EXPECT_EQ(received.back(), "k99");
}

TEST(AgentTest, BatchesRespectBatchSize) {
  std::atomic<int> next{0};
  SourceFn source = [&]() -> std::optional<Event> {
    const int i = next.fetch_add(1);
    if (i >= 50) return std::nullopt;
    return Event{"", "x"};
  };
  metro::Mutex mu;
  std::vector<std::size_t> batch_sizes;
  SinkFn sink = [&](const std::vector<Event>& batch) {
    metro::MutexLock lock(mu);
    batch_sizes.push_back(batch.size());
    return Status::Ok();
  };
  AgentConfig config;
  config.batch_size = 8;
  Agent agent("test", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  std::size_t total = 0;
  for (const std::size_t s : batch_sizes) {
    EXPECT_LE(s, 8u);
    total += s;
  }
  EXPECT_EQ(total, 50u);
}

TEST(AgentTest, RetriesTransientSinkFailures) {
  std::atomic<int> next{0};
  SourceFn source = [&]() -> std::optional<Event> {
    if (next.fetch_add(1) >= 10) return std::nullopt;
    return Event{"", "x"};
  };
  std::atomic<int> attempts{0};
  SinkFn sink = [&](const std::vector<Event>&) -> Status {
    // Fail the first attempt of each batch, succeed after.
    if (attempts.fetch_add(1) % 2 == 0) return UnavailableError("flaky");
    return Status::Ok();
  };
  AgentConfig config;
  config.batch_size = 5;
  config.max_sink_retries = 3;
  Agent agent("flaky", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(agent.events_out(), 10);
  EXPECT_EQ(agent.events_dropped(), 0);
}

TEST(AgentTest, DropsAfterExhaustedRetries) {
  std::atomic<int> next{0};
  SourceFn source = [&]() -> std::optional<Event> {
    if (next.fetch_add(1) >= 4) return std::nullopt;
    return Event{"", "x"};
  };
  SinkFn sink = [](const std::vector<Event>&) -> Status {
    return UnavailableError("always down");
  };
  AgentConfig config;
  config.batch_size = 2;
  config.max_sink_retries = 1;
  Agent agent("dead-sink", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(agent.events_dropped(), 4);
  EXPECT_EQ(agent.events_out(), 0);
}

TEST(AgentTest, BackpressureBlocksSourceNotDrops) {
  // Tiny channel + slow sink: everything still arrives (source blocks).
  std::atomic<int> next{0};
  SourceFn source = [&]() -> std::optional<Event> {
    if (next.fetch_add(1) >= 64) return std::nullopt;
    return Event{"", "x"};
  };
  std::atomic<int> delivered{0};
  SinkFn sink = [&](const std::vector<Event>& batch) {
    WallClock::Instance().SleepFor(kMillisecond);
    delivered.fetch_add(int(batch.size()));
    return Status::Ok();
  };
  AgentConfig config;
  config.channel_capacity = 4;
  config.batch_size = 4;
  Agent agent("slow", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(delivered.load(), 64);
  EXPECT_EQ(agent.events_dropped(), 0);
}

TEST(AgentTest, DoubleStartRejected) {
  Agent agent("a", [] { return std::nullopt; },
              [](const std::vector<Event>&) { return Status::Ok(); });
  ASSERT_TRUE(agent.Start().ok());
  EXPECT_EQ(agent.Start().code(), StatusCode::kFailedPrecondition);
  agent.Stop();
}

TEST(AgentTest, AssignsMonotonicIngestSeq) {
  std::atomic<int> next{0};
  SourceFn source = [&]() -> std::optional<Event> {
    const int i = next.fetch_add(1);
    if (i >= 5) return std::nullopt;
    // Every event is field-identical; only ingest_seq tells them apart.
    return Event{"sensor-1", "temp=21.5"};
  };
  metro::Mutex mu;
  std::vector<std::int64_t> seqs;
  SinkFn sink = [&](const std::vector<Event>& batch) {
    metro::MutexLock lock(mu);
    for (const Event& e : batch) seqs.push_back(e.ingest_seq);
    return Status::Ok();
  };
  Agent agent("seq", source, sink);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(seqs, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------- ClusterSink

TEST(ClusterSinkTest, IdenticalEventsKeepDistinctPendingRequests) {
  // Two distinct sensor readings that serialize identically — same key,
  // body, and coarse-simulated-clock enqueue tick — must not share a
  // memoized produce request in the cluster sink: each pins its own
  // sequence, so a batch that fails and retries appends both exactly once.
  SimClock clock;
  mq::BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("readings", 1).ok());
  SinkFn sink = MakeClusterSink(cluster, "readings");
  Event a{"sensor-1", "temp=21.5"};
  a.enqueued_at = clock.Now();
  a.ingest_seq = 1;  // as the agent's source loop would stamp them
  Event b = a;
  b.ingest_seq = 2;

  // Quorum down: the flush fails with both requests left pending.
  const auto view = *cluster.View("readings", 0);
  ASSERT_TRUE(cluster.KillNode(view.replicas[1]).ok());
  ASSERT_TRUE(cluster.KillNode(view.replicas[2]).ok());
  EXPECT_EQ(sink({a, b}).code(), StatusCode::kUnavailable);

  // Each event prepared its own request: the sink's producer (the first id
  // the fresh cluster handed out) has consumed sequences 0 and 1, so the
  // next prepared sequence is 2. A shared pending entry would have
  // consumed only one.
  const auto probe = cluster.Prepare(1, "readings", a.key, a.body);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->first_sequence, 2);

  // Recovered: the batch retry delivers both events exactly once, each
  // under its own pinned sequence.
  ASSERT_TRUE(cluster.ReviveNode(view.replicas[1]).ok());
  ASSERT_TRUE(cluster.ReviveNode(view.replicas[2]).ok());
  ASSERT_TRUE(sink({a, b}).ok());
  const auto records = mq::Drain(cluster, "readings", 0, 0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].sequence(), 0);
  EXPECT_EQ((*records)[1].sequence(), 1);
}

TEST(ClusterSinkTest, MixedBatchRetryDoesNotDuplicateAckedGroups) {
  // A sink batch that spans two partitions, one of which is down: the
  // healthy partition's group acks, the other fails, and the agent retries
  // the WHOLE batch. The sink must re-submit the already-acked group under
  // its original pinned sequence range (deduplicated by the broker), never
  // re-prepare it under fresh sequences — that would append it twice.
  SimClock clock;
  mq::BrokerClusterConfig config;
  config.nodes = 5;
  config.replication_factor = 1;  // one replica: a kill = partition down
  mq::BrokerCluster cluster(clock, config);
  ASSERT_TRUE(cluster.CreateTopic("readings", 2).ok());
  const int leader0 = *cluster.PreferredLeader("readings", 0);
  const int leader1 = *cluster.PreferredLeader("readings", 1);
  ASSERT_NE(leader0, leader1);

  // Keys steered to each partition via the broker's key hash.
  auto key_for = [](int partition) {
    for (int j = 0;; ++j) {
      std::string key = "sensor-" + std::to_string(j);
      if (int(Fnv1a64(key) % 2) == partition) return key;
    }
  };
  std::vector<Event> batch;
  for (int i = 0; i < 4; ++i) {
    Event e{key_for(i % 2), "reading-" + std::to_string(i)};
    e.enqueued_at = clock.Now();
    e.ingest_seq = i + 1;
    batch.push_back(std::move(e));
  }
  SinkFn sink = MakeClusterSink(cluster, "readings");

  ASSERT_TRUE(cluster.KillNode(leader1).ok());
  // Two failed flushes of the same mixed batch: partition 0's group acks
  // each time (the second as a suppressed duplicate), partition 1's fails.
  EXPECT_EQ(sink(batch).code(), StatusCode::kUnavailable);
  EXPECT_EQ(sink(batch).code(), StatusCode::kUnavailable);
  EXPECT_GE(cluster.metrics().GetCounter("mq.duplicates_suppressed").value(),
            1);

  ASSERT_TRUE(cluster.ReviveNode(leader1).ok());
  ASSERT_TRUE(sink(batch).ok());

  // Every event landed exactly once despite three submissions of its batch.
  std::map<std::string, int> delivered;
  for (int p = 0; p < 2; ++p) {
    const auto records = mq::Drain(cluster, "readings", p, 0);
    ASSERT_TRUE(records.ok());
    for (const auto& rec : *records) ++delivered[std::string(rec.value())];
  }
  ASSERT_EQ(delivered.size(), batch.size());
  for (const Event& e : batch) {
    EXPECT_EQ(delivered[e.body], 1) << e.body << " lost or duplicated";
  }
}

// ---------------------------------------------------------------- BulkImport

RdbmsTable MakeTable(int rows) {
  RdbmsTable table("crimes", {"id", "offense", "district"});
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    .InsertRow({std::to_string(i), "offense-" + std::to_string(i),
                                std::to_string(i % 5)})
                    .ok());
  }
  return table;
}

TEST(BulkImportTest, ImportsAllRowsAcrossSplits) {
  RdbmsTable table = MakeTable(100);
  dfs::Cluster cluster(4, {.block_size = 4096, .replication = 2});
  ThreadPool pool(4);
  const auto report = BulkImport(table, cluster, "/warehouse/crimes", 4, pool);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_splits, 4);
  EXPECT_EQ(report->rows_imported, 100u);
  EXPECT_EQ(report->part_files.size(), 4u);

  // Files exist in DFS; header only in part-00000; total rows add up.
  int data_lines = 0;
  for (const auto& path : report->part_files) {
    const auto content = cluster.Read(path);
    ASSERT_TRUE(content.ok());
    for (const char c : *content) {
      if (c == '\n') ++data_lines;
    }
  }
  EXPECT_EQ(data_lines, 101);  // 100 rows + 1 header
  const auto first = cluster.Read("/warehouse/crimes/part-00000");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->substr(0, first->find('\n')), "id,offense,district");
}

TEST(BulkImportTest, SingleSplit) {
  RdbmsTable table = MakeTable(10);
  dfs::Cluster cluster(3, {});
  ThreadPool pool(2);
  const auto report = BulkImport(table, cluster, "/w", 1, pool);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rows_imported, 10u);
}

TEST(BulkImportTest, EmptyTableRejected) {
  RdbmsTable table("empty", {"id"});
  dfs::Cluster cluster(3, {});
  ThreadPool pool(2);
  EXPECT_EQ(BulkImport(table, cluster, "/w", 2, pool).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BulkImportTest, RowValidation) {
  RdbmsTable table("t", {"id", "v"});
  EXPECT_EQ(table.InsertRow({"1"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.InsertRow({"abc", "v"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(table.InsertRow({"5", "v"}).ok());
  EXPECT_TRUE(table.InsertRow({"2", "w"}).ok());
  // Kept sorted by key.
  const auto range = table.SelectRange(0, 10);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ((*range[0])[0], "2");
}

TEST(CsvEscapeTest, QuotesSpecials) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

}  // namespace
}  // namespace metro::ingest
