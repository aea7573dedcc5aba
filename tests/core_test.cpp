// Tests for the core layer: document wire encoding, the Fig. 4 pipeline
// (collection -> storage -> analysis -> web), alerts, and the Fig. 1
// infrastructure facade.

#include <gtest/gtest.h>

#include <thread>

#include "core/infrastructure.h"
#include "core/pipeline.h"

namespace metro::core {
namespace {

TEST(DocumentCodecTest, RoundTripAllTypes) {
  store::Document doc;
  doc["i"] = std::int64_t(-42);
  doc["d"] = 2.75;
  doc["b"] = true;
  doc["s"] = std::string("hello world");
  const auto decoded = DecodeDocument(EncodeDocument(doc));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, doc);
}

TEST(DocumentCodecTest, GarbageRejected) {
  EXPECT_FALSE(DecodeDocument("\xff\xff\xff\xff not a doc").has_value());
}

TEST(AlertManagerTest, RaiseReviewWorkflow) {
  AlertManager alerts;
  EXPECT_EQ(alerts.pending(), 0u);
  alerts.Raise({.location = {}, .kind = "a", .message = "first", .severity = 2});
  alerts.Raise({.location = {}, .kind = "b", .message = "second", .severity = 4});
  EXPECT_EQ(alerts.pending(), 2u);
  const auto first = alerts.ReviewNext();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->message, "first");
  EXPECT_EQ(alerts.pending(), 1u);
  alerts.ReviewNext();
  EXPECT_FALSE(alerts.ReviewNext().has_value());
  EXPECT_EQ(alerts.total(), 2u);
  EXPECT_TRUE(alerts.All()[0].reviewed);
}

TEST(PipelineTest, EndToEndStoreAnalyzeVisualize) {
  WallClock& clock = WallClock::Instance();
  CityPipeline pipeline(clock);

  // Analyzer promotes crime docs into annotated web items.
  CityPipeline::TopicSpec spec;
  spec.topic = "crimes";
  spec.partitions = 2;
  spec.analyzer = [](const store::Document& doc)
      -> std::optional<store::Document> {
    store::Document annotation = doc;
    annotation["annotated"] = true;
    return annotation;
  };
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.Start().ok());

  for (int i = 0; i < 50; ++i) {
    store::Document doc;
    doc["id"] = std::int64_t(i);
    doc["offense"] = std::string("robbery");
    ASSERT_TRUE(pipeline.log()
                    .Produce("crimes", "k" + std::to_string(i),
                             EncodeDocument(doc))
                    .ok());
  }
  pipeline.Drain();
  pipeline.Stop();

  const auto stats = pipeline.Stats();
  EXPECT_EQ(stats.records_consumed, 50);
  EXPECT_EQ(stats.documents_stored, 50);
  EXPECT_EQ(stats.annotations, 50);
  EXPECT_EQ(stats.web_items, 50);

  const auto coll = pipeline.collection("crimes");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), 50u);

  const auto feed = pipeline.WebFeed();
  ASSERT_EQ(feed.size(), 50u);
  EXPECT_NE(feed[0].find("\"annotated\":true"), std::string::npos);
}

TEST(PipelineTest, AnalyzerCanFilter) {
  WallClock& clock = WallClock::Instance();
  CityPipeline pipeline(clock);
  CityPipeline::TopicSpec spec;
  spec.topic = "tweets";
  spec.partitions = 1;
  spec.analyzer = [](const store::Document& doc)
      -> std::optional<store::Document> {
    const auto it = doc.find("flag");
    if (it == doc.end() || !std::get<bool>(it->second)) return std::nullopt;
    return doc;
  };
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.Start().ok());

  for (int i = 0; i < 20; ++i) {
    store::Document doc;
    doc["flag"] = (i % 4 == 0);
    ASSERT_TRUE(
        pipeline.log().Produce("tweets", "", EncodeDocument(doc)).ok());
  }
  pipeline.Drain();
  pipeline.Stop();
  EXPECT_EQ(pipeline.Stats().documents_stored, 20);
  EXPECT_EQ(pipeline.Stats().web_items, 5);
}

TEST(PipelineTest, MalformedRecordsDropped) {
  WallClock& clock = WallClock::Instance();
  CityPipeline pipeline(clock);
  CityPipeline::TopicSpec spec;
  spec.topic = "t";
  spec.partitions = 1;
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_TRUE(pipeline.log().Produce("t", "", "garbage-bytes").ok());
  store::Document good;
  good["x"] = std::int64_t(1);
  ASSERT_TRUE(pipeline.log().Produce("t", "", EncodeDocument(good)).ok());
  pipeline.Drain();
  pipeline.Stop();
  EXPECT_EQ(pipeline.Stats().records_consumed, 2);
  EXPECT_EQ(pipeline.Stats().documents_stored, 1);
}

TEST(PipelineTest, MultipleTopicsIndependent) {
  WallClock& clock = WallClock::Instance();
  CityPipeline pipeline(clock);
  for (const char* name : {"a", "b"}) {
    CityPipeline::TopicSpec spec;
    spec.topic = name;
    spec.partitions = 1;
    ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  }
  ASSERT_TRUE(pipeline.Start().ok());
  store::Document doc;
  doc["x"] = std::int64_t(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipeline.log().Produce("a", "", EncodeDocument(doc)).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pipeline.log().Produce("b", "", EncodeDocument(doc)).ok());
  }
  pipeline.Drain();
  pipeline.Stop();
  EXPECT_EQ((*pipeline.collection("a"))->size(), 10u);
  EXPECT_EQ((*pipeline.collection("b"))->size(), 3u);
}

TEST(PipelineTest, DrainIsBoundedWhenQuorumNeverRecovers) {
  SimClock clock;
  CityPipeline pipeline(clock);
  CityPipeline::TopicSpec spec;
  spec.topic = "t";
  spec.partitions = 1;
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.log().ProduceTo("t", 0, "k", "v").ok());

  // No consumers running: the backlog cannot drain, so Drain must report
  // failure at its deadline instead of spinning forever.
  EXPECT_FALSE(pipeline.Drain(20 * kMillisecond));

  // Every node dead: the partition is permanently leaderless (quorum never
  // recovers). Drain must give up at the deadline, not hang the caller.
  for (int n = 0; n < pipeline.log().num_nodes(); ++n) {
    ASSERT_TRUE(pipeline.log().KillNode(n).ok());
  }
  EXPECT_FALSE(pipeline.Drain(20 * kMillisecond));
}

// Blocks until a consumer is registered on `topic`'s doorbell, i.e. found
// nothing to fetch and is parking.
void AwaitParkedConsumer(CityPipeline& pipeline, const std::string& topic) {
  const mq::Doorbell& bell = *pipeline.log().TopicDoorbell(topic).value();
  while (bell.sleepers() == 0) std::this_thread::yield();
}

TEST(PipelineTest, StopIsPromptWhenEveryConsumerIsParked) {
  WallClock& clock = WallClock::Instance();
  CityPipeline pipeline(clock);
  for (const char* name : {"a", "b", "c"}) {
    CityPipeline::TopicSpec spec;
    spec.topic = name;
    ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  }
  ASSERT_TRUE(pipeline.Start().ok());
  for (const char* name : {"a", "b", "c"}) AwaitParkedConsumer(pipeline, name);
  // Nothing rings an idle topic: the 0.5 ms park cap is what lets a parked
  // consumer see the stop request.
  const Stopwatch watch;
  pipeline.Stop();
  EXPECT_LT(watch.ElapsedNs(), 250 * kMillisecond);
}

TEST(PipelineTest, ConsumerParkedOnLeaderlessPartitionResumesAfterRevive) {
  WallClock& clock = WallClock::Instance();
  mq::BrokerClusterConfig config;
  config.nodes = 1;
  config.replication_factor = 1;
  CityPipeline pipeline(clock, config);
  CityPipeline::TopicSpec spec;
  spec.topic = "t";
  spec.partitions = 1;
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  store::Document doc;
  doc["x"] = std::int64_t(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipeline.log().Produce("t", "", EncodeDocument(doc)).ok());
  }
  // The only broker dies before the consumer starts: its fetches fail with
  // kUnavailable and it parks with the backlog unread.
  ASSERT_TRUE(pipeline.log().KillNode(0).ok());
  ASSERT_TRUE(pipeline.Start().ok());
  while (pipeline.Stats().fetch_retries == 0) std::this_thread::yield();
  AwaitParkedConsumer(pipeline, "t");
  EXPECT_EQ(pipeline.Stats().records_consumed, 0);

  ASSERT_TRUE(pipeline.log().ReviveNode(0).ok());
  EXPECT_TRUE(pipeline.Drain());
  pipeline.Stop();
  EXPECT_EQ(pipeline.Stats().records_consumed, 10);
  EXPECT_EQ(pipeline.Stats().documents_stored, 10);
}

TEST(PipelineTest, AddTopicAfterStartRejected) {
  WallClock& clock = WallClock::Instance();
  CityPipeline pipeline(clock);
  CityPipeline::TopicSpec spec;
  spec.topic = "t";
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.Start().ok());
  CityPipeline::TopicSpec late;
  late.topic = "late";
  EXPECT_EQ(pipeline.AddTopic(std::move(late)).code(),
            StatusCode::kFailedPrecondition);
  pipeline.Stop();
}

TEST(InfrastructureTest, AssemblesAllLayers) {
  InfrastructureConfig config;
  config.dfs_datanodes = 4;
  config.fog.num_edges = 4;
  Cyberinfrastructure infra(config, WallClock::Instance());

  // Hardware layer reachable.
  ASSERT_TRUE(infra.storage().Create("/check", "data").ok());
  EXPECT_EQ(infra.fog().num_edges(), 4);
  // Software layer reachable.
  EXPECT_TRUE(infra.pipeline().log().CreateTopic("t", 1).ok());
  ASSERT_TRUE(infra.annotations().Put("r", "c", "v").ok());
  const auto app = infra.scheduler().SubmitApp({"job"});
  EXPECT_GT(app, 0u);
  // Application layer reachable.
  infra.alerts().Raise({.location = {}, .kind = "test", .message = "", .severity = 1});
  EXPECT_EQ(infra.alerts().pending(), 1u);

  const std::string desc = infra.Describe();
  EXPECT_NE(desc.find("4 datanodes"), std::string::npos);
  EXPECT_NE(desc.find("fog=4 edges"), std::string::npos);
}

TEST(InfrastructureTest, ForEachAnnotationStreamsInOrderAndStopsEarly) {
  InfrastructureConfig config;
  config.dfs_datanodes = 3;
  Cyberinfrastructure infra(config, WallClock::Instance());
  ASSERT_TRUE(infra.annotations().Put("cam2", "label", "car").ok());
  ASSERT_TRUE(infra.annotations().Put("cam1", "label", "person").ok());
  ASSERT_TRUE(infra.annotations().Put("cam1", "score", "0.9").ok());
  ASSERT_TRUE(infra.annotations().Put("cam3", "label", "bike").ok());

  // Full walk: (row, column) order, all cells visited.
  std::vector<std::string> seen;
  const auto visited = infra.ForEachAnnotation("", "", [&](const auto& cell) {
    seen.push_back(cell.row + "/" + cell.column);
    return true;
  });
  EXPECT_EQ(visited, 4u);
  EXPECT_EQ(seen, (std::vector<std::string>{"cam1/label", "cam1/score",
                                            "cam2/label", "cam3/label"}));

  // Bounded walk with early stop: visits count includes the stopping cell.
  seen.clear();
  const auto bounded =
      infra.ForEachAnnotation("cam1", "cam3", [&](const auto& cell) {
        seen.push_back(cell.row + "/" + cell.column);
        return seen.size() < 2;
      });
  EXPECT_EQ(bounded, 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{"cam1/label", "cam1/score"}));
}

}  // namespace
}  // namespace metro::core
