// Full streaming-city demo (Figs. 1 + 4): Flume-style agents collect four
// heterogeneous sources into the message log; the pipeline stores,
// analyzes, and renders the web feed; crime documents are mined for
// hot-spots with the dataflow engine; the DFS archives the day.
//
//   ./examples/city_pipeline

#include <atomic>
#include <cstdio>

#include "core/infrastructure.h"
#include "dataflow/dataset.h"
#include "dataflow/mllib.h"
#include "datagen/city.h"
#include "ingest/flume.h"
#include "text/text.h"

using namespace metro;

int main() {
  core::InfrastructureConfig config;
  config.dfs_datanodes = 5;
  config.fog.num_edges = 8;
  core::Cyberinfrastructure infra(config, WallClock::Instance());
  std::printf("%s\n\n", infra.Describe().c_str());

  // Topics + analyzers.
  auto keyword_matcher = std::make_shared<text::KeywordMatcher>(
      std::vector<std::string>{"gunshots", "shooting", "robbery", "shots"});
  for (const char* name : {"tweets", "waze", "crimes"}) {
    core::CityPipeline::TopicSpec spec;
    spec.topic = name;
    spec.partitions = 2;
    if (std::string(name) == "tweets") {
      spec.analyzer = [keyword_matcher](const store::Document& doc)
          -> std::optional<store::Document> {
        const auto it = doc.find("text");
        if (it == doc.end()) return std::nullopt;
        const auto* txt = std::get_if<std::string>(&it->second);
        if (txt == nullptr || !keyword_matcher->Matches(*txt)) {
          return std::nullopt;
        }
        return doc;
      };
    } else {
      spec.analyzer = [](const store::Document& doc)
          -> std::optional<store::Document> { return doc; };
    }
    (void)infra.pipeline().AddTopic(std::move(spec));
  }
  (void)infra.pipeline().Start();

  // Ingestion agents, one per source (Sec. II-C2's Flume role).
  datagen::CityDataGenerator city({}, 21);
  datagen::TweetGenerator tweets({.num_users = 800}, 22);
  datagen::WazeGenerator waze(23);

  // Everything shares one span collector: the agents open a trace per
  // event, the sink hands the context to Produce, and the consumer stages
  // (mq.queue / store / analyze / web) join the same trace.
  obs::SpanCollector& tracer = infra.pipeline().tracer();
  infra.storage().SetTracer(&tracer);
  ingest::AgentConfig agent_config;
  agent_config.spans = &tracer;
  // Small sink batches: an event waits in the sink while the earlier events
  // of its batch are published, so a latency-focused deployment keeps
  // flushes short (the throughput benches use the default 64).
  agent_config.batch_size = 8;

  // Publishing goes through the pipeline's retrying Produce, so a transient
  // partition outage costs retries (visible in the stats below), not data.
  // The sink records that wait as the `ingest.sink` stage, from the sink
  // call to the event's own Produce, so the stage sums keep covering the
  // end-to-end latency.
  auto make_sink = [&infra, &tracer](std::string topic) {
    return [&infra, &tracer, topic](const std::vector<ingest::Event>& batch) {
      const TimeNs sink_start = tracer.clock().Now();
      for (const auto& e : batch) {
        obs::TraceContext trace;
        const auto it = e.headers.find(std::string(obs::kTraceHeader));
        if (it != e.headers.end()) {
          trace = obs::TraceContext::Parse(it->second).value_or(
              obs::TraceContext{});
        }
        if (trace.valid()) {
          obs::Span span;
          span.name = "ingest.sink";
          span.context = tracer.Child(trace);
          span.start = sink_start;
          span.end = tracer.clock().Now();
          tracer.Record(std::move(span));
        }
        METRO_RETURN_IF_ERROR(
            infra.pipeline().Produce(topic, e.key, e.body, trace).status());
      }
      return Status::Ok();
    };
  };

  std::atomic<int> tweet_count{0}, waze_count{0}, crime_count{0};
  ingest::Agent tweet_agent(
      "twitter",
      [&]() -> std::optional<ingest::Event> {
        if (tweet_count.fetch_add(1) >= 3000) return std::nullopt;
        return ingest::Event{
            "", core::EncodeDocument(datagen::CityDataGenerator::ToDocument(
                    tweets.Generate(WallClock::Instance().Now())))};
      },
      make_sink("tweets"), agent_config);
  ingest::Agent waze_agent(
      "waze-ccp",
      [&]() -> std::optional<ingest::Event> {
        if (waze_count.fetch_add(1) >= 800) return std::nullopt;
        return ingest::Event{
            "", core::EncodeDocument(datagen::CityDataGenerator::ToDocument(
                    waze.Generate(WallClock::Instance().Now())))};
      },
      make_sink("waze"), agent_config);
  ingest::Agent crime_agent(
      "records-upload",
      [&]() -> std::optional<ingest::Event> {
        if (crime_count.fetch_add(1) >= 300) return std::nullopt;
        return ingest::Event{
            "", core::EncodeDocument(datagen::CityDataGenerator::ToDocument(
                    city.GenerateCrime(WallClock::Instance().Now())))};
      },
      make_sink("crimes"), agent_config);

  for (ingest::Agent* agent : {&tweet_agent, &waze_agent, &crime_agent}) {
    if (const auto started = agent->Start(); !started.ok()) {
      std::fprintf(stderr, "agent start failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  }
  tweet_agent.WaitUntilFinished();
  waze_agent.WaitUntilFinished();
  crime_agent.WaitUntilFinished();
  infra.pipeline().Drain();

  const auto stats = infra.pipeline().Stats();
  std::printf("pipeline: consumed=%lld stored=%lld annotated=%lld "
              "web=%lld (mean latency %.2f ms, p99 %.2f ms)\n",
              (long long)stats.records_consumed,
              (long long)stats.documents_stored, (long long)stats.annotations,
              (long long)stats.web_items, stats.mean_latency_ms,
              stats.p99_latency_ms);
  std::printf("resilience: produce retries=%lld, fetch retries=%lld, "
              "records skipped=%lld; sink retries=%lld; health: %s\n",
              (long long)stats.produce_retries, (long long)stats.fetch_retries,
              (long long)stats.records_skipped,
              (long long)(tweet_agent.sink_retries() +
                          waze_agent.sink_retries() +
                          crime_agent.sink_retries()),
              infra.health().AllHealthy() ? "all healthy" : "degraded");

  // Where does the latency go? Span-derived per-stage quantiles.
  std::printf("\nstage latency (ms):\n");
  for (const auto& st : stats.stage_latency) {
    std::printf("  %-16s count=%-6lld mean=%-8.3f p50=%-8.3f p95=%-8.3f "
                "p99=%.3f\n",
                st.stage.c_str(), (long long)st.count, st.mean_ms, st.p50_ms,
                st.p95_ms, st.p99_ms);
  }
  std::printf("\n%s\n", tracer.CriticalPathReport().c_str());

  // Mine crime hot-spots from the stored documents (Sec. II-C3).
  auto crimes = infra.pipeline().collection("crimes").value();
  std::vector<dataflow::FeatureVec> points;
  for (const auto& doc : crimes->FindDocs({})) {
    points.push_back({float(std::get<double>(doc.at("lat"))),
                      float(std::get<double>(doc.at("lon")))});
  }
  Rng rng(24);
  const auto kmeans = dataflow::FitKMeans(
      dataflow::Dataset<dataflow::FeatureVec>::Parallelize(points, 4), 5,
      infra.engine(), rng);
  if (kmeans.ok()) {
    std::printf("\ncrime hot-spots (k-means on %zu stored incidents, %d "
                "iterations):\n",
                points.size(), kmeans->iterations);
    for (const auto& c : kmeans->centroids) {
      std::printf("  (%.4f, %.4f)\n", c[0], c[1]);
    }
  }

  // Archive the day's web feed to the DFS.
  std::string feed;
  for (const auto& line : infra.pipeline().WebFeed()) {
    feed += line;
    feed += '\n';
  }
  (void)infra.storage().Create("/archive/day.jsonl", feed);
  const auto info = infra.storage().Stat("/archive/day.jsonl");
  if (info.ok()) {
    std::printf("\narchived web feed: %zu bytes, %d blocks, replication %d\n",
                info->size, info->num_blocks, info->replication);
  }
  infra.pipeline().Stop();
  return 0;
}
