#pragma once

// The Fig. 4 pipeline: data collection -> NoSQL storage -> analysis servers
// -> web/visualization.
//
// Producers (ingest agents, apps) publish raw records to message-log topics.
// Per-topic storage consumers persist them into document-store collections.
// Registered analyzers then annotate documents, and annotations flow to the
// web sink — an in-memory JSON feed standing in for the project website.
// Every stage is a real thread so throughput and end-to-end latency are
// measured, not simulated.

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mq/broker_cluster.h"
#include "obs/trace.h"
#include "resilience/policy.h"
#include "store/doc_codec.h"
#include "store/document_store.h"
#include "util/metrics.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::core {

/// Analyzer: turns a stored document into an annotation document (or
/// nullopt to pass). Runs on the analysis-server stage.
using AnalyzerFn =
    std::function<std::optional<store::Document>(const store::Document&)>;

/// Parser: decodes a raw message-log record value into a document.
/// Returning nullopt drops the record (malformed input).
using ParserFn = std::function<std::optional<store::Document>(
    const std::string& key, const std::string& value)>;

/// End-to-end pipeline statistics.
struct PipelineStats {
  std::int64_t records_consumed = 0;
  std::int64_t documents_stored = 0;
  std::int64_t annotations = 0;
  std::int64_t web_items = 0;
  std::int64_t produce_retries = 0;  ///< Produce() attempts beyond the first
  std::int64_t fetch_retries = 0;    ///< consumer fetches hitting kUnavailable
  std::int64_t records_skipped = 0;  ///< offsets lost to retention truncation
  std::int64_t produce_backpressure = 0;  ///< produces rejected at the bound
  double mean_latency_ms = 0;  ///< produce -> web, for annotated records
  double p99_latency_ms = 0;
  /// Span-derived per-stage latency (produce / mq.queue / store / analyze /
  /// web), critical-path order. Replaces the old single end-to-end
  /// histogram: the same spans that yield `mean_latency_ms` break the
  /// latency down by Fig. 4 stage.
  std::vector<obs::StageStats> stage_latency;
};

/// The assembled Fig. 4 pipeline.
class CityPipeline {
 public:
  struct TopicSpec {
    std::string topic;
    int partitions = 2;
    ParserFn parser;          ///< raw record -> document
    AnalyzerFn analyzer;      ///< optional annotation step
  };

  /// `mq_config` shapes the replicated broker backing the pipeline (node
  /// count, replication factor, backpressure bound).
  explicit CityPipeline(Clock& clock, mq::BrokerClusterConfig mq_config = {});
  ~CityPipeline();

  CityPipeline(const CityPipeline&) = delete;
  CityPipeline& operator=(const CityPipeline&) = delete;

  /// Declares a topic with its parser/analyzer before Start().
  Status AddTopic(TopicSpec spec);

  /// The replicated broker cluster producers publish into.
  mq::BrokerCluster& log() { return log_; }

  /// Publishes through the resilience layer, idempotently: the request is
  /// prepared once (pinning partition and sequence number) and the prepared
  /// request is what retries with jittered exponential backoff — so a retry
  /// that crosses a leader failover cannot duplicate the record. Transient
  /// kUnavailable (no leader / ISR below quorum mid-failover) is retried;
  /// kResourceExhausted (partition backlog at its bound) is terminal here
  /// and counted in `produce_backpressure` — callers shed or wait. Other
  /// terminal errors surface immediately. Thread-safe.
  ///
  /// Every record is traced: `parent` continues an upstream trace (an
  /// ingest agent's), an invalid parent opens a fresh one. The context
  /// travels to the consumer in the record's `x-trace` header, so the
  /// consumer-side stage spans (mq.queue / store / analyze / web) join the
  /// same trace.
  Result<mq::ProduceAck> Produce(const std::string& topic, std::string key,
                                 std::string value,
                                 obs::TraceContext parent = {});

  /// The pipeline's span collector (stage spans, critical-path report).
  obs::SpanCollector& tracer() { return spans_; }

  /// Stored documents for a topic (one collection per topic).
  Result<store::Collection*> collection(const std::string& topic);

  /// Starts one consumer thread per topic. An idle consumer parks on its
  /// topic's doorbell (mq/doorbell.h) and wakes when a record is appended.
  Status Start();

  /// Signals consumers to finish the backlog and stop, then joins. A parked
  /// consumer notices the stop within its 0.5 ms park cap.
  void Stop();

  /// Blocks until every topic's committed offset reaches the end of its log
  /// (producers must have stopped), or until `max_wait` elapses — a
  /// partition can stay leaderless forever (quorum never recovers), so the
  /// wait is bounded rather than hanging the caller. Returns true when every
  /// partition drained; false when the deadline passed with partitions still
  /// undrained (logged).
  bool Drain(TimeNs max_wait = 10 * kSecond);

  /// The rendered web feed (JSON lines), in arrival order.
  std::vector<std::string> WebFeed() const METRO_EXCLUDES(web_mu_);

  PipelineStats Stats() const;

 private:
  struct TopicState {
    TopicSpec spec;
    std::unique_ptr<store::Collection> collection;
    std::jthread consumer;
  };

  void ConsumerLoop(TopicState& state, std::stop_token stop);
  /// Fetches, stores, analyzes and commits whatever each assigned partition
  /// holds past the group's committed offset; true when any partition made
  /// progress.
  bool SweepPartitions(TopicState& state, const std::string& group,
                       const std::vector<int>& partitions);
  /// True when a partition with a live leader holds records past the
  /// group's committed offset. Reads offsets only.
  bool HasUnread(const std::string& topic, const std::string& group,
                 const std::vector<int>& partitions) const;

  Clock* clock_;
  mq::BrokerCluster log_;
  mq::ProducerId producer_ = 0;
  // topics_ / started_ mutate only during single-threaded setup (AddTopic /
  // Start, before consumers exist); consumer threads read them immutably.
  std::unordered_map<std::string, std::unique_ptr<TopicState>> topics_;
  bool started_ = false;

  mutable Mutex web_mu_{lockrank::kCorePipelineWeb, "core.pipeline.web"};
  std::vector<std::string> web_feed_ METRO_GUARDED_BY(web_mu_);

  std::atomic<std::int64_t> records_consumed_{0};
  std::atomic<std::int64_t> documents_stored_{0};
  std::atomic<std::int64_t> annotations_{0};
  std::atomic<std::int64_t> produce_retries_{0};
  std::atomic<std::int64_t> fetch_retries_{0};
  std::atomic<std::int64_t> records_skipped_{0};
  std::atomic<std::int64_t> produce_backpressure_{0};
  obs::SpanCollector spans_;
};

/// Standard parser for the datagen documents: the record value is expected
/// to be a serialized document produced by EncodeDocument below. The codec
/// itself lives with the store (store/doc_codec.h) — it is also the
/// document store's persistence format; these wrappers keep the historical
/// core-namespace spelling.
inline std::string EncodeDocument(const store::Document& doc) {
  return store::EncodeDocument(doc);
}
inline std::optional<store::Document> DecodeDocument(const std::string& bytes) {
  return store::DecodeDocument(bytes);
}

}  // namespace metro::core
