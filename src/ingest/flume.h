#pragma once

// Streaming ingestion agents (the Flume role in Sec. II-C2).
//
// An Agent wires a Source (pull callback producing events) through a bounded
// Channel to a Sink (push callback into the message log, a store, or the
// DFS), with batching and back-pressure: a full channel blocks the source,
// which is exactly the "edge devices act as buffers" behaviour of
// Sec. II-B1. Agents run on their own threads and stop cleanly.

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "mq/broker_cluster.h"
#include "obs/trace.h"
#include "resilience/policy.h"
#include "util/clock.h"
#include "util/queue.h"
#include "util/status.h"

namespace metro::ingest {

/// One ingestion event.
struct Event {
  std::string key;
  std::string body;
  /// Opaque metadata forwarded to the sink; the tracing layer rides on the
  /// `x-trace` key so downstream stages continue the event's trace. (The
  /// `{}` lets `Event{key, body}` leave it empty without a warning.)
  std::map<std::string, std::string> headers{};
  TimeNs enqueued_at = 0;  ///< when the source pushed it into the channel
  /// Position in the source's emission order (1-based; assigned by the
  /// agent's source loop, 0 for events that never passed through an agent).
  /// Distinguishes events whose other fields coincide — e.g. identical
  /// sensor readings stamped in the same simulated-clock tick — so sinks
  /// that memoize per-event state never conflate two distinct events.
  std::int64_t ingest_seq = 0;
};

/// Produces the next event, or nullopt when the source is exhausted.
using SourceFn = std::function<std::optional<Event>()>;

/// Consumes a batch of events; a failed status triggers retry of the batch.
using SinkFn = std::function<Status(const std::vector<Event>&)>;

/// Agent tuning. Failed batch flushes retry with jittered exponential
/// backoff, but only for retryable failures (kUnavailable /
/// kDeadlineExceeded); terminal sink errors drop the batch immediately.
struct AgentConfig {
  std::size_t channel_capacity = 1024;
  std::size_t batch_size = 64;
  int max_sink_retries = 3;                       ///< retries after 1st attempt
  TimeNs sink_retry_backoff = kMillisecond;       ///< initial backoff
  TimeNs sink_retry_max_backoff = 32 * kMillisecond;
  /// Also retry sink batches rejected with kResourceExhausted (broker
  /// backpressure). Edge agents are the system's buffers (Sec. II-B1):
  /// their bounded channel already limits memory, so waiting out a full
  /// partition beats dropping the batch. Off by default.
  bool retry_resource_exhausted = false;
  Clock* clock = nullptr;  ///< backoff sleeps; wall clock when null
  /// Optional tracer. When set the source opens a trace per event (unless
  /// the event already carries an `x-trace` header), the sink records an
  /// `ingest.channel` stage span per event (channel enqueue -> flush) and an
  /// `ingest.flush` overlay around each sink call, tagged `retried` when the
  /// batch needed retries. Should share the agent's clock.
  obs::SpanCollector* spans = nullptr;
};

/// A single source -> channel -> sink pipeline.
class Agent {
 public:
  Agent(std::string name, SourceFn source, SinkFn sink, AgentConfig config = {});
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Starts the source and sink threads. kFailedPrecondition if running.
  Status Start();

  /// Drains the channel and joins both threads. Idempotent.
  void Stop();

  /// True once the source is exhausted and the channel has drained.
  bool Finished() const;

  /// Blocks until Finished() (the source must be finite).
  void WaitUntilFinished();

  std::int64_t events_in() const { return events_in_.load(); }
  std::int64_t events_out() const { return events_out_.load(); }
  std::int64_t events_dropped() const { return events_dropped_.load(); }
  std::int64_t sink_retries() const { return sink_retries_.load(); }

  const std::string& name() const { return name_; }

 private:
  void SourceLoop();
  void SinkLoop();

  std::string name_;
  SourceFn source_;
  SinkFn sink_;
  AgentConfig config_;
  BoundedQueue<Event> channel_;
  std::atomic<std::int64_t> events_in_{0};
  std::atomic<std::int64_t> events_out_{0};
  std::atomic<std::int64_t> events_dropped_{0};
  std::atomic<std::int64_t> sink_retries_{0};
  std::atomic<bool> source_done_{false};
  std::atomic<bool> sink_done_{false};
  bool started_ = false;
  std::jthread source_thread_;
  std::jthread sink_thread_;
};

/// A sink publishing each batch of events to `topic` on the replicated
/// broker via the idempotent *batched* produce path. The batch is grouped
/// by partition deterministically (keyed events by the broker's key hash,
/// keyless ones by their fingerprint — retry-stable, unlike broker
/// round-robin), each group becomes one pinned `ProduceBatchRequest`
/// (partition and sequence range assigned once), and agent-level batch
/// retries re-submit the *same* requests — the broker deduplicates whole
/// ranges that already landed instead of appending them again. Pinned
/// requests are released only when the entire sink batch has been acked:
/// releasing them per-group would let a retry of a mixed batch re-prepare
/// already-acked groups under fresh sequences and silently duplicate them.
/// Event headers (including `x-trace`) travel as record headers. On a mixed
/// batch the first failure's status is returned after every group was
/// attempted, so a retried batch only re-appends what is missing.
SinkFn MakeClusterSink(mq::BrokerCluster& cluster, std::string topic);

}  // namespace metro::ingest
