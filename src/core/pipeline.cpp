#include "core/pipeline.h"

#include <algorithm>

#include "util/logging.h"

namespace metro::core {

CityPipeline::CityPipeline(Clock& clock, mq::BrokerClusterConfig mq_config)
    : clock_(&clock), log_(clock, mq_config), spans_(clock) {
  producer_ = log_.CreateProducer();
  // Surface replication-layer transitions (failover, ISR churn, node kills)
  // as root events in the span stream, next to the stage spans they disrupt.
  log_.SetEventHook([this](const mq::ClusterEvent& event) {
    std::vector<std::pair<std::string, std::string>> tags;
    if (!event.topic.empty()) {
      tags.emplace_back("topic", event.topic);
      tags.emplace_back("partition", std::to_string(event.partition));
    }
    if (event.node >= 0) tags.emplace_back("node", std::to_string(event.node));
    if (event.prev_node >= 0) {
      tags.emplace_back("prev_node", std::to_string(event.prev_node));
    }
    spans_.RootEvent(
        "mq." + std::string(mq::ClusterEventKindName(event.kind)),
        std::move(tags));
  });
}

CityPipeline::~CityPipeline() { Stop(); }

Status CityPipeline::AddTopic(TopicSpec spec) {
  if (started_) return FailedPreconditionError("pipeline already started");
  if (!spec.parser) spec.parser = [](const std::string&, const std::string& v) {
    return DecodeDocument(v);
  };
  METRO_RETURN_IF_ERROR(log_.CreateTopic(spec.topic, spec.partitions));
  auto state = std::make_unique<TopicState>();
  state->spec = std::move(spec);
  state->collection =
      std::make_unique<store::Collection>(state->spec.topic);
  const std::string key = state->spec.topic;
  topics_.emplace(key, std::move(state));
  return Status::Ok();
}

Result<mq::ProduceAck> CityPipeline::Produce(const std::string& topic,
                                             std::string key,
                                             std::string value,
                                             obs::TraceContext parent) {
  // The trace root rides in the record header; consumer-side stage spans
  // attach to it. An invalid parent opens a fresh trace, so every record
  // produced through the pipeline is traced.
  const obs::TraceContext root =
      parent.valid() ? parent : spans_.StartTrace();
  obs::Span span = spans_.Begin("produce", spans_.Child(root));
  span.SetTag("topic", topic);
  mq::Headers headers;
  headers[std::string(obs::kTraceHeader)] = root.Serialize();

  // Prepare once, retry the *prepared* request: partition and sequence are
  // pinned, so the broker deduplicates any attempt that actually landed
  // before its ack was observed — a retry crossing a leader failover cannot
  // duplicate the record.
  auto request = log_.Prepare(producer_, topic, std::move(key),
                              std::move(value), std::move(headers));
  if (!request.ok()) {
    span.SetTag("error", std::string(request.status().message()));
    spans_.End(std::move(span));
    return request.status();
  }

  resilience::RetryConfig config;
  config.max_attempts = 4;
  config.initial_backoff = kMillisecond / 2;
  config.max_backoff = 8 * kMillisecond;
  resilience::RetryPolicy retry(config, *clock_);
  auto ack = retry.Run(
      [&]() -> Result<mq::ProduceAck> { return log_.Produce(*request); });
  produce_retries_.fetch_add(retry.retries(), std::memory_order_relaxed);
  if (retry.retries() > 0) span.SetTag("retried", "true");
  if (!ack.ok()) {
    if (ack.status().code() == StatusCode::kResourceExhausted) {
      span.SetTag("backpressure", "true");
    }
    span.SetTag("error", std::string(ack.status().message()));
  } else if (ack->duplicate) {
    span.SetTag("duplicate", "true");
  }
  if (ack.ok() && !ack->duplicate) {
    // The stage ends where the consumer-side `mq.queue` stage starts: at
    // the broker's append time. What the call does after the append (the
    // ack's return, waking a parked consumer) runs beside the record's
    // consumer stages and is not on its critical path.
    span.end = ack->timestamp;
    spans_.Record(std::move(span));
  } else {
    spans_.End(std::move(span));
  }
  return ack;
}

Result<store::Collection*> CityPipeline::collection(const std::string& topic) {
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return NotFoundError("topic " + topic);
  return it->second->collection.get();
}

Status CityPipeline::Start() {
  if (started_) return FailedPreconditionError("pipeline already started");
  started_ = true;
  for (auto& [name, state] : topics_) {
    TopicState* raw = state.get();
    state->consumer = std::jthread(
        [this, raw](std::stop_token stop) { ConsumerLoop(*raw, stop); });
  }
  return Status::Ok();
}

void CityPipeline::ConsumerLoop(TopicState& state, std::stop_token stop) {
  const std::string& topic = state.spec.topic;
  const std::string group = "pipeline-" + topic;
  const auto assignment = log_.JoinGroup(group, topic, "consumer-" + topic);
  if (!assignment.ok()) return;

  // Sweep the assigned partitions until stop is requested *and* the backlog
  // is drained — a clean shutdown loses nothing. After an empty sweep the
  // consumer long-polls the broker, which returns at once if a record
  // arrived since the sweep and otherwise parks until a produce rings. The
  // wait is capped at 0.5 ms: a stop request rings nothing and is picked up
  // after the cap.
  while (true) {
    if (SweepPartitions(state, group, *assignment)) continue;
    if (stop.stop_requested()) return;
    log_.AwaitRecords(group, topic, *assignment, kMillisecond / 2);
  }
}

bool CityPipeline::SweepPartitions(TopicState& state, const std::string& group,
                                   const std::vector<int>& partitions) {
  const std::string& topic = state.spec.topic;
  bool progressed = false;
  for (const int partition : partitions) {
    const std::int64_t committed =
        log_.CommittedOffset(group, topic, partition);
    // Zero-copy fetch: a shared view into the leader's retained batch —
    // record payloads are read in place (string_view) and only
    // materialized at the parser call, not copied per fetch.
    const auto view = log_.FetchBatch(topic, partition, committed, 128);
    if (!view.ok()) {
      if (view.status().code() == StatusCode::kUnavailable) {
        // Partition leader down; the next sweep retries the fetch.
        fetch_retries_.fetch_add(1, std::memory_order_relaxed);
      } else if (view.status().code() == StatusCode::kOutOfRange) {
        // Retention truncated past our committed offset. Skip the
        // committed position forward to the retention floor so the pump
        // does not stall forever on offsets that no longer exist.
        const auto info = log_.GetPartitionInfo(topic, partition);
        if (info.ok() && info->begin_offset > committed) {
          records_skipped_.fetch_add(info->begin_offset - committed,
                                     std::memory_order_relaxed);
          (void)log_.CommitOffset(group, topic, partition, info->begin_offset);
          progressed = true;
        }
      }
      continue;
    }
    if (view->empty()) continue;
    progressed = true;
    for (std::size_t i = 0; i < view->size(); ++i) {
      const mq::RecordView rec = (*view)[i];
      records_consumed_.fetch_add(1, std::memory_order_relaxed);
      // Continue the producer's trace from the record header. Stage spans
      // chain off a cursor (each start = the previous end), so per-trace
      // stage durations sum to the produce -> web latency.
      obs::TraceContext trace;
      if (const auto header = rec.FindHeader(obs::kTraceHeader)) {
        if (const auto parsed = obs::TraceContext::Parse(*header)) {
          trace = *parsed;
        }
      }
      TimeNs cursor = rec.timestamp();
      auto stage = [&](const char* name) {
        if (!trace.valid()) return;
        const TimeNs now = clock_->Now();
        obs::Span span;
        span.name = name;
        span.context = spans_.Child(trace);
        span.start = cursor;
        span.end = now;
        spans_.Record(std::move(span));
        cursor = now;
      };
      // Queue-wait stage: broker append time -> consumer pickup.
      stage("mq.queue");
      // The parser contract takes owned strings; this is the single point
      // where the record's payload is copied out of the shared batch.
      const std::string key(rec.key());
      const std::string value(rec.value());
      auto doc = state.spec.parser(key, value);
      if (!doc) continue;
      // Storage stage.
      (void)state.collection->Insert(*doc);
      documents_stored_.fetch_add(1, std::memory_order_relaxed);
      stage("store");
      // Analysis stage.
      if (state.spec.analyzer) {
        auto annotation = state.spec.analyzer(*doc);
        stage("analyze");
        if (annotation) {
          annotations_.fetch_add(1, std::memory_order_relaxed);
          // Visualization stage: render to the web feed.
          std::string json = store::ToJson(*annotation);
          {
            MutexLock lock(web_mu_);
            web_feed_.push_back(std::move(json));
          }
          stage("web");
        }
      }
    }
    (void)log_.CommitOffset(group, topic, partition, view->next_offset());
  }
  return progressed;
}

void CityPipeline::Stop() {
  for (auto& [name, state] : topics_) {
    if (state->consumer.joinable()) state->consumer.request_stop();
  }
  for (auto& [name, state] : topics_) {
    if (state->consumer.joinable()) state->consumer.join();
  }
}

bool CityPipeline::Drain(TimeNs max_wait) {
  // One shared deadline: a partition that is merely mid-failover recovers in
  // a few ticks, while one whose quorum never comes back would otherwise
  // hold the caller forever.
  const TimeNs deadline = clock_->Now() + max_wait;
  bool drained = true;
  for (auto& [name, state] : topics_) {
    const std::string& topic = state->spec.topic;
    const auto parts = log_.NumPartitions(topic);
    if (!parts.ok()) continue;
    for (int p = 0; p < *parts; ++p) {
      while (true) {
        const auto info = log_.GetPartitionInfo(topic, p);
        if (!info.ok()) {
          // Mid-failover the partition briefly has no leader; wait it out
          // until the deadline.
          if (info.status().code() == StatusCode::kUnavailable &&
              clock_->Now() < deadline) {
            clock_->SleepFor(kMillisecond);
            continue;
          }
          if (info.status().code() == StatusCode::kUnavailable) {
            METRO_LOG(kWarning)
                << "Drain giving up on leaderless partition " << topic << "/"
                << p << ": " << info.status();
            drained = false;
          }
          break;
        }
        const std::int64_t committed =
            log_.CommittedOffset("pipeline-" + topic, topic, p);
        if (committed >= info->end_offset) break;
        if (clock_->Now() >= deadline) {
          METRO_LOG(kWarning)
              << "Drain deadline passed with " << topic << "/" << p
              << " undrained (committed " << committed << " of "
              << info->end_offset << ")";
          drained = false;
          break;
        }
        clock_->SleepFor(kMillisecond);
      }
    }
  }
  return drained;
}

std::vector<std::string> CityPipeline::WebFeed() const {
  MutexLock lock(web_mu_);
  return web_feed_;
}

PipelineStats CityPipeline::Stats() const {
  PipelineStats s;
  s.records_consumed = records_consumed_.load();
  s.documents_stored = documents_stored_.load();
  s.annotations = annotations_.load();
  s.produce_retries = produce_retries_.load();
  s.fetch_retries = fetch_retries_.load();
  s.records_skipped = records_skipped_.load();
  {
    MutexLock lock(web_mu_);
    s.web_items = std::int64_t(web_feed_.size());
  }
  s.stage_latency = spans_.StageBreakdown();
  // End-to-end latency from the same spans that feed the breakdown: the
  // extent of every trace that reached the web stage (i.e. was annotated).
  std::vector<double> e2e_ms;
  for (const obs::TraceSummary& t : spans_.Traces()) {
    if (t.stage_ns.count("web") > 0) {
      e2e_ms.push_back(double(t.total()) / double(kMillisecond));
    }
  }
  if (!e2e_ms.empty()) {
    std::sort(e2e_ms.begin(), e2e_ms.end());
    double sum = 0;
    for (const double v : e2e_ms) sum += v;
    s.mean_latency_ms = sum / double(e2e_ms.size());
    // Same quantile as the per-stage breakdown above.
    s.p99_latency_ms = obs::QuantileOf(e2e_ms, 0.99);
  }
  return s;
}

}  // namespace metro::core
