#include "fog/fog.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <unordered_map>

#include "resilience/policy.h"

namespace metro::fog {

std::string_view TierName(Tier tier) {
  switch (tier) {
    case Tier::kEdge: return "edge";
    case Tier::kFog: return "fog";
    case Tier::kAnalysisServer: return "server";
    case Tier::kCloud: return "cloud";
  }
  return "?";
}

FogTopology::FogTopology(const FogConfig& config) : config_(config) {
  assert(config_.num_edges > 0 && config_.edges_per_fog > 0 &&
         config_.fogs_per_server > 0);
  num_fogs_ = (config_.num_edges + config_.edges_per_fog - 1) /
              config_.edges_per_fog;
  num_servers_ =
      (num_fogs_ + config_.fogs_per_server - 1) / config_.fogs_per_server;

  for (int i = 0; i < config_.num_edges; ++i) {
    edges_.push_back(sim_.AddNode(
        {"edge-" + std::to_string(i), config_.edge_macs_per_s}));
  }
  for (int i = 0; i < num_fogs_; ++i) {
    fogs_.push_back(
        sim_.AddNode({"fog-" + std::to_string(i), config_.fog_macs_per_s}));
  }
  for (int i = 0; i < num_servers_; ++i) {
    servers_.push_back(sim_.AddNode(
        {"server-" + std::to_string(i), config_.server_macs_per_s}));
  }
  cloud_ = sim_.AddNode({"cloud", config_.cloud_macs_per_s});

  for (int i = 0; i < config_.num_edges; ++i) {
    (void)sim_.Connect(edges_[std::size_t(i)], fog_of_edge(i), config_.edge_fog);
  }
  for (int f = 0; f < num_fogs_; ++f) {
    (void)sim_.Connect(fogs_[std::size_t(f)], server_of_fog_index(f),
                       config_.fog_server);
  }
  for (int s = 0; s < num_servers_; ++s) {
    (void)sim_.Connect(servers_[std::size_t(s)], cloud_, config_.server_cloud);
  }
}

FogTopology::TierTraffic FogTopology::Traffic() const {
  TierTraffic t;
  for (int i = 0; i < config_.num_edges; ++i) {
    const auto stats = sim_.Stats(edges_[std::size_t(i)], fog_of_edge(i));
    if (stats.ok()) t.edge_to_fog += stats->bytes;
  }
  for (int f = 0; f < num_fogs_; ++f) {
    const auto stats =
        sim_.Stats(fogs_[std::size_t(f)], server_of_fog_index(f));
    if (stats.ok()) t.fog_to_server += stats->bytes;
  }
  for (int s = 0; s < num_servers_; ++s) {
    const auto stats = sim_.Stats(servers_[std::size_t(s)], cloud_);
    if (stats.ok()) t.server_to_cloud += stats->bytes;
  }
  return t;
}

double PipelineResult::AccuracyOver(const std::vector<WorkItem>& items) const {
  if (items.empty()) return 0;
  std::unordered_map<std::uint64_t, const WorkItem*> by_id;
  by_id.reserve(items.size());
  for (const WorkItem& item : items) by_id.emplace(item.id, &item);
  std::int64_t correct = 0;
  for (const ItemOutcome& o : outcomes) {
    if (o.dropped || o.failed) continue;
    const auto it = by_id.find(o.id);
    if (it == by_id.end()) continue;
    if (o.offloaded ? it->second->server_correct : it->second->local_correct) {
      ++correct;
    }
  }
  return double(correct) / double(items.size());
}

namespace {

/// Shared post-run bookkeeping: traffic deltas and latency aggregates.
void Summarize(PipelineResult& result, FogTopology& topology,
               const FogTopology::TierTraffic& before) {
  const auto after = topology.Traffic();
  result.traffic.edge_to_fog = after.edge_to_fog - before.edge_to_fog;
  result.traffic.fog_to_server = after.fog_to_server - before.fog_to_server;
  result.traffic.server_to_cloud =
      after.server_to_cloud - before.server_to_cloud;

  std::vector<TimeNs> latencies;
  for (const ItemOutcome& o : result.outcomes) {
    if (o.dropped) {
      ++result.items_dropped;
      continue;
    }
    result.send_retries += o.retries;
    if (o.failed) {
      ++result.items_failed;
      continue;
    }
    if (o.degraded) {
      ++result.items_degraded;
    } else {
      (o.offloaded ? result.items_offloaded : result.items_local) += 1;
    }
    latencies.push_back(o.latency);
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0;
    for (const TimeNs l : latencies) sum += double(l);
    result.mean_latency_ms = sum / double(latencies.size()) / kMillisecond;
    result.p99_latency_ms =
        double(latencies[std::size_t(double(latencies.size() - 1) * 0.99)]) /
        kMillisecond;
  }
}

/// The resilient chain's tuning: per-send retries with jittered exponential
/// backoff on simulated time, a breaker guarding the analysis-server tier,
/// and a budget for the offload path measured from the offload decision.
constexpr resilience::RetryConfig kSendRetry{
    .max_attempts = 3,
    .initial_backoff = 4 * kMillisecond,
    .max_backoff = 64 * kMillisecond,
    .multiplier = 2.0,
    .jitter = 0.2,
    .deadline = 0,
};
constexpr resilience::BreakerConfig kServerBreaker{
    .failure_threshold = 3,
    .cooldown = 200 * kMillisecond,
    .half_open_probes = 1,
};
constexpr TimeNs kOffloadDeadline = 400 * kMillisecond;
constexpr std::uint64_t kRetryJitterSeed = 19;

/// Per-item trace state: the root context plus a stage cursor. All of an
/// item's callbacks run sequentially on the simulator, so advancing the
/// cursor at each stage boundary yields contiguous stage spans whose
/// durations sum exactly to the item's end-to-end latency.
struct ItemTrace {
  obs::TraceContext root;
  TimeNs cursor = 0;
};

/// Per-run shared state for the event chain. With `resilient` false each
/// send gets one attempt, the breaker is never consulted, no deadline
/// applies, and an item the resilient chain would degrade fails instead.
struct ChainCtx {
  ChainCtx(FogTopology& topo, bool resilient, obs::SpanCollector* spans)
      : topology(&topo),
        sim(&topo.sim()),
        resilient(resilient),
        spans(spans),
        breaker(kServerBreaker, topo.sim().clock()),
        jitter(kSendRetry, topo.sim().clock(), kRetryJitterSeed) {}

  FogTopology* topology;
  net::Simulator* sim;
  bool resilient;
  obs::SpanCollector* spans;
  resilience::CircuitBreaker breaker;
  resilience::RetryPolicy jitter;  ///< used for BackoffFor only
  PipelineResult result;

  /// Closes the stage `[tr->cursor, now]` and advances the cursor.
  void Stage(const std::shared_ptr<ItemTrace>& tr, const char* name) {
    if (spans == nullptr || !tr->root.valid()) return;
    const TimeNs now = sim->Now();
    obs::Span span;
    span.name = name;
    span.context = spans->Child(tr->root);
    span.kind = obs::SpanKind::kStage;
    span.start = tr->cursor;
    span.end = now;
    spans->Record(std::move(span));
    tr->cursor = now;
  }

  /// Marks the item's trace degraded with the fallback cause.
  void MarkDegraded(const std::shared_ptr<ItemTrace>& tr, const char* cause) {
    if (spans == nullptr || !tr->root.valid()) return;
    spans->Event("degrade", spans->Child(tr->root), {{"degraded", cause}});
  }

  /// Sends with retries on simulated time. `deadline_at` bounds the retry
  /// schedule (<= 0 means unbounded). `on_give_up(deadline_exceeded)` fires
  /// when the attempts or the deadline budget are exhausted. Each backoff
  /// wait is recorded as a `retry.backoff` overlay span on `trace` — it
  /// annotates time the enclosing stage span already covers.
  void SendWithRetry(net::NodeId from, net::NodeId to, std::uint64_t bytes,
                     TimeNs deadline_at, int* retry_slot,
                     obs::TraceContext trace,
                     std::function<void()> on_delivery,
                     std::function<void(bool)> on_give_up, int attempt = 1) {
    Status st = sim->Send(from, to, bytes, on_delivery);
    if (st.ok()) return;
    if (!resilient || attempt >= kSendRetry.max_attempts) {
      on_give_up(false);
      return;
    }
    const TimeNs backoff = jitter.BackoffFor(attempt);
    if (deadline_at > 0 && sim->Now() + backoff >= deadline_at) {
      on_give_up(true);
      return;
    }
    if (retry_slot != nullptr) ++*retry_slot;
    if (spans != nullptr && trace.valid()) {
      obs::Span span;
      span.name = "retry.backoff";
      span.context = spans->Child(trace);
      span.kind = obs::SpanKind::kOverlay;
      span.start = sim->Now();
      span.end = sim->Now() + backoff;
      span.SetTag("retried", "true");
      span.SetTag("attempt", std::to_string(attempt));
      spans->Record(std::move(span));
    }
    sim->ScheduleAfter(backoff, [=, this] {
      SendWithRetry(from, to, bytes, deadline_at, retry_slot, trace,
                    std::move(on_delivery), std::move(on_give_up),
                    attempt + 1);
    });
  }
};

/// The one Fig. 3 event chain behind both entry points.
PipelineResult RunChain(FogTopology& topology, std::vector<WorkItem> items,
                        bool resilient, obs::SpanCollector* spans) {
  auto ctx = std::make_shared<ChainCtx>(topology, resilient, spans);
  net::Simulator& sim = *ctx->sim;
  ctx->result.outcomes.reserve(items.size());
  const auto before = topology.Traffic();

  if (spans != nullptr) {
    // Breaker transitions are run-scoped, not item-scoped: they land as
    // event markers on one trace for the whole run. The listener captures
    // raw pointers (not ctx) so the breaker does not own its owner.
    const obs::TraceContext run_trace = spans->StartTrace();
    ctx->breaker.SetStateListener(
        [spans, run_trace](resilience::CircuitBreaker::State from,
                           resilience::CircuitBreaker::State to) {
          spans->Event(
              "breaker." + std::string(resilience::BreakerStateName(to)),
              spans->Child(run_trace),
              {{"from", std::string(resilience::BreakerStateName(from))},
               {"to", std::string(resilience::BreakerStateName(to))}});
        });
  }

  for (const WorkItem& item : items) {
    sim.ScheduleAt(item.arrival, [item, ctx] {
      net::Simulator& sim = *ctx->sim;
      FogTopology& topology = *ctx->topology;
      const net::NodeId edge = topology.edge(item.edge);
      const net::NodeId fog = topology.fog_of_edge(item.edge);
      const net::NodeId server = topology.server_of_edge(item.edge);
      const net::NodeId cloud = topology.cloud();
      const TimeNs start = sim.Now();

      // Each item's retry count lives on the shared context until the item
      // finishes (the outcome is built at completion time).
      auto retries = std::make_shared<int>(0);
      auto tr = std::make_shared<ItemTrace>();
      if (ctx->spans != nullptr) {
        tr->root = ctx->spans->StartTrace();
        tr->cursor = start;
      }
      auto finish = [item, ctx, start, retries](bool offloaded, bool dropped,
                                                bool degraded, bool failed) {
        ItemOutcome outcome;
        outcome.id = item.id;
        outcome.completed = ctx->sim->Now();
        outcome.latency = ctx->sim->Now() - start;
        outcome.dropped = dropped;
        outcome.offloaded = offloaded;
        outcome.degraded = degraded;
        outcome.failed = failed;
        outcome.retries = *retries;
        ctx->result.outcomes.push_back(outcome);
      };

      // Tier 1: elementary filtering on the edge device.
      (void)sim.Compute(edge, item.edge_filter_macs, [=, &sim, &topology] {
        ctx->Stage(tr, "edge.filter");
        if (item.dropped_by_edge_filter) {
          finish(false, true, false, false);
          return;
        }
        // Raw data moves edge -> fog, with retries; an unreachable fog
        // uplink is the one hard failure (no compute tier to fall back to).
        ctx->SendWithRetry(
            edge, fog, item.raw_bytes, /*deadline_at=*/0, retries.get(),
            tr->root,
            [=, &sim] {
              ctx->Stage(tr, "edge.uplink");
              // Tier 2: the split model's local half runs on the fog node.
              (void)sim.Compute(fog, item.local_macs, [=, &sim] {
                ctx->Stage(tr, "fog.local");
                // The local answer now exists; past this point the resilient
                // chain serves it instead of hard-failing the item.
                auto degrade = [=](const char* cause) {
                  ctx->MarkDegraded(tr, cause);
                  finish(false, false, ctx->resilient, !ctx->resilient);
                };

                if (item.local_exit) {
                  // Confident: annotation travels upstream for storage. If
                  // the uplink stays down the answer is still served
                  // locally — a degraded success, not an error. Both hops
                  // roll up into one `upstream.annotation` stage.
                  ctx->SendWithRetry(
                      fog, server, item.annotation_bytes, 0, retries.get(),
                      tr->root,
                      [=, &sim] {
                        Status up = sim.Send(server, cloud,
                                             item.annotation_bytes, [=] {
                          ctx->Stage(tr, "upstream.annotation");
                          finish(false, false, false, false);
                        });
                        if (!up.ok()) {
                          ctx->Stage(tr, "upstream.annotation");
                          degrade("fog.degraded.annotation_upstream");
                        }
                      },
                      [=](bool) {
                        ctx->Stage(tr, "upstream.annotation");
                        degrade("fog.degraded.annotation_upstream");
                      });
                  return;
                }

                // Wants the server. Fast-fail on an open breaker.
                const TimeNs deadline_at =
                    ctx->resilient ? sim.Now() + kOffloadDeadline : 0;
                if (ctx->resilient && !ctx->breaker.Allow()) {
                  degrade("fog.degraded.server_unavailable");
                  return;
                }
                ctx->SendWithRetry(
                    fog, server, item.feature_bytes, deadline_at,
                    retries.get(), tr->root,
                    [=, &sim] {
                      ctx->Stage(tr, "offload.transfer");
                      if (ctx->resilient) ctx->breaker.RecordSuccess();
                      (void)sim.Compute(server, item.server_macs, [=, &sim] {
                        ctx->Stage(tr, "server.compute");
                        ctx->result.server_macs_total +=
                            double(item.server_macs);
                        // The server answered; a failed archive hop does not
                        // demote the item, it just defers the annotation.
                        Status up = sim.Send(server, cloud,
                                             item.annotation_bytes, [=] {
                          ctx->Stage(tr, "cloud.annotate");
                          finish(true, false, false, false);
                        });
                        if (!up.ok()) finish(true, false, false, false);
                      });
                    },
                    [=](bool deadline_exceeded) {
                      ctx->Stage(tr, "offload.transfer");
                      if (ctx->resilient) ctx->breaker.RecordFailure();
                      degrade(deadline_exceeded
                                  ? "fog.degraded.offload_deadline"
                                  : "fog.degraded.offload_failed");
                    });
              });
            },
            [=](bool) {
              ctx->Stage(tr, "edge.uplink");
              finish(false, false, false, true);
            });
      });
    });
  }

  sim.RunUntilIdle();
  Summarize(ctx->result, topology, before);
  return std::move(ctx->result);
}

}  // namespace

PipelineResult RunEarlyExitPipeline(FogTopology& topology,
                                    std::vector<WorkItem> items) {
  return RunChain(topology, std::move(items), /*resilient=*/false, nullptr);
}

PipelineResult RunResilientPipeline(FogTopology& topology,
                                    std::vector<WorkItem> items,
                                    obs::SpanCollector* spans) {
  return RunChain(topology, std::move(items), /*resilient=*/true, spans);
}

}  // namespace metro::fog
