#include "fog/fog.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>

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
    if (o.failed) {
      ++result.items_failed;
      continue;
    }
    result.send_retries += o.retries;
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

}  // namespace

PipelineResult RunEarlyExitPipeline(FogTopology& topology,
                                    std::vector<WorkItem> items,
                                    const FogComputeHooks& hooks) {
  net::Simulator& sim = topology.sim();
  auto result = std::make_shared<PipelineResult>();
  result->outcomes.reserve(items.size());
  const auto before = topology.Traffic();

  for (const WorkItem& item : items) {
    sim.ScheduleAt(item.arrival, [item, &topology, &sim, result, &hooks] {
      const net::NodeId edge = topology.edge(item.edge);
      const net::NodeId fog = topology.fog_of_edge(item.edge);
      const net::NodeId server = topology.server_of_edge(item.edge);
      const net::NodeId cloud = topology.cloud();
      const TimeNs start = sim.Now();

      auto finish = [item, result, start, &sim](bool offloaded, bool dropped,
                                                bool failed = false) {
        ItemOutcome outcome;
        outcome.id = item.id;
        outcome.completed = sim.Now();
        outcome.latency = sim.Now() - start;
        outcome.dropped = dropped;
        outcome.offloaded = offloaded;
        outcome.failed = failed;
        result->outcomes.push_back(outcome);
      };
      auto fail = [finish] { finish(false, false, true); };

      // Tier 1: elementary filtering on the edge device.
      (void)sim.Compute(edge, item.edge_filter_macs, [=, &sim, &topology] {
        if (item.dropped_by_edge_filter) {
          finish(false, true);
          return;
        }
        // Raw data moves edge -> fog.
        Status st = sim.Send(edge, fog, item.raw_bytes, [=, &sim] {
          // Tier 2: the split model's local half runs on the fog node.
          (void)sim.Compute(fog, item.local_macs, [=, &sim] {
            const bool local_exit = hooks.local_gate
                                        ? hooks.local_gate(item)
                                        : item.local_exit;
            if (local_exit) {
              // Confident: only the annotation travels upstream for storage.
              Status up = sim.Send(fog, server, item.annotation_bytes,
                                   [=, &sim] {
                (void)sim.Send(server, cloud, item.annotation_bytes,
                               [=] { finish(false, false); });
              });
              if (!up.ok()) fail();
              return;
            }
            // Not confident: ship the branch feature map to the server.
            Status off = sim.Send(fog, server, item.feature_bytes, [=, &sim] {
              (void)sim.Compute(server, item.server_macs, [=, &sim] {
                if (hooks.server_infer) hooks.server_infer(item);
                result->server_macs_total += double(item.server_macs);
                (void)sim.Send(server, cloud, item.annotation_bytes,
                               [=] { finish(true, false); });
              });
            });
            if (!off.ok()) fail();
          });
        });
        if (!st.ok()) fail();
      });
    });
  }

  sim.RunUntilIdle();
  Summarize(*result, topology, before);
  return std::move(*result);
}

namespace {

/// Per-item trace state: the root context plus a stage cursor. All of an
/// item's callbacks run sequentially on the simulator, so advancing the
/// cursor at each stage boundary yields contiguous stage spans whose
/// durations sum exactly to the item's end-to-end latency.
struct ItemTrace {
  obs::TraceContext root;
  TimeNs cursor = 0;
};

/// Per-run shared state for the resilient pipeline.
struct ResilientCtx {
  ResilientCtx(FogTopology& topo, const FogResilienceOptions& opts)
      : topology(&topo),
        sim(&topo.sim()),
        options(opts),
        breaker(opts.breaker, topo.sim().clock()),
        jitter(opts.retry, topo.sim().clock(), opts.seed) {}

  FogTopology* topology;
  net::Simulator* sim;
  FogResilienceOptions options;
  resilience::CircuitBreaker breaker;
  resilience::RetryPolicy jitter;  ///< used for BackoffFor only
  PipelineResult result;

  /// Closes the stage `[tr->cursor, now]` and advances the cursor.
  void Stage(const std::shared_ptr<ItemTrace>& tr, const char* name) {
    if (options.spans == nullptr || !tr->root.valid()) return;
    const TimeNs now = sim->Now();
    obs::Span span;
    span.name = name;
    span.context = options.spans->Child(tr->root);
    span.kind = obs::SpanKind::kStage;
    span.start = tr->cursor;
    span.end = now;
    options.spans->Record(std::move(span));
    tr->cursor = now;
  }

  /// Marks the item's trace degraded with the fallback cause.
  void MarkDegraded(const std::shared_ptr<ItemTrace>& tr, const char* cause) {
    if (options.spans == nullptr || !tr->root.valid()) return;
    options.spans->Event("degrade", options.spans->Child(tr->root),
                         {{"degraded", cause}});
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
    if (attempt >= options.retry.max_attempts) {
      on_give_up(false);
      return;
    }
    const TimeNs backoff = jitter.BackoffFor(attempt);
    if (deadline_at > 0 && sim->Now() + backoff >= deadline_at) {
      on_give_up(true);
      return;
    }
    if (retry_slot != nullptr) ++*retry_slot;
    if (options.spans != nullptr && trace.valid()) {
      obs::Span span;
      span.name = "retry.backoff";
      span.context = options.spans->Child(trace);
      span.kind = obs::SpanKind::kOverlay;
      span.start = sim->Now();
      span.end = sim->Now() + backoff;
      span.SetTag("retried", "true");
      span.SetTag("attempt", std::to_string(attempt));
      options.spans->Record(std::move(span));
    }
    sim->ScheduleAfter(backoff, [=, this] {
      SendWithRetry(from, to, bytes, deadline_at, retry_slot, trace,
                    std::move(on_delivery), std::move(on_give_up),
                    attempt + 1);
    });
  }
};

}  // namespace

PipelineResult RunResilientPipeline(FogTopology& topology,
                                    std::vector<WorkItem> items,
                                    const FogResilienceOptions& options) {
  auto ctx = std::make_shared<ResilientCtx>(topology, options);
  net::Simulator& sim = *ctx->sim;
  ctx->result.outcomes.reserve(items.size());
  const auto before = topology.Traffic();

  if (options.spans != nullptr) {
    // Breaker transitions are run-scoped, not item-scoped: they land as
    // event markers on one trace for the whole run. The listener captures
    // raw pointers (not ctx) so the breaker does not own its owner.
    obs::SpanCollector* spans = options.spans;
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
      if (ctx->options.spans != nullptr) {
        tr->root = ctx->options.spans->StartTrace();
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
                const bool local_exit =
                    ctx->options.hooks.local_gate
                        ? ctx->options.hooks.local_gate(item)
                        : item.local_exit;
                ctx->Stage(tr, "fog.local");
                // The local answer now exists; nothing past this point may
                // hard-fail the item.
                auto degrade = [=](const char* cause) {
                  ctx->MarkDegraded(tr, cause);
                  finish(false, false, true, false);
                };

                if (local_exit) {
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
                    ctx->options.offload_deadline > 0
                        ? sim.Now() + ctx->options.offload_deadline
                        : 0;
                if (!ctx->breaker.Allow()) {
                  degrade("fog.degraded.server_unavailable");
                  return;
                }
                ctx->SendWithRetry(
                    fog, server, item.feature_bytes, deadline_at,
                    retries.get(), tr->root,
                    [=, &sim] {
                      ctx->Stage(tr, "offload.transfer");
                      ctx->breaker.RecordSuccess();
                      (void)sim.Compute(server, item.server_macs, [=, &sim] {
                        if (ctx->options.hooks.server_infer) {
                          ctx->options.hooks.server_infer(item);
                        }
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
                      ctx->breaker.RecordFailure();
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

}  // namespace metro::fog
