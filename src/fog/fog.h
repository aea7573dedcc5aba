#pragma once

// Four-tier fog computing model (Fig. 3, Sec. II-B1).
//
// Edge devices collect sensor/camera data and do elementary filtering; fog
// nodes run the first layers of a split model and ship only annotations
// upstream when confident; analysis servers run the remaining layers on
// shipped feature maps; the federated cloud stores annotated data. Built on
// the discrete-event network simulator so per-tier latency and traffic are
// measured quantities.

#include <cstdint>
#include <vector>

#include "net/simulator.h"
#include "obs/trace.h"
#include "util/analysis.h"

namespace metro::fog {

/// The four tiers of Fig. 3.
enum class Tier { kEdge = 0, kFog = 1, kAnalysisServer = 2, kCloud = 3 };

/// Human-readable tier name ("edge", "fog", ...).
std::string_view TierName(Tier tier);

/// Topology and device ratings. Defaults approximate the paper's hardware:
/// Raspberry-Pi-class edges, Jetson-class fog nodes, GPU analysis servers,
/// and a datacenter cloud, linked by last-mile / regional (LONI) / backbone
/// (Internet2) classes of links.
struct FogConfig {
  int num_edges = 8;
  int edges_per_fog = 4;
  int fogs_per_server = 2;

  double edge_macs_per_s = 5e8;
  double fog_macs_per_s = 1e10;
  double server_macs_per_s = 2e11;
  double cloud_macs_per_s = 8e11;

  net::LinkSpec edge_fog{20e6, 2 * kMillisecond};       // last-mile wireless
  net::LinkSpec fog_server{200e6, 5 * kMillisecond};    // regional network
  net::LinkSpec server_cloud{1e9, 15 * kMillisecond};   // Internet2 backbone
};

/// The instantiated tree: edges -> fog nodes -> analysis servers -> cloud.
class FogTopology {
 public:
  explicit FogTopology(const FogConfig& config);

  const FogConfig& config() const { return config_; }
  net::Simulator& sim() METRO_LIFETIME_BOUND { return sim_; }

  int num_edges() const { return config_.num_edges; }
  int num_fogs() const { return num_fogs_; }
  int num_servers() const { return num_servers_; }

  net::NodeId edge(int i) const { return edges_[std::size_t(i)]; }
  net::NodeId fog_node(int f) const { return fogs_[std::size_t(f)]; }
  net::NodeId server(int s) const { return servers_[std::size_t(s)]; }
  net::NodeId fog_of_edge(int i) const {
    return fogs_[std::size_t(i / config_.edges_per_fog)];
  }
  net::NodeId server_of_fog_index(int fog_index) const {
    return servers_[std::size_t(fog_index / config_.fogs_per_server)];
  }
  net::NodeId server_of_edge(int i) const {
    return server_of_fog_index(i / config_.edges_per_fog);
  }
  net::NodeId cloud() const { return cloud_; }

  /// Bytes that crossed each tier boundary so far.
  struct TierTraffic {
    std::uint64_t edge_to_fog = 0;
    std::uint64_t fog_to_server = 0;
    std::uint64_t server_to_cloud = 0;
  };
  TierTraffic Traffic() const;

 private:
  FogConfig config_;
  net::Simulator sim_;
  int num_fogs_ = 0;
  int num_servers_ = 0;
  std::vector<net::NodeId> edges_;
  std::vector<net::NodeId> fogs_;
  std::vector<net::NodeId> servers_;
  net::NodeId cloud_ = -1;
};

/// One unit of work entering the pipeline at an edge device (a frame, a
/// clip, a sensor batch). The gate decisions are inputs: the DNN benches
/// compute them from real trained models, the synthetic benches draw them
/// from distributions.
struct WorkItem {
  std::uint64_t id = 0;
  int edge = 0;                     ///< source edge index
  TimeNs arrival = 0;               ///< when the edge produces it
  std::uint64_t raw_bytes = 0;      ///< raw payload size (edge -> fog)
  std::uint64_t feature_bytes = 0;  ///< branch feature map (fog -> server)
  std::uint64_t annotation_bytes = 256;  ///< annotated result (upstream)
  std::uint64_t edge_filter_macs = 0;    ///< elementary filtering cost
  std::uint64_t local_macs = 0;          ///< split-model local half (fog)
  std::uint64_t server_macs = 0;         ///< split-model server half
  bool dropped_by_edge_filter = false;   ///< edge filtering discards it
  bool local_exit = true;                ///< local gate accepts (no offload)
  bool local_correct = true;   ///< the local (early-exit) answer is right
  bool server_correct = true;  ///< the server (full-model) answer is right
};

/// Per-item outcome.
struct ItemOutcome {
  std::uint64_t id = 0;
  TimeNs completed = 0;
  TimeNs latency = 0;
  bool dropped = false;
  bool offloaded = false;
  bool degraded = false;  ///< wanted the server but fell back to local
  bool failed = false;    ///< no answer produced (hard failure)
  int retries = 0;        ///< link sends retried for this item
};

/// Aggregate pipeline results.
struct PipelineResult {
  std::vector<ItemOutcome> outcomes;
  FogTopology::TierTraffic traffic;
  std::int64_t items_dropped = 0;
  std::int64_t items_local = 0;
  std::int64_t items_offloaded = 0;
  std::int64_t items_degraded = 0;  ///< answered locally under degradation
  std::int64_t items_failed = 0;    ///< hard failures (no answer at all)
  std::int64_t send_retries = 0;    ///< total link-send retries
  double mean_latency_ms = 0;
  double p99_latency_ms = 0;
  double server_macs_total = 0;  ///< compute spent on analysis servers

  /// Fraction of non-dropped items that produced an answer (degraded local
  /// answers count; hard failures do not).
  double Availability() const {
    const std::int64_t answered =
        items_local + items_offloaded + items_degraded;
    const std::int64_t total = answered + items_failed;
    return total == 0 ? 1.0 : double(answered) / double(total);
  }

  /// Deployed accuracy given the per-item correctness flags: offloaded items
  /// use the server answer, everything else (local exits and degraded
  /// fallbacks) the local answer. Dropped and failed items score as wrong.
  double AccuracyOver(const std::vector<WorkItem>& items) const;
};

/// Runs a batch of work items through the Fig. 3 pipeline on `topology`:
/// edge filter -> raw to fog -> local half -> (exit: annotation upstream |
/// offload: feature map to server -> server half -> annotation to cloud).
/// Both entry points run one event chain, and every item gets exactly one
/// outcome.
///
/// `RunResilientPipeline` wraps each hop in the resilience layer: link sends
/// retry with jittered exponential backoff on simulated time; a circuit
/// breaker guards the analysis-server tier; and when the server is
/// unreachable, the breaker is open, or the offload deadline cannot be met,
/// items that wanted the server fall back to their local answer and
/// complete `degraded` instead of failing. Only an unreachable fog uplink
/// (edge -> fog, after retries) still hard-fails an item — there is nowhere
/// to compute even a local answer. An offloaded item whose cloud hop fails
/// still completes `offloaded`; its annotation is deferred.
///
/// `spans`, when set, gives every item a trace with contiguous stage spans
/// per tier hop (`edge.filter`, `edge.uplink`, `fog.local`, then
/// `upstream.annotation` or `offload.transfer` / `server.compute` /
/// `cloud.annotate`), `retry.backoff` overlays around retried sends, and
/// `degrade` / breaker-transition event markers. A `degrade` event's
/// `degraded` tag names the fallback cause (`fog.degraded.*`); an item whose
/// cloud hop was deferred has no `cloud.annotate` stage. The collector
/// should run on the topology's simulated clock (`topology.sim().clock()`).
PipelineResult RunResilientPipeline(FogTopology& topology,
                                    std::vector<WorkItem> items,
                                    obs::SpanCollector* spans = nullptr);

/// The same chain with resilience off, the baseline: each send gets one
/// attempt, the breaker is never consulted, no deadline applies, and an item
/// the resilient chain would mark `degraded` is marked `failed`.
PipelineResult RunEarlyExitPipeline(FogTopology& topology,
                                    std::vector<WorkItem> items);

}  // namespace metro::fog
