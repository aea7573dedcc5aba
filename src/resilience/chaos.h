#pragma once

// Scripted fault injection for the fog pipeline (the chaos harness).
//
// A `FaultPlan` is a time-ordered script of faults against the subsystems a
// deployment is built from: DFS DataNode crashes, network link flaps and
// latency spikes, broker partition outages, and whole analysis-server
// tier outages. Plans are either hand-written (scripted experiments) or
// drawn from a seeded distribution at a chosen intensity, and are applied
// deterministically — pull-style against any clock via `ApplyUpTo`, or
// scheduled onto a discrete-event `net::Simulator` via `ScheduleOn`.

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/dfs.h"
#include "fog/fog.h"
#include "mq/broker_cluster.h"
#include "net/simulator.h"
#include "util/clock.h"
#include "util/rng.h"

namespace metro::resilience::chaos {

/// What breaks (or recovers).
enum class FaultKind {
  kDfsNodeKill,       ///< DataNode `index` crashes
  kDfsNodeRevive,     ///< DataNode `index` restarts (disk intact)
  kLinkDown,          ///< net link (`index`, `index2`) goes down
  kLinkUp,            ///< net link (`index`, `index2`) comes back
  kLinkLatencySpike,  ///< net link latency multiplied by `magnitude`
  kMqPartitionDown,   ///< preferred leader of (`topic`, `index`) crashes
  kMqPartitionUp,     ///< preferred leader of (`topic`, `index`) revives
  kMqNodeKill,        ///< broker node `index` crashes
  kMqNodeRevive,      ///< broker node `index` restarts
  kServerOutage,      ///< fog analysis server `index` loses all fog links
  kServerRecovery,    ///< fog analysis server `index` links restored
};

std::string_view FaultKindName(FaultKind kind);

/// One scheduled fault.
struct FaultEvent {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  int index = 0;           ///< node / partition / server id (kind-dependent)
  int index2 = 0;          ///< second link endpoint for link faults
  double magnitude = 1.0;  ///< latency multiplier for kLinkLatencySpike
  std::string topic;       ///< topic for partition faults
};

/// The subsystems a plan may target; unneeded targets stay null and events
/// against them are counted as skipped rather than applied.
struct FaultTargets {
  dfs::Cluster* dfs = nullptr;
  net::Simulator* net = nullptr;
  /// The broker. kMqNodeKill / kMqNodeRevive act on a node directly; a
  /// partition fault (kMqPartitionDown / kMqPartitionUp) always kills or
  /// revives the partition's *preferred* leader node. With replication the
  /// partition fails over; at replication factor 1 it goes unavailable
  /// until the node returns.
  mq::BrokerCluster* mq_cluster = nullptr;
  fog::FogTopology* fog = nullptr;  ///< for server-tier outages
};

/// A time-ordered, replayable fault script.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Appends an event (events may be added in any order; application is by
  /// timestamp).
  void Add(FaultEvent event);

  /// Draws a random plan over `[0, horizon)` at `intensity` in [0, 1]:
  /// intensity scales the number of fault episodes (0 = none). Every
  /// injected fault gets a matching recovery event before `horizon`, so a
  /// full replay always ends healthy. Which fault classes are drawn depends
  /// on which targets exist: DataNode crash/revive cycles when `dfs` is set,
  /// partition outages per `topic` and broker node kill/revive cycles when
  /// `mq_cluster` is set, and server-tier outages + fog-link latency spikes
  /// when `fog` is set.
  static FaultPlan Random(double intensity, TimeNs horizon,
                          const FaultTargets& targets,
                          const std::vector<std::string>& topics,
                          std::uint64_t seed);

  /// Applies every not-yet-applied event with `at <= now` against
  /// `targets`, in timestamp order. Returns the number applied. Idempotent
  /// per event: each fires once, so callers poll this from their run loop.
  int ApplyUpTo(TimeNs now, const FaultTargets& targets);

  /// Schedules every remaining event onto `sim` at its timestamp. The
  /// targets struct is captured by value (the pointed-to subsystems must
  /// outlive the simulation run).
  void ScheduleOn(net::Simulator& sim, FaultTargets targets);

  std::size_t size() const { return events_.size(); }
  std::size_t applied() const { return applied_; }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Lowest event timestamp not yet applied, or -1 when exhausted.
  TimeNs NextAt() const;

 private:
  static void ApplyEvent(const FaultEvent& event, const FaultTargets& targets);

  std::vector<FaultEvent> events_;  // kept sorted by (at, insertion)
  std::size_t applied_ = 0;
};

}  // namespace metro::resilience::chaos
