#include "resilience/chaos.h"

#include <algorithm>

namespace metro::resilience::chaos {

void FaultPlan::Add(FaultEvent event) {
  // Insert behind any already-applied prefix, keeping (at) order stable.
  auto it = std::upper_bound(
      events_.begin() + std::ptrdiff_t(applied_), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(it, std::move(event));
}

TimeNs FaultPlan::NextAt() const {
  if (applied_ >= events_.size()) return -1;
  return events_[applied_].at;
}

void FaultPlan::ApplyEvent(const FaultEvent& event,
                           const FaultTargets& targets) {
  switch (event.kind) {
    case FaultKind::kDfsNodeKill:
      if (targets.dfs && event.index >= 0 &&
          event.index < targets.dfs->num_datanodes()) {
        targets.dfs->node(event.index).Kill();
      }
      break;
    case FaultKind::kDfsNodeRevive:
      if (targets.dfs && event.index >= 0 &&
          event.index < targets.dfs->num_datanodes()) {
        targets.dfs->node(event.index).Revive();
      }
      break;
    case FaultKind::kLinkDown:
      if (targets.net) {
        (void)targets.net->SetLinkUp(event.index, event.index2, false);
      }
      break;
    case FaultKind::kLinkUp:
      if (targets.net) {
        (void)targets.net->SetLinkUp(event.index, event.index2, true);
      }
      break;
    case FaultKind::kLinkLatencySpike: {
      // Random() draws spikes between a fog node and its server, whose node
      // ids belong to the fog topology's simulator.
      net::Simulator* sim = targets.fog ? &targets.fog->sim() : targets.net;
      if (sim) {
        (void)sim->ScaleLinkLatency(event.index, event.index2,
                                    event.magnitude);
      }
      break;
    }
    case FaultKind::kMqPartitionDown:
    case FaultKind::kMqPartitionUp: {
      if (!targets.mq_cluster) break;
      // Taking a partition "down" means crashing its preferred leader. The
      // mapping round-trips (the matching Up event revives the same node)
      // because the preferred leader is a pure function of (topic,
      // partition).
      const auto leader =
          targets.mq_cluster->PreferredLeader(event.topic, event.index);
      if (!leader.ok()) break;
      if (event.kind == FaultKind::kMqPartitionUp) {
        (void)targets.mq_cluster->ReviveNode(*leader);
      } else {
        (void)targets.mq_cluster->KillNode(*leader);
      }
      break;
    }
    case FaultKind::kMqNodeKill:
      if (targets.mq_cluster) {
        (void)targets.mq_cluster->KillNode(event.index);
      }
      break;
    case FaultKind::kMqNodeRevive:
      if (targets.mq_cluster) {
        (void)targets.mq_cluster->ReviveNode(event.index);
      }
      break;
    case FaultKind::kServerOutage:
    case FaultKind::kServerRecovery:
      if (targets.fog && event.index >= 0 &&
          event.index < targets.fog->num_servers()) {
        const bool up = event.kind == FaultKind::kServerRecovery;
        const net::NodeId server = targets.fog->server(event.index);
        net::Simulator& sim = targets.fog->sim();
        for (int f = 0; f < targets.fog->num_fogs(); ++f) {
          if (targets.fog->server_of_fog_index(f) != server) continue;
          (void)sim.SetLinkUp(targets.fog->fog_node(f), server, up);
        }
      }
      break;
  }
}

int FaultPlan::ApplyUpTo(TimeNs now, const FaultTargets& targets) {
  int fired = 0;
  while (applied_ < events_.size() && events_[applied_].at <= now) {
    ApplyEvent(events_[applied_], targets);
    ++applied_;
    ++fired;
  }
  return fired;
}

void FaultPlan::ScheduleOn(net::Simulator& sim, FaultTargets targets) {
  for (; applied_ < events_.size(); ++applied_) {
    const FaultEvent event = events_[applied_];
    const TimeNs at = std::max(event.at, sim.Now());
    sim.ScheduleAt(at, [event, targets] { ApplyEvent(event, targets); });
  }
}

FaultPlan FaultPlan::Random(double intensity, TimeNs horizon,
                            const FaultTargets& targets,
                            const std::vector<std::string>& topics,
                            std::uint64_t seed) {
  FaultPlan plan;
  intensity = std::clamp(intensity, 0.0, 1.0);
  if (intensity == 0.0 || horizon <= 0) return plan;
  Rng rng(seed);

  auto Event = [](TimeNs at, FaultKind kind, int index, int index2 = 0,
                  double magnitude = 1.0) {
    FaultEvent e;
    e.at = at;
    e.kind = kind;
    e.index = index;
    e.index2 = index2;
    e.magnitude = magnitude;
    return e;
  };

  // Intensity scales episode count; each episode is one fault plus its
  // recovery, with the outage lasting up to a quarter of the horizon.
  const int episodes = int(1 + intensity * 7.0 + 0.5);
  auto episode_window = [&](TimeNs& start, TimeNs& end) {
    start = TimeNs(rng.UniformDouble(0.0, 0.70) * double(horizon));
    const TimeNs max_len = horizon / 4;
    end = start + std::max<TimeNs>(
                      1, TimeNs(rng.UniformDouble(0.25, 1.0) * double(max_len)));
  };

  for (int e = 0; e < episodes; ++e) {
    std::vector<int> classes;
    if (targets.dfs && targets.dfs->num_datanodes() > 0) classes.push_back(0);
    if (targets.mq_cluster && !topics.empty()) classes.push_back(1);
    if (targets.fog && targets.fog->num_servers() > 0) classes.push_back(2);
    if (targets.fog && targets.fog->num_fogs() > 0) classes.push_back(3);
    if (targets.mq_cluster && targets.mq_cluster->num_nodes() > 0) {
      classes.push_back(4);
    }
    if (classes.empty()) break;
    const int cls = classes[rng.UniformU64(classes.size())];
    TimeNs start = 0, end = 0;
    episode_window(start, end);

    switch (cls) {
      case 0: {
        const int node = int(rng.UniformU64(
            std::uint64_t(targets.dfs->num_datanodes())));
        plan.Add(Event(start, FaultKind::kDfsNodeKill, node));
        plan.Add(Event(end, FaultKind::kDfsNodeRevive, node));
        break;
      }
      case 1: {
        FaultEvent down = Event(start, FaultKind::kMqPartitionDown, 0);
        FaultEvent up = Event(end, FaultKind::kMqPartitionUp, 0);
        down.topic = up.topic = topics[rng.UniformU64(topics.size())];
        plan.Add(std::move(down));
        plan.Add(std::move(up));
        break;
      }
      case 2: {
        const int server =
            int(rng.UniformU64(std::uint64_t(targets.fog->num_servers())));
        plan.Add(Event(start, FaultKind::kServerOutage, server));
        plan.Add(Event(end, FaultKind::kServerRecovery, server));
        break;
      }
      case 4: {
        const int node = int(
            rng.UniformU64(std::uint64_t(targets.mq_cluster->num_nodes())));
        plan.Add(Event(start, FaultKind::kMqNodeKill, node));
        plan.Add(Event(end, FaultKind::kMqNodeRevive, node));
        break;
      }
      case 3: {
        const int f =
            int(rng.UniformU64(std::uint64_t(targets.fog->num_fogs())));
        const net::NodeId fog_node = targets.fog->fog_node(f);
        const net::NodeId server = targets.fog->server_of_fog_index(f);
        FaultEvent spike = Event(start, FaultKind::kLinkLatencySpike, fog_node,
                                 server, rng.UniformDouble(2.0, 4.0 + 12.0 * intensity));
        FaultEvent clear =
            Event(end, FaultKind::kLinkLatencySpike, fog_node, server, 1.0);
        plan.Add(std::move(spike));
        plan.Add(std::move(clear));
        break;
      }
    }
  }
  return plan;
}

}  // namespace metro::resilience::chaos
