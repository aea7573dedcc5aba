// mq_fanin: three closed-loop producers on one BrokerCluster.
//
// Five nodes, replication factor 3, one topic of 6 partitions. Each
// producer sends single-record keyed Prepare + Produce calls back to back;
// one consumer thread runs FetchBatch + CommitOffset over all partitions.
// An op is one Prepare + Produce call and its latency is that call's
// duration. The broker's single cluster mutex serializes everything, so
// this is where sharding it must show; store and nn are idle.
//
// The window is fixed work: one round per requested second (a round took
// about 1 s on the calibration host), each on a fresh cluster, so a 10 s
// run sends 1M records per producer. The retained log and the latency
// samples, and with them the process's memory, then do not grow as the
// broker gets faster; throughput is the median round's records over its
// produce time.

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mq/broker_cluster.h"
#include "util/rng.h"
#include "workloads.h"

namespace metrobench {
namespace {

using namespace metro;

constexpr int kNodes = 5;
constexpr int kReplication = 3;
constexpr int kPartitions = 6;
constexpr int kProducers = 3;
constexpr std::int64_t kRoundRecords = 100'000;  ///< per producer
constexpr std::int64_t kWarmupRecords = 25'000;  ///< per producer, round 0
constexpr std::int64_t kCapacityRecords = 50'000;  ///< per producer
constexpr int kCapacityBursts = 5;
constexpr int kUsers = 10'000;
constexpr std::size_t kValueBytes = 100;
const char* const kTopic = "fanin";
const char* const kGroup = "fanin-consumer";
const char* const kOp = "mq_fanin.op";

/// Keys and values per producer. A value starts with its producer and
/// index, so the consumer can check each acked record arrives exactly once.
struct Inputs {
  std::vector<std::string> keys[kProducers];
  std::vector<std::string> values[kProducers];
};

Inputs MakeInputs(std::uint64_t seed) {
  Inputs in;
  for (int p = 0; p < kProducers; ++p) {
    Rng rng(seed * 7 + std::uint64_t(p) + 1);
    for (std::int64_t j = 0; j < kRoundRecords; ++j) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "user%05d", int(rng.UniformU64(kUsers)));
      in.keys[p].emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%d%09lld|", p, static_cast<long long>(j));
      std::string v = buf;
      while (v.size() < kValueBytes) v += char('a' + rng.UniformU64(26));
      in.values[p].push_back(std::move(v));
    }
  }
  return in;
}

/// (producer, index) from a record value; {-1, -1} if malformed.
std::pair<int, std::int64_t> IdOf(std::string_view value) {
  if (value.size() < 10) return {-1, -1};
  std::int64_t j = -1;
  const auto res = std::from_chars(value.data() + 1, value.data() + 10, j);
  if (res.ec != std::errc()) return {-1, -1};
  return {value[0] - '0', j};
}

struct Cluster {
  std::unique_ptr<mq::BrokerCluster> broker;
  mq::ProducerId producers[kProducers] = {};
};

Result<Cluster> MakeCluster() {
  mq::BrokerClusterConfig config;
  config.nodes = kNodes;
  config.replication_factor = kReplication;
  Cluster c;
  c.broker = std::make_unique<mq::BrokerCluster>(WallClock::Instance(), config);
  METRO_RETURN_IF_ERROR(c.broker->CreateTopic(kTopic, kPartitions));
  for (auto& id : c.producers) id = c.broker->CreateProducer();
  const auto assignment = c.broker->JoinGroup(kGroup, kTopic, "consumer-0");
  if (!assignment.ok()) return assignment.status();
  if (assignment->size() != kPartitions) {
    return FailedPreconditionError("consumer not assigned every partition");
  }
  return c;
}

/// What the rounds measured, accumulated.
struct Totals {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  ///< produce calls of every round
  std::vector<double> round_rps;
  std::int64_t attempted = 0, failed = 0;
  std::int64_t backpressure = 0;
  std::int64_t lag_max = 0;
};

/// One round on a fresh cluster: kProducers threads send `records` each
/// while this thread consumes; then every acked record must have been
/// fetched exactly once.
void RunRound(RunResult& r, const Inputs& in, std::int64_t records,
              bool measured, bool trace, std::uint64_t round, Totals& totals) {
  const TimeNs setup_start = Now();
  auto made = MakeCluster();
  if (!made.ok()) {
    r.Fail("cluster setup failed: " + std::string(made.status().message()));
    return;
  }
  const TimeNs setup_end = Now();
  mq::BrokerCluster& broker = *made->broker;

  std::vector<std::uint8_t> acked[kProducers], seen[kProducers];
  std::vector<double> calls[kProducers];  ///< latency ms
  TimeNs finished[kProducers] = {};
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    acked[p].assign(std::size_t(records), 0);
    seen[p].assign(std::size_t(records), 0);
    calls[p].reserve(std::size_t(records));
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::int64_t j = 0; j < records; ++j) {
        std::string key = in.keys[p][std::size_t(j)];
        std::string value = in.values[p][std::size_t(j)];
        const TimeNs t1 = Now();
        auto request = broker.Prepare(made->producers[p], kTopic,
                                      std::move(key), std::move(value));
        const TimeNs t2 = Now();
        bool ok = request.ok();
        if (ok) ok = broker.Produce(*request).ok();
        const TimeNs t3 = Now();
        acked[p][std::size_t(j)] = ok;
        calls[p].push_back(ok ? double(t3 - t1) / 1e6
                              : std::numeric_limits<double>::infinity());
        if (trace && measured) {
          const std::uint64_t op =
              (round << 40) | (std::uint64_t(p) << 32) | std::uint64_t(j);
          spans::Record(kOp, nullptr, op, t1, t3);
          spans::Record("mq.prepare", kOp, op, t1, t2);
          spans::Record("mq.produce", kOp, op, t2, t3);
        }
      }
      finished[p] = Now();
      done.fetch_add(1, std::memory_order_release);
    });
  }

  const TimeNs start = Now();
  go.store(true, std::memory_order_release);
  std::int64_t offsets[kPartitions] = {};
  std::int64_t fetched = 0, bad_ids = 0, fetch_errors = 0;
  std::uint64_t fetch_op = 0;
  TimeNs next_lag_sample = start;
  bool threads_checked = !measured;
  while (true) {
    const bool producers_done =
        done.load(std::memory_order_acquire) == kProducers;
    bool progressed = false;
    for (int part = 0; part < kPartitions; ++part) {
      const TimeNs f1 = Now();
      const auto view = broker.FetchBatch(kTopic, part, offsets[part], 128);
      const TimeNs f2 = Now();
      if (!view.ok()) {
        ++fetch_errors;
        continue;
      }
      if (view->empty()) continue;
      progressed = true;
      for (std::size_t i = 0; i < view->size(); ++i) {
        const auto [p, j] = IdOf((*view)[i].value());
        if (p < 0 || p >= kProducers || j < 0 || j >= records) {
          ++bad_ids;
          continue;
        }
        ++seen[p][std::size_t(j)];
        ++fetched;
      }
      offsets[part] = view->next_offset();
      const TimeNs c1 = Now();
      if (!broker.CommitOffset(kGroup, kTopic, part, offsets[part]).ok()) {
        ++fetch_errors;
      }
      if (trace && measured) {
        const std::uint64_t op = (1ull << 63) | (round << 40) | fetch_op++;
        spans::Record("mq.fetch", nullptr, op, f1, f2);
        spans::Record("mq.commit", nullptr, op, c1, Now());
      }
    }
    if (trace && measured && Now() >= next_lag_sample) {  // 10 Hz
      next_lag_sample = Now() + 100 * kMillisecond;
      const auto lag = broker.Lag(kGroup);
      if (lag.ok()) totals.lag_max = std::max(totals.lag_max, *lag);
    }
    if (!threads_checked && fetched > records) {
      CheckThreads(r);
      threads_checked = true;
    }
    if (producers_done && !progressed) break;
  }
  producers.clear();  // joins

  std::int64_t lost_or_duplicated = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (std::int64_t j = 0; j < records; ++j) {
      const auto k = std::size_t(j);
      if (seen[p][k] != (acked[p][k] ? 1 : 0)) ++lost_or_duplicated;
      if (measured) {
        ++totals.attempted;
        totals.failed += acked[p][k] ? 0 : 1;
      }
    }
  }
  if (lost_or_duplicated + bad_ids + fetch_errors > 0) {
    r.Fail("round " + std::to_string(round) + ": " +
           std::to_string(lost_or_duplicated) +
           " acked records not fetched exactly once, " +
           std::to_string(bad_ids) + " malformed, " +
           std::to_string(fetch_errors) + " fetch/commit errors");
  }
  totals.setup_s.push_back(double(setup_end - setup_start) / 1e9);
  if (!measured) return;
  TimeNs end = start;
  for (const TimeNs t : finished) end = std::max(end, t);
  totals.round_rps.push_back(double(kProducers * records) /
                             (double(end - start) / 1e9));
  for (const auto& c : calls) {
    totals.latency_ms.insert(totals.latency_ms.end(), c.begin(), c.end());
  }
  totals.backpressure += broker.metrics().GetCounter("mq.backpressure").value();
}

/// The producers alone on a fresh cluster, closed loop and with no consumer:
/// the produce rate the broker saturates at. A single producer would measure
/// whichever vCPU it landed on (rates differ by ~1.7x on shared hosts).
double ProducersOnlyRate(RunResult& r, const Inputs& in) {
  auto made = MakeCluster();
  if (!made.ok()) {
    r.Fail("capacity: cluster setup failed");
    return 0;
  }
  std::atomic<std::int64_t> acked{0};
  const TimeNs start = Now();
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::int64_t ok = 0;
        for (std::int64_t j = 0; j < kCapacityRecords; ++j) {
          auto request = made->broker->Prepare(
              made->producers[p], kTopic, in.keys[p][std::size_t(j)],
              in.values[p][std::size_t(j)]);
          if (request.ok() && made->broker->Produce(*request).ok()) ++ok;
        }
        acked.fetch_add(ok, std::memory_order_relaxed);
      });
    }
  }
  const double rate = double(acked.load()) / (double(Now() - start) / 1e9);
  if (acked.load() != kProducers * kCapacityRecords) {
    r.Fail("capacity: produce failed");
  }
  return rate;
}

}  // namespace

RunResult RunMqFanin(const Options& options) {
  RunResult r;
  const Inputs in = MakeInputs(options.seed);
  Totals totals;
  RunRound(r, in, kWarmupRecords, false, options.trace, 0, totals);
  const auto rounds = std::uint64_t(std::max(1.0, std::round(options.seconds)));
  totals.latency_ms.reserve(rounds * kProducers * kRoundRecords);
  for (std::uint64_t round = 1; round <= rounds; ++round) {
    RunRound(r, in, kRoundRecords, true, options.trace, round, totals);
    if (!r.correct) return r;
  }

  r.attempted = totals.attempted;
  r.failed = totals.failed;
  r.Add("setup_s", Median(totals.setup_s), "s");
  // An op here is exactly one Prepare + Produce call.
  const LatencySummary calls =
      AddLatency(r, "latency", std::move(totals.latency_ms), "ms");
  r.Add("mq.produce_us.p50", calls.p50 * 1e3, "us");
  r.Add("mq.produce_us.p99", calls.p99 * 1e3, "us");
  r.Add("throughput_rps", Median(totals.round_rps), "ops/s");
  r.Add("failed_ratio", double(r.failed) / double(r.attempted), "ratio");
  r.Add("mq.backpressure", double(totals.backpressure), "count");

  if (options.trace) {
    const std::vector<BenchSpan> all = spans::Collect();
    auto times = ReduceSpans(all);
    AddSpanQuantiles(r, "mq.fetch_us", times["mq.fetch"].total_us, true);
    r.Add("mq.consumer_lag.max", double(totals.lag_max), "records");
    if (!WriteSpans(options.out_dir + "/trace_mq_fanin.jsonl", all, 50'000)) {
      r.Fail("cannot write trace_mq_fanin.jsonl");
    }
  } else {
    std::vector<double> rates;
    for (int b = 0; b <= kCapacityBursts; ++b) {
      const double rate = ProducersOnlyRate(r, in);
      if (b > 0) rates.push_back(rate);  // burst 0 warms the allocator
    }
    r.Add("capacity_rps", Median(rates), "ops/s");
  }
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

}  // namespace metrobench
