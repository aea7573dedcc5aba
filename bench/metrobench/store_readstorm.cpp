// store_readstorm: reads beside writes on one LsmEngine.
//
// All load is open-loop on four threads: two readers issuing 40,000
// Zipfian (s = 1.1 over 50,000 keys) Gets/s in total, one writer issuing
// 20,000 Puts/s that alternate overwrites and fresh keys, and one scanner
// issuing 1,000 100-key snapshot scans/s. The memtable and compaction
// settings force seals and compactions inline in the writer during the
// window, so the read path (version pin, bloom, fences, block cache)
// competes with write stalls; a change that trades one for the other shows
// in write_p99_ms against latency_p99_ms.
//
// Readers never outnumber the CPUs: with more busy threads than cores the
// read p99 measures the OS scheduler, not the engine.

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/lsm.h"
#include "util/rng.h"
#include "workloads.h"

namespace metrobench {
namespace {

using namespace metro;

constexpr int kKeys = 50'000;
constexpr double kZipfS = 1.1;
constexpr int kReaders = 2;
constexpr double kGetRate = 40'000;  ///< total over the readers
constexpr double kPutRate = 20'000;
constexpr double kScanRate = 1'000;
constexpr int kScanLen = 100;
constexpr int kFreshWindow = 100'000;  ///< writer's fresh keys (wraps)
constexpr double kWarmupS = 0.5;
constexpr std::size_t kMemtableLimit = 64 * 1024;
constexpr std::size_t kCompactionTrigger = 4;
constexpr int kCapacityChunks = 20;
constexpr int kCapacityGetsPerChunk = 20'000;  ///< per reader
constexpr std::size_t kValueBytes = 64;

std::string Key(const char* prefix, int i) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%s%06d", prefix, i);
  return buf;
}

/// Values are a function of (writer, key), so a reader can tell a correct
/// answer from a torn or misplaced one.
std::string Value(char writer, std::string_view key) {
  std::string v(1, writer);
  v += key;
  v.resize(kValueBytes, '.');
  return v;
}

bool ValidValue(std::string_view key, std::string_view value) {
  return value == Value('p', key) || value == Value('w', key);
}

/// Zipfian ranks through a precomputed CDF, mapped to keys by an
/// odd-multiplier permutation so popularity is not correlated with key
/// order (else fences alone would absorb the storm).
class Zipf {
 public:
  Zipf(int n, double s) : n_(n) {
    cdf_.reserve(std::size_t(n));
    double total = 0;
    for (int rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(double(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  int Draw(Rng& rng) const {
    const double u = rng.UniformDouble();
    const auto rank = int(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin());
    return int((std::uint64_t(rank) * 0x9e3779b1ull) % std::uint64_t(n_));
  }

 private:
  int n_;
  std::vector<double> cdf_;
};

enum Kind { kGet = 0, kPut = 1, kScan = 2 };
const char* const kRootName[] = {"store.read.op", "store.write.op",
                                 "store.scan.op"};
const char* const kCallName[] = {"store.get", "store.put", "store.scan"};

/// One open-loop stream: its keys and schedule, and what it measured.
struct Stream {
  Kind kind = kGet;
  std::vector<std::string> keys;
  std::vector<TimeNs> offsets;
  std::int64_t first = 0;  ///< first op past the warm-up
  // Results, written by the stream's own thread.
  std::vector<double> latency_ms;
  std::vector<double> call_us;
  std::vector<TimeNs> done;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
  TimeNs max_lateness = 0;
};

Stream MakeStream(Kind kind, double rate, TimeNs phase,
                  std::vector<std::string> keys) {
  Stream s;
  s.kind = kind;
  s.offsets = OpenLoop::FixedRate(rate, std::int64_t(keys.size()));
  for (TimeNs& t : s.offsets) t += phase;
  while (s.first < std::int64_t(keys.size()) &&
         s.offsets[std::size_t(s.first)] < TimeNs(kWarmupS * 1e9)) {
    ++s.first;
  }
  s.keys = std::move(keys);
  return s;
}

/// Drives one stream on the calling thread; `at_midpoint` runs once,
/// halfway through its ops.
void RunStream(store::LsmEngine& engine, Stream& s, TimeNs t0, bool trace,
               std::uint64_t op_base,
               const std::function<void()>& at_midpoint = {}) {
  OpenLoop loop(t0, s.offsets);
  const auto n = std::int64_t(s.keys.size());
  s.latency_ms.reserve(std::size_t(n - s.first));
  s.done.assign(std::size_t(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::string& key = s.keys[std::size_t(i)];
    if (i == n / 2 && at_midpoint) at_midpoint();
    const TimeNs due = loop.Due(i);
    WaitUntil(due);
    const TimeNs start = Now();
    loop.Start(i, start);
    bool ok = true, right = true;
    if (s.kind == kGet) {
      const auto got = engine.Get(key);
      ok = got.ok();
      right = !ok || ValidValue(key, *got);
    } else if (s.kind == kPut) {
      ok = engine.Put(key, Value('w', key)).ok();
    } else {
      int seen = 0;
      std::string prev;
      for (auto it = engine.NewIterator(key, "");
           it.Valid() && seen < kScanLen; it.Next(), ++seen) {
        const bool ascending = seen == 0 || it.key() > prev;
        right = right && ascending && ValidValue(it.key(), it.value());
        prev = it.key();
      }
      ok = seen > 0;
    }
    const TimeNs done = Now();
    s.done[std::size_t(i)] = done;
    if (!right) ++s.wrong;
    if (i < s.first) continue;
    if (!ok) ++s.failed;
    s.latency_ms.push_back(ok ? double(done - due) / 1e6
                              : std::numeric_limits<double>::infinity());
    s.call_us.push_back(double(done - start) / 1e3);
    if (trace) {
      const std::uint64_t op = op_base + std::uint64_t(i);
      spans::Record(kRootName[s.kind], nullptr, op, due, done);
      spans::Record("core.gen_lag", kRootName[s.kind], op, due, start);
      spans::Record(kCallName[s.kind], kRootName[s.kind], op, start, done);
    }
  }
  s.max_lateness = loop.max_lateness();
}

std::unique_ptr<store::LsmEngine> Prefill() {
  store::LsmConfig config;
  config.memtable_limit_bytes = kMemtableLimit;
  config.compaction_trigger = kCompactionTrigger;
  config.block_cache = std::make_shared<store::BlockCache>();
  auto engine = std::make_unique<store::LsmEngine>(config);
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = Key("key", i);
    if (!engine->Put(key, Value('p', key)).ok()) return nullptr;
  }
  return engine;
}

}  // namespace

RunResult RunStoreReadstorm(const Options& options) {
  RunResult r;
  const double total_s = kWarmupS + options.seconds;

  // Inputs: each stream's keys, drawn from the seed.
  const Zipf zipf(kKeys, kZipfS);
  std::vector<Stream> streams;
  for (int t = 0; t < kReaders; ++t) {
    Rng rng(options.seed * 31 + std::uint64_t(t) + 1);
    const double rate = kGetRate / kReaders;
    std::vector<std::string> keys(std::size_t(total_s * rate));
    for (std::string& k : keys) k = Key("key", zipf.Draw(rng));
    // Readers interleave: reader t starts t / kReaders of an interval late.
    streams.push_back(
        MakeStream(kGet, rate, TimeNs(1e9 / kGetRate * t), std::move(keys)));
  }
  {
    Rng rng(options.seed * 31 + 100);
    std::vector<std::string> keys(std::size_t(total_s * kPutRate));
    for (std::size_t j = 0; j < keys.size(); ++j) {
      keys[j] = j % 2 == 0 ? Key("key", int(rng.UniformU64(kKeys)))
                           : Key("fresh", int(j / 2 % kFreshWindow));
    }
    streams.push_back(MakeStream(kPut, kPutRate, 0, std::move(keys)));
  }
  {
    Rng rng(options.seed * 31 + 200);
    std::vector<std::string> keys(std::size_t(total_s * kScanRate));
    for (std::string& k : keys) k = Key("key", int(rng.UniformU64(kKeys)));
    streams.push_back(MakeStream(kScan, kScanRate, 0, std::move(keys)));
  }

  // Set-up: a prefilled engine, built repeatedly; the last one is used.
  std::unique_ptr<store::LsmEngine> engine;
  std::vector<double> setup_s;
  while (MoreSetups(setup_s)) {
    engine.reset();
    const TimeNs t = Now();
    engine = Prefill();
    setup_s.push_back(double(Now() - t) / 1e9);
    if (!engine) {
      r.Fail("prefill failed");
      return r;
    }
  }

  const store::LsmStats before = engine->Stats();
  const auto cache_before = engine->block_cache()->GetStats();
  const TimeNs t0 = Now() + 10 * kMillisecond;
  {
    std::vector<std::jthread> threads;
    for (std::size_t s = 1; s < streams.size(); ++s) {
      threads.emplace_back([&, s] {
        RunStream(*engine, streams[s], t0, options.trace,
                  std::uint64_t(s) << 40);
      });
    }
    RunStream(*engine, streams[0], t0, options.trace, 0,
              [&r] { CheckThreads(r); });
  }
  const store::LsmStats after = engine->Stats();
  const auto cache_after = engine->block_cache()->GetStats();

  const TimeNs w0 = t0 + TimeNs(kWarmupS * 1e9);
  std::vector<double> by_kind_ms[3];
  std::vector<double> call_us[3];
  std::vector<TimeNs> done;
  TimeNs lateness = 0;
  std::int64_t wrong = 0;
  for (Stream& s : streams) {
    r.attempted += std::int64_t(s.latency_ms.size());
    r.failed += s.failed;
    wrong += s.wrong;
    lateness = std::max(lateness, s.max_lateness);
    auto& lat = by_kind_ms[s.kind];
    lat.insert(lat.end(), s.latency_ms.begin(), s.latency_ms.end());
    auto& call = call_us[s.kind];
    call.insert(call.end(), s.call_us.begin(), s.call_us.end());
    done.insert(done.end(), s.done.begin() + s.first, s.done.end());
  }
  if (wrong > 0) {
    r.Fail(std::to_string(wrong) +
           " reads returned neither the prefilled nor the written value");
  }

  r.Add("setup_s", Median(setup_s), "s");
  AddLatency(r, "latency", std::move(by_kind_ms[kGet]), "ms");
  AddLatency(r, "write", std::move(by_kind_ms[kPut]), "ms");
  AddLatency(r, "scan", std::move(by_kind_ms[kScan]), "ms");
  r.Add("throughput_rps", Throughput(done, w0), "ops/s");
  r.Add("failed_ratio", double(r.failed) / double(r.attempted), "ratio");
  r.Add("core.gen_lag_ms.max", double(lateness) / 1e6, "ms");
  AddSpanQuantiles(r, "store.get_us", std::move(call_us[kGet]), true);
  AddSpanQuantiles(r, "store.put_us", std::move(call_us[kPut]), true);
  AddSpanQuantiles(r, "store.scan_us", std::move(call_us[kScan]), true);
  r.Add("store.seals", double(after.seals - before.seals), "count");
  r.Add("store.compactions", double(after.compactions - before.compactions),
        "count");
  r.Add("store.write_stall_ms",
        double(after.write_stall_ns - before.write_stall_ns) / 1e6, "ms");
  std::size_t tables = 0;
  for (const std::size_t t : after.level_tables) tables += t;
  r.Add("store.level_tables", double(tables), "count");
  r.Add("store.bloom_skips", double(after.bloom_skips - before.bloom_skips),
        "count");
  r.Add("store.fence_skips", double(after.fence_skips - before.fence_skips),
        "count");
  const std::uint64_t hits = cache_after.hits - cache_before.hits;
  const std::uint64_t probes = hits + cache_after.misses - cache_before.misses;
  r.Add("store.cache_hit_ratio", probes ? double(hits) / double(probes) : 0,
        "ratio");
  if (after.seals == before.seals || after.compactions == before.compactions) {
    r.Fail("the window ran without seals and compactions");
  }

  if (options.trace) {
    if (!WriteSpans(options.out_dir + "/trace_store_readstorm.jsonl",
                    spans::Collect(), 50'000)) {
      r.Fail("cannot write trace_store_readstorm.jsonl");
    }
  } else {
    // Capacity: the readers' Gets back to back, writer stopped, timed in
    // chunks; the sum over readers of each one's median chunk rate.
    std::vector<double> rates(kReaders);
    {
      std::vector<std::jthread> readers;
      for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
          const Stream& s = streams[std::size_t(t)];
          std::vector<double> chunk_rates;
          std::size_t next = 0;
          for (int c = 0; c < kCapacityChunks; ++c) {
            std::int64_t found = 0;
            const TimeNs start = Now();
            for (int i = 0; i < kCapacityGetsPerChunk; ++i) {
              found += engine->Get(s.keys[next++ % s.keys.size()]).ok();
            }
            chunk_rates.push_back(double(found) /
                                  (double(Now() - start) / 1e9));
          }
          rates[std::size_t(t)] = Median(chunk_rates);
        });
      }
    }
    double capacity = 0;
    for (const double x : rates) capacity += x;
    r.Add("capacity_rps", capacity, "ops/s");
  }
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

}  // namespace metrobench
