// city_ingest: the Fig. 4 path end to end.
//
// One generator thread offers 20,000 records/s open-loop, round-robin over
// tweets (4 partitions), waze (2) and video annotations (2), through
// CityPipeline::Produce. The pipeline's three consumer threads parse with
// the bench's parser, store into the topic's collection and run the
// bench's analyzers; an op's result is the analyzer's verdict, and its
// latency runs from the record's scheduled arrival to the analyzer's
// return. The mq broker, the LSM-backed collections and the pipeline's own
// spans do the work; nn is idle. 12k/s was tried and rejected: its p99 was
// bimodal from run to run.

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datagen/city.h"
#include "text/text.h"
#include "util/rng.h"
#include "workloads.h"

namespace metrobench {
namespace {

using namespace metro;

constexpr double kRate = 20'000;
constexpr double kWarmupS = 1.0;
/// Closed-loop records for capacity_rps, split into bursts on fresh
/// pipelines; with ~4.3 pipeline spans per record a burst stays far under
/// the pipeline collector's 1M-span cap.
constexpr std::int64_t kCapacityRecords = 600'000;
constexpr int kCapacityBursts = 15;

struct TopicDef {
  const char* name;
  int partitions;
};
constexpr TopicDef kTopics[] = {
    {"tweets", 4}, {"waze", 2}, {"video-annotations", 2}};
constexpr int kNumTopics = 3;

const char* const kOp = "city.op";

struct Input {
  int topic = 0;
  std::string value;  ///< encoded document carrying its op id
  bool verdict = false;  ///< the offline analyzer pass over this input
};

/// The bench's analyzers, one per topic: tweets flag incident keywords,
/// waze promotes severity >= 4, video annotations pass straight through.
class Analyzers {
 public:
  Analyzers()
      : matcher_({"gunshots", "shooting", "robbery", "fight", "shots"}) {}

  bool Verdict(int topic, const store::Document& doc) const {
    if (topic == 0) {
      const auto it = doc.find("text");
      const auto* txt =
          it == doc.end() ? nullptr : std::get_if<std::string>(&it->second);
      return txt != nullptr && matcher_.Matches(*txt);
    }
    if (topic == 1) {
      const auto it = doc.find("severity");
      return it != doc.end() && std::get<std::int64_t>(it->second) >= 4;
    }
    return true;
  }

  std::optional<store::Document> Annotate(int topic,
                                          const store::Document& doc) const {
    if (!Verdict(topic, doc)) return std::nullopt;
    store::Document ann = doc;
    if (topic == 0) ann["alert"] = true;
    return ann;
  }

 private:
  text::KeywordMatcher matcher_;
};

std::vector<Input> MakeInputs(std::uint64_t seed, std::int64_t n,
                              const Analyzers& analyzers) {
  datagen::TweetGenerator tweets({.num_users = 2000}, seed);
  datagen::WazeGenerator waze(seed ^ 0x5A5E);
  Rng rng(seed ^ 0x71DE0);
  std::vector<Input> inputs(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Input& in = inputs[std::size_t(i)];
    in.topic = int(i % kNumTopics);
    const TimeNs at = i * 50'000;
    store::Document doc;
    if (in.topic == 0) {
      doc = datagen::CityDataGenerator::ToDocument(tweets.Generate(at));
    } else if (in.topic == 1) {
      doc = datagen::CityDataGenerator::ToDocument(waze.Generate(at));
    } else {
      doc["type"] = std::string("vehicle");
      doc["camera"] = std::int64_t(rng.UniformU64(200));
      doc["cls"] = std::int64_t(rng.UniformU64(8));
      doc["score"] = rng.UniformDouble();
    }
    doc["op"] = i;
    in.verdict = analyzers.Verdict(in.topic, doc);
    in.value = core::EncodeDocument(doc);
  }
  return inputs;
}

/// Per-op outcome, written by the consumer thread that owns the op's topic
/// and read only after the pipeline's threads are joined.
struct Outcomes {
  explicit Outcomes(std::size_t n)
      : result(n, 0), analyzed(n, 0), verdict(n, 0), acked(n, 0) {}
  std::vector<TimeNs> result;  ///< analyzer return, wall ns
  std::vector<std::uint8_t> analyzed;
  std::vector<std::uint8_t> verdict;
  std::vector<std::uint8_t> acked;
};

/// What the parser saw last on this consumer thread; the analyzer for the
/// same record runs next on the same thread.
struct ParseMark {
  std::int64_t op = -1;
  TimeNs in = 0, out = 0;
};
thread_local ParseMark t_parse;

std::int64_t OpOf(const store::Document& doc) {
  const auto it = doc.find("op");
  return it == doc.end() ? -1 : std::get<std::int64_t>(it->second);
}

/// A started pipeline wired to the bench's parser and analyzers. Ops below
/// `traced_from` are not traced (warm-up).
std::unique_ptr<core::CityPipeline> MakePipeline(
    const Analyzers& analyzers, Outcomes& out, const std::vector<TimeNs>& due,
    bool trace, std::int64_t traced_from) {
  auto pipeline = std::make_unique<core::CityPipeline>(WallClock::Instance());
  for (int t = 0; t < kNumTopics; ++t) {
    core::CityPipeline::TopicSpec spec;
    spec.topic = kTopics[t].name;
    spec.partitions = kTopics[t].partitions;
    spec.parser = [trace](const std::string&, const std::string& value)
        -> std::optional<store::Document> {
      const TimeNs in = trace ? Now() : 0;
      auto doc = core::DecodeDocument(value);
      if (trace && doc) t_parse = ParseMark{OpOf(*doc), in, Now()};
      return doc;
    };
    spec.analyzer = [&analyzers, &out, &due, trace, traced_from, t](
                        const store::Document& doc)
        -> std::optional<store::Document> {
      const TimeNs in = Now();
      const std::int64_t op = OpOf(doc);
      auto ann = analyzers.Annotate(t, doc);
      const TimeNs done = Now();
      if (op < 0 || std::size_t(op) >= out.result.size()) return ann;
      const auto i = std::size_t(op);
      out.result[i] = done;
      ++out.analyzed[i];
      out.verdict[i] = ann.has_value();
      if (trace && op >= traced_from && t_parse.op == op) {
        const auto id = std::uint64_t(op);
        spans::Record(kOp, nullptr, id, due[i], done);
        spans::Record("core.parse", kOp, id, t_parse.in, t_parse.out);
        spans::Record("core.store", kOp, id, t_parse.out, in);
        spans::Record("core.analyze", kOp, id, in, done);
      }
      return ann;
    };
    if (!pipeline->AddTopic(std::move(spec)).ok()) return nullptr;
  }
  if (!pipeline->Start().ok()) return nullptr;
  return pipeline;
}

/// Every acked op analyzed exactly once, no unacked op analyzed, and the
/// per-topic verdict counts equal to the offline analyzer pass.
void CheckExactlyOnce(RunResult& r, const char* phase,
                      const std::vector<Input>& inputs, const Outcomes& out,
                      std::int64_t n) {
  std::int64_t bad = 0;
  std::int64_t online[kNumTopics] = {}, offline[kNumTopics] = {};
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = std::size_t(i);
    if (out.analyzed[k] != (out.acked[k] ? 1 : 0)) ++bad;
    if (!out.acked[k]) continue;
    online[inputs[k].topic] += out.verdict[k];
    offline[inputs[k].topic] += inputs[k].verdict;
  }
  if (bad > 0) {
    r.Fail(std::string(phase) + ": " + std::to_string(bad) +
           " ops not analyzed exactly once");
  }
  for (int t = 0; t < kNumTopics; ++t) {
    if (online[t] != offline[t]) {
      r.Fail(std::string(phase) + ": " + kTopics[t].name + " verdicts " +
             std::to_string(online[t]) + " != offline " +
             std::to_string(offline[t]));
    }
  }
}

/// Closed-loop saturation: bursts of inputs produced back to back into a
/// fresh pipeline each, timed to the last verdict; the median burst rate.
double MeasureCapacity(RunResult& r, const std::vector<Input>& inputs,
                       const Analyzers& analyzers) {
  const std::int64_t n = std::min<std::int64_t>(
      kCapacityRecords / kCapacityBursts, std::int64_t(inputs.size()));
  std::vector<double> rates;
  for (int b = 0; b < kCapacityBursts; ++b) {
    Outcomes out{std::size_t(n)};
    const std::vector<TimeNs> due(std::size_t(n), 0);
    auto pipeline = MakePipeline(analyzers, out, due, false, n);
    if (!pipeline) {
      r.Fail("capacity: pipeline setup failed");
      return 0;
    }
    const TimeNs start = Now();
    for (std::int64_t i = 0; i < n; ++i) {
      const Input& in = inputs[std::size_t(i)];
      out.acked[std::size_t(i)] =
          pipeline->Produce(kTopics[in.topic].name, "", in.value).ok();
    }
    if (!pipeline->Drain(60 * kSecond)) r.Fail("capacity: drain timed out");
    pipeline->Stop();
    CheckExactlyOnce(r, "capacity", inputs, out, n);
    TimeNs last = start;
    for (const TimeNs t : out.result) last = std::max(last, t);
    rates.push_back(double(n) / (double(last - start) / 1e9));
  }
  return Median(rates);
}

}  // namespace

RunResult RunCityIngest(const Options& options) {
  RunResult r;
  const Analyzers analyzers;
  const auto warmup = std::int64_t(kWarmupS * kRate);
  const auto measured = std::int64_t(options.seconds * kRate);
  const std::int64_t n = warmup + measured;
  const std::vector<Input> inputs = MakeInputs(options.seed, n, analyzers);
  Outcomes out{std::size_t(n)};
  std::vector<TimeNs> due(std::size_t(n), 0);

  std::unique_ptr<core::CityPipeline> pipeline;
  std::vector<double> setup_s;
  while (MoreSetups(setup_s)) {
    pipeline.reset();
    const TimeNs t = Now();
    pipeline = MakePipeline(analyzers, out, due, options.trace, warmup);
    setup_s.push_back(double(Now() - t) / 1e9);
    if (!pipeline) {
      r.Fail("pipeline setup failed");
      return r;
    }
  }

  const TimeNs t0 = Now() + 10 * kMillisecond;
  OpenLoop loop(t0, OpenLoop::FixedRate(kRate, n));
  for (std::int64_t i = 0; i < n; ++i) due[std::size_t(i)] = loop.Due(i);
  std::int64_t lag_max = 0;
  TimeNs next_lag_sample = t0;
  std::string value;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = std::size_t(i);
    const Input& in = inputs[k];
    value = in.value;
    WaitUntil(due[k]);
    const TimeNs start = Now();
    loop.Start(i, start);
    const bool ok =
        pipeline->Produce(kTopics[in.topic].name, "", std::move(value)).ok();
    out.acked[k] = ok;
    if (options.trace && i >= warmup) {
      const TimeNs ret = Now();
      spans::Record("core.gen_lag", kOp, std::uint64_t(i), due[k], start);
      spans::Record("mq.produce", kOp, std::uint64_t(i), start, ret);
      if (ret >= next_lag_sample) {  // consumer lag at 10 Hz
        next_lag_sample = ret + 100 * kMillisecond;
        std::int64_t lag = 0;
        for (const TopicDef& topic : kTopics) {
          const auto l =
              pipeline->log().Lag(std::string("pipeline-") + topic.name);
          if (l.ok()) lag += *l;
        }
        lag_max = std::max(lag_max, lag);
      }
    }
    if (i == warmup + measured / 2) CheckThreads(r);
  }
  if (!pipeline->Drain(60 * kSecond)) r.Fail("drain timed out");
  pipeline->Stop();
  CheckExactlyOnce(r, "run", inputs, out, n);

  // Latency from the scheduled arrival to the verdict, over the window.
  const TimeNs w0 = loop.Due(warmup);
  std::vector<double> latency_ms;
  latency_ms.reserve(std::size_t(measured));
  for (std::int64_t i = warmup; i < n; ++i) {
    const auto k = std::size_t(i);
    ++r.attempted;
    const bool ok = out.acked[k] && out.analyzed[k] == 1;
    r.failed += ok ? 0 : 1;
    latency_ms.push_back(ok ? double(out.result[k] - due[k]) / 1e6
                            : std::numeric_limits<double>::infinity());
  }

  r.Add("setup_s", Median(setup_s), "s");
  AddLatency(r, "latency", std::move(latency_ms), "ms");
  r.Add("throughput_rps",
        Throughput(std::span(out.result).subspan(std::size_t(warmup)), w0),
        "ops/s");
  r.Add("failed_ratio", double(r.failed) / double(r.attempted), "ratio");
  r.Add("core.gen_lag_ms.max", double(loop.max_lateness()) / 1e6, "ms");
  r.Add("mq.backpressure",
        double(pipeline->log().metrics().GetCounter("mq.backpressure").value()),
        "count");
  r.Add("obs.spans_recorded", double(pipeline->tracer().size()), "count");
  r.Add("obs.spans_dropped", double(pipeline->tracer().dropped()), "count");

  // Storage counters summed over the three topic collections.
  store::LsmStats lsm;
  std::size_t tables = 0;
  std::uint64_t hits = 0, probes = 0;
  for (const TopicDef& topic : kTopics) {
    const auto coll = pipeline->collection(topic.name);
    if (!coll.ok()) continue;
    const store::LsmStats s = (*coll)->engine().Stats();
    lsm.seals += s.seals;
    lsm.compactions += s.compactions;
    lsm.write_stall_ns += s.write_stall_ns;
    lsm.bloom_skips += s.bloom_skips;
    lsm.fence_skips += s.fence_skips;
    for (const std::size_t t : s.level_tables) tables += t;
    const auto cache = (*coll)->engine().block_cache()->GetStats();
    hits += cache.hits;
    probes += cache.hits + cache.misses;
  }
  r.Add("store.seals", double(lsm.seals), "count");
  r.Add("store.compactions", double(lsm.compactions), "count");
  r.Add("store.write_stall_ms", double(lsm.write_stall_ns) / 1e6, "ms");
  r.Add("store.level_tables", double(tables), "count");
  r.Add("store.bloom_skips", double(lsm.bloom_skips), "count");
  r.Add("store.fence_skips", double(lsm.fence_skips), "count");
  r.Add("store.cache_hit_ratio", probes ? double(hits) / double(probes) : 0,
        "ratio");
  if (options.trace) {
    // Stats() rolls up every pipeline span (and allocates for it), so only
    // the traced pass, whose peak RSS is not reported, calls it.
    r.Add("mq.produce_retries", double(pipeline->Stats().produce_retries),
          "count");
  }
  pipeline.reset();

  if (options.trace) {
    const std::vector<BenchSpan> all = spans::Collect();
    auto times = ReduceSpans(all);
    AddSpanQuantiles(r, "mq.produce_us", times["mq.produce"].total_us, true);
    // The op's self time is the part no call covers: produce return to
    // parser entry, i.e. the wait in the broker queue.
    std::vector<double> queue_ms;
    for (const double us : times[kOp].self_us) queue_ms.push_back(us / 1e3);
    AddSpanQuantiles(r, "mq.queue_wait_ms", queue_ms, true, "ms");
    r.Add("mq.consumer_lag.max", double(lag_max), "records");
    AddSpanQuantiles(r, "core.parse_us", times["core.parse"].total_us, false);
    AddSpanQuantiles(r, "core.store_us", times["core.store"].total_us, true);
    AddSpanQuantiles(r, "core.analyze_us", times["core.analyze"].total_us,
                     false);
    if (!WriteSpans(options.out_dir + "/trace_city_ingest.jsonl", all,
                    50'000)) {
      r.Fail("cannot write trace_city_ingest.jsonl");
    }
  } else {
    r.Add("capacity_rps", MeasureCapacity(r, inputs, analyzers), "ops/s");
  }
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

}  // namespace metrobench
