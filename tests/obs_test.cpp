// Tests for the distributed-tracing layer (src/obs) and its end-to-end
// integration: context propagation through the Fig. 4 pipeline stages and
// the Fig. 3 fog tiers, stage-sum/end-to-end reconciliation, and degraded
// annotation under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "dfs/dfs.h"
#include "fog/fog.h"
#include "obs/trace.h"
#include "resilience/policy.h"
#include "util/clock.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define METRO_OBS_TEST_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define METRO_OBS_TEST_TSAN 1
#endif

namespace metro {
namespace {

// Slack floor for wall-clock stage-sum reconciliation: TSan slows every
// lock/atomic by ~10x, so cross-thread handoffs that cost microseconds
// uninstrumented cost milliseconds there.
#ifdef METRO_OBS_TEST_TSAN
constexpr TimeNs kSlackFloorNs = 20 * kMillisecond;
#else
constexpr TimeNs kSlackFloorNs = 2 * kMillisecond;
#endif

// ---------------------------------------------------------------- Context

TEST(TraceContextTest, SerializeParseRoundTrip) {
  const obs::TraceContext ctx{0xdeadbeefULL, 0x1f, 0x3};
  const std::string header = ctx.Serialize();
  EXPECT_EQ(header, "deadbeef-1f-3");
  const auto parsed = obs::TraceContext::Parse(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
  EXPECT_EQ(parsed->parent_span_id, ctx.parent_span_id);
}

TEST(TraceContextTest, ParseRejectsMalformedHeaders) {
  EXPECT_FALSE(obs::TraceContext::Parse("").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("abc").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("1-2").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("zz-1-2").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("1-2-zz").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("0-1-2").has_value());  // invalid id
  EXPECT_FALSE(obs::TraceContext::Parse("--").has_value());
  EXPECT_FALSE(
      obs::TraceContext::Parse("11111111111111111-1-1").has_value());  // >64bit
}

TEST(TraceContextTest, DefaultIsInvalidAndChildOfInvalidIsFreshTrace) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  EXPECT_FALSE(obs::TraceContext{}.valid());
  const auto child = collector.Child(obs::TraceContext{});
  EXPECT_TRUE(child.valid());
  EXPECT_EQ(child.parent_span_id, 0u);
}

TEST(TraceContextTest, ChildKeepsTraceAndLinksParent) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  const auto child = collector.Child(root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
}

// ---------------------------------------------------------------- Collector

TEST(SpanCollectorTest, ScopedSpanMeasuresOnInjectedClock) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  {
    obs::ScopedSpan span(collector, "work", collector.Child(root));
    clock.Advance(7 * kMillisecond);
  }
  const auto spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].duration(), 7 * kMillisecond);
}

TEST(SpanCollectorTest, StageBreakdownQuantilesAreExact) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  // 100 "store" stage spans of 1..100 ms.
  for (int i = 1; i <= 100; ++i) {
    obs::Span s;
    s.name = "store";
    s.context = collector.StartTrace();
    s.start = 0;
    s.end = TimeNs(i) * kMillisecond;
    collector.Record(std::move(s));
  }
  const auto stages = collector.StageBreakdown();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, "store");
  EXPECT_EQ(stages[0].count, 100);
  EXPECT_DOUBLE_EQ(stages[0].mean_ms, 50.5);
  // Exact sorted-sample interpolation, not log buckets.
  EXPECT_NEAR(stages[0].p50_ms, 50.5, 1e-9);
  EXPECT_NEAR(stages[0].p95_ms, 95.05, 1e-9);
  EXPECT_NEAR(stages[0].p99_ms, 99.01, 1e-9);
}

TEST(SpanCollectorTest, OverlaysAndEventsDoNotCountAsStageTime) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  obs::Span stage;
  stage.name = "compute";
  stage.context = collector.Child(root);
  stage.start = 0;
  stage.end = 10 * kMillisecond;
  collector.Record(std::move(stage));
  obs::Span overlay;
  overlay.name = "retry.backoff";
  overlay.context = collector.Child(root);
  overlay.kind = obs::SpanKind::kOverlay;
  overlay.start = 2 * kMillisecond;
  overlay.end = 6 * kMillisecond;
  collector.Record(std::move(overlay));
  collector.Event("degrade", collector.Child(root), {{"degraded", "test"}});

  const auto traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans, 3);
  EXPECT_EQ(traces[0].stage_total, 10 * kMillisecond);  // stage only
  EXPECT_EQ(traces[0].total(), 10 * kMillisecond);
  EXPECT_TRUE(traces[0].degraded);
  EXPECT_TRUE(traces[0].retried);  // retry.* overlay marks the trace
  const auto stages = collector.StageBreakdown();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, "compute");
}

TEST(SpanCollectorTest, DropsPastCapacityAndReportsIt) {
  SimClock clock;
  obs::SpanCollector collector(clock, /*max_spans=*/2);
  for (int i = 0; i < 5; ++i) {
    obs::Span s;
    s.name = "x";
    s.context = collector.StartTrace();
    collector.Record(std::move(s));
  }
  EXPECT_EQ(collector.size(), 2u);
  EXPECT_EQ(collector.dropped(), 3);
  EXPECT_NE(collector.CriticalPathReport().find("dropped"), std::string::npos);
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0);
}

TEST(SpanCollectorTest, NamePastTheIdWidthIsDroppedAndCounted) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto record = [&collector](std::string name) {
    obs::Span s;
    s.name = std::move(name);
    s.context = {1, 1, 0};
    collector.Record(std::move(s));
  };
  constexpr std::size_t kMaxNames = obs::SpanCollector::kMaxNames;
  for (std::size_t i = 0; i < kMaxNames; ++i) record("n" + std::to_string(i));
  EXPECT_EQ(collector.size(), kMaxNames);
  EXPECT_EQ(collector.dropped(), 0);
  record("one.too.many");  // a new name, and every name id is taken
  EXPECT_EQ(collector.size(), kMaxNames);
  EXPECT_EQ(collector.dropped(), 1);
  record("n7");  // a known name still records
  EXPECT_EQ(collector.size(), kMaxNames + 1);
  const auto spans = collector.Snapshot();
  EXPECT_EQ(spans[kMaxNames - 1].name, "n" + std::to_string(kMaxNames - 1));
  EXPECT_EQ(spans.back().name, "n7");
  // Clear releases the ids with the spans.
  collector.Clear();
  record("one.too.many");
  EXPECT_EQ(collector.size(), 1u);
  EXPECT_EQ(collector.dropped(), 0);
}

TEST(SpanCollectorTest, ConcurrentRecordingIsSafeAndLossless) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto root = collector.StartTrace();
        obs::ScopedSpan span(collector, "stage", collector.Child(root));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collector.size(), std::size_t(kThreads) * kPerThread);
  // Every allocated trace id is distinct.
  std::set<obs::TraceId> ids;
  for (const auto& t : collector.Traces()) ids.insert(t.trace_id);
  EXPECT_EQ(ids.size(), std::size_t(kThreads) * kPerThread);
}

TEST(SpanCollectorTest, JsonExportIsOneObjectPerSpan) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  clock.Advance(kMillisecond);
  collector.Event("breaker.open", collector.Child(root),
                  {{"from", "closed"}, {"to", "open"}});
  const std::string json = collector.ToJson();
  EXPECT_NE(json.find("\"name\":\"breaker.open\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"closed\""), std::string::npos);
  EXPECT_NE(json.find("\"start_ns\":1000000"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1);
}

// ------------------------------------------------------------ Store oracle
//
// A fixed mixed span set, large enough to cross several 4096-record chunks,
// pins what the collector hands back: exact JSON bytes, the snapshot element
// by element, the stage and trace rollups, Clear, and the cap. The expected
// values come from the input spans through the reference rollups below, so
// a change of the collector's storage must reproduce them exactly.

// A clock the test sets directly, so spans recorded through `Event` and
// `Begin`/`End` get the same times on every pass, before and after `Clear`.
class SetClock final : public Clock {
 public:
  TimeNs Now() const override { return now_; }
  void SleepFor(TimeNs ns) override { now_ += ns; }
  void Set(TimeNs t) { now_ = t; }

 private:
  TimeNs now_ = 0;
};

constexpr std::size_t kOracleSpans = 3 * 4096 + 17;
constexpr std::size_t kClampedSpan = 5000;  // recorded with end < start
// Size and FNV-1a hash of the set's `ToJson()` bytes.
constexpr std::size_t kOracleJsonBytes = 1501837;
constexpr std::uint64_t kOracleJsonFnv = 0xd854014d71d50947ULL;

// Span i of the oracle set. Starts rise with i, so spans recorded through
// the clock never need it to run backwards.
obs::Span OracleSpan(std::size_t i) {
  static const char* const kStages[] = {"produce", "mq.queue", "store",
                                        "analyze", "web"};
  std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  obs::Span s;
  const std::uint64_t trace = 1 + i / 6;
  s.context = {trace, i + 1, i % 6 == 0 ? 0 : i};
  s.start = TimeNs(i) * 1000 + TimeNs(h % 500);
  s.end = s.start + TimeNs((h >> 9) % 2'000'000);
  if (i % 10 == 7) {
    s.kind = obs::SpanKind::kOverlay;
    s.name = i % 20 == 7 ? "retry.backoff" : "lsm.stall";
  } else if (i % 10 == 9) {
    s.kind = obs::SpanKind::kEvent;
    s.name = i % 20 == 9 ? "breaker.open" : "degrade";
    s.end = s.start;
  } else {
    s.name = kStages[i % 5];
  }
  if (i % 97 == 0) s.name = "unique." + std::to_string(i);
  if (i == 6000) s.name = "";
  if (i == 6001) s.name = "esc\"name\\";
  if (i % 7 == 0) s.SetTag("topic", "t" + std::to_string(i % 3));
  if (i % 11 == 0) {
    s.SetTag("degraded", "true");
    s.SetTag("tier", "fog");
  }
  if (i % 13 == 0) s.SetTag("retried", "true");
  if (i == 4242) s.SetTag("note", "q\"b\\s\nn\tt\x01");
  if (i == kClampedSpan) s.end = s.start - 123;
  return s;
}

// The span the collector should hand back for OracleSpan(i).
obs::Span OracleExpected(std::size_t i) {
  obs::Span s = OracleSpan(i);
  if (s.end < s.start) s.end = s.start;
  return s;
}

// Records the oracle set through every recording entry point: `Event` for
// events, `Begin`/`End` for every 50th stage span, `Record` for the rest.
void RecordOracle(obs::SpanCollector& collector, SetClock& clock) {
  for (std::size_t i = 0; i < kOracleSpans; ++i) {
    obs::Span s = OracleSpan(i);
    if (s.kind == obs::SpanKind::kEvent) {
      clock.Set(s.start);
      collector.Event(std::move(s.name), s.context, std::move(s.tags));
    } else if (s.kind == obs::SpanKind::kStage && i % 50 == 0 &&
               i != kClampedSpan) {
      clock.Set(s.start);
      obs::Span begun = collector.Begin(s.name, s.context, s.kind);
      for (auto& [k, v] : s.tags) begun.SetTag(k, v);
      clock.Set(s.end);
      collector.End(std::move(begun));
    } else {
      collector.Record(std::move(s));
    }
  }
}

void ExpectSameSpan(const obs::Span& got, const obs::Span& want,
                    std::size_t i) {
  EXPECT_EQ(got.name, want.name) << "span " << i;
  EXPECT_EQ(got.context.trace_id, want.context.trace_id) << "span " << i;
  EXPECT_EQ(got.context.span_id, want.context.span_id) << "span " << i;
  EXPECT_EQ(got.context.parent_span_id, want.context.parent_span_id)
      << "span " << i;
  EXPECT_EQ(got.kind, want.kind) << "span " << i;
  EXPECT_EQ(got.start, want.start) << "span " << i;
  EXPECT_EQ(got.end, want.end) << "span " << i;
  EXPECT_EQ(got.tags, want.tags) << "span " << i;
}

// Reference per-stage rollup: group kStage durations by name in name order,
// then order by total time, as the collector documents.
std::vector<obs::StageStats> ReferenceStages(
    const std::vector<obs::Span>& spans) {
  std::map<std::string, std::vector<double>> by_stage;
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kStage) {
      by_stage[s.name].push_back(double(s.duration()) / kMillisecond);
    }
  }
  std::vector<obs::StageStats> out;
  for (auto& [stage, durations] : by_stage) {
    std::sort(durations.begin(), durations.end());
    obs::StageStats st;
    st.stage = stage;
    st.count = std::int64_t(durations.size());
    double sum = 0;
    for (const double d : durations) sum += d;
    st.mean_ms = sum / double(durations.size());
    st.p50_ms = obs::QuantileOf(durations, 0.50);
    st.p95_ms = obs::QuantileOf(durations, 0.95);
    st.p99_ms = obs::QuantileOf(durations, 0.99);
    out.push_back(st);
  }
  std::sort(out.begin(), out.end(),
            [](const obs::StageStats& a, const obs::StageStats& b) {
              return a.mean_ms * double(a.count) > b.mean_ms * double(b.count);
            });
  return out;
}

// Reference per-trace rollup, ordered by trace id.
std::vector<obs::TraceSummary> ReferenceTraces(
    const std::vector<obs::Span>& spans) {
  std::map<obs::TraceId, obs::TraceSummary> by_trace;
  for (const obs::Span& s : spans) {
    obs::TraceSummary& t = by_trace[s.context.trace_id];
    if (t.spans == 0) {
      t.trace_id = s.context.trace_id;
      t.start = s.start;
      t.end = s.end;
    }
    t.start = std::min(t.start, s.start);
    t.end = std::max(t.end, s.end);
    ++t.spans;
    if (s.kind == obs::SpanKind::kStage) {
      t.stage_total += s.duration();
      t.stage_ns[s.name] += s.duration();
    }
    if (s.FindTag("degraded") != nullptr) t.degraded = true;
    if (s.FindTag("retried") != nullptr ||
        (s.kind == obs::SpanKind::kOverlay && s.name.rfind("retry", 0) == 0)) {
      t.retried = true;
    }
  }
  std::vector<obs::TraceSummary> out;
  for (auto& [id, t] : by_trace) out.push_back(std::move(t));
  return out;
}

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The first `lines` lines of a JSON-lines export.
std::string JsonPrefix(const std::string& json, std::size_t lines) {
  std::size_t pos = 0;
  for (std::size_t n = 0; n < lines; ++n) pos = json.find('\n', pos) + 1;
  return json.substr(0, pos);
}

TEST(SpanStoreOracleTest, JsonBytesArePinned) {
  SetClock clock;
  obs::SpanCollector collector(clock);
  RecordOracle(collector, clock);
  ASSERT_EQ(collector.size(), kOracleSpans);
  EXPECT_EQ(collector.dropped(), 0);
  const std::string json = collector.ToJson();
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'),
            std::ptrdiff_t(kOracleSpans));
  // Captured from the vector-backed collector this store replaced.
  EXPECT_EQ(json.size(), kOracleJsonBytes);
  EXPECT_EQ(Fnv1a(json), kOracleJsonFnv) << std::hex << Fnv1a(json);
  EXPECT_EQ(JsonPrefix(json, 1),
            "{\"trace\":\"1\",\"span\":\"1\",\"parent\":\"0\","
            "\"name\":\"unique.0\",\"kind\":\"stage\",\"start_ns\":" +
                std::to_string(OracleSpan(0).start) +
                ",\"end_ns\":" + std::to_string(OracleSpan(0).end) +
                ",\"tags\":{\"topic\":\"t0\",\"degraded\":\"true\","
                "\"tier\":\"fog\",\"retried\":\"true\"}}\n");
  const obs::Span clamped = OracleExpected(kClampedSpan);
  EXPECT_NE(json.find("\"start_ns\":" + std::to_string(clamped.start) +
                      ",\"end_ns\":" + std::to_string(clamped.start) + "}"),
            std::string::npos);
  EXPECT_NE(json.find("\"note\":\"q\\\"b\\\\s\\nn\\tt\\u0001\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"esc\\\"name\\\\\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"\","), std::string::npos);
}

TEST(SpanStoreOracleTest, SnapshotMatchesInputElementByElement) {
  SetClock clock;
  obs::SpanCollector collector(clock);
  RecordOracle(collector, clock);
  const auto spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), kOracleSpans);
  for (std::size_t i = 0; i < kOracleSpans; ++i) {
    ExpectSameSpan(spans[i], OracleExpected(i), i);
    if (HasFailure()) return;
  }
}

TEST(SpanStoreOracleTest, RollupsMatchReference) {
  SetClock clock;
  obs::SpanCollector collector(clock);
  RecordOracle(collector, clock);
  std::vector<obs::Span> expected;
  for (std::size_t i = 0; i < kOracleSpans; ++i) {
    expected.push_back(OracleExpected(i));
  }

  const auto stages = collector.StageBreakdown();
  const auto want_stages = ReferenceStages(expected);
  ASSERT_EQ(stages.size(), want_stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i].stage, want_stages[i].stage) << i;
    EXPECT_EQ(stages[i].count, want_stages[i].count) << i;
    EXPECT_EQ(stages[i].mean_ms, want_stages[i].mean_ms) << i;
    EXPECT_EQ(stages[i].p50_ms, want_stages[i].p50_ms) << i;
    EXPECT_EQ(stages[i].p95_ms, want_stages[i].p95_ms) << i;
    EXPECT_EQ(stages[i].p99_ms, want_stages[i].p99_ms) << i;
  }
  // The five repeated stages lead; each distinct name is a stage of its own.
  ASSERT_GE(stages.size(), 5u);
  std::set<std::string> leaders;
  for (std::size_t i = 0; i < 5; ++i) leaders.insert(stages[i].stage);
  EXPECT_EQ(leaders, (std::set<std::string>{"produce", "mq.queue", "store",
                                             "analyze", "web"}));

  const auto traces = collector.Traces();
  const auto want_traces = ReferenceTraces(expected);
  ASSERT_EQ(traces.size(), want_traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].trace_id, want_traces[i].trace_id) << i;
    EXPECT_EQ(traces[i].start, want_traces[i].start) << i;
    EXPECT_EQ(traces[i].end, want_traces[i].end) << i;
    EXPECT_EQ(traces[i].stage_total, want_traces[i].stage_total) << i;
    EXPECT_EQ(traces[i].stage_ns, want_traces[i].stage_ns) << i;
    EXPECT_EQ(traces[i].spans, want_traces[i].spans) << i;
    EXPECT_EQ(traces[i].degraded, want_traces[i].degraded) << i;
    EXPECT_EQ(traces[i].retried, want_traces[i].retried) << i;
    if (HasFailure()) return;
  }
}

TEST(SpanStoreOracleTest, ClearThenRerecordReproducesTheStore) {
  SetClock clock;
  obs::SpanCollector collector(clock, /*max_spans=*/kOracleSpans - 1);
  RecordOracle(collector, clock);
  EXPECT_EQ(collector.dropped(), 1);
  const std::string first = collector.ToJson();
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0);
  EXPECT_TRUE(collector.Snapshot().empty());
  EXPECT_TRUE(collector.StageBreakdown().empty());
  EXPECT_TRUE(collector.Traces().empty());
  EXPECT_EQ(collector.ToJson(), "");
  RecordOracle(collector, clock);
  EXPECT_EQ(collector.size(), kOracleSpans - 1);
  EXPECT_EQ(collector.dropped(), 1);
  EXPECT_EQ(collector.ToJson(), first);
}

TEST(SpanStoreOracleTest, CapAtAndPastChunkBoundariesDropsTheRest) {
  SetClock full_clock;
  obs::SpanCollector full(full_clock);
  RecordOracle(full, full_clock);
  const std::string full_json = full.ToJson();
  for (const std::size_t cap : {std::size_t(4096), std::size_t(4097),
                                std::size_t(2 * 4096)}) {
    SetClock clock;
    obs::SpanCollector collector(clock, cap);
    RecordOracle(collector, clock);
    EXPECT_EQ(collector.size(), cap);
    EXPECT_EQ(collector.dropped(), std::int64_t(kOracleSpans - cap));
    const auto spans = collector.Snapshot();
    ASSERT_EQ(spans.size(), cap);
    ExpectSameSpan(spans.back(), OracleExpected(cap - 1), cap - 1);
    EXPECT_EQ(collector.ToJson(), JsonPrefix(full_json, cap)) << cap;
    EXPECT_NE(collector.CriticalPathReport().find(
                  std::to_string(kOracleSpans - cap) + " spans dropped"),
              std::string::npos);
  }
}

TEST(TraceContextTest, ParseSurvivesMutatedHeaders) {
  // Seeded byte-flip, truncate and splice mutations over valid encodings.
  // Whatever Parse accepts must be a valid context that survives its own
  // round trip; everything else must be rejected cleanly.
  std::mt19937_64 rng(20181);
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) {
    obs::TraceContext ctx;
    ctx.trace_id = std::max<std::uint64_t>(1, rng() >> (rng() % 64));
    ctx.span_id = rng() >> (rng() % 64);
    ctx.parent_span_id = i % 4 == 0 ? 0 : rng() >> (rng() % 64);
    corpus.push_back(ctx.Serialize());
  }
  corpus.push_back(obs::TraceContext{~0ULL, ~0ULL, ~0ULL}.Serialize());
  corpus.push_back(obs::TraceContext{1, 0, 0}.Serialize());
  static constexpr char kAlphabet[] = "0123456789abcdefABCDEF-+x \0\xff";
  const std::string_view alphabet(kAlphabet, sizeof(kAlphabet) - 1);
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string header = corpus[rng() % corpus.size()];
    const int mutations = 1 + int(rng() % 3);
    for (int m = 0; m < mutations; ++m) {
      switch (rng() % 4) {
        case 0:  // flip one bit
          if (!header.empty()) {
            header[rng() % header.size()] ^= char(1u << (rng() % 8));
          }
          break;
        case 1:  // replace one byte from a header-shaped alphabet
          if (!header.empty()) {
            header[rng() % header.size()] =
                alphabet[rng() % alphabet.size()];
          }
          break;
        case 2:  // truncate
          header.resize(rng() % (header.size() + 1));
          break;
        default: {  // splice: a prefix of this onto a suffix of another
          const std::string& other = corpus[rng() % corpus.size()];
          const std::size_t cut = rng() % (header.size() + 1);
          const std::size_t from = rng() % (other.size() + 1);
          header = header.substr(0, cut) + other.substr(from);
        }
      }
    }
    const auto parsed = obs::TraceContext::Parse(header);
    if (!parsed) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(parsed->valid()) << header;
    const std::string again = parsed->Serialize();
    const auto reparsed = obs::TraceContext::Parse(again);
    ASSERT_TRUE(reparsed.has_value()) << header;
    EXPECT_EQ(reparsed->trace_id, parsed->trace_id) << header;
    EXPECT_EQ(reparsed->span_id, parsed->span_id) << header;
    EXPECT_EQ(reparsed->parent_span_id, parsed->parent_span_id) << header;
    EXPECT_EQ(reparsed->Serialize(), again) << header;
  }
  // The loop exercises both outcomes.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

// ---------------------------------------------------------------- Breaker

TEST(BreakerListenerTest, ObservesEveryTransition) {
  SimClock clock;
  resilience::BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown = 10 * kMillisecond;
  config.half_open_probes = 1;
  resilience::CircuitBreaker breaker(config, clock);
  using State = resilience::CircuitBreaker::State;
  std::vector<std::pair<State, State>> seen;
  breaker.SetStateListener(
      [&seen](State from, State to) { seen.emplace_back(from, to); });

  breaker.RecordFailure();
  EXPECT_TRUE(seen.empty());  // below threshold: no transition
  breaker.RecordFailure();    // closed -> open
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_pair(State::kClosed, State::kOpen));

  clock.Advance(11 * kMillisecond);
  EXPECT_TRUE(breaker.Allow());  // open -> half-open probe
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], std::make_pair(State::kOpen, State::kHalfOpen));

  breaker.RecordSuccess();  // half-open -> closed
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2], std::make_pair(State::kHalfOpen, State::kClosed));

  // A half-open probe failure re-opens.
  breaker.RecordFailure();
  breaker.RecordFailure();
  clock.Advance(11 * kMillisecond);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(seen.back(), std::make_pair(State::kHalfOpen, State::kOpen));
}

// ------------------------------------------------- Fig. 4 pipeline e2e

store::Document MakeDoc(int i) {
  store::Document doc;
  doc["id"] = std::int64_t(i);
  doc["text"] = std::string("event ") + std::to_string(i);
  return doc;
}

TEST(PipelineTracingTest, EveryRecordYieldsOneTraceCoveringAllStages) {
  core::CityPipeline pipeline(WallClock::Instance());
  core::CityPipeline::TopicSpec spec;
  spec.topic = "events";
  spec.partitions = 2;
  spec.analyzer = [](const store::Document& doc)
      -> std::optional<store::Document> { return doc; };
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.Start().ok());

  constexpr int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(
        pipeline.Produce("events", "", core::EncodeDocument(MakeDoc(i))).ok());
  }
  pipeline.Drain();
  pipeline.Stop();

  const auto traces = pipeline.tracer().Traces();
  const std::vector<std::string> kStages = {"produce", "mq.queue", "store",
                                            "analyze", "web"};
  int complete = 0;
  std::vector<double> e2e_ms;
  for (const auto& t : traces) {
    if (t.stage_ns.count("web") == 0) continue;
    ++complete;
    e2e_ms.push_back(double(t.total()) / double(kMillisecond));
    for (const auto& stage : kStages) {
      EXPECT_EQ(t.stage_ns.count(stage), 1u)
          << "trace " << t.trace_id << " missing stage " << stage;
    }
    // Stage durations reconcile with the trace's end-to-end extent. The
    // stages chain off a cursor, so the only slack is the handoff between
    // the produce call returning and the broker timestamp (microseconds) —
    // but allow scheduler noise on loaded CI machines. Under TSan the
    // produce/enqueue overlap stretches from microseconds to milliseconds
    // (instrumented locking), so the floor scales with the instrumentation.
    const double total = double(t.total());
    const double tolerance =
        std::max(0.05 * total, double(kSlackFloorNs));
    EXPECT_NEAR(double(t.stage_total), total, tolerance)
        << "trace " << t.trace_id;
  }
  EXPECT_EQ(complete, kRecords);

  const auto stats = pipeline.Stats();
  EXPECT_EQ(stats.web_items, kRecords);
  EXPECT_FALSE(stats.stage_latency.empty());
  EXPECT_GT(stats.mean_latency_ms, 0.0);
  EXPECT_GE(stats.p99_latency_ms, stats.mean_latency_ms);
  // The p99 is taken over the same per-trace extents: at least their
  // median, at most the slowest.
  std::sort(e2e_ms.begin(), e2e_ms.end());
  ASSERT_FALSE(e2e_ms.empty());
  EXPECT_GE(stats.p99_latency_ms, e2e_ms[e2e_ms.size() / 2]);
  EXPECT_LE(stats.p99_latency_ms, e2e_ms.back());
}

TEST(PipelineTracingTest, ProduceContinuesCallerTrace) {
  core::CityPipeline pipeline(WallClock::Instance());
  core::CityPipeline::TopicSpec spec;
  spec.topic = "events";
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  const auto upstream = pipeline.tracer().StartTrace();
  ASSERT_TRUE(pipeline
                  .Produce("events", "k", core::EncodeDocument(MakeDoc(1)),
                           upstream)
                  .ok());
  // The broker's leader-election root events share the collector, so pick
  // the produce span out rather than assuming it is alone.
  const auto spans = pipeline.tracer().Snapshot();
  const auto produce =
      std::find_if(spans.begin(), spans.end(),
                   [](const obs::Span& s) { return s.name == "produce"; });
  ASSERT_NE(produce, spans.end());
  EXPECT_EQ(produce->context.trace_id, upstream.trace_id);
}

// ---------------------------------------------------------- Fog tiers e2e

fog::FogConfig SmallFogConfig() {
  fog::FogConfig config;
  config.num_edges = 4;
  config.edges_per_fog = 2;
  config.fogs_per_server = 2;  // 2 fogs -> 1 server
  return config;
}

std::vector<fog::WorkItem> FogItems(int n, bool offload) {
  std::vector<fog::WorkItem> items;
  for (int i = 0; i < n; ++i) {
    fog::WorkItem item;
    item.id = std::uint64_t(i);
    item.edge = i % 4;
    item.arrival = TimeNs(i) * 20 * kMillisecond;
    item.raw_bytes = 20'000;
    item.feature_bytes = 8'000;
    item.edge_filter_macs = 10'000;
    item.local_macs = 2'000'000;
    item.server_macs = 20'000'000;
    item.local_exit = !offload;
    items.push_back(item);
  }
  return items;
}

TEST(FogTracingTest, HealthyOffloadTracesReconcileExactly) {
  fog::FogTopology topo(SmallFogConfig());
  obs::SpanCollector collector(topo.sim().clock());
  const auto result = fog::RunResilientPipeline(
      topo, FogItems(8, /*offload=*/true), &collector);
  ASSERT_EQ(result.items_offloaded, 8);

  int traced_items = 0;
  for (const auto& t : collector.Traces()) {
    if (t.stage_total == 0) continue;  // run-level breaker trace
    ++traced_items;
    // Simulator time: stage spans are contiguous, so the reconciliation is
    // exact, not approximate.
    EXPECT_EQ(t.stage_total, t.total()) << "trace " << t.trace_id;
    EXPECT_FALSE(t.degraded);
    for (const char* stage : {"edge.filter", "edge.uplink", "fog.local",
                              "offload.transfer", "server.compute",
                              "cloud.annotate"}) {
      EXPECT_EQ(t.stage_ns.count(stage), 1u)
          << "trace " << t.trace_id << " missing " << stage;
    }
  }
  EXPECT_EQ(traced_items, 8);
}

TEST(FogTracingTest, ServerOutageTracesAreTaggedDegraded) {
  fog::FogTopology topo(SmallFogConfig());
  // Sever every fog -> server link before the run: all offloads must
  // degrade to their local answers.
  for (int f = 0; f < topo.num_fogs(); ++f) {
    ASSERT_TRUE(topo.sim()
                    .SetLinkUp(topo.fog_node(f), topo.server_of_fog_index(f),
                               false)
                    .ok());
  }
  obs::SpanCollector collector(topo.sim().clock());
  const auto result = fog::RunResilientPipeline(
      topo, FogItems(8, /*offload=*/true), &collector);
  ASSERT_GT(result.items_degraded, 0);
  ASSERT_GT(result.send_retries, 0);

  int degraded_traces = 0, retried_traces = 0;
  bool saw_breaker_event = false;
  for (const auto& t : collector.Traces()) {
    if (t.degraded) ++degraded_traces;
    if (t.retried) ++retried_traces;
    if (t.stage_total == 0) continue;
    // Degraded traces still reconcile: the fallback decision closes the
    // last stage at the moment the item completes.
    EXPECT_EQ(t.stage_total, t.total()) << "trace " << t.trace_id;
  }
  for (const auto& s : collector.Snapshot()) {
    if (s.name.rfind("breaker.", 0) == 0) saw_breaker_event = true;
  }
  EXPECT_EQ(degraded_traces, result.items_degraded);
  EXPECT_GT(retried_traces, 0);
  EXPECT_TRUE(saw_breaker_event);  // the outage tripped the breaker
}

// ---------------------------------------------------------------- DFS

TEST(DfsTracingTest, ReadWriteSpansCarryFailoverTags) {
  dfs::Cluster cluster(4, {.block_size = 1024, .replication = 3});
  SimClock clock;
  obs::SpanCollector collector(clock);
  cluster.SetTracer(&collector);

  const std::string data(4096, 'x');
  ASSERT_TRUE(cluster.Create("/a", data).ok());
  cluster.node(0).Kill();
  const auto read = cluster.Read("/a");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), data.size());

  const auto spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "dfs.write");
  ASSERT_NE(spans[0].FindTag("bytes"), nullptr);
  EXPECT_EQ(*spans[0].FindTag("bytes"), "4096");
  EXPECT_EQ(spans[1].name, "dfs.read");
  EXPECT_EQ(*spans[1].FindTag("path"), "/a");
  // Standalone ops are stage spans in their own traces.
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kStage);
  EXPECT_NE(spans[0].context.trace_id, spans[1].context.trace_id);

  // Under a caller's trace the op becomes an overlay of that trace.
  const auto parent = collector.StartTrace();
  ASSERT_TRUE(cluster.Read("/a", parent).ok());
  const auto nested = collector.Snapshot().back();
  EXPECT_EQ(nested.kind, obs::SpanKind::kOverlay);
  EXPECT_EQ(nested.context.trace_id, parent.trace_id);
}

}  // namespace
}  // namespace metro
