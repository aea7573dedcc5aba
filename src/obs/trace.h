#pragma once

// Distributed tracing for the Fig. 3/4 pipelines.
//
// A `TraceContext` (trace/span/parent ids) rides in record and event headers
// end-to-end: ingest agents open a trace per event, the message log carries
// it in `Record::headers`, the Fig. 4 stage threads and the fog tiers emit
// one `Span` per stage, and a shared `SpanCollector` aggregates them into
// per-stage latency quantiles and a critical-path report. Stage spans are
// contiguous by construction, so per-trace stage durations sum to the
// end-to-end latency — the per-tier breakdown that drives edge-vs-server
// offload policy (EdgeLens-style accounting over the paper's four tiers).
//
// All timing flows through the injected `Clock`, so the same spans are exact
// under `SimClock`/`net::Simulator` and wall-accurate in the threaded
// pipeline.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// Header key under which a serialized context travels (mq record headers,
/// ingest event headers).
inline constexpr std::string_view kTraceHeader = "x-trace";

/// W3C-traceparent-style propagation context. A zero trace id means "no
/// trace" — every API treats such a context as absent.
struct TraceContext {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_span_id = 0;

  bool valid() const { return trace_id != 0; }

  /// "trace-span-parent" in lowercase hex (e.g. "a3-1f-0").
  std::string Serialize() const;

  /// Parses `Serialize` output; nullopt on malformed input.
  static std::optional<TraceContext> Parse(std::string_view header);
};

/// How a span participates in its trace's timeline.
enum class SpanKind {
  kStage,    ///< partitions the trace: stage durations sum to end-to-end
  kOverlay,  ///< annotates time a stage already covers (retry backoffs)
  kEvent,    ///< zero-duration marker (breaker transition, degrade decision)
};

std::string_view SpanKindName(SpanKind kind);

/// One timed, tagged operation within a trace.
struct Span {
  std::string name;
  TraceContext context;
  SpanKind kind = SpanKind::kStage;
  TimeNs start = 0;
  TimeNs end = 0;
  std::vector<std::pair<std::string, std::string>> tags;

  TimeNs duration() const { return end - start; }
  void SetTag(std::string key, std::string value);
  /// The tag value, or nullptr when the key is absent.
  const std::string* FindTag(std::string_view key) const;
};

/// Exact quantile of a sorted sample vector, interpolating linearly between
/// the two samples around rank `q * (n - 1)`; 0 when empty.
double QuantileOf(const std::vector<double>& sorted, double q);

/// Per-stage latency aggregate over recorded stage spans; quantiles are
/// exact (sorted-sample), not bucketed, so stage sums reconcile with
/// end-to-end latency.
struct StageStats {
  std::string stage;
  std::int64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// One trace rolled up: span extent, per-stage durations, annotations.
struct TraceSummary {
  TraceId trace_id = 0;
  TimeNs start = 0;  ///< earliest span start
  TimeNs end = 0;    ///< latest span end
  TimeNs stage_total = 0;  ///< sum of kStage durations
  std::map<std::string, TimeNs> stage_ns;  ///< per-stage time (kStage only)
  std::int64_t spans = 0;
  bool degraded = false;  ///< any span carries a "degraded" tag
  bool retried = false;   ///< any retry overlay / "retried" tag

  TimeNs total() const { return end - start; }
};

/// Thread-safe in-memory span store with id allocation, JSON export, and a
/// critical-path report. One collector is shared per deployment (the
/// pipeline owns one); subsystems receive a pointer and may ignore it.
///
/// Storage is append-only: each recorded span becomes one 48-byte record in
/// a chunk of `kChunkSpans` records and is never moved or copied again. The
/// record names its span and tag set by id; each distinct name and each
/// distinct tag set is stored once, in tables the read paths expand from.
class SpanCollector {
 public:
  /// Records per chunk; a new chunk is the only allocation on the `Record`
  /// path once a span's name and tag set have been seen.
  static constexpr std::size_t kChunkSpans = 4096;
  /// Distinct span names one collector can hold (16-bit name ids).
  static constexpr std::size_t kMaxNames =
      std::size_t(std::numeric_limits<std::uint16_t>::max()) + 1;

  /// `max_spans` bounds memory; spans past the cap are dropped and counted.
  /// A span costs 48 bytes, allocated 192 KiB (`kChunkSpans` spans) at a
  /// time, so the default cap of 1M spans bounds the store at ≈ 48 MB, plus
  /// the tables that hold each distinct name and tag set once. A span whose
  /// name would be the `kMaxNames + 1`-th distinct one (or whose tag set
  /// would exceed the 32-bit tag-set ids) is dropped and counted the same way.
  explicit SpanCollector(Clock& clock, std::size_t max_spans = 1 << 20)
      : clock_(&clock), max_spans_(max_spans) {}

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  Clock& clock() const { return *clock_; }

  /// Opens a new trace; the returned context is the root span's identity.
  TraceContext StartTrace();

  /// A child context under `parent` (same trace, fresh span id). Invalid
  /// parents yield a fresh root trace so callers need not special-case
  /// records that arrived without a header.
  TraceContext Child(const TraceContext& parent);

  /// Starts a span now on the collector's clock; pair with `End`.
  Span Begin(std::string name, TraceContext context,
             SpanKind kind = SpanKind::kStage);

  /// Stamps `end` now and records the span.
  void End(Span span) METRO_EXCLUDES(mu_);

  /// Records a span with explicit times (simulator-driven callers).
  void Record(Span span) METRO_EXCLUDES(mu_);

  /// Records a zero-duration marker span at the current time.
  void Event(std::string name, TraceContext context,
             std::vector<std::pair<std::string, std::string>> tags = {})
      METRO_EXCLUDES(mu_);

  /// Records a marker that belongs to no in-flight trace — infrastructure
  /// events such as a broker failover or a node kill — by opening a fresh
  /// root trace for it. (Named distinctly from `Event` so `{}`-tag calls
  /// stay unambiguous.)
  void RootEvent(std::string name,
                 std::vector<std::pair<std::string, std::string>> tags = {})
      METRO_EXCLUDES(mu_);

  std::size_t size() const METRO_EXCLUDES(mu_);
  std::int64_t dropped() const METRO_EXCLUDES(mu_);
  void Clear() METRO_EXCLUDES(mu_);

  std::vector<Span> Snapshot() const METRO_EXCLUDES(mu_);

  /// Per-stage p50/p95/p99 over all kStage spans, sorted by total time
  /// (critical-path order).
  std::vector<StageStats> StageBreakdown() const METRO_EXCLUDES(mu_);

  /// Per-trace rollups (traces holding only events/overlays included).
  std::vector<TraceSummary> Traces() const METRO_EXCLUDES(mu_);

  /// JSON-lines export: one span object per line.
  std::string ToJson() const METRO_EXCLUDES(mu_);

  /// Human-readable report: per-stage quantile table, the slowest trace's
  /// stage breakdown, and the mean stage-sum / end-to-end reconciliation.
  std::string CriticalPathReport() const METRO_EXCLUDES(mu_);

 private:
  using Tags = std::vector<std::pair<std::string, std::string>>;

  /// A recorded span: its context, its times and ids into the name and
  /// tag-set tables, no heap data. Trivially constructible, so a new chunk
  /// is not written until its records are: its pages are touched as spans
  /// arrive, not all at once by the first span recorded into it.
  struct StoredSpan {
    TraceId trace_id;
    SpanId span_id;
    SpanId parent_span_id;
    TimeNs start;
    TimeNs end;
    std::uint32_t tags;  ///< tag-set id + 1; 0 = no tags
    std::uint16_t name;  ///< name id
    std::uint8_t kind;   ///< SpanKind
  };
  static_assert(sizeof(StoredSpan) <= 48, "a recorded span fits 48 bytes");
  static_assert(std::is_trivially_default_constructible_v<StoredSpan>);

  struct TagsHash {
    std::size_t operator()(const Tags& tags) const;
  };

  /// Distinct values numbered densely in order of first sight, each stored
  /// once (the id-to-value index points at the hash map's own keys, whose
  /// nodes never move).
  template <typename Value, typename Hash = std::hash<Value>>
  class InternTable {
   public:
    explicit InternTable(std::size_t capacity) : capacity_(capacity) {}

    /// The id of `value`, taking it on first sight; nullopt when all
    /// `capacity` ids are taken.
    std::optional<std::size_t> Intern(Value&& value) {
      if (const auto it = ids_.find(value); it != ids_.end()) {
        return it->second;
      }
      if (values_.size() == capacity_) return std::nullopt;
      const auto it = ids_.emplace(std::move(value), values_.size()).first;
      values_.push_back(&it->first);
      return it->second;
    }
    const Value& at(std::size_t id) const { return *values_[id]; }
    std::size_t size() const { return values_.size(); }
    void clear() {
      values_.clear();
      ids_.clear();
    }

   private:
    std::size_t capacity_;
    std::unordered_map<Value, std::size_t, Hash> ids_;
    std::vector<const Value*> values_;
  };

  const StoredSpan& At(std::size_t i) const METRO_REQUIRES(mu_) {
    return chunks_[i / kChunkSpans][i % kChunkSpans];
  }
  Span Expand(const StoredSpan& s) const METRO_REQUIRES(mu_);

  Clock* clock_;
  const std::size_t max_spans_;
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> next_span_{1};
  mutable Mutex mu_{lockrank::kObsTrace, "obs.trace"};
  std::vector<std::unique_ptr<StoredSpan[]>> chunks_ METRO_GUARDED_BY(mu_);
  std::size_t size_ METRO_GUARDED_BY(mu_) = 0;
  InternTable<std::string> names_ METRO_GUARDED_BY(mu_){kMaxNames};
  InternTable<Tags, TagsHash> tag_sets_ METRO_GUARDED_BY(mu_){
      std::numeric_limits<std::uint32_t>::max()};
  std::int64_t dropped_ METRO_GUARDED_BY(mu_) = 0;
};

/// RAII stage span: begins on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector& collector, std::string name, TraceContext context,
             SpanKind kind = SpanKind::kStage)
      : collector_(&collector),
        span_(collector.Begin(std::move(name), context, kind)) {}
  ~ScopedSpan() { collector_->End(std::move(span_)); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceContext context() const { return span_.context; }
  void SetTag(std::string key, std::string value) {
    span_.SetTag(std::move(key), std::move(value));
  }

 private:
  SpanCollector* collector_;
  Span span_;
};

}  // namespace metro::obs
