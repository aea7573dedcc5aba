#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace metro::obs {
namespace {

void AppendHex(std::string& out, std::uint64_t v) {
  char buf[17];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  out.append(buf, ptr);
}

std::optional<std::uint64_t> ParseHex(std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const std::string* FindTagIn(
    const std::vector<std::pair<std::string, std::string>>& tags,
    std::string_view key) {
  for (const auto& [k, v] : tags) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

double QuantileOf(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * double(sorted.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - double(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::string TraceContext::Serialize() const {
  std::string out;
  out.reserve(3 * 17);
  AppendHex(out, trace_id);
  out += '-';
  AppendHex(out, span_id);
  out += '-';
  AppendHex(out, parent_span_id);
  return out;
}

std::optional<TraceContext> TraceContext::Parse(std::string_view header) {
  const std::size_t d1 = header.find('-');
  if (d1 == std::string_view::npos) return std::nullopt;
  const std::size_t d2 = header.find('-', d1 + 1);
  if (d2 == std::string_view::npos) return std::nullopt;
  const auto trace = ParseHex(header.substr(0, d1));
  const auto span = ParseHex(header.substr(d1 + 1, d2 - d1 - 1));
  const auto parent = ParseHex(header.substr(d2 + 1));
  if (!trace || !span || !parent || *trace == 0) return std::nullopt;
  return TraceContext{*trace, *span, *parent};
}

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStage: return "stage";
    case SpanKind::kOverlay: return "overlay";
    case SpanKind::kEvent: return "event";
  }
  return "?";
}

void Span::SetTag(std::string key, std::string value) {
  for (auto& [k, v] : tags) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  tags.emplace_back(std::move(key), std::move(value));
}

const std::string* Span::FindTag(std::string_view key) const {
  return FindTagIn(tags, key);
}

TraceContext SpanCollector::StartTrace() {
  TraceContext ctx;
  ctx.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = next_span_.fetch_add(1, std::memory_order_relaxed);
  ctx.parent_span_id = 0;
  return ctx;
}

TraceContext SpanCollector::Child(const TraceContext& parent) {
  if (!parent.valid()) return StartTrace();
  TraceContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id = next_span_.fetch_add(1, std::memory_order_relaxed);
  ctx.parent_span_id = parent.span_id;
  return ctx;
}

Span SpanCollector::Begin(std::string name, TraceContext context,
                          SpanKind kind) {
  Span span;
  span.name = std::move(name);
  span.context = context;
  span.kind = kind;
  span.start = clock_->Now();
  return span;
}

void SpanCollector::End(Span span) {
  span.end = clock_->Now();
  Record(std::move(span));
}

std::size_t SpanCollector::TagsHash::operator()(const Tags& tags) const {
  const std::hash<std::string> hash;
  std::size_t h = tags.size();
  for (const auto& [k, v] : tags) {
    for (const std::size_t part : {hash(k), hash(v)}) {
      h ^= part + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
  }
  return h;
}

void SpanCollector::Record(Span span) {
  if (span.end < span.start) span.end = span.start;
  MutexLock lock(mu_);
  if (size_ >= max_spans_) {
    ++dropped_;
    return;
  }
  const auto name = names_.Intern(std::move(span.name));
  std::optional<std::size_t> tags = 0;
  if (!span.tags.empty()) {
    tags = tag_sets_.Intern(std::move(span.tags));
    if (tags) ++*tags;
  }
  if (!name || !tags) {
    ++dropped_;
    return;
  }
  if (size_ % kChunkSpans == 0) {
    chunks_.push_back(
        std::make_unique_for_overwrite<StoredSpan[]>(kChunkSpans));
  }
  StoredSpan& stored = chunks_.back()[size_ % kChunkSpans];
  stored.trace_id = span.context.trace_id;
  stored.span_id = span.context.span_id;
  stored.parent_span_id = span.context.parent_span_id;
  stored.start = span.start;
  stored.end = span.end;
  stored.tags = std::uint32_t(*tags);
  stored.name = std::uint16_t(*name);
  stored.kind = std::uint8_t(span.kind);
  ++size_;
}

void SpanCollector::Event(
    std::string name, TraceContext context,
    std::vector<std::pair<std::string, std::string>> tags) {
  Span span;
  span.name = std::move(name);
  span.context = context;
  span.kind = SpanKind::kEvent;
  span.start = span.end = clock_->Now();
  span.tags = std::move(tags);
  Record(std::move(span));
}

void SpanCollector::RootEvent(
    std::string name, std::vector<std::pair<std::string, std::string>> tags) {
  Event(std::move(name), StartTrace(), std::move(tags));
}

std::size_t SpanCollector::size() const {
  MutexLock lock(mu_);
  return size_;
}

std::int64_t SpanCollector::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void SpanCollector::Clear() {
  MutexLock lock(mu_);
  chunks_.clear();
  size_ = 0;
  names_.clear();
  tag_sets_.clear();
  dropped_ = 0;
}

Span SpanCollector::Expand(const StoredSpan& s) const {
  Span span;
  span.name = names_.at(s.name);
  span.context = {s.trace_id, s.span_id, s.parent_span_id};
  span.kind = SpanKind(s.kind);
  span.start = s.start;
  span.end = s.end;
  if (s.tags != 0) span.tags = tag_sets_.at(s.tags - 1);
  return span;
}

std::vector<Span> SpanCollector::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<Span> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(Expand(At(i)));
  return out;
}

std::vector<StageStats> SpanCollector::StageBreakdown() const {
  // Stage durations (ms) grouped by name id, then by name in name order.
  std::vector<std::pair<std::string, std::vector<double>>> by_stage;
  {
    MutexLock lock(mu_);
    std::vector<std::vector<double>> by_id(names_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      const StoredSpan& s = At(i);
      if (SpanKind(s.kind) != SpanKind::kStage) continue;
      by_id[s.name].push_back(double(s.end - s.start) / kMillisecond);
    }
    for (std::size_t id = 0; id < by_id.size(); ++id) {
      if (!by_id[id].empty()) {
        by_stage.emplace_back(names_.at(id), std::move(by_id[id]));
      }
    }
  }
  std::sort(by_stage.begin(), by_stage.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<StageStats> out;
  out.reserve(by_stage.size());
  for (auto& [stage, durations] : by_stage) {
    std::sort(durations.begin(), durations.end());
    StageStats st;
    st.stage = std::move(stage);
    st.count = std::int64_t(durations.size());
    double sum = 0;
    for (const double d : durations) sum += d;
    st.mean_ms = sum / double(durations.size());
    st.p50_ms = QuantileOf(durations, 0.50);
    st.p95_ms = QuantileOf(durations, 0.95);
    st.p99_ms = QuantileOf(durations, 0.99);
    out.push_back(std::move(st));
  }
  // Critical-path order: stages that accumulate the most total time first.
  std::sort(out.begin(), out.end(), [](const StageStats& a, const StageStats& b) {
    return a.mean_ms * double(a.count) > b.mean_ms * double(b.count);
  });
  return out;
}

std::vector<TraceSummary> SpanCollector::Traces() const {
  std::unordered_map<TraceId, TraceSummary> by_trace;
  {
    MutexLock lock(mu_);
    const Tags no_tags;
    for (std::size_t i = 0; i < size_; ++i) {
      const StoredSpan& s = At(i);
      const SpanKind kind = SpanKind(s.kind);
      const std::string& name = names_.at(s.name);
      const Tags& tags = s.tags == 0 ? no_tags : tag_sets_.at(s.tags - 1);
      const TimeNs duration = s.end - s.start;
      TraceSummary& t = by_trace[s.trace_id];
      if (t.spans == 0) {
        t.trace_id = s.trace_id;
        t.start = s.start;
        t.end = s.end;
      } else {
        t.start = std::min(t.start, s.start);
        t.end = std::max(t.end, s.end);
      }
      ++t.spans;
      if (kind == SpanKind::kStage) {
        t.stage_total += duration;
        t.stage_ns[name] += duration;
      }
      if (FindTagIn(tags, "degraded") != nullptr) t.degraded = true;
      if (FindTagIn(tags, "retried") != nullptr ||
          (kind == SpanKind::kOverlay && name.rfind("retry", 0) == 0)) {
        t.retried = true;
      }
    }
  }
  std::vector<TraceSummary> out;
  out.reserve(by_trace.size());
  for (auto& [id, summary] : by_trace) out.push_back(std::move(summary));
  std::sort(out.begin(), out.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              return a.trace_id < b.trace_id;
            });
  return out;
}

std::string SpanCollector::ToJson() const {
  MutexLock lock(mu_);
  std::string out;
  out.reserve(size_ * 96);
  for (std::size_t i = 0; i < size_; ++i) {
    const StoredSpan& s = At(i);
    out += "{\"trace\":\"";
    AppendHex(out, s.trace_id);
    out += "\",\"span\":\"";
    AppendHex(out, s.span_id);
    out += "\",\"parent\":\"";
    AppendHex(out, s.parent_span_id);
    out += "\",\"name\":";
    AppendJsonString(out, names_.at(s.name));
    out += ",\"kind\":\"";
    out += SpanKindName(SpanKind(s.kind));
    out += "\",\"start_ns\":" + std::to_string(s.start);
    out += ",\"end_ns\":" + std::to_string(s.end);
    if (s.tags != 0) {
      out += ",\"tags\":{";
      bool first = true;
      for (const auto& [k, v] : tag_sets_.at(s.tags - 1)) {
        if (!first) out += ',';
        first = false;
        AppendJsonString(out, k);
        out += ':';
        AppendJsonString(out, v);
      }
      out += '}';
    }
    out += "}\n";
  }
  return out;
}

std::string SpanCollector::CriticalPathReport() const {
  const auto stages = StageBreakdown();
  const auto traces = Traces();

  std::ostringstream os;
  os << "per-stage latency (ms):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-24s %8s %10s %10s %10s %10s\n",
                "stage", "count", "mean", "p50", "p95", "p99");
  os << line;
  for (const StageStats& st : stages) {
    std::snprintf(line, sizeof(line),
                  "  %-24s %8lld %10.3f %10.3f %10.3f %10.3f\n",
                  st.stage.c_str(), (long long)st.count, st.mean_ms, st.p50_ms,
                  st.p95_ms, st.p99_ms);
    os << line;
  }

  // Reconciliation: stage spans should partition each trace's extent.
  const TraceSummary* slowest = nullptr;
  double coverage_sum = 0;
  std::int64_t covered = 0;
  for (const TraceSummary& t : traces) {
    if (t.stage_total == 0 || t.total() == 0) continue;
    coverage_sum += double(t.stage_total) / double(t.total());
    ++covered;
    if (slowest == nullptr || t.total() > slowest->total()) slowest = &t;
  }
  if (covered > 0) {
    std::snprintf(line, sizeof(line),
                  "stage sums cover %.1f%% of end-to-end latency "
                  "(mean over %lld traces)\n",
                  100.0 * coverage_sum / double(covered), (long long)covered);
    os << line;
  }
  if (slowest != nullptr) {
    std::snprintf(line, sizeof(line),
                  "slowest trace %llx: %.3f ms end-to-end%s%s\n",
                  (unsigned long long)slowest->trace_id,
                  double(slowest->total()) / kMillisecond,
                  slowest->degraded ? " [degraded]" : "",
                  slowest->retried ? " [retried]" : "");
    os << line;
    for (const auto& [stage, ns] : slowest->stage_ns) {
      std::snprintf(line, sizeof(line), "  %-24s %10.3f ms (%5.1f%%)\n",
                    stage.c_str(), double(ns) / kMillisecond,
                    100.0 * double(ns) / double(slowest->total()));
      os << line;
    }
  }
  {
    MutexLock lock(mu_);
    if (dropped_ > 0) {
      os << "WARNING: " << dropped_
         << " spans dropped at collector capacity; stats are partial\n";
    }
  }
  return os.str();
}

}  // namespace metro::obs
