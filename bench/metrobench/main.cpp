// metrobench: the repository's end-to-end benchmark.
//
//   metrobench --workload=<name> --seed=<n> [--seconds=<s>] [--trace]
//              [--out-dir=<dir>]
//
// Untraced, it runs one pass of the workload and reports the end-to-end
// metrics. With --trace it runs the untraced pass and then a traced pass of
// the same inputs, and reports the per-layer metrics: span-derived ones
// from the traced pass, everything else from the untraced pass (so tracing
// cost never leaks into them), and obs.trace_overhead_pct, the traced
// pass's latency_p50_ms over the untraced one's. Each metric is printed by
// name with its unit; the last line of stdout is the result as one JSON
// object. Metric names and units here must match BENCHMARK.json. The exit
// code is 1 when a check failed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace {

using namespace metrobench;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_rps", "ops/s"},
    {"capacity_rps", "ops/s"},
    {"peak_rss_mb", "MB"},
};

// latency_p99_ms is measured in the untraced pass like the end-to-end
// metrics, but its run-to-run spread on a shared host is wider than any
// bound BENCHMARK.json may set, so it is reported here, without a bound.
const MetricDef kPerLayer[] = {
    {"latency_p99_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"scan_p99_ms", "ms"},
    {"accuracy", "ratio"},
    {"upstream_bytes_per_frame", "B"},
    {"failed_ratio", "ratio"},
    {"mq.produce_us.p50", "us"},
    {"mq.produce_us.p99", "us"},
    {"mq.fetch_us.p50", "us"},
    {"mq.fetch_us.p99", "us"},
    {"mq.consumer_lag.max", "records"},
    {"mq.queue_wait_ms.p50", "ms"},
    {"mq.queue_wait_ms.p99", "ms"},
    {"mq.produce_retries", "count"},
    {"mq.backpressure", "count"},
    {"core.gen_lag_ms.max", "ms"},
    {"core.parse_us.p50", "us"},
    {"core.store_us.p50", "us"},
    {"core.store_us.p99", "us"},
    {"core.analyze_us.p50", "us"},
    {"store.get_us.p50", "us"},
    {"store.get_us.p99", "us"},
    {"store.put_us.p50", "us"},
    {"store.put_us.p99", "us"},
    {"store.scan_us.p50", "us"},
    {"store.scan_us.p99", "us"},
    {"store.seals", "count"},
    {"store.compactions", "count"},
    {"store.write_stall_ms", "ms"},
    {"store.level_tables", "count"},
    {"store.bloom_skips", "count"},
    {"store.fence_skips", "count"},
    {"store.cache_hit_ratio", "ratio"},
    {"zoo.stem_us.p50", "us"},
    {"zoo.tiny_us.p50", "us"},
    {"zoo.full_us.p50", "us"},
    {"zoo.offload_ratio", "ratio"},
    {"zoo.heap_allocs_per_frame", "count"},
    {"tensor.arena_peak_bytes", "B"},
    {"fog.edge_to_fog_bytes", "B"},
    {"fog.fog_to_server_bytes", "B"},
    {"fog.server_to_cloud_bytes", "B"},
    {"fog.sim_latency_p99_ms", "ms"},
    {"obs.spans_recorded", "count"},
    {"obs.spans_dropped", "count"},
    {"obs.trace_overhead_pct", "%"},
};

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"city_ingest", RunCityIngest},
    {"video_fog", RunVideoFog},
    {"store_readstorm", RunStoreReadstorm},
    {"mq_fanin", RunMqFanin},
};

bool Flag(std::string_view arg, std::string_view name, std::string& value) {
  if (arg.substr(0, name.size()) != name) return false;
  if (arg.size() == name.size()) {
    value.clear();
    return true;
  }
  if (arg[name.size()] != '=') return false;
  value = std::string(arg.substr(name.size() + 1));
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "metrobench: %s\nusage: metrobench --workload=<name> "
               "--seed=<n> [--seconds=<s>] [--trace] [--out-dir=<dir>]\n"
               "workloads: city_ingest video_fog store_readstorm mq_fanin\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const Workload* workload = nullptr;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string v;
    if (Flag(arg, "--workload", v)) {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) workload = &w;
      }
      if (workload == nullptr) return Usage("unknown workload");
    } else if (Flag(arg, "--seed", v)) {
      char* end = nullptr;
      options.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (Flag(arg, "--seconds", v)) {
      char* end = nullptr;
      options.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 60) {
        return Usage("--seconds must be in (0, 60]");
      }
    } else if (Flag(arg, "--trace", v)) {
      if (!v.empty() && v != "1" && v != "0") return Usage("bad --trace");
      options.trace = v != "0";
    } else if (Flag(arg, "--out-dir", v)) {
      options.out_dir = v;
    } else {
      return Usage("unknown flag");
    }
  }
  if (workload == nullptr || !have_seed) {
    return Usage("--workload and --seed are required");
  }

  const bool trace = options.trace;
  options.trace = false;
  const RunResult untraced = workload->run(options);
  options.trace = true;
  spans::Clear();
  const RunResult traced = trace ? workload->run(options) : RunResult{};

  RunResult out;
  out.correct = untraced.correct && traced.correct;
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  for (const RunResult* r : {&untraced, &traced}) {
    for (const std::string& e : r->errors) {
      std::fprintf(stderr, "metrobench %s: CHECK FAILED: %s\n",
                   workload->name, e.c_str());
    }
  }

  std::vector<Metric> selected;
  if (!trace) {
    for (const MetricDef& def : kEndToEnd) {
      const Metric* m = untraced.Find(def.name);
      if (m == nullptr) {
        out.correct = false;
        std::fprintf(stderr, "metrobench: %s did not measure %s\n",
                     workload->name, def.name);
      }
      selected.push_back(Metric{def.name, m ? m->value : 0, def.unit});
    }
  } else {
    const Metric* p50 = untraced.Find("latency_p50_ms");
    const Metric* traced_p50 = traced.Find("latency_p50_ms");
    for (const MetricDef& def : kPerLayer) {
      const Metric* m = untraced.Find(def.name);
      if (m == nullptr) m = traced.Find(def.name);
      double value = m ? m->value : 0;  // a layer the workload leaves idle
      if (std::string_view(def.name) == "obs.trace_overhead_pct" && p50 &&
          traced_p50 && p50->value > 0) {
        value = 100.0 * (traced_p50->value - p50->value) / p50->value;
      }
      selected.push_back(Metric{def.name, value, def.unit});
    }
  }

  // Untraced, the lines also show the per-layer metrics the pass measured
  // (latency_p99_ms among them); the JSON line keeps to the end-to-end set.
  std::vector<Metric> shown = selected;
  if (!trace) {
    for (const MetricDef& def : kPerLayer) {
      if (const Metric* m = untraced.Find(def.name)) {
        shown.push_back(Metric{def.name, m->value, def.unit});
      }
    }
  }

  std::printf("metrobench %s seed=%llu seconds=%g trace=%d nproc=%d\n",
              workload->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              int(trace), Nproc());
  for (const Metric& m : shown) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-28s %16lld\n  %-28s %16lld\n  %-28s %16s\n", "attempted",
              static_cast<long long>(out.attempted), "failed",
              static_cast<long long>(out.failed), "correct",
              out.correct ? "true" : "false");
  std::printf("%s\n", ResultLine(out, selected).c_str());
  return out.correct ? 0 : 1;
}
