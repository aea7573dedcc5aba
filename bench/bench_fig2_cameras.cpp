// Fig. 2 reproduction: the DOTD camera network around Baton Rouge.
//
// The figure shows 200+ cameras strung along the interstate corridors. This
// bench instantiates the synthetic camera network at the paper's scale,
// verifies its geography (corridor structure, geo-indexed dispatch), and
// measures the ingest load the camera fleet imposes on the fog tier as the
// fleet grows. Expected shape: ingest bytes scale linearly with camera
// count; nearest-camera dispatch via the grid index answers in microseconds.

#include <benchmark/benchmark.h>

#include <iterator>
#include <map>

#include "bench_util.h"
#include "datagen/city.h"
#include "fog/fog.h"
#include "geo/geo.h"

namespace {

using namespace metro;

void CameraInventory() {
  datagen::CityDataGenerator city({}, 2018);
  std::map<std::string, int> per_corridor;
  double min_lat = 90, max_lat = -90, min_lon = 180, max_lon = -180;
  for (const auto& cam : city.cameras()) {
    ++per_corridor[cam.corridor];
    min_lat = std::min(min_lat, cam.location.lat);
    max_lat = std::max(max_lat, cam.location.lat);
    min_lon = std::min(min_lon, cam.location.lon);
    max_lon = std::max(max_lon, cam.location.lon);
  }
  bench::Table table({"corridor", "cameras", "span note"});
  for (const auto& [corridor, count] : per_corridor) {
    table.AddRow({corridor, bench::FmtInt(count), "radiates from city center"});
  }
  table.AddRow({"TOTAL", bench::FmtInt(std::int64_t(city.cameras().size())),
                "bbox " + bench::Fmt(max_lat - min_lat, 3) + " x " +
                    bench::Fmt(max_lon - min_lon, 3) + " deg"});
  table.Print("Fig. 2: synthetic DOTD camera network (Baton Rouge corridors)");
}

void NearestCameraDispatch() {
  // Incident -> nearest cameras: the smart-camera-control dispatch query.
  datagen::CityDataGenerator city({}, 2019);
  geo::GridIndex index;
  for (const auto& cam : city.cameras()) {
    index.Insert(std::uint64_t(cam.id), cam.location);
  }
  // The table is seed-pinned; the wall-clock lookup times vary run to run,
  // so they print on a line of their own below it.
  bench::Table table({"radius (m)", "mean cameras in range"});
  const double radii[] = {500.0, 1000.0, 2500.0, 5000.0};
  double lookup_us[std::size(radii)];
  Rng rng(5);
  for (std::size_t r = 0; r < std::size(radii); ++r) {
    double total = 0;
    const int queries = 500;
    const auto start = WallClock::Instance().Now();
    for (int q = 0; q < queries; ++q) {
      const geo::LatLon where{
          datagen::kBatonRouge.lat + rng.Normal(0, 0.05),
          datagen::kBatonRouge.lon + rng.Normal(0, 0.05)};
      total += double(index.QueryRadius(where, radii[r]).size());
    }
    lookup_us[r] =
        double(WallClock::Instance().Now() - start) / kMicrosecond / queries;
    table.AddRow({bench::FmtInt(std::int64_t(radii[r])),
                  bench::Fmt(total / queries, 1)});
  }
  table.Print("Fig. 2: geo-indexed nearest-camera dispatch");
  std::printf("lookup wall time (us/query):");
  for (std::size_t r = 0; r < std::size(radii); ++r) {
    std::printf("%s %.0f m %.1f", r ? ";" : "", radii[r], lookup_us[r]);
  }
  std::printf("\n");
}

void FleetIngestScaling() {
  bench::Table table({"cameras", "frames (1 s @15fps)", "edge->fog traffic",
                      "mean lat (ms)"});
  for (const int cameras : {50, 100, 200, 400}) {
    fog::FogConfig config;
    config.num_edges = std::max(1, cameras / 25);  // 25 cameras per edge hub
    fog::FogTopology topo(config);
    std::vector<fog::WorkItem> items;
    Rng rng(7);
    std::uint64_t id = 0;
    for (int cam = 0; cam < cameras; ++cam) {
      for (int f = 0; f < 15; ++f) {  // one second of 15 fps
        fog::WorkItem item;
        item.id = id++;
        item.edge = cam % config.num_edges;
        item.arrival = TimeNs(f) * 66 * kMillisecond;
        item.raw_bytes = 24'576;
        item.edge_filter_macs = 50'000;
        item.local_macs = 4'000'000;
        item.server_macs = 40'000'000;
        item.dropped_by_edge_filter = rng.Bernoulli(0.5);  // static scenes
        item.local_exit = rng.Bernoulli(0.8);
        item.feature_bytes = 3'072;
        items.push_back(item);
      }
    }
    const auto result = fog::RunEarlyExitPipeline(topo, std::move(items));
    table.AddRow({bench::FmtInt(cameras), bench::FmtInt(cameras * 15),
                  bench::FmtBytes(result.traffic.edge_to_fog),
                  bench::Fmt(result.mean_latency_ms, 2)});
  }
  table.Print("Fig. 2: camera-fleet ingest scaling on the fog tier");
}

void BM_GeoRadiusQuery(benchmark::State& state) {
  datagen::CityDataGenerator city({}, 2020);
  geo::GridIndex index;
  for (const auto& cam : city.cameras()) {
    index.Insert(std::uint64_t(cam.id), cam.location);
  }
  Rng rng(9);
  for (auto _ : state) {
    const geo::LatLon where{datagen::kBatonRouge.lat + rng.Normal(0, 0.05),
                            datagen::kBatonRouge.lon + rng.Normal(0, 0.05)};
    auto hits = index.QueryRadius(where, 2000);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeoRadiusQuery);

}  // namespace

int main(int argc, char** argv) {
  CameraInventory();
  NearestCameraDispatch();
  FleetIngestScaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
