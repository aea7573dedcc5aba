// Substrate micro-benchmarks (Sec. II-C2's integration claims): DFS block
// I/O, broker produce/fetch, LSM store reads/writes/scans, document
// store queries, dataflow shuffle, scheduler placement, NLP primitives, and
// the contended cost of the `metro::Mutex` every module locks through.
// These quantify the building blocks underneath the figure benches.

#include <benchmark/benchmark.h>

#include "dataflow/dataset.h"
#include "dfs/dfs.h"
#include "mq/broker_cluster.h"
#include "sched/resource_manager.h"
#include "store/document_store.h"
#include "store/lsm.h"
#include "store/wide_column.h"
#include "text/text.h"
#include "util/rng.h"
#include "util/sync.h"

namespace {

using namespace metro;

std::string RandomValue(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = char('a' + rng.UniformU64(26));
  return s;
}

// ---------------------------------------------------------------- DFS

void BM_DfsWrite64K(benchmark::State& state) {
  Rng rng(1);
  const std::string data = RandomValue(rng, 64 * 1024);
  std::size_t i = 0;
  dfs::Cluster cluster(5, {.block_size = 16 * 1024, .replication = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster.Create("/bench/f" + std::to_string(i++), data).ok());
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * 64 * 1024 * 3);
}
BENCHMARK(BM_DfsWrite64K);

void BM_DfsRead64K(benchmark::State& state) {
  Rng rng(2);
  dfs::Cluster cluster(5, {.block_size = 16 * 1024, .replication = 3});
  (void)cluster.Create("/bench/file", RandomValue(rng, 64 * 1024));
  for (auto _ : state) {
    auto data = cluster.Read("/bench/file");
    benchmark::DoNotOptimize(data.ok());
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_DfsRead64K);

void BM_DfsReplicationPass(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    dfs::Cluster cluster(6, {.block_size = 8 * 1024, .replication = 3});
    for (int f = 0; f < 20; ++f) {
      (void)cluster.Create("/f" + std::to_string(f), RandomValue(rng, 16 * 1024));
    }
    cluster.node(0).Kill();
    cluster.node(1).Kill();
    state.ResumeTiming();
    benchmark::DoNotOptimize(cluster.RunReplicationPass());
  }
}
BENCHMARK(BM_DfsReplicationPass)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- MQ

// One-node, replication-factor-1 broker. It enforces the per-partition
// backlog bound, so a rejected produce ends the run as an error instead of
// being timed as throughput.
void BM_MqProduce(benchmark::State& state) {
  SimClock clock;
  mq::BrokerCluster broker(clock, {.nodes = 1, .replication_factor = 1});
  (void)broker.CreateTopic("t", 8);
  Rng rng(4);
  const std::string value = RandomValue(rng, 256);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto ack =
        broker.Produce("t", "key" + std::to_string(i++ % 1000), value);
    if (!ack.ok()) {
      state.SkipWithError(ack.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(ack->offset);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(std::int64_t(state.iterations()) * 256);
}
BENCHMARK(BM_MqProduce);

void BM_MqFetchBatch128(benchmark::State& state) {
  // 800 batches of 128 records; each iteration fetches one whole batch.
  constexpr std::int64_t kBatches = 800;
  constexpr std::int64_t kEnd = kBatches * 128;
  SimClock clock;
  mq::BrokerCluster broker(clock, {.nodes = 1, .replication_factor = 1});
  (void)broker.CreateTopic("t", 1);
  Rng rng(5);
  mq::RecordBatchBuilder builder;
  for (std::int64_t b = 0; b < kBatches; ++b) {
    for (int i = 0; i < 128; ++i) builder.Add("", RandomValue(rng, 128));
    const auto request = broker.PrepareBatch(0, "t", 0, builder);
    if (!request.ok() || !broker.Produce(*request).ok()) {
      state.SkipWithError("filling the partition failed");
      return;
    }
  }
  std::int64_t offset = 0;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    const auto view = broker.FetchBatch("t", 0, offset, 128);
    if (!view.ok()) {
      state.SkipWithError(view.status().ToString().c_str());
      break;
    }
    delivered += std::int64_t(view->size());
    offset = view->next_offset() % kEnd;
    benchmark::DoNotOptimize(view->size());
  }
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_MqFetchBatch128);

// ---------------------------------------------------------------- LSM

void BM_LsmPut(benchmark::State& state) {
  store::LsmEngine lsm;
  Rng rng(6);
  std::size_t i = 0;
  const std::string value = RandomValue(rng, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsm.Put("key" + std::to_string(i++ % 100'000), value).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmPut);

void BM_LsmGetHot(benchmark::State& state) {
  store::LsmEngine lsm;
  Rng rng(7);
  for (int i = 0; i < 50'000; ++i) {
    (void)lsm.Put("key" + std::to_string(i), RandomValue(rng, 100));
  }
  (void)lsm.Flush();
  std::size_t i = 0;
  for (auto _ : state) {
    auto value = lsm.Get("key" + std::to_string(i++ % 50'000));
    benchmark::DoNotOptimize(value.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmGetHot);

void BM_LsmScan100(benchmark::State& state) {
  store::LsmEngine lsm;
  Rng rng(8);
  for (int i = 0; i < 20'000; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%08d", i);
    (void)lsm.Put(key, RandomValue(rng, 64));
  }
  for (auto _ : state) {
    auto rows = lsm.Scan("key00005000", "key00005100");
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_LsmScan100);

void BM_WideColumnPut(benchmark::State& state) {
  store::WideColumnTable table("bench");
  Rng rng(9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table
                                 .Put("row" + std::to_string(i++ % 10'000),
                                      "col", RandomValue(rng, 64))
                                 .ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WideColumnPut);

// ---------------------------------------------------------------- Documents

void BM_DocStoreIndexedQuery(benchmark::State& state) {
  store::Collection coll("bench");
  Rng rng(10);
  for (int i = 0; i < 20'000; ++i) {
    store::Document doc;
    doc["kind"] = std::string(i % 10 == 0 ? "crime" : "other");
    doc["ts"] = std::int64_t(i);
    coll.Insert(std::move(doc));
  }
  (void)coll.CreateIndex("kind");
  store::Query query;
  query.conditions.push_back(
      {"kind", store::Condition::Op::kEquals, std::string("crime")});
  for (auto _ : state) {
    auto ids = coll.Find(query);
    benchmark::DoNotOptimize(ids.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DocStoreIndexedQuery);

void BM_DocStoreGeoQuery(benchmark::State& state) {
  store::Collection coll("bench");
  Rng rng(11);
  for (int i = 0; i < 20'000; ++i) {
    store::Document doc;
    doc["lat"] = 30.45 + rng.Normal(0, 0.1);
    doc["lon"] = -91.18 + rng.Normal(0, 0.1);
    coll.Insert(std::move(doc));
  }
  (void)coll.CreateGeoIndex("lat", "lon");
  store::Query query;
  query.near_center = geo::LatLon{30.45, -91.18};
  query.near_radius_m = 2000;
  for (auto _ : state) {
    auto ids = coll.Find(query);
    benchmark::DoNotOptimize(ids.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DocStoreGeoQuery);

// ---------------------------------------------------------------- Dataflow

void BM_DataflowWordCount(benchmark::State& state) {
  dataflow::Engine engine(4);
  std::vector<std::pair<std::string, int>> pairs;
  Rng rng(12);
  for (int i = 0; i < 100'000; ++i) {
    pairs.emplace_back("word" + std::to_string(rng.Zipf(500, 1.1)), 1);
  }
  for (auto _ : state) {
    auto ds = dataflow::Dataset<std::pair<std::string, int>>::Parallelize(
        pairs, 8);
    auto counts =
        dataflow::ReduceByKey(ds, 4, [](int a, int b) { return a + b; });
    auto out = counts.Collect(engine);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_DataflowWordCount)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- Scheduler

void BM_SchedulerPlacement(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sched::ResourceManager rm(sched::Policy::kFair);
    for (int n = 0; n < 20; ++n) rm.AddNode({16, 32'768});
    std::vector<std::uint64_t> apps;
    for (int a = 0; a < 8; ++a) {
      apps.push_back(rm.SubmitApp({"app" + std::to_string(a)}));
      (void)rm.RequestContainers(apps.back(), {2, 2048}, 16);
    }
    state.ResumeTiming();
    auto granted = rm.Schedule();
    benchmark::DoNotOptimize(granted.size());
  }
}
BENCHMARK(BM_SchedulerPlacement)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- Text

void BM_TokenizeTweet(benchmark::State& state) {
  const std::string tweet =
      "heard gunshots near the corner store on 3rd street stay safe everyone";
  for (auto _ : state) {
    auto tokens = text::Tokenize(tweet);
    benchmark::DoNotOptimize(tokens.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenizeTweet);

void BM_NaiveBayesPredict(benchmark::State& state) {
  text::NaiveBayes nb(2);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    (void)nb.Train(i % 2 ? "shooting robbery weapon police downtown"
                         : "coffee weather game sunset traffic",
                   i % 2);
  }
  const std::string query = "police report of a shooting downtown tonight";
  for (auto _ : state) {
    benchmark::DoNotOptimize(nb.Predict(query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveBayesPredict);

// ---------------------------------------------------------------- Sync

// One Mutex shared by every benchmark thread. The critical section bumps a
// guarded counter and rewrites one guarded cache line, about the shape of a
// broker partition append's bookkeeping. At Threads(1) this is the
// uncontended cost; items/s is acquisitions across all threads.
struct ContendedCounter {
  Mutex counter_mu;
  std::uint64_t count METRO_GUARDED_BY(counter_mu) = 0;
  alignas(64) std::uint64_t line[8] METRO_GUARDED_BY(counter_mu) = {};
};
ContendedCounter g_contended;

void BM_MutexContended(benchmark::State& state) {
  for (auto _ : state) {
    MutexLock lock(g_contended.counter_mu);
    const std::uint64_t n = ++g_contended.count;
    for (auto& word : g_contended.line) word = n;
    benchmark::DoNotOptimize(g_contended.line);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexContended)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
