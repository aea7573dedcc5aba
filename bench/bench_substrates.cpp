// Substrate micro-benchmarks (Sec. II-C2's integration claims): DFS block
// I/O, broker produce/fetch, LSM store reads/writes/scans, document
// store queries, dataflow shuffle, scheduler placement, NLP primitives, the
// contended cost of the `metro::Mutex` every module locks through, and the
// Fig. 5 detector stem's layer kernels at the stem's own shapes, and the
// planned stem they make up.
// These quantify the building blocks underneath the figure benches.

#include <benchmark/benchmark.h>

#include "dataflow/dataset.h"
#include "datagen/video.h"
#include "dfs/dfs.h"
#include "mq/broker_cluster.h"
#include "nn/inference.h"
#include "sched/resource_manager.h"
#include "store/document_store.h"
#include "store/lsm.h"
#include "store/wide_column.h"
#include "tensor/ops.h"
#include "text/text.h"
#include "util/rng.h"
#include "util/sync.h"
#include "zoo/detector.h"

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

// ---------------------------------------------------------------- Stem kernels

// The Fig. 5 detector stem's layers, one kernel each, at its two stages:
// conv3x3 32x32x3 -> 8 then 16x16x8 -> 12, each followed by LeakyReLU and a
// 2x2/s2 max pool. Inputs are standard normal, so about half are negative,
// as after the stem's BatchNorm. Each benchmark takes the stage's input
// size and channel count as arguments.

tensor::Tensor StemActivations(int hw, int channels) {
  Rng rng(3);
  return tensor::Tensor::RandomNormal({1, hw, hw, channels}, 1.0f, rng);
}

// Every conv the detector runs, by shape: the two stem convs, the tiny
// head's stride-2 conv and 1x1 prediction conv, and the full head's two 3x3
// convs and 1x1 prediction conv (13 = 5 box/objectness outputs + 8
// classes). Beside them, two widths the zoo's row kernel is not compiled
// for: the Inception block's 1x1 5x5-reduce (6x6x3 -> 2) and the ResNet
// golden block's second conv (8x8x6 -> 6). Arguments: input size, input
// channels, output channels, kernel size, stride, the row kernels'
// instruction set (0 SSE2, 1 AVX2) and the epilogue (0 none, 1 a folded
// BatchNorm then LeakyReLU, as planned inference runs the stem's convs);
// padding is kernel / 2. The MAC/s counter counts in-bounds taps only, one
// multiply-add per tap and output channel.
void BM_Conv2dForwardInto(benchmark::State& state) {
  const int hw = int(state.range(0)), cin = int(state.range(1)),
            cout = int(state.range(2)), k = int(state.range(3)),
            stride = int(state.range(4));
  const auto isa = tensor::ConvIsa(state.range(5));
  const bool with_epilogue = state.range(6) != 0;
  if (!tensor::ConvIsaSupported(isa)) {
    state.SkipWithError("instruction set not supported on this host");
    return;
  }
  const int pad = k / 2;
  const int ohw = (hw + 2 * pad - k) / stride + 1;
  Rng rng(5);
  const tensor::Tensor x = StemActivations(hw, cin);
  const tensor::Tensor w =
      tensor::Tensor::HeNormal({k, k, cin, cout}, k * k * cin, rng);
  const tensor::Tensor b = tensor::Tensor::RandomNormal({cout}, 0.1f, rng);
  const tensor::Tensor scale =
      tensor::Tensor::RandomNormal({cout}, 1.0f, rng);
  const tensor::Tensor shift =
      tensor::Tensor::RandomNormal({cout}, 0.1f, rng);
  tensor::ConvEpilogue epilogue;
  if (with_epilogue) epilogue = {scale.data(), shift.data(), true, 0.1f};
  tensor::Tensor y({1, ohw, ohw, cout});
  const tensor::TensorView out(y);
  // In-bounds taps along one axis, summed over the output positions.
  std::int64_t taps = 0;
  for (int o = 0; o < ohw; ++o) {
    for (int t = 0; t < k; ++t) {
      const int i = o * stride + t - pad;
      taps += i >= 0 && i < hw;
    }
  }
  const double macs = double(taps) * double(taps) * cin * cout;
  for (auto _ : state) {
    tensor::Conv2dForwardIntoForIsa(isa, tensor::TensorView::OfConst(x), w, b,
                                    stride, pad, out, nullptr, epilogue);
    benchmark::DoNotOptimize(y.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(y.size()));
  state.counters["MAC/s"] = benchmark::Counter(
      macs * double(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2dForwardInto)
    ->ArgNames({"hw", "cin", "cout", "k", "stride", "isa", "epilogue"})
    ->ArgsProduct({{32}, {3}, {8}, {3}, {1}, {0, 1}, {0, 1}})
    ->ArgsProduct({{16}, {8}, {12}, {3}, {1}, {0, 1}, {0, 1}})
    ->ArgsProduct({{8}, {12}, {16}, {3}, {2}, {0, 1}, {0, 1}})
    ->ArgsProduct({{4}, {16}, {13}, {1}, {1}, {0, 1}, {0}})
    ->ArgsProduct({{8}, {12}, {24}, {3}, {1}, {0, 1}, {0, 1}})
    ->ArgsProduct({{4}, {24}, {32}, {3}, {1}, {0, 1}, {0, 1}})
    ->ArgsProduct({{4}, {32}, {13}, {1}, {1}, {0, 1}, {0}})
    ->ArgsProduct({{6}, {3}, {2}, {1}, {1}, {0, 1}, {0, 1}})
    ->ArgsProduct({{8}, {6}, {6}, {3}, {1}, {0, 1}, {0, 1}});

// The unfused BatchNorm pass over a stem conv's output, with its folded
// scale and shift; planned inference now runs it as the conv's epilogue.
void BM_BatchNormInferenceInto(benchmark::State& state) {
  const int channels = int(state.range(1));
  const tensor::Tensor x = StemActivations(int(state.range(0)), channels);
  Rng rng(7);
  const tensor::Tensor scale =
      tensor::Tensor::RandomNormal({channels}, 1.0f, rng);
  const tensor::Tensor shift =
      tensor::Tensor::RandomNormal({channels}, 0.1f, rng);
  tensor::Tensor y(x.shape());
  const tensor::TensorView out(y);
  for (auto _ : state) {
    tensor::BatchNormInferenceInto(tensor::TensorView::OfConst(x),
                                   scale.data(), shift.data(), out);
    benchmark::DoNotOptimize(y.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(x.size()));
}
BENCHMARK(BM_BatchNormInferenceInto)->Args({32, 8})->Args({16, 12});

// Out of place, so every iteration sees the same mixed-sign input (in place,
// repeated scaling would drive the negatives into denormals).
void BM_LeakyReluInto(benchmark::State& state) {
  const tensor::Tensor x =
      StemActivations(int(state.range(0)), int(state.range(1)));
  tensor::Tensor y(x.shape());
  const tensor::TensorView out(y);
  for (auto _ : state) {
    tensor::LeakyReluInto(tensor::TensorView::OfConst(x), out, 0.1f);
    benchmark::DoNotOptimize(y.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(x.size()));
}
BENCHMARK(BM_LeakyReluInto)->Args({32, 8})->Args({16, 12});

void BM_MaxPool2dForwardInto(benchmark::State& state) {
  const int hw = int(state.range(0)), channels = int(state.range(1));
  const tensor::Tensor x = StemActivations(hw, channels);
  tensor::Tensor y({1, hw / 2, hw / 2, channels});
  const tensor::TensorView out(y);
  for (auto _ : state) {
    tensor::MaxPool2dForwardInto(tensor::TensorView::OfConst(x), 2, 2, out);
    benchmark::DoNotOptimize(y.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(x.size()));
}
// The stem's two pools, then a width the zoo does not pool.
BENCHMARK(BM_MaxPool2dForwardInto)->Args({32, 8})->Args({16, 12})->Args({16, 6});

// The detector stem as planned inference runs it (conv with its BatchNorm
// and LeakyReLU, pool, twice), one frame per iteration over 300 distinct
// generated frames, so no frame's activations stay in cache from the last
// time it ran. The detector is untrained; the kernels' work does not depend
// on the weights.
void BM_PlannedStem(benchmark::State& state) {
  zoo::DetectorConfig config;
  Rng rng(11);
  zoo::SplitDetector det(config, rng);
  datagen::VehicleFrameGenerator gen(config, 13);
  std::vector<tensor::Tensor> frames;
  for (int i = 0; i < 300; ++i) {
    frames.push_back(gen.Generate().image.Reshape(
        {1, config.image_size, config.image_size, config.channels}));
  }
  tensor::Workspace arena;
  nn::InferenceSession stem(det.stem_net(), frames.front().shape(), arena);
  std::size_t next = 0;
  for (auto _ : state) {
    const tensor::TensorView out =
        stem.Run(tensor::TensorView::OfConst(frames[next]));
    benchmark::DoNotOptimize(out.data().data());
    next = next + 1 == frames.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlannedStem);

}  // namespace

BENCHMARK_MAIN();
