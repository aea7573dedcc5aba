// Edge-case coverage across modules: small behaviors not exercised by the
// main suites (empty inputs, boundary shapes, metric plumbing, name/summary
// helpers, clock edge cases).

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "dataflow/dataset.h"
#include "fog/fog.h"
#include "nn/layer.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "store/document_store.h"
#include "store/lsm.h"
#include "text/text.h"

namespace metro {
namespace {

// ---------------------------------------------------------------- dataflow

TEST(DataflowEdgeTest, EmptyDatasetActions) {
  dataflow::Engine engine(2);
  auto ds = dataflow::Dataset<int>::Parallelize({}, 3);
  EXPECT_EQ(ds.Count(engine), 0u);
  EXPECT_TRUE(ds.Collect(engine).empty());
  EXPECT_EQ(ds.Reduce(engine, 7, [](int a, int b) { return a + b; }), 7);
}

TEST(DataflowEdgeTest, SinglePartitionChain) {
  dataflow::Engine engine(1);
  auto result = dataflow::Dataset<int>::Parallelize({1, 2, 3}, 1)
                    .Map([](const int& x) { return x * x; })
                    .Filter([](const int& x) { return x > 1; })
                    .Collect(engine);
  std::sort(result.begin(), result.end());
  EXPECT_EQ(result, (std::vector<int>{4, 9}));
}

TEST(DataflowEdgeTest, DeepLazyChainEvaluatesOnce) {
  dataflow::Engine engine(2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto ds = dataflow::Dataset<int>::FromGenerator(2, [counter](int p) {
    counter->fetch_add(1);
    return std::vector<int>{p};
  });
  auto chained = ds.Map([](const int& x) { return x + 1; })
                     .Map([](const int& x) { return x * 2; })
                     .Map([](const int& x) { return x - 1; });
  const auto out = chained.Collect(engine);
  EXPECT_EQ(out.size(), 2u);
  // No caching anywhere: the source ran once per partition per action.
  EXPECT_EQ(counter->load(), 2);
}

TEST(DataflowEdgeTest, SampleZeroAndOne) {
  dataflow::Engine engine(2);
  auto ds = dataflow::Dataset<int>::Parallelize(std::vector<int>(100, 1), 4);
  EXPECT_EQ(ds.Sample(0.0, 1).Count(engine), 0u);
  EXPECT_EQ(ds.Sample(1.0, 1).Count(engine), 100u);
}

// ---------------------------------------------------------------- nn bits

TEST(NnEdgeTest, FlattenRoundTripShapes) {
  nn::Flatten flatten;
  nn::Tensor x({2, 3, 3, 4}, 1.0f);
  nn::Tensor y = flatten.Forward(x, true);
  EXPECT_EQ(y.shape(), (nn::Shape{2, 36}));
  nn::Tensor g = flatten.Backward(nn::Tensor({2, 36}, 0.5f));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(NnEdgeTest, LayerNamesDescriptive) {
  Rng rng(1);
  nn::Conv2d conv(3, 16, 3, 2, 1, rng);
  EXPECT_EQ(conv.name(), "conv3x3x16/s2");
  nn::MaxPool2d pool(2, 2);
  EXPECT_EQ(pool.name(), "maxpool2/s2");
  nn::Dense dense(8, 4, rng);
  EXPECT_EQ(dense.name(), "dense8x4");
  nn::BatchNorm bn(7);
  EXPECT_EQ(bn.name(), "bn7");
  nn::Dropout dropout(0.25f, rng);
  EXPECT_EQ(dropout.name(), "dropout25");
}

TEST(NnEdgeTest, SequentialSummaryAndEmptyNet) {
  nn::Sequential empty;
  EXPECT_EQ(empty.Summary(), "");
  EXPECT_EQ(empty.num_layers(), 0u);
  nn::Tensor x({1, 3}, 1.0f);
  nn::Tensor y = empty.Forward(x, false);  // identity
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(NnEdgeTest, BatchSizeOneTrainingStep) {
  Rng rng(2);
  nn::Sequential net;
  net.Emplace<nn::Dense>(2, 2, rng);
  auto ce = tensor::CrossEntropyLoss(net.Forward(nn::Tensor({1, 2}, 0.5f), true),
                                     {1});
  net.Backward(ce.grad);
  nn::Sgd opt(0.1f);
  auto params = net.Params();
  opt.Step(params);
  EXPECT_TRUE(std::isfinite(ce.loss));
}

// ---------------------------------------------------------------- fog

TEST(FogEdgeTest, EmptyWorkload) {
  fog::FogConfig config;
  config.num_edges = 2;
  config.edges_per_fog = 2;
  fog::FogTopology topo(config);
  const auto result = fog::RunEarlyExitPipeline(topo, {});
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_EQ(result.mean_latency_ms, 0.0);
  EXPECT_EQ(result.traffic.edge_to_fog, 0u);
}

TEST(FogEdgeTest, SingleEdgeMinimalTopology) {
  fog::FogConfig config;
  config.num_edges = 1;
  config.edges_per_fog = 1;
  config.fogs_per_server = 1;
  fog::FogTopology topo(config);
  EXPECT_EQ(topo.num_fogs(), 1);
  EXPECT_EQ(topo.num_servers(), 1);
  fog::WorkItem item;
  item.raw_bytes = 100;
  item.feature_bytes = 10;
  item.local_macs = 1000;
  item.server_macs = 1000;
  item.local_exit = false;
  const auto result = fog::RunEarlyExitPipeline(topo, {item});
  EXPECT_EQ(result.items_offloaded, 1);
  EXPECT_GT(result.mean_latency_ms, 0.0);
}

TEST(FogEdgeTest, ZeroComputeItemsStillTraverse) {
  fog::FogConfig config;
  config.num_edges = 2;
  fog::FogTopology topo(config);
  fog::WorkItem item;  // all macs/bytes default: 0 raw bytes is legal
  item.raw_bytes = 1;
  const auto result = fog::RunEarlyExitPipeline(topo, {item});
  EXPECT_EQ(result.items_local, 1);
}

// ---------------------------------------------------------------- pipeline

TEST(PipelineEdgeTest, LatencyStatsPopulated) {
  core::CityPipeline pipeline(WallClock::Instance());
  core::CityPipeline::TopicSpec spec;
  spec.topic = "t";
  spec.partitions = 1;
  spec.analyzer = [](const store::Document& doc)
      -> std::optional<store::Document> { return doc; };
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.Start().ok());
  store::Document doc;
  doc["x"] = std::int64_t(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        pipeline.log().Produce("t", "", core::EncodeDocument(doc)).ok());
  }
  pipeline.Drain();
  pipeline.Stop();
  const auto stats = pipeline.Stats();
  EXPECT_EQ(stats.web_items, 5);
  EXPECT_GE(stats.p99_latency_ms, 0.0);
  EXPECT_LT(stats.mean_latency_ms, 5000.0);  // sanity: sub-5s on idle box
}

TEST(PipelineEdgeTest, UnknownCollectionLookupFails) {
  core::CityPipeline pipeline(WallClock::Instance());
  EXPECT_EQ(pipeline.collection("nope").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------- text/store

TEST(TextEdgeTest, CosineSelfSimilarityIsOne) {
  text::TfIdf tfidf;
  tfidf.Fit({"alpha beta gamma", "delta epsilon"});
  const auto v = tfidf.Transform("alpha beta");
  EXPECT_NEAR(text::TfIdf::Cosine(v, v), 1.0f, 1e-5f);
  EXPECT_EQ(text::TfIdf::Cosine(v, {}), 0.0f);
}

TEST(TextEdgeTest, NaiveBayesUntrainedPredictsValidLabel) {
  text::NaiveBayes nb(3);
  const int pred = nb.Predict("anything at all");
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, 3);
}

TEST(StoreEdgeTest, LsmLargeValuesRoundTrip) {
  store::LsmEngine lsm;
  const std::string big(1 << 20, 'z');
  ASSERT_TRUE(lsm.Put("big", big).ok());
  ASSERT_TRUE(lsm.Flush().ok());
  EXPECT_EQ(lsm.Get("big").value().size(), big.size());
}

TEST(StoreEdgeTest, CollectionEmptyQueryReturnsAll) {
  store::Collection coll("c");
  for (int i = 0; i < 5; ++i) {
    store::Document doc;
    doc["i"] = std::int64_t(i);
    coll.Insert(std::move(doc));
  }
  EXPECT_EQ(coll.Find({}).size(), 5u);
  EXPECT_EQ(coll.FindDocs({}).size(), 5u);
}

TEST(StoreEdgeTest, GeoQueryWithoutIndexFallsBackToScan) {
  store::Collection coll("c");
  store::Document near;
  near["lat"] = 30.45;
  near["lon"] = -91.18;
  coll.Insert(std::move(near));
  store::Document far;
  far["lat"] = 40.0;
  far["lon"] = -74.0;
  coll.Insert(std::move(far));
  store::Query q;
  q.near_center = geo::LatLon{30.45, -91.18};
  q.near_radius_m = 1000;
  EXPECT_EQ(coll.Find(q).size(), 1u);  // no geo index: full scan + filter
}

}  // namespace
}  // namespace metro
