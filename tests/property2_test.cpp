// Second property suite: wide-column model checking (including region
// splits), scheduler capacity conservation, consumer-group coverage,
// shuffle sum preservation, and detector decode bounds — all parameterized
// sweeps over seeds/configurations.

#include <gtest/gtest.h>

#include <map>

#include "dataflow/dataset.h"
#include "mq/broker_cluster.h"
#include "sched/resource_manager.h"
#include "store/wide_column.h"
#include "util/rng.h"
#include "zoo/detector.h"

namespace metro {
namespace {

// ------------------------------------------------- WideColumn model check

class WideColumnModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WideColumnModelCheck, AgreesWithMapThroughSplits) {
  Rng rng(GetParam());
  store::WideColumnConfig config;
  config.region_split_threshold = 40;  // force frequent splits
  store::WideColumnTable table("t", config);
  std::map<std::pair<std::string, std::string>, std::string> model;

  for (int op = 0; op < 800; ++op) {
    char row[16], col[8];
    std::snprintf(row, sizeof row, "r%03d",
                  int(rng.UniformU64(40)));
    std::snprintf(col, sizeof col, "c%d", int(rng.UniformU64(4)));
    const double dice = rng.UniformDouble();
    if (dice < 0.6) {
      const std::string value = "v" + std::to_string(rng.NextU64() % 100);
      ASSERT_TRUE(table.Put(row, col, value).ok());
      model[{row, col}] = value;
    } else if (dice < 0.8) {
      (void)table.DeleteCell(row, col);
      model.erase({row, col});
    } else if (dice < 0.9) {
      const std::size_t removed = table.DeleteRow(row);
      std::size_t model_removed = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->first.first == row) {
          it = model.erase(it);
          ++model_removed;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(removed, model_removed);
    } else {
      (void)table.MaybeSplitRegions();
    }
  }
  (void)table.MaybeSplitRegions();

  // Scan agrees entirely (order and content).
  const auto cells = table.Scan("", "");
  ASSERT_EQ(cells.size(), model.size());
  auto mit = model.begin();
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.row, mit->first.first);
    EXPECT_EQ(cell.column, mit->first.second);
    EXPECT_EQ(cell.value, mit->second);
    ++mit;
  }
  // Point reads agree for every model entry.
  for (const auto& [key, value] : model) {
    const auto got = table.Get(key.first, key.second);
    ASSERT_TRUE(got.ok()) << key.first << "/" << key.second;
    EXPECT_EQ(*got, value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideColumnModelCheck,
                         ::testing::Range<std::uint64_t>(20, 30));

// ------------------------------------------------- Scheduler conservation

class SchedulerConservation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedulerConservation, NeverExceedsCapacityAndConservesContainers) {
  Rng rng(GetParam());
  const auto policy =
      std::array{sched::Policy::kFifo, sched::Policy::kFair,
                 sched::Policy::kCapacity}[rng.UniformU64(3)];
  sched::ResourceManager rm(policy);
  const int nodes = 2 + int(rng.UniformU64(4));
  const sched::Resource capacity{8, 8192};
  for (int n = 0; n < nodes; ++n) rm.AddNode(capacity);
  rm.SetQueueShare("default", 1.0);

  std::vector<std::uint64_t> apps;
  for (int a = 0; a < 4; ++a) {
    apps.push_back(rm.SubmitApp({"app" + std::to_string(a)}));
  }
  std::vector<std::uint64_t> live;
  std::int64_t requested = 0;

  for (int round = 0; round < 60; ++round) {
    if (rng.Bernoulli(0.6)) {
      const int count = 1 + int(rng.UniformU64(4));
      const sched::Resource ask{1 + int(rng.UniformU64(4)),
                                512 * (1 + std::int64_t(rng.UniformU64(6)))};
      if (rm.RequestContainers(apps[rng.UniformU64(apps.size())], ask, count)
              .ok()) {
        requested += count;
      }
    }
    for (const auto& container : rm.Schedule()) {
      live.push_back(container.id);
    }
    if (!live.empty() && rng.Bernoulli(0.4)) {
      const std::size_t pick = rng.UniformU64(live.size());
      ASSERT_TRUE(rm.ReleaseContainer(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    // Invariant: free resources never negative on any node.
    for (int n = 0; n < nodes; ++n) {
      const auto avail = rm.NodeAvailable(n);
      ASSERT_TRUE(avail.ok());
      EXPECT_GE(avail->vcores, 0);
      EXPECT_LE(avail->vcores, capacity.vcores);
      EXPECT_GE(avail->memory_mb, 0);
      EXPECT_LE(avail->memory_mb, capacity.memory_mb);
    }
  }
  // Conservation: granted + released + pending == requested.
  const auto stats = rm.Stats();
  EXPECT_EQ(stats.containers_granted,
            std::int64_t(live.size()) + stats.containers_released);
  EXPECT_EQ(stats.containers_granted + stats.pending_requests, requested);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerConservation,
                         ::testing::Range<std::uint64_t>(40, 52));

// ------------------------------------------------- Consumer-group coverage

class GroupCoverage : public ::testing::TestWithParam<int> {};

TEST_P(GroupCoverage, AssignmentPartitionsExactlyOnce) {
  const int members = GetParam();
  SimClock clock;
  mq::BrokerCluster broker(clock, {.nodes = 1, .replication_factor = 1});
  const int partitions = 7;
  ASSERT_TRUE(broker.CreateTopic("t", partitions).ok());
  for (int m = 0; m < members; ++m) {
    ASSERT_TRUE(broker.JoinGroup("g", "t", "m" + std::to_string(m)).ok());
  }
  std::vector<int> owners(std::size_t(partitions), 0);
  for (int m = 0; m < members; ++m) {
    for (const int p : broker.Assignment("g", "m" + std::to_string(m))) {
      ++owners[std::size_t(p)];
    }
  }
  for (const int count : owners) EXPECT_EQ(count, 1);

  // After one member leaves, coverage still holds.
  if (members > 1) {
    ASSERT_TRUE(broker.LeaveGroup("g", "m0").ok());
    std::fill(owners.begin(), owners.end(), 0);
    for (int m = 1; m < members; ++m) {
      for (const int p : broker.Assignment("g", "m" + std::to_string(m))) {
        ++owners[std::size_t(p)];
      }
    }
    for (const int count : owners) EXPECT_EQ(count, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(MemberCounts, GroupCoverage,
                         ::testing::Values(1, 2, 3, 5, 7, 9));

// ------------------------------------------------- Shuffle sum preservation

class ShuffleSumPreservation : public ::testing::TestWithParam<int> {};

TEST_P(ShuffleSumPreservation, ReduceByKeyPreservesTotal) {
  const int out_partitions = GetParam();
  dataflow::Engine engine(3);
  Rng rng(std::uint64_t(out_partitions) * 77);
  std::vector<std::pair<int, int>> pairs;
  std::int64_t total = 0;
  for (int i = 0; i < 5000; ++i) {
    const int v = int(rng.UniformU64(100));
    pairs.emplace_back(int(rng.UniformU64(37)), v);
    total += v;
  }
  auto ds = dataflow::Dataset<std::pair<int, int>>::Parallelize(pairs, 5);
  auto reduced =
      dataflow::ReduceByKey(ds, out_partitions, [](int a, int b) { return a + b; });
  std::int64_t after = 0;
  std::size_t keys = 0;
  for (const auto& [k, v] : reduced.Collect(engine)) {
    after += v;
    ++keys;
  }
  EXPECT_EQ(after, total);
  EXPECT_EQ(keys, 37u);
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, ShuffleSumPreservation,
                         ::testing::Values(1, 2, 3, 8, 16));

// ------------------------------------------------- Detector decode bounds

class DetectorDecodeBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorDecodeBounds, AllDecodedFieldsInRange) {
  Rng rng(GetParam());
  zoo::DetectorConfig config;
  zoo::SplitDetector det(config, rng);
  // Untrained heads over random inputs: decode must still be well-formed.
  nn::Tensor images = nn::Tensor::RandomNormal(
      {2, config.image_size, config.image_size, 3}, 1.0f, rng);
  nn::Tensor stem = det.Stem(images, false);
  for (const bool full : {false, true}) {
    nn::Tensor out = full ? det.FullHead(stem, false) : det.TinyHead(stem, false);
    for (int b = 0; b < 2; ++b) {
      const auto dets = det.Decode(out, b, 0.0f);
      EXPECT_EQ(dets.size(), std::size_t(config.grid) * config.grid);
      float best = 0;
      for (const auto& d : dets) {
        EXPECT_GE(d.score, 0.0f);
        EXPECT_LE(d.score, 1.0f);
        EXPECT_GE(d.cx, 0.0f);
        EXPECT_LE(d.cx, 1.0f);
        EXPECT_GE(d.cy, 0.0f);
        EXPECT_LE(d.cy, 1.0f);
        EXPECT_GT(d.w, 0.0f);
        EXPECT_LE(d.w, 1.0f);
        EXPECT_GE(d.cls, 0);
        EXPECT_LT(d.cls, config.num_classes);
        best = std::max(best, d.score);
      }
      EXPECT_FLOAT_EQ(det.Confidence(out, b), best);
      // NMS output is sorted by score and below the input count.
      const auto kept = zoo::Nms(dets, 0.4f, 0.0f);
      for (std::size_t i = 1; i < kept.size(); ++i) {
        EXPECT_GE(kept[i - 1].score, kept[i].score);
      }
      EXPECT_LE(kept.size(), dets.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorDecodeBounds,
                         ::testing::Range<std::uint64_t>(60, 70));

}  // namespace
}  // namespace metro
