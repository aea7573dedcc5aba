// Tests for the distributed file system: block placement, replication,
// failover, corruption handling, and re-replication after node loss.

#include <gtest/gtest.h>

#include "dfs/dfs.h"
#include "util/rng.h"

namespace metro::dfs {
namespace {

DfsConfig SmallConfig() {
  DfsConfig config;
  config.block_size = 1024;
  config.replication = 3;
  return config;
}

std::string MakeData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) c = char('a' + rng.UniformU64(26));
  return s;
}

TEST(DfsTest, CreateReadRoundTrip) {
  Cluster cluster(5, SmallConfig());
  const std::string data = MakeData(5000, 1);
  ASSERT_TRUE(cluster.Create("/data/file1", data).ok());
  const auto read = cluster.Read("/data/file1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(DfsTest, EmptyFileRoundTrip) {
  Cluster cluster(4, SmallConfig());
  ASSERT_TRUE(cluster.Create("/empty", "").ok());
  const auto read = cluster.Read("/empty");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 0u);
}

TEST(DfsTest, DuplicateCreateRejected) {
  Cluster cluster(4, SmallConfig());
  ASSERT_TRUE(cluster.Create("/f", "x").ok());
  EXPECT_EQ(cluster.Create("/f", "y").code(), StatusCode::kAlreadyExists);
}

TEST(DfsTest, ReadMissingFileFails) {
  Cluster cluster(4, SmallConfig());
  EXPECT_EQ(cluster.Read("/nope").status().code(), StatusCode::kNotFound);
}

TEST(DfsTest, StatReportsBlocksAndReplication) {
  Cluster cluster(5, SmallConfig());
  const std::string data = MakeData(3000, 2);  // 3 blocks at 1 KiB
  ASSERT_TRUE(cluster.Create("/f", data).ok());
  const auto info = cluster.Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 3000u);
  EXPECT_EQ(info->num_blocks, 3);
  EXPECT_EQ(info->replication, 3);
}

TEST(DfsTest, ListByPrefix) {
  Cluster cluster(4, SmallConfig());
  ASSERT_TRUE(cluster.Create("/logs/a", "1").ok());
  ASSERT_TRUE(cluster.Create("/logs/b", "2").ok());
  ASSERT_TRUE(cluster.Create("/data/c", "3").ok());
  const auto logs = cluster.List("/logs/");
  EXPECT_EQ(logs, (std::vector<std::string>{"/logs/a", "/logs/b"}));
  EXPECT_EQ(cluster.List("").size(), 3u);
}

TEST(DfsTest, DeleteRemovesBlocks) {
  Cluster cluster(4, SmallConfig());
  ASSERT_TRUE(cluster.Create("/f", MakeData(2048, 3)).ok());
  std::size_t blocks_before = 0;
  for (int i = 0; i < cluster.num_datanodes(); ++i) {
    blocks_before += cluster.node(i).num_blocks();
  }
  EXPECT_GT(blocks_before, 0u);
  ASSERT_TRUE(cluster.Delete("/f").ok());
  std::size_t blocks_after = 0;
  for (int i = 0; i < cluster.num_datanodes(); ++i) {
    blocks_after += cluster.node(i).num_blocks();
  }
  EXPECT_EQ(blocks_after, 0u);
  EXPECT_EQ(cluster.Read("/f").status().code(), StatusCode::kNotFound);
}

TEST(DfsTest, ReplicasOnDistinctNodes) {
  Cluster cluster(5, SmallConfig());
  ASSERT_TRUE(cluster.Create("/f", MakeData(512, 4)).ok());
  // One block, three replicas: exactly three nodes hold one block.
  int holders = 0;
  for (int i = 0; i < cluster.num_datanodes(); ++i) {
    if (cluster.node(i).num_blocks() == 1) ++holders;
  }
  EXPECT_EQ(holders, 3);
}

TEST(DfsTest, ReadSurvivesNodeFailures) {
  Cluster cluster(5, SmallConfig());
  const std::string data = MakeData(4096, 5);
  ASSERT_TRUE(cluster.Create("/f", data).ok());
  // Kill two nodes: with replication 3, every block keeps >= 1 replica.
  cluster.node(0).Kill();
  cluster.node(1).Kill();
  const auto read = cluster.Read("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(DfsTest, CorruptReplicaFailsOverToHealthyCopy) {
  Cluster cluster(4, SmallConfig());
  const std::string data = MakeData(800, 6);
  ASSERT_TRUE(cluster.Create("/f", data).ok());
  // Corrupt the block everywhere we can find it except one node.
  int corrupted = 0;
  for (int i = 0; i < cluster.num_datanodes() && corrupted < 2; ++i) {
    if (cluster.node(i).num_blocks() == 1) {
      // CorruptBlock needs the block id; brute force small ids.
      for (BlockId b = 1; b < 10; ++b) {
        if (cluster.node(i).HasBlock(b)) {
          ASSERT_TRUE(cluster.node(i).CorruptBlock(b).ok());
          ++corrupted;
          break;
        }
      }
    }
  }
  ASSERT_EQ(corrupted, 2);
  const auto read = cluster.Read("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  EXPECT_GE(cluster.metrics().GetCounter("dfs.replica_read_failovers").value(), 1);
}

TEST(DfsTest, UnreadableBlockNamesEveryFailingReplica) {
  // Corrupt every replica: the read must fail AND the error must say which
  // replica failed and why, so an operator can find the bad disks.
  Cluster cluster(3, SmallConfig());  // replication 3 -> all nodes hold it
  ASSERT_TRUE(cluster.Create("/f", MakeData(800, 11)).ok());
  for (int i = 0; i < 3; ++i) {
    for (BlockId b = 1; b < 10; ++b) {
      if (cluster.node(i).HasBlock(b)) {
        ASSERT_TRUE(cluster.node(i).CorruptBlock(b).ok());
      }
    }
  }
  const auto read = cluster.Read("/f");
  ASSERT_EQ(read.status().code(), StatusCode::kUnavailable);
  const std::string msg = read.status().message();
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(msg.find("node " + std::to_string(i)), std::string::npos) << msg;
  }
  EXPECT_NE(msg.find("CORRUPTION"), std::string::npos) << msg;
  EXPECT_NE(msg.find("failed checksum"), std::string::npos) << msg;
  EXPECT_GE(cluster.metrics().GetCounter("dfs.corrupt_replicas_read").value(),
            3);
}

TEST(DfsTest, WriteFailoverReplacesFailedTarget) {
  DfsConfig config;
  config.block_size = 1024;
  config.replication = 1;
  Cluster cluster(2, config);
  // Load node 1 well past the placement jitter so node 0 is the certain
  // first choice, then make node 0 reject the store.
  ASSERT_TRUE(cluster.node(1).StoreBlock(999, std::string(8192, 'x')).ok());
  cluster.node(0).FailNextStores(1);
  ASSERT_TRUE(cluster.Create("/f", MakeData(512, 12)).ok());
  EXPECT_EQ(cluster.metrics().GetCounter("dfs.write_failovers").value(), 1);
  const auto info = cluster.Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->replication, 1);
  EXPECT_TRUE(cluster.Read("/f").ok());
}

TEST(DfsTest, AllReplicasDeadIsUnavailable) {
  Cluster cluster(3, SmallConfig());
  ASSERT_TRUE(cluster.Create("/f", "payload").ok());
  for (int i = 0; i < 3; ++i) cluster.node(i).Kill();
  EXPECT_EQ(cluster.Read("/f").status().code(), StatusCode::kUnavailable);
}

TEST(DfsTest, ReplicationPassRestoresTarget) {
  Cluster cluster(6, SmallConfig());
  const std::string data = MakeData(2048, 7);
  ASSERT_TRUE(cluster.Create("/f", data).ok());
  EXPECT_EQ(cluster.UnderReplicatedBlocks(), 0);

  cluster.node(0).Kill();
  cluster.node(1).Kill();
  EXPECT_GT(cluster.UnderReplicatedBlocks(), 0);

  const int created = cluster.RunReplicationPass();
  EXPECT_GT(created, 0);
  EXPECT_EQ(cluster.UnderReplicatedBlocks(), 0);

  // Data remains readable even if the dead nodes never come back.
  const auto read = cluster.Read("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(DfsTest, RevivedNodeServesAgain) {
  Cluster cluster(3, SmallConfig());
  ASSERT_TRUE(cluster.Create("/f", "hello").ok());
  cluster.node(0).Kill();
  cluster.node(1).Kill();
  cluster.node(2).Kill();
  EXPECT_FALSE(cluster.Read("/f").ok());
  cluster.node(0).Revive();
  cluster.node(1).Revive();
  cluster.node(2).Revive();
  EXPECT_TRUE(cluster.Read("/f").ok());
}

TEST(DfsTest, PlacementBalancesLoad) {
  Cluster cluster(4, SmallConfig());
  for (int f = 0; f < 40; ++f) {
    ASSERT_TRUE(cluster.Create("/f" + std::to_string(f), MakeData(1024, 100 + f)).ok());
  }
  // 40 blocks x 3 replicas over 4 nodes: each node should hold roughly 30.
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(cluster.node(i).num_blocks(), 15u);
    EXPECT_LT(cluster.node(i).num_blocks(), 45u);
  }
}

TEST(DfsTest, WriteWithNoHealthyNodesFails) {
  Cluster cluster(2, SmallConfig());
  cluster.node(0).Kill();
  cluster.node(1).Kill();
  EXPECT_EQ(cluster.Create("/f", "x").code(), StatusCode::kUnavailable);
}

TEST(DfsTest, LargeFileManyBlocks) {
  Cluster cluster(5, SmallConfig());
  const std::string data = MakeData(100 * 1024, 8);  // 100 blocks
  ASSERT_TRUE(cluster.Create("/big", data).ok());
  const auto info = cluster.Stat("/big");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_blocks, 100);
  const auto read = cluster.Read("/big");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

}  // namespace
}  // namespace metro::dfs
