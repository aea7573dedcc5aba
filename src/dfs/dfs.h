#pragma once

// Distributed file system (Sec. II-C2's HDFS role).
//
// A NameNode tracks the namespace (path -> block list) and block placement;
// DataNodes hold checksummed block replicas. Files are written once, split
// into fixed-size blocks, and replicated across distinct DataNodes. Reads
// verify checksums and fail over to healthy replicas; a replication monitor
// re-replicates under-replicated blocks after node failures — the mechanism
// behind the availability claim the paper leans on ("even though some
// machines may fail, we can still access the data").

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::dfs {

/// Globally unique block identifier.
using BlockId = std::uint64_t;

/// Cluster-level tuning knobs.
struct DfsConfig {
  std::size_t block_size = 64 * 1024;  ///< bytes per block
  int replication = 3;                 ///< target replicas per block
};

/// File metadata returned by Stat.
struct FileInfo {
  std::string path;
  std::size_t size = 0;
  int num_blocks = 0;
  int replication = 0;
};

/// One storage node: block id -> (data, checksum).
///
/// DataNodes are owned by the Cluster; they are exposed for failure
/// injection in tests and benches.
class DataNode {
 public:
  explicit DataNode(int id) : id_(id) {}

  int id() const { return id_; }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Stops serving reads/writes (process crash). Stored data survives and
  /// becomes visible again on Revive (disk intact across restart). Atomic so
  /// fault injection from a test/chaos thread races cleanly with serving.
  void Kill() { alive_.store(false, std::memory_order_release); }
  void Revive() { alive_.store(true, std::memory_order_release); }

  Status StoreBlock(BlockId block, std::string data) METRO_EXCLUDES(mu_);
  Result<std::string> ReadBlock(BlockId block) const METRO_EXCLUDES(mu_);
  Status DeleteBlock(BlockId block) METRO_EXCLUDES(mu_);
  bool HasBlock(BlockId block) const METRO_EXCLUDES(mu_);

  /// Flips bits in a stored replica (fault injection for checksum tests).
  Status CorruptBlock(BlockId block) METRO_EXCLUDES(mu_);

  /// Fails the next `n` StoreBlock calls with kUnavailable (write-path fault
  /// injection: a full disk or a crash mid-handshake). The node stays alive
  /// for reads, so the NameNode's placement still selects it.
  void FailNextStores(int n) METRO_EXCLUDES(mu_);

  std::size_t num_blocks() const METRO_EXCLUDES(mu_);
  std::size_t bytes_stored() const METRO_EXCLUDES(mu_);

 private:
  struct StoredBlock {
    std::string data;
    std::uint32_t crc = 0;
  };

  int id_;
  std::atomic<bool> alive_{true};  // liveness flag flipped by fault injectors
  mutable Mutex mu_{lockrank::kDfsDataNode, "dfs.datanode"};
  int fail_stores_ METRO_GUARDED_BY(mu_) = 0;
  std::unordered_map<BlockId, StoredBlock> blocks_ METRO_GUARDED_BY(mu_);
  std::size_t bytes_ METRO_GUARDED_BY(mu_) = 0;
};

/// The whole cluster: NameNode metadata plus its DataNodes.
class Cluster {
 public:
  Cluster(int num_datanodes, DfsConfig config, std::uint64_t seed = 42);

  const DfsConfig& config() const { return config_; }
  int num_datanodes() const { return int(nodes_.size()); }
  DataNode& node(int i) { return *nodes_[std::size_t(i)]; }

  /// Attaches a tracer: Create/Read record `dfs.write`/`dfs.read` spans
  /// tagged with path, byte count, and replica failovers. Set before
  /// concurrent use; pass nullptr to detach.
  void SetTracer(obs::SpanCollector* spans) { spans_ = spans; }

  /// Writes a complete file (fails if the path exists). With a tracer
  /// attached the write is spanned: under a valid `parent` as an overlay of
  /// the caller's trace, otherwise as a stage span in a fresh trace.
  Status Create(const std::string& path, std::string_view data,
                obs::TraceContext parent = {});

  /// Reads a complete file, failing over across replicas; kUnavailable if a
  /// block has no healthy, uncorrupted replica. Traced like Create.
  Result<std::string> Read(const std::string& path,
                           obs::TraceContext parent = {}) const;

  Status Delete(const std::string& path);
  Result<FileInfo> Stat(const std::string& path) const;

  /// Paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  /// One pass of the replication monitor: finds blocks whose live replica
  /// count is below target and copies them to healthy nodes. Returns the
  /// number of new replicas created.
  int RunReplicationPass();

  /// Count of blocks currently below the replication target.
  int UnderReplicatedBlocks() const;

  /// Gracefully drains a node: copies every replica it holds onto other
  /// healthy nodes, then drops the node's copies. The node stays alive but
  /// is excluded from future placement until RecommissionNode. Returns the
  /// number of replicas moved; fails if the cluster cannot absorb them.
  Result<int> DecommissionNode(int node);

  /// Returns a decommissioned node to placement duty.
  Status RecommissionNode(int node);

  /// One balancing pass: moves block replicas from the most-loaded to the
  /// least-loaded healthy nodes until the byte imbalance ratio is at most
  /// `threshold` (max/min, with min floored at one block). Returns moves.
  int BalanceCluster(double threshold = 1.5);

  MetricsRegistry& metrics() { return metrics_; }

 private:
  struct BlockMeta {
    std::vector<int> replicas;  ///< datanode ids
    std::size_t size = 0;
  };
  struct FileMeta {
    std::vector<BlockId> blocks;
    std::size_t size = 0;
  };

  /// Picks `n` distinct healthy nodes, least-loaded first with random
  /// tie-breaking (stand-in for rack awareness).
  std::vector<int> PlaceReplicas(int n, const std::vector<int>& exclude) const
      METRO_REQUIRES(mu_);

  Status CreateImpl(const std::string& path, std::string_view data,
                    std::int64_t* failovers) METRO_EXCLUDES(mu_);
  Result<std::string> ReadImpl(const std::string& path,
                               std::int64_t* failovers) const
      METRO_EXCLUDES(mu_);

  /// Opens the span for a traced operation (spans_ must be non-null).
  obs::Span BeginOp(const char* name, const obs::TraceContext& parent) const;

  DfsConfig config_;
  obs::SpanCollector* spans_ = nullptr;  // set before concurrent use
  std::vector<std::unique_ptr<DataNode>> nodes_;
  // Lock order: mu_ before any DataNode::mu_ (CreateImpl stores blocks while
  // holding the namespace lock); never take mu_ from inside a DataNode.
  mutable Mutex mu_{lockrank::kDfsCluster, "dfs.cluster"};  // namespace + block map
  std::vector<char> decommissioned_ METRO_GUARDED_BY(mu_);
  std::map<std::string, FileMeta> namespace_ METRO_GUARDED_BY(mu_);
  std::unordered_map<BlockId, BlockMeta> block_map_ METRO_GUARDED_BY(mu_);
  BlockId next_block_ METRO_GUARDED_BY(mu_) = 1;
  mutable Rng rng_ METRO_GUARDED_BY(mu_);
  mutable MetricsRegistry metrics_;
  // dfs.* counters resolved once here, so an event is one atomic add rather
  // than a name-string build, the registry lock and a map lookup.
  Counter* const c_write_failovers_ =
      &metrics_.GetCounter("dfs.write_failovers");
  Counter* const c_blocks_written_ = &metrics_.GetCounter("dfs.blocks_written");
  Counter* const c_bytes_written_ = &metrics_.GetCounter("dfs.bytes_written");
  Counter* const c_corrupt_replicas_read_ =
      &metrics_.GetCounter("dfs.corrupt_replicas_read");
  Counter* const c_replica_read_failovers_ =
      &metrics_.GetCounter("dfs.replica_read_failovers");
  Counter* const c_bytes_read_ = &metrics_.GetCounter("dfs.bytes_read");
  Counter* const c_re_replications_ =
      &metrics_.GetCounter("dfs.re_replications");
  Counter* const c_decommission_moves_ =
      &metrics_.GetCounter("dfs.decommission_moves");
  Counter* const c_balance_moves_ = &metrics_.GetCounter("dfs.balance_moves");
};

}  // namespace metro::dfs
