#include "dfs/dfs.h"

#include <algorithm>

#include "util/bytes.h"

namespace metro::dfs {

Status DataNode::StoreBlock(BlockId block, std::string data) {
  if (!alive()) return UnavailableError("datanode " + std::to_string(id_) + " down");
  MutexLock lock(mu_);
  if (fail_stores_ > 0) {
    --fail_stores_;
    return UnavailableError("datanode " + std::to_string(id_) +
                            " store failed (injected)");
  }
  const std::uint32_t crc = Crc32c(data);
  const auto [it, inserted] =
      blocks_.try_emplace(block, StoredBlock{std::move(data), crc});
  if (!inserted) return AlreadyExistsError("block already on node");
  bytes_ += it->second.data.size();
  return Status::Ok();
}

Result<std::string> DataNode::ReadBlock(BlockId block) const {
  if (!alive()) return UnavailableError("datanode " + std::to_string(id_) + " down");
  MutexLock lock(mu_);
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return NotFoundError("block not on node");
  if (Crc32c(it->second.data) != it->second.crc) {
    return CorruptionError("block " + std::to_string(block) +
                           " failed checksum on node " + std::to_string(id_));
  }
  return it->second.data;
}

Status DataNode::DeleteBlock(BlockId block) {
  MutexLock lock(mu_);
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return NotFoundError("block not on node");
  bytes_ -= it->second.data.size();
  blocks_.erase(it);
  return Status::Ok();
}

bool DataNode::HasBlock(BlockId block) const {
  MutexLock lock(mu_);
  return blocks_.count(block) > 0;
}

Status DataNode::CorruptBlock(BlockId block) {
  MutexLock lock(mu_);
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return NotFoundError("block not on node");
  if (it->second.data.empty()) return FailedPreconditionError("empty block");
  it->second.data[it->second.data.size() / 2] ^= char(0x5a);
  return Status::Ok();
}

void DataNode::FailNextStores(int n) {
  MutexLock lock(mu_);
  fail_stores_ = n;
}

std::size_t DataNode::num_blocks() const {
  MutexLock lock(mu_);
  return blocks_.size();
}

std::size_t DataNode::bytes_stored() const {
  MutexLock lock(mu_);
  return bytes_;
}

Cluster::Cluster(int num_datanodes, DfsConfig config, std::uint64_t seed)
    : config_(config),
      decommissioned_(std::size_t(num_datanodes), 0),
      rng_(seed) {
  nodes_.reserve(std::size_t(num_datanodes));
  for (int i = 0; i < num_datanodes; ++i) {
    nodes_.push_back(std::make_unique<DataNode>(i));
  }
}

std::vector<int> Cluster::PlaceReplicas(int n,
                                        const std::vector<int>& exclude) const {
  // Least-loaded healthy nodes first; random jitter breaks ties so load
  // spreads evenly when nodes are equally full.
  std::vector<std::pair<double, int>> candidates;
  for (const auto& node : nodes_) {
    if (!node->alive() || decommissioned_[std::size_t(node->id())]) continue;
    if (std::find(exclude.begin(), exclude.end(), node->id()) != exclude.end()) {
      continue;
    }
    candidates.emplace_back(
        double(node->bytes_stored()) + rng_.UniformDouble() * config_.block_size,
        node->id());
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<int> picks;
  for (const auto& [load, id] : candidates) {
    if (int(picks.size()) >= n) break;
    picks.push_back(id);
  }
  return picks;
}

obs::Span Cluster::BeginOp(const char* name,
                           const obs::TraceContext& parent) const {
  // Under a caller's trace the operation annotates time the caller's
  // enclosing stage already covers (overlay); standalone calls open their
  // own trace with a stage span.
  const bool nested = parent.valid();
  return spans_->Begin(
      name, nested ? spans_->Child(parent) : spans_->StartTrace(),
      nested ? obs::SpanKind::kOverlay : obs::SpanKind::kStage);
}

Status Cluster::Create(const std::string& path, std::string_view data,
                       obs::TraceContext parent) {
  if (spans_ == nullptr) return CreateImpl(path, data, nullptr);
  obs::Span span = BeginOp("dfs.write", parent);
  std::int64_t failovers = 0;
  const Status st = CreateImpl(path, data, &failovers);
  span.SetTag("path", path);
  span.SetTag("bytes", std::to_string(data.size()));
  if (failovers > 0) span.SetTag("failovers", std::to_string(failovers));
  if (!st.ok()) span.SetTag("error", std::string(st.message()));
  spans_->End(std::move(span));
  return st;
}

Status Cluster::CreateImpl(const std::string& path, std::string_view data,
                           std::int64_t* failovers) {
  MutexLock lock(mu_);
  if (namespace_.count(path)) return AlreadyExistsError(path);

  FileMeta meta;
  meta.size = data.size();
  std::size_t offset = 0;
  // Zero-byte files still get one (empty) block so Read round-trips.
  do {
    const std::size_t len = std::min(config_.block_size, data.size() - offset);
    const BlockId block = next_block_++;
    const auto targets = PlaceReplicas(config_.replication, {});
    if (targets.empty()) {
      return UnavailableError("no healthy datanodes for placement");
    }
    BlockMeta bmeta;
    bmeta.size = len;
    std::vector<int> tried;
    for (const int id : targets) {
      tried.push_back(id);
      const Status st = nodes_[std::size_t(id)]->StoreBlock(
          block, std::string(data.substr(offset, len)));
      if (st.ok()) bmeta.replicas.push_back(id);
    }
    // Write failover: a node that died between placement and store leaves the
    // block short — re-place the missing replicas on nodes not yet tried.
    while (int(bmeta.replicas.size()) < config_.replication) {
      const auto extra = PlaceReplicas(
          config_.replication - int(bmeta.replicas.size()), tried);
      if (extra.empty()) break;
      for (const int id : extra) {
        tried.push_back(id);
        const Status st = nodes_[std::size_t(id)]->StoreBlock(
            block, std::string(data.substr(offset, len)));
        if (st.ok()) {
          bmeta.replicas.push_back(id);
          c_write_failovers_->Increment();
          if (failovers != nullptr) ++*failovers;
        }
      }
    }
    if (bmeta.replicas.empty()) {
      return UnavailableError("all replica writes failed");
    }
    c_blocks_written_->Increment();
    c_bytes_written_->Increment(std::int64_t(len * bmeta.replicas.size()));
    block_map_[block] = std::move(bmeta);
    meta.blocks.push_back(block);
    offset += len;
  } while (offset < data.size());

  namespace_[path] = std::move(meta);
  return Status::Ok();
}

Result<std::string> Cluster::Read(const std::string& path,
                                  obs::TraceContext parent) const {
  if (spans_ == nullptr) return ReadImpl(path, nullptr);
  obs::Span span = BeginOp("dfs.read", parent);
  std::int64_t failovers = 0;
  auto res = ReadImpl(path, &failovers);
  span.SetTag("path", path);
  if (res.ok()) span.SetTag("bytes", std::to_string(res->size()));
  if (failovers > 0) span.SetTag("failovers", std::to_string(failovers));
  if (!res.ok()) span.SetTag("error", std::string(res.status().message()));
  spans_->End(std::move(span));
  return res;
}

Result<std::string> Cluster::ReadImpl(const std::string& path,
                                      std::int64_t* failovers) const {
  MutexLock lock(mu_);
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) return NotFoundError(path);
  // Copy the plan out so data transfer happens without the namespace lock.
  std::vector<std::pair<BlockId, std::vector<int>>> plan;
  plan.reserve(it->second.blocks.size());
  for (const BlockId block : it->second.blocks) {
    plan.emplace_back(block, block_map_.at(block).replicas);
  }
  const std::size_t expect = it->second.size;
  lock.Unlock();

  std::string out;
  out.reserve(expect);
  for (const auto& [block, replicas] : plan) {
    bool got = false;
    std::string failures;  // which replica failed, and how
    for (const int id : replicas) {
      auto res = nodes_[std::size_t(id)]->ReadBlock(block);
      if (res.ok()) {
        out += *res;
        got = true;
        break;
      }
      if (res.status().code() == StatusCode::kCorruption) {
        c_corrupt_replicas_read_->Increment();
      }
      c_replica_read_failovers_->Increment();
      if (failovers != nullptr) ++*failovers;
      if (!failures.empty()) failures += "; ";
      failures += "node " + std::to_string(id) + ": " +
                  std::string(StatusCodeName(res.status().code())) + ": " +
                  res.status().message();
    }
    if (!got) {
      return UnavailableError("block " + std::to_string(block) +
                              " has no readable replica (" + failures + ")");
    }
  }
  c_bytes_read_->Increment(std::int64_t(out.size()));
  return out;
}

Status Cluster::Delete(const std::string& path) {
  MutexLock lock(mu_);
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) return NotFoundError(path);
  for (const BlockId block : it->second.blocks) {
    const auto bit = block_map_.find(block);
    if (bit == block_map_.end()) continue;
    for (const int id : bit->second.replicas) {
      (void)nodes_[std::size_t(id)]->DeleteBlock(block);
    }
    block_map_.erase(bit);
  }
  namespace_.erase(it);
  return Status::Ok();
}

Result<FileInfo> Cluster::Stat(const std::string& path) const {
  MutexLock lock(mu_);
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) return NotFoundError(path);
  FileInfo info;
  info.path = path;
  info.size = it->second.size;
  info.num_blocks = int(it->second.blocks.size());
  int min_rep = config_.replication;
  for (const BlockId block : it->second.blocks) {
    min_rep = std::min(min_rep, int(block_map_.at(block).replicas.size()));
  }
  info.replication = it->second.blocks.empty() ? 0 : min_rep;
  return info;
}

std::vector<std::string> Cluster::List(const std::string& prefix) const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (auto it = namespace_.lower_bound(prefix);
       it != namespace_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(it->first);
  }
  return out;
}

int Cluster::RunReplicationPass() {
  MutexLock lock(mu_);
  int created = 0;
  for (auto& [block, meta] : block_map_) {
    // Live replicas are those on healthy nodes that still hold the block.
    std::vector<int> live;
    for (const int id : meta.replicas) {
      if (nodes_[std::size_t(id)]->alive() &&
          nodes_[std::size_t(id)]->HasBlock(block)) {
        live.push_back(id);
      }
    }
    const int deficit = config_.replication - int(live.size());
    if (deficit <= 0 || live.empty()) {
      meta.replicas = live.empty() ? meta.replicas : live;
      continue;
    }
    // Source the data from any live replica, skipping corrupted ones.
    std::string data;
    bool have = false;
    for (const int id : live) {
      auto res = nodes_[std::size_t(id)]->ReadBlock(block);
      if (res.ok()) {
        data = std::move(res).value();
        have = true;
        break;
      }
    }
    if (!have) continue;
    const auto targets = PlaceReplicas(deficit, live);
    for (const int id : targets) {
      if (nodes_[std::size_t(id)]->StoreBlock(block, data).ok()) {
        live.push_back(id);
        ++created;
        c_re_replications_->Increment();
      }
    }
    meta.replicas = live;
  }
  return created;
}

Result<int> Cluster::DecommissionNode(int node) {
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("bad node id");
  }
  decommissioned_[std::size_t(node)] = 1;
  int moved = 0;
  for (auto& [block, meta] : block_map_) {
    const auto it = std::find(meta.replicas.begin(), meta.replicas.end(), node);
    if (it == meta.replicas.end()) continue;
    auto data = nodes_[std::size_t(node)]->ReadBlock(block);
    if (!data.ok()) {
      // The draining node cannot serve this replica; the replication
      // monitor will repair from the surviving copies.
      meta.replicas.erase(it);
      continue;
    }
    const auto targets = PlaceReplicas(1, meta.replicas);
    if (targets.empty()) {
      decommissioned_[std::size_t(node)] = 0;  // roll back exclusion
      return ResourceExhaustedError(
          "no healthy node can absorb block " + std::to_string(block));
    }
    METRO_RETURN_IF_ERROR(
        nodes_[std::size_t(targets[0])]->StoreBlock(block, std::move(*data)));
    (void)nodes_[std::size_t(node)]->DeleteBlock(block);
    *it = targets[0];
    ++moved;
  }
  c_decommission_moves_->Increment(moved);
  return moved;
}

Status Cluster::RecommissionNode(int node) {
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("bad node id");
  }
  decommissioned_[std::size_t(node)] = 0;
  return Status::Ok();
}

int Cluster::BalanceCluster(double threshold) {
  MutexLock lock(mu_);
  int moves = 0;
  for (int round = 0; round < 10'000; ++round) {
    // Find the most- and least-loaded usable nodes.
    int hi = -1, lo = -1;
    for (const auto& node : nodes_) {
      if (!node->alive() || decommissioned_[std::size_t(node->id())]) continue;
      if (hi < 0 || node->bytes_stored() > nodes_[std::size_t(hi)]->bytes_stored()) {
        hi = node->id();
      }
      if (lo < 0 || node->bytes_stored() < nodes_[std::size_t(lo)]->bytes_stored()) {
        lo = node->id();
      }
    }
    if (hi < 0 || lo < 0 || hi == lo) break;
    const double hi_bytes = double(nodes_[std::size_t(hi)]->bytes_stored());
    const double lo_bytes =
        std::max(double(nodes_[std::size_t(lo)]->bytes_stored()),
                 double(config_.block_size));
    if (hi_bytes / lo_bytes <= threshold) break;

    // Move one block from hi to lo (one the target doesn't already hold).
    bool moved = false;
    for (auto& [block, meta] : block_map_) {
      auto it = std::find(meta.replicas.begin(), meta.replicas.end(), hi);
      if (it == meta.replicas.end()) continue;
      if (std::find(meta.replicas.begin(), meta.replicas.end(), lo) !=
          meta.replicas.end()) {
        continue;
      }
      auto data = nodes_[std::size_t(hi)]->ReadBlock(block);
      if (!data.ok()) continue;
      if (!nodes_[std::size_t(lo)]->StoreBlock(block, std::move(*data)).ok()) {
        continue;
      }
      (void)nodes_[std::size_t(hi)]->DeleteBlock(block);
      *it = lo;
      ++moves;
      c_balance_moves_->Increment();
      moved = true;
      break;
    }
    if (!moved) break;  // nothing movable between this pair
  }
  return moves;
}

int Cluster::UnderReplicatedBlocks() const {
  MutexLock lock(mu_);
  int count = 0;
  for (const auto& [block, meta] : block_map_) {
    int live = 0;
    for (const int id : meta.replicas) {
      if (nodes_[std::size_t(id)]->alive() &&
          nodes_[std::size_t(id)]->HasBlock(block)) {
        ++live;
      }
    }
    if (live < config_.replication) ++count;
  }
  return count;
}

}  // namespace metro::dfs
