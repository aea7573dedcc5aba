#include "store/block_cache.h"

#include <algorithm>
#include <bit>

namespace metro::store {

BlockCache::BlockCache(Config config) {
  const std::size_t shards =
      std::bit_ceil(std::clamp<std::size_t>(config.shards, 1, 256));
  shards_ = std::vector<Shard>(shards);
  shard_capacity_ = std::max<std::size_t>(config.capacity_bytes / shards, 1);
}

std::shared_ptr<const DecodedBlock> BlockCache::Lookup(
    std::uint64_t table_id, std::uint32_t block_index) {
  const std::uint64_t key = Key(table_id, block_index);
  Shard& shard = ShardFor(key);
  std::shared_ptr<const DecodedBlock> hit;
  {
    MutexLock lock(shard.cache_mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hit = it->second->block;
    }
  }
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return hit;
}

void BlockCache::Insert(std::uint64_t table_id, std::uint32_t block_index,
                        std::shared_ptr<const DecodedBlock> block) {
  const std::uint64_t key = Key(table_id, block_index);
  Shard& shard = ShardFor(key);
  // Evicted blocks are destroyed after the shard lock drops: freeing a large
  // decoded block should not extend the critical section.
  std::vector<std::shared_ptr<const DecodedBlock>> evicted;
  std::uint64_t evictions = 0;
  {
    MutexLock lock(shard.cache_mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.charge -= it->second->block->charge;
      evicted.push_back(std::move(it->second->block));
      shard.lru.erase(it->second);
      shard.map.erase(it);
    }
    shard.lru.push_front(Entry{key, std::move(block)});
    shard.map[key] = shard.lru.begin();
    shard.charge += shard.lru.front().block->charge;
    while (shard.charge > shard_capacity_ && shard.lru.size() > 1) {
      Entry& victim = shard.lru.back();
      shard.charge -= victim.block->charge;
      shard.map.erase(victim.key);
      evicted.push_back(std::move(victim.block));
      shard.lru.pop_back();
      ++evictions;
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evictions > 0) evictions_.fetch_add(evictions, std::memory_order_relaxed);
}

BlockCache::Stats BlockCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.cache_mu);
    stats.charge_bytes += shard.charge;
    stats.entries += shard.lru.size();
  }
  return stats;
}

}  // namespace metro::store
