#pragma once

// Immutable version set + snapshot iterator for the LSM engine.
//
// A `Version` is the engine's table layout at one instant: tiered,
// overlapping level-0 runs (newest first) over non-overlapping, key-fenced
// levels 1+. Versions are immutable and refcounted: the writer builds a new
// one (copy + edit) and swaps it in under the brief version mutex, while
// readers pin `ReadView{mem, imm, version, seq}` and then read entirely
// lock-free — flush and compaction never invalidate a pinned view, they
// just stop being the current one.
//
// `LsmIterator` is the consistent-read merge over one pinned view: the
// mutable memtable at the pinned sequence, the immutable memtable (when a
// flush is in flight), each L0 table, and one concatenation source per
// deeper level. Newer sources shadow older ones per key; tombstones are
// resolved away. The iterator owns shared_ptrs to everything it reads, so
// it stays valid across — and consistent through — any amount of concurrent
// ingest, flushing, compaction, even engine destruction.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/memtable.h"
#include "store/sstable.h"

namespace metro::store {

class BlockCache;

/// One immutable table layout.
struct Version {
  static constexpr int kNumLevels = 7;

  /// levels[0]: newest first, ranges may overlap. levels[1+]: ascending
  /// min_key, ranges disjoint.
  std::array<std::vector<std::shared_ptr<const SsTable>>, kNumLevels> levels;

  std::size_t LevelBytes(int level) const;
};

/// A pinned, immutable read snapshot.
struct ReadView {
  std::shared_ptr<const MemTable> mem;
  std::shared_ptr<const MemTable> imm;  ///< null unless a flush is in flight
  std::shared_ptr<const Version> version;
  std::uint64_t seq = 0;
};

/// Streaming merge over a pinned view, range [begin, end) (end empty =
/// unbounded), tombstones resolved. Movable, not copyable.
class LsmIterator {
 public:
  LsmIterator();  ///< invalid iterator
  LsmIterator(ReadView view, std::string_view begin, std::string_view end,
              std::shared_ptr<BlockCache> cache);
  LsmIterator(LsmIterator&&) noexcept;
  LsmIterator& operator=(LsmIterator&&) noexcept;
  ~LsmIterator();

  bool Valid() const { return valid_; }
  const std::string& key() const { return key_; }
  const std::string& value() const { return value_; }
  void Next();

  struct Source;  ///< implementation detail, public only for subclassing

 private:
  void FindNextLive(bool advancing);

  ReadView view_;
  std::shared_ptr<BlockCache> cache_;
  std::string end_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::string key_, value_;
  bool valid_ = false;
};

}  // namespace metro::store
