#include "store/version.h"

#include <algorithm>

#include "store/block_cache.h"

namespace metro::store {

std::size_t Version::LevelBytes(int level) const {
  std::size_t bytes = 0;
  for (const auto& table : levels[std::size_t(level)]) {
    bytes += table->size_bytes();
  }
  return bytes;
}

// ---------------------------------------------------------------- sources

/// One ordered stream of (key, value-or-tombstone). `rank` breaks per-key
/// ties: smaller rank = newer data wins.
struct LsmIterator::Source {
  explicit Source(int source_rank) : rank(source_rank) {}
  virtual ~Source() = default;
  virtual bool Valid() const = 0;
  virtual std::string_view key() const = 0;
  virtual bool tombstone() const = 0;
  virtual std::string_view value() const = 0;
  virtual void Next() = 0;

  const int rank;
};

namespace {

bool BeforeEnd(std::string_view key, const std::string& end) {
  return end.empty() || key < end;
}

// Sources own their `end` bound: the iterator that created them is movable,
// so a reference into it would dangle.

class MemSource final : public LsmIterator::Source {
 public:
  MemSource(int rank, const MemTable& mem, std::string_view begin,
            std::string end, std::uint64_t snapshot)
      : Source(rank),
        end_(std::move(end)),
        iter_(mem.NewIterator(begin, snapshot)) {}

  bool Valid() const override {
    return iter_.Valid() && BeforeEnd(iter_.key(), end_);
  }
  std::string_view key() const override { return iter_.key(); }
  bool tombstone() const override { return iter_.is_tombstone(); }
  std::string_view value() const override { return iter_.value(); }
  void Next() override { iter_.Next(); }

 private:
  std::string end_;
  MemTable::Iterator iter_;
};

/// Streams one table's entries block by block, through the cache.
class TableSource final : public LsmIterator::Source {
 public:
  TableSource(int rank, std::shared_ptr<const SsTable> table,
              std::string_view begin, std::string end, BlockCache* cache)
      : Source(rank),
        table_(std::move(table)),
        end_(std::move(end)),
        cache_(cache) {
    const int block = table_->FindBlock(begin);
    if (block < 0) return;
    block_index_ = std::size_t(block);
    LoadBlock();
    const auto& entries = block_->entries;
    entry_index_ = std::size_t(
        std::lower_bound(entries.begin(), entries.end(), begin,
                         [](const auto& entry, std::string_view k) {
                           return entry.first < k;
                         }) -
        entries.begin());
    // FindBlock guarantees last_key >= begin, so the position is in-block.
  }

  bool Valid() const override {
    return block_ != nullptr && BeforeEnd(key(), end_);
  }
  std::string_view key() const override {
    return block_->entries[entry_index_].first;
  }
  bool tombstone() const override {
    return !block_->entries[entry_index_].second;
  }
  std::string_view value() const override {
    return *block_->entries[entry_index_].second;
  }
  void Next() override {
    if (++entry_index_ < block_->entries.size()) return;
    ++block_index_;
    if (block_index_ >= table_->block_count()) {
      block_ = nullptr;
      return;
    }
    LoadBlock();
    entry_index_ = 0;
  }

 private:
  void LoadBlock() { block_ = table_->ReadBlock(block_index_, cache_); }

  std::shared_ptr<const SsTable> table_;
  std::string end_;
  BlockCache* cache_;
  std::shared_ptr<const DecodedBlock> block_;
  std::size_t block_index_ = 0;
  std::size_t entry_index_ = 0;
};

/// Concatenation over one deeper level's disjoint, sorted tables: at most
/// one table is open at a time.
class LevelSource final : public LsmIterator::Source {
 public:
  LevelSource(int rank, std::vector<std::shared_ptr<const SsTable>> tables,
              std::string_view begin, std::string end, BlockCache* cache)
      : Source(rank),
        tables_(std::move(tables)),
        end_(std::move(end)),
        cache_(cache) {
    // Skip tables that end before the range begins.
    while (table_index_ < tables_.size() &&
           tables_[table_index_]->max_key() < begin) {
      ++table_index_;
    }
    OpenCurrent(begin);
  }

  bool Valid() const override { return current_ && current_->Valid(); }
  std::string_view key() const override { return current_->key(); }
  bool tombstone() const override { return current_->tombstone(); }
  std::string_view value() const override { return current_->value(); }
  void Next() override {
    current_->Next();
    while (current_ && !current_->Valid()) {
      ++table_index_;
      OpenCurrent({});
    }
  }

 private:
  void OpenCurrent(std::string_view begin) {
    if (table_index_ >= tables_.size() ||
        !BeforeEnd(tables_[table_index_]->min_key(), end_)) {
      current_.reset();
      return;
    }
    current_.emplace(rank, tables_[table_index_], begin, end_, cache_);
  }

  std::vector<std::shared_ptr<const SsTable>> tables_;
  std::string end_;
  BlockCache* cache_;
  std::size_t table_index_ = 0;
  std::optional<TableSource> current_;
};

}  // namespace

// ---------------------------------------------------------------- iterator

LsmIterator::LsmIterator() = default;
LsmIterator::LsmIterator(LsmIterator&&) noexcept = default;
LsmIterator& LsmIterator::operator=(LsmIterator&&) noexcept = default;
LsmIterator::~LsmIterator() = default;

LsmIterator::LsmIterator(ReadView view, std::string_view begin,
                         std::string_view end,
                         std::shared_ptr<BlockCache> cache)
    : view_(std::move(view)), cache_(std::move(cache)), end_(end) {
  BlockCache* raw_cache = cache_.get();
  int rank = 0;
  if (view_.mem) {
    sources_.push_back(
        std::make_unique<MemSource>(rank++, *view_.mem, begin, end_, view_.seq));
  }
  if (view_.imm) {
    sources_.push_back(
        std::make_unique<MemSource>(rank++, *view_.imm, begin, end_, view_.seq));
  }
  if (view_.version) {
    for (const auto& table : view_.version->levels[0]) {  // newest first
      sources_.push_back(std::make_unique<TableSource>(rank++, table, begin,
                                                       end_, raw_cache));
    }
    for (int level = 1; level < Version::kNumLevels; ++level) {
      const auto& tables = view_.version->levels[std::size_t(level)];
      if (tables.empty()) continue;
      sources_.push_back(std::make_unique<LevelSource>(rank++, tables, begin,
                                                       end_, raw_cache));
    }
  }
  FindNextLive(/*advancing=*/false);
}

void LsmIterator::FindNextLive(bool advancing) {
  for (;;) {
    if (advancing) {
      // key_ was consumed (emitted or tombstoned): step every source
      // positioned at it, shadowed duplicates included.
      for (auto& source : sources_) {
        while (source->Valid() && source->key() == key_) source->Next();
      }
    }
    Source* best = nullptr;
    for (auto& source : sources_) {
      if (!source->Valid()) continue;
      if (best == nullptr || source->key() < best->key() ||
          (source->key() == best->key() && source->rank < best->rank)) {
        best = source.get();
      }
    }
    if (best == nullptr) {
      valid_ = false;
      return;
    }
    key_.assign(best->key());
    if (best->tombstone()) {
      advancing = true;  // shadowed key: skip it in every source
      continue;
    }
    value_.assign(best->value());
    valid_ = true;
    return;
  }
}

void LsmIterator::Next() { FindNextLive(/*advancing=*/true); }

}  // namespace metro::store
