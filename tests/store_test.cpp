// Tests for the storage engines: LSM core (WAL recovery, compaction),
// the wide-column table (regions, splits), and the document store
// (indexes, geo queries).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "store/block_cache.h"
#include "store/document_store.h"
#include "store/lsm.h"
#include "store/wide_column.h"

namespace metro::store {
namespace {

// ---------------------------------------------------------------- LSM

TEST(LsmTest, PutGetDelete) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("k1", "v1").ok());
  EXPECT_EQ(lsm.Get("k1").value(), "v1");
  ASSERT_TRUE(lsm.Put("k1", "v2").ok());
  EXPECT_EQ(lsm.Get("k1").value(), "v2");
  ASSERT_TRUE(lsm.Delete("k1").ok());
  EXPECT_EQ(lsm.Get("k1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(lsm.Get("never").status().code(), StatusCode::kNotFound);
}

TEST(LsmTest, EmptyKeyRejected) {
  LsmEngine lsm;
  EXPECT_EQ(lsm.Put("", "v").code(), StatusCode::kInvalidArgument);
}

TEST(LsmTest, GetAfterFlushReadsSsTable) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("a", "1").ok());
  ASSERT_TRUE(lsm.Put("b", "2").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  EXPECT_EQ(lsm.Stats().memtable_entries, 0u);
  EXPECT_EQ(lsm.Stats().num_sstables, 1u);
  EXPECT_EQ(lsm.Get("a").value(), "1");
  EXPECT_EQ(lsm.Get("b").value(), "2");
}

TEST(LsmTest, MemtableShadowsSsTable) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("k", "old").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.Put("k", "new").ok());
  EXPECT_EQ(lsm.Get("k").value(), "new");
}

TEST(LsmTest, NewerSsTableShadowsOlder) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("k", "v1").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.Put("k", "v2").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  EXPECT_EQ(lsm.Get("k").value(), "v2");
}

TEST(LsmTest, TombstoneSurvivesFlush) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("k", "v").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.Delete("k").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  EXPECT_EQ(lsm.Get("k").status().code(), StatusCode::kNotFound);
}

TEST(LsmTest, ScanMergesAndOrders) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("c", "3").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.Put("a", "1").ok());
  ASSERT_TRUE(lsm.Put("b", "2").ok());
  ASSERT_TRUE(lsm.Put("d", "4").ok());
  ASSERT_TRUE(lsm.Delete("d").ok());
  const auto rows = lsm.Scan("", "");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[2].first, "c");
}

TEST(LsmTest, ScanRangeAndLimit) {
  LsmEngine lsm;
  for (const char c : {'a', 'b', 'c', 'd', 'e'}) {
    ASSERT_TRUE(lsm.Put(std::string(1, c), "v").ok());
  }
  const auto rows = lsm.Scan("b", "e");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "b");
  EXPECT_EQ(rows[2].first, "d");
  EXPECT_EQ(lsm.Scan("", "", 2).size(), 2u);
}

TEST(LsmTest, AutoFlushAndCompactionTriggers) {
  LsmConfig config;
  config.memtable_limit_bytes = 512;
  config.compaction_trigger = 3;
  LsmEngine lsm(config);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(lsm.Put("key" + std::to_string(i), std::string(40, 'x')).ok());
  }
  const auto stats = lsm.Stats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.compactions, 0u);
  // Leveled invariant: compaction keeps L0 below its trigger.
  ASSERT_FALSE(stats.level_tables.empty());
  EXPECT_LT(stats.level_tables[0], 3u);
  // All data still visible.
  EXPECT_EQ(lsm.Scan("", "").size(), 200u);
}

TEST(LsmTest, CompactionDropsTombstones) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("a", "1").ok());
  ASSERT_TRUE(lsm.Put("b", "2").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.Delete("a").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.CompactAll().ok());
  const auto stats = lsm.Stats();
  EXPECT_EQ(stats.num_sstables, 1u);
  EXPECT_EQ(stats.sstable_entries, 1u);  // only "b"; tombstone gone
}

TEST(LsmTest, WalRecoveryRebuildsState) {
  LsmEngine original;
  ASSERT_TRUE(original.Put("a", "1").ok());
  ASSERT_TRUE(original.Put("b", "2").ok());
  ASSERT_TRUE(original.Delete("a").ok());
  ASSERT_TRUE(original.Put("c", "3").ok());

  LsmEngine recovered;
  const auto applied = recovered.RecoverFromWal(original.Wal());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 4);
  EXPECT_EQ(recovered.Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(recovered.Get("b").value(), "2");
  EXPECT_EQ(recovered.Get("c").value(), "3");
}

TEST(LsmTest, WalRecoveryToleratesTruncatedTail) {
  LsmEngine original;
  ASSERT_TRUE(original.Put("a", "1").ok());
  ASSERT_TRUE(original.Put("b", "2").ok());
  const std::string wal = original.Wal();
  // Chop the last few bytes (torn write at crash).
  const std::string torn = wal.substr(0, wal.size() - 3);
  LsmEngine recovered;
  const auto applied = recovered.RecoverFromWal(torn);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1);  // only the intact first record
  EXPECT_EQ(recovered.Get("a").value(), "1");
  EXPECT_FALSE(recovered.Get("b").ok());
}

TEST(LsmTest, WalRecoveryStopsAtCorruptRecord) {
  LsmEngine original;
  ASSERT_TRUE(original.Put("a", "1").ok());
  ASSERT_TRUE(original.Put("b", "2").ok());
  std::string wal = original.Wal();
  wal[wal.size() / 2 + 3] ^= 0x40;  // flip a bit in the second record
  LsmEngine recovered;
  const auto applied = recovered.RecoverFromWal(wal);
  ASSERT_TRUE(applied.ok());
  EXPECT_LE(*applied, 1);
}

TEST(LsmTest, KeyRangeAndApproxEntries) {
  LsmEngine lsm;
  ASSERT_TRUE(lsm.Put("m", "1").ok());
  ASSERT_TRUE(lsm.Put("a", "2").ok());
  ASSERT_TRUE(lsm.Put("z", "3").ok());
  const auto [lo, hi] = lsm.KeyRange();
  EXPECT_EQ(lo, "a");
  EXPECT_EQ(hi, "z");
  EXPECT_EQ(lsm.ApproxEntries(), 3u);
}

// ---------------------------------------------------------------- WideColumn

TEST(WideColumnTest, PutGetRow) {
  WideColumnTable table("crimes");
  ASSERT_TRUE(table.Put("row1", "offense", "robbery").ok());
  ASSERT_TRUE(table.Put("row1", "district", "5").ok());
  EXPECT_EQ(table.Get("row1", "offense").value(), "robbery");
  const auto row = table.GetRow("row1");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row.at("district"), "5");
  EXPECT_TRUE(table.GetRow("missing").empty());
}

TEST(WideColumnTest, RowKeyValidation) {
  WideColumnTable table("t");
  EXPECT_EQ(table.Put("", "c", "v").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Put(std::string{'a', '\x01', 'b'}, "c", "v").code(),
            StatusCode::kInvalidArgument);
}

TEST(WideColumnTest, DeleteCellAndRow) {
  WideColumnTable table("t");
  ASSERT_TRUE(table.Put("r", "a", "1").ok());
  ASSERT_TRUE(table.Put("r", "b", "2").ok());
  ASSERT_TRUE(table.DeleteCell("r", "a").ok());
  EXPECT_FALSE(table.Get("r", "a").ok());
  EXPECT_TRUE(table.Get("r", "b").ok());
  EXPECT_EQ(table.DeleteRow("r"), 1u);
  EXPECT_TRUE(table.GetRow("r").empty());
}

TEST(WideColumnTest, ScanOrderedByRowThenColumn) {
  WideColumnTable table("t");
  ASSERT_TRUE(table.Put("r2", "a", "3").ok());
  ASSERT_TRUE(table.Put("r1", "b", "2").ok());
  ASSERT_TRUE(table.Put("r1", "a", "1").ok());
  const auto cells = table.Scan("", "");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].row, "r1");
  EXPECT_EQ(cells[0].column, "a");
  EXPECT_EQ(cells[1].column, "b");
  EXPECT_EQ(cells[2].row, "r2");
}

TEST(WideColumnTest, ScanRowRange) {
  WideColumnTable table("t");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Put("row" + std::to_string(i), "c", std::to_string(i)).ok());
  }
  const auto cells = table.Scan("row3", "row6");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells.front().row, "row3");
  EXPECT_EQ(cells.back().row, "row5");
}

TEST(WideColumnTest, RegionSplitKeepsDataAndOrder) {
  WideColumnConfig config;
  config.region_split_threshold = 100;
  WideColumnTable table("t", config);
  for (int i = 0; i < 500; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "row%04d", i);
    ASSERT_TRUE(table.Put(key, "c", std::to_string(i)).ok());
  }
  EXPECT_EQ(table.num_regions(), 1);
  const int splits = table.MaybeSplitRegions();
  EXPECT_GE(splits, 1);
  EXPECT_GT(table.num_regions(), 1);

  // Every row still readable, scan still globally ordered.
  EXPECT_EQ(table.Get("row0000", "c").value(), "0");
  EXPECT_EQ(table.Get("row0499", "c").value(), "499");
  const auto cells = table.Scan("", "");
  ASSERT_EQ(cells.size(), 500u);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    EXPECT_LT(cells[i - 1].row, cells[i].row);
  }
  EXPECT_EQ(table.ApproxCells(), 500u);
}

TEST(WideColumnTest, WritesAfterSplitRouteCorrectly) {
  WideColumnConfig config;
  config.region_split_threshold = 50;
  WideColumnTable table("t", config);
  for (int i = 0; i < 200; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "k%04d", i);
    ASSERT_TRUE(table.Put(key, "c", "x").ok());
  }
  table.MaybeSplitRegions();
  ASSERT_GT(table.num_regions(), 1);
  ASSERT_TRUE(table.Put("k0000", "c", "updated").ok());
  ASSERT_TRUE(table.Put("k0199", "c", "updated").ok());
  ASSERT_TRUE(table.Put("zzz", "c", "new").ok());
  EXPECT_EQ(table.Get("k0000", "c").value(), "updated");
  EXPECT_EQ(table.Get("k0199", "c").value(), "updated");
  EXPECT_EQ(table.Get("zzz", "c").value(), "new");
}

// ---------------------------------------------------------------- DocumentStore

Document MakeDoc(std::int64_t id, const std::string& kind, double lat,
                 double lon) {
  Document doc;
  doc["id"] = id;
  doc["kind"] = kind;
  doc["lat"] = lat;
  doc["lon"] = lon;
  return doc;
}

TEST(DocumentStoreTest, InsertFindById) {
  Collection coll("c");
  const DocId id = coll.Insert(MakeDoc(1, "crime", 30.0, -91.0));
  const auto doc = coll.FindById(id);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(std::get<std::string>(doc->at("kind")), "crime");
  EXPECT_FALSE(coll.FindById(999).ok());
}

TEST(DocumentStoreTest, UpdateAndRemove) {
  Collection coll("c");
  const DocId id = coll.Insert(MakeDoc(1, "crime", 30.0, -91.0));
  ASSERT_TRUE(coll.Update(id, MakeDoc(1, "traffic", 30.0, -91.0)).ok());
  EXPECT_EQ(std::get<std::string>(coll.FindById(id)->at("kind")), "traffic");
  ASSERT_TRUE(coll.Remove(id).ok());
  EXPECT_FALSE(coll.FindById(id).ok());
  EXPECT_EQ(coll.Remove(id).code(), StatusCode::kNotFound);
}

TEST(DocumentStoreTest, EqualityQueryWithAndWithoutIndex) {
  Collection coll("c");
  for (int i = 0; i < 20; ++i) {
    coll.Insert(MakeDoc(i, i % 2 == 0 ? "crime" : "traffic", 30.0, -91.0));
  }
  Query q;
  q.conditions.push_back({"kind", Condition::Op::kEquals, std::string("crime")});
  EXPECT_EQ(coll.Find(q).size(), 10u);  // full scan path
  ASSERT_TRUE(coll.CreateIndex("kind").ok());
  EXPECT_EQ(coll.Find(q).size(), 10u);  // indexed path
}

TEST(DocumentStoreTest, IndexTracksUpdates) {
  Collection coll("c");
  ASSERT_TRUE(coll.CreateIndex("kind").ok());
  const DocId id = coll.Insert(MakeDoc(1, "crime", 30.0, -91.0));
  ASSERT_TRUE(coll.Update(id, MakeDoc(1, "traffic", 30.0, -91.0)).ok());
  Query crime;
  crime.conditions.push_back(
      {"kind", Condition::Op::kEquals, std::string("crime")});
  EXPECT_TRUE(coll.Find(crime).empty());
  Query traffic;
  traffic.conditions.push_back(
      {"kind", Condition::Op::kEquals, std::string("traffic")});
  EXPECT_EQ(coll.Find(traffic).size(), 1u);
}

TEST(DocumentStoreTest, RangeQuery) {
  Collection coll("c");
  for (int i = 0; i < 10; ++i) {
    Document doc;
    doc["ts"] = std::int64_t(i * 100);
    coll.Insert(std::move(doc));
  }
  Query q;
  Condition c;
  c.field = "ts";
  c.op = Condition::Op::kRangeNumeric;
  c.lo = 250;
  c.hi = 650;
  q.conditions.push_back(c);
  EXPECT_EQ(coll.Find(q).size(), 4u);  // 300, 400, 500, 600
}

TEST(DocumentStoreTest, GeoRadiusQuery) {
  Collection coll("c");
  // One doc at center, one ~1.1 km east, one far away.
  coll.Insert(MakeDoc(1, "a", 30.4515, -91.1871));
  coll.Insert(MakeDoc(2, "b", 30.4515, -91.1757));  // ~1.1 km
  coll.Insert(MakeDoc(3, "c", 30.6, -91.0));        // tens of km
  ASSERT_TRUE(coll.CreateGeoIndex("lat", "lon").ok());
  Query q;
  q.near_center = geo::LatLon{30.4515, -91.1871};
  q.near_radius_m = 2000;
  const auto ids = coll.Find(q);
  EXPECT_EQ(ids.size(), 2u);
  q.near_radius_m = 500;
  EXPECT_EQ(coll.Find(q).size(), 1u);
}

TEST(DocumentStoreTest, CombinedGeoAndEqualityQuery) {
  Collection coll("c");
  coll.Insert(MakeDoc(1, "crime", 30.4515, -91.1871));
  coll.Insert(MakeDoc(2, "traffic", 30.4515, -91.1871));
  ASSERT_TRUE(coll.CreateGeoIndex("lat", "lon").ok());
  Query q;
  q.near_center = geo::LatLon{30.4515, -91.1871};
  q.near_radius_m = 1000;
  q.conditions.push_back({"kind", Condition::Op::kEquals, std::string("crime")});
  EXPECT_EQ(coll.Find(q).size(), 1u);
}

TEST(DocumentStoreTest, TypeTaggedIndexKeys) {
  Collection coll("c");
  ASSERT_TRUE(coll.CreateIndex("v").ok());
  Document a;
  a["v"] = std::int64_t(1);
  Document b;
  b["v"] = std::string("1");
  coll.Insert(std::move(a));
  coll.Insert(std::move(b));
  Query q;
  q.conditions.push_back({"v", Condition::Op::kEquals, std::int64_t(1)});
  EXPECT_EQ(coll.Find(q).size(), 1u);
}

TEST(DocumentStoreTest, ToJsonEscapesAndTypes) {
  Document doc;
  doc["s"] = std::string("he said \"hi\"\n");
  doc["i"] = std::int64_t(42);
  doc["b"] = true;
  const std::string json = ToJson(doc);
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(json.find("\"i\":42"), std::string::npos);
  EXPECT_NE(json.find("\"b\":true"), std::string::npos);
}

TEST(DocumentStoreTest, AsNumberConversions) {
  EXPECT_EQ(AsNumber(Value(std::int64_t(3))).value(), 3.0);
  EXPECT_EQ(AsNumber(Value(2.5)).value(), 2.5);
  EXPECT_EQ(AsNumber(Value(true)).value(), 1.0);
  EXPECT_FALSE(AsNumber(Value(std::string("x"))).has_value());
}

// ------------------------------------------------ versioned-engine paths

TEST(LsmTest, LimitWithShadowedTombstones) {
  // Contract: `limit` counts *live* entries. Tombstones shadowing flushed
  // data must be resolved away by the streaming merge, not eat the budget.
  LsmEngine lsm;
  for (const char c : {'a', 'b', 'c', 'd', 'e'}) {
    ASSERT_TRUE(lsm.Put(std::string(1, c), "v").ok());
  }
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.Delete("b").ok());
  ASSERT_TRUE(lsm.Delete("c").ok());
  const auto rows = lsm.Scan("", "", 3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[1].first, "d");
  EXPECT_EQ(rows[2].first, "e");
}

TEST(LsmTest, SnapshotIteratorUnmovedByLaterWritesAndCompaction) {
  LsmConfig config;
  config.memtable_limit_bytes = 512;
  LsmEngine lsm(config);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lsm.Put("key" + std::to_string(1000 + i), "old").ok());
  }
  auto it = lsm.NewIterator("", "");
  // Everything after this pin — overwrites, new keys, deletes, flushes,
  // compaction — must be invisible to the snapshot.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lsm.Put("key" + std::to_string(1000 + i), "new").ok());
  }
  for (int i = 50; i < 100; ++i) {
    ASSERT_TRUE(lsm.Put("key" + std::to_string(1000 + i), "x").ok());
  }
  ASSERT_TRUE(lsm.Delete("key1000").ok());
  ASSERT_TRUE(lsm.Flush().ok());
  ASSERT_TRUE(lsm.CompactAll().ok());
  int seen = 0;
  for (; it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), "key" + std::to_string(1000 + seen));
    EXPECT_EQ(it.value(), "old");
    ++seen;
  }
  EXPECT_EQ(seen, 50);
}

TEST(LsmTest, BloomAndFenceSkipCounters) {
  LsmEngine lsm;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lsm.Put("a" + std::to_string(100 + i), "v").ok());
  }
  ASSERT_TRUE(lsm.Flush().ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lsm.Put("z" + std::to_string(100 + i), "v").ok());
  }
  ASSERT_TRUE(lsm.Flush().ok());
  // Point reads in the "a" table must fence-skip the "z" table (probed
  // first: L0 is newest-first).
  EXPECT_EQ(lsm.Get("a100").value(), "v");
  EXPECT_GT(lsm.Stats().fence_skips, 0u);
  // Absent keys *inside* the fences ("a100q" sorts between "a100" and
  // "a101") are rejected by the bloom filter with overwhelming probability
  // across 49 probes.
  for (int i = 0; i < 49; ++i) {
    EXPECT_FALSE(lsm.Get("a" + std::to_string(100 + i) + "q").ok());
  }
  EXPECT_GT(lsm.Stats().bloom_skips, 0u);
}

TEST(LsmTest, BlockCacheCountsHitsMissesEvictions) {
  BlockCache::Config cache_config;
  cache_config.capacity_bytes = 4 * 1024;  // deliberately tiny
  cache_config.shards = 2;
  auto cache = std::make_shared<BlockCache>(cache_config);
  LsmConfig config;
  config.block_cache = cache;
  config.block_size_bytes = 512;
  LsmEngine lsm(config);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        lsm.Put("key" + std::to_string(1000 + i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(lsm.Flush().ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 199; i += 7) {
      // Adjacent keys share a block, so the second Get hits the block the
      // first one just cached.
      ASSERT_TRUE(lsm.Get("key" + std::to_string(1000 + i)).ok());
      ASSERT_TRUE(lsm.Get("key" + std::to_string(1001 + i)).ok());
    }
  }
  const auto stats = cache->GetStats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // 100+ blocks through a 4KB cache
  EXPECT_LE(stats.charge_bytes, 2 * cache_config.capacity_bytes);
}

TEST(LsmTest, KeyRangeAndApproxEntriesFromTableMetadata) {
  LsmConfig config;
  config.memtable_limit_bytes = 512;
  LsmEngine lsm(config);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        lsm.Put("key" + std::to_string(100 + i), std::string(32, 'v')).ok());
  }
  ASSERT_TRUE(lsm.Flush().ok());  // everything lives in tables now
  const auto [lo, hi] = lsm.KeyRange();
  EXPECT_EQ(lo, "key100");
  EXPECT_EQ(hi, "key199");
  EXPECT_EQ(lsm.ApproxEntries(), 100u);
  ASSERT_TRUE(lsm.Delete("key150").ok());
  EXPECT_EQ(lsm.ApproxEntries(), 99u);
}

TEST(LsmTest, RecoveryAppendsWalVerbatimAndDefersFlush) {
  LsmConfig config;
  config.memtable_limit_bytes = 256;  // force many seals while writing
  LsmEngine source(config);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        source.Put("key" + std::to_string(100 + i), std::string(16, 'v')).ok());
  }
  ASSERT_GT(source.Stats().seals, 1u);
  const std::string wal = source.Wal();

  LsmEngine restored(config);
  const auto applied = restored.RecoverFromWal(wal);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 60);
  // Verbatim: the verified bytes are appended as-is, never re-encoded.
  EXPECT_EQ(restored.Wal(), wal);
  // Deferred: one seal at the end of replay, not one per 256 bytes.
  EXPECT_LE(restored.Stats().seals, 1u);
  EXPECT_EQ(restored.Get("key159").value(), std::string(16, 'v'));
}

TEST(LsmTest, RecoveryOfTruncatedTailKeepsVerifiedPrefixBytes) {
  LsmEngine source;
  ASSERT_TRUE(source.Put("a", "1").ok());
  const std::string one_record = source.Wal();
  ASSERT_TRUE(source.Put("b", "2").ok());
  const std::string wal = source.Wal();

  LsmEngine restored;
  const auto applied =
      restored.RecoverFromWal(std::string_view(wal).substr(0, wal.size() - 3));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1);
  // Only the whole verified record survives in the new engine's log.
  EXPECT_EQ(restored.Wal(), one_record);
  EXPECT_EQ(restored.Get("a").value(), "1");
  EXPECT_FALSE(restored.Get("b").ok());
}

TEST(LsmTest, ConcurrentReadersNeverBlockOnIngestOrCompaction) {
  LsmConfig config;
  config.memtable_limit_bytes = 2 * 1024;  // constant flush + compaction
  config.compaction_trigger = 2;
  LsmEngine lsm(config);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        lsm.Put("key" + std::to_string(1000 + i), std::string(24, 'v')).ok());
  }
  std::atomic<bool> stop{false};
  std::jthread writer([&] {
    for (int i = 200; i < 2200 && !stop.load(); ++i) {
      ASSERT_TRUE(
          lsm.Put("key" + std::to_string(1000 + i), std::string(24, 'v')).ok());
      if (i % 7 == 0) {
        ASSERT_TRUE(lsm.Delete("key" + std::to_string(1000 + i / 2)).ok());
      }
    }
    stop.store(true);
  });
  std::vector<std::jthread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t reads = 0;
      while (!stop.load()) {
        // Point reads against the stable prefill plus a full snapshot scan:
        // keys must come back strictly ordered within one pinned iterator.
        const auto got = lsm.Get("key" + std::to_string(1000 + (reads % 100)));
        ASSERT_TRUE(got.ok()) << "stable prefill key missing";
        if (reads % 50 == std::uint64_t(r)) {
          std::string prev;
          for (auto it = lsm.NewIterator("", ""); it.Valid(); it.Next()) {
            ASSERT_LT(prev, it.key());
            prev = it.key();
          }
        }
        ++reads;
      }
      EXPECT_GT(reads, 0u);
    });
  }
  readers.clear();
  writer.join();
  EXPECT_GT(lsm.Stats().compactions, 0u);
}

TEST(WideColumnTest, RegionSplitDuringScanKeepsSnapshotsConsistent) {
  WideColumnConfig config;
  config.region_split_threshold = 64;
  WideColumnTable table("t", config);
  std::atomic<bool> stop{false};
  std::jthread writer([&] {
    char row[16];
    for (int i = 0; i < 600; ++i) {
      std::snprintf(row, sizeof row, "row%04d", i);
      ASSERT_TRUE(table.Put(row, "c", std::to_string(i)).ok());
      if (i % 97 == 0) table.MaybeSplitRegions();
    }
    table.MaybeSplitRegions();
    stop.store(true);
  });
  std::jthread scanner([&] {
    while (!stop.load()) {
      // Any pinned snapshot must yield strictly ascending rows — a split
      // racing the scan may neither duplicate a row (seen in both the old
      // and the new region) nor reorder one.
      std::string prev;
      std::size_t count = 0;
      for (auto it = table.NewIterator("", ""); it.Valid(); it.Next()) {
        ASSERT_LT(prev, it.row());
        prev = it.row();
        ASSERT_EQ(it.value(), std::to_string(std::stoi(it.row().substr(3))));
        ++count;
      }
      ASSERT_LE(count, 600u);
    }
  });
  writer.join();
  scanner.join();
  EXPECT_GT(table.num_regions(), 1);
  EXPECT_EQ(table.ApproxCells(), 600u);
  EXPECT_EQ(table.Scan("", "").size(), 600u);
}

}  // namespace
}  // namespace metro::store
