#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "pool/disk.h"
#include "storage/btree_index.h"
#include "storage/hash_index.h"
#include "storage/memory_tracker.h"
#include "storage/relation.h"
#include "storage/stable_store.h"

namespace prisma::storage {
namespace {

Schema EmpSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"salary", DataType::kDouble}});
}

Tuple Emp(int64_t id, const std::string& name, double salary) {
  return Tuple({Value::Int(id), Value::String(name), Value::Double(salary)});
}

// ---------------------------------------------------------- MemoryTracker

TEST(MemoryTrackerTest, ReserveAndRelease) {
  MemoryTracker t(1000);
  EXPECT_TRUE(t.Reserve(600).ok());
  EXPECT_EQ(t.used(), 600u);
  EXPECT_EQ(t.available(), 400u);
  EXPECT_TRUE(t.Reserve(400).ok());
  Status s = t.Reserve(1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  t.Release(500);
  EXPECT_TRUE(t.Reserve(100).ok());
  EXPECT_EQ(t.high_water(), 1000u);
}

TEST(MemoryTrackerTest, FailedReserveHasNoEffect) {
  MemoryTracker t(100);
  EXPECT_FALSE(t.Reserve(101).ok());
  EXPECT_EQ(t.used(), 0u);
}

TEST(MemoryTrackerTest, DefaultCapacityIsSixteenMegabytes) {
  MemoryTracker t;
  EXPECT_EQ(t.capacity(), 16u * 1024 * 1024);  // Paper §3.2.
}

// ---------------------------------------------------------------- Relation

TEST(RelationTest, InsertGetScan) {
  Relation r("emp", EmpSchema());
  auto id0 = r.Insert(Emp(1, "ann", 100.0));
  auto id1 = r.Insert(Emp(2, "bob", 200.0));
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(r.num_tuples(), 2u);
  EXPECT_EQ(r.Get(*id0)->at(1), Value::String("ann"));

  std::vector<Tuple> seen;
  r.Scan([&](RowId, const Tuple& t) {
    seen.push_back(t);
    return true;
  });
  EXPECT_EQ(seen.size(), 2u);
}

TEST(RelationTest, InsertValidatesArityAndTypes) {
  Relation r("emp", EmpSchema());
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})).ok());
  EXPECT_FALSE(
      r.Insert(Tuple({Value::String("x"), Value::String("y"), Value::Int(1)}))
          .ok());
  // INT widens to DOUBLE in the salary column.
  auto id = r.Insert(Tuple({Value::Int(1), Value::String("a"), Value::Int(5)}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(r.Get(*id)->at(2).type(), DataType::kDouble);
  // NULLs are accepted in any column.
  EXPECT_TRUE(
      r.Insert(Tuple({Value::Null(), Value::Null(), Value::Null()})).ok());
}

TEST(RelationTest, DeleteAndUpdate) {
  Relation r("emp", EmpSchema());
  RowId a = r.Insert(Emp(1, "ann", 100.0)).value();
  RowId b = r.Insert(Emp(2, "bob", 200.0)).value();
  EXPECT_TRUE(r.Delete(a).ok());
  EXPECT_EQ(r.num_tuples(), 1u);
  EXPECT_FALSE(r.IsLive(a));
  EXPECT_EQ(r.Delete(a).code(), StatusCode::kNotFound);
  EXPECT_FALSE(r.Get(a).ok());

  EXPECT_TRUE(r.Update(b, Emp(2, "bob", 250.0)).ok());
  EXPECT_DOUBLE_EQ(r.Get(b)->at(2).double_value(), 250.0);
  EXPECT_EQ(r.Update(a, Emp(9, "x", 1.0)).code(), StatusCode::kNotFound);
}

TEST(RelationTest, MemoryAccounting) {
  MemoryTracker mem(10'000);
  {
    Relation r("emp", EmpSchema(), &mem);
    RowId a = r.Insert(Emp(1, "ann", 100.0)).value();
    EXPECT_GT(mem.used(), 0u);
    const size_t used_after_one = mem.used();
    r.Insert(Emp(2, "bob", 200.0)).value();
    EXPECT_GT(mem.used(), used_after_one);
    EXPECT_TRUE(r.Delete(a).ok());
    EXPECT_LT(mem.used(), used_after_one + used_after_one);
  }
  // Destructor releases everything.
  EXPECT_EQ(mem.used(), 0u);
}

TEST(RelationTest, InsertFailsWhenPeMemoryExhausted) {
  MemoryTracker mem(200);
  Relation r("emp", EmpSchema(), &mem);
  Status last;
  int inserted = 0;
  for (int i = 0; i < 100; ++i) {
    auto s = r.Insert(Emp(i, "somebody", 1.0));
    if (!s.ok()) {
      last = s.status();
      break;
    }
    ++inserted;
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(inserted, 0);
  EXPECT_EQ(r.num_tuples(), static_cast<size_t>(inserted));
}

TEST(RelationTest, CompactReclaimsSlots) {
  Relation r("emp", EmpSchema());
  for (int i = 0; i < 10; ++i) r.Insert(Emp(i, "x", 1.0)).value();
  for (RowId i = 0; i < 10; i += 2) EXPECT_TRUE(r.Delete(i).ok());
  EXPECT_EQ(r.num_tuples(), 5u);
  EXPECT_EQ(r.num_slots(), 10u);
  r.Compact();
  EXPECT_EQ(r.num_slots(), 5u);
  EXPECT_EQ(r.num_tuples(), 5u);
  // Survivors are the odd ids.
  auto all = r.AllTuples();
  for (const Tuple& t : all) EXPECT_EQ(t.at(0).int_value() % 2, 1);
}

// ---------------------------------------------------------------- HashIndex

TEST(HashIndexTest, ProbeFindsAllDuplicates) {
  Relation r("emp", EmpSchema());
  HashIndex idx("emp_name", {1});
  for (int i = 0; i < 6; ++i) {
    Tuple t = Emp(i, i % 2 == 0 ? "even" : "odd", 1.0);
    RowId row = r.Insert(t).value();
    idx.OnInsert(row, t);
  }
  auto rows = idx.Probe(Tuple({Value::String("even")}));
  EXPECT_EQ(rows.size(), 3u);
  for (RowId row : rows) {
    EXPECT_EQ(r.Get(row)->at(1), Value::String("even"));
  }
  EXPECT_TRUE(idx.Probe(Tuple({Value::String("nobody")})).empty());
}

TEST(HashIndexTest, DeleteRemovesEntry) {
  HashIndex idx("i", {0});
  Tuple t = Emp(7, "x", 1.0);
  idx.OnInsert(3, t);
  idx.OnInsert(4, Emp(7, "y", 2.0));
  idx.OnDelete(3, t);
  auto rows = idx.Probe(Tuple({Value::Int(7)}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 4u);
  EXPECT_EQ(idx.num_entries(), 1u);
}

TEST(HashIndexTest, CompositeKey) {
  HashIndex idx("i", {0, 1});
  idx.OnInsert(1, Emp(1, "a", 1.0));
  idx.OnInsert(2, Emp(1, "b", 1.0));
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(1), Value::String("a")})).size(), 1u);
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(1), Value::String("b")})).size(), 1u);
  EXPECT_TRUE(idx.Probe(Tuple({Value::Int(2), Value::String("a")})).empty());
}

TEST(HashIndexTest, RebuildMatchesRelation) {
  Relation r("emp", EmpSchema());
  HashIndex idx("i", {0});
  for (int i = 0; i < 20; ++i) r.Insert(Emp(i % 5, "n", 1.0)).value();
  idx.Rebuild(r);
  EXPECT_EQ(idx.num_entries(), 20u);
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(3)})).size(), 4u);
}

// ---------------------------------------------------------------- BTree

TEST(BTreeIndexTest, InsertProbeSmall) {
  BTreeIndex idx("i", {0}, 4);
  for (int i = 0; i < 10; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  EXPECT_TRUE(idx.Validate().ok());
  for (int i = 0; i < 10; ++i) {
    auto rows = idx.Probe(Tuple({Value::Int(i)}));
    ASSERT_EQ(rows.size(), 1u) << i;
    EXPECT_EQ(rows[0], static_cast<RowId>(i));
  }
  EXPECT_TRUE(idx.Probe(Tuple({Value::Int(99)})).empty());
}

TEST(BTreeIndexTest, SplitsGrowHeight) {
  BTreeIndex idx("i", {0}, 4);
  EXPECT_EQ(idx.height(), 1);
  for (int i = 0; i < 100; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  EXPECT_GT(idx.height(), 2);
  EXPECT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.num_entries(), 100u);
  EXPECT_EQ(idx.num_keys(), 100u);
}

TEST(BTreeIndexTest, ScanAllInOrder) {
  BTreeIndex idx("i", {0}, 4);
  Rng rng(5);
  std::vector<int64_t> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(rng.UniformInt(0, 10'000));
  for (size_t i = 0; i < keys.size(); ++i) {
    idx.OnInsert(i, Emp(keys[i], "x", 1.0));
  }
  std::vector<int64_t> scanned;
  idx.ScanAll([&](const Tuple& key, RowId) {
    scanned.push_back(key.at(0).int_value());
    return true;
  });
  EXPECT_EQ(scanned.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
}

TEST(BTreeIndexTest, RangeScanBounds) {
  BTreeIndex idx("i", {0}, 6);
  for (int i = 0; i < 50; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  auto collect = [&](std::optional<Tuple> lo, bool loi, std::optional<Tuple> hi,
                     bool hii) {
    std::vector<int64_t> out;
    idx.ScanRange(lo, loi, hi, hii, [&](const Tuple& key, RowId) {
      out.push_back(key.at(0).int_value());
      return true;
    });
    return out;
  };
  auto mid = collect(Tuple({Value::Int(10)}), true, Tuple({Value::Int(14)}), true);
  EXPECT_EQ(mid, (std::vector<int64_t>{10, 11, 12, 13, 14}));

  auto open_lo = collect(Tuple({Value::Int(10)}), false, Tuple({Value::Int(13)}), true);
  EXPECT_EQ(open_lo, (std::vector<int64_t>{11, 12, 13}));

  auto open_hi = collect(Tuple({Value::Int(10)}), true, Tuple({Value::Int(13)}), false);
  EXPECT_EQ(open_hi, (std::vector<int64_t>{10, 11, 12}));

  auto unbounded_lo = collect(std::nullopt, true, Tuple({Value::Int(2)}), true);
  EXPECT_EQ(unbounded_lo, (std::vector<int64_t>{0, 1, 2}));

  auto unbounded_hi = collect(Tuple({Value::Int(47)}), true, std::nullopt, true);
  EXPECT_EQ(unbounded_hi, (std::vector<int64_t>{47, 48, 49}));

  auto empty = collect(Tuple({Value::Int(60)}), true, std::nullopt, true);
  EXPECT_TRUE(empty.empty());
}

TEST(BTreeIndexTest, DuplicateKeysShareEntry) {
  BTreeIndex idx("i", {1}, 4);
  for (int i = 0; i < 9; ++i) {
    idx.OnInsert(i, Emp(i, i % 3 == 0 ? "a" : "b", 1.0));
  }
  EXPECT_EQ(idx.num_keys(), 2u);
  EXPECT_EQ(idx.num_entries(), 9u);
  EXPECT_EQ(idx.Probe(Tuple({Value::String("a")})).size(), 3u);
  EXPECT_EQ(idx.Probe(Tuple({Value::String("b")})).size(), 6u);
}

TEST(BTreeIndexTest, DeleteUnlinks) {
  BTreeIndex idx("i", {0}, 4);
  for (int i = 0; i < 30; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  for (int i = 0; i < 30; i += 3) idx.OnDelete(i, Emp(i, "x", 1.0));
  EXPECT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.num_keys(), 20u);
  EXPECT_TRUE(idx.Probe(Tuple({Value::Int(0)})).empty());
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(1)})).size(), 1u);
  // Deleting a missing entry is a no-op.
  idx.OnDelete(999, Emp(999, "x", 1.0));
  EXPECT_EQ(idx.num_keys(), 20u);
}

/// Property test: B+-tree agrees with std::multimap under random
/// insert/delete/probe/range workloads at several node orders.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesReferenceMultimap) {
  const int order = GetParam();
  BTreeIndex idx("p", {0}, order);
  std::multimap<int64_t, RowId> ref;
  Rng rng(order * 977);
  RowId next_row = 0;
  std::vector<std::pair<int64_t, RowId>> live;

  for (int step = 0; step < 3000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.6 || live.empty()) {
      const int64_t key = rng.UniformInt(0, 300);
      const RowId row = next_row++;
      idx.OnInsert(row, Emp(key, "x", 1.0));
      ref.emplace(key, row);
      live.push_back({key, row});
    } else {
      const size_t pick = rng.Uniform(live.size());
      auto [key, row] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      idx.OnDelete(row, Emp(key, "x", 1.0));
      for (auto it = ref.lower_bound(key); it != ref.end() && it->first == key;
           ++it) {
        if (it->second == row) {
          ref.erase(it);
          break;
        }
      }
    }
  }
  ASSERT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.num_entries(), ref.size());

  // Every key's row set matches.
  for (int64_t key = 0; key <= 300; ++key) {
    auto rows = idx.Probe(Tuple({Value::Int(key)}));
    std::multiset<RowId> got(rows.begin(), rows.end());
    std::multiset<RowId> want;
    for (auto it = ref.lower_bound(key); it != ref.end() && it->first == key;
         ++it) {
      want.insert(it->second);
    }
    EXPECT_EQ(got, want) << "key " << key;
  }

  // Random range scans match.
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.UniformInt(0, 300);
    int64_t hi = rng.UniformInt(lo, 300);
    std::vector<RowId> got;
    idx.ScanRange(Tuple({Value::Int(lo)}), true, Tuple({Value::Int(hi)}), true,
                  [&](const Tuple&, RowId row) {
                    got.push_back(row);
                    return true;
                  });
    size_t want_count = 0;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      ++want_count;
    }
    EXPECT_EQ(got.size(), want_count) << "[" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreePropertyTest,
                         ::testing::Values(4, 8, 32, 128));

// ---------------------------------------------------------------- Serialize

TEST(SerializeTest, RoundTripValuesAndTuples) {
  Tuple t({Value::Null(), Value::Bool(true), Value::Int(-42),
           Value::Double(2.5), Value::String("hello world")});
  auto back = DeserializeTuple(SerializeTuple(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(SerializeTest, RoundTripSchema) {
  Schema s({{"id", DataType::kInt64}, {"name", DataType::kString}});
  BinaryWriter w;
  w.PutSchema(s);
  BinaryReader r(w.data());
  auto back = r.GetSchema();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedInputFails) {
  Tuple t({Value::String("abcdef")});
  std::string bytes = SerializeTuple(t);
  auto bad = DeserializeTuple(std::string_view(bytes).substr(0, bytes.size() - 2));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, CorruptTagFails) {
  BinaryWriter w;
  w.PutU32(1);   // One value follows.
  w.PutU8(99);   // Invalid tag.
  auto bad = DeserializeTuple(w.data());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Stable

TEST(StableStoreTest, AppendAndRead) {
  StableStore store;
  store.Apply(StableWrite().Append("wal", "record1"));
  store.Apply(StableWrite().Append("wal", "record2"));
  const auto& records = store.ReadStream("wal");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "record1");
  EXPECT_EQ(records[1], "record2");
  EXPECT_EQ(store.stream_bytes("wal"), 14u);
  EXPECT_TRUE(store.ReadStream("nothing").empty());
}

TEST(StableStoreTest, TruncateDropsStream) {
  StableStore store;
  store.Apply(StableWrite().Append("wal", "x"));
  store.Apply(StableWrite().Truncate("wal"));
  EXPECT_TRUE(store.ReadStream("wal").empty());
  EXPECT_EQ(store.stream_bytes("wal"), 0u);
}

TEST(StableStoreTest, SnapshotsOverwrite) {
  StableStore store;
  store.Apply(StableWrite().Snapshot("ckpt", "v1"));
  store.Apply(StableWrite().Snapshot("ckpt", "v2-longer"));
  auto snap = store.ReadSnapshot("ckpt");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(*snap, "v2-longer");
  EXPECT_EQ(store.ReadSnapshot("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(StableStoreTest, OneWriteAppliesItsOperationsInOrder) {
  StableStore store;
  store.Apply(StableWrite().Append("wal", "old"));
  StableWrite checkpoint;
  checkpoint.Snapshot("ckpt", "image").Truncate("wal").Append("wal", "new");
  EXPECT_EQ(checkpoint.records(), 2u);
  EXPECT_EQ(checkpoint.bytes(), 8u);
  store.Apply(std::move(checkpoint));
  ASSERT_EQ(store.ReadStream("wal").size(), 1u);
  EXPECT_EQ(store.ReadStream("wal")[0], "new");
  EXPECT_EQ(*store.ReadSnapshot("ckpt"), "image");
}

TEST(StableStoreTest, CostsScaleWithSize) {
  DiskModel model;
  const sim::SimTime small = model.IoNs(100);
  const sim::SimTime big = model.IoNs(1'000'000);
  EXPECT_GT(big, small);
  // Every I/O pays at least the positioning time.
  EXPECT_GE(small, model.access_ns);
  // A 1 MB transfer at 1 MB/s dominates: ~1 s.
  EXPECT_GT(big, sim::kNanosPerSecond / 2);
  StableStore store(model);
  store.Apply(StableWrite().Append("wal", std::string(1'000'000, 'a')));
  EXPECT_EQ(store.StreamReadNs("wal"), big);
}

// ------------------------------------------------------------ Disk device

class DiskDeviceTest : public ::testing::Test {
 protected:
  StableWrite Record(const std::string& stream, size_t bytes) {
    return std::move(StableWrite().Append(stream, std::string(bytes, 'r')));
  }
  size_t Landed(const std::string& stream) const {
    return store_.ReadStream(stream).size();
  }

  sim::Simulator sim_;
  DiskModel model_;
  StableStore store_{model_};
  pool::Disk disk_{&sim_, &store_, /*pe=*/3};
};

TEST_F(DiskDeviceTest, WritesLandInSubmissionOrderAndOnlyWhenComplete) {
  std::vector<std::pair<int, sim::SimTime>> done;
  for (int i = 0; i < 3; ++i) {
    const pool::Disk::Ticket t = disk_.Submit(/*owner=*/1, Record("wal", 10));
    disk_.WhenDurable(t, [&, i] { done.push_back({i, sim_.now()}); });
  }
  // Submitted, not durable: nothing has landed and the CPU was not the
  // device — the submitter simply went on.
  EXPECT_EQ(Landed("wal"), 0u);
  EXPECT_TRUE(disk_.busy());
  EXPECT_FALSE(disk_.Durable(1));
  sim_.Run();
  ASSERT_EQ(done.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(done[i].first, i);
  EXPECT_EQ(done[0].second, model_.IoNs(10));
  EXPECT_EQ(Landed("wal"), 3u);
  EXPECT_TRUE(disk_.Durable(3));
  EXPECT_FALSE(disk_.busy());
  // A callback on an already-durable ticket runs at once.
  bool ran = false;
  disk_.WhenDurable(2, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST_F(DiskDeviceTest, QueuedWritesShareOnePositioningDelay) {
  sim::SimTime last = 0;
  // The first write starts on the idle device at once; the next four
  // queue behind it and go out together as one physical write.
  for (int i = 0; i < 5; ++i) {
    const pool::Disk::Ticket t = disk_.Submit(1, Record("gdh.2pc", 100));
    disk_.WhenDurable(t, [&] { last = sim_.now(); });
  }
  EXPECT_EQ(disk_.queued(), 4u);
  sim_.Run();
  EXPECT_EQ(disk_.physical_writes(), 2u);
  EXPECT_EQ(last, model_.IoNs(100) + model_.IoNs(400));
  EXPECT_LT(last, 5 * model_.IoNs(100));
  EXPECT_EQ(Landed("gdh.2pc"), 5u);
}

TEST_F(DiskDeviceTest, WritesInFlightAreLostOnCrash) {
  bool called = false;
  disk_.Submit(1, Record("wal", 10));
  const pool::Disk::Ticket queued = disk_.Submit(2, Record("wal", 10));
  disk_.WhenDurable(queued, [&] { called = true; });
  sim_.RunUntil(model_.IoNs(10) / 2);
  disk_.Crash();
  EXPECT_FALSE(disk_.busy());
  sim_.Run();
  EXPECT_EQ(Landed("wal"), 0u);
  EXPECT_FALSE(called);
  // The device works again after the restart.
  disk_.Submit(1, Record("wal", 10));
  sim_.Run();
  EXPECT_EQ(Landed("wal"), 1u);
}

TEST_F(DiskDeviceTest, AKilledOwnerLosesOnlyItsOwnWrites) {
  disk_.Submit(/*owner=*/1, Record("a", 10));  // In progress.
  disk_.Submit(/*owner=*/2, Record("b", 10));  // Queued.
  disk_.Submit(/*owner=*/1, Record("a", 10));  // Queued.
  disk_.DropOwner(1);
  sim_.Run();
  EXPECT_EQ(Landed("a"), 0u);
  EXPECT_EQ(Landed("b"), 1u);
}

TEST(StableStoreTest, DiskIsOrdersOfMagnitudeSlowerThanMemory) {
  // The quantitative core of experiment E3: a random disk I/O costs ~25 ms
  // while a main-memory tuple access costs sub-microsecond.
  DiskModel model;
  EXPECT_GT(model.IoNs(64), 1'000'000);  // > 1 ms.
}

}  // namespace
}  // namespace prisma::storage
