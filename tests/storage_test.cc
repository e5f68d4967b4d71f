// Tests for the versioned copy-on-write storage stack: immutable
// TableVersions shared by pointer, Table's copy-on-write handle semantics,
// db::Storage publish/write cycles, Snapshot isolation at the executor and
// engine level, and liveness of superseded versions.

#include "db/storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/executor.h"
#include "db/snapshot.h"
#include "engine/engine.h"
#include "ir/parser.h"
#include "util/rng.h"

namespace eq::db {
namespace {

Row IntRow(int64_t a) { return Row{ir::Value::Int(a)}; }

/// A one-row Flights insert, for Storage::ApplyBatch.
Storage::TableWrite InsertFlight(StringInterner& interner, int64_t fno,
                                 const char* dest) {
  return Storage::TableWrite::Insert(
      "Flights", {ir::Value::Int(fno), ir::Value::Str(interner.Intern(dest))});
}

/// Flights(fno INT, dest STRING) with three Paris rows, plus an untouched
/// Airlines table to observe copy granularity.
void FillFlights(ir::QueryContext* ctx, Database* db) {
  ASSERT_TRUE(db->CreateTable("Flights", {{"fno", ir::ValueType::kInt},
                                          {"dest", ir::ValueType::kString}})
                  .ok());
  ASSERT_TRUE(db->CreateTable("Airlines",
                              {{"fno", ir::ValueType::kInt},
                               {"airline", ir::ValueType::kString}})
                  .ok());
  auto S = [&](const char* s) { return ir::Value::Str(ctx->Intern(s)); };
  ASSERT_TRUE(
      db->Insert("Flights", {ir::Value::Int(122), S("Paris")}).ok());
  ASSERT_TRUE(
      db->Insert("Flights", {ir::Value::Int(123), S("Paris")}).ok());
  ASSERT_TRUE(
      db->Insert("Airlines", {ir::Value::Int(122), S("United")}).ok());
}

// ------------------------------------------------ Table handle CoW ------

TEST(TableCowTest, ExclusiveInsertIsInPlace) {
  Table t({{"a", ir::ValueType::kInt}});
  const TableVersion* before = t.version().get();
  ASSERT_TRUE(t.Insert(IntRow(1)).ok());
  ASSERT_TRUE(t.Insert(IntRow(2)).ok());
  // No snapshot holds the version: mutation must not copy.
  EXPECT_EQ(t.version().get(), before);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableCowTest, SharedInsertCopiesAndPreservesReader) {
  Table t({{"a", ir::ValueType::kInt}});
  ASSERT_TRUE(t.Insert(IntRow(1)).ok());
  std::shared_ptr<const TableVersion> reader = t.version();
  ASSERT_TRUE(t.Insert(IntRow(2)).ok());
  // The shared version was cloned; the reader still sees exactly one row.
  EXPECT_NE(t.version().get(), reader.get());
  EXPECT_EQ(reader->row_count(), 1u);
  EXPECT_EQ(t.row_count(), 2u);
  // With the reader released, further inserts mutate in place again.
  reader.reset();
  const TableVersion* stable = t.version().get();
  ASSERT_TRUE(t.Insert(IntRow(3)).ok());
  EXPECT_EQ(t.version().get(), stable);
}

TEST(TableCowTest, CopiedVersionKeepsIndexes) {
  Table t({{"a", ir::ValueType::kInt}});
  ASSERT_TRUE(t.Insert(IntRow(7)).ok());
  ASSERT_TRUE(t.BuildIndex(0).ok());
  std::shared_ptr<const TableVersion> reader = t.version();
  ASSERT_TRUE(t.Insert(IntRow(7)).ok());  // CoW clone, then index update
  const auto* postings = t.Probe(0, ir::Value::Int(7));
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->size(), 2u);
  const auto* old_postings = reader->Probe(0, ir::Value::Int(7));
  ASSERT_NE(old_postings, nullptr);
  EXPECT_EQ(old_postings->size(), 1u);
}

TEST(TableCowTest, DeleteWhereRemovesRowsAndRebuildsIndexes) {
  ir::QueryContext ctx;
  Table t({{"fno", ir::ValueType::kInt}, {"dest", ir::ValueType::kString}});
  ir::Value paris = ctx.StrValue("Paris");
  ir::Value rome = ctx.StrValue("Rome");
  ASSERT_TRUE(t.Insert({ir::Value::Int(1), paris}).ok());
  ASSERT_TRUE(t.Insert({ir::Value::Int(2), rome}).ok());
  ASSERT_TRUE(t.Insert({ir::Value::Int(3), paris}).ok());
  ASSERT_TRUE(t.BuildIndex(1).ok());

  size_t removed = 0;
  ASSERT_TRUE(t.DeleteWhere(Predicate::Eq(1, paris), &removed).ok());
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(t.row_count(), 1u);
  // Deletion shifts row ids: the surviving Rome row must be reachable
  // through the rebuilt index at its new id.
  const auto* postings = t.Probe(1, rome);
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 1u);
  EXPECT_EQ(t.row((*postings)[0])[0], ir::Value::Int(2));
  EXPECT_EQ(t.Probe(1, paris)->size(), 0u);
}

TEST(TableCowTest, DeleteWhereIsCowAndNoMatchSkipsTheClone) {
  ir::QueryContext ctx;
  Table t({{"dest", ir::ValueType::kString}});
  ir::Value paris = ctx.StrValue("Paris");
  ASSERT_TRUE(t.Insert({paris}).ok());
  std::shared_ptr<const TableVersion> reader = t.version();
  // Matching nothing must not clone (pointer identity is load-bearing).
  ASSERT_TRUE(t.DeleteWhere(Predicate::Eq(0, ctx.StrValue("Oslo"))).ok());
  EXPECT_EQ(t.version().get(), reader.get());
  // A real delete clones; the published reader keeps its row.
  size_t removed = 0;
  ASSERT_TRUE(t.DeleteWhere(Predicate::Eq(0, paris), &removed).ok());
  EXPECT_EQ(removed, 1u);
  EXPECT_NE(t.version().get(), reader.get());
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_EQ(reader->row_count(), 1u);
}

TEST(TableCowTest, UpdateWhereSetsEveryColumnAndChecksTheSets) {
  ir::QueryContext ctx;
  Table t({{"fno", ir::ValueType::kInt}, {"dest", ir::ValueType::kString}});
  ir::Value paris = ctx.StrValue("Paris");
  ir::Value oslo = ctx.StrValue("Oslo");
  ASSERT_TRUE(t.Insert({ir::Value::Int(1), paris}).ok());
  ASSERT_TRUE(t.Insert({ir::Value::Int(2), paris}).ok());
  ASSERT_TRUE(t.BuildIndex(1).ok());
  std::shared_ptr<const TableVersion> reader = t.version();

  // A SET that fails the schema check must not clone or mutate.
  Status bad = t.UpdateWhere(Predicate::Eq(1, paris), {{1, ir::Value::Int(9)}});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.version().get(), reader.get());

  size_t updated = 0;
  ASSERT_TRUE(t.UpdateWhere(Predicate::Eq(1, paris),
                            {{0, ir::Value::Int(7)}, {1, oslo}}, &updated)
                  .ok());
  EXPECT_EQ(updated, 2u);
  EXPECT_NE(t.version().get(), reader.get());
  // Every column set, postings patched: both rows now Oslo / fno 7.
  EXPECT_EQ(t.Probe(1, paris)->size(), 0u);
  EXPECT_EQ(t.Probe(1, oslo)->size(), 2u);
  // The published reader still sees the pre-update rows (CoW isolation).
  EXPECT_EQ(reader->Probe(1, paris)->size(), 2u);
}

// ------------------------------------------------ write predicates ------

/// Nums(n INT, tag STRING) with n = 0..5, tag alternating "even"/"odd".
Table NumsTable(ir::QueryContext* ctx) {
  Table t({{"n", ir::ValueType::kInt}, {"tag", ir::ValueType::kString}});
  for (int i = 0; i <= 5; ++i) {
    EXPECT_TRUE(t.Insert({ir::Value::Int(i),
                          ctx->StrValue(i % 2 == 0 ? "even" : "odd")})
                    .ok());
  }
  return t;
}

TEST(PredicateTest, RangeBoundariesAreExact) {
  ir::QueryContext ctx;
  // < and >= partition the domain exactly at the boundary: deleting n < 3
  // then n >= 3 empties the table with no row hit twice.
  Table t = NumsTable(&ctx);
  size_t removed = 0;
  ASSERT_TRUE(t.DeleteWhere(Predicate{}.And(0, ir::CompareOp::kLt,
                                            ir::Value::Int(3)),
                            &removed)
                  .ok());
  EXPECT_EQ(removed, 3u);  // 0, 1, 2
  ASSERT_TRUE(t.DeleteWhere(Predicate{}.And(0, ir::CompareOp::kGe,
                                            ir::Value::Int(3)),
                            &removed)
                  .ok());
  EXPECT_EQ(removed, 3u);  // 3, 4, 5
  EXPECT_EQ(t.row_count(), 0u);

  // <= includes the boundary, > excludes it; != spares exactly one value.
  Table u = NumsTable(&ctx);
  ASSERT_TRUE(u.DeleteWhere(Predicate{}.And(0, ir::CompareOp::kLe,
                                            ir::Value::Int(2)),
                            &removed)
                  .ok());
  EXPECT_EQ(removed, 3u);  // 0, 1, 2
  ASSERT_TRUE(u.DeleteWhere(Predicate{}.And(0, ir::CompareOp::kGt,
                                            ir::Value::Int(4)),
                            &removed)
                  .ok());
  EXPECT_EQ(removed, 1u);  // 5
  ASSERT_TRUE(u.DeleteWhere(Predicate{}.And(0, ir::CompareOp::kNe,
                                            ir::Value::Int(4)),
                            &removed)
                  .ok());
  EXPECT_EQ(removed, 1u);  // 3
  ASSERT_EQ(u.row_count(), 1u);
  EXPECT_EQ(u.row(0)[0], ir::Value::Int(4));
}

TEST(PredicateTest, MultiConjunctAndEmptyPredicate) {
  ir::QueryContext ctx;
  Table t = NumsTable(&ctx);
  // AND of three conjuncts over two columns: 1 <= n < 5 AND tag = 'odd'.
  Predicate p = Predicate::Eq(1, ctx.StrValue("odd"))
                    .And(0, ir::CompareOp::kGe, ir::Value::Int(1))
                    .And(0, ir::CompareOp::kLt, ir::Value::Int(5));
  size_t removed = 0;
  ASSERT_TRUE(t.DeleteWhere(p, &removed).ok());
  EXPECT_EQ(removed, 2u);  // 1, 3 (5 is out of range)
  // The empty conjunction matches every row (DELETE FROM t without WHERE).
  ASSERT_TRUE(t.DeleteWhere(Predicate{}, &removed).ok());
  EXPECT_EQ(removed, 4u);
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(PredicateTest, EqualityFastPathAgreesWithScanAndKeepsResiduals) {
  ir::QueryContext ctx;
  // An indexed `=` conjunct narrows the scan to its postings; the residual
  // range conjunct must still be enforced on those rows.
  Table t = NumsTable(&ctx);
  ASSERT_TRUE(t.BuildIndex(1).ok());
  Predicate p = Predicate::Eq(1, ctx.StrValue("even"))
                    .And(0, ir::CompareOp::kGt, ir::Value::Int(0));
  EXPECT_TRUE(t.version()->AnyMatch(p));
  size_t updated = 0;
  ASSERT_TRUE(t.UpdateWhere(p, {{1, ctx.StrValue("big-even")}}, &updated).ok());
  EXPECT_EQ(updated, 2u);  // 2, 4 — not 0 (residual) and not odds (eq)
  // The index was rebuilt around the new values.
  EXPECT_EQ(t.Probe(1, ctx.StrValue("big-even"))->size(), 2u);
  EXPECT_EQ(t.Probe(1, ctx.StrValue("even"))->size(), 1u);  // n = 0
  // Fast-path delete with a residual that excludes every posting: no-op.
  size_t removed = 0;
  Predicate none = Predicate::Eq(1, ctx.StrValue("big-even"))
                       .And(0, ir::CompareOp::kGt, ir::Value::Int(99));
  ASSERT_TRUE(t.DeleteWhere(none, &removed).ok());
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(t.row_count(), 6u);
}

TEST(PredicateTest, FastPathDeleteKeepsSurvivorsAheadOfFirstHitIntact) {
  ir::QueryContext ctx;
  // Rows 0, 2, 4 survive AHEAD of (or between) the doomed odd rows, so the
  // fast-path compaction walks a prefix where write == read — the
  // self-move hazard. Survivors must keep their cells and the rebuilt
  // index must agree.
  Table t = NumsTable(&ctx);
  ASSERT_TRUE(t.BuildIndex(1).ok());
  size_t removed = 0;
  ASSERT_TRUE(
      t.DeleteWhere(Predicate::Eq(1, ctx.StrValue("odd")), &removed).ok());
  EXPECT_EQ(removed, 3u);  // 1, 3, 5
  ASSERT_EQ(t.row_count(), 3u);
  for (size_t i = 0; i < t.row_count(); ++i) {
    ASSERT_EQ(t.row(i).size(), 2u);
    EXPECT_EQ(t.row(i)[0], ir::Value::Int(static_cast<int64_t>(2 * i)));
    EXPECT_EQ(t.row(i)[1], ctx.StrValue("even"));
  }
  EXPECT_EQ(t.Probe(1, ctx.StrValue("even"))->size(), 3u);
  EXPECT_EQ(t.Probe(1, ctx.StrValue("odd"))->size(), 0u);
}

TEST(PredicateTest, InvalidPredicatesFailBeforeAnyClone) {
  ir::QueryContext ctx;
  Table t = NumsTable(&ctx);
  std::shared_ptr<const TableVersion> reader = t.version();
  // Out-of-range column, NULL literal, and a type mismatch all fail
  // without cloning (pointer identity is load-bearing for readers).
  EXPECT_EQ(t.DeleteWhere(Predicate::Eq(7, ir::Value::Int(1))).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.DeleteWhere(Predicate::Eq(0, ir::Value())).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.DeleteWhere(Predicate::Eq(0, ctx.StrValue("three"))).code(),
            StatusCode::kInvalidArgument);
  // Bad SET clauses are rejected the same way.
  EXPECT_EQ(t.UpdateWhere(Predicate{}, {{9, ir::Value::Int(1)}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.UpdateWhere(Predicate{}, {{0, ctx.StrValue("x")}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.UpdateWhere(Predicate{}, {}).code(),
            StatusCode::kInvalidArgument);
  // Ordered comparisons on STRING columns are rejected on this BARE table
  // (no sorted dictionary): symbol ids alone have no lexicographic order,
  // so `tag < 'm'` would silently match an arbitrary (hash-ordered)
  // subset of rows. Database-created tables carry their interner and
  // accept the same predicate (see OrderedIndexPropertyTest).
  Status ordered = t.DeleteWhere(
      Predicate{}.And(1, ir::CompareOp::kLt, ctx.StrValue("m")));
  EXPECT_EQ(ordered.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ordered.message().find("ordered comparison"), std::string::npos);
  // Duplicate assignment targets: last-one-wins would mask a typo'd
  // column, so the whole update is rejected (standard SQL behavior).
  Status dup = t.UpdateWhere(
      Predicate{}, {{0, ir::Value::Int(1)}, {0, ir::Value::Int(2)}});
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.message().find("assigned twice"), std::string::npos);
  EXPECT_EQ(t.version().get(), reader.get());
}

TEST(PredicateTest, NullCellsSatisfyNoComparison) {
  ir::QueryContext ctx;
  // SQL NULL semantics: a NULL cell matches no conjunct — =, != and range
  // predicates all skip it (without the guard, type-tag ordering would
  // make NULL sort below every INT and match `n < 3`).
  Table t({{"n", ir::ValueType::kInt}, {"tag", ir::ValueType::kString}});
  ASSERT_TRUE(t.Insert({ir::Value(), ctx.StrValue("nullrow")}).ok());
  ASSERT_TRUE(t.Insert({ir::Value::Int(1), ctx.StrValue("one")}).ok());
  size_t removed = 0;
  ASSERT_TRUE(t.DeleteWhere(Predicate{}.And(0, ir::CompareOp::kLt,
                                            ir::Value::Int(3)),
                            &removed)
                  .ok());
  EXPECT_EQ(removed, 1u);  // the n=1 row only; NULL survives
  ASSERT_TRUE(t.DeleteWhere(Predicate{}.And(0, ir::CompareOp::kNe,
                                            ir::Value::Int(99)),
                            &removed)
                  .ok());
  EXPECT_EQ(removed, 0u);  // != does not match NULL either
  // The empty conjunction (bare DELETE FROM t) still clears NULL rows.
  ASSERT_TRUE(t.DeleteWhere(Predicate{}, &removed).ok());
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(PredicateTest, SetUpdateOnUnindexedColumnKeepsIndexesCorrect) {
  ir::QueryContext ctx;
  // Index on n; the SET touches only tag. In-place assignment shifts no
  // row ids, so the n-index must keep answering correctly either way.
  Table t = NumsTable(&ctx);
  ASSERT_TRUE(t.BuildIndex(0).ok());
  size_t updated = 0;
  ASSERT_TRUE(t.UpdateWhere(Predicate{}.And(0, ir::CompareOp::kGe,
                                            ir::Value::Int(4)),
                            {{1, ctx.StrValue("high")}}, &updated)
                  .ok());
  EXPECT_EQ(updated, 2u);  // 4, 5
  const auto* postings = t.Probe(0, ir::Value::Int(5));
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 1u);
  EXPECT_EQ(t.row((*postings)[0])[1], ctx.StrValue("high"));
  EXPECT_EQ(t.row(*t.Probe(0, ir::Value::Int(2))->begin())[1],
            ctx.StrValue("even"));
}

TEST(StorageTest, PredicateNoMatchPublishesNothing) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  const TableVersion* before = storage.Current().GetTable("Flights");

  // A predicate matching nothing: no clone, no publish, no version churn
  // (write-notified readers would otherwise wake for pointer-identical
  // data).
  size_t removed = 99;
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Delete(
                                  "Flights",
                                  Predicate{}.And(0, ir::CompareOp::kGt,
                                                  ir::Value::Int(1000)))},
                              &removed)
                  .ok());
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(storage.version(), 1u);
  EXPECT_EQ(storage.Current().GetTable("Flights"), before);

  size_t updated = 99;
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Update(
                                  "Flights",
                                  Predicate{}.And(0, ir::CompareOp::kLt,
                                                  ir::Value::Int(0)),
                                  {{1, ctx.StrValue("X")}})},
                              &updated)
                  .ok());
  EXPECT_EQ(updated, 0u);
  EXPECT_EQ(storage.version(), 1u);
  EXPECT_EQ(storage.Current().GetTable("Flights"), before);

  // A matching range delete does publish, and CoW isolates v1 readers.
  Snapshot v1 = storage.Current();
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Delete(
                                  "Flights",
                                  Predicate{}.And(0, ir::CompareOp::kLe,
                                                  ir::Value::Int(122)))},
                              &removed)
                  .ok());
  EXPECT_EQ(removed, 1u);  // fno 122
  EXPECT_EQ(storage.version(), 2u);
  EXPECT_EQ(v1.GetTable("Flights")->row_count(), 2u);
  EXPECT_EQ(storage.Current().GetTable("Flights")->row_count(), 1u);
}

TEST(StorageTest, MixedBatchWithPredicateWritesIsAtomic) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  auto S = [&](const char* s) { return ir::Value::Str(interner->Intern(s)); };

  // Insert + predicate update (SET form) + predicate delete, one publish.
  std::vector<Storage::TableWrite> batch;
  batch.push_back(Storage::TableWrite::Insert(
      "Flights", {ir::Value::Int(500), S("Oslo")}));
  batch.push_back(Storage::TableWrite::Update(
      "Flights",
      Predicate{}.And(0, ir::CompareOp::kLt, ir::Value::Int(200)),
      {{1, S("Rerouted")}}));
  batch.push_back(Storage::TableWrite::Delete(
      "Flights", Predicate::Eq(1, S("Rerouted"))
                     .And(0, ir::CompareOp::kGe, ir::Value::Int(123))));
  size_t rows_changed = 0;
  ASSERT_TRUE(storage.ApplyBatch(batch, &rows_changed).ok());
  EXPECT_EQ(storage.version(), 2u);
  EXPECT_EQ(rows_changed, 4u);  // 1 insert + 2 updates + 1 delete
  const TableVersion* flights = storage.Current().GetTable("Flights");
  ASSERT_EQ(flights->row_count(), 2u);  // 122 (Rerouted) + 500 (Oslo)
  EXPECT_TRUE(flights->AnyMatch(Predicate::Eq(1, S("Rerouted"))));
  EXPECT_FALSE(flights->AnyMatch(Predicate::Eq(0, ir::Value::Int(123))));

  // A bad predicate anywhere voids the whole batch, naming the write.
  std::vector<Storage::TableWrite> bad;
  bad.push_back(Storage::TableWrite::Insert(
      "Flights", {ir::Value::Int(501), S("Bergen")}));
  bad.push_back(Storage::TableWrite::Delete(
      "Flights", Predicate::Eq(0, S("not-an-int"))));
  Status st = storage.ApplyBatch(bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("write #1"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(storage.version(), 2u);
  EXPECT_FALSE(storage.Current().GetTable("Flights")->AnyMatch(
      0, ir::Value::Int(501)));
}

// ------------------------------------------------ Database snapshots ----

TEST(SnapshotTest, DatabaseSnapshotSharesVersionsByPointer) {
  ir::QueryContext ctx;
  Database db(&ctx.interner());
  FillFlights(&ctx, &db);
  Snapshot a = db.snapshot();
  Snapshot b = db.snapshot();
  ASSERT_NE(a.GetTable("Flights"), nullptr);
  // Two snapshots of an unchanged database are the same TableVersions.
  EXPECT_EQ(a.GetTable("Flights"), b.GetTable("Flights"));
  EXPECT_EQ(a.GetTable("Airlines"), b.GetTable("Airlines"));
  EXPECT_EQ(a.table_count(), 2u);
}

TEST(SnapshotTest, WriteAfterSnapshotIsInvisibleToIt) {
  ir::QueryContext ctx;
  Database db(&ctx.interner());
  FillFlights(&ctx, &db);
  Snapshot frozen = db.snapshot();
  ASSERT_TRUE(db.Insert("Flights", {ir::Value::Int(900),
                                    ctx.StrValue("Oslo")})
                  .ok());
  EXPECT_EQ(frozen.GetTable("Flights")->row_count(), 2u);
  EXPECT_EQ(db.GetTable("Flights")->row_count(), 3u);
  // Only the touched table was copied.
  Snapshot after = db.snapshot();
  EXPECT_NE(after.GetTable("Flights"), frozen.GetTable("Flights"));
  EXPECT_EQ(after.GetTable("Airlines"), frozen.GetTable("Airlines"));
}

// ------------------------------------------------ Storage publish/write --

TEST(StorageTest, PublishNumbersVersionsAndCurrentTracksLatest) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  EXPECT_FALSE(storage.Current().valid());
  Snapshot v1 = storage.Publish();
  EXPECT_EQ(v1.version(), 1u);
  EXPECT_EQ(storage.version(), 1u);
  ASSERT_TRUE(storage
                  .ApplyBatch({InsertFlight(*interner, 555, "Rome")})
                  .ok());
  Snapshot v2 = storage.Current();
  EXPECT_EQ(v2.version(), 2u);
  EXPECT_EQ(storage.writes_applied(), 1u);
  // CoW granularity: the untouched table is the same object across
  // versions; the touched table is a fresh copy with the extra row.
  EXPECT_EQ(v1.GetTable("Airlines"), v2.GetTable("Airlines"));
  EXPECT_NE(v1.GetTable("Flights"), v2.GetTable("Flights"));
  EXPECT_EQ(v1.GetTable("Flights")->row_count(), 2u);
  EXPECT_EQ(v2.GetTable("Flights")->row_count(), 3u);
}

TEST(StorageTest, ApplyBatchPublishesOnceAndCopiesEachTableOnce) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  Snapshot v1 = storage.Publish();
  std::vector<Storage::TableWrite> writes;
  for (int i = 0; i < 10; ++i) {
    writes.push_back({"Flights", {ir::Value::Int(600 + i),
                                  ir::Value::Str(interner->Intern("Oslo"))}});
  }
  ASSERT_TRUE(storage.ApplyBatch(writes).ok());
  EXPECT_EQ(storage.version(), 2u);  // one publish for the whole batch
  EXPECT_EQ(storage.Current().GetTable("Flights")->row_count(), 12u);
  EXPECT_EQ(v1.GetTable("Flights")->row_count(), 2u);
}

TEST(StorageTest, BatchUpdateWithoutSetClausesIsRejected) {
  // The one update form is UPDATE ... SET: a kUpdate carrying no SET
  // clauses is invalid — it is not read as a full-row replacement, and
  // the batch it rides in applies and publishes nothing.
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  const TableVersion* before = storage.Current().GetTable("Flights");

  std::vector<Storage::TableWrite> writes;
  writes.push_back(InsertFlight(*interner, 900, "Oslo"));
  Storage::TableWrite update;
  update.table = "Flights";
  update.kind = Storage::TableWrite::Kind::kUpdate;
  update.pred = Predicate::Eq(0, ir::Value::Int(122));
  update.row = {ir::Value::Int(122), ir::Value::Str(interner->Intern("Rome"))};
  writes.push_back(std::move(update));
  Status st = storage.ApplyBatch(writes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("write #1"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(storage.version(), 1u);
  EXPECT_EQ(storage.Current().GetTable("Flights"), before);
}

TEST(StorageTest, ApplyBatchIsAtomicAndNamesTheBadWrite) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  std::vector<Storage::TableWrite> writes;
  writes.push_back({"Flights", {ir::Value::Int(1),
                                ir::Value::Str(interner->Intern("Rome"))}});
  writes.push_back({"Flights", {ir::Value::Int(2), ir::Value::Int(3)}});
  Status st = storage.ApplyBatch(writes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The error names the offending write, and NOTHING was applied — a
  // retry of the corrected batch cannot duplicate a published prefix.
  EXPECT_NE(st.message().find("write #1"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(storage.version(), 1u);
  EXPECT_EQ(storage.writes_applied(), 0u);
  EXPECT_EQ(storage.Current().GetTable("Flights")->row_count(), 2u);
}

TEST(StorageTest, FailedWriteReportsErrorAndPublishesNothingNew) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  Status st = storage.ApplyBatch(
      {Storage::TableWrite::Insert("NoSuchTable", IntRow(1))});
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(storage.version(), 1u);
  // Type mismatch: Flights(fno INT, dest STRING). Validation runs before
  // the CoW clone, so a rejected row must not replace the shared
  // TableVersion (pointer identity is load-bearing for readers).
  const TableVersion* before = storage.Current().GetTable("Flights");
  st = storage.ApplyBatch({Storage::TableWrite::Insert(
      "Flights", {ir::Value::Int(1), ir::Value::Int(2)})});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(storage.version(), 1u);
  EXPECT_EQ(storage.mutable_db()->GetTable("Flights")->version().get(),
            before);
}

TEST(StorageTest, BatchDeletePublishesAndOldSnapshotKeepsRows) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  Snapshot v1 = storage.Publish();

  size_t removed = 0;
  ir::Value paris = ir::Value::Str(interner->Intern("Paris"));
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Delete(
                                  "Flights", Predicate::Eq(1, paris))},
                              &removed)
                  .ok());
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(storage.version(), 2u);
  EXPECT_EQ(storage.writes_applied(), 1u);
  EXPECT_EQ(storage.Current().GetTable("Flights")->row_count(), 0u);
  // Snapshot isolation: v1 readers keep the deleted rows; the untouched
  // table is shared by pointer across versions.
  EXPECT_EQ(v1.GetTable("Flights")->row_count(), 2u);
  EXPECT_EQ(v1.GetTable("Airlines"), storage.Current().GetTable("Airlines"));

  // A delete matching nothing publishes no version (no spurious wake-ups).
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Delete(
                                  "Flights",
                                  Predicate::Eq(0, ir::Value::Int(424242)))},
                              &removed)
                  .ok());
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(storage.version(), 2u);
  // Unknown table / bad column fail cleanly.
  EXPECT_EQ(storage
                .ApplyBatch({Storage::TableWrite::Delete(
                    "Nope", Predicate::Eq(0, ir::Value::Int(1)))})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(storage
                .ApplyBatch({Storage::TableWrite::Delete(
                    "Flights", Predicate::Eq(9, ir::Value::Int(1)))})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(StorageTest, BatchUpdateIsAtomicAndValidated) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  Snapshot v1 = storage.Publish();

  // Reroute flight 122 to Rome: one matched row, one published version.
  size_t updated = 0;
  ir::Value rome = ir::Value::Str(interner->Intern("Rome"));
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Update(
                                  "Flights",
                                  Predicate::Eq(0, ir::Value::Int(122)),
                                  {{1, rome}})},
                              &updated)
                  .ok());
  EXPECT_EQ(updated, 1u);
  EXPECT_EQ(storage.version(), 2u);
  const TableVersion* flights = storage.Current().GetTable("Flights");
  EXPECT_EQ(flights->row_count(), 2u);  // update, not insert
  // v1 still shows the Paris routing (update happened "in" a new version).
  EXPECT_EQ(v1.GetTable("Flights")->row(0)[1],
            ir::Value::Str(interner->Intern("Paris")));

  // A schema-violating SET applies nothing and publishes nothing.
  EXPECT_EQ(storage
                .ApplyBatch({Storage::TableWrite::Update(
                    "Flights", Predicate::Eq(0, ir::Value::Int(123)),
                    {{1, ir::Value::Int(9)}})})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(storage.version(), 2u);
}

TEST(StorageTest, MixedBatchAppliesInOrderAtomicallyOrNotAtAll) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  auto S = [&](const char* s) { return ir::Value::Str(interner->Intern(s)); };

  // Insert + update + delete in one batch: one published version.
  std::vector<Storage::TableWrite> batch;
  batch.push_back(Storage::TableWrite::Insert(
      "Flights", {ir::Value::Int(500), S("Oslo")}));
  batch.push_back(Storage::TableWrite::Update(
      "Flights", Predicate::Eq(0, ir::Value::Int(122)), {{1, S("Oslo")}}));
  batch.push_back(Storage::TableWrite::Delete(
      "Flights", Predicate::Eq(0, ir::Value::Int(123))));
  ASSERT_TRUE(storage.ApplyBatch(batch).ok());
  EXPECT_EQ(storage.version(), 2u);
  EXPECT_EQ(storage.writes_applied(), 3u);
  const TableVersion* flights = storage.Current().GetTable("Flights");
  ASSERT_EQ(flights->row_count(), 2u);  // +1 insert, -1 delete
  EXPECT_TRUE(flights->AnyMatch(1, S("Oslo")));
  EXPECT_FALSE(flights->AnyMatch(0, ir::Value::Int(123)));

  // Validation covers the new kinds: a bad match column anywhere in the
  // batch means NOTHING is applied (the earlier valid delete included).
  std::vector<Storage::TableWrite> bad;
  bad.push_back(Storage::TableWrite::Delete(
      "Flights", Predicate::Eq(0, ir::Value::Int(500))));
  bad.push_back(Storage::TableWrite::Update(
      "Flights", Predicate::Eq(7, ir::Value::Int(1)), {{1, S("X")}}));
  Status st = storage.ApplyBatch(bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("write #1"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(storage.version(), 2u);
  EXPECT_EQ(storage.writes_applied(), 3u);
  EXPECT_TRUE(
      storage.Current().GetTable("Flights")->AnyMatch(0, ir::Value::Int(500)));

  // A batch whose every op matched nothing changes no TableVersion, so it
  // publishes no version (same no-op rule as single deletes/updates).
  size_t rows_changed = 99;
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Delete(
                                  "Flights",
                                  Predicate::Eq(0, ir::Value::Int(424242)))},
                              &rows_changed)
                  .ok());
  EXPECT_EQ(rows_changed, 0u);
  EXPECT_EQ(storage.version(), 2u);
}

TEST(StorageTest, DroppingLastSnapshotReleasesOldVersion) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  Snapshot v1 = storage.Publish();
  // Track the v1 Flights version through a weak handle.
  std::weak_ptr<const TableVersion> weak =
      storage.mutable_db()->GetTable("Flights")->version();
  ASSERT_TRUE(storage
                  .ApplyBatch({InsertFlight(*interner, 700, "Rome")})
                  .ok());
  // v1 still pins the old version.
  EXPECT_FALSE(weak.expired());
  v1 = Snapshot();  // drop the last reader
  EXPECT_TRUE(weak.expired());
}

// ------------------------------------------------ version GC watermark ---

TEST(StorageGcTest, NoRegisteredReadersTrimEagerly) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  EXPECT_EQ(storage.retained_versions(), 1u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(storage
                    .ApplyBatch({InsertFlight(*interner, 200 + i, "Rome")})
                    .ok());
  }
  // No readers registered: the watermark is the head, so every superseded
  // version retires at publish time and only the head stays retained.
  EXPECT_EQ(storage.retained_versions(), 1u);
  EXPECT_EQ(storage.versions_retired(), 3u);
  EXPECT_EQ(storage.gc_watermark(), storage.version());
}

TEST(StorageGcTest, LaggingReaderPinsHistoryUntilItReports) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  Snapshot v1 = storage.Publish();
  storage.RegisterReader(7);  // registers at version 0: pins everything
  std::weak_ptr<const TableVersion> weak =
      storage.mutable_db()->GetTable("Flights")->version();
  v1 = Snapshot();  // only the GC history pins the v1 tables now
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(storage
                    .ApplyBatch({InsertFlight(*interner, 300 + i, "Oslo")})
                    .ok());
  }
  EXPECT_EQ(storage.retained_versions(), 4u);
  EXPECT_EQ(storage.gc_watermark(), 0u);
  EXPECT_FALSE(weak.expired());  // the lagging reader holds v1 alive

  // A stale report (lower than one already made) must not regress the
  // watermark.
  storage.ReportReadVersion(7, 2);
  EXPECT_EQ(storage.gc_watermark(), 2u);
  storage.ReportReadVersion(7, 1);
  EXPECT_EQ(storage.gc_watermark(), 2u);

  // Catching up to the head releases everything superseded.
  storage.ReportReadVersion(7, storage.version());
  EXPECT_EQ(storage.retained_versions(), 1u);
  EXPECT_TRUE(weak.expired());
  storage.UnregisterReader(7);
}

TEST(StorageGcTest, UnregisteringALaggardReleasesItsPins) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  storage.Publish();
  storage.RegisterReader(9);
  std::weak_ptr<const TableVersion> weak =
      storage.mutable_db()->GetTable("Flights")->version();
  ASSERT_TRUE(storage
                  .ApplyBatch({InsertFlight(*interner, 400, "Rome")})
                  .ok());
  EXPECT_FALSE(weak.expired());
  storage.UnregisterReader(9);  // the laggard is gone: GC reruns
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(storage.retained_versions(), 1u);
  // Reports from an unregistered reader are ignored, so standalone shards
  // can always report without knowing whether anyone registered them.
  storage.ReportReadVersion(9, 1);
  EXPECT_EQ(storage.gc_watermark(), storage.version());
}

TEST(StorageGcTest, HeldSnapshotPinsExactlyItsOwnVersion) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  Snapshot v1 = storage.Publish();
  std::weak_ptr<const TableVersion> w1 =
      storage.mutable_db()->GetTable("Flights")->version();
  v1 = Snapshot();
  ASSERT_TRUE(storage
                  .ApplyBatch({InsertFlight(*interner, 500, "Rome")})
                  .ok());
  Snapshot held = storage.Current();
  std::weak_ptr<const TableVersion> w2 =
      storage.mutable_db()->GetTable("Flights")->version();
  ASSERT_TRUE(storage
                  .ApplyBatch({InsertFlight(*interner, 501, "Oslo")})
                  .ok());
  // GC already trimmed history to the head (no registered readers), yet
  // the held snapshot keeps ITS version alive — and only its.
  EXPECT_EQ(storage.retained_versions(), 1u);
  EXPECT_TRUE(w1.expired());
  EXPECT_FALSE(w2.expired());
  held = Snapshot();
  EXPECT_TRUE(w2.expired());
}

TEST(StorageGcTest, TombstonedRowsInvisibleToNewSnapshots) {
  auto interner = std::make_shared<StringInterner>();
  Storage storage(interner);
  ASSERT_TRUE(storage.mutable_db()
                  ->CreateTable("T", {{"n", ir::ValueType::kInt}})
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(storage.mutable_db()->Insert("T", IntRow(i)).ok());
  }
  Snapshot before = storage.Publish();
  size_t rows = 0;
  ASSERT_TRUE(storage
                  .ApplyBatch({Storage::TableWrite::Delete(
                                  "T", Predicate::Eq(0, ir::Value::Int(3)))},
                              &rows)
                  .ok());
  EXPECT_EQ(rows, 1u);
  const TableVersion* t = storage.Current().GetTable("T");
  // 1/10 dead is below the default 0.3 threshold: the slot is tombstoned,
  // not compacted away — but invisible to every read path.
  EXPECT_EQ(t->row_count(), 9u);
  EXPECT_EQ(t->physical_size(), 10u);
  EXPECT_EQ(t->dead_count(), 1u);
  EXPECT_FALSE(t->AnyMatch(0, ir::Value::Int(3)));
  size_t live = 0;
  for (size_t i = 0; i < t->physical_size(); ++i) {
    if (t->row_dead(i)) continue;
    ++live;
    EXPECT_NE(t->row(i)[0], ir::Value::Int(3));
  }
  EXPECT_EQ(live, 9u);
  // The pre-delete snapshot still sees the row (MVCC isolation).
  EXPECT_TRUE(before.GetTable("T")->AnyMatch(0, ir::Value::Int(3)));
}

// ------------------------------------------------ ordered-index property --

TEST(OrderedIndexPropertyTest, RangesAgreeWithScanOracle) {
  const ir::CompareOp ops[] = {ir::CompareOp::kLt, ir::CompareOp::kLe,
                               ir::CompareOp::kGt, ir::CompareOp::kGe};
  auto cmp_ok = [](int c, ir::CompareOp op) {
    switch (op) {
      case ir::CompareOp::kLt:
        return c < 0;
      case ir::CompareOp::kLe:
        return c <= 0;
      case ir::CompareOp::kGt:
        return c > 0;
      case ir::CompareOp::kGe:
        return c >= 0;
      default:
        return false;
    }
  };
  for (uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    ir::QueryContext ctx;
    Database db(&ctx.interner());
    ASSERT_TRUE(db.CreateTable("P", {{"s", ir::ValueType::kString},
                                     {"n", ir::ValueType::kInt}})
                    .ok());
    Table* table = db.GetTable("P");
    // Reference model: plain (string, int) pairs compared with
    // std::string order — the oracle the sorted dictionary must match.
    std::vector<std::pair<std::string, int64_t>> ref;
    auto rand_name = [&] {
      size_t len = 1 + rng.Below(4);
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.Below(6)));
      }
      return s;
    };
    for (int i = 0; i < 200; ++i) {
      std::string name = rand_name();
      auto n = static_cast<int64_t>(rng.Below(50));
      ref.emplace_back(name, n);
      ASSERT_TRUE(db.Insert("P", {ir::Value::Str(ctx.Intern(name)),
                                  ir::Value::Int(n)})
                      .ok());
    }
    // Database tables pair every hash index with an ordered one.
    ASSERT_TRUE(table->BuildIndex(0).ok());
    ASSERT_TRUE(table->BuildOrderedIndex(1).ok());
    ASSERT_TRUE(table->HasOrderedIndex(0));

    auto check_all = [&](const char* when) {
      auto v = table->version();
      for (ir::CompareOp op : ops) {
        std::string sb = rand_name();
        auto [b, e] = v->OrderedRange(0, op, ir::Value::Str(ctx.Intern(sb)));
        size_t want = 0;
        for (const auto& [name, n] : ref) {
          (void)n;
          if (cmp_ok(name.compare(sb), op)) ++want;
        }
        ASSERT_EQ(static_cast<size_t>(e - b), want)
            << when << " seed=" << seed << " string bound=" << sb;
        for (const uint32_t* p = b; p != e; ++p) {
          ASSERT_FALSE(v->row_dead(*p));
          std::string name(ctx.interner().Name(v->row(*p)[0].AsStr()));
          ASSERT_TRUE(cmp_ok(name.compare(sb), op));
        }
        auto nb = static_cast<int64_t>(rng.Below(50));
        auto [ib, ie] = v->OrderedRange(1, op, ir::Value::Int(nb));
        want = 0;
        for (const auto& [name, n] : ref) {
          (void)name;
          int c = n < nb ? -1 : (n > nb ? 1 : 0);
          if (cmp_ok(c, op)) ++want;
        }
        ASSERT_EQ(static_cast<size_t>(ie - ib), want)
            << when << " seed=" << seed << " int bound=" << nb;
      }
    };
    check_all("fresh");

    // Tombstone interaction: defer compaction entirely, delete a range,
    // and the spans must shrink to exactly the live survivors.
    table->set_compaction_threshold(1.1);
    Predicate pred;
    pred.And(1, ir::CompareOp::kLt, ir::Value::Int(10));
    size_t removed = 0;
    ASSERT_TRUE(table->DeleteWhere(pred, &removed).ok());
    size_t expect_removed = 0;
    for (const auto& [name, n] : ref) {
      (void)name;
      if (n < 10) ++expect_removed;
    }
    EXPECT_EQ(removed, expect_removed);
    ref.erase(std::remove_if(ref.begin(), ref.end(),
                             [](const auto& r) { return r.second < 10; }),
              ref.end());
    EXPECT_GT(table->version()->dead_count(), 0u);
    check_all("tombstoned");

    // Between-conjunct (range AND range AND string range) agrees with the
    // oracle too.
    Predicate between;
    between.And(1, ir::CompareOp::kGe, ir::Value::Int(20))
        .And(1, ir::CompareOp::kLt, ir::Value::Int(30))
        .And(0, ir::CompareOp::kGe, ir::Value::Str(ctx.Intern("c")));
    removed = 0;
    ASSERT_TRUE(table->DeleteWhere(between, &removed).ok());
    auto in_between = [](const std::pair<std::string, int64_t>& r) {
      return r.second >= 20 && r.second < 30 && r.first.compare("c") >= 0;
    };
    expect_removed = 0;
    for (const auto& r : ref) {
      if (in_between(r)) ++expect_removed;
    }
    EXPECT_EQ(removed, expect_removed);
    ref.erase(std::remove_if(ref.begin(), ref.end(), in_between), ref.end());
    check_all("between");

    // Post-compaction equivalence: physical erasure + index rebuild must
    // not change any answer.
    table->set_compaction_threshold(0.0);
    Predicate one;
    one.And(1, ir::CompareOp::kGe, ir::Value::Int(45));
    ASSERT_TRUE(table->DeleteWhere(one, &removed).ok());
    ref.erase(std::remove_if(ref.begin(), ref.end(),
                             [](const auto& r) { return r.second >= 45; }),
              ref.end());
    EXPECT_EQ(table->version()->dead_count(), 0u);
    EXPECT_EQ(table->version()->physical_size(), ref.size());
    check_all("compacted");
  }
}

// ------------------------------------------------ engine-level isolation --

/// A coordinating pair entangled through R over Flights to `dest`.
std::pair<std::string, std::string> PairOver(const std::string& dest) {
  return {"{R(J, x)} R(K, x) :- Flights(x, " + dest + ")",
          "{R(K, y)} R(J, y) :- Flights(y, " + dest + ")"};
}

TEST(EngineSnapshotTest, MidRoundWriteInvisibleUntilAdopt) {
  auto interner = std::make_shared<StringInterner>();
  ir::QueryContext ctx(interner);
  Storage storage(interner);
  FillFlights(&ctx, storage.mutable_db());
  Snapshot v1 = storage.Publish();

  engine::CoordinationEngine eng(&ctx, v1,
                                 {.mode = engine::EvalMode::kSetAtATime});
  ir::Parser parser(&ctx);

  // The write lands AFTER the engine captured v1: a brand-new destination.
  ASSERT_TRUE(storage
                  .ApplyBatch({InsertFlight(*interner, 800, "Vienna")})
                  .ok());

  auto [qa, qb] = PairOver("Vienna");
  auto a = parser.ParseQuery(qa);
  auto b = parser.ParseQuery(qb);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ida = eng.Submit(std::move(*a));
  auto idb = eng.Submit(std::move(*b));
  ASSERT_TRUE(ida.ok() && idb.ok());
  ASSERT_TRUE(eng.Flush().ok());
  // §2.3: the round evaluated the v1 snapshot — the mid-round write must
  // not leak in, so the pair finds no Vienna flight and fails.
  EXPECT_EQ(eng.outcome(*ida).state, engine::QueryOutcome::State::kFailed);
  EXPECT_EQ(eng.outcome(*idb).state, engine::QueryOutcome::State::kFailed);

  // After adopting the published version the same pair coordinates.
  eng.AdoptSnapshot(storage.Current());
  auto a2 = parser.ParseQuery(qa);
  auto b2 = parser.ParseQuery(qb);
  ASSERT_TRUE(a2.ok() && b2.ok());
  auto ida2 = eng.Submit(std::move(*a2));
  auto idb2 = eng.Submit(std::move(*b2));
  ASSERT_TRUE(ida2.ok() && idb2.ok());
  ASSERT_TRUE(eng.Flush().ok());
  ASSERT_EQ(eng.outcome(*ida2).state,
            engine::QueryOutcome::State::kAnswered);
  ASSERT_EQ(eng.outcome(*idb2).state,
            engine::QueryOutcome::State::kAnswered);
  EXPECT_EQ(eng.outcome(*ida2).tuples[0].args[1], ir::Value::Int(800));
}

// ------------------------------------------------ executor on snapshots --

TEST(ExecutorSnapshotTest, ExecutorFreezesAtConstruction) {
  ir::QueryContext ctx;
  Database db(&ctx.interner());
  FillFlights(&ctx, &db);
  ConjunctiveQuery q;
  q.atoms.push_back(ir::Atom(ctx.Intern("Flights"),
                             {ir::Term::Var(ctx.NewVar("f")),
                              ir::Term::Var(ctx.NewVar("d"))}));
  Executor frozen(&db);
  ASSERT_TRUE(db.Insert("Flights", {ir::Value::Int(901),
                                    ctx.StrValue("Oslo")})
                  .ok());
  auto before = frozen.ExecuteAll(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 2u);  // the executor's snapshot predates the row
  Executor fresh(&db);
  auto after = fresh.ExecuteAll(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 3u);
}

}  // namespace
}  // namespace eq::db
