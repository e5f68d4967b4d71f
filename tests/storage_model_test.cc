// Randomized storage-model harness: drives db::Storage with seeded random
// op sequences — insert, predicate delete, predicate update, range scan,
// snapshot hold/verify, GC tick — and checks every observation against a
// naive reference model (a plain vector of (string, int) rows compared
// with std::string order). The properties under test:
//
//  - every snapshot's visible state equals the reference state captured
//    when it was taken (MVCC isolation across tombstones, compaction and
//    watermark GC);
//  - delete/update matched-row counts equal the reference counts for the
//    same random predicate;
//  - ordered-index range spans are exactly the live matching rows;
//  - the version history stays bounded by the reported read watermark.
//
// Op counts shrink under ASan/TSan (the sanitizer legs run the same
// logic; wall-clock is the only difference). The failing seed is echoed
// via SCOPED_TRACE on every assertion.

#include "db/storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/snapshot.h"
#include "util/rng.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EQ_MODEL_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#ifndef EQ_MODEL_SANITIZED
#define EQ_MODEL_SANITIZED 1
#endif
#endif
#ifndef EQ_MODEL_SANITIZED
#define EQ_MODEL_SANITIZED 0
#endif

namespace eq::db {
namespace {

constexpr size_t kOpsPerSeed = EQ_MODEL_SANITIZED ? 250 : 1000;
constexpr uint64_t kReader = 1;

struct RefRow {
  std::string s;
  int64_t n = 0;
};

/// One random conjunct in both worlds: convertible to a db::Predicate
/// term and directly evaluable against the reference model.
struct RefTerm {
  size_t col = 0;  // 0 = s (STRING), 1 = n (INT)
  ir::CompareOp op = ir::CompareOp::kEq;
  std::string sval;
  int64_t nval = 0;
};

bool CmpHolds(int c, ir::CompareOp op) {
  switch (op) {
    case ir::CompareOp::kEq:
      return c == 0;
    case ir::CompareOp::kNe:
      return c != 0;
    case ir::CompareOp::kLt:
      return c < 0;
    case ir::CompareOp::kLe:
      return c <= 0;
    case ir::CompareOp::kGt:
      return c > 0;
    case ir::CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

bool RefMatches(const RefRow& row, const std::vector<RefTerm>& terms) {
  for (const RefTerm& t : terms) {
    int c;
    if (t.col == 0) {
      c = row.s.compare(t.sval);
    } else {
      c = row.n < t.nval ? -1 : (row.n > t.nval ? 1 : 0);
    }
    if (!CmpHolds(c, t.op)) return false;
  }
  return true;
}

using Canon = std::multiset<std::pair<std::string, int64_t>>;

Canon CanonOfRef(const std::vector<RefRow>& ref) {
  Canon out;
  for (const RefRow& r : ref) out.emplace(r.s, r.n);
  return out;
}

Canon CanonOfTable(const TableVersion& v, const StringInterner& interner) {
  Canon out;
  for (size_t i = 0; i < v.physical_size(); ++i) {
    if (v.row_dead(i)) continue;
    out.emplace(std::string(interner.Name(v.row(i)[0].AsStr())),
                v.row(i)[1].AsInt());
  }
  return out;
}

class StorageModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageModelTest, RandomOpsMatchReferenceModel) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  Rng rng(seed);

  auto interner = std::make_shared<StringInterner>();
  Storage storage(interner);
  ASSERT_TRUE(storage.mutable_db()
                  ->CreateTable("M", {{"s", ir::ValueType::kString},
                                      {"n", ir::ValueType::kInt}})
                  .ok());
  // Hash + ordered index on both columns (Database tables pair them).
  ASSERT_TRUE(storage.mutable_db()->GetTable("M")->BuildIndex(0).ok());
  ASSERT_TRUE(storage.mutable_db()->GetTable("M")->BuildIndex(1).ok());

  auto rand_name = [&] {
    size_t len = 1 + rng.Below(3);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.Below(4)));
    }
    return s;
  };
  auto rand_int = [&] { return static_cast<int64_t>(rng.Below(30)); };
  auto S = [&](const std::string& s) {
    return ir::Value::Str(interner->Intern(s));
  };

  std::vector<RefRow> ref;
  for (int i = 0; i < 20; ++i) {
    RefRow r{rand_name(), rand_int()};
    ASSERT_TRUE(
        storage.mutable_db()->Insert("M", {S(r.s), ir::Value::Int(r.n)}).ok());
    ref.push_back(std::move(r));
  }
  storage.Publish();
  storage.RegisterReader(kReader);
  storage.ReportReadVersion(kReader, storage.version());

  // A small pool of held snapshots, each with the reference state frozen
  // at capture time (oldest first).
  std::vector<std::pair<Snapshot, Canon>> held;

  auto rand_terms = [&](size_t max_terms) {
    std::vector<RefTerm> terms;
    size_t n = 1 + rng.Below(max_terms);
    const ir::CompareOp all_ops[] = {ir::CompareOp::kEq, ir::CompareOp::kNe,
                                     ir::CompareOp::kLt, ir::CompareOp::kLe,
                                     ir::CompareOp::kGt, ir::CompareOp::kGe};
    for (size_t i = 0; i < n; ++i) {
      RefTerm t;
      t.col = rng.Below(2);
      t.op = all_ops[rng.Below(6)];
      if (t.col == 0) {
        t.sval = rand_name();
      } else {
        t.nval = rand_int();
      }
      terms.push_back(std::move(t));
    }
    return terms;
  };
  auto to_pred = [&](const std::vector<RefTerm>& terms) {
    Predicate p;
    for (const RefTerm& t : terms) {
      p.And(t.col, t.op,
            t.col == 0 ? S(t.sval) : ir::Value::Int(t.nval));
    }
    return p;
  };
  auto ref_count = [&](const std::vector<RefTerm>& terms) {
    size_t n = 0;
    for (const RefRow& r : ref) {
      if (RefMatches(r, terms)) ++n;
    }
    return n;
  };

  for (size_t op = 0; op < kOpsPerSeed; ++op) {
    SCOPED_TRACE(::testing::Message() << "op=" << op);
    uint64_t roll = rng.Below(100);

    if (roll < 35) {
      // ---- insert
      RefRow r{rand_name(), rand_int()};
      ASSERT_TRUE(storage
                      .ApplyBatch({Storage::TableWrite::Insert(
                          "M", {S(r.s), ir::Value::Int(r.n)})})
                      .ok());
      ref.push_back(std::move(r));
    } else if (roll < 50) {
      // ---- predicate delete
      auto terms = rand_terms(2);
      size_t want = ref_count(terms);
      size_t removed = 0;
      ASSERT_TRUE(
          storage
              .ApplyBatch({Storage::TableWrite::Delete("M", to_pred(terms))},
                          &removed)
              .ok());
      ASSERT_EQ(removed, want);
      ref.erase(std::remove_if(
                    ref.begin(), ref.end(),
                    [&](const RefRow& r) { return RefMatches(r, terms); }),
                ref.end());
    } else if (roll < 65) {
      // ---- predicate update (SET col = literal)
      auto terms = rand_terms(2);
      size_t want = ref_count(terms);
      std::vector<ColumnSet> sets;
      RefRow assign{rand_name(), rand_int()};
      bool set_s = rng.Chance(0.5);
      if (set_s) sets.push_back({0, S(assign.s)});
      if (!set_s || rng.Chance(0.3)) {
        sets.push_back({1, ir::Value::Int(assign.n)});
      }
      size_t updated = 0;
      ASSERT_TRUE(storage
                      .ApplyBatch({Storage::TableWrite::Update(
                                      "M", to_pred(terms), sets)},
                                  &updated)
                      .ok());
      ASSERT_EQ(updated, want);
      for (RefRow& r : ref) {
        if (!RefMatches(r, terms)) continue;
        for (const ColumnSet& cs : sets) {
          if (cs.col == 0) {
            r.s = assign.s;
          } else {
            r.n = assign.n;
          }
        }
      }
    } else if (roll < 80) {
      // ---- range scan: predicate full scan AND ordered-index span vs ref
      const ir::CompareOp range_ops[] = {ir::CompareOp::kLt,
                                         ir::CompareOp::kLe,
                                         ir::CompareOp::kGt,
                                         ir::CompareOp::kGe};
      RefTerm t;
      t.col = rng.Below(2);
      t.op = range_ops[rng.Below(4)];
      if (t.col == 0) {
        t.sval = rand_name();
      } else {
        t.nval = rand_int();
      }
      size_t want = ref_count({t});

      Snapshot snap = storage.Current();
      const TableVersion* table = snap.GetTable("M");
      ASSERT_NE(table, nullptr);
      Predicate pred = to_pred({t});
      size_t scan = 0;
      for (size_t i = 0; i < table->physical_size(); ++i) {
        if (table->row_dead(i)) continue;
        if (pred.Matches(table->row(i), table->order())) ++scan;
      }
      ASSERT_EQ(scan, want);

      ASSERT_TRUE(table->HasOrderedIndex(t.col));
      ir::Value bound = t.col == 0 ? S(t.sval) : ir::Value::Int(t.nval);
      auto [b, e] = table->OrderedRange(t.col, t.op, bound);
      ASSERT_EQ(static_cast<size_t>(e - b), want);
      for (const uint32_t* p = b; p != e; ++p) {
        ASSERT_FALSE(table->row_dead(*p));
      }
    } else if (roll < 90) {
      // ---- snapshot hold (verify + release the oldest when full)
      if (held.size() >= 3) {
        ASSERT_EQ(CanonOfTable(*held.front().first.GetTable("M"), *interner),
                  held.front().second)
            << "held snapshot v" << held.front().first.version()
            << " drifted";
        held.erase(held.begin());
      } else {
        held.emplace_back(storage.Current(), CanonOfRef(ref));
      }
      storage.ReportReadVersion(
          kReader,
          held.empty() ? storage.version() : held.front().first.version());
    } else {
      // ---- GC tick + invariants
      uint64_t report =
          held.empty() ? storage.version() : held.front().first.version();
      storage.ReportReadVersion(kReader, report);
      storage.GcTick();
      ASSERT_LE(storage.gc_watermark(), storage.version());
      ASSERT_GE(storage.retained_versions(), 1u);
      if (held.empty()) {
        ASSERT_EQ(storage.retained_versions(), 1u);
      } else {
        // History never retains more than the un-reported tail.
        ASSERT_LE(storage.retained_versions(),
                  storage.version() - storage.gc_watermark() + 1);
      }
    }

    if (op % 16 == 0) {
      ASSERT_EQ(CanonOfTable(*storage.Current().GetTable("M"), *interner),
                CanonOfRef(ref));
    }
  }

  // Drain: every held snapshot must still read its capture-time state.
  for (auto& [snap, canon] : held) {
    ASSERT_EQ(CanonOfTable(*snap.GetTable("M"), *interner), canon)
        << "held snapshot v" << snap.version() << " drifted";
  }
  held.clear();
  storage.ReportReadVersion(kReader, storage.version());
  storage.GcTick();
  EXPECT_EQ(storage.retained_versions(), 1u);
  EXPECT_EQ(CanonOfTable(*storage.Current().GetTable("M"), *interner),
            CanonOfRef(ref));
  storage.UnregisterReader(kReader);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageModelTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace eq::db
