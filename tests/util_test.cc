#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "util/disjoint_set.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace eq {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Unsafe("postcondition unifies with two heads");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsafe);
  EXPECT_EQ(s.ToString(), "Unsafe: postcondition unifies with two heads");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kUnsafe,
        StatusCode::kUnsatisfiable, StatusCode::kParseError,
        StatusCode::kTimeout, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    EQ_RETURN_NOT_OK(inner());
    return Status::Internal("unreachable");
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::ParseError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// -------------------------------------------------------------- Interner --

TEST(InternerTest, InternIsIdempotent) {
  StringInterner in;
  SymbolId a = in.Intern("Jerry");
  SymbolId b = in.Intern("Kramer");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("Jerry"), a);
  EXPECT_EQ(in.Name(a), "Jerry");
  EXPECT_EQ(in.Name(b), "Kramer");
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, LookupDoesNotIntern) {
  StringInterner in;
  EXPECT_EQ(in.Lookup("ghost"), kInvalidSymbol);
  EXPECT_EQ(in.size(), 0u);
  SymbolId a = in.Intern("ghost");
  EXPECT_EQ(in.Lookup("ghost"), a);
}

TEST(InternerTest, IdsAreDense) {
  StringInterner in;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(in.Intern("sym" + std::to_string(i)), static_cast<SymbolId>(i));
  }
}

TEST(InternerTest, EmptyStringIsValidSymbol) {
  StringInterner in;
  SymbolId e = in.Intern("");
  EXPECT_EQ(in.Name(e), "");
  EXPECT_EQ(in.Intern(""), e);
}

// ---------------------------------------------------------- DisjointSet --

TEST(DisjointSetTest, SingletonsAreDisjoint) {
  DisjointSetForest f(4);
  EXPECT_EQ(f.set_count(), 4u);
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(f.Find(i), i);
  EXPECT_FALSE(f.Connected(0, 1));
}

TEST(DisjointSetTest, UnionMerges) {
  DisjointSetForest f(5);
  f.Union(0, 1);
  f.Union(3, 4);
  EXPECT_TRUE(f.Connected(0, 1));
  EXPECT_TRUE(f.Connected(3, 4));
  EXPECT_FALSE(f.Connected(1, 3));
  EXPECT_EQ(f.set_count(), 3u);
  f.Union(1, 4);
  EXPECT_TRUE(f.Connected(0, 3));
  EXPECT_EQ(f.set_count(), 2u);
}

TEST(DisjointSetTest, UnionIsIdempotent) {
  DisjointSetForest f(3);
  f.Union(0, 1);
  size_t count = f.set_count();
  f.Union(0, 1);
  f.Union(1, 0);
  EXPECT_EQ(f.set_count(), count);
}

TEST(DisjointSetTest, AddGrowsForest) {
  DisjointSetForest f(2);
  uint32_t id = f.Add();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(f.set_count(), 3u);
  f.Union(id, 0);
  EXPECT_TRUE(f.Connected(2, 0));
}

TEST(DisjointSetTest, ResetClearsState) {
  DisjointSetForest f(3);
  f.Union(0, 1);
  f.Reset(3);
  EXPECT_FALSE(f.Connected(0, 1));
  EXPECT_EQ(f.set_count(), 3u);
}

// Property sweep: DSU agrees with a reference quick-find implementation
// across random union sequences.
class DisjointSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DisjointSetPropertyTest, MatchesQuickFindReference) {
  Rng rng(GetParam());
  const size_t n = 64;
  DisjointSetForest f(n);
  std::vector<uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0u);

  for (int step = 0; step < 200; ++step) {
    uint32_t a = static_cast<uint32_t>(rng.Below(n));
    uint32_t b = static_cast<uint32_t>(rng.Below(n));
    f.Union(a, b);
    uint32_t la = label[a], lb = label[b];
    for (auto& l : label) {
      if (l == lb) l = la;
    }
    // Spot-check connectivity of random pairs.
    for (int probe = 0; probe < 8; ++probe) {
      uint32_t x = static_cast<uint32_t>(rng.Below(n));
      uint32_t y = static_cast<uint32_t>(rng.Below(n));
      EXPECT_EQ(f.Connected(x, y), label[x] == label[y]);
    }
  }
  std::set<uint32_t> labels(label.begin(), label.end());
  EXPECT_EQ(f.set_count(), labels.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 1234));

// --------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    uint64_t v = rng.Range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// -------------------------------------------------------------- Stopwatch --

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<uint64_t>(i);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMicros(), sw.ElapsedMillis());
}

}  // namespace
}  // namespace eq
