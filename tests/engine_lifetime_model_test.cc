// Long-lived engine harness: one CoordinationEngine takes a seeded stream
// of k-way ring submissions (k = 2..4) with cancels and TTL expiry
// interleaved, in incremental mode and in set-at-a-time mode with random
// flushes. The properties under test:
//
//  - every answer is right: a ring is answered all-or-nothing, and all its
//    members bind the same flight x, one that flies to the ring's
//    destination;
//  - after every operation, what the engine holds (engine::
//    EngineFootprint) is bounded by the queries it holds: index entries,
//    edges and variables by the held slots, and the slot capacity by the
//    most queries ever pending at once;
//  - the footprint, sampled at a quiescent point every 5k submissions, is
//    the same at the first and the last sample except for the outcome log.
//
// Op counts shrink under ASan/TSan (the sanitizer legs run the same logic).
// The failing seed is echoed through SCOPED_TRACE; rerun one with
// --gtest_filter='*/<index>'.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "db/database.h"
#include "engine/engine.h"
#include "ir/parser.h"
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

namespace eq::engine {
namespace {

using ir::QueryId;
using ir::Value;
using ir::ValueType;

constexpr size_t kSubmissions = EQ_MODEL_SANITIZED ? 15000 : 50000;
constexpr size_t kSampleEvery = 5000;
constexpr size_t kWindow = 16;      // rings open at once
constexpr size_t kMaxRing = 4;
constexpr uint64_t kMaxTtl = 20;
constexpr int kDestinations = 4;
constexpr int kFlightsPerDestination = 3;
// Per query of a ring: one head and one postcondition of arity 2 (three
// index entries each), one variable, at most one live edge in and one out.
constexpr size_t kIndexEntriesPerQuery = 6;
constexpr size_t kVariablesPerQuery = 1;
constexpr size_t kEdgesPerQuery = 2;

std::string Destination(int d) { return "D" + std::to_string(d); }

struct Ring {
  int k = 0;
  std::string rel;
  int dest = 0;
  uint64_t ttl = 0;
  std::vector<QueryId> ids;  // submitted members, in ring order
  bool dead = false;         // a member was cancelled or failed
};

struct Seen {
  size_t ring = 0;
  QueryOutcome::State state = QueryOutcome::State::kPending;
  int64_t x = -1;
};

class EngineLifetimeModelTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, EvalMode>> {};

TEST_P(EngineLifetimeModelTest, FootprintStaysBoundedByHeldQueries) {
  const auto [seed, mode] = GetParam();
  const bool incremental = mode == EvalMode::kIncremental;
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed
               << " mode=" << (incremental ? "incremental" : "set-at-a-time"));
  Rng rng(seed);

  ir::QueryContext ctx;
  db::Database db(&ctx.interner());
  ASSERT_TRUE(db.CreateTable("F", {{"fno", ValueType::kInt},
                                   {"dest", ValueType::kString}})
                  .ok());
  for (int d = 0; d < kDestinations; ++d) {
    Value dest = Value::Str(ctx.Intern(Destination(d)));
    for (int f = 0; f < kFlightsPerDestination; ++f) {
      ASSERT_TRUE(db.Insert("F", {Value::Int(100 * d + f), dest}).ok());
    }
  }
  EngineOptions opts;
  opts.mode = mode;
  CoordinationEngine engine(&ctx, &db, opts);

  std::vector<Ring> rings;
  std::vector<Seen> seen;  // by id
  engine.SetCallback([&](QueryId q, const QueryOutcome& o) {
    ASSERT_LT(q, seen.size());
    EXPECT_EQ(seen[q].state, QueryOutcome::State::kPending);
    seen[q].state = o.state;
    if (o.state == QueryOutcome::State::kAnswered) {
      ASSERT_EQ(o.tuples.size(), 1u);
      seen[q].x = o.tuples[0].args[1].AsInt();
    } else {
      rings[seen[q].ring].dead = true;
    }
  });

  ir::Parser parser(&ctx);
  std::vector<size_t> open;  // indexes of rings still held
  uint64_t now = 0;
  size_t submitted = 0;
  size_t peak_held = 0;  // most slots any Submit could have needed
  size_t answered = 0, cancelled = 0;
  std::vector<EngineFootprint> samples;

  auto open_ring = [&](int k) {
    Ring r;
    r.k = k;
    r.rel = rng.Chance(0.5) ? "R" : "S";
    r.dest = static_cast<int>(rng.Below(kDestinations));
    r.ttl = rng.Range(2, kMaxTtl);
    rings.push_back(std::move(r));
    open.push_back(rings.size() - 1);
  };
  auto member = [&](size_t ring, size_t i) {
    const Ring& r = rings[ring];
    auto user = [&](size_t m) {
      return "G" + std::to_string(ring) + "_" + std::to_string(m % r.k);
    };
    return "{" + r.rel + "(" + user(i + 1) + ", x)} " + r.rel + "(" +
           user(i) + ", x) :- F(x, " + Destination(r.dest) + ")";
  };
  auto submit_next = [&](size_t ring) {
    Ring& r = rings[ring];
    auto parsed = parser.ParseQuery(member(ring, r.ids.size()));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    peak_held = std::max(peak_held, engine.pending_count() + 1);
    ASSERT_EQ(engine.next_id(), seen.size());
    seen.push_back(Seen{ring});
    auto id = engine.Submit(std::move(*parsed), r.ttl);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(*id, seen.size() - 1);  // dense, in submission order
    r.ids.push_back(*id);
    ++submitted;
  };
  auto held_by_ring = [&](const Ring& r) {
    for (QueryId q : r.ids) {
      if (seen[q].state == QueryOutcome::State::kPending) return true;
    }
    return false;
  };
  // A ring closes once nothing of it is pending and nothing more will be
  // submitted; its outcome is then final and checked.
  auto close_finished = [&] {
    std::erase_if(open, [&](size_t idx) {
      const Ring& r = rings[idx];
      if (held_by_ring(r)) return false;
      if (!r.dead && r.ids.size() < static_cast<size_t>(r.k)) return false;
      size_t yes = 0;
      for (QueryId q : r.ids) {
        if (seen[q].state == QueryOutcome::State::kAnswered) ++yes;
      }
      EXPECT_TRUE(yes == 0 || yes == static_cast<size_t>(r.k))
          << "ring " << idx << " answered " << yes << " of " << r.k;
      if (yes > 0) {
        const int64_t x = seen[r.ids[0]].x;
        EXPECT_EQ(x / 100, r.dest) << "ring " << idx << " flew elsewhere";
        for (QueryId q : r.ids) {
          EXPECT_EQ(seen[q].x, x) << "ring " << idx << " split over flights";
        }
        answered += yes;
      }
      return true;
    });
  };
  auto check_bounds = [&] {
    const EngineFootprint f = engine.footprint();
    const size_t held = f.slots_in_use;
    ASSERT_EQ(held, engine.pending_count() + f.awaiting_release);
    ASSERT_LE(f.index_entries, 2 * kIndexEntriesPerQuery * held);
    ASSERT_LE(f.tracked_variables, kVariablesPerQuery * held);
    ASSERT_LE(f.edges_in_use, 2 * kEdgesPerQuery * held);
    ASSERT_LE(f.slots_in_use + f.slots_free, peak_held);
    ASSERT_LE(f.edges_in_use + f.edges_free, 2 * kEdgesPerQuery * peak_held);
    ASSERT_EQ(f.outcomes, submitted);
  };
  auto advance = [&](uint64_t ticks) {
    now += ticks;
    engine.AdvanceTime(now);
  };
  // Brings the engine to rest: flushes (set-at-a-time), then lets every
  // TTL run out, so nothing is pending or awaiting release.
  auto quiesce = [&] {
    if (!incremental) {
      ASSERT_TRUE(engine.Flush().ok());
    }
    advance(kMaxTtl + 1);
    close_finished();
    ASSERT_TRUE(open.empty());
    ASSERT_EQ(engine.pending_count(), 0u);
  };

  // Warm-up: fill the window with the largest rings, one member short of
  // answering (incremental) or complete (set-at-a-time), so the capacity
  // the whole run needs is reached before the first sample.
  const size_t warm = incremental ? kMaxRing - 1 : kMaxRing;
  for (size_t w = 0; w < kWindow; ++w) open_ring(kMaxRing);
  for (size_t i = 0; i < warm; ++i) {
    for (size_t idx : open) ASSERT_NO_FATAL_FAILURE(submit_next(idx));
  }
  if (incremental) {
    ASSERT_NO_FATAL_FAILURE(submit_next(open.front()));
  }
  ASSERT_NO_FATAL_FAILURE(check_bounds());

  while (submitted < kSubmissions) {
    const uint64_t roll = rng.Below(1000);
    if (roll < 20) {
      advance(1);
    } else if (roll < 35) {
      // Withdraw a random pending member; its ring can no longer answer.
      std::vector<QueryId> pending;
      for (size_t idx : open) {
        for (QueryId q : rings[idx].ids) {
          if (seen[q].state == QueryOutcome::State::kPending) {
            pending.push_back(q);
          }
        }
      }
      if (!pending.empty()) {
        ASSERT_TRUE(engine.Cancel(pending[rng.Below(pending.size())]).ok());
        ++cancelled;
      }
    } else if (roll < 40 && !incremental) {
      ASSERT_TRUE(engine.Flush().ok());
    } else {
      std::vector<size_t> growable;
      for (size_t idx : open) {
        const Ring& r = rings[idx];
        if (!r.dead && r.ids.size() < static_cast<size_t>(r.k)) {
          growable.push_back(idx);
        }
      }
      if (open.size() < kWindow && (growable.empty() || rng.Chance(0.3))) {
        open_ring(static_cast<int>(rng.Range(2, kMaxRing)));
        growable = {open.back()};
      }
      if (growable.empty()) {
        // A full window of complete or dead rings: let them resolve.
        if (!incremental) {
          ASSERT_TRUE(engine.Flush().ok());
        }
        advance(1);
      } else {
        ASSERT_NO_FATAL_FAILURE(
            submit_next(growable[rng.Below(growable.size())]));
        if (submitted % kSampleEvery == 0) {
          ASSERT_NO_FATAL_FAILURE(check_bounds());
          ASSERT_NO_FATAL_FAILURE(quiesce());
          samples.push_back(engine.footprint());
        }
      }
    }
    close_finished();
    ASSERT_NO_FATAL_FAILURE(check_bounds());
  }

  ASSERT_GE(samples.size(), 3u);
  EngineFootprint first = samples.front(), last = samples.back();
  EXPECT_EQ(first.outcomes, kSampleEvery);
  EXPECT_EQ(last.outcomes, kSubmissions);
  first.outcomes = last.outcomes = 0;
  EXPECT_EQ(first, last);
  EXPECT_EQ(last.slots_in_use, 0u);
  EXPECT_EQ(last.index_entries, 0u);
  EXPECT_EQ(last.edges_in_use, 0u);
  EXPECT_EQ(last.tracked_variables, 0u);
  EXPECT_EQ(last.awaiting_release, 0u);
  // The stream exercised every way out of the pending state.
  const EngineMetrics& m = engine.metrics();
  EXPECT_GT(answered, submitted / 2);
  EXPECT_EQ(m.answered, answered);
  EXPECT_GT(m.expired, 0u);
  EXPECT_GT(cancelled, 0u);
  EXPECT_EQ(m.cancelled, cancelled);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EngineLifetimeModelTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2),
                       ::testing::Values(EvalMode::kIncremental,
                                         EvalMode::kSetAtATime)));

}  // namespace
}  // namespace eq::engine
