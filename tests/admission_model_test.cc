// Randomized admission harness: drives CoordinationEngine with seeded
// random workloads of safe and unsafe entangled queries (Submit, Cancel,
// TTL expiry via AdvanceTime, Flush) and checks every admit/reject decision
// the engine makes through UnifiabilityGraph::Admit against the reference
// core::SafetyChecker::Admit/Remove, run over the same live set. Decisions
// must agree, and so must the kUnsafe messages.
//
// Two configurations: set-at-a-time and incremental. Op counts shrink
// under ASan/TSan (the sanitizer legs run the same logic). The failing seed
// is echoed through SCOPED_TRACE; rerun one with --gtest_filter='*/<index>'.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/safety.h"
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

constexpr size_t kOpsPerSeed = EQ_MODEL_SANITIZED ? 150 : 600;
constexpr int kUsers = 6;

enum class Config { kSetAtATime, kIncremental };

const char* ConfigName(Config c) {
  switch (c) {
    case Config::kSetAtATime:
      return "set-at-a-time";
    case Config::kIncremental:
      return "incremental";
  }
  return "?";
}

std::string User(uint64_t i) { return "U" + std::to_string(i); }

/// One random submission over ANSWER relations R and S: a single query, or
/// both halves of a coordinating pair. Pair-shaped queries are safe on
/// their own; the wildcard postcondition R(f, x) unifies with every live R
/// head, and repeated users give heads that collide.
std::vector<std::string> RandomSubmission(Rng* rng) {
  uint64_t a = rng->Below(kUsers);
  uint64_t b = (a + 1 + rng->Below(kUsers - 1)) % kUsers;
  uint64_t c = rng->Below(kUsers);
  std::string ua = User(a), ub = User(b), uc = User(c);
  std::string dest = rng->Chance(0.5) ? "Paris" : "Rome";
  auto pair_half = [&](const std::string& self, const std::string& other) {
    return "{R(" + other + ", x)} R(" + self + ", x) :- F(x, " + dest + ")";
  };
  switch (rng->Below(7)) {
    case 0:
      return {pair_half(ua, ub), pair_half(ub, ua)};
    case 1:
      return {pair_half(ua, ub)};
    case 2:
      return {"{R(f, x)} R(" + ua + ", x) :- F(x, " + dest + "), Friend(" +
              ua + ", f)"};
    case 3:
      return {"{R(" + ub + ", x)} R(" + ua + ", x), S(" + ua +
              ", x) :- F(x, " + dest + ")"};
    case 4:
      return {"{S(" + ub + ", x)} R(" + ua + ", x) :- F(x, " + dest + ")"};
    case 5:
      return {"{} S(" + ua + ", x) :- F(x, " + dest + ")"};
    default:
      return {"{R(" + ub + ", x), S(" + uc + ", x)} S(" + ua +
              ", x) :- F(x, " + dest + ")"};
  }
}

class AdmissionModelTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, Config>> {};

TEST_P(AdmissionModelTest, GraphAdmissionMatchesSafetyChecker) {
  const auto [seed, config] = GetParam();
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " config=" << ConfigName(config));
  Rng rng(seed);

  ir::QueryContext ctx;
  db::Database db(&ctx.interner());
  ASSERT_TRUE(db.CreateTable("F", {{"fno", ValueType::kInt},
                                   {"dest", ValueType::kString}})
                  .ok());
  ASSERT_TRUE(db.CreateTable("Friend", {{"a", ValueType::kString},
                                        {"b", ValueType::kString}})
                  .ok());
  for (int fno = 1; fno <= 4; ++fno) {
    Value dest = Value::Str(ctx.Intern(fno <= 2 ? "Paris" : "Rome"));
    ASSERT_TRUE(db.Insert("F", {Value::Int(fno), dest}).ok());
  }
  for (int u = 0; u < kUsers; ++u) {
    Value a = Value::Str(ctx.Intern(User(u)));
    Value b = Value::Str(ctx.Intern(User((u + 1) % kUsers)));
    ASSERT_TRUE(db.Insert("Friend", {a, b}).ok());
  }

  EngineOptions opts;
  opts.mode = config == Config::kSetAtATime ? EvalMode::kSetAtATime
                                            : EvalMode::kIncremental;
  CoordinationEngine engine(&ctx, &db, opts);

  // The reference checker follows the engine's live set: a query enters on
  // admission and leaves when the engine resolves it. It reads its own copy
  // of every submitted query (the engine frees a query once it resolves),
  // kept at the position of the query's id.
  ir::QuerySet submitted;
  core::SafetyChecker oracle(&submitted);
  std::vector<QueryId> resolved;
  engine.SetCallback([&resolved](QueryId q, const QueryOutcome&) {
    resolved.push_back(q);
  });
  auto retire_resolved = [&] {
    for (QueryId q : resolved) oracle.Remove(q);
    resolved.clear();
  };

  ir::Parser parser(&ctx);
  uint64_t now = 0;
  uint64_t admitted = 0, rejected = 0, oracle_rejected = 0;
  for (size_t op = 0; op < kOpsPerSeed; ++op) {
    SCOPED_TRACE(::testing::Message() << "op=" << op);
    uint64_t roll = rng.Below(100);
    if (roll < 70) {
      for (const std::string& text : RandomSubmission(&rng)) {
        SCOPED_TRACE(text);
        auto parsed = parser.ParseQuery(text);
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        ir::EntangledQuery copy = *parsed;
        uint64_t ttl = rng.Chance(0.5) ? 0 : rng.Range(1, 6);
        auto id = engine.Submit(std::move(*parsed), ttl);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        // Ids are dense and in submission order.
        ASSERT_EQ(*id, submitted.queries.size());
        copy.id = *id;
        submitted.queries.push_back(std::move(copy));
        // The oracle judges against the live set before this submission's
        // own resolutions (Submit admits first, then may answer).
        Status want = oracle.Admit(*id);
        retire_resolved();
        const Status& got = engine.outcome(*id).status;
        bool engine_rejected = got.code() == StatusCode::kUnsafe;
        if (!want.ok()) ++oracle_rejected;
        ASSERT_EQ(engine_rejected, !want.ok())
            << "engine: " << got.ToString() << " oracle: " << want.ToString();
        if (engine_rejected) {
          EXPECT_EQ(got.ToString(), want.ToString());
          EXPECT_EQ(engine.outcome(*id).via, QueryOutcome::Via::kSubmit);
        }
        engine_rejected ? ++rejected : ++admitted;
      }
    } else if (roll < 80) {
      std::vector<QueryId> pending;
      for (QueryId q = 0; q < submitted.queries.size(); ++q) {
        if (engine.outcome(q).state == QueryOutcome::State::kPending) {
          pending.push_back(q);
        }
      }
      if (!pending.empty()) {
        ASSERT_TRUE(engine.Cancel(pending[rng.Below(pending.size())]).ok());
      }
    } else if (roll < 92) {
      now += rng.Range(1, 3);
      engine.AdvanceTime(now);
    } else {
      ASSERT_TRUE(engine.Flush().ok());
    }
    retire_resolved();
    // The admitted set is exactly the pending set.
    ASSERT_EQ(oracle.admitted_count(), engine.pending_count());
  }

  ASSERT_TRUE(engine.Flush().ok());
  retire_resolved();
  EXPECT_EQ(engine.pending_count(), 0u);
  EXPECT_EQ(engine.metrics().rejected_unsafe, rejected);
  // The workload exercised both decisions and the answer path.
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(oracle_rejected, 0u);
  EXPECT_GT(engine.metrics().answered, 0u);
  EXPECT_EQ(rejected, oracle_rejected);
  EXPECT_EQ(oracle.admitted_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AdmissionModelTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 13),
                       ::testing::Values(Config::kSetAtATime,
                                         Config::kIncremental)));

}  // namespace
}  // namespace eq::engine
