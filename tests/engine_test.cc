#include <gtest/gtest.h>
#include "db/database.h"

#include <map>
#include <set>

#include "engine/engine.h"
#include "ir/parser.h"

namespace eq::engine {
namespace {

using ir::QueryContext;
using ir::QueryId;
using ir::Value;
using ir::ValueType;

/// Shared scaffolding: the Figure 1 flight database plus query parsing
/// against the engine's context.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<db::Database>(&ctx_.interner());
    ASSERT_TRUE(db_->CreateTable("F", {{"fno", ValueType::kInt},
                                       {"dest", ValueType::kString}})
                    .ok());
    ASSERT_TRUE(db_->CreateTable("A", {{"fno", ValueType::kInt},
                                       {"airline", ValueType::kString}})
                    .ok());
    Insert("F", {Value::Int(122), S("Paris")});
    Insert("F", {Value::Int(123), S("Paris")});
    Insert("F", {Value::Int(134), S("Paris")});
    Insert("F", {Value::Int(136), S("Rome")});
    Insert("A", {Value::Int(122), S("United")});
    Insert("A", {Value::Int(123), S("United")});
    Insert("A", {Value::Int(134), S("Lufthansa")});
    Insert("A", {Value::Int(136), S("Alitalia")});
  }

  void Insert(const char* table, db::Row row) {
    ASSERT_TRUE(db_->Insert(table, std::move(row)).ok());
  }

  Value S(const char* s) { return Value::Str(ctx_.Intern(s)); }

  ir::EntangledQuery Parse(const std::string& text) {
    ir::Parser parser(&ctx_);
    auto r = parser.ParseQuery(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  std::unique_ptr<CoordinationEngine> MakeEngine(EngineOptions opts) {
    return std::make_unique<CoordinationEngine>(&ctx_, db_.get(), opts);
  }

  QueryContext ctx_;
  std::unique_ptr<db::Database> db_;
};

// ------------------------------------------------------- set-at-a-time ----

TEST_F(EngineTest, BatchPairCoordinates) {
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  auto kramer = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"));
  auto jerry = engine->Submit(
      Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris), A(y, United)"));
  ASSERT_TRUE(kramer.ok() && jerry.ok());
  EXPECT_EQ(engine->outcome(*kramer).state, QueryOutcome::State::kPending);
  EXPECT_EQ(engine->pending_count(), 2u);

  ASSERT_TRUE(engine->Flush().ok());
  const auto& ko = engine->outcome(*kramer);
  const auto& jo = engine->outcome(*jerry);
  ASSERT_EQ(ko.state, QueryOutcome::State::kAnswered);
  ASSERT_EQ(jo.state, QueryOutcome::State::kAnswered);
  ASSERT_EQ(ko.tuples.size(), 1u);
  ASSERT_EQ(jo.tuples.size(), 1u);
  // Coordinated choice: same United flight to Paris.
  EXPECT_EQ(ko.tuples[0].args[1], jo.tuples[0].args[1]);
  int64_t fno = ko.tuples[0].args[1].AsInt();
  EXPECT_TRUE(fno == 122 || fno == 123);
  EXPECT_EQ(engine->pending_count(), 0u);
  EXPECT_EQ(engine->metrics().answered, 2u);
}

TEST_F(EngineTest, BatchPartnerlessQueryFails) {
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  auto kramer = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"));
  ASSERT_TRUE(kramer.ok());
  ASSERT_TRUE(engine->Flush().ok());
  const auto& outcome = engine->outcome(*kramer);
  EXPECT_EQ(outcome.state, QueryOutcome::State::kFailed);
  EXPECT_EQ(outcome.status.code(), StatusCode::kUnsatisfiable);
}

TEST_F(EngineTest, BatchNoDataFails) {
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  // Coordinate on a destination with no flights.
  auto a = engine->Submit(Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Oslo)"));
  auto b = engine->Submit(Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Oslo)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->outcome(*a).state, QueryOutcome::State::kFailed);
  EXPECT_EQ(engine->outcome(*a).status.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->outcome(*b).status.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, BatchThreeWayCycleCoordinates) {
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  // §5.3.2-style triangle: Jerry↦Kramer↦Elaine↦Jerry on Paris flights.
  auto q0 = engine->Submit(Parse("{R(Kramer, x)} R(Jerry, x) :- F(x, Paris)"));
  auto q1 = engine->Submit(Parse("{R(Elaine, y)} R(Kramer, y) :- F(y, Paris)"));
  auto q2 = engine->Submit(Parse("{R(Jerry, z)} R(Elaine, z) :- F(z, Paris)"));
  ASSERT_TRUE(q0.ok() && q1.ok() && q2.ok());
  ASSERT_TRUE(engine->Flush().ok());
  std::set<int64_t> flights;
  for (QueryId q : {*q0, *q1, *q2}) {
    const auto& outcome = engine->outcome(q);
    ASSERT_EQ(outcome.state, QueryOutcome::State::kAnswered);
    flights.insert(outcome.tuples[0].args[1].AsInt());
  }
  EXPECT_EQ(flights.size(), 1u) << "all three must share one flight";
}

TEST_F(EngineTest, FlushAnswersEveryDisjointPair) {
  // Many disjoint pairs; one flush answers each as its own partition.
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  std::vector<QueryId> ids;
  for (int i = 0; i < 20; ++i) {
    std::string u = "U" + std::to_string(i);
    std::string v = "V" + std::to_string(i);
    auto a = engine->Submit(
        Parse("{R(" + v + ", x)} R(" + u + ", x) :- F(x, Paris)"));
    auto b = engine->Submit(
        Parse("{R(" + u + ", y)} R(" + v + ", y) :- F(y, Paris)"));
    ASSERT_TRUE(a.ok() && b.ok());
    ids.push_back(*a);
    ids.push_back(*b);
  }
  ASSERT_TRUE(engine->Flush().ok());
  for (QueryId q : ids) {
    EXPECT_EQ(engine->outcome(q).state, QueryOutcome::State::kAnswered);
  }
  EXPECT_EQ(engine->metrics().answered, 40u);
  EXPECT_EQ(engine->metrics().partitions_evaluated, 20u);
}

TEST_F(EngineTest, FlushResolvesComponentsInOrderOfTheirSmallestId) {
  // Three disjoint pairs with interleaved ids: pair p holds ids p and p + 3.
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  std::vector<QueryId> fired;
  engine->SetCallback(
      [&fired](QueryId q, const QueryOutcome&) { fired.push_back(q); });
  const std::vector<std::string> users = {"A", "B", "C"};
  for (const std::string& u : users) {
    ASSERT_TRUE(engine
                    ->Submit(Parse("{R(" + u + "2, x)} R(" + u +
                                   "1, x) :- F(x, Paris)"))
                    .ok());
  }
  for (const std::string& u : users) {
    ASSERT_TRUE(engine
                    ->Submit(Parse("{R(" + u + "1, y)} R(" + u +
                                   "2, y) :- F(y, Paris)"))
                    .ok());
  }
  EXPECT_TRUE(fired.empty());
  ASSERT_TRUE(engine->Flush().ok());
  // Component by component in order of each one's smallest member id, and
  // in id order within a component.
  EXPECT_EQ(fired, (std::vector<QueryId>{0, 3, 1, 4, 2, 5}));
  for (QueryId q : fired) {
    EXPECT_EQ(engine->outcome(q).state, QueryOutcome::State::kAnswered);
  }
  EXPECT_EQ(engine->metrics().partitions_evaluated, 3u);
}

// --------------------------------------------------------- incremental ----

TEST_F(EngineTest, IncrementalAnswersOnPartnerArrival) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  auto kramer = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"));
  ASSERT_TRUE(kramer.ok());
  // Kramer waits: no partner yet (incremental mode keeps him pending).
  EXPECT_EQ(engine->outcome(*kramer).state, QueryOutcome::State::kPending);

  auto jerry = engine->Submit(
      Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris), A(y, United)"));
  ASSERT_TRUE(jerry.ok());
  // Jerry's arrival completes the partition: answered immediately.
  EXPECT_EQ(engine->outcome(*kramer).state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(engine->outcome(*jerry).state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(engine->outcome(*kramer).tuples[0].args[1],
            engine->outcome(*jerry).tuples[0].args[1]);
}

TEST_F(EngineTest, IncrementalOrderIndependence) {
  for (bool jerry_first : {false, true}) {
    QueryContext ctx;
    db::Database db(&ctx.interner());
    ASSERT_TRUE(db.CreateTable("F", {{"fno", ValueType::kInt},
                                     {"dest", ValueType::kString}})
                    .ok());
    ASSERT_TRUE(
        db.Insert("F", {Value::Int(7), Value::Str(ctx.Intern("Paris"))}).ok());
    CoordinationEngine engine(&ctx, &db, {.mode = EvalMode::kIncremental});
    ir::Parser parser(&ctx);
    auto kramer = parser.ParseQuery("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)");
    auto jerry = parser.ParseQuery("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)");
    ASSERT_TRUE(kramer.ok() && jerry.ok());
    Result<QueryId> first = jerry_first ? engine.Submit(*jerry)
                                        : engine.Submit(*kramer);
    Result<QueryId> second = jerry_first ? engine.Submit(*kramer)
                                         : engine.Submit(*jerry);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(engine.outcome(*first).state, QueryOutcome::State::kAnswered);
    EXPECT_EQ(engine.outcome(*second).state, QueryOutcome::State::kAnswered);
  }
}

TEST_F(EngineTest, IncrementalNoDataStaysPending) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  auto a = engine->Submit(Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Oslo)"));
  auto b = engine->Submit(Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Oslo)"));
  ASSERT_TRUE(a.ok() && b.ok());
  // Matched, but the database has no Oslo flights: remain pending (new
  // partners might still join the group).
  EXPECT_EQ(engine->outcome(*a).state, QueryOutcome::State::kPending);
  EXPECT_EQ(engine->outcome(*b).state, QueryOutcome::State::kPending);
  // A forced flush resolves them as failures.
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->outcome(*a).state, QueryOutcome::State::kFailed);
  EXPECT_EQ(engine->outcome(*a).status.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, IncrementalConflictFailsConflictedQueryOnly) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  auto q0 = engine->Submit(
      Parse("{K(x1), L(x2)} T(x3) :- F(x1, Paris), F(x2, Paris), "
            "F(x3, Paris)"));
  auto q1 = engine->Submit(Parse("{T(122)} K(y1) :- F(y1, Paris)"));
  auto q2 = engine->Submit(Parse("{T(123)} L(z2) :- F(z2, Paris)"));
  ASSERT_TRUE(q0.ok() && q1.ok() && q2.ok());
  // q0's head T(x3) cannot satisfy both T(122) (q1) and T(123) (q2). In
  // incremental mode the engine fails exactly one query — the one at which
  // the conflict manifests during repair (deterministically the newcomer,
  // q2, whose requirement contradicts the already-established x3 = 122) —
  // and returns the others to waiting for future partners.
  int failed = 0, pending = 0;
  for (ir::QueryId q : {*q0, *q1, *q2}) {
    const auto& outcome = engine->outcome(q);
    if (outcome.state == QueryOutcome::State::kFailed) {
      ++failed;
      EXPECT_EQ(outcome.status.code(), StatusCode::kUnsatisfiable);
    } else if (outcome.state == QueryOutcome::State::kPending) {
      ++pending;
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(pending, 2);
  EXPECT_EQ(engine->outcome(*q2).state, QueryOutcome::State::kFailed);
}

TEST_F(EngineTest, IncrementalSelfContainedQueryAnswersImmediately) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  // No postconditions: an entangled query degenerates to a plain query.
  auto q = engine->Submit(Parse("{} R(Newman, x) :- F(x, Rome)"));
  ASSERT_TRUE(q.ok());
  const auto& outcome = engine->outcome(*q);
  ASSERT_EQ(outcome.state, QueryOutcome::State::kAnswered);
  ASSERT_EQ(outcome.tuples.size(), 1u);
  EXPECT_EQ(outcome.tuples[0].args[1], Value::Int(136));
}

TEST_F(EngineTest, ChooseKDeliversMultipleTuples) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  auto a = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris) choose 2"));
  auto b = engine->Submit(
      Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris) choose 2"));
  ASSERT_TRUE(a.ok() && b.ok());
  const auto& outcome = engine->outcome(*a);
  ASSERT_EQ(outcome.state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(outcome.tuples.size(), 2u);
  EXPECT_NE(outcome.tuples[0].args[1], outcome.tuples[1].args[1]);
}

// ------------------------------------------------------------- safety ----

TEST_F(EngineTest, UnsafeSubmissionIsRejected) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  ASSERT_TRUE(engine
                  ->Submit(Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"))
                  .ok());
  ASSERT_TRUE(engine
                  ->Submit(Parse("{R(Jerry, y)} R(Elaine, y) :- F(y, Paris)"))
                  .ok());
  // Figure 3 (a): Jerry's wildcard postcondition unifies with both heads.
  auto jerry = engine->Submit(Parse("{R(f, z)} R(Jerry, z) :- F(z, f)"));
  ASSERT_TRUE(jerry.ok());  // submission works; coordination is refused
  EXPECT_EQ(engine->outcome(*jerry).state, QueryOutcome::State::kFailed);
  EXPECT_EQ(engine->outcome(*jerry).status.code(), StatusCode::kUnsafe);
  EXPECT_EQ(engine->metrics().rejected_unsafe, 1u);
}

// ---------------------------------------------------------- staleness ----

TEST_F(EngineTest, StaleQueryExpires) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  auto kramer = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"), /*ttl_ticks=*/5);
  ASSERT_TRUE(kramer.ok());
  engine->AdvanceTime(3);
  EXPECT_EQ(engine->outcome(*kramer).state, QueryOutcome::State::kPending);
  engine->AdvanceTime(5);
  EXPECT_EQ(engine->outcome(*kramer).state, QueryOutcome::State::kFailed);
  EXPECT_EQ(engine->outcome(*kramer).status.code(), StatusCode::kTimeout);
  EXPECT_EQ(engine->metrics().expired, 1u);
}

TEST_F(EngineTest, AnsweredQueryDoesNotExpire) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  auto a = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"), /*ttl_ticks=*/5);
  auto b = engine->Submit(
      Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)"), /*ttl_ticks=*/5);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(engine->outcome(*a).state, QueryOutcome::State::kAnswered);
  engine->AdvanceTime(100);
  EXPECT_EQ(engine->outcome(*a).state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(engine->metrics().expired, 0u);
}

TEST_F(EngineTest, ExpiryUnblocksPartition) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  // Alice↔Bob can coordinate; Carol hangs off Alice's head but needs a
  // partner (Dan) who never arrives. Carol must arrive before Bob so that
  // her unmatched postcondition blocks the partition.
  auto alice = engine->Submit(
      Parse("{R(Bob, x)} R(Alice, x) :- F(x, Paris)"));
  auto carol = engine->Submit(
      Parse("{R(Dan, w), R(Alice, w)} R(Carol, w) :- F(w, Paris)"),
      /*ttl_ticks=*/10);
  auto bob = engine->Submit(
      Parse("{R(Alice, y)} R(Bob, y) :- F(y, Paris)"));
  ASSERT_TRUE(alice.ok() && bob.ok() && carol.ok());
  EXPECT_EQ(engine->outcome(*alice).state, QueryOutcome::State::kPending);

  engine->AdvanceTime(10);
  // Carol expired; Alice and Bob coordinate.
  EXPECT_EQ(engine->outcome(*carol).state, QueryOutcome::State::kFailed);
  EXPECT_EQ(engine->outcome(*carol).status.code(), StatusCode::kTimeout);
  EXPECT_EQ(engine->outcome(*alice).state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(engine->outcome(*bob).state, QueryOutcome::State::kAnswered);
}

TEST_F(EngineTest, AdvanceTimeAfterFlushDoesNotRefireCallback) {
  // Regression: queries resolved by Flush leave stale entries in the
  // deadline heap; expiring those entries later must neither re-fire the
  // answer callback nor count as an expiry.
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  std::map<QueryId, int> calls;
  engine->SetCallback(
      [&](QueryId q, const QueryOutcome&) { ++calls[q]; });
  auto a = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"), /*ttl_ticks=*/5);
  auto b = engine->Submit(
      Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)"), /*ttl_ticks=*/5);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_EQ(engine->outcome(*a).state, QueryOutcome::State::kAnswered);
  ASSERT_EQ(calls[*a], 1);
  ASSERT_EQ(calls[*b], 1);

  engine->AdvanceTime(100);  // pops both stale heap entries
  EXPECT_EQ(calls[*a], 1);
  EXPECT_EQ(calls[*b], 1);
  EXPECT_EQ(engine->outcome(*a).state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(engine->outcome(*b).state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(engine->metrics().expired, 0u);
}

// ---------------------------------------------------------- cancellation --

TEST_F(EngineTest, CancelResolvesPendingQuery) {
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  int calls = 0;
  engine->SetCallback([&](QueryId, const QueryOutcome&) { ++calls; });
  auto kramer = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"));
  ASSERT_TRUE(kramer.ok());
  ASSERT_TRUE(engine->Cancel(*kramer).ok());
  EXPECT_EQ(engine->outcome(*kramer).state, QueryOutcome::State::kFailed);
  EXPECT_EQ(engine->outcome(*kramer).status.code(), StatusCode::kCancelled);
  EXPECT_EQ(engine->pending_count(), 0u);
  EXPECT_EQ(engine->metrics().cancelled, 1u);
  EXPECT_EQ(calls, 1);
  // A second cancel (and cancel of an unknown id) reports NotFound.
  EXPECT_EQ(engine->Cancel(*kramer).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->Cancel(9999).code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
}

TEST_F(EngineTest, CancelledQueryDoesNotPinPartition) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  // Same shape as ExpiryUnblocksPartition, but the blocker disconnects
  // instead of going stale: cancelling Carol must let Alice/Bob coordinate.
  auto alice = engine->Submit(
      Parse("{R(Bob, x)} R(Alice, x) :- F(x, Paris)"));
  auto carol = engine->Submit(
      Parse("{R(Dan, w), R(Alice, w)} R(Carol, w) :- F(w, Paris)"));
  auto bob = engine->Submit(
      Parse("{R(Alice, y)} R(Bob, y) :- F(y, Paris)"));
  ASSERT_TRUE(alice.ok() && bob.ok() && carol.ok());
  EXPECT_EQ(engine->outcome(*alice).state, QueryOutcome::State::kPending);

  ASSERT_TRUE(engine->Cancel(*carol).ok());
  EXPECT_EQ(engine->outcome(*carol).status.code(), StatusCode::kCancelled);
  EXPECT_EQ(engine->outcome(*alice).state, QueryOutcome::State::kAnswered);
  EXPECT_EQ(engine->outcome(*bob).state, QueryOutcome::State::kAnswered);
}

TEST_F(EngineTest, CancelledQueryDoesNotExpireLater) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  int calls = 0;
  engine->SetCallback([&](QueryId, const QueryOutcome&) { ++calls; });
  auto kramer = engine->Submit(
      Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"), /*ttl_ticks=*/5);
  ASSERT_TRUE(kramer.ok());
  ASSERT_TRUE(engine->Cancel(*kramer).ok());
  engine->AdvanceTime(10);  // stale heap entry must not re-fire
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(engine->outcome(*kramer).status.code(), StatusCode::kCancelled);
  EXPECT_EQ(engine->metrics().expired, 0u);
}

// ------------------------------------------------------------ callbacks --

TEST_F(EngineTest, CallbackFiresExactlyOncePerQuery) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  std::map<QueryId, int> calls;
  std::map<QueryId, QueryOutcome::State> states;
  engine->SetCallback([&](QueryId q, const QueryOutcome& outcome) {
    ++calls[q];
    states[q] = outcome.state;
  });
  auto a = engine->Submit(Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"));
  auto b = engine->Submit(Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)"));
  auto lone = engine->Submit(Parse("{R(Ghost, z)} R(Newman, z) :- F(z, Rome)"));
  ASSERT_TRUE(a.ok() && b.ok() && lone.ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(calls[*a], 1);
  EXPECT_EQ(calls[*b], 1);
  EXPECT_EQ(calls[*lone], 1);
  EXPECT_EQ(states[*a], QueryOutcome::State::kAnswered);
  EXPECT_EQ(states[*lone], QueryOutcome::State::kFailed);
  // Nothing pending afterwards; flushing again calls nobody.
  calls.clear();
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(calls.empty());
}

// ----------------------------------------------------------- validation --

TEST_F(EngineTest, ReusedVariablesAreRejected) {
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  ir::EntangledQuery q = Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)");
  ASSERT_TRUE(engine->Submit(q).ok());
  auto dup = engine->Submit(q);  // same VarIds
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  // RenameApart fixes it.
  auto renamed = engine->Submit(ir::RenameApart(q, &ctx_));
  EXPECT_TRUE(renamed.ok());
}

TEST_F(EngineTest, MalformedQueryRejected) {
  auto engine = MakeEngine({.mode = EvalMode::kSetAtATime});
  ir::EntangledQuery q = Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)");
  q.head.clear();
  auto r = engine->Submit(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, MetricsAccumulate) {
  auto engine = MakeEngine({.mode = EvalMode::kIncremental});
  ASSERT_TRUE(
      engine->Submit(Parse("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)")).ok());
  ASSERT_TRUE(
      engine->Submit(Parse("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)")).ok());
  const auto& m = engine->metrics();
  EXPECT_EQ(m.answered, 2u);
  EXPECT_EQ(m.combined_queries, 1u);
  EXPECT_EQ(m.partitions_evaluated, 1u);
  EXPECT_GT(m.match_seconds, 0.0);
  EXPECT_GT(m.db_seconds, 0.0);
}

}  // namespace
}  // namespace eq::engine
