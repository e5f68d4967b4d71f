#include <gtest/gtest.h>
#include "db/database.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/partitioner.h"
#include "ir/parser.h"
#include "service/router.h"
#include "service/service.h"
#include "util/rng.h"

namespace eq::service {
namespace {

using client::Query;
using engine::EvalMode;
using TableWrite = db::Storage::TableWrite;

/// A one-row insert into `table`(int, string), for ApplyBatch.
TableWrite InsertRow(CoordinationService& svc, const char* table, int64_t n,
                     const std::string& s) {
  return TableWrite::Insert(
      table, {ir::Value::Int(n), ir::Value::Str(svc.interner().Intern(s))});
}

/// Every shard gets the Figure 1 flight database (plus a generic relation
/// pool for the routing tests).
void FlightBootstrap(ir::QueryContext* ctx, db::Database* db) {
  ASSERT_TRUE(db->CreateTable("F", {{"fno", ir::ValueType::kInt},
                                    {"dest", ir::ValueType::kString}})
                  .ok());
  ASSERT_TRUE(db->CreateTable("A", {{"fno", ir::ValueType::kInt},
                                    {"airline", ir::ValueType::kString}})
                  .ok());
  auto S = [&](const char* s) { return ir::Value::Str(ctx->Intern(s)); };
  ASSERT_TRUE(db->Insert("F", {ir::Value::Int(122), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("F", {ir::Value::Int(123), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("F", {ir::Value::Int(134), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("F", {ir::Value::Int(136), S("Rome")}).ok());
  ASSERT_TRUE(db->Insert("A", {ir::Value::Int(122), S("United")}).ok());
  ASSERT_TRUE(db->Insert("A", {ir::Value::Int(123), S("United")}).ok());
  ASSERT_TRUE(db->Insert("A", {ir::Value::Int(134), S("Lufthansa")}).ok());
  ASSERT_TRUE(db->Insert("A", {ir::Value::Int(136), S("Alitalia")}).ok());
}

ServiceOptions Opts(uint32_t shards, EvalMode mode = EvalMode::kSetAtATime) {
  ServiceOptions o;
  o.num_shards = shards;
  o.mode = mode;
  o.max_batch = 16;
  o.max_delay_ticks = 1;
  o.bootstrap = FlightBootstrap;
  return o;
}

/// A mutually-coordinating pair entangled through relation `rel`, tagged
/// with distinct users so pairs with distinct relations never unify.
std::pair<std::string, std::string> PairFor(const std::string& rel, int i) {
  std::string a = "K" + std::to_string(i);
  std::string b = "J" + std::to_string(i);
  return {"{" + rel + "(" + b + ", x)} " + rel + "(" + a +
              ", x) :- F(x, Paris)",
          "{" + rel + "(" + a + ", y)} " + rel + "(" + b +
              ", y) :- F(y, Paris)"};
}

// ---------------------------------------------------------------- router --

TEST(QueryRouterTest, ExtractsEntangledRelations) {
  auto rels = QueryRouter::EntangledRelationsOf(
      "kramer: {R(Jerry, x), Gift(Elaine, g)} R(Kramer, x) "
      ":- F(x, Paris), A(x, United)");
  ASSERT_TRUE(rels.ok());
  EXPECT_EQ(*rels, (std::vector<std::string>{"Gift", "R"}));
  // Body relations (F, A) and the label are not entangled relations.
}

TEST(QueryRouterTest, ExtractionIgnoresQuotedText) {
  auto rels = QueryRouter::EntangledRelationsOf(
      "{R('weird :- Rel(', x)} R(Kramer, x) :- F(x, 'dest (odd)')");
  ASSERT_TRUE(rels.ok());
  EXPECT_EQ(*rels, (std::vector<std::string>{"R"}));
  // Double-quoted literals (also accepted by ir::Parser, and emitted by
  // PortableQuery::ToIrText for payloads containing a single quote).
  auto rels2 = QueryRouter::EntangledRelationsOf(
      "{R(\"it's :- Odd(\", x)} R(Kramer, x) :- F(x, \"y'know\")");
  ASSERT_TRUE(rels2.ok());
  EXPECT_EQ(*rels2, (std::vector<std::string>{"R"}));
}

TEST(QueryRouterTest, RejectsTextWithoutEntangledAtoms) {
  auto rels = QueryRouter::EntangledRelationsOf("   choose 2");
  EXPECT_FALSE(rels.ok());
  EXPECT_EQ(rels.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryRouterTest, SharedRelationMeansSameShard) {
  QueryRouter router(8);
  auto a = router.RouteQuery("{R(J, x)} R(K, x) :- F(x, Paris)");
  auto b = router.RouteQuery("{R(K, y)} R(J, y) :- F(y, Paris)");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->shard, b->shard);
  auto c = router.RouteQuery("{Gift(E, g)} Gift(G, g) :- F(g, Rome)");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(router.group_count(), 2u);
}

TEST(QueryRouterTest, DisjointGroupsBalanceAcrossShards) {
  QueryRouter router(4);
  std::set<uint32_t> used;
  for (int i = 0; i < 16; ++i) {
    auto r = router.RouteQuery(PairFor("Rel" + std::to_string(i), i).first);
    ASSERT_TRUE(r.ok());
    used.insert(r->shard);
  }
  // 16 independent groups over 4 shards, least-loaded placement: all used.
  EXPECT_EQ(used.size(), 4u);
}

TEST(QueryRouterTest, MergeReportsMovedRelations) {
  QueryRouter router(2);
  // Two groups pinned to distinct shards (least-loaded placement).
  auto a = router.RouteQuery("{Ra(J, x)} Ra(K, x) :- F(x, Paris)");
  auto b = router.RouteQuery("{Rb(J, y), Rc(E, y)} Rb(K, y) :- F(y, Paris)");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE(a->shard, b->shard);
  EXPECT_TRUE(a->moved_relations.empty());
  EXPECT_TRUE(b->moved_relations.empty());
  // Grow group Ra so it wins the merge.
  ASSERT_TRUE(router.RouteQuery("{Ra(K, z)} Ra(J, z) :- F(z, Paris)").ok());
  // Bridge: the Rb/Rc group loses and every one of its relations moves.
  auto bridge =
      router.RouteQuery("{Ra(J, w), Rb(K, w)} Ra(K, w) :- F(w, Paris)");
  ASSERT_TRUE(bridge.ok());
  EXPECT_TRUE(bridge->merged_groups);
  EXPECT_EQ(bridge->shard, a->shard);
  std::vector<std::string> moved = bridge->moved_relations;
  std::sort(moved.begin(), moved.end());
  EXPECT_EQ(moved, (std::vector<std::string>{"Rb", "Rc"}));
  EXPECT_EQ(router.ShardOfRelation("Rc"), a->shard);
}

TEST(QueryRouterTest, RouteRelationsMatchesRouteQuery) {
  QueryRouter by_text(4), by_rels(4);
  auto a = by_text.RouteQuery("{R(J, x), Gift(E, g)} R(K, x) :- F(x, P)");
  auto b = by_rels.RouteRelations({"Gift", "R"});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->shard, b->shard);
  EXPECT_EQ(a->relations, b->relations);
  EXPECT_FALSE(by_rels.RouteRelations({}).ok());
}

/// Property test: any two queries sharing an entangled relation are routed
/// to the same shard, on randomized multi-relation workloads, checked
/// against the ground truth of core::Partitioner::RelationComponents.
TEST(QueryRouterTest, ColocationMatchesRelationComponents) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    QueryRouter router(1 + rng.Below(7));
    ir::QueryContext ctx;
    ir::QuerySet qs;
    std::vector<uint32_t> shard_of;
    const int num_rels = 2 + static_cast<int>(rng.Below(10));
    const int num_queries = 1 + static_cast<int>(rng.Below(40));
    ir::Parser parser(&ctx);
    for (int q = 0; q < num_queries; ++q) {
      // 1-3 entangled relations drawn from a small pool → frequent overlap
      // and occasional multi-group merges.
      std::set<int> picks;
      int k = 1 + static_cast<int>(rng.Below(std::min(3, num_rels)));
      while (static_cast<int>(picks.size()) < k) {
        picks.insert(static_cast<int>(rng.Below(num_rels)));
      }
      std::string pc, head;
      int idx = 0;
      for (int rel : picks) {
        std::string r = "Rel" + std::to_string(rel);
        if (idx == 0) {
          head = r + "(U" + std::to_string(q) + ", x)";
        } else {
          if (!pc.empty()) pc += ", ";
          pc += r + "(V" + std::to_string(q) + "_" + std::to_string(idx) +
                ", x)";
        }
        ++idx;
      }
      if (pc.empty()) {
        pc = "Rel" + std::to_string(*picks.begin()) + "(W" +
             std::to_string(q) + ", x)";
      }
      std::string text = "{" + pc + "} " + head + " :- F(x, Paris)";
      auto decision = router.RouteQuery(text);
      ASSERT_TRUE(decision.ok()) << text;
      shard_of.push_back(decision->shard);
      auto parsed = parser.ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << text;
      qs.queries.push_back(std::move(*parsed));
    }
    qs.AssignIds();
    // Ground truth: after all merges, every relation component must sit on
    // one shard. (Current router state — earlier placements may have been
    // migrated, which the service layer handles; the router's final answer
    // is what governs placement.)
    for (const auto& component : core::Partitioner::RelationComponents(qs)) {
      std::set<uint32_t> shards;
      for (ir::QueryId q : component) {
        for (SymbolId rel :
             core::Partitioner::EntangledRelations(qs.queries[q])) {
          shards.insert(
              router.ShardOfRelation(ctx.interner().Name(rel)));
        }
      }
      EXPECT_EQ(shards.size(), 1u)
          << "round " << round << ": relation component spans shards";
    }
    (void)shard_of;
  }
}

// --------------------------------------------------------------- service --

TEST(CoordinationServiceTest, PairCoordinatesAcrossSubmissions) {
  CoordinationService svc(Opts(4));
  auto [qa, qb] = PairFor("R", 0);
  auto ta = svc.Submit(Query::Ir(qa));
  auto tb = svc.Submit(Query::Ir(qb));
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_TRUE(svc.Drain());
  ASSERT_TRUE(ta->Done() && tb->Done());
  EXPECT_EQ(ta->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_EQ(tb->outcome().state, ServiceOutcome::State::kAnswered);
  ASSERT_EQ(ta->outcome().tuples.size(), 1u);
  // Coordinated: both sides name the same flight.
  std::string fa = ta->outcome().tuples[0];
  std::string fb = tb->outcome().tuples[0];
  EXPECT_EQ(fa.substr(fa.find(',')), fb.substr(fb.find(',')));
}

TEST(CoordinationServiceTest, CallbackDeliveryAndFutureAgree) {
  CoordinationService svc(Opts(2));
  std::atomic<int> calls{0};
  ServiceOutcome via_callback;
  auto [qa, qb] = PairFor("R", 1);
  auto ta = svc.Submit(
      Query::Ir(qa), {.callback = [&](TicketId, const ServiceOutcome& o) {
    via_callback = o;
    calls.fetch_add(1);
  }});
  auto tb = svc.Submit(Query::Ir(qb));
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_TRUE(svc.Drain());
  ta->Wait();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(via_callback.state, ServiceOutcome::State::kAnswered);
}

TEST(CoordinationServiceTest, DisjointPairsSpreadOverShardsAndAllAnswer) {
  const int kPairs = 32;
  CoordinationService svc(Opts(4));
  std::vector<Ticket> tickets;
  for (int i = 0; i < kPairs; ++i) {
    auto [qa, qb] = PairFor("Rel" + std::to_string(i), i);
    auto ta = svc.Submit(Query::Ir(qa));
    auto tb = svc.Submit(Query::Ir(qb));
    ASSERT_TRUE(ta.ok() && tb.ok());
    tickets.push_back(*ta);
    tickets.push_back(*tb);
  }
  ASSERT_TRUE(svc.Drain());
  for (const Ticket& t : tickets) {
    ASSERT_TRUE(t.Done());
    EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered)
        << t.outcome().status.ToString();
  }
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.answered, 2u * kPairs);
  EXPECT_EQ(m.pending, 0u);
  // Every shard took part of the load.
  for (const auto& shard : m.shards) {
    EXPECT_GT(shard.submitted, 0u) << "shard " << shard.shard_id;
  }
}

/// A k-way ring entangled through relation `rel`: member i waits for member
/// i+1 to take the same flight.
std::vector<std::string> RingFor(const std::string& rel, int k) {
  std::vector<std::string> ring;
  for (int i = 0; i < k; ++i) {
    std::string self = "U" + std::to_string(i);
    std::string next = "U" + std::to_string((i + 1) % k);
    ring.push_back("{" + rel + "(" + next + ", x)} " + rel + "(" + self +
                   ", x) :- F(x, Paris)");
  }
  return ring;
}

TEST(CoordinationServiceTest, DrainedEnginesHoldOnlyTheOutcomeLog) {
  // N groups, then 10N more: once drained, every shard's engine holds no
  // query state, and the only figure that grew is the outcome log.
  constexpr int kGroups = 8;
  constexpr int kRing = 3;
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  int group = 0;
  auto answer_groups = [&](int n) {
    for (int i = 0; i < n; ++i, ++group) {
      // One group at a time, so the most a shard holds at once is a ring.
      std::vector<Ticket> tickets;
      for (const std::string& q : RingFor("Ring" + std::to_string(group),
                                          kRing)) {
        auto t = svc.Submit(Query::Ir(q));
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        tickets.push_back(*t);
      }
      for (Ticket& t : tickets) {
        t.Wait();
        ASSERT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered)
            << t.outcome().status.ToString();
      }
    }
    ASSERT_TRUE(svc.Drain());
  };
  auto held = [](const engine::EngineFootprint& f) {
    engine::EngineFootprint h = f;
    h.outcomes = 0;
    return h;
  };

  answer_groups(kGroups);
  ServiceStateDump first = svc.DumpState();
  answer_groups(10 * kGroups);
  ServiceStateDump last = svc.DumpState();

  ASSERT_EQ(first.shards.size(), 2u);
  ASSERT_EQ(last.shards.size(), 2u);
  size_t outcomes = 0;
  for (size_t s = 0; s < last.shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const engine::EngineFootprint& f = last.shards[s].footprint;
    EXPECT_EQ(f.slots_in_use, 0u);
    EXPECT_EQ(f.index_entries, 0u);
    EXPECT_EQ(f.edges_in_use, 0u);
    EXPECT_EQ(f.tracked_variables, 0u);
    EXPECT_EQ(f.awaiting_release, 0u);
    // Freed capacity is what one ring needed, reused by every later ring.
    EXPECT_LE(f.slots_free, static_cast<size_t>(kRing));
    EXPECT_LE(f.edges_free, static_cast<size_t>(kRing));
    ASSERT_GT(first.shards[s].footprint.outcomes, 0u)
        << "the first phase routed no group here";
    EXPECT_EQ(held(f), held(first.shards[s].footprint));
    outcomes += f.outcomes;
  }
  EXPECT_EQ(outcomes, static_cast<size_t>(11 * kGroups * kRing));
  EXPECT_NE(last.ToString().find("awaiting_release=0"), std::string::npos);
}

TEST(CoordinationServiceTest, PartnerlessQueryFailsOnFlush) {
  CoordinationService svc(Opts(2));
  auto t = svc.Submit(Query::Ir("{R(Ghost, x)} R(Newman, x) :- F(x, Rome)"));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(t->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(t->outcome().status.code(), StatusCode::kUnsatisfiable);
}

TEST(CoordinationServiceTest, ParseErrorFailsSynchronously) {
  // Routable (R appears applied) but unparsable: the edge parses IR at
  // submission now, so all three dialects report malformed input before a
  // ticket exists.
  CoordinationService svc(Opts(2));
  auto t = svc.Submit(Query::Ir("{R(J, x)} R(K, x :- F(x,"));  // malformed
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kParseError);
  EXPECT_EQ(svc.Metrics().parse_errors, 1u);
  EXPECT_EQ(svc.inflight_count(), 0u);
}

TEST(CoordinationServiceTest, UnroutableTextFailsSynchronously) {
  CoordinationService svc(Opts(2));
  auto t = svc.Submit(Query::Ir("not a query at all"));
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CoordinationServiceTest, CancelResolvesAsCancelled) {
  CoordinationService svc(Opts(2));
  auto t = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(svc.Cancel(*t).ok());
  t->Wait();
  EXPECT_EQ(t->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(t->outcome().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(svc.inflight_count(), 0u);
  // Cancelling again: the ticket already left the inflight table.
  EXPECT_EQ(svc.Cancel(*t).code(), StatusCode::kNotFound);
}

TEST(CoordinationServiceTest, ManualTicksExpireStaleQueries) {
  // Incremental mode: a partnerless query waits (no batch flush to fail
  // it), so the staleness clock is what resolves it.
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  auto t = svc.Submit(
      Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"), {.ttl_ticks = 3});
  ASSERT_TRUE(t.ok());
  svc.AdvanceTicks(5);
  ASSERT_TRUE(t->WaitFor(std::chrono::milliseconds(2000)));
  EXPECT_EQ(t->outcome().status.code(), StatusCode::kTimeout);
  EXPECT_EQ(svc.Metrics().expired, 1u);
}

TEST(CoordinationServiceTest, WallClockTickerExpiresStaleQueries) {
  ServiceOptions o = Opts(2, EvalMode::kIncremental);
  o.tick_interval = std::chrono::milliseconds(5);
  CoordinationService svc(o);
  auto t = svc.Submit(
      Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"), {.ttl_ticks = 3});
  ASSERT_TRUE(t.ok());
  // ~15ms of wall clock; give the ticker ample slack.
  ASSERT_TRUE(t->WaitFor(std::chrono::milliseconds(5000)));
  EXPECT_EQ(t->outcome().status.code(), StatusCode::kTimeout);
}

TEST(CoordinationServiceTest, GroupMergeMigratesStrandedQueries) {
  // Force two groups onto different shards, then bridge them: the stranded
  // side must migrate so the three-way cycle coordinates on one shard.
  CoordinationService svc(Opts(2));
  // Group Ra → shard A (least-loaded placement), group Rb → shard B.
  auto t1 = svc.Submit(Query::Ir("{Ra(Bob, x)} Ra(Alice, x) :- F(x, Paris)"));
  auto t2 = svc.Submit(Query::Ir("{Rb(Carol, y)} Rb(Dan, y) :- F(y, Paris)"));
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_NE(svc.router().ShardOfRelation("Ra"),
            svc.router().ShardOfRelation("Rb"));
  // Bridge: answers Alice's postcondition, needs Dan's head relation.
  auto t3 = svc.Submit(
      Query::Ir("{Ra(Alice, z), Rb(Dan, z)} Ra(Bob, z), Rb(Carol, z) "
                ":- F(z, Paris)"));
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(svc.router().ShardOfRelation("Ra"),
            svc.router().ShardOfRelation("Rb"));
  ASSERT_TRUE(svc.Drain());
  ServiceMetrics m = svc.Metrics();
  EXPECT_GE(m.migrations, 1u);
  EXPECT_EQ(t1->outcome().state, ServiceOutcome::State::kAnswered)
      << t1->outcome().status.ToString();
  EXPECT_EQ(t2->outcome().state, ServiceOutcome::State::kAnswered)
      << t2->outcome().status.ToString();
  EXPECT_EQ(t3->outcome().state, ServiceOutcome::State::kAnswered)
      << t3->outcome().status.ToString();
}

TEST(CoordinationServiceTest, CancelDuringMigrationStillResolves) {
  // Regression: a cancel racing a group-merge migration used to be sent to
  // the old shard (which had already extracted the query) and get lost,
  // leaving the ticket pending forever.
  CoordinationService svc(Opts(2));
  auto t1 = svc.Submit(Query::Ir("{Ra(Bob, x)} Ra(Alice, x) :- F(x, Paris)"));
  auto t2 = svc.Submit(Query::Ir("{Rb(Carol, y)} Rb(Dan, y) :- F(y, Paris)"));
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto t3 = svc.Submit(
      Query::Ir("{Ra(Alice, z), Rb(Dan, z)} Ra(Bob, z), Rb(Carol, z) "
                ":- F(z, Paris)"));
  ASSERT_TRUE(t3.ok());
  // One of t1/t2 is now stranded and mid-migration; withdraw both sides —
  // each must resolve (as Cancelled) whichever path its cancel takes.
  EXPECT_TRUE(svc.Cancel(*t1).ok());
  EXPECT_TRUE(svc.Cancel(*t2).ok());
  ASSERT_TRUE(svc.Drain());
  ASSERT_TRUE(t1->WaitFor(std::chrono::milliseconds(5000)));
  ASSERT_TRUE(t2->WaitFor(std::chrono::milliseconds(5000)));
  ASSERT_TRUE(t3->WaitFor(std::chrono::milliseconds(5000)));
  EXPECT_EQ(t1->outcome().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(t2->outcome().status.code(), StatusCode::kCancelled);
  // The bridge query lost both partners: failed, not hung.
  EXPECT_EQ(t3->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(svc.inflight_count(), 0u);
}

TEST(CoordinationServiceTest, DestructorResolvesPendingTickets) {
  // Regression: destroying the service with unresolved queries must fail
  // their tickets, not leave waiters blocked forever.
  Ticket t;
  {
    CoordinationService svc(Opts(2));
    auto r = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
    ASSERT_TRUE(r.ok());
    t = *r;
  }  // no Drain
  ASSERT_TRUE(t.Done());
  EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(t.outcome().status.code(), StatusCode::kCancelled);
}

TEST(CoordinationServiceTest, InvalidTicketAccessorsAreSafe) {
  Ticket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.id(), 0u);
  EXPECT_TRUE(empty.Done());
  EXPECT_TRUE(empty.WaitFor(std::chrono::milliseconds(1)));
  EXPECT_EQ(empty.Wait().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(empty.outcome().status.code(), StatusCode::kInvalidArgument);
}

TEST(CoordinationServiceTest, IncrementalModeAnswersWithoutFlush) {
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  auto [qa, qb] = PairFor("R", 2);
  auto ta = svc.Submit(Query::Ir(qa));
  auto tb = svc.Submit(Query::Ir(qb));
  ASSERT_TRUE(ta.ok() && tb.ok());
  // No Drain: incremental engines answer on partner arrival.
  ASSERT_TRUE(ta->WaitFor(std::chrono::milliseconds(5000)));
  ASSERT_TRUE(tb->WaitFor(std::chrono::milliseconds(5000)));
  EXPECT_EQ(ta->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_EQ(tb->outcome().state, ServiceOutcome::State::kAnswered);
}

TEST(CoordinationServiceTest, MetricsAggregateAcrossShards) {
  CoordinationService svc(Opts(3));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 12; ++i) {
    auto [qa, qb] = PairFor("Rel" + std::to_string(i), i);
    tickets.push_back(*svc.Submit(Query::Ir(qa)));
    tickets.push_back(*svc.Submit(Query::Ir(qb)));
  }
  // One partnerless straggler and one cancel.
  auto lone = svc.Submit(
      Query::Ir("{Lone(Ghost, x)} Lone(Newman, x) :- F(x, Rome)"));
  auto gone = svc.Submit(Query::Ir("{Gone(A, x)} Gone(B, x) :- F(x, Rome)"));
  ASSERT_TRUE(lone.ok() && gone.ok());
  ASSERT_TRUE(svc.Cancel(*gone).ok());
  ASSERT_TRUE(svc.Drain());

  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.submitted, 26u);
  EXPECT_EQ(m.answered, 24u);
  EXPECT_EQ(m.failed, 2u);
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.pending, 0u);
  EXPECT_EQ(m.shards.size(), 3u);
  uint64_t per_shard_sum = 0;
  for (const auto& s : m.shards) per_shard_sum += s.submitted;
  EXPECT_EQ(per_shard_sum, m.submitted);
  EXPECT_GT(m.p50_latency_ms, 0.0);
  EXPECT_GE(m.p99_latency_ms, m.p50_latency_ms);
  EXPECT_FALSE(m.ToString().empty());
}

// The ThreadSanitizer workhorse: many client threads submitting and
// cancelling against a live staleness ticker, across shards.
TEST(CoordinationServiceTest, ConcurrentSubmitCancelAndTicker) {
  // Incremental mode: coordination fires on partner arrival, so batch
  // windows cannot split a pair and the exact answered count is stable.
  ServiceOptions o = Opts(4, EvalMode::kIncremental);
  o.tick_interval = std::chrono::milliseconds(1);
  o.max_delay_ticks = 2;
  CoordinationService svc(o);

  constexpr int kThreads = 4;
  constexpr int kPairsPerThread = 25;
  std::atomic<int> cancelled_ok{0};
  std::vector<std::thread> clients;
  std::vector<std::vector<Ticket>> per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPairsPerThread; ++i) {
        std::string rel =
            "T" + std::to_string(t) + "_" + std::to_string(i);
        auto [qa, qb] = PairFor(rel, t * 1000 + i);
        auto ta = svc.Submit(Query::Ir(qa), {.ttl_ticks = 1000000});
        auto tb = svc.Submit(Query::Ir(qb), {.ttl_ticks = 1000000});
        ASSERT_TRUE(ta.ok() && tb.ok());
        per_thread[t].push_back(*ta);
        per_thread[t].push_back(*tb);
        // Sprinkle cancellations on a partnerless extra query.
        if (i % 5 == 0) {
          auto tc = svc.Submit(Query::Ir("{X" + rel + "(A, x)} X" + rel +
                                         "(B, x) :- F(x, Rome)"));
          ASSERT_TRUE(tc.ok());
          if (svc.Cancel(*tc).ok()) cancelled_ok.fetch_add(1);
          per_thread[t].push_back(*tc);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_TRUE(svc.Drain());
  for (const auto& tickets : per_thread) {
    for (const Ticket& t : tickets) {
      ASSERT_TRUE(t.WaitFor(std::chrono::milliseconds(10000)));
    }
  }
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.pending, 0u);
  EXPECT_EQ(m.submitted, m.answered + m.failed + m.migrations);
  // Every coordinating pair answered (TTL is generous; ticks only flush).
  EXPECT_GE(m.answered, 2u * kThreads * kPairsPerThread);
}

// ----------------------------------------- shared snapshots & writes ----

TEST(SharedSnapshotTest, BootstrapRunsOnceAndShardsShareTableVersions) {
  // Tentpole invariant: with N=8 shards the bootstrap runs exactly once
  // (against the shared storage), and every shard's adopted snapshot
  // references the SAME immutable TableVersion objects by pointer — no
  // per-shard copies, startup independent of shard count.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ServiceOptions o = Opts(8);
  o.bootstrap = [calls](ir::QueryContext* ctx, db::Database* db) {
    calls->fetch_add(1);
    FlightBootstrap(ctx, db);
  };
  CoordinationService svc(o);
  EXPECT_EQ(calls->load(), 1);

  // Run a little traffic so every shard is demonstrably live.
  std::vector<Ticket> tickets;
  for (int i = 0; i < 16; ++i) {
    auto [qa, qb] = PairFor("Rel" + std::to_string(i), i);
    auto a = svc.Submit(Query::Ir(qa));
    auto b = svc.Submit(Query::Ir(qb));
    ASSERT_TRUE(a.ok() && b.ok());
    tickets.push_back(*a);
    tickets.push_back(*b);
  }
  ASSERT_TRUE(svc.Drain());
  for (const Ticket& t : tickets) {
    EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered);
  }

  db::Snapshot master = svc.storage().Current();
  const db::TableVersion* f = master.GetTable("F");
  const db::TableVersion* a = master.GetTable("A");
  ASSERT_NE(f, nullptr);
  ASSERT_NE(a, nullptr);
  for (uint32_t s = 0; s < svc.num_shards(); ++s) {
    db::Snapshot shard_view = svc.ShardSnapshot(s);
    ASSERT_TRUE(shard_view.valid());
    EXPECT_EQ(shard_view.GetTable("F"), f) << "shard " << s;
    EXPECT_EQ(shard_view.GetTable("A"), a) << "shard " << s;
  }
}

TEST(SharedSnapshotTest, WriteRoundTripVisibleAfterNextFlush) {
  // Live write ingestion: a row written through the service becomes part
  // of a new published version, and a pair coordinating on it answers
  // after the shards' next flush boundary.
  CoordinationService svc(Opts(4));
  // Barrier: every shard has adopted the bootstrap version before the
  // write, so the visibility below provably goes through a refresh.
  svc.FlushAll();
  uint64_t v0 = svc.storage().version();
  ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "F", 800, "Vienna")}).ok());
  EXPECT_EQ(svc.storage().version(), v0 + 1);

  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Vienna)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Vienna)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());
  ASSERT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered)
      << a->outcome().status.ToString();
  ASSERT_EQ(b->outcome().state, ServiceOutcome::State::kAnswered)
      << b->outcome().status.ToString();
  EXPECT_NE(a->outcome().tuples[0].find("800"), std::string::npos);
  // The owning shard refreshed to the written version.
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.max_snapshot_version, svc.storage().version());
  EXPECT_GE(m.snapshot_refreshes, 1u);
}

TEST(SharedSnapshotTest, ApplyBatchPublishesOneVersion) {
  CoordinationService svc(Opts(2));
  uint64_t v0 = svc.storage().version();
  std::vector<db::Storage::TableWrite> writes;
  for (int i = 0; i < 8; ++i) {
    writes.push_back({"F", {ir::Value::Int(900 + i),
                            ir::Value::Str(svc.interner().Intern("Oslo"))}});
  }
  ASSERT_TRUE(svc.ApplyBatch(writes).ok());
  EXPECT_EQ(svc.storage().version(), v0 + 1);

  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Oslo)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Oslo)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_EQ(b->outcome().state, ServiceOutcome::State::kAnswered);
}

TEST(SharedSnapshotTest, ConcurrentWritersAndSubmittersStayConsistent) {
  // Races exercised under TSan: writer threads publishing new versions
  // through the shared storage while client threads submit coordinating
  // pairs (including pairs that can only answer once some write landed:
  // each round writes its destination BEFORE submitting the pair that
  // joins on it, so after a final drain everything must have answered).
  constexpr int kWriters = 2;
  constexpr int kClients = 3;
  constexpr int kRounds = 25;
  // Incremental mode: each pair coordinates on partner arrival (a batch
  // window cannot split it into a partnerless failure), and the shard
  // refreshes its snapshot before every submit — so the write that each
  // round performs before submitting is always visible to its own pair.
  ServiceOptions o = Opts(4, EvalMode::kIncremental);
  o.max_delay_ticks = 1;
  CoordinationService svc(o);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&svc, &stop, w] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(
            svc.ApplyBatch({InsertRow(svc, "F", 10000 + w * 100000 + i,
                                      "Noise")})
                .ok());
        ++i;
        std::this_thread::yield();
      }
    });
  }

  std::vector<std::vector<Ticket>> per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&svc, &per_client, c] {
      for (int i = 0; i < kRounds; ++i) {
        std::string dest = "City" + std::to_string(c) + "_" +
                           std::to_string(i);
        ASSERT_TRUE(
            svc.ApplyBatch({InsertRow(svc, "F", 20000 + c * 1000 + i, dest)})
                .ok());
        std::string rel =
            "W" + std::to_string(c) + "_" + std::to_string(i);
        auto a = svc.Submit(Query::Ir("{" + rel + "(B, x)} " + rel +
                                      "(A, x) :- F(x, " + dest + ")"));
        auto b = svc.Submit(Query::Ir("{" + rel + "(A, y)} " + rel +
                                      "(B, y) :- F(y, " + dest + ")"));
        ASSERT_TRUE(a.ok() && b.ok());
        per_client[c].push_back(*a);
        per_client[c].push_back(*b);
        if (i % 8 == 0) svc.AdvanceTicks(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  ASSERT_TRUE(svc.Drain());
  for (const auto& tickets : per_client) {
    for (const Ticket& t : tickets) {
      EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered)
          << t.outcome().status.ToString();
    }
  }
  EXPECT_GE(svc.storage().version(),
            1u + kClients * kRounds);  // every write published a version
}

// ------------------------------------------------ reactive wake-ups ----

/// Polls the aggregated pending gauge until it reaches `n` — i.e. the
/// shard threads have demonstrably processed the submissions and the
/// queries sit pending in their engines.
void WaitForPending(CoordinationService& svc, uint64_t n) {
  for (int i = 0; i < 5000 && svc.Metrics().pending < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(svc.Metrics().pending, n);
}

/// Polls until `wakeup_satisfied` reaches `n` and returns the metrics.
/// Ticket futures resolve inside the wake-up, a moment before the shard
/// thread publishes the wake-up counters — a reader woken by the ticket
/// must give the gauge that moment.
ServiceMetrics WaitForWakeupSatisfied(CoordinationService& svc, uint64_t n) {
  ServiceMetrics m = svc.Metrics();
  for (int i = 0; i < 5000 && m.wakeup_satisfied < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    m = svc.Metrics();
  }
  return m;
}

TEST(ReactiveWakeupTest, WriteAloneAnswersPendingPairIncremental) {
  // The acceptance scenario: a matched pair pending on data that does not
  // exist yet is answered by the write ALONE — no Submit, no flush, no
  // tick after the write.
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Vienna)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Vienna)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);
  EXPECT_FALSE(a->Done());
  EXPECT_FALSE(b->Done());

  ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "F", 800, "Vienna")}).ok());
  // Nothing else: the WriteNotify wake-up is the only possible resolver.
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered)
      << a->outcome().status.ToString();
  EXPECT_EQ(b->outcome().state, ServiceOutcome::State::kAnswered)
      << b->outcome().status.ToString();
  EXPECT_NE(a->outcome().tuples[0].find("800"), std::string::npos);

  ServiceMetrics m = WaitForWakeupSatisfied(svc, 2);
  EXPECT_GE(m.write_wakeups, 1u);
  EXPECT_GE(m.wakeup_reevals, 1u);
  EXPECT_EQ(m.wakeup_satisfied, 2u);
  EXPECT_EQ(m.max_snapshot_version, svc.storage().version());
}

TEST(ReactiveWakeupTest, WriteWakesSetAtATimePairBeforeAnyFlush) {
  // Set-at-a-time: matching normally waits for a flush, but a wake-up
  // propagates the affected partition and answers it when it is fully
  // coordinable — the write is the third wake-up source next to arrivals
  // and ticks. No ticks and no Drain anywhere in this test.
  CoordinationService svc(Opts(2));  // kSetAtATime, no ticker
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Lisbon)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Lisbon)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);

  ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "F", 900, "Lisbon")}).ok());
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_EQ(b->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_EQ(WaitForWakeupSatisfied(svc, 2).wakeup_satisfied, 2u);
  // The wake-up must not have flushed (it evaluates only the affected
  // partition; a flush would have failed partnerless stragglers).
  EXPECT_EQ(svc.Metrics().flushes, 0u);
}

TEST(ReactiveWakeupTest, UnrelatedWritesDoNotWakeAnyone) {
  // The pending pair reads F only; writes to A must not generate
  // WriteNotify traffic (the index is per-relation, not a broadcast).
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Quito)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Quito)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "A", 7000 + i, "NoAir")}).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(svc.Metrics().write_wakeups, 0u);
  EXPECT_FALSE(a->Done());

  // The relevant write still works after the noise.
  ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "F", 801, "Quito")}).ok());
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_GE(svc.Metrics().write_wakeups, 1u);
}

TEST(ReactiveWakeupTest, DeleteInvalidatesPreviouslyMatchableBody) {
  // F(136, Rome) exists at bootstrap. The pair is matchable when
  // submitted, but a delete lands before any evaluation: the wake-up
  // re-evaluates against the fresh snapshot (no data -> stays pending),
  // and the eventual flush must NOT resurrect the deleted row.
  CoordinationService svc(Opts(2));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Rome)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Rome)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);

  size_t removed = 0;
  ir::Value rome = ir::Value::Str(svc.interner().Intern("Rome"));
  ASSERT_TRUE(
      svc.ApplyBatch({TableWrite::Delete("F", db::Predicate::Eq(1, rome))},
                     &removed)
          .ok());
  EXPECT_EQ(removed, 1u);
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(a->outcome().status.code(), StatusCode::kNotFound)
      << a->outcome().status.ToString();
  EXPECT_EQ(b->outcome().state, ServiceOutcome::State::kFailed);
}

TEST(ReactiveWakeupTest, UpdateRedirectsPendingCoordination) {
  // An update both retracts and asserts: the pair waits on Sydney, and
  // rerouting an existing flight there satisfies it.
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Sydney)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Sydney)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);

  size_t updated = 0;
  ir::Value sydney = ir::Value::Str(svc.interner().Intern("Sydney"));
  ASSERT_TRUE(svc.ApplyBatch({TableWrite::Update(
                                 "F", db::Predicate::Eq(0, ir::Value::Int(136)),
                                 {{1, sydney}})},
                             &updated)
                  .ok());
  EXPECT_EQ(updated, 1u);
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_NE(a->outcome().tuples[0].find("136"), std::string::npos);
}

// ------------------------------------------------ declarative writes ----

TEST(SqlWriteTest, UpdateStatementWakesPendingEntangledPair) {
  // The acceptance scenario for the declarative write path: a pending
  // entangled pair is answered by one SQL UPDATE — edge translation →
  // storage predicate matching → write-triggered wake-up, no flush, no
  // tick, no further submission.
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Osaka)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Osaka)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);
  EXPECT_FALSE(a->Done());

  auto rows = svc.ExecuteWrite("UPDATE F SET dest = 'Osaka' WHERE fno = 136");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, 1u);
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered)
      << a->outcome().status.ToString();
  EXPECT_EQ(b->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_NE(a->outcome().tuples[0].find("136"), std::string::npos);
  ServiceMetrics m = WaitForWakeupSatisfied(svc, 2);
  EXPECT_GE(m.write_wakeups, 1u);
  EXPECT_EQ(m.wakeup_satisfied, 2u);
}

TEST(SqlWriteTest, DeleteStatementMatchesPredicatesAndReportsRows) {
  CoordinationService svc(Opts(1));
  uint64_t v1 = svc.storage().version();

  // Range + equality conjunction: exactly flights 122 and 123 (Paris,
  // <= 123) go; 134 (Paris) and 136 (Rome) stay.
  auto rows = svc.ExecuteWrite(
      "DELETE FROM F WHERE dest = 'Paris' AND fno <= 123");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, 2u);
  EXPECT_EQ(svc.storage().version(), v1 + 1);
  const db::TableVersion* f = svc.storage().Current().GetTable("F");
  EXPECT_EQ(f->row_count(), 2u);
  EXPECT_TRUE(f->AnyMatch(0, ir::Value::Int(134)));
  EXPECT_TRUE(f->AnyMatch(0, ir::Value::Int(136)));

  // Matching nothing: zero rows, no publish, no version churn.
  auto none = svc.ExecuteWrite("DELETE FROM F WHERE fno > 10000");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
  EXPECT_EQ(svc.storage().version(), v1 + 1);
}

TEST(SqlWriteTest, DeleteStatementKeepsWokenSnapshotFresh) {
  // The SQL twin of DeleteInvalidatesPreviouslyMatchableBody: the pair is
  // matchable at submission, a declarative DELETE retracts the row before
  // any evaluation, and the eventual flush must not resurrect it.
  CoordinationService svc(Opts(2));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Rome)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Rome)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);

  auto rows = svc.ExecuteWrite("DELETE FROM F WHERE dest = 'Rome'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, 1u);
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(a->outcome().status.code(), StatusCode::kNotFound)
      << a->outcome().status.ToString();
}

TEST(SqlWriteTest, ExecuteWriteFailsSynchronouslyLikeSqlSubmission) {
  CoordinationService svc(Opts(1));
  uint64_t v1 = svc.storage().version();
  // Unknown table: kNotFound from the edge catalog, before any routing.
  EXPECT_EQ(svc.ExecuteWrite("DELETE FROM Ghost WHERE x = 1").status().code(),
            StatusCode::kNotFound);
  // Literal type mismatch against the schema: kInvalidArgument.
  EXPECT_EQ(
      svc.ExecuteWrite("UPDATE F SET dest = 42 WHERE fno = 1").status().code(),
      StatusCode::kInvalidArgument);
  // Malformed SQL: kParseError.
  EXPECT_EQ(svc.ExecuteWrite("DELETE F WHERE fno = 1").status().code(),
            StatusCode::kParseError);
  // Duplicate SET targets: rejected, not last-one-wins.
  EXPECT_EQ(svc.ExecuteWrite(
                   "UPDATE F SET dest = 'A', dest = 'B' WHERE fno = 122")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Nothing was applied or published by any of the failures.
  EXPECT_EQ(svc.storage().version(), v1);
  EXPECT_EQ(svc.storage().writes_applied(), 0u);
}

TEST(ReactiveWakeupTest, WriteBurstCoalescesNotifiesDeterministically) {
  // The wake-up-storm damper, pinned down with the on_write_wakeup seam:
  // wake-up #1 is held in place while five more writes land, so exactly
  // one more WriteNotify is queued (the first of the five) and the other
  // four merge into it — 6 writes, 2 wake-ups, 4 coalesced.
  ServiceOptions o = Opts(1, EvalMode::kIncremental);
  std::atomic<bool> arm{false};
  std::atomic<int> wakeups_seen{0};
  std::promise<void> entered;
  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate = release->get_future().share();
  o.on_write_wakeup = [&](uint32_t) {
    if (arm.load(std::memory_order_acquire) &&
        wakeups_seen.fetch_add(1) == 0) {
      entered.set_value();
      gate.wait();
    }
  };
  CoordinationService svc(o);

  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Nowhere)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Nowhere)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);  // pair registered in the wake-up index
  arm.store(true, std::memory_order_release);

  auto write = [&](int i) {
    ASSERT_TRUE(
        svc.ApplyBatch({InsertRow(svc, "F", 90000 + i, "Burst")})
            .ok());
  };
  write(0);                     // wake-up #1 starts and parks on the gate
  entered.get_future().wait();
  for (int i = 1; i <= 5; ++i) write(i);  // 1 notify queued + 4 coalesced
  release->set_value();

  ServiceMetrics m = svc.Metrics();
  for (int i = 0; i < 5000 && m.write_wakeups < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    m = svc.Metrics();
  }
  EXPECT_EQ(m.write_wakeups, 2u);             // 6 writes, 2 re-evaluations
  EXPECT_EQ(m.write_notifies_coalesced, 4u);  // the storm, absorbed
  // The coalesced wake-up still adopted the newest version (no write was
  // swallowed): the shard's snapshot covers all six writes.
  EXPECT_EQ(m.max_snapshot_version, svc.storage().version());
}

// The reactive ThreadSanitizer workhorse: concurrent writers x submitters
// x deleters (plus an updater), wake-ups on. Client pairs coordinate on
// per-round destinations that only a write makes answerable; deleters and
// updaters churn disjoint Noise rows, so every pair must still answer.
TEST(ReactiveWakeupTest, ConcurrentWritersSubmittersDeletersStayConsistent) {
  constexpr int kClients = 3;
  constexpr int kRounds = 20;
  ServiceOptions o = Opts(4, EvalMode::kIncremental);
  CoordinationService svc(o);

  std::atomic<bool> stop{false};
  // Writer: keeps inserting Noise rows (wake-up fodder for the deleters).
  std::thread writer([&svc, &stop] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          svc.ApplyBatch({InsertRow(svc, "F", 50000 + i, "Noise")})
              .ok());
      ++i;
      std::this_thread::yield();
    }
  });
  // Deleter: retracts the Noise rows wholesale, racing the writer.
  std::thread deleter([&svc, &stop] {
    ir::Value noise = ir::Value::Str(svc.interner().Intern("Noise"));
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          svc.ApplyBatch({TableWrite::Delete("F", db::Predicate::Eq(1, noise))})
              .ok());
      std::this_thread::yield();
    }
  });
  // Updater: reroutes one bootstrap Rome flight back and forth.
  std::thread updater([&svc, &stop] {
    int flip = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const char* dest = (flip++ % 2) ? "Rome" : "Milan";
      ASSERT_TRUE(
          svc.ApplyBatch({TableWrite::Update(
                             "F", db::Predicate::Eq(0, ir::Value::Int(136)),
                             {{1, ir::Value::Str(
                                      svc.interner().Intern(dest))}})})
              .ok());
      std::this_thread::yield();
    }
  });

  std::vector<std::vector<Ticket>> per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&svc, &per_client, c] {
      for (int i = 0; i < kRounds; ++i) {
        std::string rel = "W" + std::to_string(c) + "_" + std::to_string(i);
        std::string dest = "City" + std::to_string(c) + "_" +
                           std::to_string(i);
        // Submit FIRST, write SECOND: the pair can only answer once its
        // row lands, so answering proves a write-path wake-up (or the
        // per-submit refresh) delivered it.
        auto a = svc.Submit(Query::Ir("{" + rel + "(B, x)} " + rel +
                                      "(A, x) :- F(x, " + dest + ")"));
        auto b = svc.Submit(Query::Ir("{" + rel + "(A, y)} " + rel +
                                      "(B, y) :- F(y, " + dest + ")"));
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_TRUE(
            svc.ApplyBatch({InsertRow(svc, "F", 60000 + c * 1000 + i, dest)})
                .ok());
        per_client[c].push_back(*a);
        per_client[c].push_back(*b);
      }
    });
  }
  for (auto& c : clients) c.join();
  // Every pair must resolve from the writes alone — wake-ups are the only
  // mechanism in play (incremental mode, no ticks): wait BEFORE draining.
  for (const auto& tickets : per_client) {
    for (const Ticket& t : tickets) {
      ASSERT_TRUE(t.WaitFor(std::chrono::milliseconds(30000)));
      EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered)
          << t.outcome().status.ToString();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  deleter.join();
  updater.join();
  ASSERT_TRUE(svc.Drain());
  // Liveness + TSan are the point here; whether a given pair was answered
  // by a wake-up or by the per-submit snapshot refresh (the write can land
  // before the pair is even processed) is a race both sides of which are
  // correct, so no exact wake-up count is asserted.
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.pending, 0u);
}

// ------------------------------------------------ computed retry-after --

TEST(RetryAfterHintTest, ComputesFromDepthAndRate) {
  EXPECT_EQ(RetryAfterMsHint(100, 1000.0), 100u);  // 100 ops at 1k ops/s
  EXPECT_EQ(RetryAfterMsHint(1, 1e6), 1u);         // floor of 1ms
  EXPECT_EQ(RetryAfterMsHint(3, 2000.0), 2u);      // ceil(1.5ms)
  EXPECT_EQ(RetryAfterMsHint(0, 1000.0), 0u);      // empty queue: no hint
  EXPECT_EQ(RetryAfterMsHint(5, 0.0), 0u);         // unknown rate: no hint
}

TEST(RetryAfterHintTest, RejectionCarriesConcreteRetryAfter) {
  ServiceOptions o = Opts(1);
  o.max_queue_depth = 1;
  CoordinationService svc(o);
  // Warm the drain-rate estimate: flush ops are control traffic (exempt
  // from admission) and drain through the same op loop the rate observes.
  for (int i = 0; i < 5000 && svc.Metrics().shards[0].drain_ops_per_sec <= 0;
       ++i) {
    svc.FlushAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(svc.Metrics().shards[0].drain_ops_per_sec, 0.0);

  // Park the shard thread inside a resolution callback so the op queue
  // backs up behind it.
  std::promise<void> entered;
  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate = release->get_future().share();
  SubmitOptions sopts;
  sopts.callback = [&entered, gate](TicketId, const ServiceOutcome&) {
    entered.set_value();
    gate.wait();
  };
  auto blocker =
      svc.Submit(client::Query::Ir("{Rb(A, x)} Rb(B, x) :- F(x, Rome)"),
                 sopts);
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(svc.Cancel(*blocker).ok());
  entered.get_future().wait();

  auto q1 = svc.Submit(Query::Ir("{Rc(A, x)} Rc(B, x) :- F(x, Rome)"));
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  auto q2 = svc.Submit(Query::Ir("{Rd(A, y)} Rd(B, y) :- F(y, Rome)"));
  ASSERT_FALSE(q2.ok());
  EXPECT_EQ(q2.status().code(), StatusCode::kResourceExhausted);
  // The hint is concrete: "retry after ~<N>ms", computed from the live
  // queue depth and the shard's recent drain rate.
  EXPECT_NE(q2.status().message().find("retry after ~"), std::string::npos)
      << q2.status().ToString();
  EXPECT_NE(q2.status().message().find("ms"), std::string::npos);

  release->set_value();
  ASSERT_TRUE(svc.Drain());
}

}  // namespace
}  // namespace eq::service
