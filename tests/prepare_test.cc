// Tests for the parallel prepare path: the pooled edge catalogs that
// translate/validate concurrently, the fingerprint-keyed prepared-plan
// cache in front of translation (hit equivalence, LRU eviction,
// schema-change invalidation), synchronous parse errors across all three
// dialects, and a multi-thread all-dialect stress run for the sanitizer
// legs.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "client/query.h"
#include "db/database.h"
#include "service/export.h"
#include "service/plan_cache.h"
#include "service/service.h"

namespace eq::service {
namespace {

using client::Query;
using client::QueryBuilder;
using client::Str;
using client::Var;

void FlightBootstrap(ir::QueryContext* ctx, db::Database* db) {
  ASSERT_TRUE(db->CreateTable("Flights", {{"fno", ir::ValueType::kInt},
                                          {"dest", ir::ValueType::kString}})
                  .ok());
  auto S = [&](const char* s) { return ir::Value::Str(ctx->Intern(s)); };
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(122), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(136), S("Rome")}).ok());
}

ServiceOptions Opts(uint32_t shards = 2) {
  ServiceOptions o;
  o.num_shards = shards;
  o.mode = engine::EvalMode::kIncremental;
  o.bootstrap = FlightBootstrap;
  return o;
}

std::string PairSql(const std::string& a, const std::string& b) {
  return "SELECT '" + a + "', fno INTO ANSWER Reservation " +
         "WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') " +
         "AND ('" + b + "', fno) IN ANSWER Reservation CHOOSE 1";
}

std::string PairIr(const std::string& a, const std::string& b) {
  return "{Reservation(" + b + ", x)} Reservation(" + a +
         ", x) :- Flights(x, Paris)";
}

Query PairBuilder(const std::string& a, const std::string& b) {
  return QueryBuilder()
      .Postcondition("Reservation", {Str(b), Var("x")})
      .Head("Reservation", {Str(a), Var("x")})
      .Body("Flights", {Var("x"), Str("Paris")})
      .Build();
}

// ------------------------------------------------- text normalization ----

TEST(PlanCacheTest, NormalizeTextIsQuoteAware) {
  EXPECT_EQ(PlanCache::NormalizeText("  a   b \t c  "), "a b c");
  // Whitespace inside string literals is data, not formatting.
  EXPECT_EQ(PlanCache::NormalizeText("x  'a  b'  y"), "x 'a  b' y");
  EXPECT_EQ(PlanCache::NormalizeText("\"p  q\"  r"), "\"p  q\" r");
  // The other quote char inside a literal does not close it.
  EXPECT_EQ(PlanCache::NormalizeText("'a \" b'   c"), "'a \" b' c");
  EXPECT_NE(PlanCache::NormalizeText("SELECT 'a b'"),
            PlanCache::NormalizeText("SELECT 'a  b'"));
}

// ------------------------------------------------------ hit semantics ----

TEST(PlanCacheServiceTest, HitReturnsEquivalentCanonicalProgram) {
  CoordinationService svc(Opts());
  const std::string sql = PairSql("Kramer", "Jerry");
  auto cold = svc.Canonicalize(Query::Sql(sql));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  // Same shape, trivially reformatted: extra whitespace outside literals.
  auto hit = svc.Canonicalize(Query::Sql("  " + sql + "   "));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(cold->ToIrText(), hit->ToIrText());
  EXPECT_EQ(cold->EntangledRelations(), hit->EntangledRelations());
  ServiceMetrics m = svc.Metrics();
  EXPECT_GE(m.prepare_cache_hits, 1u);
  EXPECT_GE(m.prepare_cache_misses, 1u);
}

TEST(PlanCacheServiceTest, CachedSubmitRoutesAndAnswersLikeCold) {
  CoordinationService svc(Opts());
  // Round 1: cold prepares. Round 2: the identical texts hit the cache —
  // route and answer must be indistinguishable from the cold round.
  for (int round = 0; round < 2; ++round) {
    auto tk = svc.Submit(Query::Sql(PairSql("Kramer", "Jerry")));
    auto tj = svc.Submit(Query::Sql(PairSql("Jerry", "Kramer")));
    ASSERT_TRUE(tk.ok() && tj.ok());
    ASSERT_TRUE(svc.Drain());
    ASSERT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
        << tk->outcome().status.ToString();
    ASSERT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered);
    // Coordinated: both tuples name the same flight.
    const std::string& k = tk->outcome().tuples[0];
    const std::string& j = tj->outcome().tuples[0];
    EXPECT_EQ(k.substr(k.find(',')), j.substr(j.find(',')));
  }
  ServiceMetrics m = svc.Metrics();
  EXPECT_GE(m.prepare_cache_hits, 2u);  // round 2 hit both shapes
  EXPECT_EQ(m.answered, 4u);
}

TEST(PlanCacheServiceTest, BuilderProgramsBypassTheCache) {
  // Builder programs are canonical already: they are validated read-only
  // and routed, never keyed, looked up or stored in the plan cache.
  ServiceOptions o = Opts();
  o.plan_cache_capacity = 1;  // a stored builder plan would evict the IR one
  CoordinationService svc(o);
  ASSERT_TRUE(svc.Canonicalize(PairBuilder("Kramer", "Jerry")).ok());
  ASSERT_TRUE(svc.Canonicalize(PairBuilder("Kramer", "Jerry")).ok());
  ASSERT_TRUE(svc.Canonicalize(PairBuilder("Elaine", "Jerry")).ok());
  auto tk = svc.Submit(PairBuilder("Kramer", "Jerry"));
  auto tj = svc.Submit(PairBuilder("Jerry", "Kramer"));
  ASSERT_TRUE(tk.ok() && tj.ok());
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
      << tk->outcome().status.ToString();
  // Invalid programs still fail synchronously, before any ticket exists.
  auto bad = svc.Submit(QueryBuilder()
                            .Postcondition("Reservation", {Str("A"), Var("x")})
                            .Head("Reservation", {Str("B"), Var("y")})
                            .Body("Flights", {Var("x"), Str("Paris")})
                            .Build());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.prepare_cache_hits, 0u);
  EXPECT_EQ(m.prepare_cache_misses, 0u);
  // Size stays 0: the one slot still holds an IR plan across more builder
  // prepares.
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("A", "B"))).ok());
  ASSERT_TRUE(svc.Canonicalize(PairBuilder("Kramer", "Jerry")).ok());
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("A", "B"))).ok());
  m = svc.Metrics();
  EXPECT_EQ(m.prepare_cache_misses, 1u);
  EXPECT_EQ(m.prepare_cache_hits, 1u);
  EXPECT_EQ(m.prepare_cache_evictions, 0u);
}

// --------------------------------------------------- eviction bounds -----

TEST(PlanCacheServiceTest, CapacityBoundEvictsLeastRecent) {
  ServiceOptions o = Opts();
  o.plan_cache_capacity = 2;
  CoordinationService svc(o);
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("A", "B"))).ok());
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("C", "D"))).ok());
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("E", "F"))).ok());  // evicts A/B
  uint64_t misses = svc.Metrics().prepare_cache_misses;
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("A", "B"))).ok());  // cold again
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.prepare_cache_misses, misses + 1);
  EXPECT_GE(m.prepare_cache_evictions, 1u);
}

TEST(PlanCacheServiceTest, ZeroCapacityDisablesCaching) {
  ServiceOptions o = Opts();
  o.plan_cache_capacity = 0;
  CoordinationService svc(o);
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("A", "B"))).ok());
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("A", "B"))).ok());
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.prepare_cache_hits, 0u);
  EXPECT_EQ(m.prepare_cache_misses, 0u);
}

// ----------------------------------------------- schema invalidation -----

TEST(PlanCacheServiceTest, SchemaAffectingRecycleInvalidatesPlans) {
  ServiceOptions o = Opts();
  o.edge_recycle_uses = 1;  // every cold prepare recycles its context
  CoordinationService svc(o);
  const std::string sql = PairSql("Kramer", "Jerry");
  ASSERT_TRUE(svc.Canonicalize(Query::Sql(sql)).ok());  // miss, cached
  ASSERT_TRUE(svc.Canonicalize(Query::Sql(sql)).ok());  // hit
  ASSERT_GE(svc.Metrics().prepare_cache_hits, 1u);
  EXPECT_EQ(svc.Metrics().prepare_cache_invalidations, 0u);

  // Catalog growth: a new table changes the schema fingerprint. The next
  // recycle (forced by the next cold prepare, edge_recycle_uses=1)
  // detects it and sweeps the cache.
  ASSERT_TRUE(svc.storage()
                  .mutable_db()
                  ->CreateTable("Hotels", {{"hno", ir::ValueType::kInt}})
                  .ok());
  svc.storage().Publish();
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("X", "Y"))).ok());  // recycles
  EXPECT_GE(svc.Metrics().prepare_cache_invalidations, 1u);

  // The old shape re-prepares cold (its entry was swept) and still works.
  uint64_t misses = svc.Metrics().prepare_cache_misses;
  auto again = svc.Canonicalize(Query::Sql(sql));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(svc.Metrics().prepare_cache_misses, misses + 1);

  // Data-only writes do NOT change the fingerprint: no further sweep.
  ASSERT_TRUE(svc.ExecuteWrite("INSERT INTO Flights VALUES (150, 'Paris')")
                  .ok());
  ASSERT_TRUE(svc.Canonicalize(Query::Ir(PairIr("P", "Q"))).ok());  // recycles
  EXPECT_EQ(svc.Metrics().prepare_cache_invalidations, 1u);
}

// ------------------------------------------- synchronous error parity ----

TEST(PreparePathTest, AllDialectsFailMalformedInputSynchronously) {
  CoordinationService svc(Opts());
  // IR: routable-looking but unparsable.
  auto t1 = svc.Submit(Query::Ir("{R(J, x)} R(K, x :- F(x,"));
  EXPECT_FALSE(t1.ok());
  EXPECT_EQ(t1.status().code(), StatusCode::kParseError);
  // SQL: malformed.
  auto t2 = svc.Submit(Query::Sql("SELECT INTO nothing"));
  EXPECT_FALSE(t2.ok());
  EXPECT_EQ(t2.status().code(), StatusCode::kParseError);
  // Builder: unbound head variable.
  auto t3 = svc.Submit(QueryBuilder()
                           .Postcondition("R", {Str("A"), Var("x")})
                           .Head("R", {Str("B"), Var("y")})
                           .Body("Flights", {Var("x"), Str("Paris")})
                           .Build());
  EXPECT_FALSE(t3.ok());
  EXPECT_EQ(t3.status().code(), StatusCode::kInvalidArgument);
  // Nothing was admitted; the edge parse failures are counted.
  EXPECT_EQ(svc.inflight_count(), 0u);
  EXPECT_EQ(svc.Metrics().parse_errors, 2u);
  // Failed prepares are never cached: retrying the IR text re-parses (and
  // fails again) rather than hitting a poisoned entry.
  auto t4 = svc.Submit(Query::Ir("{R(J, x)} R(K, x :- F(x,"));
  EXPECT_FALSE(t4.ok());
  EXPECT_EQ(svc.Metrics().parse_errors, 3u);
}

// ----------------------------------------------------- observability -----

TEST(PreparePathTest, CountersVisibleInExportersAndDump) {
  CoordinationService svc(Opts());
  const std::string sql = PairSql("Kramer", "Jerry");
  ASSERT_TRUE(svc.Canonicalize(Query::Sql(sql)).ok());
  ASSERT_TRUE(svc.Canonicalize(Query::Sql(sql)).ok());
  ServiceMetrics m = svc.Metrics();

  std::string prom = MetricsToPrometheusText(m);
  EXPECT_NE(prom.find("eq_prepare_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(prom.find("eq_prepare_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(prom.find("eq_prepare_cache_evictions_total"), std::string::npos);
  EXPECT_NE(prom.find("eq_edge_recycles_total"), std::string::npos);
  EXPECT_NE(prom.find("eq_prepare_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("eq_prepare_latency_ms_count 2"), std::string::npos);

  std::string json = MetricsToJson(m);
  EXPECT_NE(json.find("\"prepare_cache_hits\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"prepare_cache_misses\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"prepare_latency_ms\""), std::string::npos);

  ServiceStateDump dump = svc.DumpState();
  EXPECT_EQ(dump.prepare.plan_cache_hits, 1u);
  EXPECT_EQ(dump.prepare.plan_cache_misses, 1u);
  EXPECT_EQ(dump.prepare.plan_cache_size, 1u);
  EXPECT_EQ(dump.prepare.edge_pool_size, svc.num_shards());
  EXPECT_NE(dump.ToString().find("prepare: edge_pool="), std::string::npos);
}

// -------------------------------------------------- concurrent stress ----

// N threads concurrently prepare all three dialects against a small pool
// with a tiny recycle threshold (recycles under contention) and a small
// plan cache (hits, misses and evictions all interleave). TSan/ASan legs
// run this; the assertions check full resolution and counter sanity.
TEST(PreparePathStressTest, ConcurrentAllDialectPreparesResolve) {
  ServiceOptions o = Opts(2);
  o.edge_pool_size = 3;
  o.edge_recycle_uses = 2;
  o.plan_cache_capacity = 8;
  CoordinationService svc(o);

  constexpr int kThreads = 4;
  constexpr int kIters = 24;
  std::atomic<int> answered{0};
  std::atomic<int> sync_errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&svc, &answered, &sync_errors, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string a = "P" + std::to_string(t) + "x" + std::to_string(i);
        std::string b = "Q" + std::to_string(t) + "x" + std::to_string(i);
        Query qa = Query::Ir(PairIr(a, b));
        Query qb = Query::Ir(PairIr(b, a));
        switch (i % 3) {
          case 0:
            qa = Query::Sql(PairSql(a, b));
            qb = Query::Sql(PairSql(b, a));
            break;
          case 1:
            qa = PairBuilder(a, b);
            qb = PairBuilder(b, a);
            break;
          default:
            break;
        }
        SubmitOptions sopts;
        sopts.callback = [&answered](TicketId,
                                     const ServiceOutcome& outcome) {
          if (outcome.state == ServiceOutcome::State::kAnswered) ++answered;
        };
        auto ta = svc.Submit(qa, sopts);
        auto tb = svc.Submit(qb, sopts);
        ASSERT_TRUE(ta.ok()) << ta.status().ToString();
        ASSERT_TRUE(tb.ok()) << tb.status().ToString();
        // Malformed input stays synchronous under contention.
        if (i % 4 == 0) {
          auto bad = svc.Submit(Query::Ir("{R(J, x)} R(K, x :- F(x,"));
          if (!bad.ok()) ++sync_errors;
        }
        // SQL write translation shares the pool.
        if (i % 6 == 0) {
          auto w = svc.ExecuteWrite("INSERT INTO Flights VALUES (" +
                                    std::to_string(1000 + t * 100 + i) +
                                    ", 'Rome')");
          ASSERT_TRUE(w.ok()) << w.status().ToString();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(answered.load(), 2 * kThreads * kIters);
  EXPECT_EQ(sync_errors.load(), kThreads * (kIters / 4));
  ServiceMetrics m = svc.Metrics();
  EXPECT_EQ(m.answered, static_cast<uint64_t>(2 * kThreads * kIters));
  EXPECT_GE(m.edge_recycles, 1u);
  EXPECT_GE(m.prepare_cache_evictions, 1u);
  EXPECT_EQ(m.parse_errors, static_cast<uint64_t>(sync_errors.load()));
}

// Pool of one: prepares serialize on the single context but must not
// deadlock or misbehave.
TEST(PreparePathStressTest, PoolSizeOneSerializesSafely) {
  ServiceOptions o = Opts(2);
  o.edge_pool_size = 1;
  o.edge_recycle_uses = 3;
  CoordinationService svc(o);
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&svc, &ok, t] {
      for (int i = 0; i < 16; ++i) {
        std::string a = "S" + std::to_string(t) + "x" + std::to_string(i);
        if (svc.Canonicalize(Query::Ir(PairIr(a, "Z"))).ok()) ++ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 3 * 16);
}

}  // namespace
}  // namespace eq::service
