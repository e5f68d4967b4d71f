// Tests for the typed client API: the three query dialects (entangled SQL,
// IR text, builder programs), cross-dialect answer equivalence through the
// sharded service, per-query preference ranking (§6), concurrent
// submission, admission control, and the Session facade.

#include "db/database.h"
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "client/query.h"
#include "client/session.h"
#include "ir/parser.h"
#include "service/service.h"

namespace eq::client {
namespace {

using service::CoordinationService;
using service::ServiceOptions;
using service::ServiceOutcome;
using service::SubmitOptions;
using service::Ticket;

// Figure 1 (a), with the full table names the SQL dialect resolves against.
void FlightBootstrap(ir::QueryContext* ctx, db::Database* db) {
  ASSERT_TRUE(db->CreateTable("Flights", {{"fno", ir::ValueType::kInt},
                                          {"dest", ir::ValueType::kString}})
                  .ok());
  ASSERT_TRUE(db->CreateTable("Airlines",
                              {{"fno", ir::ValueType::kInt},
                               {"airline", ir::ValueType::kString}})
                  .ok());
  auto S = [&](const char* s) { return ir::Value::Str(ctx->Intern(s)); };
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(122), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(123), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(134), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(136), S("Rome")}).ok());
  ASSERT_TRUE(db->Insert("Airlines", {ir::Value::Int(122), S("United")}).ok());
  ASSERT_TRUE(db->Insert("Airlines", {ir::Value::Int(123), S("United")}).ok());
  ASSERT_TRUE(
      db->Insert("Airlines", {ir::Value::Int(134), S("Lufthansa")}).ok());
  ASSERT_TRUE(
      db->Insert("Airlines", {ir::Value::Int(136), S("Alitalia")}).ok());
}

ServiceOptions Opts(uint32_t shards,
                    engine::EvalMode mode = engine::EvalMode::kIncremental) {
  ServiceOptions o;
  o.num_shards = shards;
  o.mode = mode;
  o.max_batch = 16;
  o.max_delay_ticks = 1;
  o.bootstrap = FlightBootstrap;
  return o;
}

constexpr const char* kKramerSql =
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation "
    "CHOOSE 1";

constexpr const char* kJerrySql =
    "SELECT 'Jerry', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights F, Airlines A WHERE "
    "F.dest='Paris' AND F.fno = A.fno AND A.airline = 'United') "
    "AND ('Kramer', fno) IN ANSWER Reservation "
    "CHOOSE 1";

constexpr const char* kKramerIr =
    "{Reservation(Jerry, x)} Reservation(Kramer, x) :- Flights(x, Paris)";

constexpr const char* kJerryIr =
    "{Reservation(Kramer, y)} Reservation(Jerry, y) "
    ":- Flights(y, Paris), Airlines(y, United)";

Query KramerBuilt() {
  return QueryBuilder()
      .Label("kramer")
      .Postcondition("Reservation", {Str("Jerry"), Var("x")})
      .Head("Reservation", {Str("Kramer"), Var("x")})
      .Body("Flights", {Var("x"), Str("Paris")})
      .Build();
}

Query JerryBuilt() {
  return QueryBuilder()
      .Label("jerry")
      .Postcondition("Reservation", {Str("Kramer"), Var("y")})
      .Head("Reservation", {Str("Jerry"), Var("y")})
      .Body("Flights", {Var("y"), Str("Paris")})
      .Body("Airlines", {Var("y"), Str("United")})
      .Build();
}

/// Runs the Kramer/Jerry coordination scenario with the given dialect pair
/// and returns the two rendered answer tuples. Preference pins the outcome
/// (max flight number) so dialects can be compared for exact equality.
std::pair<std::string, std::string> RunPair(Query kramer, Query jerry) {
  CoordinationService svc(Opts(4));
  SubmitOptions sopts;
  sopts.preference = PreferenceSpec::MaximizeArg(1);
  auto tk = svc.Submit(std::move(kramer), sopts);
  auto tj = svc.Submit(std::move(jerry), sopts);
  EXPECT_TRUE(tk.ok()) << tk.status().ToString();
  EXPECT_TRUE(tj.ok()) << tj.status().ToString();
  if (!tk.ok() || !tj.ok()) return {"", ""};
  EXPECT_TRUE(svc.Drain());
  EXPECT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
      << tk->outcome().status.ToString();
  EXPECT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
      << tj->outcome().status.ToString();
  if (tk->outcome().tuples.empty() || tj->outcome().tuples.empty()) {
    return {"", ""};
  }
  return {tk->outcome().tuples[0], tj->outcome().tuples[0]};
}

// ----------------------------------------------------- portable queries --

TEST(PortableQueryTest, BuilderInstantiatesWithoutParsing) {
  ir::QueryContext ctx;
  PortableQuery program = QueryBuilder()
                              .Label("kramer")
                              .Postcondition("R", {Str("Jerry"), Var("x")})
                              .Head("R", {Str("Kramer"), Var("x")})
                              .Body("F", {Var("x"), Str("Paris")})
                              .BuildPortable();
  auto q = program.Instantiate(&ctx);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->label, "kramer");
  ASSERT_EQ(q->head.size(), 1u);
  ASSERT_EQ(q->postconditions.size(), 1u);
  ASSERT_EQ(q->body.size(), 1u);
  EXPECT_TRUE(ctx.IsAnswerRelation(ctx.Intern("R")));
  EXPECT_FALSE(ctx.IsAnswerRelation(ctx.Intern("F")));
  // Shared variable: head and body use the same x.
  EXPECT_EQ(q->head[0].args[1], q->body[0].args[0]);
  // A second instantiation gets fresh variables (template semantics).
  auto q2 = program.Instantiate(&ctx);
  ASSERT_TRUE(q2.ok());
  EXPECT_NE(q->head[0].args[1], q2->head[0].args[1]);
}

TEST(PortableQueryTest, InvalidProgramFailsValidation) {
  ir::QueryContext ctx;
  // Head variable not bound in the body: range restriction violation.
  PortableQuery bad = QueryBuilder()
                          .Postcondition("R", {Str("A"), Var("x")})
                          .Head("R", {Str("B"), Var("y")})
                          .Body("F", {Var("x"), Str("Paris")})
                          .BuildPortable();
  EXPECT_FALSE(bad.Instantiate(&ctx).ok());
}

// Differential check of the read-only validator: over a corpus that covers
// every rejection class, Validate must return what Instantiate (which runs
// ir::ValidateQuery) returns on a fresh context seeded from the same
// catalog, and must leave the shared interner and the catalog untouched.
TEST(PortableQueryTest, ValidateMatchesInstantiateOnEveryRejectionClass) {
  ir::QueryContext catalog;
  SymbolId reservation = catalog.Intern("Reservation");
  SymbolId flights = catalog.Intern("Flights");
  ASSERT_TRUE(catalog.DeclareAnswerRelation(reservation).ok());
  ASSERT_TRUE(catalog.NoteArity(reservation, 2).ok());
  catalog.DeclareDatabaseRelation(flights);
  ASSERT_TRUE(catalog.NoteArity(flights, 2).ok());
  catalog.DeclareDatabaseRelation(catalog.Intern("Airlines"));

  auto pair = [] {
    return std::move(QueryBuilder()
                         .Label("pair")
                         .Postcondition("Reservation", {Str("Jerry"), Var("x")})
                         .Head("Reservation", {Str("Kramer"), Var("x")})
                         .Body("Flights", {Var("x"), Str("Paris")}));
  };
  struct Case {
    const char* name;
    PortableQuery program;
    StatusCode want;
  };
  std::vector<Case> corpus;
  auto add = [&](const char* name, QueryBuilder b, StatusCode want) {
    corpus.push_back({name, b.BuildPortable(), want});
  };
  add("valid pair", pair(), StatusCode::kOk);
  add("valid, relations the interner has never seen",
      std::move(QueryBuilder()
                    .Postcondition("Gift_v", {Str("Elaine"), Var("g")})
                    .Head("Gift_v", {Str("George"), Var("g")})
                    .Body("Shop_v", {Var("g")})
                    .Filter(Var("g"), ir::CompareOp::kNe, Str("Socks_v"))),
      StatusCode::kOk);
  add("empty head",
      std::move(QueryBuilder()
                    .Postcondition("Reservation", {Str("Jerry"), Var("x")})
                    .Body("Flights", {Var("x"), Str("Paris")})),
      StatusCode::kInvalidArgument);
  add("choose 0", std::move(pair().Choose(0)), StatusCode::kInvalidArgument);
  add("choose -3", std::move(pair().Choose(-3)), StatusCode::kInvalidArgument);
  add("catalog ANSWER relation in the body",
      std::move(pair().Body("Reservation", {Str("Elaine"), Var("x")})),
      StatusCode::kInvalidArgument);
  add("own head relation in the body",
      std::move(QueryBuilder()
                    .Head("Gift_b", {Var("g")})
                    .Body("Gift_b", {Var("g")})),
      StatusCode::kInvalidArgument);
  add("arity clash within the query (head vs postcondition)",
      std::move(QueryBuilder()
                    .Postcondition("Pair_a", {Str("J"), Var("x")})
                    .Head("Pair_a", {Var("x")})
                    .Body("Flights", {Var("x"), Str("Paris")})),
      StatusCode::kInvalidArgument);
  add("arity clash within the query (body)",
      std::move(QueryBuilder()
                    .Head("Pair_c", {Var("x")})
                    .Body("Shop_c", {Var("x")})
                    .Body("Shop_c", {Var("x"), Var("y")})),
      StatusCode::kInvalidArgument);
  add("arity clash against the catalog (head)",
      std::move(QueryBuilder()
                    .Head("Reservation", {Var("x")})
                    .Body("Flights", {Var("x"), Str("Paris")})),
      StatusCode::kInvalidArgument);
  add("arity clash against the catalog (body)",
      std::move(QueryBuilder()
                    .Head("Reservation", {Str("Kramer"), Var("x")})
                    .Body("Flights", {Var("x")})),
      StatusCode::kInvalidArgument);
  add("unbound head variable",
      std::move(QueryBuilder()
                    .Postcondition("Reservation", {Str("Jerry"), Var("x")})
                    .Head("Reservation", {Str("Kramer"), Var("y")})
                    .Body("Flights", {Var("x"), Str("Paris")})),
      StatusCode::kInvalidArgument);
  add("unbound postcondition variable",
      std::move(QueryBuilder()
                    .Postcondition("Reservation", {Var("who"), Var("x")})
                    .Head("Reservation", {Str("Kramer"), Var("x")})
                    .Body("Flights", {Var("x"), Str("Paris")})),
      StatusCode::kInvalidArgument);
  add("unbound filter variable",
      std::move(pair().Filter(Var("z"), ir::CompareOp::kLt, Int(3))),
      StatusCode::kInvalidArgument);
  add("head on a table",
      std::move(QueryBuilder()
                    .Postcondition("Reservation", {Str("B"), Var("a")})
                    .Head("Flights", {Var("a"), Str("x")})
                    .Body("G_t", {Var("a")})),
      StatusCode::kInvalidArgument);
  add("postcondition on a table",
      std::move(QueryBuilder()
                    .Postcondition("Airlines", {Var("a"), Str("United")})
                    .Head("Reservation", {Str("Kramer"), Var("a")})
                    .Body("Flights", {Var("a"), Str("Paris")})),
      StatusCode::kInvalidArgument);
  add("first failure wins: a table postcondition before its arity clash",
      std::move(QueryBuilder()
                    .Postcondition("Flights", {Var("a")})
                    .Head("Reservation", {Var("a")})
                    .Body("G_t", {Var("a")})),
      StatusCode::kInvalidArgument);
  add("first failure wins: arity before range restriction",
      std::move(QueryBuilder()
                    .Head("Reservation", {Var("unbound")})
                    .Body("Flights", {Var("x")})),
      StatusCode::kInvalidArgument);

  for (const Case& c : corpus) {
    SCOPED_TRACE(c.name);
    size_t symbols = catalog.interner().size();
    Status got = c.program.Validate(catalog);
    EXPECT_EQ(catalog.interner().size(), symbols) << "Validate interned";
    EXPECT_EQ(catalog.var_count(), 0u) << "Validate allocated variables";

    ir::QueryContext fresh(catalog.interner_ptr());
    fresh.AdoptMetaFrom(catalog);
    auto want = c.program.Instantiate(&fresh);
    EXPECT_EQ(got.code(), want.status().code()) << got.ToString();
    EXPECT_EQ(got.ToString(), want.status().ToString());
    EXPECT_EQ(got.code(), c.want) << got.ToString();
  }
  // Nothing the corpus named was declared in the catalog.
  EXPECT_FALSE(catalog.IsAnswerRelation(catalog.Intern("Gift_v")));
  EXPECT_TRUE(catalog.IsDatabaseRelation(flights));
}

TEST(PortableQueryTest, EntangledRelationsAreHeadAndPostconditions) {
  PortableQuery p = QueryBuilder()
                        .Postcondition("R", {Str("J"), Var("x")})
                        .Postcondition("Gift", {Str("E"), Var("g")})
                        .Head("R", {Str("K"), Var("x")})
                        .Body("F", {Var("x"), Var("g")})
                        .BuildPortable();
  EXPECT_EQ(p.EntangledRelations(),
            (std::vector<std::string>{"Gift", "R"}));
}

TEST(PortableQueryTest, ToIrTextRoundTripsThroughParser) {
  PortableQuery p = QueryBuilder()
                        .Label("kramer")
                        .Postcondition("R", {Str("Jerry"), Var("x")})
                        .Head("R", {Str("Kramer"), Var("x")})
                        .Body("F", {Var("x"), Str("Paris"), Int(7)})
                        .Filter(Var("x"), ir::CompareOp::kGt, Int(100))
                        .Choose(2)
                        .BuildPortable();
  std::string text = p.ToIrText();
  ir::QueryContext ctx;
  ir::Parser parser(&ctx);
  auto parsed = parser.ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  EXPECT_EQ(parsed->label, "kramer");
  EXPECT_EQ(parsed->choose_k, 2);
  EXPECT_EQ(parsed->postconditions.size(), 1u);
  EXPECT_EQ(parsed->body.size(), 1u);
  EXPECT_EQ(parsed->filters.size(), 1u);
  EXPECT_TRUE(ir::ValidateQuery(*parsed, &ctx).ok());
}

TEST(PortableQueryTest, FromIrPreservesStructureAndValues) {
  ir::QueryContext ctx;
  ir::Parser parser(&ctx);
  auto parsed = parser.ParseQuery(
      "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris), x > 100 choose 3");
  ASSERT_TRUE(parsed.ok());
  PortableQuery p = FromIr(*parsed, ctx);
  EXPECT_EQ(p.choose_k, 3);
  ASSERT_EQ(p.head.size(), 1u);
  EXPECT_EQ(p.head[0].relation, "R");
  EXPECT_EQ(p.head[0].args[0], Str("Kramer"));
  ASSERT_EQ(p.filters.size(), 1u);
  EXPECT_EQ(p.filters[0].rhs, Int(100));
  // Same variable on both sides of the round trip.
  EXPECT_EQ(p.head[0].args[1], p.body[0].args[0]);
  // And it instantiates cleanly in a fresh context.
  ir::QueryContext ctx2;
  EXPECT_TRUE(p.Instantiate(&ctx2).ok());
}

// ----------------------------------------------- cross-dialect answers --

TEST(DialectEquivalenceTest, SqlMatchesIr) {
  auto sql = RunPair(Query::Sql(kKramerSql), Query::Sql(kJerrySql));
  auto ir = RunPair(Query::Ir(kKramerIr), Query::Ir(kJerryIr));
  EXPECT_FALSE(sql.first.empty());
  EXPECT_EQ(sql.first, ir.first);
  EXPECT_EQ(sql.second, ir.second);
  // Preference pinned the outcome: the highest United flight to Paris.
  EXPECT_EQ(sql.first, "Reservation(Kramer, 123)");
  EXPECT_EQ(sql.second, "Reservation(Jerry, 123)");
}

TEST(DialectEquivalenceTest, SqlMatchesBuilder) {
  auto sql = RunPair(Query::Sql(kKramerSql), Query::Sql(kJerrySql));
  auto built = RunPair(KramerBuilt(), JerryBuilt());
  EXPECT_FALSE(sql.first.empty());
  EXPECT_EQ(sql.first, built.first);
  EXPECT_EQ(sql.second, built.second);
}

TEST(DialectEquivalenceTest, IrMatchesBuilder) {
  auto ir = RunPair(Query::Ir(kKramerIr), Query::Ir(kJerryIr));
  auto built = RunPair(KramerBuilt(), JerryBuilt());
  EXPECT_FALSE(ir.first.empty());
  EXPECT_EQ(ir.first, built.first);
  EXPECT_EQ(ir.second, built.second);
}

TEST(DialectEquivalenceTest, MixedDialectPairCoordinates) {
  // Kramer speaks SQL, Jerry submits a builder program: they still route to
  // one shard (translated relation fingerprint) and coordinate.
  auto mixed = RunPair(Query::Sql(kKramerSql), JerryBuilt());
  EXPECT_EQ(mixed.first, "Reservation(Kramer, 123)");
  EXPECT_EQ(mixed.second, "Reservation(Jerry, 123)");
}

TEST(DialectEquivalenceTest, TwoSqlTextsCoordinateEndToEnd) {
  // The satellite scenario: two entangled SQL texts, no preference — both
  // resolve to the same answer tuple through routing, shard translation,
  // coordination and ticket resolution.
  CoordinationService svc(Opts(4));
  auto tk = svc.Submit(Query::Sql(kKramerSql));
  auto tj = svc.Submit(Query::Sql(kJerrySql));
  ASSERT_TRUE(tk.ok() && tj.ok());
  ASSERT_TRUE(svc.Drain());
  ASSERT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
      << tk->outcome().status.ToString();
  ASSERT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
      << tj->outcome().status.ToString();
  // Coordinated: both tuples name the same flight.
  const std::string& k = tk->outcome().tuples[0];
  const std::string& j = tj->outcome().tuples[0];
  EXPECT_EQ(k.substr(k.find(',')), j.substr(j.find(',')));
}

// -------------------------------------------------- synchronous errors --

TEST(ClientErrorTest, SqlTranslationErrorsFailSynchronously) {
  CoordinationService svc(Opts(2));
  // Unknown table: caught at the edge catalog, before routing.
  auto t = svc.Submit(Query::Sql(
      "SELECT x INTO ANSWER R WHERE x IN (SELECT a FROM Ghost) CHOOSE 1"));
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
  // Malformed SQL: parse error, also synchronous.
  auto t2 = svc.Submit(Query::Sql("SELECT INTO nothing"));
  EXPECT_FALSE(t2.ok());
  EXPECT_EQ(t2.status().code(), StatusCode::kParseError);
}

TEST(ClientErrorTest, BuilderValidationErrorsFailSynchronously) {
  CoordinationService svc(Opts(2));
  auto t = svc.Submit(QueryBuilder()
                          .Postcondition("R", {Str("A"), Var("x")})
                          .Head("R", {Str("B"), Var("y")})  // y unbound
                          .Body("Flights", {Var("x"), Str("Paris")})
                          .Build());
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClientErrorTest, RejectedBuilderInternsNothing) {
  CoordinationService svc(Opts(2));
  size_t symbols = svc.storage().interner().size();
  auto t = svc.Submit(QueryBuilder()
                          .Postcondition("Never_seen_r", {Str("Q1"), Var("x")})
                          .Head("Never_seen_r", {Str("Q2"), Var("y")})
                          .Body("Never_seen_t", {Var("x"), Str("Q3")})
                          .Build());
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.storage().interner().size(), symbols);
}

// A head or postcondition naming a database table is rejected in every
// dialect before a ticket exists. It used to be accepted and to declare the
// table an ANSWER relation in the edge and shard catalogs, after which every
// query whose body read the table was rejected.
TEST(ClientErrorTest, HeadOnDatabaseTableIsRejectedInEveryDialect) {
  ServiceOptions o = Opts(1);
  o.edge_pool_size = 1;  // every prepare shares one edge catalog
  CoordinationService svc(o);
  std::vector<Query> bad = {
      QueryBuilder()
          .Postcondition("Reservation", {Str("B"), Var("a")})
          .Head("Flights", {Var("a"), Str("x")})
          .Body("G", {Var("a")})
          .Build(),
      Query::Ir("{Reservation('B', a)} Flights(a, 'x') :- G(a)"),
      Query::Sql("SELECT fno, 'x' INTO ANSWER Flights "
                 "WHERE fno IN (SELECT fno FROM Airlines) "
                 "AND ('B', fno) IN ANSWER Reservation CHOOSE 1"),
      QueryBuilder()
          .Postcondition("Airlines", {Var("a"), Str("United")})
          .Head("Reservation", {Str("B"), Var("a")})
          .Body("Flights", {Var("a"), Str("Paris")})
          .Build(),
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    auto t = svc.Submit(bad[i]);
    ASSERT_FALSE(t.ok()) << "query " << i;
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument)
        << "query " << i << ": " << t.status().ToString();
  }
  // Pairs whose bodies read the table still coordinate, in every dialect.
  std::vector<std::pair<Query, Query>> pairs;
  pairs.emplace_back(Query::Sql(kKramerSql), Query::Sql(kJerrySql));
  pairs.emplace_back(Query::Ir(kKramerIr), Query::Ir(kJerryIr));
  pairs.emplace_back(KramerBuilt(), JerryBuilt());
  for (auto& [kramer, jerry] : pairs) {
    auto tk = svc.Submit(kramer);
    auto tj = svc.Submit(jerry);
    ASSERT_TRUE(tk.ok()) << tk.status().ToString();
    ASSERT_TRUE(tj.ok()) << tj.status().ToString();
    ASSERT_TRUE(svc.Drain());
    EXPECT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
        << tk->outcome().status.ToString();
    EXPECT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
        << tj->outcome().status.ToString();
  }
}

TEST(ClientErrorTest, EmptyTextFailsSynchronouslyInBothTextDialects) {
  // Regression: empty/whitespace-only text used to depend on the routing
  // scan's failure mode; now it is a uniform synchronous kInvalidArgument.
  CoordinationService svc(Opts(2));
  for (const char* text : {"", "   ", " \t\n "}) {
    auto ir = svc.Submit(Query::Ir(text));
    EXPECT_FALSE(ir.ok()) << "ir text: '" << text << "'";
    EXPECT_EQ(ir.status().code(), StatusCode::kInvalidArgument);
    auto sql = svc.Submit(Query::Sql(text));
    EXPECT_FALSE(sql.ok()) << "sql text: '" << text << "'";
    EXPECT_EQ(sql.status().code(), StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------------ preference (§6) --

TEST(PreferenceTest, PerQuerySpecPicksPreferredOutcome) {
  // Without a preference the engine answers with the first coordinated
  // outcome (flight 122); the per-query spec flips it to the ranked best.
  {
    CoordinationService svc(Opts(2));
    auto a = svc.Submit(Query::Ir(kKramerIr));
    auto b = svc.Submit(Query::Ir(
        "{Reservation(Kramer, y)} Reservation(Jerry, y) "
        ":- Flights(y, Paris)"));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(svc.Drain());
    ASSERT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered);
    EXPECT_EQ(a->outcome().tuples[0], "Reservation(Kramer, 122)");
  }
  {
    CoordinationService svc(Opts(2));
    SubmitOptions prefer_late;
    prefer_late.preference = PreferenceSpec::MaximizeArg(1);
    auto a = svc.Submit(Query::Ir(kKramerIr), prefer_late);
    auto b = svc.Submit(Query::Ir("{Reservation(Kramer, y)} "
                                  "Reservation(Jerry, y) "
                                  ":- Flights(y, Paris)"),
                        prefer_late);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(svc.Drain());
    ASSERT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered)
        << a->outcome().status.ToString();
    EXPECT_EQ(a->outcome().tuples[0], "Reservation(Kramer, 134)");
    EXPECT_EQ(b->outcome().tuples[0], "Reservation(Jerry, 134)");
  }
}

TEST(PreferenceTest, ServiceWidePreferenceAppliesToAllQueries) {
  ServiceOptions o = Opts(2);
  // Prefer the lowest flight number, service-wide (§6 through
  // ServiceOptions): with ties the paper-core first answer is 122 anyway,
  // so minimize the negated number to force 134 and prove ranking ran.
  o.preference = [](ir::QueryId, const std::vector<ir::GroundAtom>& ts) {
    return ts.empty() ? 0.0 : static_cast<double>(ts[0].args[1].AsInt());
  };
  CoordinationService svc(o);
  auto a = svc.Submit(Query::Ir(kKramerIr));
  auto b = svc.Submit(Query::Ir(
      "{Reservation(Kramer, y)} Reservation(Jerry, y) :- Flights(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());
  ASSERT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_EQ(a->outcome().tuples[0], "Reservation(Kramer, 134)");
}

TEST(PreferenceTest, SessionDefaultPreferenceApplies) {
  CoordinationService svc(Opts(2));
  Session session(&svc, {.default_ttl_ticks = 1000,
                         .default_preference =
                             PreferenceSpec::MaximizeArg(1)});
  auto a = session.SubmitIr(kKramerIr);
  auto b = session.SubmitIr(
      "{Reservation(Kramer, y)} Reservation(Jerry, y) :- Flights(y, Paris)");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());
  ASSERT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered);
  EXPECT_EQ(a->outcome().tuples[0], "Reservation(Kramer, 134)");
}

TEST(SessionTest, ExecuteWriteSpeaksTheSqlWriteDialect) {
  // The Session facade covers the full declarative surface: SQL reads AND
  // SQL writes through one handle. An UPDATE reroutes the Rome flight to
  // the destination a pending pair coordinates on.
  CoordinationService svc(Opts(2, engine::EvalMode::kIncremental));
  Session session(&svc);
  auto a = session.SubmitSql(
      "SELECT 'Kramer', fno INTO ANSWER Reservation "
      "WHERE fno IN (SELECT fno FROM Flights WHERE dest='Kyoto') "
      "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1");
  auto b = session.SubmitSql(
      "SELECT 'Jerry', fno INTO ANSWER Reservation "
      "WHERE fno IN (SELECT fno FROM Flights WHERE dest='Kyoto') "
      "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1");
  ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString();

  auto rows =
      session.ExecuteWrite("UPDATE Flights SET dest = 'Kyoto' WHERE fno = 136");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, 1u);
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered)
      << a->outcome().status.ToString();
  EXPECT_EQ(a->outcome().tuples[0], "Reservation(Kramer, 136)");

  // Write errors are synchronous, like SQL query submission.
  EXPECT_EQ(
      session.ExecuteWrite("DELETE FROM Trains WHERE tno = 1").status().code(),
      StatusCode::kNotFound);
}

// ------------------------------------------------- per-query submission --

TEST(SubmitTest, ManyPairsAllCoordinate) {
  CoordinationService svc(Opts(4));
  std::vector<Ticket> tickets;
  const int kPairs = 16;
  for (int i = 0; i < kPairs; ++i) {
    std::string rel = "Rel" + std::to_string(i);
    for (const Query& q :
         {Query::Ir("{" + rel + "(B" + std::to_string(i) + ", x)} " + rel +
                    "(A" + std::to_string(i) + ", x) :- Flights(x, Paris)"),
          Query::Ir("{" + rel + "(A" + std::to_string(i) + ", y)} " + rel +
                    "(B" + std::to_string(i) + ", y) :- Flights(y, Paris)")}) {
      auto t = svc.Submit(q);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      tickets.push_back(*t);
    }
  }
  ASSERT_TRUE(svc.Drain());
  for (const Ticket& t : tickets) {
    EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered)
        << t.outcome().status.ToString();
  }
  EXPECT_EQ(svc.Metrics().answered, 2u * kPairs);
}

TEST(SubmitTest, BridgeQueryMergesGroupsAndMigratesStranded) {
  // The last query bridges the groups created by the first two: routing it
  // merges the groups and migrates the stranded one (indexed sweep).
  CoordinationService svc(Opts(2, engine::EvalMode::kSetAtATime));
  std::vector<Ticket> tickets;
  for (const Query& q :
       {Query::Ir("{Ra(Bob, x)} Ra(Alice, x) :- Flights(x, Paris)"),
        Query::Ir("{Rb(Carol, y)} Rb(Dan, y) :- Flights(y, Paris)"),
        Query::Ir("{Ra(Alice, z), Rb(Dan, z)} Ra(Bob, z), Rb(Carol, z) "
                  ":- Flights(z, Paris)")}) {
    auto t = svc.Submit(q);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tickets.push_back(*t);
  }
  EXPECT_EQ(svc.router().ShardOfRelation("Ra"),
            svc.router().ShardOfRelation("Rb"));
  ASSERT_TRUE(svc.Drain());
  for (const Ticket& t : tickets) {
    EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered)
        << t.outcome().status.ToString();
  }
}

// The ThreadSanitizer workhorse for the submit path: concurrent per-query
// submissions in all three dialects (SQL, IR, builder) against a live
// 1 ms ticker.
TEST(SubmitTest, ConcurrentMixedDialectSubmitsCoordinate) {
  ServiceOptions o = Opts(4);
  o.tick_interval = std::chrono::milliseconds(1);
  CoordinationService svc(o);
  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 8;
  constexpr int kPairsPerRound = 3;
  // One side of a pair: `me` reserves the same Paris flight as `partner`
  // in `rel`, phrased in dialect `d` (0 = SQL, 1 = IR, 2 = builder).
  auto side = [](int d, const std::string& rel, const std::string& me,
                 const std::string& partner) -> Query {
    switch (d) {
      case 0:
        return Query::Sql("SELECT '" + me + "', fno INTO ANSWER " + rel +
                          " WHERE fno IN (SELECT fno FROM Flights WHERE "
                          "dest='Paris') AND ('" + partner + "', fno) IN "
                          "ANSWER " + rel + " CHOOSE 1");
      case 1:
        return Query::Ir("{" + rel + "(" + partner + ", x)} " + rel + "(" +
                         me + ", x) :- Flights(x, Paris)");
      default:
        return QueryBuilder()
            .Postcondition(rel, {Str(partner), Var("y")})
            .Head(rel, {Str(me), Var("y")})
            .Body("Flights", {Var("y"), Str("Paris")})
            .Build();
    }
  };
  std::vector<std::vector<Ticket>> per_thread(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRoundsPerThread; ++r) {
        for (int i = 0; i < kPairsPerRound; ++i) {
          std::string rel = "T" + std::to_string(t) + "_" +
                            std::to_string(r) + "_" + std::to_string(i);
          std::string a = "A" + std::to_string(t);
          std::string z = "Z" + std::to_string(t);
          // Pair i mixes dialects (i, i+1): SQL+IR, IR+builder, builder+SQL.
          for (const Query& q :
               {side(i % 3, rel, a, z), side((i + 1) % 3, rel, z, a)}) {
            auto ticket = svc.Submit(q);
            ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
            per_thread[t].push_back(*ticket);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_TRUE(svc.Drain());
  for (const auto& tickets : per_thread) {
    for (const Ticket& t : tickets) {
      ASSERT_TRUE(t.WaitFor(std::chrono::milliseconds(10000)));
      EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered)
          << t.outcome().status.ToString();
    }
  }
  EXPECT_EQ(svc.Metrics().answered,
            2u * kThreads * kRoundsPerThread * kPairsPerRound);
}

// -------------------------------------------------- admission control ----

TEST(AdmissionControlTest, FullQueueFailsFastWithResourceExhausted) {
  ServiceOptions o = Opts(1);
  o.max_queue_depth = 1;
  // Hold the shard thread at startup (the on_shard_start hook runs on the
  // shard thread, after the single storage bootstrap on the constructing
  // thread) so queued ops cannot drain while we probe the admission bound.
  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate = release->get_future().share();
  o.on_shard_start = [gate](uint32_t) { gate.wait(); };
  CoordinationService svc(o);
  auto t1 = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- Flights(x, Paris)"));
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  auto t2 = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- Flights(y, Paris)"));
  ASSERT_FALSE(t2.ok());
  EXPECT_EQ(t2.status().code(), StatusCode::kResourceExhausted);
  // Backpressure polish: the rejection tells the client how deep the
  // queue is and hints at retrying, so clients can implement backoff
  // without string-matching numeric codes.
  EXPECT_NE(t2.status().message().find("queue depth 1"), std::string::npos)
      << t2.status().ToString();
  EXPECT_NE(t2.status().message().find("max_queue_depth=1"),
            std::string::npos)
      << t2.status().ToString();
  EXPECT_NE(t2.status().message().find("retry"), std::string::npos)
      << t2.status().ToString();
  EXPECT_EQ(svc.inflight_count(), 1u);
  release->set_value();
  ASSERT_TRUE(svc.Drain());
  // The admitted query resolved (partnerless, since its pair was refused).
  ASSERT_TRUE(t1->Done());
  EXPECT_EQ(t1->outcome().state, ServiceOutcome::State::kFailed);
}

TEST(AdmissionControlTest, RejectedSubmissionDoesNotMutateRouting) {
  // Regression: the admission check must run BEFORE routing commits — a
  // rejected bridge query must not merge relation groups or migrate
  // stranded partners onto the saturated shard.
  ServiceOptions o = Opts(2);
  o.max_queue_depth = 1;
  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate = release->get_future().share();
  o.on_shard_start = [gate](uint32_t) { gate.wait(); };  // gate both shards
  CoordinationService svc(o);
  auto t1 = svc.Submit(Query::Ir("{Ra(B, x)} Ra(A, x) :- Flights(x, Paris)"));
  auto t2 = svc.Submit(Query::Ir("{Rb(D, y)} Rb(C, y) :- Flights(y, Paris)"));
  ASSERT_TRUE(t1.ok() && t2.ok());
  uint32_t shard_a = svc.router().ShardOfRelation("Ra");
  uint32_t shard_b = svc.router().ShardOfRelation("Rb");
  ASSERT_NE(shard_a, shard_b);
  // The bridge would merge Ra/Rb onto a shard whose queue is full.
  auto bridge = svc.Submit(Query::Ir(
      "{Ra(A, z), Rb(D, z)} Ra(B, z), Rb(C, z) :- Flights(z, Paris)"));
  ASSERT_FALSE(bridge.ok());
  EXPECT_EQ(bridge.status().code(), StatusCode::kResourceExhausted);
  // Routing state untouched: the groups are still distinct and pinned
  // where they were, and no migration was started.
  EXPECT_EQ(svc.router().ShardOfRelation("Ra"), shard_a);
  EXPECT_EQ(svc.router().ShardOfRelation("Rb"), shard_b);
  EXPECT_EQ(svc.router().group_count(), 2u);
  EXPECT_EQ(svc.inflight_count(), 2u);
  release->set_value();
  ASSERT_TRUE(svc.Drain());
}

TEST(AdmissionControlTest, UnlimitedByDefault) {
  CoordinationService svc(Opts(1));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    std::string rel = "Rel" + std::to_string(i);
    auto a = svc.Submit(
        Query::Ir("{" + rel + "(B, x)} " + rel + "(A, x) :- Flights(x, Paris)"));
    auto b = svc.Submit(
        Query::Ir("{" + rel + "(A, y)} " + rel + "(B, y) :- Flights(y, Paris)"));
    ASSERT_TRUE(a.ok() && b.ok());
    tickets.push_back(*a);
    tickets.push_back(*b);
  }
  ASSERT_TRUE(svc.Drain());
  for (const Ticket& t : tickets) {
    EXPECT_EQ(t.outcome().state, ServiceOutcome::State::kAnswered);
  }
}

// --------------------------------------------------- edge catalog knob ----

TEST(EdgeCatalogTest, RecycleThresholdIsConfigurableAndCheap) {
  // A tiny recycle threshold forces the edge catalog to be re-seeded from
  // the shared snapshot every other prepared query. SQL translation and
  // builder validation must keep working across recycles (schemas come
  // from the shared immutable snapshot, not a re-run bootstrap), and
  // coordination outcomes are unaffected.
  ServiceOptions o = Opts(2, engine::EvalMode::kSetAtATime);
  o.edge_recycle_uses = 2;
  CoordinationService svc(o);
  for (int round = 0; round < 8; ++round) {
    auto tk = svc.Submit(Query::Sql(kKramerSql));
    auto tj = svc.Submit(Query::Sql(kJerrySql));
    ASSERT_TRUE(tk.ok()) << tk.status().ToString();
    ASSERT_TRUE(tj.ok()) << tj.status().ToString();
    ASSERT_TRUE(svc.Drain());
    EXPECT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
        << tk->outcome().status.ToString();
    EXPECT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
        << tj->outcome().status.ToString();
  }
  // Schema errors still surface synchronously after many recycles.
  auto bad = svc.Submit(Query::Sql(
      "SELECT 'X', fno INTO ANSWER R "
      "WHERE fno IN (SELECT fno FROM NoSuchTable) "
      "AND ('Y', fno) IN ANSWER R CHOOSE 1"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------- migration round trip --

TEST(MigrationTest, SqlAndBuilderQueriesSurviveGroupMergeMigration) {
  // Force two groups onto different shards, then bridge them. The stranded
  // side was submitted as SQL: migration must re-submit its canonical
  // portable form (never re-translating on the winning shard).
  CoordinationService svc(Opts(2, engine::EvalMode::kSetAtATime));
  auto t1 = svc.Submit(Query::Sql(
      "SELECT 'Alice', fno INTO ANSWER Ra "
      "WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') "
      "AND ('Bob', fno) IN ANSWER Ra CHOOSE 1"));
  auto t2 = svc.Submit(QueryBuilder()
                           .Postcondition("Rb", {Str("Carol"), Var("y")})
                           .Head("Rb", {Str("Dan"), Var("y")})
                           .Body("Flights", {Var("y"), Str("Paris")})
                           .Build());
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  ASSERT_NE(svc.router().ShardOfRelation("Ra"),
            svc.router().ShardOfRelation("Rb"));
  // The bridge entangles Ra and Rb; one of the first two queries migrates.
  auto t3 = svc.Submit(Query::Ir(
      "{Ra(Alice, z), Rb(Dan, z)} Ra(Bob, z), Rb(Carol, z) "
      ":- Flights(z, Paris)"));
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(svc.router().ShardOfRelation("Ra"),
            svc.router().ShardOfRelation("Rb"));
  ASSERT_TRUE(svc.Drain());
  EXPECT_GE(svc.Metrics().migrations, 1u);
  EXPECT_EQ(t1->outcome().state, ServiceOutcome::State::kAnswered)
      << t1->outcome().status.ToString();
  EXPECT_EQ(t2->outcome().state, ServiceOutcome::State::kAnswered)
      << t2->outcome().status.ToString();
  EXPECT_EQ(t3->outcome().state, ServiceOutcome::State::kAnswered)
      << t3->outcome().status.ToString();
  // Coordinated across dialects: all three name the same flight.
  std::string f1 = t1->outcome().tuples[0];
  std::string f3 = t3->outcome().tuples[0];
  EXPECT_EQ(f1.substr(f1.find(',')), f3.substr(f3.find(',')));
}

}  // namespace
}  // namespace eq::client
