// Service mode: the quickstart scenario through the sharded front-end,
// driven by the typed client API.
//
// Instead of driving a CoordinationEngine directly (examples/quickstart),
// clients open a Session over a CoordinationService and submit typed
// eq::client::Query values in any dialect — IR text, entangled SQL, or a
// QueryBuilder program (no parsing at all). A router fingerprints each
// query's translated entangled-relation signature and hands it to one of N
// shard threads, each owning a private engine + database snapshot. Clients
// get a future-style Ticket; coordination, staleness and cancellation all
// happen asynchronously behind it.
//
// Build & run:   ./build/examples/coordination_service

#include "db/database.h"
#include <chrono>
#include <cstdio>
#include <thread>

#include "client/session.h"

using namespace eq;

int main() {
  // The bootstrap runs ONCE, into the shared versioned storage; every
  // shard (and the edge catalog used for SQL translation) then shares the
  // same immutable snapshot of the Figure 1 (a) flight database.
  service::ServiceOptions opts;
  opts.num_shards = 4;
  opts.mode = engine::EvalMode::kIncremental;  // answer on partner arrival
  opts.tick_interval = std::chrono::milliseconds(10);  // staleness ticker
  // Slow-query log: any query resolving slower than 1ms gets its full
  // lifecycle trace handed to the sink (setting a threshold implies
  // trace_all, so every query's trace is available). The Kyoto pair below
  // pends on data for several ms, so it fires the sink.
  opts.slow_query_threshold_ms = 1.0;
  opts.slow_query_sink = [](const service::QueryTrace& trace) {
    std::printf("  [slow-query log] ticket %llu exceeded 1ms:\n%s",
                (unsigned long long)trace.ticket, trace.ToString().c_str());
  };
  opts.bootstrap = [](ir::QueryContext* ctx, db::Database* db) {
    db->CreateTable("F", {{"fno", ir::ValueType::kInt},
                          {"dest", ir::ValueType::kString}});
    db->CreateTable("A", {{"fno", ir::ValueType::kInt},
                          {"airline", ir::ValueType::kString}});
    auto S = [&](const char* s) { return ir::Value::Str(ctx->Intern(s)); };
    db->Insert("F", {ir::Value::Int(122), S("Paris")});
    db->Insert("F", {ir::Value::Int(123), S("Paris")});
    db->Insert("F", {ir::Value::Int(134), S("Paris")});
    db->Insert("F", {ir::Value::Int(136), S("Rome")});
    db->Insert("A", {ir::Value::Int(122), S("United")});
    db->Insert("A", {ir::Value::Int(123), S("United")});
    db->Insert("A", {ir::Value::Int(134), S("Lufthansa")});
    db->Insert("A", {ir::Value::Int(136), S("Alitalia")});
  };
  service::CoordinationService svc(opts);

  // A session with defaults: every query from this client carries a 500-tick
  // TTL and prefers the highest flight number unless it says otherwise.
  client::Session session(
      &svc, {.default_ttl_ticks = 500,
             .default_preference = client::PreferenceSpec::MaximizeArg(1)});

  std::printf("Kramer submits IR text (and waits for a partner)...\n");
  auto kramer = session.SubmitIr(
      "kramer: {R(Jerry, x)} R(Kramer, x) :- F(x, Paris)",
      {.callback = [](service::TicketId id,
                      const service::ServiceOutcome& outcome) {
        std::printf("  [callback] ticket %llu resolved: %s\n",
                    (unsigned long long)id,
                    outcome.state == service::ServiceOutcome::State::kAnswered
                        ? outcome.tuples[0].c_str()
                        : outcome.status.ToString().c_str());
      }});

  std::printf("Jerry submits a builder program (no parsing on its path)...\n");
  auto jerry = session.Submit(client::QueryBuilder()
                                  .Label("jerry")
                                  .Postcondition("R", {client::Str("Kramer"),
                                                       client::Var("y")})
                                  .Head("R", {client::Str("Jerry"),
                                              client::Var("y")})
                                  .Body("F", {client::Var("y"),
                                              client::Str("Paris")})
                                  .Body("A", {client::Var("y"),
                                              client::Str("United")})
                                  .Build());
  if (!kramer.ok() || !jerry.ok()) {
    std::fprintf(stderr, "submission failed: %s / %s\n",
                 kramer.status().ToString().c_str(),
                 jerry.status().ToString().c_str());
    return 1;
  }

  const auto& ko = kramer->Wait();
  const auto& jo = jerry->Wait();
  if (ko.state != service::ServiceOutcome::State::kAnswered ||
      jo.state != service::ServiceOutcome::State::kAnswered) {
    std::fprintf(stderr, "expected coordination to succeed: %s / %s\n",
                 ko.status.ToString().c_str(), jo.status.ToString().c_str());
    return 1;
  }
  std::printf("\nCoordinated booking (session prefers the latest flight):\n"
              "  Kramer -> %s\n  Jerry  -> %s\n",
              ko.tuples[0].c_str(), jo.tuples[0].c_str());

  // Live write ingestion: a brand-new Vienna flight lands as a CoW write
  // (only the touched table is copied; a new snapshot version publishes),
  // and a pair coordinating on it answers after the shards refresh.
  using TableWrite = db::Storage::TableWrite;
  auto Str = [&](const char* s) {
    return ir::Value::Str(svc.interner().Intern(s));
  };
  svc.ApplyBatch(
      {TableWrite::Insert("F", {ir::Value::Int(800), Str("Vienna")})});
  std::printf("\nWrote flight 800 to Vienna (storage now at version %llu)\n",
              (unsigned long long)svc.storage().version());
  auto elaine = session.SubmitIr(
      "elaine: {V(Puddy, v)} V(Elaine, v) :- F(v, Vienna)");
  auto puddy = session.SubmitIr(
      "puddy: {V(Elaine, w)} V(Puddy, w) :- F(w, Vienna)");
  if (elaine.ok() && puddy.ok()) {
    std::printf("Vienna pair coordinated on the written row:\n"
                "  Elaine -> %s\n  Puddy  -> %s\n",
                elaine->Wait().tuples[0].c_str(),
                puddy->Wait().tuples[0].c_str());
  }

  // Reactive write pipeline: the pair below wants Kyoto, which no flight
  // serves yet — both queries match each other and sit PENDING on data.
  // The write alone answers them: the service posts a WriteNotify to
  // exactly the shard whose pending partition reads F, that shard adopts
  // the fresh snapshot and re-evaluates just that partition. No flush, no
  // tick, no further submission.
  std::printf("\nGeorge and Susan want Kyoto; no such flight exists yet...\n");
  auto george = session.SubmitIr(
      "george: {K(Susan, g)} K(George, g) :- F(g, Kyoto)");
  auto susan = session.SubmitIr(
      "susan: {K(George, s)} K(Susan, s) :- F(s, Kyoto)");
  if (george.ok() && susan.ok()) {
    // Let the pair demonstrably reach the pending state (matched, no
    // data) before writing, so the answer below provably comes from the
    // write-triggered wake-up and not the per-submit snapshot refresh.
    while (svc.Metrics().pending < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::printf("  pending: george done=%d susan done=%d\n",
                george->Done() ? 1 : 0, susan->Done() ? 1 : 0);
    // Introspection while they are stuck: DumpState names the pending
    // queries, their entangled group, and each shard's snapshot lag.
    std::printf("%s", svc.DumpState().ToString().c_str());
    // Let the pair dwell past the 1ms slow-query threshold so the
    // resolution below demonstrably fires the sink.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    svc.ApplyBatch(
        {TableWrite::Insert("F", {ir::Value::Int(900), Str("Kyoto")})});
    std::printf("Wrote flight 900 to Kyoto — the write wakes them:\n"
                "  George -> %s\n  Susan  -> %s\n",
                george->Wait().tuples[0].c_str(),
                susan->Wait().tuples[0].c_str());
  }

  // Deletes and updates are first-class writes too (CoW: published
  // snapshots keep the rows they captured). Reroute 136 away from Rome and
  // retract the Vienna flight wholesale.
  svc.ApplyBatch({TableWrite::Update(
      "F", db::Predicate::Eq(0, ir::Value::Int(136)), {{1, Str("Naples")}})});
  size_t removed = 0;
  svc.ApplyBatch(
      {TableWrite::Delete("F", db::Predicate::Eq(1, Str("Vienna")))},
      &removed);
  std::printf("\nRerouted flight 136 to Naples; retracted %zu Vienna row(s); "
              "storage at version %llu\n",
              removed, (unsigned long long)svc.storage().version());

  // A third user books, changes their mind, and cancels.
  auto newman =
      session.SubmitIr("newman: {R(Ghost, z)} R(Newman, z) :- F(z, Rome)");
  if (newman.ok()) {
    session.Cancel(*newman);
    newman->Wait();
    std::printf("\nNewman cancelled: %s\n",
                newman->outcome().status.ToString().c_str());
  }

  std::printf("\n%s", svc.Metrics().ToString().c_str());
  return 0;
}
