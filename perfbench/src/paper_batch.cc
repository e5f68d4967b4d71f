// The paper_batch workload: the paper's §5.3 batch on the bare engine.
//
// A generated SocialGraph stands in for the paper's Slashdot graph.
// FlightWorkload loads Friends/User into a db::Storage and generates
// best-case two-way pairs plus three-way triangles; each round submits
// about 20k of them to a fresh set-at-a-time engine::CoordinationEngine
// and flushes it. No service layer is involved. Every outcome is checked
// against an independent model of the engine's semantics for these fully
// ground queries.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/query.h"
#include "common.h"
#include "db/storage.h"
#include "engine/engine.h"
#include "layers.h"
#include "util/rng.h"
#include "workload/flight_workload.h"
#include "workload/social_graph.h"

namespace eq::perfbench {
namespace {

constexpr uint32_t kUsers = 20000;
/// The social graph is the workload's fixed data set, as the Slashdot graph
/// was the paper's: one graph seed for every run. --seed draws the queries.
constexpr uint64_t kGraphSeed = 42;
constexpr size_t kRoundQueries = 20000;

/// The workload's database and generator, built once per set-up.
struct Setup {
  workload::SocialGraph graph;
  std::shared_ptr<StringInterner> interner =
      std::make_shared<StringInterner>();
  db::Storage storage{interner};
  ir::QueryContext ctx{interner};
  std::unique_ptr<workload::FlightWorkload> flights;
  double load_s = 0;

  /// Hometown of the user a "u<id>" symbol names.
  uint32_t Hometown(SymbolId user) const {
    return graph.Hometown(
        static_cast<uint32_t>(std::stoul(interner->Name(user).substr(1))));
  }
};

std::unique_ptr<Setup> BuildSetup(uint32_t users, uint64_t seed) {
  auto s = std::make_unique<Setup>();
  workload::SocialGraphOptions go;
  go.num_users = users;
  go.seed = seed;
  s->graph = workload::SocialGraph::Generate(go);
  s->flights = std::make_unique<workload::FlightWorkload>(&s->graph, &s->ctx);
  const auto t0 = Clock::now();
  const Status st = s->flights->PopulateDatabase(s->storage.mutable_db());
  s->storage.Publish();
  s->load_s = MsBetween(t0, Clock::now()) / 1000.0;
  if (!st.ok()) return nullptr;
  return s;
}

/// One batch: pairs, then triangles.
std::vector<ir::EntangledQuery> MakeRound(Setup& s, size_t queries, Rng* rng) {
  std::vector<ir::EntangledQuery> r = s.flights->TwoWayBestCase(queries / 4, rng);
  std::vector<ir::EntangledQuery> tri = s.flights->ThreeWay(queries / 6, rng);
  r.insert(r.end(), std::make_move_iterator(tri.begin()),
           std::make_move_iterator(tri.end()));
  return r;
}

enum Outcome : int { kPending = 0, kAnswered = 1, kFailed = 2, kUnsafe = 3 };

/// The tuple an answered query returns: its ground head Reserve(me, dest).
ir::GroundAtom HeadOf(const ir::EntangledQuery& q) {
  ir::GroundAtom a;
  a.relation = q.head[0].relation;
  for (const auto& t : q.head[0].args) a.args.push_back(t.value());
  return a;
}

/// The expected outcome of every query of a round, from the paper's
/// semantics for ground queries. Safety admits in submission order: a
/// query is refused when its postcondition already has two admitted
/// heads, or when its head would give an admitted postcondition a second
/// one. Algorithm 1 then removes every admitted query whose postcondition
/// no admitted head matches, and everything whose postcondition a removed
/// query's head satisfied. The survivors of each connected component form
/// one combined query, answered iff every member's body holds — the
/// member lives in its named partner's city.
std::vector<int> Expected(const std::vector<ir::EntangledQuery>& r,
                          const Setup& s) {
  const size_t n = r.size();
  auto key = [](SymbolId user, SymbolId dest) {
    return (static_cast<uint64_t>(user) << 32) | dest;
  };
  std::vector<uint64_t> head(n), pc(n);
  std::unordered_map<uint64_t, std::vector<size_t>> heads, pcs;
  std::vector<int> out(n, kPending);
  for (size_t i = 0; i < n; ++i) {
    const ir::EntangledQuery& q = r[i];
    const SymbolId dest = q.head[0].args[1].value().AsStr();
    head[i] = key(q.head[0].args[0].value().AsStr(), dest);
    pc[i] = key(q.postconditions[0].args[0].value().AsStr(), dest);
    auto pc_heads = heads.find(pc[i]);
    const bool ambiguous =
        pc_heads != heads.end() && pc_heads->second.size() >= 2;
    const bool second_match =
        pcs.count(head[i]) != 0 && heads.count(head[i]) != 0;
    if (ambiguous || second_match) {
      out[i] = kUnsafe;
      continue;
    }
    heads[head[i]].push_back(i);
    pcs[pc[i]].push_back(i);
  }

  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<size_t> unmatched;
  for (size_t i = 0; i < n; ++i) {
    if (out[i] == kUnsafe) continue;
    auto it = heads.find(pc[i]);
    if (it == heads.end()) {
      unmatched.push_back(i);
    } else {
      parent[find(i)] = find(it->second[0]);
    }
  }
  while (!unmatched.empty()) {
    const size_t i = unmatched.back();
    unmatched.pop_back();
    if (out[i] != kPending) continue;
    out[i] = kFailed;
    auto it = pcs.find(head[i]);
    if (it == pcs.end()) continue;
    for (size_t child : it->second) {
      if (out[child] == kPending) unmatched.push_back(child);
    }
  }
  std::unordered_map<size_t, bool> component_ok;
  for (size_t i = 0; i < n; ++i) {
    if (out[i] != kPending) continue;
    const ir::EntangledQuery& q = r[i];
    const bool body =
        s.Hometown(q.head[0].args[0].value().AsStr()) ==
        s.Hometown(q.postconditions[0].args[0].value().AsStr());
    auto [it, fresh] = component_ok.emplace(find(i), body);
    if (!fresh) it->second = it->second && body;
  }
  for (size_t i = 0; i < n; ++i) {
    if (out[i] == kPending) out[i] = component_ok[find(i)] ? kAnswered : kFailed;
  }
  return out;
}

struct RoundResult {
  size_t queries = 0;
  double ms = 0;  ///< submit + flush
  double flush_ms = 0;
  std::vector<double> submit_us;  ///< per Submit call, when timed
  engine::EngineMetrics metrics;
  uint64_t answered = 0, unsafe = 0, unresolved = 0, wrong = 0;
};

/// Submits a round to a fresh set-at-a-time engine, flushes it, and
/// compares every outcome with `expected`.
RoundResult RunRound(Setup& s, const std::vector<ir::EntangledQuery>& r,
                     const std::vector<int>& expected, bool time_calls) {
  std::vector<ir::EntangledQuery> queries = r;  // outside the timing
  const size_t n = queries.size();
  std::vector<int> state(n, kPending);
  std::vector<ir::GroundAtom> tuple(n);
  engine::CoordinationEngine eng(&s.ctx, s.storage.Current());
  eng.SetCallback([&](ir::QueryId q, const engine::QueryOutcome& o) {
    if (o.state == engine::QueryOutcome::State::kAnswered) {
      state[q] = kAnswered;
      if (o.tuples.size() == 1) tuple[q] = o.tuples[0];
    } else {
      state[q] = o.status.code() == StatusCode::kUnsafe ? kUnsafe : kFailed;
    }
  });

  RoundResult out;
  out.queries = n;
  if (time_calls) out.submit_us.reserve(n);
  const auto t0 = Clock::now();
  for (auto& q : queries) {
    if (time_calls) {
      const auto c0 = Clock::now();
      (void)eng.Submit(std::move(q));
      out.submit_us.push_back(UsBetween(c0, Clock::now()));
    } else {
      (void)eng.Submit(std::move(q));
    }
  }
  const auto f0 = Clock::now();
  (void)eng.Flush();
  const auto t1 = Clock::now();
  out.ms = MsBetween(t0, t1);
  out.flush_ms = MsBetween(f0, t1);
  out.metrics = eng.metrics();

  for (size_t i = 0; i < n; ++i) {
    if (state[i] == kPending) ++out.unresolved;
    if (state[i] == kAnswered) ++out.answered;
    if (state[i] == kUnsafe) ++out.unsafe;
    const bool right = state[i] == expected[i] &&
                       (state[i] != kAnswered || tuple[i] == HeadOf(r[i]));
    if (state[i] != kPending && !right) ++out.wrong;
  }
  return out;
}

/// SQL writes on the workload's own User table for the write-path replay:
/// of every five, two move a user to another city and three insert a user.
std::vector<std::string> UserWrites(const Setup& s, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 < 2) {
      const auto u = static_cast<uint32_t>(rng.Below(s.graph.num_users()));
      const auto a = static_cast<uint32_t>(rng.Below(s.graph.num_airports()));
      out.push_back("UPDATE User SET hometown = '" + s.graph.AirportName(a) +
                    "' WHERE name = '" + s.graph.UserName(u) + "'");
    } else {
      std::string sql = "INSERT INTO User VALUES ('probe";
      sql += std::to_string(i);
      sql += "', 'ITH')";
      out.push_back(std::move(sql));
    }
  }
  return out;
}

/// Metrics of layers this workload does not cross: it has no service and
/// no cluster, so they read 0.
void ZeroLayers(Report* report) {
  const char* const us[] = {
      "service.prepare_us.p50",        "service.submit_call_us.p50",
      "service.submit_call_us.p99",    "service.route_us.p50",
      "service.queue_wait_us.p50",     "service.queue_wait_us.p99",
      "service.engine_dwell_us.p50",   "service.callback_delay_us.p50",
      "cluster.remote_submit_call_us.p50"};
  for (const char* name : us) report->Metric(name, 0, "us");
  const char* const ratios[] = {
      "service.plan_cache_hit_ratio", "service.shard_load_imbalance",
      "service.wakeup_useful_ratio", "service.notify_coalesced_ratio",
      "cluster.remote_share"};
  for (const char* name : ratios) report->Metric(name, 0, "ratio");
  report->Metric("service.evals_per_query", 0, "count");
  report->Metric("service.wakeups_per_write", 0, "count");
  report->Metric("service.snapshot_lag_versions.max", 0, "versions");
  report->Metric("cluster.replication_lag_ms.p50", 0, "ms");
  report->Metric("harness.send_lag_ms.p99", 0, "ms");
}

/// End-to-end metrics of a service under an open loop, which a batch on
/// a bare engine does not have: they read 0.
void ZeroServiceMetrics(Report* report) {
  const char* const ms[] = {"group_p50_ms",           "group_p99_ms",
                            "write_p50_ms",           "write_p99_ms",
                            "write_to_answer_p50_ms", "write_to_answer_p95_ms"};
  for (const char* name : ms) report->Metric(name, 0, "ms");
  report->Metric("max_qps_at_slo", 0, "queries/s");
}

}  // namespace

void RunPaperBatch(Report* report) {
  const RunOptions& opts = report->options();
  const uint32_t users = opts.tiny ? 2000 : kUsers;
  const size_t round_queries = opts.tiny ? 600 : kRoundQueries;
  const double scale = opts.tiny ? 0.1 : opts.seconds / 10.0;

  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < (opts.tiny || opts.trace ? 1 : 3); ++i) {
    s.reset();
    const auto t0 = Clock::now();
    s = BuildSetup(users, kGraphSeed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (!s) {
      report->Check(false, "populating the flight database failed");
      return;
    }
  }
  Rng rng(opts.seed ^ 0xBA7C4ULL);

  uint64_t queries = 0, answered = 0, unsafe = 0, unresolved = 0, wrong = 0;
  auto run = [&](size_t n, bool time_calls,
                 std::vector<ir::EntangledQuery>* keep = nullptr) {
    std::vector<ir::EntangledQuery> r = MakeRound(*s, n, &rng);
    const std::vector<int> expected = Expected(r, *s);
    RoundResult rr = RunRound(*s, r, expected, time_calls);
    queries += rr.queries;
    answered += rr.answered;
    unsafe += rr.unsafe;
    unresolved += rr.unresolved;
    wrong += rr.wrong;
    if (keep) *keep = std::move(r);
    return rr;
  };
  auto finish = [&]() {
    report->Check(wrong == 0, std::to_string(wrong) +
                                  " batch outcomes differ from the model");
    report->Count(queries, unresolved);
    report->Note("batch.queries", static_cast<double>(queries));
    report->Note("batch.answered", static_cast<double>(answered));
    report->Note("batch.unsafe", static_cast<double>(unsafe));
    report->Note("batch.failed", static_cast<double>(queries - answered - unsafe));
  };

  if (opts.trace) {
    // Alternate plain and timed rounds: their medians give the overhead
    // of timing every call.
    std::vector<double> plain_ms, timed_ms, submit_us, flush_ms, partitions,
        rejected;
    double match_s = 0, db_s = 0, covered_ms = 0, total_ms = 0;
    size_t timed_queries = 0;
    std::vector<ir::EntangledQuery> first;
    for (int i = 0; i < 4; ++i) {
      const bool timed = i % 2 == 1;
      RoundResult rr = run(round_queries, timed, i == 0 ? &first : nullptr);
      (timed ? timed_ms : plain_ms).push_back(rr.ms);
      if (!timed) continue;
      double calls_ms = 0;
      for (double us : rr.submit_us) calls_ms += us / 1000.0;
      submit_us.insert(submit_us.end(), rr.submit_us.begin(),
                       rr.submit_us.end());
      flush_ms.push_back(rr.flush_ms);
      partitions.push_back(static_cast<double>(rr.metrics.partitions_evaluated));
      rejected.push_back(static_cast<double>(rr.metrics.rejected_unsafe));
      match_s += rr.metrics.match_seconds;
      db_s += rr.metrics.db_seconds;
      timed_queries += rr.queries;
      covered_ms += calls_ms + rr.flush_ms;
      total_ms += rr.ms;
    }
    const double kq = static_cast<double>(std::max<size_t>(1, timed_queries)) / 1000.0;
    report->Metric("engine.match_s_per_1k_queries", match_s / kq, "s");
    report->Metric("engine.db_s_per_1k_queries", db_s / kq, "s");
    report->Metric("engine.submit_us.p50", Median(submit_us), "us");
    report->Metric("engine.flush_ms", Median(flush_ms), "ms");
    report->Metric("engine.partitions_evaluated", Median(partitions), "count");
    report->Metric("engine.rejected_unsafe", Median(rejected), "count");
    report->Metric("db.bulk_load_s", s->load_s, "s");
    report->Metric("harness.trace_overhead",
                   Median(timed_ms) / std::max(Median(plain_ms), 1e-9), "ratio");
    report->Metric("harness.unattributed_share",
                   total_ms > 0 ? std::max(0.0, 1.0 - covered_ms / total_ms) : 0,
                   "ratio");
    ZeroLayers(report);

    ir::QuerySet qs;
    qs.queries = first;
    qs.AssignIds();
    ReplayCore(qs, s->storage.Current(), report);
    std::vector<client::PortableQuery> programs;
    for (size_t i = 0; i < first.size() && i < 3000; ++i) {
      programs.push_back(client::FromIr(first[i], s->ctx));
    }
    ReplayNet(programs, report);
    ReplayIntern(ConstantsOf(programs), report);
    db::Storage follower(s->interner);
    db::Database* fdb = follower.mutable_db();
    (void)fdb->CreateTable("Friends", {{"u1", ir::ValueType::kString},
                                       {"u2", ir::ValueType::kString}});
    (void)fdb->CreateTable("User", {{"name", ir::ValueType::kString},
                                    {"hometown", ir::ValueType::kString}});
    (void)fdb->GetTable("Friends")->BuildIndex(0);
    (void)fdb->GetTable("Friends")->BuildIndex(1);
    (void)fdb->GetTable("User")->BuildIndex(0);
    follower.Publish();
    ReplayWrites(UserWrites(*s, opts.tiny ? 20 : 500, opts.seed), &s->storage,
                 &follower, report);
    report->Metric("db.retained_versions.max",
                   static_cast<double>(s->storage.retained_versions()),
                   "versions");
    finish();
    return;
  }

  const int rounds = std::max(2, static_cast<int>(4 * scale + 0.5));
  double ms = 0;
  const double cpu0 = ProcessCpuSeconds();
  for (int i = 0; i < rounds; ++i) ms += run(round_queries, false).ms;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  finish();

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("cpu_us_per_query",
                 cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, queries)),
                 "us");
  report->Metric("batch_qps",
                 static_cast<double>(queries) * 1000.0 / std::max(ms, 1e-9),
                 "queries/s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("answered_share",
                 static_cast<double>(answered) /
                     static_cast<double>(std::max<uint64_t>(1, queries)),
                 "ratio");
  ZeroServiceMetrics(report);
  report->Note("setup.load_s", s->load_s);
  report->Note("rounds", rounds);
}

}  // namespace eq::perfbench
