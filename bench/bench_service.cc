// Service-layer throughput: queries/sec vs shard count.
//
// The tentpole claim of the sharded CoordinationService is that a
// disjoint-relation workload — coordinating pairs entangled through
// per-pair ANSWER relations — scales across shards, because the router
// sends each relation group to one shard and shards share nothing. The
// contended workload (every pair uses ONE global relation) is the designed
// worst case: the colocation invariant forces everything onto a single
// shard, so added shards contribute nothing. Reporting both shows the
// router doing its job in each direction.
//
//   --pairs=N    coordinating pairs per run (default 2000; --full 10000)
//   --shards=A,B,...  shard counts to sweep (default 1,2,4,8)
//   --json=PATH  write BENCH-style JSON rows
//
// Note: scaling is thread parallelism — on a single-core container the
// sweep mostly measures sharding overhead; run on >= 8 cores to see the
// near-linear regime.

#include "db/database.h"
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/workload.h"
#include "db/storage.h"
#include "client/query.h"
#include "client/session.h"
#include "cluster/node.h"
#include "net/socket.h"
#include "service/service.h"
#include "workload/kway_workload.h"

namespace eq::bench {
namespace {

using client::Query;
using service::CoordinationService;
using TableWrite = db::Storage::TableWrite;
using service::ServiceMetrics;
using service::ServiceOptions;
using service::Ticket;

/// Every shard snapshot: a flight table with a spread of destinations and
/// airlines, so each combined query does real join work.
void Bootstrap(ir::QueryContext* ctx, db::Database* db) {
  db->CreateTable("F", {{"fno", ir::ValueType::kInt},
                        {"dest", ir::ValueType::kString}});
  db->CreateTable("A", {{"fno", ir::ValueType::kInt},
                        {"airline", ir::ValueType::kString}});
  const char* dests[] = {"Paris", "Rome", "Ithaca", "Oslo"};
  const char* airlines[] = {"United", "Lufthansa", "Alitalia"};
  for (int fno = 0; fno < 512; ++fno) {
    db->Insert("F", {ir::Value::Int(fno),
                     ir::Value::Str(ctx->Intern(dests[fno % 4]))});
    db->Insert("A", {ir::Value::Int(fno),
                     ir::Value::Str(ctx->Intern(airlines[fno % 3]))});
  }
}

/// The two texts of coordinating pair `i`. Disjoint workload: relation
/// Rel<i> per pair; contended workload: one global relation, distinct users
/// per pair.
std::pair<std::string, std::string> Pair(size_t i, bool disjoint) {
  std::string rel = disjoint ? "Rel" + std::to_string(i) : "R";
  std::string a = "K" + std::to_string(i);
  std::string b = "J" + std::to_string(i);
  return {"{" + rel + "(" + b + ", x)} " + rel + "(" + a +
              ", x) :- F(x, Paris), A(x, United)",
          "{" + rel + "(" + a + ", y)} " + rel + "(" + b +
              ", y) :- F(y, Paris), A(y, United)"};
}

struct RunResult {
  double ms = 0;
  ServiceMetrics metrics;
};

/// A heavier bootstrap for the startup benchmark (--full: 64k rows), so
/// the shared-vs-copied difference is dominated by data, not thread spawn.
void BigBootstrap(size_t rows, ir::QueryContext* ctx, db::Database* db) {
  db->CreateTable("F", {{"fno", ir::ValueType::kInt},
                        {"dest", ir::ValueType::kString}});
  db->CreateTable("A", {{"fno", ir::ValueType::kInt},
                        {"airline", ir::ValueType::kString}});
  const char* dests[] = {"Paris", "Rome", "Ithaca", "Oslo"};
  const char* airlines[] = {"United", "Lufthansa", "Alitalia"};
  for (size_t fno = 0; fno < rows; ++fno) {
    db->Insert("F", {ir::Value::Int(static_cast<int64_t>(fno)),
                     ir::Value::Str(ctx->Intern(dests[fno % 4]))});
    db->Insert("A", {ir::Value::Int(static_cast<int64_t>(fno)),
                     ir::Value::Str(ctx->Intern(airlines[fno % 3]))});
  }
}

/// Startup cost with shared snapshots: service construction runs the
/// bootstrap ONCE and every shard adopts the same immutable snapshot, so
/// the time should be flat in the shard count.
double TimeSharedStartup(uint32_t shards, size_t rows) {
  ServiceOptions opts;
  opts.num_shards = shards;
  opts.bootstrap = [rows](ir::QueryContext* ctx, db::Database* db) {
    BigBootstrap(rows, ctx, db);
  };
  Stopwatch sw;
  CoordinationService svc(opts);
  svc.FlushAll();  // every shard demonstrably up and snapshot-adopted
  return sw.ElapsedMillis();
}

/// The pre-CoW baseline: one full bootstrap per shard into a private
/// context + database, run concurrently on N threads exactly as the old
/// ShardRunner::Run did. Wall clock hides some of the N× work behind
/// cores (on a big box it flattens until memory bandwidth saturates), but
/// the N× memory footprint and N× total CPU are inherent — and on the
/// 1-2 core CI containers wall clock is ~linear in N too.
double TimeCopiedStartup(uint32_t shards, size_t rows) {
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    threads.emplace_back([rows] {
      ir::QueryContext ctx;
      db::Database db(&ctx.interner());
      BigBootstrap(rows, &ctx, &db);
    });
  }
  for (auto& t : threads) t.join();
  return sw.ElapsedMillis();
}

/// Tracing configuration for the observability overhead sweep.
enum class TraceMode { kOff, kSampled, kAll };

RunResult RunOnce(uint32_t shards, size_t pairs, bool disjoint,
                  TraceMode tracing = TraceMode::kSampled) {
  ServiceOptions opts;
  opts.num_shards = shards;
  opts.max_batch = 256;
  opts.max_delay_ticks = 4;
  opts.bootstrap = Bootstrap;
  switch (tracing) {
    case TraceMode::kOff:
      opts.trace_sample_every = 0;
      break;
    case TraceMode::kSampled:
      break;  // the default: every 64th submission
    case TraceMode::kAll:
      opts.trace_all = true;
      break;
  }
  CoordinationService svc(opts);

  // Pre-render the texts so generation cost stays out of the timed region.
  std::vector<std::string> texts;
  texts.reserve(pairs * 2);
  for (size_t i = 0; i < pairs; ++i) {
    auto [qa, qb] = Pair(i, disjoint);
    texts.push_back(std::move(qa));
    texts.push_back(std::move(qb));
  }

  RunResult out;
  Stopwatch sw;
  for (std::string& text : texts) {
    auto t = svc.Submit(Query::Ir(std::move(text)));
    (void)t;
  }
  svc.Drain();
  out.ms = sw.ElapsedMillis();
  out.metrics = svc.Metrics();
  return out;
}

/// One prepare-path run: `threads` client threads each drive `ops`
/// Canonicalize calls (the prepare worker without submit/coordination —
/// pool checkout, parse/translate, plan-cache traffic, nothing else).
struct PrepareResult {
  double ms = 0;
  double hit_rate = 0;  ///< plan-cache hits / (hits + misses); 0 when cold
};

/// `cached` on: every thread cycles a handful of query shapes, so after
/// warmup the run measures the cache-hit path (key normalization + LRU
/// lookup, no pool checkout). Off: every op is a distinct shape with the
/// cache disabled — the cold path, one full parse per op on a pooled
/// context. Threads > 1 with cold shapes is the contention case the pool
/// exists for: the old single edge mutex serialized it.
PrepareResult RunPrepare(size_t threads, size_t ops, bool cached) {
  ServiceOptions opts;
  opts.num_shards = 2;
  opts.bootstrap = Bootstrap;
  opts.edge_pool_size = threads;  // one context per preparing thread
  opts.plan_cache_capacity = cached ? 1024 : 0;
  CoordinationService svc(opts);

  // Pre-render per-thread texts so generation stays out of the timed loop.
  std::vector<std::vector<std::string>> texts(threads);
  for (size_t t = 0; t < threads; ++t) {
    texts[t].reserve(ops);
    for (size_t i = 0; i < ops; ++i) {
      size_t shape = cached ? i % 4 : t * ops + i;
      std::string rel = "Rel" + std::to_string(shape);
      texts[t].push_back("{" + rel + "(J, x)} " + rel +
                         "(K, x) :- F(x, Paris), A(x, United)");
    }
  }
  if (cached) {  // warm the 4 shapes: the timed region is pure hits
    for (size_t i = 0; i < 4; ++i) {
      (void)svc.Canonicalize(eq::client::Query::Ir(texts[0][i]));
    }
  }

  PrepareResult out;
  Stopwatch sw;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&svc, &texts, t] {
      for (const std::string& text : texts[t]) {
        (void)svc.Canonicalize(eq::client::Query::Ir(text));
      }
    });
  }
  for (auto& w : workers) w.join();
  out.ms = sw.ElapsedMillis();
  ServiceMetrics m = svc.Metrics();
  uint64_t looked_up = m.prepare_cache_hits + m.prepare_cache_misses;
  out.hit_rate = looked_up > 0 ? static_cast<double>(m.prepare_cache_hits) /
                                     static_cast<double>(looked_up)
                               : 0;
  return out;
}

/// Per-round write→answer latencies for the reactive benchmark.
struct ReactiveStats {
  std::vector<double> ms;  ///< rounds where the pair answered
  size_t raced = 0;        ///< rounds a flush raced in and failed the pair
};

/// Measures write→answer latency of a pending pair completed by a write:
/// the WriteNotify path re-evaluates the affected partition from the write
/// itself. A tick-driven flush cadence runs underneath, so a round whose
/// flush slips in ahead of the write fails the dataless pair and counts as
/// raced.
ReactiveStats RunReactive(size_t rounds) {
  ServiceOptions opts;
  opts.num_shards = 2;
  opts.bootstrap = Bootstrap;
  // 2ms ticks, flush after 4 ticks with pending work: a flush lands up to
  // ~8ms after the pair registers.
  opts.tick_interval = std::chrono::milliseconds(2);
  opts.max_delay_ticks = 4;
  opts.max_batch = 1 << 20;  // never flush on batch size
  CoordinationService svc(opts);

  ReactiveStats out;
  int id = 0;
  while (out.ms.size() < rounds && out.raced < rounds * 4) {
    std::string rel = "Rel" + std::to_string(id);
    std::string dest = "Dest" + std::to_string(id);
    ++id;
    // The pending gauge is mirrored after shard op batches; let the
    // previous round's resolution drain out of it so the >= 2 check below
    // observes THIS round's pair, not a stale value (a write posted
    // before the pair registers would be picked up by the shard's
    // registration check instead, measuring submit processing).
    for (int i = 0; i < 2000 && svc.Metrics().pending != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    // Reset the per-shard flush clock (idle ticks accumulate toward the
    // max_delay_ticks deadline): after this, the next tick-driven flush is
    // a full cadence away, giving the write its ~8ms window instead of an
    // immediate flush that fails the dataless pair.
    svc.FlushAll();
    auto a = svc.Submit(
        Query::Ir("{" + rel + "(B, x)} " + rel + "(A, x) :- F(x, " +
                  dest + ")"));
    auto b = svc.Submit(
        Query::Ir("{" + rel + "(A, y)} " + rel + "(B, y) :- F(y, " +
                  dest + ")"));
    if (!a.ok() || !b.ok()) continue;
    // Wait until the pair is demonstrably pending on its shard, so the
    // round measures pure write→answer latency (not submit processing).
    bool pending = false;
    for (int i = 0; i < 2000 && !a->Done(); ++i) {
      if (svc.Metrics().pending >= 2) {
        pending = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (!pending) {  // a tick flush failed the pair before the write
      ++out.raced;
      continue;
    }
    Stopwatch sw;
    svc.ApplyBatch({TableWrite::Insert(
        "F", {ir::Value::Int(100000 + id),
              ir::Value::Str(svc.interner().Intern(dest))})});
    a->Wait();
    b->Wait();
    double ms = sw.ElapsedMillis();
    using State = service::ServiceOutcome::State;
    if (a->outcome().state == State::kAnswered &&
        b->outcome().state == State::kAnswered) {
      out.ms.push_back(ms);
    } else {
      ++out.raced;  // the flush slipped between the submit and the write
    }
  }
  return out;
}

/// Outcome of one write-burst run against a pending pair.
struct BurstStats {
  size_t writes = 0;        ///< writes issued (incl. the closing one)
  uint64_t notifies = 0;    ///< WriteNotify ops actually processed
  uint64_t coalesced = 0;   ///< notifications merged into a queued op
  double total_ms = 0;      ///< burst start → pair answered
};

/// Coalescing under a write burst: a pending pair reads F, and `writes`
/// rows land in F back-to-back from several client threads (none of them
/// satisfying the pair, so it stays pending and every write is
/// notify-worthy). While the shard is busy re-evaluating one wake-up,
/// later notifications merge into the single queued WriteNotify instead of
/// piling up — so the shard re-evaluates once per drain, not once per
/// write, and `notifies + coalesced ≈ writes` with `notifies` far below
/// `writes`. A final matching write closes the round.
BurstStats RunWriteBurst(size_t writes) {
  ServiceOptions opts;
  opts.num_shards = 2;
  opts.bootstrap = Bootstrap;
  opts.mode = engine::EvalMode::kIncremental;  // wake-up driven only
  CoordinationService svc(opts);

  auto a = svc.Submit(Query::Ir("{RelB(B, x)} RelB(A, x) :- F(x, BurstDest)"));
  auto b = svc.Submit(Query::Ir("{RelB(A, y)} RelB(B, y) :- F(y, BurstDest)"));
  if (!a.ok() || !b.ok()) return {};
  for (int i = 0; i < 2000 && svc.Metrics().pending < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  BurstStats out;
  SymbolId noise = svc.interner().Intern("BurstNoise");
  Stopwatch sw;
  const size_t kWriters = 4;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&svc, noise, w, writes] {
      for (size_t i = w; i < writes; i += kWriters) {
        svc.ApplyBatch({TableWrite::Insert(
            "F", {ir::Value::Int(200000 + static_cast<int>(i)),
                  ir::Value::Str(noise)})});
      }
    });
  }
  for (auto& t : writers) t.join();
  svc.ApplyBatch({TableWrite::Insert(
      "F", {ir::Value::Int(999999),
            ir::Value::Str(svc.interner().Intern("BurstDest"))})});
  a->Wait();
  b->Wait();
  out.total_ms = sw.ElapsedMillis();
  svc.Drain();  // let any still-queued notify drain before reading counters
  ServiceMetrics m = svc.Metrics();
  out.writes = writes + 1;
  out.notifies = m.write_wakeups;
  out.coalesced = m.write_notifies_coalesced;
  return out;
}

// --------------------------------------------------------------- cluster --

/// The embedded per-node service for the loopback cluster: incremental
/// evaluation so a pair resolves on the submit that completes it, exactly
/// like the cluster test configuration.
ServiceOptions ClusterLocalOpts() {
  ServiceOptions o;
  o.num_shards = 2;
  o.mode = engine::EvalMode::kIncremental;
  o.max_batch = 16;
  o.max_delay_ticks = 1;
  o.bootstrap = Bootstrap;
  return o;
}

struct LoopbackCluster {
  std::unique_ptr<cluster::ClusterNode> a;  // node 0 = storage owner
  std::unique_ptr<cluster::ClusterNode> b;  // node 1
  bool ok() const { return a != nullptr && b != nullptr; }
};

LoopbackCluster StartLoopbackCluster() {
  LoopbackCluster c;
  auto free_port = []() -> uint16_t {
    auto l = net::Listener::Bind("127.0.0.1", 0);
    return l.ok() ? l.value().port() : 0;
  };
  uint16_t pa = free_port();
  uint16_t pb = free_port();
  if (pa == 0 || pb == 0) return c;
  auto mk = [](uint32_t self, uint16_t self_port, uint32_t peer,
               uint16_t peer_port) {
    cluster::ClusterOptions o;
    o.node_id = self;
    o.listen_port = self_port;
    o.peers = {{peer, "127.0.0.1", peer_port}};
    o.storage_owner = 0;
    o.io_timeout_ms = 5000;
    o.service = ClusterLocalOpts();
    return cluster::ClusterNode::Start(std::move(o));
  };
  auto ra = mk(0, pa, 1, pb);
  auto rb = mk(1, pb, 0, pa);
  if (ra.ok()) c.a = std::move(ra.value());
  if (rb.ok()) c.b = std::move(rb.value());
  return c;
}

/// First relation with the given prefix whose entangled group the cluster
/// routes to `want` (both nodes compute the same deterministic owner).
std::string ClusterRelOwnedBy(cluster::ClusterService& svc, uint32_t want,
                              const std::string& prefix) {
  for (int i = 0; i < 256; ++i) {
    std::string rel = prefix + std::to_string(i);
    if (svc.OwnerOf({rel}) == want) return rel;
  }
  return prefix + "0";  // unreachable with a 2-node member list
}

std::pair<std::string, std::string> ClusterPair(const std::string& rel,
                                                const std::string& dest) {
  return {"{" + rel + "(J, x)} " + rel + "(K, x) :- F(x, " + dest + ")",
          "{" + rel + "(K, y)} " + rel + "(J, y) :- F(y, " + dest + ")"};
}

/// Submit-to-answer latency of a coordinating pair whose group is owned
/// by `owner_node`, submitted through `node`'s session: owner == self is
/// the in-process path, owner == peer adds one forwarded submit and one
/// outcome frame per half over loopback TCP.
std::vector<double> RunClusterSubmit(cluster::ClusterNode& node,
                                     uint32_t owner_node, size_t rounds,
                                     const char* prefix) {
  std::vector<double> ms;
  ms.reserve(rounds);
  client::Session session(&node.service());
  for (size_t i = 0; i < rounds; ++i) {
    std::string rel = ClusterRelOwnedBy(
        node.service(), owner_node,
        std::string(prefix) + std::to_string(i) + "x");
    auto [qa, qb] = ClusterPair(rel, "Paris");
    Stopwatch sw;
    auto ta = session.SubmitIr(qa);
    auto tb = session.SubmitIr(qb);
    if (!ta.ok() || !tb.ok()) continue;
    if (!ta->WaitFor(std::chrono::seconds(10))) continue;
    if (!tb->WaitFor(std::chrono::seconds(10))) continue;
    ms.push_back(sw.ElapsedMillis());
  }
  return ms;
}

/// Write→remote-wakeup latency: a pair parked on node 1 waiting for a row
/// that does not exist, completed by a write issued on node 1 — which
/// forwards to the storage owner (node 0), applies there, and ships back
/// as a version delta that wakes the pending pair.
std::vector<double> RunClusterWriteWakeup(cluster::ClusterNode& b,
                                          size_t rounds) {
  std::vector<double> ms;
  ms.reserve(rounds);
  client::Session on_b(&b.service());
  for (size_t i = 0; i < rounds; ++i) {
    std::string rel =
        ClusterRelOwnedBy(b.service(), 1, "W" + std::to_string(i) + "x");
    std::string dest = "Dst" + std::to_string(i);
    auto [qa, qb] = ClusterPair(rel, dest);
    auto ta = on_b.SubmitIr(qa);
    auto tb = on_b.SubmitIr(qb);
    if (!ta.ok() || !tb.ok()) continue;
    Stopwatch sw;
    auto w = on_b.ExecuteWrite("INSERT INTO F VALUES (" +
                               std::to_string(300000 + static_cast<int>(i)) +
                               ", '" + dest + "')");
    if (!w.ok()) continue;
    if (!ta->WaitFor(std::chrono::seconds(10))) continue;
    if (!tb->WaitFor(std::chrono::seconds(10))) continue;
    ms.push_back(sw.ElapsedMillis());
  }
  return ms;
}

// Percentile and Mean come from bench_common.h (shared with the open-loop
// driver in bench/workload.cc).

// -------------------------------------------------------------- workload --

/// Service configuration for the open-loop workload runs: incremental
/// evaluation, so a k-way group resolves on the submission that closes its
/// postcondition ring — measured latency is queueing + coordination, not
/// flush cadence.
ServiceOptions WorkloadOpts() {
  ServiceOptions o;
  o.num_shards = 4;
  o.mode = engine::EvalMode::kIncremental;
  o.bootstrap = Bootstrap;
  return o;
}

/// One catalog entry of the open-loop workload matrix.
struct WorkloadPoint {
  const char* workload;  ///< "kway" | "churn" | "skew"
  int k;                 ///< members per entangled group
  double offered_qps;    ///< target offered load, queries/sec
  double write_qps;      ///< churn only: background INSERT rate
  double zipf_theta;     ///< skew only: Zipf exponent over hot groups
};

/// Hot groups the skew workload samples from (adversarial: a high theta
/// concentrates most arrivals on a handful of relations, which the
/// colocation invariant pins to single shards).
constexpr size_t kSkewHotGroups = 64;

OpenLoopResult RunWorkloadPoint(const WorkloadPoint& p, size_t arrivals,
                                uint64_t seed) {
  CoordinationService svc(WorkloadOpts());
  OpenLoopOptions o;
  o.offered_qps = p.offered_qps;
  o.arrivals = arrivals;
  o.client_threads = 4;
  o.seed = seed;
  o.drain_timeout = std::chrono::milliseconds(10000);

  ArrivalFactory factory;
  if (std::strcmp(p.workload, "skew") == 0) {
    // Factories run sequentially before the timed region, so sampling
    // inside one is deterministic for the seed.
    auto sampler =
        std::make_shared<workload::ZipfSampler>(kSkewHotGroups, p.zipf_theta);
    auto rng = std::make_shared<Rng>(seed ^ 0x5eedULL);
    factory = [sampler, rng](size_t i) {
      auto [qa, qb] =
          workload::MakeHotGroupPair(i, sampler->Sample(rng.get()));
      std::vector<eq::client::Query> group;
      group.push_back(std::move(qa));
      group.push_back(std::move(qb));
      return group;
    };
  } else {
    int k = p.k;
    factory = [k](size_t i) {
      return workload::MakeKWayGroup({.group_id = i, .k = k});
    };
  }

  if (p.write_qps > 0) {
    ChurnWriters writers(&svc, "F", p.write_qps, /*threads=*/2, seed);
    return RunOpenLoop(&svc, o, factory);
    // writers stop + join on scope exit, before the service tears down
  }
  return RunOpenLoop(&svc, o, factory);
}

// ---------------------------------------------------------- storage churn --

struct ChurnResult {
  RunStats stats;               ///< wall time of the op loop, per run
  uint64_t retained = 0;        ///< versions alive when the loop ended
  uint64_t retired = 0;         ///< versions released over the run
  double dead_fraction = 0;     ///< tombstone density of the head table
};

/// Delete/update/insert churn straight against db::Storage (no service on
/// top): every op publishes a version, so this isolates what the MVCC
/// machinery costs and what it buys.
///
///   gc_on      — a registered reader reports the head after every op, so
///                superseded versions release eagerly and retained stays
///                at 1. gc off pins the reader at the start version: the
///                whole history stays retained, one version per op.
///                (Every write clones either way — the head snapshot is
///                immutable and always shares the TableVersion — so GC
///                buys bounded memory, not a faster write path.)
///   deferred   — tombstone threshold 0.3 (deletes mark rows dead and
///                compaction runs when 30% of the table is dead). eager is
///                threshold 0: every delete compacts immediately, the
///                pre-tombstone behaviour.
ChurnResult RunStorageChurn(bool gc_on, bool deferred, size_t rows,
                            size_t ops, uint64_t seed, int runs) {
  const char* dests[] = {"Paris", "Rome", "Ithaca", "Oslo"};
  ChurnResult out;
  out.stats = Repeat(runs, [&] {
    auto interner = std::make_shared<StringInterner>();
    db::Storage storage(interner);
    db::Database* dbp = storage.mutable_db();
    dbp->CreateTable("C", {{"id", ir::ValueType::kInt},
                           {"dest", ir::ValueType::kString}});
    dbp->GetTable("C")->BuildIndex(0);
    dbp->GetTable("C")->set_compaction_threshold(deferred ? 0.3 : 0.0);
    auto dest = [&](size_t i) {
      return ir::Value::Str(interner->Intern(dests[i % 4]));
    };
    std::vector<int64_t> live;
    live.reserve(rows + ops / 3 + 1);
    for (size_t i = 0; i < rows; ++i) {
      int64_t id = static_cast<int64_t>(i);
      dbp->Insert("C", {ir::Value::Int(id), dest(i)});
      live.push_back(id);
    }
    storage.Publish();

    constexpr uint64_t kReader = 1;
    storage.RegisterReader(kReader);
    storage.ReportReadVersion(kReader, storage.version());

    Rng rng(seed);
    int64_t next_id = static_cast<int64_t>(rows);
    Stopwatch sw;
    for (size_t op = 0; op < ops; ++op) {
      switch (op % 3) {
        case 0: {  // delete one random live row by id
          size_t j = rng.Below(live.size());
          storage.ApplyBatch({TableWrite::Delete(
              "C", db::Predicate::Eq(0, ir::Value::Int(live[j])))});
          live[j] = live.back();
          live.pop_back();
          break;
        }
        case 1: {  // insert a fresh row
          storage.ApplyBatch({TableWrite::Insert(
              "C", {ir::Value::Int(next_id), dest(rng.Below(4))})});
          live.push_back(next_id++);
          break;
        }
        default: {  // update one random live row in place (MVCC rewrite)
          size_t j = rng.Below(live.size());
          storage.ApplyBatch({TableWrite::Update(
              "C", db::Predicate::Eq(0, ir::Value::Int(live[j])),
              {{1, dest(rng.Below(4))}})});
          break;
        }
      }
      if (gc_on) storage.ReportReadVersion(kReader, storage.version());
    }
    double ms = sw.ElapsedMillis();
    out.retained = storage.retained_versions();
    out.retired = storage.versions_retired();
    const db::TableVersion* head = storage.Current().GetTable("C");
    out.dead_fraction = head ? head->dead_fraction() : 0.0;
    storage.UnregisterReader(kReader);
    return ms;
  });
  return out;
}

}  // namespace
}  // namespace eq::bench

int main(int argc, char** argv) {
  using namespace eq::bench;
  // Split off the service-specific flags before the shared parse (which
  // warns on flags it does not know).
  size_t pairs_arg = 0;
  std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  std::vector<char*> shared_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pairs=", 8) == 0) {
      pairs_arg = static_cast<size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shard_counts.clear();
      for (const char* p = argv[i] + 9; *p;) {
        shard_counts.push_back(static_cast<uint32_t>(std::atoi(p)));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      shared_args.push_back(argv[i]);
    }
  }
  BenchFlags flags = BenchFlags::Parse(static_cast<int>(shared_args.size()),
                                       shared_args.data());
  size_t pairs = pairs_arg ? pairs_arg : (flags.full ? 10000 : 2000);

  std::printf("# service throughput vs shard count (%zu pairs, runs=%d)\n",
              pairs, flags.runs);
  std::printf("# hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  JsonReporter json;

  for (bool disjoint : {true, false}) {
    PrintHeader(disjoint ? "disjoint-relations (scales)"
                         : "single-hot-group (colocated by design)",
                "shards   queries   total_ms      qps  answered  "
                "migrations  p50_ms  p99_ms  speedup");
    double base_qps = 0;
    for (uint32_t shards : shard_counts) {
      RunResult last;
      RunStats stats = Repeat(flags.runs, [&] {
        last = RunOnce(shards, pairs, disjoint);
        return last.ms;
      });
      double qps =
          stats.mean_ms > 0 ? 1000.0 * (2 * pairs) / stats.mean_ms : 0;
      if (shards == shard_counts.front()) base_qps = qps;
      std::printf("%6u %9zu %10.2f %8.0f %9llu %11llu %7.3f %7.3f %8.2fx\n",
                  shards, 2 * pairs, stats.mean_ms, qps,
                  (unsigned long long)last.metrics.answered,
                  (unsigned long long)last.metrics.migrations,
                  last.metrics.p50_latency_ms, last.metrics.p99_latency_ms,
                  base_qps > 0 ? qps / base_qps : 0);
      auto& row = json.NewRow("service_scaling");
      row.Set("workload", std::string(disjoint ? "disjoint" : "hot-group"))
          .Set("shards", static_cast<double>(shards))
          .Set("queries", static_cast<double>(2 * pairs))
          .Set("total_ms", stats.mean_ms)
          .Set("stddev_ms", stats.stddev_ms)
          .Set("qps", qps)
          .Set("speedup", base_qps > 0 ? qps / base_qps : 0)
          .Set("answered", static_cast<double>(last.metrics.answered))
          .Set("migrations", static_cast<double>(last.metrics.migrations))
          .Set("p50_ms", last.metrics.p50_latency_ms)
          .Set("p99_ms", last.metrics.p99_latency_ms);
    }
  }
  // Prepare path: pooled edge contexts + fingerprint-keyed plan cache,
  // measured through Canonicalize (prepare work only, no coordination).
  // Cold = distinct shapes, cache off — parse cost on a pooled context,
  // and the multi-thread rows show the pool letting prepares overlap
  // where the old single edge mutex serialized them. Cached = a few
  // repeated shapes — the steady-state hit path skips the pool entirely.
  {
    size_t prep_ops = flags.full ? 20000 : 4000;
    PrintHeader("prepare: pooled edge + plan cache (Canonicalize, IR dialect)",
                "mode    threads      ops   total_ms  us_per_op  ops_per_sec"
                "  hit_rate  speedup");
    struct ModeSpec {
      const char* name;
      bool cached;
    } modes[] = {{"cold", false}, {"cached", true}};
    for (const ModeSpec& m : modes) {
      double base_ops_per_sec = 0;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        PrepareResult last;
        RunStats stats = Repeat(flags.runs, [&] {
          last = RunPrepare(threads, prep_ops, m.cached);
          return last.ms;
        });
        size_t total_ops = threads * prep_ops;
        double ops_per_sec =
            stats.mean_ms > 0 ? 1000.0 * total_ops / stats.mean_ms : 0;
        double us_per_op =
            total_ops > 0 ? 1000.0 * stats.mean_ms / total_ops : 0;
        if (threads == 1) base_ops_per_sec = ops_per_sec;
        std::printf("%-7s %7zu %8zu %10.2f %10.3f %12.0f %9.3f %8.2fx\n",
                    m.name, threads, total_ops, stats.mean_ms, us_per_op,
                    ops_per_sec, last.hit_rate,
                    base_ops_per_sec > 0 ? ops_per_sec / base_ops_per_sec
                                         : 0);
        auto& row = json.NewRow("prepare");
        row.Set("mode", std::string(m.name))
            .Set("threads", static_cast<double>(threads))
            .Set("ops", static_cast<double>(total_ops))
            .Set("total_ms", stats.mean_ms)
            .Set("stddev_ms", stats.stddev_ms)
            .Set("us_per_op", us_per_op)
            .Set("ops_per_sec", ops_per_sec)
            .Set("hit_rate", last.hit_rate)
            .Set("speedup", base_ops_per_sec > 0
                                ? ops_per_sec / base_ops_per_sec
                                : 0);
      }
    }
    std::printf(
        "# cached us_per_op should sit well below cold (a hit is a\n"
        "# normalize + LRU lookup, no parse, no pool checkout); cold\n"
        "# multi-thread rows scale with cores now that prepares run on\n"
        "# pooled contexts instead of one mutex-guarded edge catalog.\n");
  }

  // Observability overhead: the same disjoint workload with tracing
  // disabled, at the default 1-in-64 sampling, and with trace_all. The
  // interesting number is the overhead ratio of sampled vs off — the
  // default configuration should cost well under 2%.
  {
    uint32_t shards = shard_counts.back();
    PrintHeader("observability: lifecycle tracing overhead (disjoint workload)",
                "tracing    queries   total_ms      qps  overhead");
    struct ModeSpec {
      const char* name;
      TraceMode mode;
    } modes[] = {{"off", TraceMode::kOff},
                 {"sampled", TraceMode::kSampled},
                 {"all", TraceMode::kAll}};
    double off_qps = 0;
    for (const ModeSpec& m : modes) {
      RunResult last;
      RunStats stats = Repeat(flags.runs, [&] {
        last = RunOnce(shards, pairs, /*disjoint=*/true, m.mode);
        return last.ms;
      });
      double qps =
          stats.mean_ms > 0 ? 1000.0 * (2 * pairs) / stats.mean_ms : 0;
      if (m.mode == TraceMode::kOff) off_qps = qps;
      double overhead = (off_qps > 0 && qps > 0) ? off_qps / qps - 1.0 : 0;
      std::printf("%-8s %9zu %10.2f %8.0f %7.1f%%\n", m.name, 2 * pairs,
                  stats.mean_ms, qps, 100.0 * overhead);
      auto& row = json.NewRow("observability");
      row.Set("tracing", std::string(m.name))
          .Set("shards", static_cast<double>(shards))
          .Set("queries", static_cast<double>(2 * pairs))
          .Set("total_ms", stats.mean_ms)
          .Set("stddev_ms", stats.stddev_ms)
          .Set("qps", qps)
          .Set("overhead_ratio", overhead)
          .Set("answered", static_cast<double>(last.metrics.answered));
    }
  }

  // Reactive write pipeline: write→answer latency of a pending pair
  // completed by a write (WriteNotify wakes the affected partition
  // immediately).
  {
    size_t rounds = flags.full ? 100 : 30;
    PrintHeader(
        "reactive: write→answer latency (pair pending on the written row)",
        "path          rounds   mean_ms    p50_ms    max_ms  raced");
    ReactiveStats wakeup = RunReactive(rounds);
    std::printf("%-12s %7zu %9.3f %9.3f %9.3f %6zu\n", "wakeup",
                wakeup.ms.size(), Mean(wakeup.ms), Percentile(wakeup.ms, 50),
                Percentile(wakeup.ms, 100), wakeup.raced);
    auto& row = json.NewRow("reactive");
    row.Set("path", std::string("wakeup"))
        .Set("rounds", static_cast<double>(wakeup.ms.size()))
        .Set("mean_ms", Mean(wakeup.ms))
        .Set("p50_ms", Percentile(wakeup.ms, 50))
        .Set("max_ms", Percentile(wakeup.ms, 100))
        .Set("raced", static_cast<double>(wakeup.raced));
    std::printf(
        "# wakeup should sit well below the flush cadence (~2ms ticks x\n"
        "# 4): the write itself re-evaluates the affected pending\n"
        "# partition.\n");
  }

  // Burst coalescing: under a write storm against a pending pair, the
  // per-shard WriteNotify slot merges notifications that arrive while one
  // is queued — re-evaluations stay proportional to queue drains, not to
  // writes.
  {
    size_t writes = flags.full ? 2000 : 500;
    PrintHeader(
        "reactive_burst: notify coalescing under a write storm",
        "  writes  notifies  coalesced  damping  total_ms");
    BurstStats burst = RunWriteBurst(writes);
    double damping = burst.notifies > 0
                         ? static_cast<double>(burst.writes) /
                               static_cast<double>(burst.notifies)
                         : 0;
    std::printf("%8zu %9llu %10llu %7.1fx %9.2f\n", burst.writes,
                (unsigned long long)burst.notifies,
                (unsigned long long)burst.coalesced, damping, burst.total_ms);
    auto& row = json.NewRow("reactive_burst");
    row.Set("writes", static_cast<double>(burst.writes))
        .Set("notifies", static_cast<double>(burst.notifies))
        .Set("coalesced", static_cast<double>(burst.coalesced))
        .Set("damping", damping)
        .Set("total_ms", burst.total_ms);
    std::printf(
        "# notifies should sit well below writes (damping >> 1): while one\n"
        "# WriteNotify is queued, concurrent writers merge their touched\n"
        "# relations into it instead of enqueueing more ops.\n");
  }

  // Startup: shared immutable snapshot (bootstrap once, N shards adopt)
  // vs the pre-CoW baseline of one private bootstrap per shard.
  {
    size_t rows = flags.full ? 65536 : 8192;
    std::string title =
        "startup: shared snapshot vs per-shard bootstrap copies (" +
        std::to_string(rows) + " rows/table)";
    PrintHeader(title.c_str(), "shards  shared_ms  copied_ms  shared/copied");
    for (uint32_t shards : shard_counts) {
      double shared_ms = 0, copied_ms = 0;
      RunStats shared_stats = Repeat(flags.runs, [&] {
        shared_ms = TimeSharedStartup(shards, rows);
        return shared_ms;
      });
      RunStats copied_stats = Repeat(flags.runs, [&] {
        copied_ms = TimeCopiedStartup(shards, rows);
        return copied_ms;
      });
      std::printf("%6u %10.2f %10.2f %14.2fx\n", shards,
                  shared_stats.mean_ms, copied_stats.mean_ms,
                  copied_stats.mean_ms > 0
                      ? shared_stats.mean_ms / copied_stats.mean_ms
                      : 0);
      auto& row = json.NewRow("startup");
      row.Set("shards", static_cast<double>(shards))
          .Set("rows_per_table", static_cast<double>(rows))
          .Set("shared_ms", shared_stats.mean_ms)
          .Set("shared_stddev_ms", shared_stats.stddev_ms)
          .Set("copied_ms", copied_stats.mean_ms)
          .Set("copied_stddev_ms", copied_stats.stddev_ms);
    }
    std::printf(
        "# shared_ms should stay flat as shards grow (one bootstrap, one\n"
        "# copy of every table). copied_ms runs the old per-shard\n"
        "# bootstraps concurrently: wall clock grows once shards exceed\n"
        "# cores (always on 1-2 core CI), and total CPU + memory are N x\n"
        "# regardless.\n");
  }

  // Cluster: the identical Ticket API over a 2-node loopback cluster —
  // what one network hop costs a forwarded submit, and how fast a write
  // on one node answers a query parked on the other via delta
  // replication.
  {
    size_t rounds = flags.full ? 100 : 30;
    PrintHeader(
        "cluster: 2-node loopback (local vs forwarded submit, write->wakeup)",
        "path                  rounds   mean_ms    p50_ms    max_ms");
    LoopbackCluster cl = StartLoopbackCluster();
    if (!cl.ok()) {
      std::printf("# loopback cluster failed to start; section skipped\n");
    } else {
      struct Spec {
        const char* path;
        std::vector<double> ms;
      } specs[] = {
          {"local-submit", RunClusterSubmit(*cl.a, 0, rounds, "BL")},
          {"remote-submit", RunClusterSubmit(*cl.a, 1, rounds, "BR")},
          {"write-remote-wakeup", RunClusterWriteWakeup(*cl.b, rounds)},
      };
      for (const Spec& s : specs) {
        std::printf("%-21s %7zu %9.3f %9.3f %9.3f\n", s.path, s.ms.size(),
                    Mean(s.ms), Percentile(s.ms, 50), Percentile(s.ms, 100));
        auto& row = json.NewRow("cluster");
        row.Set("path", std::string(s.path))
            .Set("rounds", static_cast<double>(s.ms.size()))
            .Set("mean_ms", Mean(s.ms))
            .Set("p50_ms", Percentile(s.ms, 50))
            .Set("max_ms", Percentile(s.ms, 100));
      }
      std::printf(
          "# remote-submit = local-submit + one forwarded frame and one\n"
          "# outcome frame per half over loopback TCP; write-remote-wakeup\n"
          "# spans write forward, apply, delta push-back and re-eval.\n");
      cl.a->Stop();
      cl.b->Stop();
    }
  }

  // Open-loop workload harness: a fixed Poisson arrival schedule at a
  // target offered QPS, latency measured from the SCHEDULED arrival to
  // group resolution (queueing delay included — the closed-loop sections
  // above cannot see it). The catalog stresses what flight-booking
  // doesn't: k-way postcondition rings (k ∈ {2,3,4}), write-heavy churn
  // against the reactive pipeline, and Zipf-skewed hot groups.
  {
    size_t arrivals = flags.full ? 1000 : 200;
    // --full also pushes the offered points 4x: on a many-core runner the
    // default points sit far below capacity, and the interesting part of
    // a latency-under-load curve is where it bends.
    double scale = flags.full ? 4.0 : 1.0;
    const WorkloadPoint matrix[] = {
        // k-way rings: latency-under-load at three offered-QPS points per k.
        {"kway", 2, 400, 0, 0},  {"kway", 2, 800, 0, 0},
        {"kway", 2, 1600, 0, 0}, {"kway", 3, 400, 0, 0},
        {"kway", 3, 800, 0, 0},  {"kway", 3, 1600, 0, 0},
        {"kway", 4, 400, 0, 0},  {"kway", 4, 800, 0, 0},
        {"kway", 4, 1600, 0, 0},
        // Write churn: pairs under background INSERT storms (every write
        // wakes the shards holding pending readers of F).
        {"churn", 2, 800, 250, 0},
        {"churn", 2, 800, 1000, 0},
        // Hot-group skew: pairs whose shared relation is Zipf-chosen from
        // 64 hot groups; theta = 0 is the uniform baseline.
        {"skew", 2, 800, 0, 0.0},
        {"skew", 2, 800, 0, 1.2},
    };
    PrintHeader(
        "workload: open-loop latency under load (arrival -> group answered)",
        "workload  k  offered  achieved  groups  failed  mean_ms   p50_ms"
        "   p95_ms   p99_ms");
    for (WorkloadPoint p : matrix) {
      p.offered_qps *= scale;
      if (p.write_qps > 0) p.write_qps *= scale;
      OpenLoopResult r = RunWorkloadPoint(p, arrivals, flags.seed);
      std::printf("%-8s %2d %8.0f %9.0f %7zu %7zu %8.3f %8.3f %8.3f %8.3f\n",
                  p.workload, p.k, r.offered_qps, r.achieved_qps,
                  r.answered_groups, r.failed_groups, r.mean_ms, r.p50_ms,
                  r.p95_ms, r.p99_ms);
      auto& row = json.NewRow("workload");
      row.Set("workload", std::string(p.workload))
          .Set("k", static_cast<double>(p.k))
          .Set("offered_qps", r.offered_qps)
          .Set("write_qps", p.write_qps)
          .Set("zipf_theta", p.zipf_theta)
          .Set("arrivals", static_cast<double>(r.arrivals))
          .Set("queries", static_cast<double>(r.queries))
          .Set("achieved_qps", r.achieved_qps)
          .Set("answered", static_cast<double>(r.answered_groups))
          .Set("failed", static_cast<double>(r.failed_groups))
          .Set("duration_ms", r.duration_ms)
          .Set("mean_ms", r.mean_ms)
          .Set("p50_ms", r.p50_ms)
          .Set("p95_ms", r.p95_ms)
          .Set("p99_ms", r.p99_ms)
          .Set("max_ms", r.max_ms)
          .Set("seed", static_cast<double>(flags.seed));
    }
    std::printf(
        "# open-loop: latency is measured from the scheduled arrival, so\n"
        "# offered > capacity shows up as achieved flattening while the\n"
        "# percentiles balloon (backlog growth) — the saturation signature\n"
        "# closed-loop benches cannot produce.\n");
  }

  // Storage churn: delete/update/insert throughput straight against
  // db::Storage, crossing the GC watermark (reader reporting head vs
  // pinned at start) with the tombstone mode (deferred compaction at 30%
  // dead vs eager compaction on every delete).
  {
    size_t churn_rows = flags.full ? 2048 : 512;
    size_t churn_ops = flags.full ? 8000 : 2000;
    PrintHeader(
        "storage_churn: MVCC write cost vs GC + tombstone mode",
        "gc   tombstones  rows   ops  total_ms  us_per_op  retained"
        "  retired  dead_frac");
    for (bool gc_on : {true, false}) {
      for (bool deferred : {true, false}) {
        ChurnResult r = RunStorageChurn(gc_on, deferred, churn_rows,
                                        churn_ops, flags.seed, flags.runs);
        double us_per_op = r.stats.mean_ms * 1000.0 /
                           static_cast<double>(churn_ops);
        std::printf("%-4s %-10s %5zu %5zu %9.2f %10.3f %9llu %8llu %9.3f\n",
                    gc_on ? "on" : "off", deferred ? "deferred" : "eager",
                    churn_rows, churn_ops, r.stats.mean_ms, us_per_op,
                    static_cast<unsigned long long>(r.retained),
                    static_cast<unsigned long long>(r.retired),
                    r.dead_fraction);
        auto& row = json.NewRow("storage_churn");
        row.Set("gc", std::string(gc_on ? "on" : "off"))
            .Set("tombstones", std::string(deferred ? "deferred" : "eager"))
            .Set("rows", static_cast<double>(churn_rows))
            .Set("ops", static_cast<double>(churn_ops))
            .Set("total_ms", r.stats.mean_ms)
            .Set("stddev_ms", r.stats.stddev_ms)
            .Set("us_per_op", us_per_op)
            .Set("retained_versions", static_cast<double>(r.retained))
            .Set("versions_retired", static_cast<double>(r.retired))
            .Set("dead_fraction", r.dead_fraction)
            .Set("seed", static_cast<double>(flags.seed));
      }
    }
    std::printf(
        "# retained_versions is the MVCC claim: gc=on releases every\n"
        "# superseded version as the reader reports (retained stays 1);\n"
        "# gc=off pins the whole history (one version per op, unbounded\n"
        "# memory). deferred tombstones beat eager compaction on delete\n"
        "# churn by skipping the per-delete rebuild; us_per_op is flat in\n"
        "# the op count because every write pays one O(rows) CoW clone.\n");
  }

  std::printf(
      "\n# expected shape (on >= 8 cores): disjoint qps grows near-linearly\n"
      "# with shards (>= 3x at 8 shards); hot-group qps stays flat because\n"
      "# the colocation invariant pins one relation group to one shard.\n");
  json.WriteFile(flags.json_path);
  return 0;
}
