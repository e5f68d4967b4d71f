#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/session.h"
#include "db/database.h"
#include "service/export.h"
#include "service/service.h"
#include "service/trace.h"

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
  ASSERT_TRUE(db->Insert("A", {ir::Value::Int(122), S("United")}).ok());
  ASSERT_TRUE(db->Insert("A", {ir::Value::Int(123), S("United")}).ok());
}

ServiceOptions Opts(uint32_t shards, EvalMode mode = EvalMode::kSetAtATime) {
  ServiceOptions o;
  o.num_shards = shards;
  o.mode = mode;
  o.max_batch = 16;
  o.max_delay_ticks = 1;
  o.bootstrap = FlightBootstrap;
  o.trace_all = true;  // observability tests inspect every query's trace
  return o;
}

void WaitForPending(CoordinationService& svc, uint64_t n) {
  for (int i = 0; i < 5000 && svc.Metrics().pending < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(svc.Metrics().pending, n);
}

/// Index of the first event of `kind`, or -1.
int IndexOf(const QueryTrace& t, TraceEventKind kind) {
  for (size_t i = 0; i < t.events.size(); ++i) {
    if (t.events[i].kind == kind) return static_cast<int>(i);
  }
  return -1;
}

void ExpectMonotoneTimestamps(const QueryTrace& t) {
  for (size_t i = 1; i < t.events.size(); ++i) {
    EXPECT_LE(t.events[i - 1].at, t.events[i].at)
        << "event " << i << " (" << TraceEventKindName(t.events[i].kind)
        << ") precedes event " << i - 1 << " ("
        << TraceEventKindName(t.events[i - 1].kind) << ") in time";
  }
}

// ------------------------------------------------------ percentile math --

TEST(HistogramPercentileTest, InterpolatesWithinBucketBounds) {
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  // 100 samples in bucket 11: [1024, 2048) microseconds.
  buckets[11] = 100;
  double p50 = HistogramPercentileMs(buckets, 50);
  // Log-linear: lower * 2^frac = 1.024ms * 2^0.5 ≈ 1.448ms. The
  // pre-interpolation code returned the upper bound (2.048) — an
  // overstatement of up to 2x.
  EXPECT_NEAR(p50, 1.024 * std::sqrt(2.0), 0.01);
  EXPECT_GT(p50, 1.024);
  EXPECT_LT(p50, 2.048);
  // The highest rank meets the bucket's upper bound exactly.
  EXPECT_NEAR(HistogramPercentileMs(buckets, 100), 2.048, 1e-9);
  // Low ranks approach the lower bound from above.
  EXPECT_LT(HistogramPercentileMs(buckets, 1), HistogramPercentileMs(buckets, 99));
  EXPECT_GT(HistogramPercentileMs(buckets, 1), 1.024);
}

TEST(HistogramPercentileTest, BucketZeroInterpolatesLinearly) {
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  buckets[0] = 10;  // [0, 1) microsecond
  double p50 = HistogramPercentileMs(buckets, 50);
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 0.001);
}

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  EXPECT_EQ(HistogramPercentileMs(buckets, 99), 0.0);
}

TEST(HistogramPercentileTest, PercentilesAreMonotoneAcrossBuckets) {
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  buckets[5] = 50;
  buckets[10] = 30;
  buckets[15] = 20;
  double prev = 0;
  for (double pct : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    double v = HistogramPercentileMs(buckets, pct);
    EXPECT_GE(v, prev) << "p" << pct;
    prev = v;
  }
}

// -------------------------------------------------------------- bounds --

TEST(TraceRingTest, OverflowKeepsNewestOldestFirst) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.ticket = i;
    ring.Append(ev);
  }
  EXPECT_EQ(ring.total_appended(), 10u);
  std::vector<TraceEvent> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 4u);  // hard capacity bound
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].ticket, 6 + i);  // 6,7,8,9 — oldest retained first
  }
}

TEST(TraceRegistryTest, SamplingAdmitsEveryNth) {
  TraceRegistry::Options opts;
  opts.sample_every = 3;
  TraceRegistry reg(opts);
  int admitted = 0;
  for (TicketId t = 1; t <= 9; ++t) {
    if (reg.Admit(t)) ++admitted;
  }
  EXPECT_EQ(admitted, 3);  // submissions 0, 3, 6 of the counter
  EXPECT_EQ(reg.admitted(), 3u);
}

TEST(TraceRegistryTest, SampleEveryZeroDisablesTracing) {
  TraceRegistry::Options opts;
  opts.sample_every = 0;
  TraceRegistry reg(opts);
  EXPECT_FALSE(reg.Admit(1));
  EXPECT_EQ(reg.size(), 0u);
}

TEST(TraceRegistryTest, CapacityBoundEvictsOldestAdmitted) {
  TraceRegistry::Options opts;
  opts.trace_all = true;
  opts.max_traces = 4;
  TraceRegistry reg(opts);
  for (TicketId t = 1; t <= 10; ++t) ASSERT_TRUE(reg.Admit(t));
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg.evicted(), 6u);
  EXPECT_FALSE(reg.Trace(1).ok());  // oldest, evicted
  EXPECT_TRUE(reg.Trace(10).ok());  // newest, retained
}

TEST(TraceRegistryTest, PerTraceEventBoundCountsOverflow) {
  TraceRegistry::Options opts;
  opts.trace_all = true;
  opts.max_events_per_trace = 2;
  TraceRegistry reg(opts);
  ASSERT_TRUE(reg.Admit(7));
  for (int i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.ticket = 7;
    reg.Record(ev);
  }
  auto t = reg.Trace(7);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->events.size(), 2u);
  EXPECT_EQ(t->dropped_events, 3u);
  EXPECT_NE(t->ToString().find("dropped"), std::string::npos);
}

TEST(TraceRegistryTest, RecordForUnadmittedTicketIsNoOp) {
  TraceRegistry::Options opts;
  opts.trace_all = true;
  TraceRegistry reg(opts);
  TraceEvent ev;
  ev.ticket = 99;
  reg.Record(ev);  // never admitted
  EXPECT_FALSE(reg.Trace(99).ok());
  EXPECT_EQ(reg.Trace(99).status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------- e2e tracing --

TEST(QueryTraceTest, FlushResolutionTracesOrderedLifecycle) {
  CoordinationService svc(Opts(1));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());

  for (const Ticket* t : {&*a, &*b}) {
    auto trace = svc.Trace(*t);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_TRUE(trace->resolved);
    ExpectMonotoneTimestamps(*trace);

    int submitted = IndexOf(*trace, TraceEventKind::kSubmitted);
    int routed = IndexOf(*trace, TraceEventKind::kRouted);
    int enqueued = IndexOf(*trace, TraceEventKind::kEnqueued);
    int engine_submit = IndexOf(*trace, TraceEventKind::kEngineSubmit);
    int flush = IndexOf(*trace, TraceEventKind::kFlushEval);
    int resolved = IndexOf(*trace, TraceEventKind::kResolved);
    ASSERT_GE(submitted, 0);
    ASSERT_GT(routed, submitted);
    ASSERT_GT(enqueued, routed);
    ASSERT_GT(engine_submit, enqueued);
    ASSERT_GT(flush, engine_submit);
    ASSERT_GT(resolved, flush);

    const TraceEvent& res = trace->events[resolved];
    EXPECT_EQ(res.detail,
              static_cast<uint64_t>(engine::QueryOutcome::Via::kFlush));
    EXPECT_EQ(res.status, StatusCode::kOk);

    EXPECT_GT(trace->spans.total_us, 0.0);
    EXPECT_GE(trace->spans.eval_count, 1u);
    // The rendering carries the resolution wave and per-event kinds.
    std::string s = trace->ToString();
    EXPECT_NE(s.find("via=flush"), std::string::npos) << s;
    EXPECT_NE(s.find("FlushEval"), std::string::npos) << s;
  }

  // Shard-side events also landed in the per-shard ring.
  EXPECT_GT(svc.ShardTraceRing(0).total_appended(), 0u);
}

TEST(QueryTraceTest, WakeupResolutionTracesWakeupEval) {
  CoordinationService svc(Opts(1));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Lisbon)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Lisbon)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);

  ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "F", 900, "Lisbon")}).ok());
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));

  auto trace = svc.Trace(*a);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ExpectMonotoneTimestamps(*trace);
  int wakeup = IndexOf(*trace, TraceEventKind::kWakeupEval);
  int adopt = IndexOf(*trace, TraceEventKind::kSnapshotAdopt);
  int resolved = IndexOf(*trace, TraceEventKind::kResolved);
  ASSERT_GE(wakeup, 0) << trace->ToString();
  ASSERT_GE(adopt, 0) << trace->ToString();
  ASSERT_GT(resolved, wakeup);
  EXPECT_GT(trace->events[adopt].detail, 1u);  // adopted the write's version
  EXPECT_EQ(trace->events[resolved].detail,
            static_cast<uint64_t>(engine::QueryOutcome::Via::kWakeup));
}

TEST(QueryTraceTest, MigrationTraceSpansBothShards) {
  CoordinationService svc(Opts(2));
  auto t1 = svc.Submit(Query::Ir("{Ra(Bob, x)} Ra(Alice, x) :- F(x, Paris)"));
  auto t2 = svc.Submit(Query::Ir("{Rb(Carol, y)} Rb(Dan, y) :- F(y, Paris)"));
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_NE(svc.router().ShardOfRelation("Ra"),
            svc.router().ShardOfRelation("Rb"));
  auto t3 = svc.Submit(
      Query::Ir("{Ra(Alice, z), Rb(Dan, z)} Ra(Bob, z), Rb(Carol, z) "
                ":- F(z, Paris)"));
  ASSERT_TRUE(t3.ok());
  ASSERT_TRUE(svc.Drain());
  ASSERT_GE(svc.Metrics().migrations, 1u);

  // One of the first two queries was stranded and migrated; its trace
  // carries the whole journey: out of the losing shard, into the winner,
  // a second engine submission, and the final resolution.
  bool found_migrated = false;
  for (const Ticket* t : {&*t1, &*t2}) {
    auto trace = svc.Trace(*t);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    int out = IndexOf(*trace, TraceEventKind::kMigratedOut);
    if (out < 0) continue;
    found_migrated = true;
    ExpectMonotoneTimestamps(*trace);
    int in = IndexOf(*trace, TraceEventKind::kMigratedIn);
    int resolved = IndexOf(*trace, TraceEventKind::kResolved);
    ASSERT_GT(in, out) << trace->ToString();
    ASSERT_GT(resolved, in) << trace->ToString();
    const TraceEvent& ev_out = trace->events[out];
    const TraceEvent& ev_in = trace->events[in];
    EXPECT_NE(ev_out.shard, ev_in.shard);  // two shards, one trace
    // A fresh engine submission follows the migration in.
    bool resubmitted = false;
    for (int i = in + 1; i < resolved; ++i) {
      if (trace->events[i].kind == TraceEventKind::kEngineSubmit) {
        resubmitted = true;
      }
    }
    EXPECT_TRUE(resubmitted) << trace->ToString();
  }
  EXPECT_TRUE(found_migrated);
}

TEST(QueryTraceTest, UnsampledTicketIsNotFound) {
  ServiceOptions o = Opts(1);
  o.trace_all = false;
  o.trace_sample_every = 0;  // tracing disabled
  CoordinationService svc(std::move(o));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());
  auto trace = svc.Trace(*a);
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------------------- dump state --

TEST(DumpStateTest, ShowsStrandedPendingQueryWithGroupAndLag) {
  // Strand a pair deliberately: it waits on a Vienna flight that does not
  // exist, and the write below goes to A, a table the pair does not read.
  // The storage head moves, but no shard is woken and no flush or tick
  // runs, so nothing adopts it — exactly the situation DumpState exists
  // to diagnose (pending queries + snapshot lag).
  CoordinationService svc(Opts(1));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Vienna)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Vienna)"));
  ASSERT_TRUE(a.ok() && b.ok());
  WaitForPending(svc, 2);
  ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "A", 800, "Austrian")}).ok());

  ServiceStateDump dump = svc.DumpState();
  EXPECT_EQ(dump.storage_version, svc.storage().version());
  ASSERT_EQ(dump.shards.size(), 1u);
  const ServiceStateDump::ShardState& shard = dump.shards[0];
  // The write published a version nobody adopted: visible as lag.
  EXPECT_GE(shard.snapshot_lag, 1u);
  EXPECT_EQ(shard.snapshot_version + shard.snapshot_lag, dump.storage_version);
  ASSERT_EQ(shard.pending.size(), 2u);
  for (const ServiceStateDump::PendingQuery& p : shard.pending) {
    EXPECT_EQ(p.fingerprint, "R");  // the entangled group
    EXPECT_TRUE(p.traced);
    EXPECT_EQ(p.partition_size, 2u);  // the pair shares one partition
    EXPECT_NE(std::find(p.body_relations.begin(), p.body_relations.end(),
                        "F"),
              p.body_relations.end());
    EXPECT_GE(p.pending_ms, 0.0);
  }
  EXPECT_LT(shard.pending[0].ticket, shard.pending[1].ticket);

  std::string s = dump.ToString();
  EXPECT_NE(s.find("group=R"), std::string::npos) << s;
  EXPECT_NE(s.find("lag="), std::string::npos) << s;

  // Resolve the strand with the write the pair waits for: its wake-up
  // answers both queries.
  ASSERT_TRUE(svc.ApplyBatch({InsertRow(svc, "F", 800, "Vienna")}).ok());
  ASSERT_TRUE(a->WaitFor(std::chrono::milliseconds(10000)));
  ASSERT_TRUE(b->WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_EQ(a->outcome().state, ServiceOutcome::State::kAnswered)
      << a->outcome().status.ToString();
  EXPECT_EQ(b->outcome().state, ServiceOutcome::State::kAnswered);
  ServiceStateDump after = svc.DumpState();
  EXPECT_TRUE(after.shards[0].pending.empty());
}

// ------------------------------------------------------------ exporters --

TEST(ExportTest, PrometheusTextHasCumulativeHistogram) {
  CoordinationService svc(Opts(2));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());

  ServiceMetrics m = svc.Metrics();
  std::string text = MetricsToPrometheusText(m);
  EXPECT_NE(text.find("# TYPE eq_submitted_total counter"), std::string::npos);
  EXPECT_NE(text.find("eq_submitted_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eq_latency_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("eq_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("eq_latency_ms_count 2"), std::string::npos);
  EXPECT_NE(text.find("eq_shard_submitted_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("eq_shard_submitted_total{shard=\"1\"}"),
            std::string::npos);

  // `le` buckets must be cumulative: counts never decrease down the text.
  uint64_t prev = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("eq_latency_ms_bucket{", pos)) !=
         std::string::npos) {
    size_t brace = text.find("} ", pos);
    ASSERT_NE(brace, std::string::npos);
    uint64_t count = std::stoull(text.substr(brace + 2));
    EXPECT_GE(count, prev);
    prev = count;
    ++buckets_seen;
    pos = brace;
  }
  EXPECT_EQ(buckets_seen,
            static_cast<int>(LatencyHistogram::kBuckets) + 1);  // + +Inf
  EXPECT_EQ(prev, 2u);  // the cumulative total is the sample count
}

TEST(ExportTest, JsonCarriesCountersPercentilesAndShards) {
  CoordinationService svc(Opts(2));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());

  std::string json = MetricsToJson(svc.Metrics());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the brace
  EXPECT_NE(json.find("\"submitted\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"answered\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"drain_ops_per_sec\""), std::string::npos);
  // Braces and brackets balance — cheap structural sanity.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportTest, EnrichedShardLinesKeepServiceLineStable) {
  CoordinationService svc(Opts(1));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());
  std::string s = svc.Metrics().ToString();
  // Satellite: the per-shard lines carry the new pending/snapshot/drain
  // fields; the service line keeps its stable shape.
  std::string shard_line = s.substr(s.find("  shard 0:"));
  EXPECT_NE(shard_line.find("pending="), std::string::npos) << s;
  EXPECT_NE(shard_line.find("snapshot_version="), std::string::npos) << s;
  EXPECT_NE(shard_line.find("drain_ops_per_sec="), std::string::npos) << s;
  EXPECT_NE(s.find("service: submitted="), std::string::npos) << s;
  EXPECT_NE(s.find("qps="), std::string::npos) << s;
}

// -------------------------------------------------------- slow-query log --

TEST(SlowQueryLogTest, SinkReceivesFullTraceAboveThreshold) {
  std::mutex mu;
  std::vector<QueryTrace> slow;
  ServiceOptions o = Opts(1);
  o.trace_all = false;  // the threshold alone must force full tracing
  o.slow_query_threshold_ms = 1e-6;  // everything is "slow"
  o.slow_query_sink = [&](const QueryTrace& t) {
    std::lock_guard<std::mutex> lock(mu);
    slow.push_back(t);
  };
  CoordinationService svc(std::move(o));
  EXPECT_TRUE(svc.traces().options().trace_all);  // implied by the threshold

  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(slow.size(), 2u);
  for (const QueryTrace& t : slow) {
    EXPECT_TRUE(t.resolved);
    EXPECT_GE(t.events.size(), 5u);  // the full lifecycle, not a stub
    EXPECT_EQ(t.events.back().kind, TraceEventKind::kResolved);
  }
}

TEST(SlowQueryLogTest, FastQueriesBelowThresholdStayQuiet) {
  std::atomic<int> fired{0};
  ServiceOptions o = Opts(1);
  o.slow_query_threshold_ms = 60000;  // a minute: nothing qualifies
  o.slow_query_sink = [&](const QueryTrace&) { fired.fetch_add(1); };
  CoordinationService svc(std::move(o));
  auto a = svc.Submit(Query::Ir("{R(J, x)} R(K, x) :- F(x, Paris)"));
  auto b = svc.Submit(Query::Ir("{R(K, y)} R(J, y) :- F(y, Paris)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(fired.load(), 0);
}

// ------------------------------------------------------- session facade --

TEST(SessionObservabilityTest, PassthroughsReachTheService) {
  CoordinationService svc(Opts(1));
  client::Session session(&svc);
  auto t = session.SubmitIr("{R(J, x)} R(K, x) :- F(x, Paris)");
  auto u = session.SubmitIr("{R(K, y)} R(J, y) :- F(y, Paris)");
  ASSERT_TRUE(t.ok() && u.ok());
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(session.Metrics().answered, 2u);
  auto trace = session.Trace(*t);
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->resolved);
  EXPECT_TRUE(session.DumpState().shards[0].pending.empty());
}

// ---------------------------------------------------------- concurrency --

TEST(ObservabilityConcurrencyTest, TraceAndDumpStateRaceLiveTraffic) {
  // TSan target: observation (Trace/DumpState/Metrics/exporters) must be
  // safe against concurrent submissions, writes, and resolutions.
  CoordinationService svc(Opts(2, EvalMode::kIncremental));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> max_ticket{1};

  std::thread submitter([&] {
    for (int i = 0; i < 40 && !stop.load(); ++i) {
      std::string rel = "Rel" + std::to_string(i);
      auto a = svc.Submit(Query::Ir("{" + rel + "(J, x)} " + rel +
                                    "(K, x) :- F(x, Paris)"));
      auto b = svc.Submit(Query::Ir("{" + rel + "(K, y)} " + rel +
                                    "(J, y) :- F(y, Paris)"));
      if (b.ok()) max_ticket.store(b->id());
    }
  });
  std::thread writer([&] {
    for (int i = 0; i < 40 && !stop.load(); ++i) {
      Status s =
          svc.ApplyBatch({InsertRow(svc, "F", 1000 + i, "Paris")});
      (void)s;
    }
  });

  for (int i = 0; i < 30; ++i) {
    ServiceStateDump dump = svc.DumpState();
    (void)dump.ToString();
    ServiceMetrics m = svc.Metrics();
    (void)MetricsToPrometheusText(m);
    (void)MetricsToJson(m);
    auto trace = svc.Trace(1 + static_cast<TicketId>(i) %
                                   max_ticket.load());
    if (trace.ok()) (void)trace->ToString();
    (void)svc.ShardTraceRing(i % 2).Snapshot();
  }

  submitter.join();
  writer.join();
  stop.store(true);
  ASSERT_TRUE(svc.Drain());
  EXPECT_EQ(svc.inflight_count(), 0u);
}

}  // namespace
}  // namespace eq::service
