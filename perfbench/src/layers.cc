#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "core/combiner.h"
#include "core/matcher.h"
#include "core/partitioner.h"
#include "core/safety.h"
#include "core/unifiability_graph.h"
#include "net/wire.h"
#include "sql/translator.h"
#include "unify/unifier.h"

namespace eq::perfbench {

namespace {

/// Calls per timed batch for nanosecond-scale operations: one clock read
/// per call would cost as much as the call.
constexpr size_t kBatch = 64;

}  // namespace

void ReplayCore(const ir::QuerySet& qs, const db::Snapshot& snap,
                Report* report) {
  auto t0 = Clock::now();
  core::UnifiabilityGraph graph(&qs);
  (void)graph.Build();
  auto t1 = Clock::now();
  std::vector<std::vector<ir::QueryId>> components =
      core::Partitioner::Components(graph);
  auto t2 = Clock::now();
  size_t largest = 0;
  for (const auto& c : components) largest = std::max(largest, c.size());

  // Unification replay over the graph's head/postcondition pairs, before
  // matching retires any edge.
  std::vector<double> mgu_ns;
  {
    std::vector<std::pair<const ir::Atom*, const ir::Atom*>> pairs;
    for (size_t e = 0; e < graph.edge_count(); ++e) {
      const core::Edge& edge = graph.edge(static_cast<uint32_t>(e));
      pairs.emplace_back(&qs.queries[edge.from].head[edge.head_idx],
                         &qs.queries[edge.to].postconditions[edge.pc_idx]);
    }
    size_t unified = 0;
    for (size_t start = 0; start + kBatch <= pairs.size(); start += kBatch) {
      auto b0 = Clock::now();
      for (size_t i = start; i < start + kBatch; ++i) {
        unify::Unifier u;
        bool ok = pairs[i].first->args.size() == pairs[i].second->args.size();
        for (size_t a = 0; ok && a < pairs[i].first->args.size(); ++a) {
          ok = u.UnifyTerms(pairs[i].first->args[a], pairs[i].second->args[a]);
        }
        unified += ok ? 1 : 0;
      }
      mgu_ns.push_back(UsBetween(b0, Clock::now()) * 1000.0 / kBatch);
    }
    report->Check(unified == (pairs.size() / kBatch) * kBatch,
                  "unify replay: a graph edge's atoms do not unify");
  }

  core::Matcher matcher(&graph);
  std::vector<std::vector<ir::QueryId>> survivors;
  size_t survived = 0;
  auto t3 = Clock::now();
  for (const auto& c : components) {
    auto s = matcher.MatchComponent(c);
    survived += s.size();
    if (!s.empty()) survivors.push_back(std::move(s));
  }
  auto t4 = Clock::now();
  core::Combiner combiner(&qs);
  std::vector<core::CombinedQuery> combined;
  for (const auto& s : survivors) {
    auto cq = combiner.Combine(graph, s);
    if (cq.ok()) combined.push_back(std::move(cq).value());
  }
  auto t5 = Clock::now();
  db::ExecStats stats;
  size_t answers = 0;
  for (const auto& cq : combined) {
    auto a = combiner.Evaluate(cq, snap, 1, db::ExecOptions(), &stats);
    if (a.ok() && !a->empty()) answers += (*a)[0].members.size();
  }
  auto t6 = Clock::now();

  std::vector<double> admit_us;
  {
    core::SafetyChecker safety(&qs);
    for (const auto& q : qs.queries) {
      auto a0 = Clock::now();
      (void)safety.Admit(q.id);
      admit_us.push_back(UsBetween(a0, Clock::now()));
    }
  }

  const double n = static_cast<double>(std::max<size_t>(1, qs.queries.size()));
  report->Metric("core.graph_build_ms", MsBetween(t0, t1), "ms");
  report->Metric("core.graph_edges", static_cast<double>(graph.edge_count()),
                 "count");
  report->Metric("core.largest_component", static_cast<double>(largest),
                 "count");
  report->Metric("core.partition_ms", MsBetween(t1, t2), "ms");
  report->Metric("core.match_ms", MsBetween(t3, t4), "ms");
  report->Metric("core.match_survivor_ratio", static_cast<double>(survived) / n,
                 "ratio");
  report->Metric("core.combine_ms", MsBetween(t4, t5), "ms");
  report->Metric("core.safety_admit_us.p50", Median(admit_us), "us");
  report->Metric("unify.mgu_ns.p50", Median(mgu_ns), "ns");
  report->Metric("db.eval_ms", MsBetween(t5, t6), "ms");
  report->Metric("db.rows_scanned_per_answer",
                 answers ? static_cast<double>(stats.rows_scanned) /
                               static_cast<double>(answers)
                         : 0,
                 "rows");
  report->Metric("db.index_probes_per_cq",
                 combined.empty() ? 0
                                  : static_cast<double>(stats.index_probes) /
                                        static_cast<double>(combined.size()),
                 "count");
  report->Note("replay.core_queries", n);
  report->Note("replay.core_answers", static_cast<double>(answers));
}

void ReplayEngine(const std::vector<client::PortableQuery>& programs,
                  const db::Snapshot& snap,
                  std::shared_ptr<StringInterner> interner,
                  engine::EvalMode mode, Report* report) {
  ir::QueryContext ctx(std::move(interner));
  engine::EngineOptions eopts;
  eopts.mode = mode;
  engine::CoordinationEngine eng(&ctx, snap, eopts);
  std::vector<ir::EntangledQuery> queries;
  queries.reserve(programs.size());
  for (const auto& p : programs) {
    auto q = p.Instantiate(&ctx);
    if (q.ok()) queries.push_back(std::move(q).value());
  }
  report->Check(queries.size() == programs.size(),
                "engine replay: a program failed to instantiate");
  std::vector<double> submit_us;
  submit_us.reserve(queries.size());
  for (auto& q : queries) {
    auto s0 = Clock::now();
    (void)eng.Submit(std::move(q));
    submit_us.push_back(UsBetween(s0, Clock::now()));
  }
  auto f0 = Clock::now();
  (void)eng.Flush();
  double flush_ms = MsBetween(f0, Clock::now());
  const engine::EngineMetrics& m = eng.metrics();
  report->Metric("engine.submit_us.p50", Median(submit_us), "us");
  report->Metric("engine.flush_ms", flush_ms, "ms");
  report->Metric("engine.partitions_evaluated",
                 static_cast<double>(m.partitions_evaluated), "count");
  report->Metric("engine.rejected_unsafe",
                 static_cast<double>(m.rejected_unsafe), "count");
}

void ReplayWrites(const std::vector<std::string>& writes,
                  db::Storage* primary, db::Storage* follower,
                  Report* report) {
  ir::QueryContext ctx(primary->interner_ptr());
  sql::Translator translator(&ctx, primary->Current());
  std::vector<double> translate_us, apply_us, extract_us, delta_apply_us;
  std::vector<double> frame_bytes;
  size_t failures = 0;
  for (const std::string& sql : writes) {
    auto x0 = Clock::now();
    auto stmt = translator.TranslateWriteSql(sql);
    translate_us.push_back(UsBetween(x0, Clock::now()));
    if (!stmt.ok()) {
      ++failures;
      continue;
    }
    uint64_t before = primary->version();
    std::vector<db::Storage::TableWrite> batch;
    batch.push_back(std::move(stmt->write));
    auto a0 = Clock::now();
    Status st = primary->ApplyBatch(batch);
    apply_us.push_back(UsBetween(a0, Clock::now()));
    if (!st.ok()) {
      ++failures;
      continue;
    }
    if (primary->version() == before) continue;  // matched nothing

    uint64_t to_version = 0;
    std::vector<db::Storage::TableReplacement> reps;
    auto e0 = Clock::now();
    Status ex = primary->ExtractDelta(before, &to_version, &reps);
    extract_us.push_back(UsBetween(e0, Clock::now()));
    if (!ex.ok()) {
      ++failures;
      continue;
    }
    net::DeltaMsg msg;
    msg.from_version = before;
    msg.to_version = to_version;
    for (const auto& rep : reps) {
      net::DeltaMsg::TableRows t;
      t.table = rep.table;
      t.arity = rep.rows.empty() ? 0 : static_cast<uint32_t>(rep.rows[0].size());
      for (const auto& row : rep.rows) {
        t.cells.insert(t.cells.end(), row.begin(), row.end());
      }
      msg.tables.push_back(std::move(t));
    }
    frame_bytes.push_back(static_cast<double>(net::Encode(msg).size()));
    auto d0 = Clock::now();
    Status ap = follower->ApplyReplacements(reps);
    delta_apply_us.push_back(UsBetween(d0, Clock::now()));
    if (!ap.ok()) ++failures;
  }
  report->Check(failures == 0, "write replay: " + std::to_string(failures) +
                                   " writes failed to translate or apply");
  report->Metric("sql.translate_write_us.p50", Median(translate_us), "us");
  report->Metric("db.write_apply_us.p50", Median(apply_us), "us");
  report->Metric("db.write_apply_us.p99", Percentile(apply_us, 99), "us");
  report->Metric("db.delta_extract_us.p50", Median(extract_us), "us");
  report->Metric("db.delta_apply_us.p50", Median(delta_apply_us), "us");
  report->Metric("net.delta_frame_bytes_per_write", Mean(frame_bytes),
                 "bytes");
  report->Note("replay.writes", static_cast<double>(writes.size()));
}

void ReplayNet(const std::vector<client::PortableQuery>& programs,
               Report* report) {
  std::vector<double> encode_us, decode_us, bytes;
  size_t bad = 0;
  for (size_t i = 0; i < programs.size(); ++i) {
    net::SubmitMsg m;
    m.req_id = i + 1;
    m.query = programs[i];
    m.group_relations = programs[i].EntangledRelations();
    auto e0 = Clock::now();
    std::string payload = net::Encode(m);
    auto e1 = Clock::now();
    auto decoded = net::DecodeSubmit(payload);
    auto e2 = Clock::now();
    encode_us.push_back(UsBetween(e0, e1));
    decode_us.push_back(UsBetween(e1, e2));
    bytes.push_back(static_cast<double>(payload.size()));
    if (!decoded.ok() || decoded->query.ToIrText() != programs[i].ToIrText()) {
      ++bad;
    }
  }
  report->Check(bad == 0, "net replay: " + std::to_string(bad) +
                              " Submit frames did not round-trip");
  report->Metric("net.submit_encode_us", Median(encode_us), "us");
  report->Metric("net.submit_decode_us", Median(decode_us), "us");
  report->Metric("net.submit_frame_bytes", Mean(bytes), "bytes");
}

void ReplayIntern(const std::vector<std::string>& constants, Report* report) {
  StringInterner interner;
  for (const auto& s : constants) interner.Intern(s);
  auto replay = [&](std::vector<double>* ns) {
    for (size_t start = 0; start + kBatch <= constants.size();
         start += kBatch) {
      auto b0 = Clock::now();
      SymbolId sum = 0;
      for (size_t i = start; i < start + kBatch; ++i) {
        sum += interner.Intern(constants[i]);
      }
      ns->push_back(UsBetween(b0, Clock::now()) * 1000.0 / kBatch);
      if (sum == kInvalidSymbol) ns->back() = -1;  // keeps `sum` observable
    }
  };
  std::vector<double> single;
  replay(&single);
  size_t threads = std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<std::vector<double>> per(threads);
  {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { replay(&per[t]); });
    }
    for (auto& t : pool) t.join();
  }
  std::vector<double> contended;
  for (const auto& p : per) contended.insert(contended.end(), p.begin(), p.end());
  report->Metric("util.intern_ns.p50", Median(single), "ns");
  report->Metric("util.intern_ns_contended.p50", Median(contended), "ns");
  report->Note("replay.intern_threads", static_cast<double>(threads));
}

std::vector<std::string> ConstantsOf(
    const std::vector<client::PortableQuery>& programs) {
  std::vector<std::string> out;
  auto add_atom = [&](const client::PortableAtom& a) {
    out.push_back(a.relation);
    for (const auto& t : a.args) {
      if (t.kind == client::PortableTerm::Kind::kStr) out.push_back(t.text);
    }
  };
  for (const auto& p : programs) {
    for (const auto& a : p.postconditions) add_atom(a);
    for (const auto& a : p.head) add_atom(a);
    for (const auto& a : p.body) add_atom(a);
  }
  return out;
}

}  // namespace eq::perfbench
