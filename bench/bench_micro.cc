// Google-benchmark micro suite for the hot paths of the matching pipeline:
// atom unification, MGU merging, atom-index lookups, unifiability-graph
// growth, Algorithm 1 propagation, combined-query execution and end-to-end
// incremental submission.

#include "db/database.h"
#include <benchmark/benchmark.h>

#include "core/combiner.h"
#include "core/matcher.h"
#include "core/partitioner.h"
#include "core/safety.h"
#include "core/unifiability_graph.h"
#include "engine/engine.h"
#include "ir/parser.h"
#include "unify/unifier.h"
#include "util/rng.h"
#include "workload/flight_workload.h"
#include "workload/social_graph.h"

namespace eq {
namespace {

using workload::FlightWorkload;
using workload::SocialGraph;

const SocialGraph& BenchGraph() {
  static const SocialGraph* graph = [] {
    workload::SocialGraphOptions opts;
    opts.num_users = 20000;
    opts.num_airports = 102;
    opts.plant_cliques = 500;
    return new SocialGraph(SocialGraph::Generate(opts));
  }();
  return *graph;
}

void BM_UnifyAtoms(benchmark::State& state) {
  ir::QueryContext ctx;
  ir::Atom h(ctx.Intern("R"),
             {ir::Term::Const(ctx.StrValue("Kramer")),
              ir::Term::Var(ctx.NewVar("x")),
              ir::Term::Var(ctx.NewVar("y"))});
  ir::Atom p(ctx.Intern("R"),
             {ir::Term::Var(ctx.NewVar("u")),
              ir::Term::Const(ir::Value::Int(122)),
              ir::Term::Var(ctx.NewVar("v"))});
  for (auto _ : state) {
    unify::Unifier u;
    benchmark::DoNotOptimize(unify::UnifyAtoms(h, p, &u));
  }
}
BENCHMARK(BM_UnifyAtoms);

void BM_MguMergeChain(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    unify::Unifier acc;
    for (uint32_t i = 0; i + 1 < k; ++i) {
      unify::Unifier step;
      step.UnionVars(i, i + 1);
      benchmark::DoNotOptimize(acc.MergeFrom(step));
    }
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_MguMergeChain)->Range(8, 2048)->Complexity();

void BM_AtomIndexLookup(benchmark::State& state) {
  ir::QueryContext ctx;
  core::AtomIndex index;
  Rng rng(7);
  SymbolId rel = ctx.Intern("Reserve");
  for (uint32_t i = 0; i < 10000; ++i) {
    index.Add(core::AtomRef{i, 0},
              ir::Atom(rel, {ir::Term::Const(ctx.StrValue(
                                 "u" + std::to_string(i))),
                             ir::Term::Var(ctx.NewVar("x"))}));
  }
  ir::Atom probe(rel, {ir::Term::Const(ctx.StrValue("u777")),
                       ir::Term::Var(ctx.NewVar("y"))});
  std::vector<core::AtomRef> cands;
  for (auto _ : state) {
    cands.clear();
    index.Candidates(probe, &cands);
    benchmark::DoNotOptimize(cands.size());
  }
}
BENCHMARK(BM_AtomIndexLookup);

void BM_GraphAddQueryPair(benchmark::State& state) {
  const SocialGraph& graph = BenchGraph();
  for (auto _ : state) {
    state.PauseTiming();
    ir::QueryContext ctx;
    FlightWorkload wl(&graph, &ctx);
    Rng rng(11);
    ir::QuerySet qs;
    qs.queries = wl.TwoWayBestCase(static_cast<size_t>(state.range(0)), &rng);
    qs.AssignIds();
    core::UnifiabilityGraph g(&qs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(g.Build().ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_GraphAddQueryPair)->Arg(100)->Arg(1000);

void BM_MatchPair(benchmark::State& state) {
  ir::QueryContext ctx;
  ir::Parser parser(&ctx);
  for (auto _ : state) {
    state.PauseTiming();
    auto qs = parser.ParseProgram(
        "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris);"
        "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)");
    core::UnifiabilityGraph g(&*qs);
    g.Build().ok();
    state.ResumeTiming();
    core::Matcher matcher(&g);
    benchmark::DoNotOptimize(matcher.MatchComponent({0, 1}).size());
  }
}
BENCHMARK(BM_MatchPair);

void BM_CombinedQueryEvaluation(benchmark::State& state) {
  const SocialGraph& graph = BenchGraph();
  ir::QueryContext ctx;
  FlightWorkload wl(&graph, &ctx);
  db::Database db(&ctx.interner());
  wl.PopulateDatabase(&db).ok();
  Rng rng(13);
  ir::QuerySet qs;
  qs.queries = wl.TwoWayBestCase(1, &rng);
  qs.AssignIds();
  core::UnifiabilityGraph g(&qs);
  g.Build().ok();
  core::Matcher matcher(&g);
  auto survivors = matcher.MatchComponent({0, 1});
  core::Combiner combiner(&qs);
  auto cq = combiner.Combine(g, survivors);
  if (!cq.ok()) {
    state.SkipWithError("combine failed");
    return;
  }
  db::Snapshot snap = db.snapshot();  // hoist the freeze out of the loop
  for (auto _ : state) {
    auto answers = combiner.Evaluate(*cq, snap, 1);
    benchmark::DoNotOptimize(answers.ok());
  }
}
BENCHMARK(BM_CombinedQueryEvaluation);

void BM_IncrementalSubmitPair(benchmark::State& state) {
  const SocialGraph& graph = BenchGraph();
  ir::QueryContext ctx;
  FlightWorkload wl(&graph, &ctx);
  db::Database db(&ctx.interner());
  wl.PopulateDatabase(&db).ok();
  Rng rng(17);
  engine::CoordinationEngine engine(
      &ctx, &db, {.mode = engine::EvalMode::kIncremental});
  for (auto _ : state) {
    state.PauseTiming();
    auto pair = wl.TwoWayBestCase(1, &rng);
    state.ResumeTiming();
    for (auto& q : pair) {
      auto r = engine.Submit(std::move(q));
      benchmark::DoNotOptimize(r.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IncrementalSubmitPair);

void BM_SafetyAdmit(benchmark::State& state) {
  const SocialGraph& graph = BenchGraph();
  ir::QueryContext ctx;
  FlightWorkload wl(&graph, &ctx);
  Rng rng(19);
  ir::QuerySet qs;
  qs.queries = wl.NoUnification(20000, &rng);
  qs.AssignIds();
  core::SafetyChecker checker(&qs);
  size_t next = 0;
  for (auto _ : state) {
    if (next >= qs.queries.size()) {
      state.PauseTiming();
      checker = core::SafetyChecker(&qs);
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        checker.Admit(static_cast<ir::QueryId>(next++)).ok());
  }
}
BENCHMARK(BM_SafetyAdmit);

}  // namespace
}  // namespace eq

BENCHMARK_MAIN();
