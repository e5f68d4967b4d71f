// Ablation studies for the design choices behind the paper substitutions
// (see docs/BENCHMARKS.md, "Paper substitutions and deviations"):
//
//  A. Atom index vs all-pairs unifiability-graph construction (§4.1.4's
//     "straightforward but inefficient" baseline).
//  B. Disjoint-set-forest MGU vs the textbook set-of-sets unifier
//     (§4.1.5's O(k·α(k)) bound vs quadratic merging).
//  C. Combined-query execution: greedy bound-first ordering + hash indexes
//     vs degraded configurations.
//  D. Parallel per-partition evaluation (§4.1.2) vs sequential flush.

#include "db/database.h"
#include <cstdio>

#include "bench/bench_common.h"
#include "core/combiner.h"
#include "core/matcher.h"
#include "core/partitioner.h"
#include "core/unifiability_graph.h"
#include "engine/engine.h"
#include "unify/naive_unifier.h"
#include "unify/unifier.h"
#include "util/rng.h"
#include "workload/flight_workload.h"
#include "workload/social_graph.h"

namespace eq::bench {
namespace {

using workload::FlightWorkload;
using workload::SocialGraph;

// ------------------------------------------------------------ ablation A --

void AblateAtomIndex(const SocialGraph& graph, const BenchFlags& flags) {
  PrintHeader("ablation-A: unifiability-graph construction",
              "variant       queries   build_ms  unification_attempts");
  size_t n = flags.full ? 8000 : 3000;
  for (bool use_index : {true, false}) {
    double ms = 0;
    uint64_t attempts = 0;
    RunStats stats = Repeat(flags.runs, [&] {
      ir::QueryContext ctx;
      FlightWorkload wl(&graph, &ctx);
      Rng rng(flags.seed);
      ir::QuerySet qs;
      qs.queries = wl.TwoWayBestCase(n / 2, &rng);
      qs.AssignIds();
      core::UnifiabilityGraph g(
          &qs, core::GraphOptions{.use_atom_index = use_index});
      Stopwatch sw;
      g.Build().ok();
      ms = sw.ElapsedMillis();
      attempts = g.unification_attempts();
      return ms;
    });
    std::printf("%-13s %8zu %10.2f %21llu\n",
                use_index ? "atom-index" : "all-pairs", n, stats.mean_ms,
                static_cast<unsigned long long>(attempts));
  }
}

// ------------------------------------------------------------ ablation B --

void AblateMgu(const BenchFlags& flags) {
  PrintHeader("ablation-B: MGU implementation",
              "variant             vars   chain_merges   total_ms");
  size_t k = flags.full ? 3000 : 1000;
  // Chain workload: merge u_{i} (linking var i and i+1) into an accumulator —
  // the access pattern of unifier propagation along a long chain.
  for (int variant = 0; variant < 2; ++variant) {
    RunStats stats = Repeat(flags.runs, [&] {
      Stopwatch sw;
      if (variant == 0) {
        unify::Unifier acc;
        for (uint32_t i = 0; i + 1 < k; ++i) {
          unify::Unifier step;
          step.UnionVars(i, i + 1);
          acc.MergeFrom(step);
        }
      } else {
        unify::NaiveUnifier acc;
        for (uint32_t i = 0; i + 1 < k; ++i) {
          unify::NaiveUnifier step;
          step.UnionVars(i, i + 1);
          acc.MergeFrom(step);
        }
      }
      return sw.ElapsedMillis();
    });
    std::printf("%-19s %5zu %14zu %10.2f\n",
                variant == 0 ? "disjoint-set-forest" : "set-of-sets", k, k - 1,
                stats.mean_ms);
  }
}

// ------------------------------------------------------------ ablation C --

void AblateExecutor(const SocialGraph& graph, const BenchFlags& flags) {
  PrintHeader("ablation-C: combined-query execution",
              "variant                 combined_queries   eval_ms  timeouts");
  // Build w=3 clique combined queries once, evaluate under three configs.
  ir::QueryContext ctx;
  FlightWorkload wl(&graph, &ctx);
  db::Database db(&ctx.interner());
  wl.PopulateDatabase(&db).ok();
  Rng rng(flags.seed);
  ir::QuerySet qs;
  qs.queries = wl.CliqueCoordination(flags.full ? 400 : 150, 3, &rng);
  qs.AssignIds();
  core::UnifiabilityGraph g(&qs);
  g.Build().ok();
  core::Matcher matcher(&g);
  core::Combiner combiner(&qs);
  std::vector<core::CombinedQuery> combined;
  for (const auto& component : core::Partitioner::Components(g)) {
    auto survivors = matcher.MatchComponent(component);
    if (survivors.empty()) continue;
    auto cq = combiner.Combine(g, survivors);
    if (cq.ok()) combined.push_back(std::move(cq).value());
  }

  struct Config {
    const char* name;
    db::ExecOptions opts;
  };
  db::ExecOptions indexed;
  db::ExecOptions no_index;
  no_index.use_indexes = false;
  no_index.max_scanned_rows = 2'000'000;
  db::ExecOptions no_reorder;
  no_reorder.reorder_atoms = false;
  no_reorder.max_scanned_rows = 2'000'000;
  for (const Config& cfg :
       {Config{"indexed+reordered", indexed},
        Config{"no-indexes", no_index},
        Config{"no-reordering", no_reorder}}) {
    size_t timeouts = 0;
    db::Snapshot snap = db.snapshot();
    RunStats stats = Repeat(flags.runs, [&] {
      timeouts = 0;
      Stopwatch sw;
      for (const auto& cq : combined) {
        auto answers = combiner.Evaluate(cq, snap, 1, cfg.opts);
        if (!answers.ok() &&
            answers.status().code() == StatusCode::kTimeout) {
          ++timeouts;
        }
      }
      return sw.ElapsedMillis();
    });
    std::printf("%-23s %16zu %9.2f %9zu\n", cfg.name, combined.size(),
                stats.mean_ms, timeouts);
  }
}

// ------------------------------------------------------------ ablation D --

void AblateParallelFlush(const SocialGraph& graph, const BenchFlags& flags) {
  PrintHeader("ablation-D: parallel partition evaluation",
              "threads   queries   flush_ms   answered");
  size_t n = flags.full ? 40000 : 10000;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    double flush_ms = 0;
    uint64_t answered = 0;
    RunStats stats = Repeat(flags.runs, [&] {
      ir::QueryContext ctx;
      FlightWorkload wl(&graph, &ctx);
      db::Database db(&ctx.interner());
      wl.PopulateDatabase(&db).ok();
      Rng rng(flags.seed);
      auto queries = wl.TwoWayBestCase(n / 2, &rng);
      engine::CoordinationEngine engine(
          &ctx, &db,
          {.mode = engine::EvalMode::kSetAtATime, .worker_threads = threads});
      for (auto& q : queries) {
        auto r = engine.Submit(std::move(q));
        (void)r;
      }
      Stopwatch sw;
      engine.Flush().ok();
      flush_ms = sw.ElapsedMillis();
      answered = engine.metrics().answered;
      return flush_ms;
    });
    std::printf("%7zu %9zu %10.2f %10llu\n", threads, n, stats.mean_ms,
                static_cast<unsigned long long>(answered));
  }
}

// ------------------------------------------------------------ ablation E --

void AblateIncrementalRematch(const SocialGraph& graph,
                              const BenchFlags& flags) {
  PrintHeader("ablation-E: incremental rematch scope (massive cluster)",
              "variant          queries   total_ms");
  size_t n = flags.full ? 8000 : 3000;
  for (engine::IncrementalRematch rematch :
       {engine::IncrementalRematch::kFullPartition,
        engine::IncrementalRematch::kDeltaSeeds}) {
    RunStats stats = Repeat(flags.runs, [&] {
      ir::QueryContext ctx;
      FlightWorkload wl(&graph, &ctx);
      db::Database db(&ctx.interner());
      wl.PopulateDatabase(&db).ok();
      Rng rng(flags.seed);
      auto queries = wl.MassiveCluster(n, &rng);
      engine::CoordinationEngine engine(
          &ctx, &db,
          {.mode = engine::EvalMode::kIncremental, .rematch = rematch});
      Stopwatch sw;
      for (auto& q : queries) {
        auto r = engine.Submit(std::move(q));
        (void)r;
      }
      engine.Flush().ok();
      return sw.ElapsedMillis();
    });
    std::printf("%-16s %8zu %10.2f\n",
                rematch == engine::IncrementalRematch::kFullPartition
                    ? "full-partition"
                    : "delta-seeds",
                n, stats.mean_ms);
  }
}

}  // namespace
}  // namespace eq::bench

int main(int argc, char** argv) {
  using namespace eq::bench;
  BenchFlags flags = BenchFlags::Parse(argc, argv);

  eq::workload::SocialGraphOptions gopts;
  gopts.num_users = flags.users / 4;  // ablations need structure, not scale
  gopts.num_airports = flags.airports;
  gopts.seed = flags.seed;
  gopts.plant_cliques = 1000;
  gopts.planted_clique_size = 6;
  eq::workload::SocialGraph graph = eq::workload::SocialGraph::Generate(gopts);

  std::printf(
      "# Ablations for the design choices in docs/BENCHMARKS.md "
      "(Paper substitutions and deviations)\n");
  std::printf("# graph: %u users, %zu edges; runs=%d\n", graph.num_users(),
              graph.num_edges(), flags.runs);

  AblateAtomIndex(graph, flags);
  AblateMgu(flags);
  AblateExecutor(graph, flags);
  AblateParallelFlush(graph, flags);
  AblateIncrementalRematch(graph, flags);
  return 0;
}
