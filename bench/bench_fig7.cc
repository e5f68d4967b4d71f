// Reproduces Figure 7: "Scalability in the number of postconditions".
//
// The paper generates 10,000 queries in groups of w+1 clique members, each
// query carrying w postconditions (w = 1 … 5), and splits the reported time
// into (a) the matching algorithm and (b) MySQL's evaluation of the combined
// query. The expected shape: matching time stays within reasonable bounds
// as w grows, while the database "performs very poorly when the number of
// joins surpasses a certain threshold (14)".
//
// Our in-memory executor with hash indexes does not collapse at 14 joins,
// so this bench reports BOTH the indexed evaluation (our production path)
// and a deliberately degraded configuration — no indexes, no join
// reordering, bounded scan budget — that reproduces the blow-up shape of
// the paper's MySQL 4.1 substrate (see
// docs/BENCHMARKS.md, "Paper substitutions and deviations").

#include "db/database.h"
#include <cstdio>

#include "bench/bench_common.h"
#include "core/combiner.h"
#include "core/matcher.h"
#include "core/partitioner.h"
#include "core/unifiability_graph.h"
#include "util/rng.h"
#include "workload/flight_workload.h"
#include "workload/social_graph.h"

namespace eq::bench {
namespace {

using core::CombinedQuery;
using core::Combiner;
using core::Matcher;
using core::Partitioner;
using core::UnifiabilityGraph;
using workload::FlightWorkload;
using workload::SocialGraph;

struct Fig7Row {
  size_t w = 0;
  size_t queries = 0;
  size_t joins_per_cq = 0;        // body atoms of one combined query
  double match_ms = 0;            // graph + partition + match + combine
  double db_indexed_ms = 0;       // all combined queries, production path
  double db_naive_per_cq_ms = 0;  // degraded path, average per combined query
  size_t naive_timeouts = 0;      // scan budget exceeded (the "blow-up")
  size_t naive_sampled = 0;
  size_t coordinated_groups = 0;
};

Fig7Row RunOnce(const SocialGraph& graph, size_t w, size_t num_queries,
                uint64_t seed) {
  Fig7Row row;
  row.w = w;

  ir::QueryContext ctx;
  FlightWorkload wl(&graph, &ctx);
  db::Database db(&ctx.interner());
  if (!wl.PopulateDatabase(&db).ok()) return row;

  Rng rng(seed);
  ir::QuerySet qs;
  qs.queries = wl.CliqueCoordination(num_queries / (w + 1), w, &rng);
  qs.AssignIds();
  row.queries = qs.queries.size();

  // ---- matching phase (paper: "time taken by the algorithm to find
  // matching sets of queries") ----
  Stopwatch match_sw;
  UnifiabilityGraph g(&qs);
  g.Build().ok();
  auto components = Partitioner::Components(g);
  Matcher matcher(&g);
  Combiner combiner(&qs);
  std::vector<CombinedQuery> combined;
  for (const auto& component : components) {
    auto survivors = matcher.MatchComponent(component);
    if (survivors.empty()) continue;
    auto cq = combiner.Combine(g, survivors);
    if (cq.ok()) combined.push_back(std::move(cq).value());
  }
  row.match_ms = match_sw.ElapsedMillis();
  row.coordinated_groups = combined.size();
  if (!combined.empty()) {
    row.joins_per_cq = combined[0].body.atoms.size();
  }

  // ---- database phase, production path (indexed, reordered) ----
  db::Snapshot snap = db.snapshot();  // one freeze for the whole phase
  Stopwatch db_sw;
  for (const auto& cq : combined) {
    auto answers = combiner.Evaluate(cq, snap, 1);
    (void)answers;
  }
  row.db_indexed_ms = db_sw.ElapsedMillis();

  // ---- database phase, degraded MySQL-shaped path on a sample ----
  db::ExecOptions naive;
  naive.use_indexes = false;
  naive.reorder_atoms = false;
  naive.max_scanned_rows = 2'000'000;  // abort hopeless plans (the blow-up)
  size_t sample = std::min<size_t>(combined.size(), 10);
  Stopwatch naive_sw;
  for (size_t i = 0; i < sample; ++i) {
    auto answers = combiner.Evaluate(combined[i], snap, 1, naive);
    if (!answers.ok() && answers.status().code() == StatusCode::kTimeout) {
      ++row.naive_timeouts;
    }
  }
  row.naive_sampled = sample;
  row.db_naive_per_cq_ms =
      sample == 0 ? 0 : naive_sw.ElapsedMillis() / static_cast<double>(sample);
  return row;
}

}  // namespace
}  // namespace eq::bench

int main(int argc, char** argv) {
  using namespace eq::bench;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  size_t num_queries = flags.full ? 10000 : 5000;

  // A denser graph than the default so that 6-cliques (w = 5) exist.
  eq::workload::SocialGraphOptions gopts;
  gopts.num_users = flags.users / 4;
  gopts.num_airports = flags.airports;
  gopts.attach_edges = 10;
  gopts.triangle_prob = 0.85;
  gopts.plant_cliques = 2500;
  gopts.planted_clique_size = 6;
  gopts.seed = flags.seed;
  eq::workload::SocialGraph graph = eq::workload::SocialGraph::Generate(gopts);

  std::printf("# Figure 7: scalability in the number of postconditions\n");
  std::printf("# graph: %u users, %zu edges; %zu queries per point; runs=%d\n",
              graph.num_users(), graph.num_edges(), num_queries, flags.runs);

  PrintHeader("figure7",
              "w  queries  groups  joins/cq  match_ms  db_indexed_ms  "
              "naive_ms/cq  naive_timeouts");
  for (size_t w = 1; w <= 5; ++w) {
    Fig7Row last;
    RunStats stats = Repeat(flags.runs, [&] {
      last = RunOnce(graph, w, num_queries, flags.seed + w);
      return last.match_ms;
    });
    std::printf("%zu %8zu %7zu %9zu %9.2f %14.2f %12.2f %11zu/%zu\n", w,
                last.queries, last.coordinated_groups, last.joins_per_cq,
                stats.mean_ms, last.db_indexed_ms, last.db_naive_per_cq_ms,
                last.naive_timeouts, last.naive_sampled);
  }
  std::printf(
      "\n# expected shape: match_ms grows modestly with w; the degraded\n"
      "# (MySQL-shaped) evaluator blows past its scan budget as joins/cq\n"
      "# exceeds ~14, while the indexed path stays flat.\n");
  return 0;
}
