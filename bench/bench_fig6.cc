// Reproduces Figure 6: "Scalability on best-case and random workload".
//
// The paper submits 5 … 100,000 two-way coordination queries (random and
// fully-specified/best-case variants) plus three-way triangle workloads to
// the incremental engine and reports total evaluation time; all curves are
// linear in the number of queries (§5.3.1–§5.3.2).
//
// Deviations (documented in docs/BENCHMARKS.md, "Paper substitutions and
// deviations"): the paper's random workload sends every pair to the same
// destination (ITH), which makes wildcard postconditions ambiguous under
// the §3.1.1 safety condition as soon as two unpaired queries wait; our
// engine enforces safety at admission, so this bench draws a random
// destination per pair and reports the workload composition (answered /
// failed / rejected-unsafe / pending) so the curves stay
// interpretable.

#include "db/database.h"
#include <cstdio>

#include "bench/bench_common.h"
#include "engine/engine.h"
#include "util/rng.h"
#include "workload/flight_workload.h"
#include "workload/social_graph.h"

namespace eq::bench {
namespace {

using workload::FlightWorkload;
using workload::SocialGraph;

enum class Kind { kTwoWayRandom, kTwoWayBestCase, kThreeWay };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kTwoWayRandom:
      return "two-way-random";
    case Kind::kTwoWayBestCase:
      return "two-way-best-case";
    case Kind::kThreeWay:
      return "three-way";
  }
  return "?";
}

struct RunResult {
  double ms = 0;
  engine::EngineMetrics metrics;
  size_t pending = 0;
};

/// One timed run: fresh context/engine, submit the shuffled workload
/// incrementally, flush stragglers.
RunResult RunOnce(const SocialGraph& graph, Kind kind, size_t num_queries,
                  uint64_t seed) {
  ir::QueryContext ctx;
  FlightWorkload wl(&graph, &ctx);
  db::Database db(&ctx.interner());
  Status st = wl.PopulateDatabase(&db);
  if (!st.ok()) {
    std::fprintf(stderr, "populate failed: %s\n", st.ToString().c_str());
    return {};
  }

  Rng rng(seed);
  std::vector<ir::EntangledQuery> queries;
  switch (kind) {
    case Kind::kTwoWayRandom:
      queries = wl.TwoWayRandom(num_queries / 2, &rng);
      break;
    case Kind::kTwoWayBestCase:
      queries = wl.TwoWayBestCase(num_queries / 2, &rng);
      break;
    case Kind::kThreeWay:
      queries = wl.ThreeWay(num_queries / 3, &rng);
      break;
  }
  // §5.3.1: "each run is evaluated on a randomly permuted set of mutually
  // coordinating pairs of queries" — shuffle so partners are not adjacent.
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.Below(i)]);
  }

  engine::CoordinationEngine engine(
      &ctx, &db, {.mode = engine::EvalMode::kIncremental});
  RunResult out;
  Stopwatch sw;
  for (auto& q : queries) {
    auto r = engine.Submit(std::move(q));
    (void)r;  // unsafe rejections are part of the measured workload
  }
  size_t pending_before_flush = engine.pending_count();
  engine.Flush().ok();
  out.ms = sw.ElapsedMillis();
  out.metrics = engine.metrics();
  out.pending = pending_before_flush;
  return out;
}

}  // namespace
}  // namespace eq::bench

int main(int argc, char** argv) {
  using namespace eq::bench;
  BenchFlags flags = BenchFlags::Parse(argc, argv);

  eq::workload::SocialGraphOptions gopts;
  gopts.num_users = flags.users;
  gopts.num_airports = flags.airports;
  gopts.seed = flags.seed;
  eq::workload::SocialGraph graph = eq::workload::SocialGraph::Generate(gopts);

  std::printf("# Figure 6: scalability of coordinated query answering\n");
  std::printf("# graph: %u users, %zu edges, %u airports; runs=%d\n",
              graph.num_users(), graph.num_edges(), graph.num_airports(),
              flags.runs);

  PrintHeader("figure6",
              "workload            queries   total_ms  stddev_ms     qps  "
              "answered   failed unsafe_rej  match_ms    db_ms");
  for (Kind kind : {Kind::kTwoWayBestCase, Kind::kTwoWayRandom,
                    Kind::kThreeWay}) {
    for (size_t n : QuerySweep(flags.full)) {
      RunResult last;
      RunStats stats = Repeat(flags.runs, [&] {
        last = RunOnce(graph, kind, n, flags.seed + n);
        return last.ms;
      });
      std::printf(
          "%-19s %8zu %10.2f %10.2f %8.0f %9llu %8llu %10llu %9.2f %8.2f\n",
          KindName(kind), n, stats.mean_ms, stats.stddev_ms,
          stats.mean_ms > 0 ? 1000.0 * n / stats.mean_ms : 0.0,
          static_cast<unsigned long long>(last.metrics.answered),
          static_cast<unsigned long long>(last.metrics.failed),
          static_cast<unsigned long long>(last.metrics.rejected_unsafe),
          last.metrics.match_seconds * 1e3, last.metrics.db_seconds * 1e3);
    }
  }
  std::printf(
      "\n# expected shape: every curve linear in #queries; best-case pairs\n"
      "# coordinate more often (higher answered column) while the wildcard\n"
      "# random workload spends less per query once ambiguous newcomers are\n"
      "# rejected by the safety check.\n");
  return 0;
}
