#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/atom_index.h"
#include "core/partitioner.h"
#include "core/unifiability_graph.h"
#include "ir/parser.h"
#include "unify/unifier.h"
#include "util/rng.h"

namespace eq::core {
namespace {

using ir::Atom;
using ir::QueryContext;
using ir::QueryId;
using ir::QuerySet;
using ir::Term;
using ir::Value;

// -------------------------------------------------------------- AtomIndex --

class AtomIndexTest : public ::testing::Test {
 protected:
  Atom MakeAtom(const std::string& rel, std::vector<Term> args) {
    return Atom(ctx_.Intern(rel), std::move(args));
  }
  Term C(const std::string& s) { return Term::Const(ctx_.StrValue(s)); }
  Term V() { return Term::Var(ctx_.NewVar("v")); }

  QueryContext ctx_;
  AtomIndex index_;
};

TEST_F(AtomIndexTest, ExactConstantLookup) {
  index_.Add(AtomRef{0, 0}, MakeAtom("Reserve", {C("Kramer"), V()}));
  index_.Add(AtomRef{1, 0}, MakeAtom("Reserve", {C("Jerry"), V()}));

  // The paper's example: Reserve(Kramer, x) and Reserve(Jerry, y) must not
  // be candidate partners — the index separates them by the constant.
  std::vector<AtomRef> cands;
  index_.Candidates(MakeAtom("Reserve", {C("Jerry"), V()}), &cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].query, 1u);
}

TEST_F(AtomIndexTest, WildcardPositionsMatchAnyConstant) {
  index_.Add(AtomRef{0, 0}, MakeAtom("R", {V(), V()}));  // all-variable head
  std::vector<AtomRef> cands;
  index_.Candidates(MakeAtom("R", {C("Jerry"), C("Paris")}), &cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].query, 0u);
}

TEST_F(AtomIndexTest, AllVariableProbeSeesWholeRelation) {
  index_.Add(AtomRef{0, 0}, MakeAtom("R", {C("A")}));
  index_.Add(AtomRef{1, 0}, MakeAtom("R", {C("B")}));
  index_.Add(AtomRef{2, 0}, MakeAtom("S", {C("C")}));
  std::vector<AtomRef> cands;
  index_.Candidates(MakeAtom("R", {V()}), &cands);
  EXPECT_EQ(cands.size(), 2u);
}

TEST_F(AtomIndexTest, DifferentRelationsNeverCandidates) {
  index_.Add(AtomRef{0, 0}, MakeAtom("R", {C("A")}));
  std::vector<AtomRef> cands;
  index_.Candidates(MakeAtom("S", {C("A")}), &cands);
  EXPECT_TRUE(cands.empty());
}

// Property: the candidate set is always a superset of the truly unifiable
// atoms (the index may over-approximate, never under-approximate).
TEST_F(AtomIndexTest, RemoveCompactsAtHalfDeadAndErasesEmptyLists) {
  const Atom a0 = MakeAtom("R", {C("A"), V()});
  const Atom a1 = MakeAtom("R", {C("B"), V()});
  const Atom a2 = MakeAtom("R", {C("A"), V()});
  index_.Add(AtomRef{0, 0}, a0);
  index_.Add(AtomRef{1, 0}, a1);
  index_.Add(AtomRef{2, 0}, a2);
  // Per atom: the relation's list plus one list per argument position.
  EXPECT_EQ(index_.entry_count(), 9u);
  std::set<QueryId> dead;
  auto stale = [&](const AtomRef& r) { return dead.count(r.query) > 0; };
  auto candidates = [&](const Atom& probe) {
    std::vector<AtomRef> cands;
    index_.Candidates(probe, &cands);
    std::set<QueryId> out;
    for (const AtomRef& r : cands) out.insert(r.query);
    return out;
  };

  // Only (R, 0, A) is half dead: it alone is compacted.
  dead.insert(0);
  index_.Remove(a0, stale);
  EXPECT_EQ(index_.entry_count(), 8u);
  EXPECT_EQ(candidates(MakeAtom("R", {C("A"), C("x")})),
            (std::set<QueryId>{2}));
  EXPECT_EQ(candidates(MakeAtom("R", {V(), V()})),
            (std::set<QueryId>{0, 1, 2}));  // dead 0 still listed

  // Now every list holding 0 or 1 is at least half dead.
  dead.insert(1);
  index_.Remove(a1, stale);
  EXPECT_EQ(index_.entry_count(), 3u);
  EXPECT_EQ(candidates(MakeAtom("R", {V(), V()})), (std::set<QueryId>{2}));
  EXPECT_TRUE(candidates(MakeAtom("R", {C("B"), V()})).empty());

  dead.insert(2);
  index_.Remove(a2, stale);
  EXPECT_EQ(index_.entry_count(), 0u);
  EXPECT_TRUE(candidates(MakeAtom("R", {V(), V()})).empty());
}

class AtomIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AtomIndexPropertyTest, CandidatesAreSupersetOfUnifiable) {
  Rng rng(GetParam());
  QueryContext ctx;
  SymbolId rel = ctx.Intern("R");
  auto random_atom = [&](int arity) {
    std::vector<Term> args;
    for (int i = 0; i < arity; ++i) {
      if (rng.Chance(0.5)) {
        args.push_back(Term::Const(Value::Int(static_cast<int64_t>(rng.Below(3)))));
      } else {
        args.push_back(Term::Var(ctx.NewVar("v")));
      }
    }
    return Atom(rel, std::move(args));
  };

  std::vector<Atom> heads;
  AtomIndex index;
  for (uint32_t i = 0; i < 40; ++i) {
    heads.push_back(random_atom(3));
    index.Add(AtomRef{i, 0}, heads.back());
  }
  for (int probe_i = 0; probe_i < 30; ++probe_i) {
    Atom probe = random_atom(3);
    std::vector<AtomRef> cands;
    index.Candidates(probe, &cands);
    std::set<uint32_t> cand_set;
    for (const AtomRef& r : cands) cand_set.insert(r.query);
    for (uint32_t i = 0; i < heads.size(); ++i) {
      if (unify::Unifiable(heads[i], probe)) {
        EXPECT_TRUE(cand_set.count(i))
            << "unifiable head missed by index, seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomIndexPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

// ---------------------------------------------------- UnifiabilityGraph --

class GraphTest : public ::testing::Test {
 protected:
  QuerySet Parse(const std::string& program) {
    ir::Parser parser(&ctx_);
    auto r = parser.ParseProgram(program);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  /// Live edges as (from, to) pairs, sorted.
  static std::vector<std::pair<QueryId, QueryId>> LiveEdges(
      const UnifiabilityGraph& g) {
    std::vector<std::pair<QueryId, QueryId>> out;
    for (uint32_t i = 0; i < g.edge_count(); ++i) {
      const Edge& e = g.edge(i);
      if (e.alive) out.emplace_back(e.from, e.to);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  QueryContext ctx_;
};

// The §4.1.1 running example: Figure 4 (a).
constexpr const char* kRunningExample =
    "{R(x1), S(x2)} T(x3) :- D1(x1, x2, x3);"
    "{T(1)} R(y1) :- D2(y1);"
    "{T(z1)} S(z2) :- D3(z1, z2)";

TEST_F(GraphTest, RunningExampleEdges) {
  QuerySet qs = Parse(kRunningExample);
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  // Figure 4 (a): q1→q2 (T(x3)~T(1)), q1→q3 (T(x3)~T(z1)),
  //               q2→q1 (R(y1)~R(x1)), q3→q1 (S(z2)~S(x2)).
  EXPECT_EQ(LiveEdges(g),
            (std::vector<std::pair<QueryId, QueryId>>{
                {0, 1}, {0, 2}, {1, 0}, {2, 0}}));
  EXPECT_TRUE(g.safety_violations().empty());
}

TEST_F(GraphTest, RunningExampleInitialUnifiers) {
  QuerySet qs = Parse(kRunningExample);
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  // Figure 4 (b): U(q1) = {{x1,y1},{x2,z2}}, U(q2) = {{x3,1}},
  //               U(q3) = {{x3,z1}}.
  EXPECT_EQ(g.node(0).unifier.ToString(ctx_), "{{x1, y1}, {x2, z2}}");
  EXPECT_EQ(g.node(1).unifier.ToString(ctx_), "{{x3, 1}}");
  EXPECT_EQ(g.node(2).unifier.ToString(ctx_), "{{x3, z1}}");
}

TEST_F(GraphTest, RunningExampleMatchCounts) {
  QuerySet qs = Parse(kRunningExample);
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  EXPECT_TRUE(g.node(0).AllPcsMatched());
  EXPECT_TRUE(g.node(1).AllPcsMatched());
  EXPECT_TRUE(g.node(2).AllPcsMatched());
  EXPECT_EQ(g.node(0).pc_match_count, (std::vector<uint32_t>{1, 1}));
}

TEST_F(GraphTest, IntroductionExampleIsMutual) {
  QuerySet qs = Parse(
      "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris);"
      "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris), A(y, United)");
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  EXPECT_EQ(LiveEdges(g), (std::vector<std::pair<QueryId, QueryId>>{{0, 1},
                                                                    {1, 0}}));
  // Kramer's unifier binds nothing yet but links x (his flight) to Jerry's y.
  EXPECT_TRUE(g.node(0).unifier.SameClass(
      qs.queries[0].head[0].args[1].var(),
      qs.queries[1].head[0].args[1].var()));
}

TEST_F(GraphTest, SelfEdgesRequireOptIn) {
  // Default (paper-experiment behaviour): a query's own head does not
  // satisfy its own postcondition.
  QuerySet qs = Parse("{R(Kramer, x)} R(Kramer, x) :- F(x, Paris)");
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  EXPECT_TRUE(LiveEdges(g).empty());
  EXPECT_FALSE(g.node(0).AllPcsMatched());
}

TEST_F(GraphTest, SelfEdgeWhenOwnHeadSatisfiesOwnPostcondition) {
  // Strict §2.3 semantics: a single grounding may be a coordinating set.
  QuerySet qs = Parse("{R(Kramer, x)} R(Kramer, x) :- F(x, Paris)");
  UnifiabilityGraph g(&qs, GraphOptions{.allow_self_edges = true});
  ASSERT_TRUE(g.Build().ok());
  EXPECT_EQ(LiveEdges(g),
            (std::vector<std::pair<QueryId, QueryId>>{{0, 0}}));
  EXPECT_TRUE(g.node(0).AllPcsMatched());
}

TEST_F(GraphTest, UnmatchedPostconditionLeavesCountZero) {
  QuerySet qs = Parse(
      "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris);"
      "{} R(Newman, y) :- F(y, Rome)");
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  // Nobody's head provides R(Jerry, _): Kramer's postcondition is unmatched.
  EXPECT_FALSE(g.node(0).AllPcsMatched());
  EXPECT_TRUE(g.node(1).AllPcsMatched());  // no postconditions at all
}

TEST_F(GraphTest, SafetyViolationDetected) {
  // Figure 3 (a): Jerry's postcondition R(f, z) unifies with Kramer's,
  // Elaine's, and his own head.
  QuerySet qs = Parse(
      "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris);"
      "{R(Jerry, y)} R(Elaine, y) :- F(y, Athens);"
      "{R(f, z)} R(Jerry, z) :- F(z, w), Friend(Jerry, f)");
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  ASSERT_FALSE(g.safety_violations().empty());
  for (QueryId q : g.safety_violations()) EXPECT_EQ(q, 2u);
}

TEST_F(GraphTest, RemoveNodeDecrementsSuccessorCounts) {
  QuerySet qs = Parse(kRunningExample);
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  g.RemoveNode(1);  // q2 provided R(x1)'s match
  EXPECT_FALSE(g.node(1).alive);
  EXPECT_EQ(g.node(0).pc_match_count[0], 0u);
  EXPECT_EQ(g.node(0).pc_match_count[1], 1u);
  EXPECT_EQ(LiveEdges(g), (std::vector<std::pair<QueryId, QueryId>>{{0, 2},
                                                                    {2, 0}}));
  // Removing again is a no-op.
  g.RemoveNode(1);
  EXPECT_EQ(g.node(0).pc_match_count[0], 0u);
}

TEST_F(GraphTest, RecomputeUnifierRebuildsFromLiveEdges) {
  QuerySet qs = Parse(kRunningExample);
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  g.RemoveNode(1);
  ASSERT_TRUE(g.RecomputeUnifier(0));
  // Only the q3 edge remains: U(q1) = {{x2, z2}}.
  EXPECT_EQ(g.node(0).unifier.ToString(ctx_), "{{x2, z2}}");
}

TEST_F(GraphTest, IndexAndScanConstructionAgree) {
  QuerySet qs = Parse(
      "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris);"
      "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris);"
      "{R(Jerry, z)} R(Frank, z) :- F(z, Paris), A(z, United);"
      "{T(a)} S(a) :- D(a);"
      "{S(b)} T(b) :- D(b)");
  UnifiabilityGraph indexed(&qs, GraphOptions{.use_atom_index = true});
  UnifiabilityGraph scanned(&qs, GraphOptions{.use_atom_index = false});
  ASSERT_TRUE(indexed.Build().ok());
  ASSERT_TRUE(scanned.Build().ok());
  EXPECT_EQ(LiveEdges(indexed), LiveEdges(scanned));
  // The index must attempt strictly fewer unifications than all-pairs.
  EXPECT_LT(indexed.unification_attempts(), scanned.unification_attempts());
}

TEST_F(GraphTest, AddQueryRejectsDuplicatesAndBadIds) {
  QuerySet qs = Parse("{} R(Jerry, x) :- F(x, Paris)");
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.AddQuery(0).ok());
  EXPECT_EQ(g.AddQuery(0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddQuery(7).code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphTest, ReleasedPositionIsReusedWithoutStaleMatches) {
  QuerySet pool = Parse(
      "{} R(L1, x) :- B(x);"
      "{} R(L2, x) :- B(x);"
      "{} R(P, x) :- B(x);"
      "{} R(Q, x) :- B(x);"
      "{R(w, z)} S(X, z) :- B(z)");
  QuerySet qs;
  qs.queries = {pool.queries[0], pool.queries[1], pool.queries[2]};
  UnifiabilityGraph g(&qs);
  for (QueryId q = 0; q < 3; ++q) ASSERT_TRUE(g.AddQuery(q).ok());
  // Position 2 changes hands; R's relation list keeps the old entry (one
  // of three is dead), and it must not match the new occupant.
  g.Release(2);
  EXPECT_FALSE(g.node(2).alive);
  qs.queries[2] = pool.queries[3];
  ASSERT_TRUE(g.AddQuery(2).ok());
  qs.queries.push_back(pool.queries[4]);
  ASSERT_TRUE(g.AddQuery(3).ok());
  EXPECT_EQ(g.node(3).pc_match_count[0], 3u);
  EXPECT_EQ(LiveEdges(g), (std::vector<std::pair<QueryId, QueryId>>{
                              {0, 3}, {1, 3}, {2, 3}}));
}

TEST_F(GraphTest, ReleaseRecyclesEdgesAroundALiveHub) {
  // One long-lived hub; partners that depend on it come and go through
  // one reused position. Neither the hub's adjacency, the edge ids nor the
  // index grow with the number of partners.
  QuerySet pool = Parse(
      "{} R(Hub, x) :- B(x);"
      "{R(Hub, y)} S(P, y) :- B(y)");
  QuerySet qs;
  qs.queries = {pool.queries[0], pool.queries[1]};
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.AddQuery(0).ok());
  const size_t hub_entries = g.index_entry_count();
  for (QueryId round = 0; round < 50; ++round) {
    qs.queries[1] = pool.queries[1];
    qs.queries[1].id = round + 1;
    ASSERT_TRUE(g.Admit(1).ok()) << "round " << round;
    EXPECT_EQ(LiveEdges(g),
              (std::vector<std::pair<QueryId, QueryId>>{{0, 1}}));
    g.Release(1);
  }
  EXPECT_TRUE(LiveEdges(g).empty());
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.free_edge_count(), 1u);
  EXPECT_TRUE(g.node(0).out_edges.empty());
  EXPECT_EQ(g.index_entry_count(), hub_entries);
}

// ------------------------------------------------------------ Partitioner --

TEST_F(GraphTest, PartitionsAreConnectedComponents) {
  QuerySet qs = Parse(
      "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris);"
      "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris);"
      "{T(a)} S(a) :- D(a);"
      "{S(b)} T(b) :- D(b);"
      "{} W(c) :- D(c)");
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  auto parts = Partitioner::Components(g);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<QueryId>{0, 1}));
  EXPECT_EQ(parts[1], (std::vector<QueryId>{2, 3}));
  EXPECT_EQ(parts[2], (std::vector<QueryId>{4}));
}

TEST_F(GraphTest, DeadNodesAppearInNoPartition) {
  QuerySet qs = Parse(
      "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris);"
      "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)");
  UnifiabilityGraph g(&qs);
  ASSERT_TRUE(g.Build().ok());
  g.RemoveNode(0);
  auto parts = Partitioner::Components(g);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (std::vector<QueryId>{1}));
}

// Property: partitioning agrees with a BFS reference on random workloads.
class PartitionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionPropertyTest, MatchesBfsReference) {
  Rng rng(GetParam());
  QueryContext ctx;
  ir::Parser parser(&ctx);
  // Random chains over a small alphabet of relation/constant pairs: query i
  // posts on token t_i and contributes token h_i.
  std::string program;
  int n = 12;
  for (int i = 0; i < n; ++i) {
    int post = static_cast<int>(rng.Below(8));
    int head = static_cast<int>(rng.Below(8));
    program += "{K(" + std::to_string(post) + ")} K(" + std::to_string(head) +
               ") :- B(x" + std::to_string(i) + ");";
  }
  auto qs = parser.ParseProgram(program);
  ASSERT_TRUE(qs.ok());
  UnifiabilityGraph g(&*qs);
  ASSERT_TRUE(g.Build().ok());
  auto parts = Partitioner::Components(g);

  // BFS reference over the undirected live-edge adjacency.
  std::vector<std::set<QueryId>> adj(n);
  for (uint32_t i = 0; i < g.edge_count(); ++i) {
    const Edge& e = g.edge(i);
    if (!e.alive) continue;
    adj[e.from].insert(e.to);
    adj[e.to].insert(e.from);
  }
  std::vector<int> comp(n, -1);
  int comp_count = 0;
  for (int s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    std::vector<int> stack{s};
    comp[s] = comp_count;
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (QueryId v : adj[u]) {
        if (comp[v] < 0) {
          comp[v] = comp_count;
          stack.push_back(static_cast<int>(v));
        }
      }
    }
    ++comp_count;
  }
  ASSERT_EQ(parts.size(), static_cast<size_t>(comp_count));
  for (const auto& part : parts) {
    for (QueryId q : part) EXPECT_EQ(comp[q], comp[part[0]]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

}  // namespace
}  // namespace eq::core
