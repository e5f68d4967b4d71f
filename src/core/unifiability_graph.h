#ifndef EQ_CORE_UNIFIABILITY_GRAPH_H_
#define EQ_CORE_UNIFIABILITY_GRAPH_H_

#include <string>
#include <vector>

#include "core/atom_index.h"
#include "ir/query.h"
#include "unify/unifier.h"
#include "util/status.h"

namespace eq::core {

/// One edge of the unifiability multi-digraph (paper §4.1.1): the head atom
/// `head_idx` of query `from` unifies with the postcondition atom `pc_idx`
/// of query `to`. Multiple edges between the same pair of queries are
/// possible (one per unifying atom pair).
struct Edge {
  ir::QueryId from = ir::kInvalidQuery;
  ir::QueryId to = ir::kInvalidQuery;
  uint32_t head_idx = 0;
  uint32_t pc_idx = 0;
  bool alive = true;
  /// Adjacency lists holding this edge id (from's out_edges, to's
  /// in_edges); the id is recycled when none does.
  uint8_t refs = 0;
};

/// Construction knobs. `allow_self_edges` controls whether a query's own
/// head may satisfy its own postcondition. The paper's formal §2.3
/// semantics permits this (a single grounding can be a coordinating set),
/// but its §5.3 experimental workloads —
/// `{R(x, ITH)} R(Jerry, ITH) ⊃ F(Jerry, x) ...` — only stay safe if a
/// query's own atoms are not matched against each other, so the default
/// follows the experiments and excludes self-edges (see docs/BENCHMARKS.md,
/// "Paper substitutions and deviations").
struct GraphOptions {
  bool allow_self_edges = false;
};

/// The unifiability graph over a workload of entangled queries. Edges are
/// found through the paper's (Relation, Parameter, Value) atom index
/// (§4.1.4), not by all-pairs unification.
///
/// Nodes carry the evolving unifier U(q) of Algorithm 1; per-postcondition
/// match counts maintain the INDEGREE(q) ≤ PCCOUNT(q) safety invariant and
/// let the matcher detect unanswerable queries (a postcondition with no
/// unifying head). The graph supports incremental growth (AddQuery) for the
/// engine's incremental evaluation mode (§5.1).
///
/// Node ids index the query set. An owner that reuses positions of its
/// query set (the engine keeps one position per pending query) calls
/// Release() on a removed node before the position takes a new query:
/// Release drops the node's index entries and adjacency, and recycles
/// edge ids once neither endpoint lists them. Error messages name queries
/// by their `id` field, not by position.
class UnifiabilityGraph {
 public:
  struct Node {
    bool alive = false;          ///< false until added; false again after removal
    bool init_conflict = false;  ///< initial unifier construction failed (§4.1.4)
    /// Bumped by Release(): index entries of an earlier registration of
    /// this position carry an older generation and never match the node.
    uint32_t generation = 0;
    /// Entries of the adjacency lists whose other endpoint was released;
    /// the lists are compacted once half of them are.
    uint32_t released_adj = 0;
    unify::Unifier unifier;      ///< U(q): constraints required for answerability
    std::vector<uint32_t> out_edges;       ///< edge ids leaving this node
    std::vector<uint32_t> in_edges;        ///< edge ids entering this node
    std::vector<uint32_t> pc_match_count;  ///< per postcondition: live in-edges

    size_t pccount() const { return pc_match_count.size(); }

    /// True iff every postcondition currently has a matching head.
    bool AllPcsMatched() const {
      for (uint32_t c : pc_match_count) {
        if (c == 0) return false;
      }
      return true;
    }
  };

  /// `queries` must outlive the graph and have ids assigned 0..n-1. The
  /// graph is built lazily: call Build() for the whole set, or AddQuery()
  /// one at a time.
  explicit UnifiabilityGraph(const ir::QuerySet* queries,
                             GraphOptions opts = GraphOptions());

  /// Adds every query of the set (in id order).
  Status Build();

  /// Adds one query: indexes its atoms, discovers edges in both directions
  /// against all previously added (alive) queries, updates unifiers and
  /// match counts, and records safety violations.
  Status AddQuery(ir::QueryId q);

  /// Adds one query only if the live set stays safe (§3.1.1). The edges q
  /// would add are collected first; q is rejected with kUnsafe, leaving
  /// the graph unchanged, when
  ///   (a) a postcondition of q would unify with two or more live heads, or
  ///   (b) a head of q would give a live postcondition a second match.
  /// Otherwise q is added exactly as by AddQuery. This "reject the
  /// newcomer" policy keeps resident queries stable; the same decisions
  /// (and messages) as core::SafetyChecker::Admit over the live set.
  Status Admit(ir::QueryId q);

  const ir::QuerySet& queries() const { return *queries_; }
  size_t node_count() const { return nodes_.size(); }

  Node& node(ir::QueryId q) { return nodes_[q]; }
  const Node& node(ir::QueryId q) const { return nodes_[q]; }

  const Edge& edge(uint32_t id) const { return edges_[id]; }
  size_t edge_count() const { return edges_.size(); }

  /// Number of edges that are still alive.
  size_t live_edge_count() const;

  /// Marks a node dead and retires its incident edges, decrementing the
  /// postcondition match counts of its successors. Does NOT cascade — the
  /// matcher's CLEANUP drives the transitive removal (§4.1.3).
  void RemoveNode(ir::QueryId q);

  /// Removes `q` (if still alive) and frees what the graph holds for it:
  /// its index entries (deleted lazily, see AtomIndex), unifier, match
  /// counts and adjacency. Its position may then be reused by AddQuery or
  /// Admit. Only for a position AddQuery or Admit added since its last
  /// release (a position Admit refused holds nothing to free). Reads the
  /// query's atoms, so call it before they change. Never call it while a
  /// matcher runs on the graph.
  void Release(ir::QueryId q);

  /// Edge ids waiting to be reused.
  size_t free_edge_count() const { return free_edges_.size(); }

  /// Stored head and postcondition index entries.
  size_t index_entry_count() const {
    return head_index_.entry_count() + pc_index_.entry_count();
  }

  /// Recomputes U(q) from scratch from the live incoming edges (used when a
  /// partition must be rebuilt after an incremental removal). Returns false
  /// and sets init_conflict on MGU failure.
  bool RecomputeUnifier(ir::QueryId q);

  /// Queries observed (at insertion time) to have a postcondition unifiable
  /// with two or more live heads — safety violations (§3.1.1).
  const std::vector<ir::QueryId>& safety_violations() const {
    return safety_violations_;
  }

  /// Number of head/postcondition unification attempts performed during
  /// construction — the work the atom index is meant to prune.
  uint64_t unification_attempts() const { return unification_attempts_; }

 private:
  /// An edge found for a query that is not added yet.
  struct NewEdge {
    ir::QueryId from;
    uint32_t head_idx;
    ir::QueryId to;
    uint32_t pc_idx;
    unify::Unifier unifier;
  };

  /// AddQuery (`check_safety` false) and Admit (true): collects q's edges
  /// in both directions against the live queries, then registers q and
  /// its edges unless the safety check rejected it.
  Status Add(ir::QueryId q, bool check_safety);

  void AddEdge(ir::QueryId from, uint32_t head_idx, ir::QueryId to,
               uint32_t pc_idx, const unify::Unifier& edge_unifier);

  /// True for a live node registered under `ref`'s generation.
  bool Current(const AtomRef& ref) const {
    const Node& n = nodes_[ref.query];
    return n.alive && n.generation == ref.generation;
  }

  /// Drops the adjacency entry the releasing node `q` holds for edge `id`.
  void DropEdgeRef(uint32_t id, ir::QueryId q);

  /// Removes the dead edges from a live node's adjacency lists.
  void CompactAdjacency(ir::QueryId q);

  /// The id a node is named by in error messages.
  std::string Name(ir::QueryId q) const {
    return std::to_string(queries_->queries[q].id);
  }

  const ir::QuerySet* queries_;
  GraphOptions opts_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<uint32_t> free_edges_;
  AtomIndex head_index_;  // over head atoms of added queries
  AtomIndex pc_index_;    // over postcondition atoms of added queries
  std::vector<ir::QueryId> safety_violations_;
  uint64_t unification_attempts_ = 0;
  // Scratch buffers reused by Add, so admission allocates no lists.
  std::vector<AtomRef> cands_;
  std::vector<NewEdge> new_edges_;
};

}  // namespace eq::core

#endif  // EQ_CORE_UNIFIABILITY_GRAPH_H_
