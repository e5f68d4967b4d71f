#include "core/unifiability_graph.h"

#include <algorithm>

namespace eq::core {

using ir::Atom;
using ir::EntangledQuery;
using ir::QueryId;
using unify::MergeResult;
using unify::Unifier;
using unify::UnifyAtoms;

UnifiabilityGraph::UnifiabilityGraph(const ir::QuerySet* queries,
                                     GraphOptions opts)
    : queries_(queries), opts_(opts) {
  nodes_.resize(queries_->queries.size());
}

Status UnifiabilityGraph::Build() {
  for (QueryId q = 0; q < queries_->queries.size(); ++q) {
    EQ_RETURN_NOT_OK(AddQuery(q));
  }
  return Status::OK();
}

void UnifiabilityGraph::HeadCandidates(const Atom& probe,
                                       std::vector<AtomRef>* out) const {
  if (opts_.use_atom_index) {
    head_index_.Candidates(probe, out);
    return;
  }
  // All-pairs fallback: every head atom of every added query.
  for (QueryId q = 0; q < nodes_.size(); ++q) {
    if (!nodes_[q].alive) continue;
    const EntangledQuery& query = queries_->queries[q];
    for (uint32_t i = 0; i < query.head.size(); ++i) {
      out->push_back(AtomRef{q, i, nodes_[q].generation});
    }
  }
}

void UnifiabilityGraph::PcCandidates(const Atom& probe,
                                     std::vector<AtomRef>* out) const {
  if (opts_.use_atom_index) {
    pc_index_.Candidates(probe, out);
    return;
  }
  for (QueryId q = 0; q < nodes_.size(); ++q) {
    if (!nodes_[q].alive) continue;
    const EntangledQuery& query = queries_->queries[q];
    for (uint32_t i = 0; i < query.postconditions.size(); ++i) {
      out->push_back(AtomRef{q, i, nodes_[q].generation});
    }
  }
}

void UnifiabilityGraph::AddEdge(QueryId from, uint32_t head_idx, QueryId to,
                                uint32_t pc_idx,
                                const Unifier& edge_unifier) {
  const Edge edge{from, to, head_idx, pc_idx, /*alive=*/true, /*refs=*/2};
  uint32_t id;
  if (free_edges_.empty()) {
    id = static_cast<uint32_t>(edges_.size());
    edges_.push_back(edge);
  } else {
    id = free_edges_.back();
    free_edges_.pop_back();
    edges_[id] = edge;
  }
  nodes_[from].out_edges.push_back(id);
  nodes_[to].in_edges.push_back(id);
  uint32_t count = ++nodes_[to].pc_match_count[pc_idx];
  if (count == 2) {
    // The postcondition now unifies with two live heads: `to` violates the
    // safety condition (§3.1.1). Recorded once, on the 1→2 transition.
    safety_violations_.push_back(to);
  }
  // Fold the edge's pairwise MGU into the target's unifier (§4.1.4: "update
  // U(q_j) to be the MGU of U(q_j) and the most general unifier of p and h").
  if (!nodes_[to].init_conflict &&
      nodes_[to].unifier.MergeFrom(edge_unifier) == MergeResult::kConflict) {
    nodes_[to].init_conflict = true;
  }
}

Status UnifiabilityGraph::AddQuery(QueryId q) {
  return Add(q, /*check_safety=*/false);
}

Status UnifiabilityGraph::Admit(QueryId q) {
  return Add(q, /*check_safety=*/true);
}

Status UnifiabilityGraph::Add(QueryId q, bool check_safety) {
  if (q >= queries_->queries.size()) {
    return Status::InvalidArgument("query id " + std::to_string(q) +
                                   " out of range");
  }
  // The query set may have grown since construction (incremental mode).
  if (q >= nodes_.size()) nodes_.resize(queries_->queries.size());
  if (nodes_[q].alive) {
    return Status::AlreadyExists("query " + std::to_string(q) +
                                 " already added");
  }
  const EntangledQuery& query = queries_->queries[q];
  std::vector<AtomRef>& cands = cands_;
  std::vector<NewEdge>& found = new_edges_;
  found.clear();  // scratch: may still hold the edges of the last call

  // Direction 1: this query's postconditions against live heads, plus its
  // own heads when self-edges are enabled.
  for (uint32_t j = 0; j < query.postconditions.size(); ++j) {
    const Atom& p = query.postconditions[j];
    cands.clear();
    HeadCandidates(p, &cands);
    // q is not indexed yet, so a hit on q is left over from a removal.
    std::erase_if(cands, [&](const AtomRef& ref) {
      return ref.query == q || !Current(ref);
    });
    if (opts_.allow_self_edges) {
      for (uint32_t i = 0; i < query.head.size(); ++i) {
        cands.push_back(AtomRef{q, i, nodes_[q].generation});
      }
    }
    uint32_t matches = 0;
    for (const AtomRef& ref : cands) {
      const Atom& h = queries_->queries[ref.query].head[ref.atom_idx];
      Unifier u;
      ++unification_attempts_;
      if (!UnifyAtoms(h, p, &u)) continue;
      if (check_safety && ++matches >= 2) {
        return Status::Unsafe("postcondition " + std::to_string(j) +
                              " of query " + Name(q) +
                              " would unify with two or more heads");
      }
      found.push_back(NewEdge{ref.query, ref.atom_idx, q, j, std::move(u)});
    }
  }

  // Direction 2: this query's heads against live postconditions. Its own
  // postconditions were covered by direction 1.
  const size_t first_out = found.size();
  for (uint32_t i = 0; i < query.head.size(); ++i) {
    const Atom& h = query.head[i];
    cands.clear();
    PcCandidates(h, &cands);
    for (const AtomRef& ref : cands) {
      if (ref.query == q || !Current(ref)) continue;
      const Atom& p = queries_->queries[ref.query].postconditions[ref.atom_idx];
      Unifier u;
      ++unification_attempts_;
      if (!UnifyAtoms(h, p, &u)) continue;
      if (check_safety) {
        // The postcondition's one allowed match is taken, by a live head
        // or by an earlier head of q.
        bool taken = nodes_[ref.query].pc_match_count[ref.atom_idx] > 0;
        for (size_t e = first_out; !taken && e < found.size(); ++e) {
          taken = found[e].to == ref.query && found[e].pc_idx == ref.atom_idx;
        }
        if (taken) {
          return Status::Unsafe("head of query " + Name(q) +
                                " would make postcondition " +
                                std::to_string(ref.atom_idx) +
                                " of admitted query " + Name(ref.query) +
                                " ambiguous");
        }
      }
      found.push_back(NewEdge{q, i, ref.query, ref.atom_idx, std::move(u)});
    }
  }

  Node& node = nodes_[q];
  node.alive = true;
  node.init_conflict = false;
  node.pc_match_count.assign(query.postconditions.size(), 0);
  node.indexed = opts_.use_atom_index;
  if (node.indexed) {
    for (uint32_t i = 0; i < query.head.size(); ++i) {
      head_index_.Add(AtomRef{q, i, node.generation}, query.head[i]);
    }
    for (uint32_t j = 0; j < query.postconditions.size(); ++j) {
      pc_index_.Add(AtomRef{q, j, node.generation}, query.postconditions[j]);
    }
  }
  for (const NewEdge& e : found) {
    AddEdge(e.from, e.head_idx, e.to, e.pc_idx, e.unifier);
  }
  return Status::OK();
}

size_t UnifiabilityGraph::live_edge_count() const {
  size_t n = 0;
  for (const Edge& e : edges_) {
    if (e.alive) ++n;
  }
  return n;
}

void UnifiabilityGraph::RemoveNode(QueryId q) {
  Node& node = nodes_[q];
  if (!node.alive) return;
  node.alive = false;
  for (uint32_t id : node.out_edges) {
    Edge& e = edges_[id];
    if (!e.alive) continue;
    e.alive = false;
    // The successor's postcondition loses its (unique, under safety) match.
    --nodes_[e.to].pc_match_count[e.pc_idx];
  }
  for (uint32_t id : node.in_edges) {
    edges_[id].alive = false;
  }
}

void UnifiabilityGraph::Release(QueryId q) {
  if (q >= nodes_.size()) return;
  RemoveNode(q);
  Node& node = nodes_[q];
  // From here on the node's index entries are stale.
  ++node.generation;
  if (node.indexed) {
    auto stale = [this](const AtomRef& ref) {
      return ref.generation != nodes_[ref.query].generation;
    };
    const EntangledQuery& query = queries_->queries[q];
    for (const Atom& h : query.head) head_index_.Remove(h, stale);
    for (const Atom& p : query.postconditions) pc_index_.Remove(p, stale);
  }
  for (uint32_t id : node.out_edges) DropEdgeRef(id, q);
  for (uint32_t id : node.in_edges) DropEdgeRef(id, q);
  node = Node{.generation = node.generation};
}

void UnifiabilityGraph::DropEdgeRef(uint32_t id, QueryId q) {
  Edge& e = edges_[id];
  if (--e.refs == 0) {
    free_edges_.push_back(id);
    return;
  }
  // The other endpoint still lists the edge. A live one compacts its lists
  // once half their entries point at released nodes; a removed one drops
  // them when it is released itself.
  QueryId other = e.from == q ? e.to : e.from;
  Node& o = nodes_[other];
  if (other == q || !o.alive) return;
  if (++o.released_adj * 2 >= o.out_edges.size() + o.in_edges.size()) {
    CompactAdjacency(other);
  }
}

void UnifiabilityGraph::CompactAdjacency(QueryId q) {
  auto drop_dead = [this](uint32_t id) {
    Edge& e = edges_[id];
    if (e.alive) return false;
    if (--e.refs == 0) free_edges_.push_back(id);
    return true;
  };
  Node& node = nodes_[q];
  std::erase_if(node.out_edges, drop_dead);
  std::erase_if(node.in_edges, drop_dead);
  node.released_adj = 0;
}

bool UnifiabilityGraph::RecomputeUnifier(QueryId q) {
  Node& node = nodes_[q];
  node.unifier = Unifier();
  node.init_conflict = false;
  const EntangledQuery& query = queries_->queries[q];
  for (uint32_t id : node.in_edges) {
    const Edge& e = edges_[id];
    if (!e.alive) continue;
    const Atom& h = queries_->queries[e.from].head[e.head_idx];
    const Atom& p = query.postconditions[e.pc_idx];
    Unifier u;
    if (!UnifyAtoms(h, p, &u) ||
        node.unifier.MergeFrom(u) == MergeResult::kConflict) {
      node.init_conflict = true;
      return false;
    }
  }
  return true;
}

}  // namespace eq::core
