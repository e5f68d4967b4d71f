#include "engine/engine.h"

#include <algorithm>

#include "core/partitioner.h"
#include "util/stopwatch.h"

namespace eq::engine {

using core::Matcher;
using ir::EntangledQuery;
using ir::QueryId;

CoordinationEngine::CoordinationEngine(ir::QueryContext* ctx, db::Snapshot db,
                                       EngineOptions opts)
    : ctx_(ctx),
      db_(std::move(db)),
      opts_(opts),
      graph_(&queries_),
      combiner_(&queries_) {}

Result<QueryId> CoordinationEngine::Submit(EntangledQuery query,
                                           uint64_t ttl_ticks) {
  // What a Flush (or a callback-free caller) retired is released before
  // the new query takes a slot; what this call retires, when it returns.
  if (wave_ == QueryOutcome::Via::kNone) ReleaseRetired();
  WaveScope wave(this, QueryOutcome::Via::kSubmit);
  Stopwatch sw;
  EQ_RETURN_NOT_OK(ir::ValidateQuery(query, ctx_));
  const std::vector<ir::VarId> vars = query.Variables();
  for (ir::VarId v : vars) {
    if (used_vars_.count(v)) {
      return Status::InvalidArgument(
          "variable '" + ctx_->VarName(v) +
          "' is used by a pending query; submit queries with fresh "
          "variables (see ir::RenameApart)");
    }
  }

  const QueryId id = next_id();
  Slot s;
  if (free_slots_.empty()) {
    s = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
    queries_.queries.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  used_vars_.insert(vars.begin(), vars.end());
  SlotState& st = slots_[s];
  st.body_rels.reserve(query.body.size());
  for (const ir::Atom& atom : query.body) st.body_rels.push_back(atom.relation);
  std::sort(st.body_rels.begin(), st.body_rels.end());
  st.body_rels.erase(std::unique(st.body_rels.begin(), st.body_rels.end()),
                     st.body_rels.end());
  query.id = id;
  queries_.queries[s] = std::move(query);
  outcomes_.emplace_back();

  // One index probe admits the query: the graph collects its edges and
  // applies the §3.1.1 rule (when enforced) before adding anything.
  // AddQuery cannot fail here: the slot is free and in range.
  Status admitted = opts_.enforce_safety ? graph_.Admit(s) : graph_.AddQuery(s);
  if (!admitted.ok()) {
    ++metrics_.rejected_unsafe;
    metrics_.match_seconds += sw.ElapsedSeconds();
    QueryOutcome& outcome = outcomes_[id];
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status = admitted;
    outcome.via = QueryOutcome::Via::kSubmit;
    retired_.push_back(s);
    Notify(s);
    return id;  // submission succeeded; coordination was refused
  }

  st.pending = true;
  slot_of_.emplace(id, s);
  for (SymbolId rel : st.body_rels) pending_by_body_rel_[rel].insert(s);
  AbsorbPartitions(s);
  if (ttl_ticks != 0) {
    st.deadline = now_ + ttl_ticks;
    deadline_heap_.emplace(st.deadline, id);
  }
  metrics_.match_seconds += sw.ElapsedSeconds();

  if (opts_.mode == EvalMode::kIncremental) IncrementalStep(s);
  return id;
}

void CoordinationEngine::Notify(Slot s) {
  if (!callback_) return;
  const QueryId id = IdOf(s);
  const Slot saved = in_callback_;
  in_callback_ = s;
  callback_(id, outcomes_[id]);
  in_callback_ = saved;
}

void CoordinationEngine::ReleaseRetired() {
  for (Slot s : retired_) {
    graph_.Release(s);  // reads the IR: before it is freed
    for (ir::VarId v : queries_.queries[s].Variables()) used_vars_.erase(v);
    queries_.queries[s] = EntangledQuery();
    slots_[s] = SlotState();
    free_slots_.push_back(s);
  }
  retired_.clear();
  if (stale_deadlines_ * 2 > deadline_heap_.size()) {
    std::vector<DeadlineEntry> live;
    live.reserve(deadline_heap_.size() - stale_deadlines_);
    for (const auto& [id, s] : slot_of_) {
      if (slots_[s].deadline != 0) live.emplace_back(slots_[s].deadline, id);
    }
    deadline_heap_ = decltype(deadline_heap_)(std::greater<>(), std::move(live));
    stale_deadlines_ = 0;
  }
}

void CoordinationEngine::AbsorbPartitions(Slot q) {
  // Gather the partitions of q's live neighbours.
  std::vector<PartitionId> neighbours;
  auto note = [&](Slot other) {
    if (other == q) return;
    PartitionId pid = slots_[other].partition;
    if (pid != kNoPartition) neighbours.push_back(pid);
  };
  const auto& node = graph_.node(q);
  for (uint32_t id : node.out_edges) {
    const core::Edge& e = graph_.edge(id);
    if (e.alive && graph_.node(e.to).alive) note(e.to);
  }
  for (uint32_t id : node.in_edges) {
    const core::Edge& e = graph_.edge(id);
    if (e.alive && graph_.node(e.from).alive) note(e.from);
  }
  std::sort(neighbours.begin(), neighbours.end());
  neighbours.erase(std::unique(neighbours.begin(), neighbours.end()),
                   neighbours.end());

  if (neighbours.empty()) {
    PartitionId pid = next_partition_++;
    partitions_[pid].members.push_back(q);
    slots_[q].partition = pid;
    return;
  }
  // Merge everything into the largest neighbour partition.
  PartitionId target = neighbours[0];
  for (PartitionId pid : neighbours) {
    if (partitions_[pid].members.size() >
        partitions_[target].members.size()) {
      target = pid;
    }
  }
  for (PartitionId pid : neighbours) {
    if (pid == target) continue;
    for (Slot member : partitions_[pid].members) {
      slots_[member].partition = target;
      partitions_[target].members.push_back(member);
    }
    partitions_.erase(pid);
  }
  partitions_[target].members.push_back(q);
  slots_[q].partition = target;
}

void CoordinationEngine::SplitPartition(PartitionId pid) {
  auto it = partitions_.find(pid);
  if (it == partitions_.end()) return;
  std::vector<Slot>& members = it->second.members;
  if (members.size() <= 1) return;

  // BFS over live edges restricted to the member set.
  std::unordered_map<Slot, int> group;
  int group_count = 0;
  std::unordered_set<Slot> member_set(members.begin(), members.end());
  for (Slot seed : members) {
    if (group.count(seed)) continue;
    int g = group_count++;
    std::vector<Slot> stack{seed};
    group[seed] = g;
    while (!stack.empty()) {
      Slot u = stack.back();
      stack.pop_back();
      const auto& node = graph_.node(u);
      auto visit = [&](Slot v) {
        if (member_set.count(v) && !group.count(v)) {
          group[v] = g;
          stack.push_back(v);
        }
      };
      for (uint32_t id : node.out_edges) {
        const core::Edge& e = graph_.edge(id);
        if (e.alive) visit(e.to);
      }
      for (uint32_t id : node.in_edges) {
        const core::Edge& e = graph_.edge(id);
        if (e.alive) visit(e.from);
      }
    }
  }
  if (group_count <= 1) return;

  std::vector<std::vector<Slot>> buckets(group_count);
  for (Slot m : members) buckets[group[m]].push_back(m);
  members = std::move(buckets[0]);
  for (int g = 1; g < group_count; ++g) {
    PartitionId fresh = next_partition_++;
    for (Slot m : buckets[g]) slots_[m].partition = fresh;
    partitions_[fresh].members = std::move(buckets[g]);
  }
}

void CoordinationEngine::Resolve(Slot q, QueryOutcome outcome) {
  // A query leaves the pending state exactly once; a second resolution
  // must neither overwrite the recorded outcome nor re-fire the
  // application callback.
  SlotState& st = slots_[q];
  if (!st.pending) return;
  const QueryId id = IdOf(q);
  outcome.via = wave_;
  outcomes_[id] = std::move(outcome);
  st.pending = false;
  slot_of_.erase(id);
  for (SymbolId rel : st.body_rels) {
    auto it = pending_by_body_rel_.find(rel);
    if (it == pending_by_body_rel_.end()) continue;
    it->second.erase(q);
    if (it->second.empty()) pending_by_body_rel_.erase(it);
  }
  if (st.deadline != 0) {
    st.deadline = 0;
    ++stale_deadlines_;  // its heap entry is skipped when popped
  }
  retired_.push_back(q);
  if (outcomes_[id].state == QueryOutcome::State::kAnswered) {
    ++metrics_.answered;
  } else {
    ++metrics_.failed;
  }
  Notify(q);
}

void CoordinationEngine::Retire(Slot q) {
  graph_.RemoveNode(q);
  PartitionId pid = slots_[q].partition;
  if (pid == kNoPartition) return;
  slots_[q].partition = kNoPartition;
  auto pit = partitions_.find(pid);
  if (pit == partitions_.end()) return;
  auto& members = pit->second.members;
  members.erase(std::remove(members.begin(), members.end(), q),
                members.end());
  if (members.empty()) {
    partitions_.erase(pit);
  } else {
    SplitPartition(pid);
  }
}

void CoordinationEngine::RetireAll(const std::vector<Slot>& qs) {
  std::unordered_set<PartitionId> touched;
  std::unordered_set<Slot> dead(qs.begin(), qs.end());
  for (Slot q : qs) {
    graph_.RemoveNode(q);
    PartitionId& pid = slots_[q].partition;
    if (pid != kNoPartition) {
      touched.insert(pid);
      pid = kNoPartition;
    }
  }
  for (PartitionId pid : touched) {
    auto pit = partitions_.find(pid);
    if (pit == partitions_.end()) continue;
    auto& members = pit->second.members;
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](Slot m) { return dead.count(m); }),
                  members.end());
    if (members.empty()) {
      partitions_.erase(pit);
    } else {
      SplitPartition(pid);
    }
  }
}

std::vector<CoordinationEngine::Slot> CoordinationEngine::PropagateWithRepair(
    std::vector<Slot> members) {
  Matcher matcher(&graph_);
  std::vector<Slot> seeds = members;
  for (;;) {
    auto conflict = matcher.Propagate(seeds);
    if (!conflict.has_value()) break;
    // The conflicted query's constraints are unsatisfiable: its (uniquely
    // matched, by safety) postconditions demand incompatible values. Fail
    // it, rebuild the survivors' unifiers from the remaining edges, and
    // re-run propagation.
    Slot dead = *conflict;
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status = Status::Unsatisfiable(
        "coordination constraints admit no solution for query " +
        std::to_string(IdOf(dead)));
    Resolve(dead, outcome);
    Retire(dead);
    members.erase(std::remove(members.begin(), members.end(), dead),
                  members.end());
    bool rebuilt = false;
    while (!rebuilt) {
      rebuilt = true;
      for (Slot m : members) {
        if (!graph_.node(m).alive) continue;
        if (!graph_.RecomputeUnifier(m)) {
          // Initial constraints of m alone are already contradictory.
          QueryOutcome oc;
          oc.state = QueryOutcome::State::kFailed;
          oc.status = Status::Unsatisfiable(
              "initial unifier conflict for query " +
              std::to_string(IdOf(m)));
          Resolve(m, oc);
          Retire(m);
          members.erase(std::remove(members.begin(), members.end(), m),
                        members.end());
          rebuilt = false;
          break;
        }
      }
    }
    seeds = members;
  }
  std::vector<Slot> alive;
  for (Slot m : members) {
    if (graph_.node(m).alive) alive.push_back(m);
  }
  return alive;
}

bool CoordinationEngine::PartitionReady(
    const std::vector<Slot>& members) const {
  for (Slot m : members) {
    const auto& node = graph_.node(m);
    if (!node.alive || node.init_conflict || !node.AllPcsMatched()) {
      return false;
    }
  }
  return !members.empty();
}

bool CoordinationEngine::EvaluateMembers(const std::vector<Slot>& members,
                                         bool fail_on_no_data) {
  auto fail_all = [&](const Status& st) {
    for (Slot m : members) {
      QueryOutcome outcome;
      outcome.state = QueryOutcome::State::kFailed;
      outcome.status = st;
      Resolve(m, outcome);
    }
    RetireAll(members);
  };

  Stopwatch match_sw;
  auto cq = combiner_.Combine(graph_, members);
  metrics_.match_seconds += match_sw.ElapsedSeconds();
  if (!cq.ok()) {
    // §4.2: no global MGU — evaluation fails for the whole component.
    fail_all(cq.status());
    return true;
  }

  size_t k = 1;
  for (Slot m : members) {
    k = std::max(k, static_cast<size_t>(queries_.queries[m].choose_k));
  }
  // With a preference function, over-sample candidate outcomes and rank
  // them (§6 extension); without one, fetch exactly the k needed.
  size_t fetch = opts_.preference ? std::max(k, opts_.preference_candidates)
                                  : k;

  Stopwatch db_sw;
  auto answers = combiner_.Evaluate(*cq, db_, fetch, opts_.exec);
  metrics_.db_seconds += db_sw.ElapsedSeconds();
  ++metrics_.combined_queries;
  if (!answers.ok()) {
    fail_all(answers.status());
    return true;
  }
  if (opts_.preference && answers->size() > 1) {
    // Stable order by descending total member score, so ties keep the
    // database's deterministic enumeration order.
    std::vector<std::pair<double, size_t>> scored;
    scored.reserve(answers->size());
    for (size_t a = 0; a < answers->size(); ++a) {
      double total = 0;
      for (size_t i = 0; i < cq->members.size(); ++i) {
        total += opts_.preference(IdOf(cq->members[i]),
                                  (*answers)[a].answers[i]);
      }
      scored.emplace_back(total, a);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& x, const auto& y) {
                       return x.first > y.first;
                     });
    std::vector<core::CoordinatedAnswer> ranked;
    ranked.reserve(answers->size());
    for (const auto& [score, idx] : scored) {
      ranked.push_back(std::move((*answers)[idx]));
    }
    *answers = std::move(ranked);
  }
  if (answers->empty()) {
    if (fail_on_no_data) {
      fail_all(Status::NotFound(
          "database offers no coordinated solution for the matched group"));
      return true;
    }
    return false;  // stay pending; future arrivals may change the group
  }

  // Scatter: member i of cq->members receives its ground head atoms from
  // the first choose_k coordinated outcomes.
  for (size_t i = 0; i < cq->members.size(); ++i) {
    Slot m = cq->members[i];
    size_t want = static_cast<size_t>(queries_.queries[m].choose_k);
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kAnswered;
    for (size_t a = 0; a < answers->size() && a < want; ++a) {
      const auto& atoms = (*answers)[a].answers[i];
      outcome.tuples.insert(outcome.tuples.end(), atoms.begin(), atoms.end());
    }
    Resolve(m, std::move(outcome));
  }
  RetireAll(cq->members);
  return true;
}

void CoordinationEngine::IncrementalStep(Slot q) {
  if (!slots_[q].pending) return;
  Stopwatch sw;
  std::vector<Slot> seeds;
  if (opts_.rematch == IncrementalRematch::kFullPartition) {
    // Paper-faithful: continue matching over the whole partition state.
    seeds = partitions_.at(slots_[q].partition).members;
  } else {
    // Delta seeding: the new query plus the successors whose unifiers its
    // edges tightened at insertion.
    seeds.push_back(q);
    for (uint32_t id : graph_.node(q).out_edges) {
      const core::Edge& e = graph_.edge(id);
      if (e.alive && graph_.node(e.to).alive) seeds.push_back(e.to);
    }
  }
  Matcher matcher(&graph_);
  auto conflict = matcher.Propagate(seeds);
  metrics_.match_seconds += sw.ElapsedSeconds();
  if (conflict.has_value()) {
    Stopwatch repair_sw;
    PartitionId pid = slots_[q].partition;
    std::vector<Slot> members = partitions_.at(pid).members;
    PropagateWithRepair(std::move(members));
    metrics_.match_seconds += repair_sw.ElapsedSeconds();
  }

  // The conflicted query might have been q itself.
  if (slots_[q].partition == kNoPartition) return;
  const std::vector<Slot> members =
      partitions_.at(slots_[q].partition).members;
  if (PartitionReady(members)) {
    ++metrics_.partitions_evaluated;
    EvaluateMembers(members, /*fail_on_no_data=*/false);
  }
}

void CoordinationEngine::ResolveComponentBatch(
    const std::vector<Slot>& component, std::vector<Slot> survivors) {
  std::unordered_set<Slot> alive(survivors.begin(), survivors.end());
  std::vector<Slot> losers;
  for (Slot m : component) {
    if (alive.count(m) || !slots_[m].pending) continue;
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status =
        Status::Unsatisfiable("query " + std::to_string(IdOf(m)) +
                              " has no coordination partners in the batch");
    Resolve(m, outcome);
    losers.push_back(m);
  }
  RetireAll(losers);
  if (!survivors.empty()) {
    ++metrics_.partitions_evaluated;
    // Resolution order follows the ids, not the slots.
    std::sort(survivors.begin(), survivors.end(),
              [this](Slot a, Slot b) { return IdOf(a) < IdOf(b); });
    EvaluateMembers(survivors, /*fail_on_no_data=*/true);
  }
}

Status CoordinationEngine::Flush() {
  WaveScope wave(this, QueryOutcome::Via::kFlush);
  // Snapshot the partitions that still hold pending queries, each keyed by
  // its smallest member id for a deterministic order.
  std::vector<std::pair<QueryId, std::vector<Slot>>> keyed;
  keyed.reserve(partitions_.size());
  for (const auto& [pid, part] : partitions_) {
    if (part.members.empty()) continue;
    QueryId first = IdOf(part.members[0]);
    for (Slot m : part.members) first = std::min(first, IdOf(m));
    keyed.emplace_back(first, part.members);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Batch matching per component. Matching touches only component-local
  // graph state (§4.1.2 independence), so with worker threads every
  // component is matched concurrently on the pool first; resolution
  // (callbacks, partition bookkeeping) always runs on this thread.
  struct Matched {
    std::vector<Slot> survivors;
    double match_seconds = 0;
  };
  std::vector<Matched> matched(keyed.size());
  auto match = [this, &keyed, &matched](size_t i) {
    Stopwatch sw;
    Matcher matcher(&graph_);
    matched[i].survivors = matcher.MatchComponent(keyed[i].second);
    matched[i].match_seconds = sw.ElapsedSeconds();
  };
  const bool parallel = opts_.worker_threads > 1 && keyed.size() > 1;
  if (parallel) {
    ThreadPool pool(opts_.worker_threads);
    for (size_t i = 0; i < keyed.size(); ++i) {
      pool.Submit([&match, i] { match(i); });
    }
    pool.Wait();
  }
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (!parallel) match(i);
    metrics_.match_seconds += matched[i].match_seconds;
    ResolveComponentBatch(keyed[i].second, std::move(matched[i].survivors));
  }
  return Status::OK();
}

void CoordinationEngine::AdvanceTime(uint64_t now) {
  WaveScope wave(this, QueryOutcome::Via::kTick);
  now_ = std::max(now_, now);
  std::vector<PartitionId> affected;
  while (!deadline_heap_.empty() && deadline_heap_.top().first <= now_) {
    const QueryId id = deadline_heap_.top().second;
    deadline_heap_.pop();
    // Lazy invalidation: skip entries for queries that were resolved since
    // — expiring through a stale entry would double-fire the callback of an
    // already-answered query. Ids are never reused, so a pending id is
    // exactly the query the entry was pushed for.
    auto it = slot_of_.find(id);
    if (it == slot_of_.end()) {
      --stale_deadlines_;
      continue;
    }
    const Slot q = it->second;
    ++metrics_.expired;
    if (slots_[q].partition != kNoPartition) {
      affected.push_back(slots_[q].partition);
    }
    slots_[q].deadline = 0;  // its entry is popped, not stale
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status = Status::Timeout("query " + std::to_string(id) +
                                     " went stale before coordinating");
    Resolve(q, outcome);
    // Retiring may split the partition; new partition ids are allocated
    // from next_partition_, so remember the watermark to re-check them too.
    PartitionId watermark = next_partition_;
    Retire(q);
    for (PartitionId pid = watermark; pid < next_partition_; ++pid) {
      affected.push_back(pid);
    }
  }

  if (opts_.mode == EvalMode::kIncremental) {
    ReexaminePartitions(affected);
  }
}

Status CoordinationEngine::Cancel(ir::QueryId id) {
  if (id >= outcomes_.size()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not pending (already resolved?)");
  }
  const Slot q = it->second;
  WaveScope wave(this, QueryOutcome::Via::kCancel);
  ++metrics_.cancelled;
  std::vector<PartitionId> affected;
  if (slots_[q].partition != kNoPartition) {
    affected.push_back(slots_[q].partition);
  }
  QueryOutcome outcome;
  outcome.state = QueryOutcome::State::kFailed;
  outcome.status = Status::Cancelled("query " + std::to_string(id) +
                                     " was withdrawn by its submitter");
  Resolve(q, std::move(outcome));
  // Retiring may split the partition; re-check the fragments too (same
  // watermark scheme as expiry in AdvanceTime).
  PartitionId watermark = next_partition_;
  Retire(q);
  for (PartitionId pid = watermark; pid < next_partition_; ++pid) {
    affected.push_back(pid);
  }
  if (opts_.mode == EvalMode::kIncremental) {
    ReexaminePartitions(affected);
  }
  return Status::OK();
}

WakeupResult CoordinationEngine::NotifyDataArrival(
    const std::vector<SymbolId>& rels) {
  WaveScope wave(this, QueryOutcome::Via::kWakeup);
  WakeupResult res;
  // The partitions a write could affect: those holding a pending query
  // whose body reads one of the touched relations.
  std::vector<PartitionId> affected;
  for (SymbolId rel : rels) {
    auto it = pending_by_body_rel_.find(rel);
    if (it == pending_by_body_rel_.end()) continue;
    for (Slot q : it->second) {
      if (slots_[q].partition != kNoPartition) {
        affected.push_back(slots_[q].partition);
      }
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  uint64_t answered_before = metrics_.answered;
  for (PartitionId pid : affected) {
    auto pit = partitions_.find(pid);
    // An earlier iteration may have resolved or split this partition away.
    if (pit == partitions_.end() || pit->second.members.empty()) continue;
    ++res.partitions_reexamined;
    // Bring matching up to date: in set-at-a-time mode postconditions are
    // only matched at flush, so a wake-up propagates just this partition
    // to let a fully coordinable group answer now. Conflicts are repaired
    // exactly as in incremental mode (they would fail at flush anyway);
    // queries whose partners have not arrived simply stay unmatched.
    Stopwatch sw;
    std::vector<Slot> alive = PropagateWithRepair(pit->second.members);
    metrics_.match_seconds += sw.ElapsedSeconds();
    // Repair may have split the partition: re-examine every fragment the
    // survivors landed in — ready ones answer, "no data yet" keeps
    // members pending for the next write (or the flush).
    std::vector<PartitionId> fragments;
    for (Slot q : alive) {
      if (slots_[q].partition != kNoPartition) {
        fragments.push_back(slots_[q].partition);
      }
    }
    ReexaminePartitions(std::move(fragments));
  }
  res.queries_satisfied = metrics_.answered - answered_before;
  return res;
}

const char* ViaName(QueryOutcome::Via via) {
  switch (via) {
    case QueryOutcome::Via::kNone:
      return "none";
    case QueryOutcome::Via::kSubmit:
      return "submit";
    case QueryOutcome::Via::kFlush:
      return "flush";
    case QueryOutcome::Via::kWakeup:
      return "wakeup";
    case QueryOutcome::Via::kTick:
      return "tick";
    case QueryOutcome::Via::kCancel:
      return "cancel";
  }
  return "unknown";
}

std::vector<QueryId> CoordinationEngine::partition_members(QueryId q) const {
  auto it = slot_of_.find(q);
  if (it == slot_of_.end()) return {};
  auto pit = partitions_.find(slots_[it->second].partition);
  if (pit == partitions_.end()) return {};
  std::vector<QueryId> members;
  members.reserve(pit->second.members.size());
  for (Slot m : pit->second.members) members.push_back(IdOf(m));
  std::sort(members.begin(), members.end());
  return members;
}

const std::vector<SymbolId>& CoordinationEngine::body_relations(
    QueryId q) const {
  static const std::vector<SymbolId> kNone;
  if (in_callback_ != kNoSlot && IdOf(in_callback_) == q) {
    return slots_[in_callback_].body_rels;
  }
  auto it = slot_of_.find(q);
  return it == slot_of_.end() ? kNone : slots_[it->second].body_rels;
}

EngineFootprint CoordinationEngine::footprint() const {
  EngineFootprint f;
  f.slots_free = free_slots_.size();
  f.slots_in_use = slots_.size() - f.slots_free;
  f.index_entries = graph_.index_entry_count();
  f.edges_free = graph_.free_edge_count();
  f.edges_in_use = graph_.edge_count() - f.edges_free;
  f.tracked_variables = used_vars_.size();
  f.outcomes = outcomes_.size();
  f.awaiting_release = retired_.size();
  return f;
}

void CoordinationEngine::ReexaminePartitions(
    std::vector<PartitionId> affected) {
  // Removing a query can unblock a partition (it was the only unmatched
  // member); re-examine survivors.
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (PartitionId pid : affected) {
    auto pit = partitions_.find(pid);
    if (pit == partitions_.end()) continue;
    const std::vector<Slot> members = pit->second.members;
    if (PartitionReady(members)) {
      ++metrics_.partitions_evaluated;
      EvaluateMembers(members, /*fail_on_no_data=*/false);
    }
  }
}

}  // namespace eq::engine
