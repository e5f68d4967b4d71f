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
  WaveScope wave(&wave_, QueryOutcome::Via::kSubmit);
  Stopwatch sw;
  EQ_RETURN_NOT_OK(ir::ValidateQuery(query, ctx_));
  for (ir::VarId v : query.Variables()) {
    if (used_vars_.count(v)) {
      return Status::InvalidArgument(
          "variable '" + ctx_->VarName(v) +
          "' was already used by an earlier query; submit queries with fresh "
          "variables (see ir::RenameApart)");
    }
  }

  QueryId id = static_cast<QueryId>(queries_.queries.size());
  query.id = id;
  for (ir::VarId v : query.Variables()) used_vars_.insert(v);
  std::vector<SymbolId> body_rels;
  body_rels.reserve(query.body.size());
  for (const ir::Atom& atom : query.body) body_rels.push_back(atom.relation);
  std::sort(body_rels.begin(), body_rels.end());
  body_rels.erase(std::unique(body_rels.begin(), body_rels.end()),
                  body_rels.end());
  queries_.queries.push_back(std::move(query));
  outcomes_.emplace_back();
  deadlines_.push_back(ttl_ticks == 0 ? 0 : now_ + ttl_ticks);
  body_rels_.push_back(std::move(body_rels));

  // One index probe admits the query: the graph collects its edges and
  // applies the §3.1.1 rule (when enforced) before adding anything.
  // AddQuery cannot fail here: the id is fresh and in range.
  Status st = opts_.enforce_safety ? graph_.Admit(id) : graph_.AddQuery(id);
  if (!st.ok()) {
    ++metrics_.rejected_unsafe;
    metrics_.match_seconds += sw.ElapsedSeconds();
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status = st;
    outcome.via = QueryOutcome::Via::kSubmit;
    outcomes_[id] = outcome;
    if (callback_) callback_(id, outcomes_[id]);
    return id;  // submission succeeded; coordination was refused
  }

  pending_.insert(id);
  for (SymbolId rel : body_rels_[id]) pending_by_body_rel_[rel].insert(id);
  AbsorbPartitions(id);
  if (deadlines_[id] != 0) deadline_heap_.emplace(deadlines_[id], id);
  metrics_.match_seconds += sw.ElapsedSeconds();

  if (opts_.mode == EvalMode::kIncremental) IncrementalStep(id);
  return id;
}

void CoordinationEngine::AbsorbPartitions(QueryId q) {
  // Gather the partitions of q's live neighbours.
  std::vector<PartitionId> neighbours;
  auto note = [&](QueryId other) {
    if (other == q) return;
    auto it = partition_of_.find(other);
    if (it != partition_of_.end()) neighbours.push_back(it->second);
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
    partition_of_[q] = pid;
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
    for (QueryId member : partitions_[pid].members) {
      partition_of_[member] = target;
      partitions_[target].members.push_back(member);
    }
    partitions_.erase(pid);
  }
  partitions_[target].members.push_back(q);
  partition_of_[q] = target;
}

void CoordinationEngine::SplitPartition(PartitionId pid) {
  auto it = partitions_.find(pid);
  if (it == partitions_.end()) return;
  std::vector<QueryId>& members = it->second.members;
  if (members.size() <= 1) return;

  // BFS over live edges restricted to the member set.
  std::unordered_map<QueryId, int> group;
  int group_count = 0;
  std::unordered_set<QueryId> member_set(members.begin(), members.end());
  for (QueryId seed : members) {
    if (group.count(seed)) continue;
    int g = group_count++;
    std::vector<QueryId> stack{seed};
    group[seed] = g;
    while (!stack.empty()) {
      QueryId u = stack.back();
      stack.pop_back();
      const auto& node = graph_.node(u);
      auto visit = [&](QueryId v) {
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

  std::vector<std::vector<QueryId>> buckets(group_count);
  for (QueryId m : members) buckets[group[m]].push_back(m);
  members = std::move(buckets[0]);
  for (int g = 1; g < group_count; ++g) {
    PartitionId fresh = next_partition_++;
    for (QueryId m : buckets[g]) partition_of_[m] = fresh;
    partitions_[fresh].members = std::move(buckets[g]);
  }
}

void CoordinationEngine::Resolve(QueryId q, QueryOutcome outcome) {
  // A query leaves the pending state exactly once; a second resolution (e.g.
  // via a stale deadline-heap entry) must neither overwrite the recorded
  // outcome nor re-fire the application callback.
  if (outcomes_[q].state != QueryOutcome::State::kPending) return;
  outcome.via = wave_;
  outcomes_[q] = std::move(outcome);
  pending_.erase(q);
  for (SymbolId rel : body_rels_[q]) {
    auto it = pending_by_body_rel_.find(rel);
    if (it == pending_by_body_rel_.end()) continue;
    it->second.erase(q);
    if (it->second.empty()) pending_by_body_rel_.erase(it);
  }
  deadlines_[q] = 0;  // eagerly invalidate any deadline-heap entry
  if (outcomes_[q].state == QueryOutcome::State::kAnswered) {
    ++metrics_.answered;
  } else {
    ++metrics_.failed;
  }
  if (callback_) callback_(q, outcomes_[q]);
}

void CoordinationEngine::Retire(QueryId q) {
  graph_.RemoveNode(q);
  auto it = partition_of_.find(q);
  if (it == partition_of_.end()) return;
  PartitionId pid = it->second;
  partition_of_.erase(it);
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

void CoordinationEngine::RetireAll(const std::vector<QueryId>& qs) {
  std::unordered_set<PartitionId> touched;
  std::unordered_set<QueryId> dead(qs.begin(), qs.end());
  for (QueryId q : qs) {
    graph_.RemoveNode(q);
    auto it = partition_of_.find(q);
    if (it != partition_of_.end()) {
      touched.insert(it->second);
      partition_of_.erase(it);
    }
  }
  for (PartitionId pid : touched) {
    auto pit = partitions_.find(pid);
    if (pit == partitions_.end()) continue;
    auto& members = pit->second.members;
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](QueryId m) { return dead.count(m); }),
                  members.end());
    if (members.empty()) {
      partitions_.erase(pit);
    } else {
      SplitPartition(pid);
    }
  }
}

std::vector<QueryId> CoordinationEngine::PropagateWithRepair(
    std::vector<QueryId> members) {
  Matcher matcher(&graph_);
  std::vector<QueryId> seeds = members;
  for (;;) {
    auto conflict = matcher.Propagate(seeds);
    if (!conflict.has_value()) break;
    // The conflicted query's constraints are unsatisfiable: its (uniquely
    // matched, by safety) postconditions demand incompatible values. Fail
    // it, rebuild the survivors' unifiers from the remaining edges, and
    // re-run propagation.
    QueryId dead = *conflict;
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status = Status::Unsatisfiable(
        "coordination constraints admit no solution for query " +
        std::to_string(dead));
    Resolve(dead, outcome);
    Retire(dead);
    members.erase(std::remove(members.begin(), members.end(), dead),
                  members.end());
    bool rebuilt = false;
    while (!rebuilt) {
      rebuilt = true;
      for (QueryId m : members) {
        if (!graph_.node(m).alive) continue;
        if (!graph_.RecomputeUnifier(m)) {
          // Initial constraints of m alone are already contradictory.
          QueryOutcome oc;
          oc.state = QueryOutcome::State::kFailed;
          oc.status = Status::Unsatisfiable(
              "initial unifier conflict for query " + std::to_string(m));
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
  std::vector<QueryId> alive;
  for (QueryId m : members) {
    if (graph_.node(m).alive) alive.push_back(m);
  }
  return alive;
}

bool CoordinationEngine::PartitionReady(
    const std::vector<QueryId>& members) const {
  for (QueryId m : members) {
    const auto& node = graph_.node(m);
    if (!node.alive || node.init_conflict || !node.AllPcsMatched()) {
      return false;
    }
  }
  return !members.empty();
}

bool CoordinationEngine::EvaluateMembers(const std::vector<QueryId>& members,
                                         bool fail_on_no_data) {
  auto fail_all = [&](const Status& st) {
    for (QueryId m : members) {
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
  for (QueryId m : members) {
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
        total += opts_.preference(cq->members[i], (*answers)[a].answers[i]);
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
    QueryId m = cq->members[i];
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

void CoordinationEngine::IncrementalStep(QueryId q) {
  if (!pending_.count(q)) return;
  Stopwatch sw;
  std::vector<QueryId> seeds;
  if (opts_.rematch == IncrementalRematch::kFullPartition) {
    // Paper-faithful: continue matching over the whole partition state.
    seeds = partitions_.at(partition_of_.at(q)).members;
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
    PartitionId pid = partition_of_.at(q);
    std::vector<QueryId> members = partitions_.at(pid).members;
    PropagateWithRepair(std::move(members));
    metrics_.match_seconds += repair_sw.ElapsedSeconds();
  }

  // The conflicted query might have been q itself.
  auto pit = partition_of_.find(q);
  if (pit == partition_of_.end()) {
    return;
  }
  const std::vector<QueryId> members = partitions_.at(pit->second).members;
  if (PartitionReady(members)) {
    ++metrics_.partitions_evaluated;
    EvaluateMembers(members, /*fail_on_no_data=*/false);
  }
}

void CoordinationEngine::ResolveComponentBatch(
    const std::vector<QueryId>& component) {
  Stopwatch sw;
  Matcher matcher(&graph_);
  auto survivors = matcher.MatchComponent(component);
  metrics_.match_seconds += sw.ElapsedSeconds();
  std::unordered_set<QueryId> alive(survivors.begin(), survivors.end());
  std::vector<QueryId> losers;
  for (QueryId m : component) {
    if (alive.count(m) || !pending_.count(m)) continue;
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status =
        Status::Unsatisfiable("query " + std::to_string(m) +
                              " has no coordination partners in the batch");
    Resolve(m, outcome);
    losers.push_back(m);
  }
  RetireAll(losers);
  if (!survivors.empty()) {
    ++metrics_.partitions_evaluated;
    EvaluateMembers(survivors, /*fail_on_no_data=*/true);
  }
}

Status CoordinationEngine::Flush() {
  WaveScope wave(&wave_, QueryOutcome::Via::kFlush);
  // Snapshot the partitions that still hold pending queries.
  std::vector<std::vector<QueryId>> components;
  components.reserve(partitions_.size());
  for (const auto& [pid, part] : partitions_) {
    if (!part.members.empty()) components.push_back(part.members);
  }
  // Deterministic order: by smallest member.
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) {
              return *std::min_element(a.begin(), a.end()) <
                     *std::min_element(b.begin(), b.end());
            });

  if (opts_.worker_threads > 1 && components.size() > 1) {
    // Parallel phase: batch matching per component on the pool. Matching
    // touches only component-local graph state (§4.1.2 independence), so
    // components can run concurrently; outcome resolution (callbacks,
    // partition bookkeeping) stays on this thread.
    struct TaskResult {
      std::vector<QueryId> survivors;
      double match_seconds = 0;
    };
    std::vector<TaskResult> results(components.size());
    {
      ThreadPool pool(opts_.worker_threads);
      for (size_t i = 0; i < components.size(); ++i) {
        pool.Submit([this, &components, &results, i] {
          Stopwatch sw;
          Matcher matcher(&graph_);
          results[i].survivors = matcher.MatchComponent(components[i]);
          results[i].match_seconds = sw.ElapsedSeconds();
        });
      }
      pool.Wait();
    }
    for (size_t i = 0; i < components.size(); ++i) {
      metrics_.match_seconds += results[i].match_seconds;
      std::unordered_set<QueryId> alive(results[i].survivors.begin(),
                                        results[i].survivors.end());
      std::vector<QueryId> losers;
      for (QueryId m : components[i]) {
        if (alive.count(m) || !pending_.count(m)) continue;
        QueryOutcome outcome;
        outcome.state = QueryOutcome::State::kFailed;
        outcome.status = Status::Unsatisfiable(
            "query " + std::to_string(m) +
            " has no coordination partners in the batch");
        Resolve(m, outcome);
        losers.push_back(m);
      }
      RetireAll(losers);
      if (!results[i].survivors.empty()) {
        ++metrics_.partitions_evaluated;
        EvaluateMembers(results[i].survivors, /*fail_on_no_data=*/true);
      }
    }
  } else {
    for (const auto& component : components) {
      ResolveComponentBatch(component);
    }
  }
  return Status::OK();
}

void CoordinationEngine::AdvanceTime(uint64_t now) {
  WaveScope wave(&wave_, QueryOutcome::Via::kTick);
  now_ = std::max(now_, now);
  std::vector<PartitionId> affected;
  while (!deadline_heap_.empty() && deadline_heap_.top().first <= now_) {
    auto [deadline, q] = deadline_heap_.top();
    deadline_heap_.pop();
    // Lazy invalidation: skip entries for queries that were resolved since
    // (Resolve zeroes deadlines_[q]) — expiring through a stale entry would
    // double-fire the callback of an already-answered query.
    if (!pending_.count(q) || deadlines_[q] != deadline) continue;
    ++metrics_.expired;
    auto it = partition_of_.find(q);
    if (it != partition_of_.end()) affected.push_back(it->second);
    QueryOutcome outcome;
    outcome.state = QueryOutcome::State::kFailed;
    outcome.status = Status::Timeout("query " + std::to_string(q) +
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

Status CoordinationEngine::Cancel(ir::QueryId q) {
  if (q >= outcomes_.size()) {
    return Status::NotFound("no query with id " + std::to_string(q));
  }
  if (!pending_.count(q)) {
    return Status::NotFound("query " + std::to_string(q) +
                            " is not pending (already resolved?)");
  }
  WaveScope wave(&wave_, QueryOutcome::Via::kCancel);
  ++metrics_.cancelled;
  std::vector<PartitionId> affected;
  auto it = partition_of_.find(q);
  if (it != partition_of_.end()) affected.push_back(it->second);
  QueryOutcome outcome;
  outcome.state = QueryOutcome::State::kFailed;
  outcome.status = Status::Cancelled("query " + std::to_string(q) +
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
  WaveScope wave(&wave_, QueryOutcome::Via::kWakeup);
  WakeupResult res;
  // The partitions a write could affect: those holding a pending query
  // whose body reads one of the touched relations.
  std::vector<PartitionId> affected;
  for (SymbolId rel : rels) {
    auto it = pending_by_body_rel_.find(rel);
    if (it == pending_by_body_rel_.end()) continue;
    for (QueryId q : it->second) {
      auto pit = partition_of_.find(q);
      if (pit != partition_of_.end()) affected.push_back(pit->second);
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
    std::vector<QueryId> alive = PropagateWithRepair(pit->second.members);
    metrics_.match_seconds += sw.ElapsedSeconds();
    // Repair may have split the partition: re-examine every fragment the
    // survivors landed in — ready ones answer, "no data yet" keeps
    // members pending for the next write (or the flush).
    std::vector<PartitionId> fragments;
    for (QueryId q : alive) {
      auto fit = partition_of_.find(q);
      if (fit != partition_of_.end()) fragments.push_back(fit->second);
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
  auto it = partition_of_.find(q);
  if (it == partition_of_.end()) return {};
  auto pit = partitions_.find(it->second);
  if (pit == partitions_.end()) return {};
  std::vector<QueryId> members = pit->second.members;
  std::sort(members.begin(), members.end());
  return members;
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
    const std::vector<QueryId> members = pit->second.members;
    if (PartitionReady(members)) {
      ++metrics_.partitions_evaluated;
      EvaluateMembers(members, /*fail_on_no_data=*/false);
    }
  }
}

}  // namespace eq::engine
