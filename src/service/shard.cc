#include "service/shard.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace eq::service {

ShardRunner::ShardRunner(ShardOptions opts, EventFn event_fn)
    : opts_(std::move(opts)),
      event_fn_(std::move(event_fn)),
      trace_ring_(kTraceRingCapacity),
      thread_([this] { Run(); }) {}

ShardRunner::~ShardRunner() { Stop(); }

bool ShardRunner::Enqueue(Op op) { return queue_.Push(std::move(op)); }

bool ShardRunner::NotifyWrite(std::vector<SymbolId> rels) {
  std::lock_guard<std::mutex> lock(notify_mu_);
  if (notify_queued_) {
    // One WriteNotify is already queued and has not been claimed: widen
    // its relation set instead of enqueueing another op. The merged
    // writer's publish happened before this merge, and the dispatch claims
    // the set before reading storage, so its snapshot covers the write.
    pending_notify_rels_.insert(pending_notify_rels_.end(), rels.begin(),
                                rels.end());
    std::sort(pending_notify_rels_.begin(), pending_notify_rels_.end());
    pending_notify_rels_.erase(
        std::unique(pending_notify_rels_.begin(), pending_notify_rels_.end()),
        pending_notify_rels_.end());
    stats_.write_notifies_coalesced.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  pending_notify_rels_ = std::move(rels);
  Op op;
  op.kind = Op::Kind::kWriteNotify;
  if (!queue_.Push(std::move(op))) {
    pending_notify_rels_.clear();
    return false;  // shard stopped; nothing pending survives it anyway
  }
  notify_queued_ = true;
  return true;
}

void ShardRunner::Stop() {
  queue_.Close();
  if (thread_.joinable()) thread_.join();
}

void ShardRunner::Run() {
  // Share the storage interner so table rows and shard-parsed query
  // constants agree on SymbolIds; adopt the bootstrap context's catalog
  // metadata (ANSWER relations, arities) instead of re-running the
  // bootstrap — N shards, one bootstrap, one copy of every table.
  ctx_ = std::make_unique<ir::QueryContext>(opts_.storage->interner_ptr());
  if (opts_.base_ctx != nullptr) ctx_->AdoptMetaFrom(*opts_.base_ctx);

  db::Snapshot initial = opts_.storage->Current();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = initial;
  }
  stats_.snapshot_version.store(initial.version(), std::memory_order_relaxed);
  // First read-version report: until now the version-GC watermark treated
  // this shard as reading version 0 (conservative). A no-op when the
  // service did not register this shard as a reader.
  opts_.storage->ReportReadVersion(opts_.shard_id, initial.version());

  engine::EngineOptions eopts;
  eopts.mode = opts_.mode;
  eopts.preference_candidates = opts_.preference_candidates;
  engine_ = std::make_unique<engine::CoordinationEngine>(
      ctx_.get(), std::move(initial), eopts);
  engine_->SetCallback(
      [this](ir::QueryId q, const engine::QueryOutcome& outcome) {
        OnEngineResolve(q, outcome);
      });
  // A service-wide preference ranks from the first query on; per-query
  // specs otherwise install the composite lazily, so preference-free
  // workloads keep the paper-core first-outcome fast path.
  if (opts_.preference) EnsurePreferenceInstalled();

  if (opts_.on_start) opts_.on_start(opts_.shard_id);

  std::vector<Op> ops;
  // Drain-rate bookkeeping: an EWMA of ops per second of BUSY time
  // (dispatch only — the blocking DrainWait is excluded, or an idle
  // stretch would crater the rate and inflate retry-after hints by the
  // idle duration). Published as a gauge so admission rejections can
  // compute a concrete retry-after from the live queue depth: depth/rate
  // is "time to drain if continuously busy", exactly the backoff bound.
  double busy_seconds = 0;
  size_t processed_since_mark = 0;
  while (queue_.DrainWait(&ops) > 0) {
    auto batch_start = std::chrono::steady_clock::now();
    for (Op& op : ops) Dispatch(op);
    processed_since_mark += ops.size();
    ops.clear();
    MirrorEngineMetrics();
    busy_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - batch_start)
                        .count();
    if (busy_seconds >= 0.001) {  // accumulate a stable sample first
      double inst = static_cast<double>(processed_since_mark) / busy_seconds;
      double prev = stats_.drain_ops_per_sec.load(std::memory_order_relaxed);
      stats_.drain_ops_per_sec.store(
          prev == 0 ? inst : 0.25 * inst + 0.75 * prev,
          std::memory_order_relaxed);
      busy_seconds = 0;
      processed_since_mark = 0;
    }
  }
}

void ShardRunner::Dispatch(Op& op) {
  switch (op.kind) {
    case Op::Kind::kSubmit:
      HandleSubmit(op);
      MaybeFlush(/*force=*/false);
      break;
    case Op::Kind::kCancel: {
      ir::QueryId q = QueryOfTicket(op.ticket);
      // Unknown ticket: already resolved (the resolution event is on its
      // way to the client); cancellation is a no-op.
      if (q == ir::kInvalidQuery) break;
      engine_->Cancel(q);  // fires OnEngineResolve synchronously
      break;
    }
    case Op::Kind::kMigrate: {
      ir::QueryId q = QueryOfTicket(op.ticket);
      if (q == ir::kInvalidQuery) break;  // resolved before extraction: keep
      migrating_ = op.ticket;
      engine_->Cancel(q);
      migrating_ = 0;
      stats_.migrated_out.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case Op::Kind::kTick:
      // Ticks can arrive out of order when AdvanceTicks races the ticker;
      // keep the clock monotone (mirrors engine AdvanceTime) or the
      // unsigned overdue arithmetic in MaybeFlush would wrap.
      tick_ = std::max(tick_, op.tick);
      engine_->AdvanceTime(op.tick);
      // A tick is an evaluation boundary for an IDLE shard: with nothing
      // pending it adopts the latest snapshot (advancing the GC watermark
      // under write churn its queries don't read); with queries in flight
      // it only reports the version it actually evaluates at — flushes and
      // write wake-ups keep their adoption semantics.
      if (inflight_.empty()) {
        RefreshSnapshot();
      } else {
        opts_.storage->ReportReadVersion(opts_.shard_id,
                                         engine_->snapshot().version());
      }
      MaybeFlush(/*force=*/false);
      break;
    case Op::Kind::kFlush:
      MaybeFlush(/*force=*/true);
      MirrorEngineMetrics();
      if (op.latch) op.latch->count_down();
      break;
    case Op::Kind::kWriteNotify: {
      // Claim the coalesced relation set FIRST (clearing the queued flag),
      // so a write landing during this wake-up enqueues a fresh notify
      // instead of being swallowed; then an op boundary is an evaluation
      // boundary: adopt the version the write(s) published (or a newer
      // one) and re-evaluate only the pending partitions whose bodies read
      // the touched relations — writes are a third wake-up source next to
      // arrivals and ticks.
      std::vector<SymbolId> rels;
      {
        std::lock_guard<std::mutex> lock(notify_mu_);
        rels.swap(pending_notify_rels_);
        notify_queued_ = false;
      }
      if (!rels.empty()) DoWriteWakeup(rels);
      break;
    }
    case Op::Kind::kDumpState:
      if (op.dump) FillStateDump(op.dump.get());
      if (op.latch) op.latch->count_down();
      break;
  }
}

void ShardRunner::RecordTrace(TicketId ticket, TraceEventKind kind,
                              uint64_t detail, StatusCode status) {
  TraceEvent ev;
  ev.ticket = ticket;
  ev.kind = kind;
  ev.shard = opts_.shard_id;
  ev.at = std::chrono::steady_clock::now();
  ev.detail = detail;
  ev.status = status;
  trace_ring_.Append(ev);
  if (opts_.traces != nullptr) opts_.traces->Record(ev);
}

void ShardRunner::FillStateDump(ShardStateDump* dump) {
  dump->shard_id = opts_.shard_id;
  dump->queue_depth = queue_.size();
  dump->snapshot_version = engine_->snapshot().version();
  dump->drain_ops_per_sec =
      stats_.drain_ops_per_sec.load(std::memory_order_relaxed);
  dump->footprint = engine_->footprint();
  auto now = std::chrono::steady_clock::now();
  dump->pending.reserve(inflight_.size());
  for (const auto& [qid, info] : inflight_) {
    ShardStateDump::PendingQuery p;
    p.ticket = info.ticket;
    p.qid = qid;
    p.pending_ms =
        std::chrono::duration<double, std::milli>(now - info.submitted)
            .count();
    p.traced = info.traced;
    p.partition_size = engine_->partition_members(qid).size();
    for (SymbolId rel : engine_->body_relations(qid)) {
      p.body_relations.push_back(ctx_->interner().Name(rel));
    }
    std::sort(p.body_relations.begin(), p.body_relations.end());
    dump->pending.push_back(std::move(p));
  }
  std::sort(dump->pending.begin(), dump->pending.end(),
            [](const ShardStateDump::PendingQuery& a,
               const ShardStateDump::PendingQuery& b) {
              return a.ticket < b.ticket;
            });
}

void ShardRunner::DoWriteWakeup(const std::vector<SymbolId>& rels) {
  stats_.write_wakeups.fetch_add(1, std::memory_order_relaxed);
  if (opts_.on_write_wakeup) opts_.on_write_wakeup(opts_.shard_id);
  RefreshSnapshot();
  // Trace the re-evaluation against every traced pending query whose body
  // reads a touched relation — recorded before the engine call so a
  // wake-up that satisfies the query orders WakeupEval before Resolved.
  for (const auto& [qid, info] : inflight_) {
    if (!info.traced) continue;
    const std::vector<SymbolId>& body = engine_->body_relations(qid);
    bool touched = false;
    for (SymbolId rel : rels) {
      if (std::find(body.begin(), body.end(), rel) != body.end()) {
        touched = true;
        break;
      }
    }
    if (touched) RecordTrace(info.ticket, TraceEventKind::kWakeupEval);
  }
  engine::WakeupResult r = engine_->NotifyDataArrival(rels);
  stats_.wakeup_reevals.fetch_add(r.partitions_reexamined,
                                  std::memory_order_relaxed);
  stats_.wakeup_satisfied.fetch_add(r.queries_satisfied,
                                    std::memory_order_relaxed);
}

db::Snapshot ShardRunner::adopted_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void ShardRunner::RefreshSnapshot() {
  db::Snapshot latest = opts_.storage->Current();
  // Report BEFORE the no-change early return: an up-to-date shard must
  // still push the watermark forward, or an idle shard would pin every
  // version published after its last adoption. Reporting ahead of the
  // engine swap is safe — the snapshots this shard still holds are
  // shared_ptr-owned, so GC releasing the storage's history reference
  // never invalidates them.
  opts_.storage->ReportReadVersion(opts_.shard_id, latest.version());
  if (latest.version() == engine_->snapshot().version()) return;
  stats_.snapshot_version.store(latest.version(), std::memory_order_relaxed);
  stats_.snapshot_refreshes.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = latest;
  }
  // A snapshot swap changes what every pending query evaluates against —
  // part of each traced pending query's story.
  for (const auto& [qid, info] : inflight_) {
    if (info.traced) {
      RecordTrace(info.ticket, TraceEventKind::kSnapshotAdopt,
                  latest.version());
    }
  }
  engine_->AdoptSnapshot(std::move(latest));
}

void ShardRunner::HandleSubmit(Op& op) {
  // Incremental mode evaluates on arrival, so each submit is an
  // evaluation boundary; batched mode refreshes in MaybeFlush instead, so
  // a whole flush round sees one version.
  if (opts_.mode == engine::EvalMode::kIncremental) RefreshSnapshot();

  TicketInfo info;
  info.ticket = op.ticket;
  info.traced = op.traced;
  // A migrated query keeps its original submit time so the latency
  // histogram spans the whole journey, not just the winning shard.
  info.submitted =
      op.migrated_in && op.submitted_at != std::chrono::steady_clock::time_point{}
          ? op.submitted_at
          : std::chrono::steady_clock::now();
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (op.migrated_in) {
    stats_.migrated_in.fetch_add(1, std::memory_order_relaxed);
    if (op.traced) RecordTrace(op.ticket, TraceEventKind::kMigratedIn);
  }

  auto parsed = op.program->Instantiate(ctx_.get());
  if (!parsed.ok()) {
    if (parsed.status().code() == StatusCode::kParseError) {
      stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    if (op.traced) {
      RecordTrace(op.ticket, TraceEventKind::kResolved,
                  static_cast<uint64_t>(engine::QueryOutcome::Via::kSubmit),
                  parsed.status().code());
    }
    Event ev;
    ev.kind = Event::Kind::kResolved;
    ev.ticket = op.ticket;
    ev.outcome.state = ServiceOutcome::State::kFailed;
    ev.outcome.status = parsed.status();
    event_fn_(std::move(ev));
    return;
  }

  // The engine hands out dense sequential ids and consumes one only on a
  // successful Submit, so the next id is known here — which lets the
  // per-query preference spec be visible to the preference function even
  // when coordination fires inside Submit (incremental mode).
  ir::QueryId predicted = engine_->next_id();
  if (op.preference.active()) {
    EnsurePreferenceInstalled();
    pref_of_qid_[predicted] = op.preference;
  }

  // Engine callbacks may fire inside Submit (safety rejection, incremental
  // coordination) before we can record the id↔ticket mapping; stash the
  // ticket where OnEngineResolve can find it.
  current_submit_ = info;
  current_submit_active_ = true;
  if (op.traced) RecordTrace(op.ticket, TraceEventKind::kEngineSubmit);
  auto id = engine_->Submit(std::move(*parsed), op.ttl_ticks);
  current_submit_active_ = false;

  if (!id.ok()) {
    pref_of_qid_.erase(predicted);
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    if (op.traced) {
      RecordTrace(op.ticket, TraceEventKind::kResolved,
                  static_cast<uint64_t>(engine::QueryOutcome::Via::kSubmit),
                  id.status().code());
    }
    Event ev;
    ev.kind = Event::Kind::kResolved;
    ev.ticket = op.ticket;
    ev.outcome.state = ServiceOutcome::State::kFailed;
    ev.outcome.status = id.status();
    event_fn_(std::move(ev));
    return;
  }
  ++submitted_since_flush_;
  if (engine_->outcome(*id).state == engine::QueryOutcome::State::kPending) {
    inflight_[*id] = info;
    qid_of_ticket_[info.ticket] = *id;
    // Register under the body relations so a write touching them posts a
    // WriteNotify here; the entry is unregistered when the query leaves
    // the pending state (OnEngineResolve), keeping the index exact.
    opts_.wakeup_index->AddPending(opts_.shard_id,
                                   engine_->body_relations(*id));
    // Close the registration race: a write published after this shard
    // last adopted a snapshot but before the AddPending above found no
    // index entry and posted no notify — without this check a pair
    // pending on that row would hang (no ticker, no further submits).
    // Registration and the writer's index lookup serialize on the index
    // mutex, and publish precedes the lookup, so any missed write is
    // visible here: first as a newer storage version (lock-free read —
    // the common nothing-published case costs no lock), then in the
    // storage's per-relation change log. The relation filter keeps
    // unrelated write streams from turning set-at-a-time submits into
    // per-submit re-evaluation (and keeps the write_wakeups counter
    // meaning what metrics.h says it means).
    if (opts_.storage->version() != engine_->snapshot().version() &&
        opts_.storage->ChangedSince(engine_->body_relations(*id),
                                    engine_->snapshot().version())) {
      DoWriteWakeup(engine_->body_relations(*id));
    }
  } else {
    pref_of_qid_.erase(*id);  // resolved inside Submit
  }
}

void ShardRunner::EnsurePreferenceInstalled() {
  if (preference_installed_) return;
  preference_installed_ = true;
  engine_->SetPreference(
      [this](ir::QueryId q, const std::vector<ir::GroundAtom>& tuples) {
        double score = opts_.preference ? opts_.preference(q, tuples) : 0.0;
        auto it = pref_of_qid_.find(q);
        if (it != pref_of_qid_.end()) score += it->second.Score(tuples);
        return score;
      });
}

ir::QueryId ShardRunner::QueryOfTicket(TicketId ticket) const {
  auto it = qid_of_ticket_.find(ticket);
  return it == qid_of_ticket_.end() ? ir::kInvalidQuery : it->second;
}

void ShardRunner::MaybeFlush(bool force) {
  bool batch_full = submitted_since_flush_ >= opts_.max_batch;
  bool overdue = !inflight_.empty() &&
                 tick_ - last_flush_tick_ >= opts_.max_delay_ticks;
  // Batched flushing drives set-at-a-time resolution; in incremental mode
  // the engine resolves on arrival and a flush would fail partner-less
  // waiters, so only a forced flush (service drain) runs one.
  if (opts_.mode == engine::EvalMode::kIncremental && !force) return;
  if (!force && !batch_full && !overdue) return;
  if (!force && submitted_since_flush_ == 0 && inflight_.empty()) return;
  // Batch-flush boundary: adopt the latest published version, so every
  // query in this round evaluates against one consistent snapshot and
  // writes become visible no later than the next flush.
  RefreshSnapshot();
  // Every pending traced query is (re-)evaluated by this flush; recorded
  // before the engine call so FlushEval orders before a flush-driven
  // Resolved. The query just submitted in this op is already in inflight_
  // only if it pended — a submit resolved inside Flush traces through
  // current_submit_ instead.
  for (const auto& [qid, info] : inflight_) {
    if (info.traced) RecordTrace(info.ticket, TraceEventKind::kFlushEval);
  }
  engine_->Flush();
  submitted_since_flush_ = 0;
  last_flush_tick_ = tick_;
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
}

void ShardRunner::OnEngineResolve(ir::QueryId q,
                                  const engine::QueryOutcome& outcome) {
  TicketInfo info;
  auto it = inflight_.find(q);
  if (it != inflight_.end()) {
    info = it->second;
    inflight_.erase(it);
    qid_of_ticket_.erase(info.ticket);
    pref_of_qid_.erase(q);
    // Mirrors the AddPending in HandleSubmit: every path out of the
    // pending state (answered, failed, expired, cancelled, migrated out)
    // lands here, so the wake-up index never leaks an entry.
    opts_.wakeup_index->RemovePending(opts_.shard_id,
                                      engine_->body_relations(q));
  } else if (current_submit_active_) {
    info = current_submit_;
  } else {
    return;  // engine-internal resolution with no service ticket (shouldn't happen)
  }

  if (info.ticket == migrating_) {
    if (info.traced) {
      RecordTrace(info.ticket, TraceEventKind::kMigratedOut);
    }
    Event ev;
    ev.kind = Event::Kind::kMigratedOut;
    ev.ticket = info.ticket;
    ev.submitted_at = info.submitted;
    event_fn_(std::move(ev));
    return;
  }

  double micros = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - info.submitted)
                      .count();
  stats_.latency.Record(micros);
  if (info.traced) {
    RecordTrace(info.ticket, TraceEventKind::kResolved,
                static_cast<uint64_t>(outcome.via),
                outcome.state == engine::QueryOutcome::State::kAnswered
                    ? StatusCode::kOk
                    : outcome.status.code());
    // Slow-query log: the threshold implies trace_all at service setup, so
    // the rendered trace is the query's complete lifecycle.
    if (opts_.slow_query_threshold_ms > 0 &&
        micros / 1000.0 > opts_.slow_query_threshold_ms &&
        opts_.traces != nullptr) {
      auto trace = opts_.traces->Trace(info.ticket);
      if (trace.ok() && opts_.slow_query_sink) {
        opts_.slow_query_sink(*trace);
      } else if (trace.ok()) {
        std::fprintf(stderr, "[eq slow query] %.1fms > %.1fms threshold\n%s",
                     micros / 1000.0, opts_.slow_query_threshold_ms,
                     trace->ToString().c_str());
      }
    }
  }

  Event ev;
  ev.kind = Event::Kind::kResolved;
  ev.ticket = info.ticket;
  if (outcome.state == engine::QueryOutcome::State::kAnswered) {
    stats_.answered.fetch_add(1, std::memory_order_relaxed);
    ev.outcome.state = ServiceOutcome::State::kAnswered;
    ev.outcome.tuples.reserve(outcome.tuples.size());
    for (const ir::GroundAtom& tuple : outcome.tuples) {
      ev.outcome.tuples.push_back(tuple.ToString(ctx_->interner()));
    }
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    switch (outcome.status.code()) {
      case StatusCode::kTimeout:
        stats_.expired.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kCancelled:
        stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kUnsafe:
        stats_.rejected_unsafe.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
    ev.outcome.state = ServiceOutcome::State::kFailed;
    ev.outcome.status = outcome.status;
  }
  event_fn_(std::move(ev));
}

void ShardRunner::MirrorEngineMetrics() {
  const engine::EngineMetrics& m = engine_->metrics();
  stats_.match_seconds.store(m.match_seconds, std::memory_order_relaxed);
  stats_.db_seconds.store(m.db_seconds, std::memory_order_relaxed);
  stats_.pending.store(engine_->pending_count(), std::memory_order_relaxed);
}

}  // namespace eq::service
