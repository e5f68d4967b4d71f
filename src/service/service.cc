#include "service/service.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <utility>

#include "ir/parser.h"
#include "sql/translator.h"

namespace eq::service {

namespace {

bool IsBlank(const std::string& text) {
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

}  // namespace

CoordinationService::CoordinationService(ServiceOptions opts)
    : opts_(std::move(opts)),
      router_(opts_.num_shards),
      interner_(std::make_shared<StringInterner>()),
      storage_ctx_(std::make_unique<ir::QueryContext>(interner_)),
      storage_(std::make_unique<db::Storage>(interner_)),
      wakeup_index_(router_.num_shards()),
      started_(std::chrono::steady_clock::now()) {
  // Build the shared storage exactly once — the single bootstrap run for
  // the whole process, regardless of shard count. Version 1 is the
  // snapshot every shard and the edge catalog share by pointer.
  if (opts_.bootstrap) {
    opts_.bootstrap(storage_ctx_.get(), storage_->mutable_db());
  }
  storage_->Publish();
  // The catalog knows the bootstrap tables, so no dialect can declare one
  // an ANSWER relation: a head on a table would make every later body that
  // reads it invalid, on the edge and on the shard.
  storage_->Current().ForEachTable(
      [this](SymbolId rel, const db::TableVersion&) {
        storage_ctx_->DeclareDatabaseRelation(rel);
      });
  // Register each shard as a version-GC reader (reader id = shard id)
  // before its thread exists, so the watermark is conservative from the
  // first publish: a shard that has not yet reported holds it at 0.
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    storage_->RegisterReader(s);
  }

  // Edge catalog pool + plan cache: contexts seeded from the storage
  // snapshot, owned by the service for pre-route translation/validation.
  // The schema fingerprint baseline is taken before the pool exists, so
  // the first recycle compares against the bootstrap catalog shape.
  schema_fingerprint_ = SchemaFingerprint(storage_->Current());
  plan_cache_ = std::make_unique<PlanCache>(opts_.plan_cache_capacity);
  EdgeContextPool::Options popts;
  popts.pool_size =
      opts_.edge_pool_size == 0 ? opts_.num_shards : opts_.edge_pool_size;
  popts.recycle_uses = opts_.edge_recycle_uses;
  edge_pool_ = std::make_unique<EdgeContextPool>(
      popts, interner_, storage_ctx_.get(), storage_.get(),
      [this](const db::Snapshot& snap) { MaybeInvalidateOnSchemaChange(snap); });

  // The slow-query log needs every resolution's trace available, so an
  // enabled threshold implies trace_all (sampling would miss most slow
  // queries, which is exactly backwards).
  TraceRegistry::Options topts;
  topts.sample_every = opts_.trace_sample_every;
  topts.trace_all = opts_.trace_all || opts_.slow_query_threshold_ms > 0;
  topts.max_traces = opts_.trace_capacity;
  topts.max_events_per_trace = opts_.trace_max_events;
  traces_ = std::make_unique<TraceRegistry>(topts);

  shards_.reserve(router_.num_shards());
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    ShardOptions sopts;
    sopts.shard_id = s;
    sopts.storage = storage_.get();
    sopts.base_ctx = storage_ctx_.get();
    sopts.on_start = opts_.on_shard_start;
    sopts.on_write_wakeup = opts_.on_write_wakeup;
    sopts.wakeup_index = &wakeup_index_;
    sopts.max_batch = opts_.max_batch;
    sopts.max_delay_ticks = opts_.max_delay_ticks;
    sopts.mode = opts_.mode;
    sopts.preference = opts_.preference;
    sopts.preference_candidates = opts_.preference_candidates;
    sopts.traces = traces_.get();
    sopts.slow_query_threshold_ms = opts_.slow_query_threshold_ms;
    sopts.slow_query_sink = opts_.slow_query_sink;
    shards_.push_back(std::make_unique<ShardRunner>(
        std::move(sopts),
        [this](ShardRunner::Event ev) { OnShardEvent(std::move(ev)); }));
  }
  if (opts_.tick_interval.count() > 0) {
    ticker_ = std::thread([this] { TickerLoop(); });
  }
}

CoordinationService::~CoordinationService() {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    stopping_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  // Stop shards before tearing down inflight_ — queued ops still drain and
  // deliver events into OnShardEvent.
  for (auto& shard : shards_) shard->Stop();
  // Stopped shards report no more read-versions; drop them from the
  // watermark so the final GC state is not pinned by dead readers.
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    storage_->UnregisterReader(s);
  }
  // Resolve whatever is still pending so no thread stays blocked in
  // Ticket::Wait() past the service's lifetime. (Callbacks fire on this
  // thread.)
  std::vector<Ticket> orphaned;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    orphaned.reserve(inflight_.size());
    for (auto& [id, entry] : inflight_) orphaned.push_back(entry.ticket);
    inflight_.clear();
    rel_tickets_.clear();
    migrating_count_ = 0;
  }
  FailTickets(std::move(orphaned),
              Status::Cancelled("coordination service shut down before the "
                                "query resolved"));
}

Result<PlanCache::Plan> CoordinationService::PreparePlan(
    const client::Query& query) {
  PlanCache::Plan plan;
  auto routable = [&plan]() -> Status {
    plan.relations = plan.program->EntangledRelations();
    if (plan.relations.empty()) {
      return Status::InvalidArgument(
          "query has no entangled atoms to route on");
    }
    return Status::OK();
  };

  // Builder programs are already the canonical form. Validate them
  // read-only against the bootstrap catalog, so malformed programs fail
  // synchronously, and skip the plan cache and the edge pool: only the
  // shard instantiates them.
  if (query.dialect() == client::Dialect::kBuilder) {
    if (!query.program()) {
      return Status::InvalidArgument("builder query carries no program");
    }
    EQ_RETURN_NOT_OK(query.program()->Validate(*storage_ctx_));
    plan.program = query.program();
    EQ_RETURN_NOT_OK(routable());
    return plan;
  }

  // Cache key: dialect prefix + the whitespace-normalized (quote-aware)
  // query text.
  std::string key;
  switch (query.dialect()) {
    case client::Dialect::kIr: {
      if (IsBlank(query.text())) {
        return Status::InvalidArgument("empty query text (ir dialect)");
      }
      // Keep the lexical routability check ahead of the full parse: text
      // with no entangled section at all stays kInvalidArgument (parse
      // errors below are for text that looks like a query but is
      // malformed).
      auto rels = QueryRouter::EntangledRelationsOf(query.text());
      if (!rels.ok()) return rels.status();
      key = "i:" + PlanCache::NormalizeText(query.text());
      break;
    }
    case client::Dialect::kSql: {
      if (IsBlank(query.text())) {
        return Status::InvalidArgument("empty query text (sql dialect)");
      }
      key = "s:" + PlanCache::NormalizeText(query.text());
      break;
    }
    default:
      return Status::InvalidArgument("unknown query dialect");
  }

  if (plan_cache_->Lookup(key, &plan)) return plan;

  // Miss: canonicalize on a pooled edge context. The lease is held only
  // across this one parse/translate.
  auto lease = edge_pool_->Acquire();
  auto q = query.dialect() == client::Dialect::kIr
               ? ir::Parser(lease.ctx()).ParseQuery(query.text())
               : lease.translator().TranslateSql(query.text());
  if (!q.ok()) {
    edge_parse_errors_.fetch_add(1, std::memory_order_relaxed);
    return q.status();
  }
  plan.program = std::make_shared<const client::PortableQuery>(
      client::FromIr(*q, *lease.ctx()));
  EQ_RETURN_NOT_OK(routable());
  plan_cache_->Insert(key, plan);
  return plan;
}

Result<CoordinationService::Prepared> CoordinationService::PrepareQuery(
    const client::Query& query) {
  Prepared p;
  p.accepted_at = std::chrono::steady_clock::now();
  auto plan = PreparePlan(query);
  prepare_latency_.Record(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - p.accepted_at)
                              .count());
  if (!plan.ok()) return plan.status();
  p.program = std::move(plan->program);
  p.relations = std::move(plan->relations);
  return p;
}

Result<client::PortableQuery> CoordinationService::Canonicalize(
    const client::Query& query) {
  auto t0 = std::chrono::steady_clock::now();
  auto plan = PreparePlan(query);
  prepare_latency_.Record(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  if (!plan.ok()) return plan.status();
  return *plan->program;
}

void CoordinationService::MaybeInvalidateOnSchemaChange(
    const db::Snapshot& snapshot) {
  uint64_t fp = SchemaFingerprint(snapshot);
  std::lock_guard<std::mutex> lock(schema_mu_);
  if (fp == schema_fingerprint_) return;
  schema_fingerprint_ = fp;
  plan_cache_->InvalidateAll();
}

Result<size_t> CoordinationService::ExecuteWrite(std::string_view sql) {
  // Translate against the edge catalog, exactly like SQL query
  // submission: schema and type errors are synchronous, and the produced
  // write is portable (string literals intern through the shared
  // interner).
  sql::WriteStatement stmt;
  {
    auto lease = edge_pool_->Acquire();
    auto translated = lease.translator().TranslateWriteSql(sql);
    if (!translated.ok()) return translated.status();
    stmt = std::move(*translated);
  }
  // The typed write path: same all-or-nothing validation,
  // no-match-no-publish, and wake-up semantics as a client ApplyBatch.
  // push_back, not a braced list: initializer_list elements are const, so
  // the move would silently deep-copy the whole TableWrite.
  std::vector<db::Storage::TableWrite> batch;
  batch.push_back(std::move(stmt.write));
  size_t rows = 0;
  EQ_RETURN_NOT_OK(ApplyBatch(batch, &rows));
  return rows;
}

Status CoordinationService::ApplyBatch(
    const std::vector<db::Storage::TableWrite>& writes,
    size_t* out_rows_changed) {
  uint64_t pre_batch_version = storage_->version();
  size_t rows_changed = 0;
  EQ_RETURN_NOT_OK(storage_->ApplyBatch(writes, &rows_changed));
  if (out_rows_changed != nullptr) *out_rows_changed = rows_changed;
  // Nothing published: nothing to adopt, so skip the table-list work.
  if (rows_changed == 0) return Status::OK();
  std::vector<SymbolId> rels;
  rels.reserve(writes.size());
  for (const db::Storage::TableWrite& w : writes) {
    SymbolId rel = storage_->interner().Lookup(w.table);
    if (rel != kInvalidSymbol) rels.push_back(rel);
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  // Notify only tables the batch actually changed — a delete/update that
  // matched nothing left its table's version untouched, and waking its
  // readers would re-evaluate against pointer-identical data. (A
  // concurrent writer changing such a table in the window is harmlessly
  // over-notified here; it posts its own notify anyway.)
  NotifyRelationsTouched(
      storage_->FilterChangedSince(std::move(rels), pre_batch_version));
  return Status::OK();
}

Status CoordinationService::ApplyReplicatedTables(
    const std::vector<db::Storage::TableReplacement>& reps) {
  if (reps.empty()) return Status::OK();
  EQ_RETURN_NOT_OK(storage_->ApplyReplacements(reps));
  // Replication can introduce tables this node has never seen (leader-side
  // catalog growth) — a schema-affecting change for cached SQL plans.
  MaybeInvalidateOnSchemaChange(storage_->Current());
  // Lookup, not Intern: a table that was written certainly has a symbol.
  std::vector<SymbolId> rels;
  rels.reserve(reps.size());
  for (const db::Storage::TableReplacement& r : reps) {
    SymbolId rel = storage_->interner().Lookup(r.table);
    if (rel != kInvalidSymbol) rels.push_back(rel);
  }
  NotifyRelationsTouched(std::move(rels));
  return Status::OK();
}

void CoordinationService::NotifyRelationsTouched(std::vector<SymbolId> rels) {
  if (rels.empty()) return;
  // Exactly the shards whose pending bodies intersect the touched
  // relations get a (cheap) control op; everyone else is undisturbed.
  // A query that becomes pending concurrently with this lookup may miss
  // the notify — its shard detects that at registration time (the
  // version/ChangedSince self-wake in ShardRunner::HandleSubmit), so
  // nothing is lost. NotifyWrite coalesces per shard: while one
  // WriteNotify is queued, further touched-relation sets merge into it,
  // so a write burst re-evaluates once per queue drain, not once per
  // write.
  for (uint32_t s : wakeup_index_.ShardsReading(rels)) {
    shards_[s]->NotifyWrite(rels);
  }
}

Result<Ticket> CoordinationService::SubmitPreparedLocked(
    Prepared p, const SubmitOptions& opts,
    std::vector<PlannedMigration>* planned) {
  if (opts_.max_queue_depth != 0) {
    // The single admission point, BEFORE routing commits: a rejected
    // submission must not merge groups, migrate stranded partners onto a
    // saturated shard, or skew the router's load accounting. All routing
    // mutations happen under submit_mu_ (held here), so the peeked shard
    // is the one RouteRelations would pick; once the check passes, the
    // enqueue below is unconditional (control ops pushed concurrently may
    // transiently exceed the bound — the depth limit is an admission
    // threshold, not a hard queue capacity).
    uint32_t target = router_.PeekShard(p.relations);
    size_t depth = shards_[target]->queue_depth();
    if (depth >= opts_.max_queue_depth) {
      // Concrete backoff: queue depth over the shard's recent drain rate.
      // Rate still unknown (shard never drained anything) → generic hint.
      uint64_t hint_ms = shards_[target]->EstimateRetryAfterMs(depth);
      std::string advice =
          hint_ms > 0
              ? "retry after ~" + std::to_string(hint_ms) +
                    "ms (estimated from the shard's recent drain rate)"
              : "retry after the shard drains (backoff, or wait for "
                "pending tickets to resolve)";
      return Status::ResourceExhausted(
          "shard " + std::to_string(target) +
          " is overloaded: op queue depth " + std::to_string(depth) +
          " >= max_queue_depth=" + std::to_string(opts_.max_queue_depth) +
          "; " + advice);
    }
  }

  auto route = router_.RouteRelations(std::move(p.relations));
  if (!route.ok()) return route.status();

  auto state = std::make_shared<Ticket::SharedState>();
  state->id = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  state->callback = opts.callback;
  Ticket ticket(std::move(state));

  // Trace admission happens once, here; the decision travels with the op
  // and the inflight entry so no later hot path re-asks the registry.
  // Submitted is back-stamped to PrepareQuery entry so the route span
  // covers dialect normalization; Routed is stamped now.
  const bool traced = traces_->Admit(ticket.id());
  if (traced) {
    RecordServiceTrace(ticket.id(), TraceEventKind::kSubmitted, 0,
                       p.accepted_at);
    RecordServiceTrace(ticket.id(), TraceEventKind::kRouted, route->shard,
                       std::chrono::steady_clock::now());
  }

  ShardRunner::Op op;
  op.kind = ShardRunner::Op::Kind::kSubmit;
  op.ticket = ticket.id();
  op.preference = opts.preference;
  op.ttl_ticks = opts.ttl_ticks;
  op.traced = traced;

  Inflight entry;
  entry.shard = route->shard;
  entry.traced = traced;
  entry.deadline_tick =
      opts.ttl_ticks == 0 ? 0 : now_ticks() + opts.ttl_ticks;
  // Payload: every dialect ships its canonical program — the shard
  // instantiates it directly (no re-parse, no re-translate), and
  // migration re-submission and cross-node extraction reuse the same
  // form.
  op.program = p.program;
  entry.program = std::move(p.program);
  entry.preference = opts.preference;
  entry.relations = std::move(route->relations);
  entry.ticket = ticket;
  const std::string& primary = entry.relations.front();
  rel_tickets_[primary].insert(ticket.id());
  inflight_.emplace(ticket.id(), std::move(entry));

  if (!route->moved_relations.empty()) {
    PlanMigrationsLocked(route->moved_relations, planned, nullptr);
  }

  // Recorded just BEFORE the push so the op-queue handoff orders every
  // shard-side event after it — record order stays causal order.
  if (traced) {
    RecordServiceTrace(ticket.id(), TraceEventKind::kEnqueued, route->shard,
                       std::chrono::steady_clock::now());
  }
  if (!shards_[route->shard]->Enqueue(std::move(op))) {
    EraseInflightLocked(inflight_.find(ticket.id()));
    return Status::Cancelled("service is shutting down");
  }
  return ticket;
}

Result<Ticket> CoordinationService::Submit(client::Query query,
                                           SubmitOptions opts) {
  auto prepared = PrepareQuery(query);
  if (!prepared.ok()) return prepared.status();

  std::vector<PlannedMigration> planned;
  Result<Ticket> out = Status::Internal("unreachable");
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    out = SubmitPreparedLocked(std::move(*prepared), opts, &planned);
  }
  EnqueuePlannedMigrations(std::move(planned));
  return out;
}

Status CoordinationService::Cancel(const Ticket& ticket) {
  if (!ticket.valid()) {
    return Status::InvalidArgument("cancel of an invalid (empty) ticket");
  }
  Ticket dropped;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    auto it = inflight_.find(ticket.id());
    if (it == inflight_.end()) {
      return Status::NotFound("ticket " + std::to_string(ticket.id()) +
                              " is no longer in flight");
    }
    if (it->second.migrating) {
      // The old shard has already extracted (or is about to extract) this
      // query, so a kCancel op sent there would be lost; resolve the cancel
      // when the extraction event lands instead of re-submitting.
      it->second.cancel_requested = true;
      return Status::OK();
    }
    ShardRunner::Op op;
    op.kind = ShardRunner::Op::Kind::kCancel;
    op.ticket = ticket.id();
    if (shards_[it->second.shard]->Enqueue(std::move(op))) {
      return Status::OK();
    }
    // Shard already stopped (service shutting down): resolve here so the
    // caller's Wait() cannot hang on a dropped op.
    dropped = it->second.ticket;
    EraseInflightLocked(it);
  }
  ServiceOutcome outcome;
  outcome.state = ServiceOutcome::State::kFailed;
  outcome.status = Status::Cancelled("service is shutting down");
  CompleteTicket(dropped, std::move(outcome));
  return Status::OK();
}

void CoordinationService::AdvanceTicks(uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t t = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    for (auto& shard : shards_) {
      ShardRunner::Op op;
      op.kind = ShardRunner::Op::Kind::kTick;
      op.tick = t;
      shard->Enqueue(std::move(op));
    }
  }
}

void CoordinationService::FlushAll() {
  auto latch =
      std::make_shared<std::latch>(static_cast<ptrdiff_t>(shards_.size()));
  for (auto& shard : shards_) {
    ShardRunner::Op op;
    op.kind = ShardRunner::Op::Kind::kFlush;
    op.latch = latch;
    if (!shard->Enqueue(std::move(op))) latch->count_down();
  }
  latch->wait();
}

bool CoordinationService::Drain(int rounds) {
  for (int i = 0; i < rounds; ++i) {
    {
      // Let in-flight migrations land before flushing: the extracted query
      // must be re-submitted (FIFO: ahead of our flush op) or its partners
      // would be failed as partnerless.
      std::unique_lock<std::mutex> lock(submit_mu_);
      migration_cv_.wait_for(lock, std::chrono::seconds(5),
                             [this] { return migrating_count_ == 0; });
    }
    FlushAll();
    if (inflight_count() == 0) return true;
  }
  return inflight_count() == 0;
}

size_t CoordinationService::inflight_count() const {
  std::lock_guard<std::mutex> lock(submit_mu_);
  return inflight_.size();
}

void CoordinationService::RecordServiceTrace(
    TicketId ticket, TraceEventKind kind, uint64_t detail,
    std::chrono::steady_clock::time_point at) {
  TraceEvent ev;
  ev.ticket = ticket;
  ev.kind = kind;
  ev.shard = kTraceNoShard;
  ev.at = at;
  ev.detail = detail;
  traces_->Record(ev);
}

Result<QueryTrace> CoordinationService::Trace(TicketId ticket) const {
  return traces_->Trace(ticket);
}

ServiceStateDump CoordinationService::DumpState() const {
  // Phase 1: one kDumpState op per shard, answered on the shard threads —
  // each shard's section is a single consistent observation between ops.
  std::vector<std::shared_ptr<ShardStateDump>> slots;
  slots.reserve(shards_.size());
  auto latch =
      std::make_shared<std::latch>(static_cast<ptrdiff_t>(shards_.size()));
  for (const auto& shard : shards_) {
    auto slot = std::make_shared<ShardStateDump>();
    ShardRunner::Op op;
    op.kind = ShardRunner::Op::Kind::kDumpState;
    op.dump = slot;
    op.latch = latch;
    // A stopped shard (shutdown) leaves its slot empty; still count down.
    if (!shard->Enqueue(std::move(op))) latch->count_down();
    slots.push_back(std::move(slot));
  }
  latch->wait();

  // Phase 2: join each pending query with the routing fingerprint the
  // service holds for its ticket. A query resolved or migrated between
  // the shard's observation and this join keeps its shard-side row (the
  // fingerprint is simply absent) — the dump is a snapshot, not a lock.
  ServiceStateDump dump;
  dump.storage_version = storage_->version();
  dump.gc_watermark = storage_->gc_watermark();
  dump.versions_retired = storage_->versions_retired();
  dump.retained_versions = storage_->retained_versions();
  {
    PlanCache::Stats cs = plan_cache_->stats();
    dump.prepare.edge_pool_size = edge_pool_->size();
    dump.prepare.edge_recycles = edge_pool_->recycles();
    dump.prepare.plan_cache_size = cs.size;
    dump.prepare.plan_cache_capacity = cs.capacity;
    dump.prepare.plan_cache_hits = cs.hits;
    dump.prepare.plan_cache_misses = cs.misses;
    dump.prepare.plan_cache_evictions = cs.evictions;
    dump.prepare.plan_cache_invalidations = cs.invalidations;
  }
  dump.shards.reserve(slots.size());
  std::lock_guard<std::mutex> lock(submit_mu_);
  for (size_t s = 0; s < slots.size(); ++s) {
    const ShardStateDump& src = *slots[s];
    ServiceStateDump::ShardState st;
    st.shard_id = static_cast<uint32_t>(s);
    st.queue_depth = src.queue_depth;
    st.snapshot_version = src.snapshot_version;
    st.snapshot_lag = dump.storage_version > src.snapshot_version
                          ? dump.storage_version - src.snapshot_version
                          : 0;
    st.drain_ops_per_sec = src.drain_ops_per_sec;
    st.footprint = src.footprint;
    st.pending.reserve(src.pending.size());
    for (const ShardStateDump::PendingQuery& p : src.pending) {
      ServiceStateDump::PendingQuery q;
      q.ticket = p.ticket;
      q.qid = p.qid;
      q.pending_ms = p.pending_ms;
      q.traced = p.traced;
      q.partition_size = p.partition_size;
      q.body_relations = p.body_relations;
      auto it = inflight_.find(p.ticket);
      if (it != inflight_.end()) {
        std::vector<std::string> rels = it->second.relations;
        std::sort(rels.begin(), rels.end());
        for (const std::string& rel : rels) {
          if (!q.fingerprint.empty()) q.fingerprint += '+';
          q.fingerprint += rel;
        }
      }
      st.pending.push_back(std::move(q));
    }
    dump.shards.push_back(std::move(st));
  }
  return dump;
}

std::string ServiceStateDump::ToString() const {
  std::string out =
      "service state: storage_version=" + std::to_string(storage_version) +
      "\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  gc: watermark=%llu versions_retired=%llu "
                "retained_versions=%llu\n",
                (unsigned long long)gc_watermark,
                (unsigned long long)versions_retired,
                (unsigned long long)retained_versions);
  out += line;
  std::snprintf(line, sizeof(line),
                "  prepare: edge_pool=%zu recycles=%llu plan_cache=%zu/%zu "
                "hits=%llu misses=%llu evictions=%llu invalidations=%llu\n",
                prepare.edge_pool_size,
                (unsigned long long)prepare.edge_recycles,
                prepare.plan_cache_size, prepare.plan_cache_capacity,
                (unsigned long long)prepare.plan_cache_hits,
                (unsigned long long)prepare.plan_cache_misses,
                (unsigned long long)prepare.plan_cache_evictions,
                (unsigned long long)prepare.plan_cache_invalidations);
  out += line;
  for (const ShardState& s : shards) {
    std::snprintf(line, sizeof(line),
                  "  shard %u: queue_depth=%zu snapshot_version=%llu "
                  "(lag=%llu) drain_ops_per_sec=%.0f pending=%zu\n",
                  s.shard_id, s.queue_depth,
                  (unsigned long long)s.snapshot_version,
                  (unsigned long long)s.snapshot_lag, s.drain_ops_per_sec,
                  s.pending.size());
    out += line;
    const engine::EngineFootprint& f = s.footprint;
    std::snprintf(line, sizeof(line),
                  "    engine: slots=%zu (+%zu free) index_entries=%zu "
                  "edges=%zu (+%zu free) variables=%zu outcomes=%zu "
                  "awaiting_release=%zu\n",
                  f.slots_in_use, f.slots_free, f.index_entries,
                  f.edges_in_use, f.edges_free, f.tracked_variables,
                  f.outcomes, f.awaiting_release);
    out += line;
    for (const PendingQuery& p : s.pending) {
      std::snprintf(line, sizeof(line),
                    "    ticket %llu: qid=%u pending=%.1fms group=%s "
                    "partition_size=%zu%s body=",
                    (unsigned long long)p.ticket, p.qid, p.pending_ms,
                    p.fingerprint.empty() ? "?" : p.fingerprint.c_str(),
                    p.partition_size, p.traced ? " traced" : "");
      out += line;
      for (size_t i = 0; i < p.body_relations.size(); ++i) {
        if (i > 0) out += ',';
        out += p.body_relations[i];
      }
      out += '\n';
    }
  }
  return out;
}

ServiceMetrics CoordinationService::Metrics() const {
  std::vector<ShardMetricsSnapshot> snaps;
  snaps.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snaps.push_back(SnapshotShardStats(shard->shard_id(), shard->stats()));
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started_)
                       .count();
  ServiceMetrics m = AggregateMetrics(std::move(snaps), elapsed);
  // Prepare-path state lives at the service edge, not on a shard: fold it
  // in after aggregation.
  PlanCache::Stats cs = plan_cache_->stats();
  m.prepare_cache_hits = cs.hits;
  m.prepare_cache_misses = cs.misses;
  m.prepare_cache_evictions = cs.evictions;
  m.prepare_cache_invalidations = cs.invalidations;
  m.edge_recycles = edge_pool_->recycles();
  m.parse_errors += edge_parse_errors_.load(std::memory_order_relaxed);
  m.prepare_latency_buckets = prepare_latency_.Snapshot();
  m.prepare_p50_ms = HistogramPercentileMs(m.prepare_latency_buckets, 50);
  m.prepare_p95_ms = HistogramPercentileMs(m.prepare_latency_buckets, 95);
  m.prepare_p99_ms = HistogramPercentileMs(m.prepare_latency_buckets, 99);
  // Storage version GC lives below the shards; report it alongside them.
  m.versions_retired = storage_->versions_retired();
  m.gc_watermark = storage_->gc_watermark();
  m.retained_versions = storage_->retained_versions();
  return m;
}

void CoordinationService::OnShardEvent(ShardRunner::Event ev) {
  if (ev.kind == ShardRunner::Event::Kind::kMigratedOut) {
    Ticket resolved;
    bool was_cancel = false;
    std::shared_ptr<ExtractCallback> extract_cb;
    ExtractedQuery extracted;
    {
      std::lock_guard<std::mutex> lock(submit_mu_);
      auto it = inflight_.find(ev.ticket);
      if (it == inflight_.end()) return;  // cancelled/raced away meanwhile
      Inflight& entry = it->second;
      uint32_t target = router_.ShardOfRelation(entry.relations.front());
      if (target == kInvalidShard) target = entry.shard;
      entry.shard = target;
      if (entry.migrating) {
        entry.migrating = false;
        --migrating_count_;
        migration_cv_.notify_all();
      }
      was_cancel = entry.cancel_requested;
      if (entry.extract_cb != nullptr && !was_cancel) {
        // Cross-node extraction: pop the entry WITHOUT resolving the
        // ticket and hand the canonical form to the cluster layer (the
        // group's new owner node re-submits it and completes this same
        // ticket from the remote outcome).
        extract_cb = entry.extract_cb;
        extracted.program = entry.program;
        extracted.preference = entry.preference;
        extracted.relations = entry.relations;
        extracted.ticket = entry.ticket;
        if (entry.deadline_tick != 0) {
          uint64_t now = now_ticks();
          extracted.ttl_remaining =
              entry.deadline_tick > now ? entry.deadline_tick - now : 1;
        }
        EraseInflightLocked(it);
      } else if (!was_cancel) {
        uint64_t remaining = 0;
        if (entry.deadline_tick != 0) {
          uint64_t now = now_ticks();
          // An already-overdue query gets one tick of grace and expires on
          // the next AdvanceTime instead of being silently dropped.
          remaining =
              entry.deadline_tick > now ? entry.deadline_tick - now : 1;
        }
        ShardRunner::Op op;
        op.kind = ShardRunner::Op::Kind::kSubmit;
        op.ticket = ev.ticket;
        // Re-submit the canonical program regardless of the input dialect
        // (the winning shard never re-parses or re-translates).
        op.program = entry.program;
        op.preference = entry.preference;
        op.ttl_ticks = remaining;
        op.migrated_in = true;
        op.submitted_at = ev.submitted_at;
        op.traced = entry.traced;
        if (op.traced) {
          RecordServiceTrace(ev.ticket, TraceEventKind::kEnqueued, target,
                             std::chrono::steady_clock::now());
        }
        if (shards_[target]->Enqueue(std::move(op))) return;
        // Target shard already stopped (service shutting down): fall
        // through and resolve the ticket rather than leaving it pending.
      }
      if (extract_cb == nullptr) {
        resolved = entry.ticket;
        EraseInflightLocked(it);
      }
    }
    if (extract_cb != nullptr) {
      // Outside submit_mu_: the callback typically forwards over a socket
      // (bounded by the transport timeout) and must not deadlock against
      // concurrent submissions.
      (*extract_cb)(std::move(extracted));
      return;
    }
    ServiceOutcome outcome;
    outcome.state = ServiceOutcome::State::kFailed;
    outcome.status = was_cancel
                         ? Status::Cancelled(
                               "query was withdrawn while migrating "
                               "between shards")
                         : Status::Cancelled("service is shutting down");
    CompleteTicket(resolved, std::move(outcome));
    return;
  }

  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    auto it = inflight_.find(ev.ticket);
    if (it == inflight_.end()) return;  // duplicate delivery guard
    if (it->second.migrating) {
      // Resolution won the race against extraction; the queued kMigrate op
      // will find nothing and no re-submission follows.
      --migrating_count_;
      migration_cv_.notify_all();
    }
    ticket = it->second.ticket;
    EraseInflightLocked(it);
  }
  CompleteTicket(ticket, std::move(ev.outcome));
}

size_t CoordinationService::PlanMigrationsLocked(
    const std::vector<std::string>& rels,
    std::vector<PlannedMigration>* planned,
    std::shared_ptr<ExtractCallback> extract_cb) {
  size_t marked = 0;
  for (const std::string& rel : rels) {
    auto rit = rel_tickets_.find(rel);
    if (rit == rel_tickets_.end()) continue;
    for (TicketId id : rit->second) {
      auto it = inflight_.find(id);
      if (it == inflight_.end()) continue;
      Inflight& entry = it->second;
      if (entry.migrating) continue;
      if (extract_cb == nullptr) {
        // In-process rebalance: only entries whose routed shard actually
        // changed move. Extraction (cross-node) takes everything under the
        // swept relations — the group's new owner is another node, so the
        // local shard assignment is irrelevant.
        uint32_t current = router_.ShardOfRelation(entry.relations.front());
        if (current == kInvalidShard || current == entry.shard) continue;
      }
      entry.migrating = true;
      entry.extract_cb = extract_cb;
      ++migrating_count_;
      planned->push_back({entry.shard, id});
      ++marked;
    }
  }
  return marked;
}

void CoordinationService::EnqueuePlannedMigrations(
    std::vector<PlannedMigration> planned) {
  if (planned.empty()) return;
  std::vector<Ticket> dropped;
  for (const PlannedMigration& pm : planned) {
    ShardRunner::Op op;
    op.kind = ShardRunner::Op::Kind::kMigrate;
    op.ticket = pm.ticket;
    if (shards_[pm.shard]->Enqueue(std::move(op))) continue;
    // Old shard already stopped (shutdown): no extraction event will ever
    // come, so resolve the ticket here instead of leaking it.
    std::lock_guard<std::mutex> lock(submit_mu_);
    auto it = inflight_.find(pm.ticket);
    if (it == inflight_.end()) continue;  // resolved in the window
    if (it->second.migrating) {
      it->second.migrating = false;
      --migrating_count_;
      migration_cv_.notify_all();
    }
    dropped.push_back(it->second.ticket);
    EraseInflightLocked(it);
  }
  FailTickets(std::move(dropped),
              Status::Cancelled("service is shutting down"));
}

size_t CoordinationService::ExtractForRebalance(
    const std::vector<std::string>& rels, ExtractCallback cb) {
  auto shared_cb = std::make_shared<ExtractCallback>(std::move(cb));
  std::vector<PlannedMigration> planned;
  size_t marked = 0;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    marked = PlanMigrationsLocked(rels, &planned, std::move(shared_cb));
  }
  EnqueuePlannedMigrations(std::move(planned));
  return marked;
}

std::unordered_map<TicketId, CoordinationService::Inflight>::iterator
CoordinationService::EraseInflightLocked(
    std::unordered_map<TicketId, Inflight>::iterator it) {
  auto rit = rel_tickets_.find(it->second.relations.front());
  if (rit != rel_tickets_.end()) {
    rit->second.erase(it->first);
    if (rit->second.empty()) rel_tickets_.erase(rit);
  }
  return inflight_.erase(it);
}

void CoordinationService::FailTickets(std::vector<Ticket> tickets,
                                      const Status& status) {
  for (Ticket& t : tickets) {
    ServiceOutcome outcome;
    outcome.state = ServiceOutcome::State::kFailed;
    outcome.status = status;
    CompleteTicket(t, std::move(outcome));
  }
}

void CoordinationService::CompleteTicket(const Ticket& ticket,
                                         ServiceOutcome outcome) {
  TicketFactory::Complete(ticket, std::move(outcome));
}

void CoordinationService::TickerLoop() {
  std::unique_lock<std::mutex> lock(ticker_mu_);
  while (!stopping_) {
    if (ticker_cv_.wait_for(lock, opts_.tick_interval,
                            [this] { return stopping_; })) {
      break;
    }
    AdvanceTicks(1);
  }
}

}  // namespace eq::service
