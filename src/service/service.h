#ifndef EQ_SERVICE_SERVICE_H_
#define EQ_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/query.h"
#include "service/edge.h"
#include "service/interface.h"
#include "service/metrics.h"
#include "service/plan_cache.h"
#include "service/router.h"
#include "service/shard.h"
#include "service/ticket.h"
#include "service/trace.h"

namespace eq::service {

struct ServiceOptions {
  /// Number of independent engine shards (threads). Queries that can
  /// coordinate always land on the same shard; disjoint workloads scale
  /// across shards.
  uint32_t num_shards = 4;

  /// Batched flush scheduling, per shard: flush when `max_batch` queries
  /// accumulated or `max_delay_ticks` logical ticks elapsed with pending
  /// work — bounded coordination latency under light load, amortized batch
  /// matching under heavy load.
  size_t max_batch = 64;
  uint64_t max_delay_ticks = 2;

  /// Wall-clock duration of one logical staleness tick. Zero disables the
  /// ticker thread; tests then drive time via AdvanceTicks().
  std::chrono::milliseconds tick_interval{0};

  engine::EvalMode mode = engine::EvalMode::kSetAtATime;

  /// Service-wide grounding preference (§6 ranking extension), threaded
  /// into every shard engine's EngineOptions. QueryIds passed to the
  /// function are shard-local; service clients typically score on the
  /// tuples alone, or use per-query SubmitOptions::preference instead.
  engine::PreferenceFn preference;
  /// How many coordinated outcomes each shard enumerates when ranking.
  size_t preference_candidates = 16;

  /// Admission control: a fresh client submission is rejected
  /// synchronously with kResourceExhausted when its target shard's op
  /// queue already holds this many ops, before any routing state is
  /// committed. 0 = unlimited. An admission threshold, not a hard queue
  /// capacity: control traffic (ticks, flushes, cancellations) and
  /// in-flight migrations always pass and may transiently exceed it.
  size_t max_queue_depth = 0;

  /// Builds the shared storage catalog (required). Run exactly once, at
  /// service construction, against the storage-owned database; the
  /// resulting snapshot is shared immutably by every shard and by the
  /// *edge catalog* (the schema view entangled SQL is translated against
  /// before routing).
  SnapshotBootstrap bootstrap;

  /// Each edge-catalog context accumulates fresh variables per translated
  /// query, so it is recycled after this many uses (counted per pooled
  /// context, not globally) to bound memory over a long-lived service.
  /// Recycling re-seeds from the shared snapshot (cheap); it does NOT
  /// re-run the bootstrap. 0 = never recycle (same convention as
  /// max_queue_depth).
  size_t edge_recycle_uses = 4096;

  /// Size of the edge-context pool that parallelizes the prepare phase:
  /// every prepare (SQL translation, IR parsing, builder validation, SQL
  /// write translation) checks out one of these snapshot-seeded contexts
  /// instead of serializing on a single edge mutex, so N client threads
  /// prepare concurrently. Pooled contexts share the internally
  /// synchronized storage interner and therefore agree on SymbolIds.
  /// 0 = one context per shard (num_shards).
  size_t edge_pool_size = 0;

  /// Entries in the fingerprint-keyed prepared-plan cache (LRU) in front
  /// of SQL and IR translation: key = dialect + normalized query text,
  /// value = the canonical portable program + entangled-relation list. A
  /// repeat shape skips parse/translate/canonicalize and goes straight to
  /// routing. Builder programs are canonical already and never use the
  /// cache: they are validated read-only against the bootstrap catalog.
  /// Entries are context-free, so they survive edge recycles; the cache is
  /// swept whenever a recycle (or replicated catalog) observes a
  /// schema-affecting change. 0 disables caching.
  size_t plan_cache_capacity = 1024;

  /// Test/diagnostic hook: runs on each shard thread after its engine is
  /// ready, before the first op is processed.
  std::function<void(uint32_t shard_id)> on_shard_start;

  /// Test/diagnostic hook: runs on the owning shard thread at the start of
  /// every write wake-up (after the coalesced touched-relation set is
  /// claimed, before re-evaluation). Blocking here holds the wake-up in
  /// place while further writes coalesce — the deterministic seam behind
  /// the write_notifies_coalesced tests.
  std::function<void(uint32_t shard_id)> on_write_wakeup;

  /// Lifecycle tracing: every Nth client submission records a full
  /// per-query trace (Submitted → Routed → Enqueued → EngineSubmit →
  /// evaluations/migrations → Resolved), retrievable via Trace(). 1 traces
  /// everything, 0 disables tracing. Sampling keeps the default overhead
  /// negligible — untraced queries pay one relaxed atomic increment.
  uint64_t trace_sample_every = 64;
  /// Bypass sampling and trace every submission (tests, debugging; also
  /// forced internally while the slow-query log is enabled, so it can
  /// render complete traces).
  bool trace_all = false;
  /// Hard bound on retained traces; the oldest admitted trace is evicted
  /// first, resolved or not.
  size_t trace_capacity = 1024;
  /// Hard bound on events kept per trace (overflow is counted, not
  /// stored).
  size_t trace_max_events = 128;

  /// Slow-query log: a query resolving slower than this many milliseconds
  /// renders its full lifecycle trace into `slow_query_sink`. 0 disables
  /// the log; > 0 forces trace_all behavior so the rendered trace is
  /// complete.
  double slow_query_threshold_ms = 0;
  /// Destination for slow-query traces, called on the resolving shard's
  /// thread (don't block). Null with a positive threshold = stderr.
  std::function<void(const QueryTrace&)> slow_query_sink;
};

/// One query pulled back out of the service without resolving its ticket —
/// the cross-node migration unit. ExtractForRebalance reuses the in-process
/// migration machinery (kMigrate → kMigratedOut) but pops the in-flight
/// entry instead of re-submitting locally, handing the canonical form to
/// the caller (the cluster layer re-submits it on the group's new owner
/// node and completes the SAME ticket when the remote outcome arrives).
struct ExtractedQuery {
  /// Canonical payload: every dialect normalizes to the portable program
  /// at submission (same form migration re-submission ships).
  std::shared_ptr<const client::PortableQuery> program;
  client::PreferenceSpec preference;
  uint64_t ttl_remaining = 0;  ///< 0 = no TTL
  std::vector<std::string> relations;
  Ticket ticket;  ///< still pending; the new owner resolves it
};

/// Invoked once per extracted query, on the shard thread that extracted it
/// (keep it cheap / bounded — a frame send with a timeout is acceptable,
/// blocking indefinitely is not).
using ExtractCallback = std::function<void(ExtractedQuery)>;

/// Thread-safe, sharded front-end to N CoordinationEngines — the paper's
/// single-threaded evaluator (§5.1) scaled out by partitioning the query
/// stream on entangled-relation signatures, so the per-partition
/// independence result (§4.1.2) becomes cross-engine parallelism.
///
/// Life cycle of a query: Submit normalizes the typed client::Query
/// (translating SQL against the edge catalog, validating builder
/// programs), routes it by its translated entangled-relation signature and
/// returns a Ticket immediately; the shard thread instantiates the
/// canonical program against its private context, runs the engine, and resolves the ticket (callback + future)
/// when coordination succeeds, fails, expires, or is cancelled. If a later
/// query entangles two previously independent relation groups, the service
/// transparently migrates the stranded minority group between shards,
/// re-submitting each query's canonical form — the colocation invariant
/// (potential partners share a shard) holds at every quiescent point.
///
/// Thread safety: every public method is safe from any thread, any time —
/// submission (Submit), writes (ApplyBatch/ExecuteWrite/
/// ApplyReplicatedTables), control (Cancel/AdvanceTicks/FlushAll/Drain), and observation (Metrics/storage/
/// interner/ShardSnapshot). Internally, route→record→enqueue serializes
/// on submit_mu_, preparation (parse/translate/validate) runs on a pooled
/// edge context checked out per op, and storage writes serialize on the
/// Storage mutex; shard engine state is confined to each shard's thread.
/// Ticket callbacks fire on the owning shard's thread (or on the
/// destructor's thread for queries orphaned by shutdown) — don't block in
/// them.
class CoordinationService : public CoordinationInterface {
 public:
  explicit CoordinationService(ServiceOptions opts);
  ~CoordinationService() override;

  CoordinationService(const CoordinationService&) = delete;
  CoordinationService& operator=(const CoordinationService&) = delete;

  /// Submits one typed query in any dialect.
  ///
  /// Synchronous failures: empty/unroutable text (kInvalidArgument),
  /// parse/translation errors against the edge catalog — all three
  /// dialects, IR included, normalize to the canonical program here, so
  /// malformed input fails before a ticket exists — malformed builder
  /// programs, and admission-control rejection (kResourceExhausted).
  Result<Ticket> Submit(client::Query query, SubmitOptions opts = {}) override;

  /// Withdraws a pending query; its ticket resolves as Cancelled. A no-op
  /// if the query already resolved (the resolution wins the race).
  Status Cancel(const Ticket& ticket) override;

  /// Advances the logical staleness clock by `n` ticks on every shard (the
  /// ticker thread calls this once per tick_interval).
  void AdvanceTicks(uint64_t n = 1);

  /// Forces one batch flush on every shard and blocks until all complete
  /// (including delivery of the outcomes they produced).
  void FlushAll();

  /// FlushAll until no tickets are in flight (migration re-submissions can
  /// need a second round). Returns false if still non-empty after `rounds`.
  bool Drain(int rounds = 8);

  /// The declarative write surface: executes one SQL INSERT, DELETE or
  /// UPDATE statement —
  ///
  ///   INSERT INTO Flights VALUES (136, 'Vienna')
  ///   DELETE FROM Flights WHERE dest = 'Vienna' AND fno < 200
  ///   UPDATE Flights SET dest = 'Naples' WHERE fno = 136
  ///
  /// translated and type-checked against the edge catalog (unknown
  /// tables/columns and literal type mismatches fail synchronously, like
  /// SQL query submission), then routed through the storage write path
  /// with the same CoW, no-match-no-publish, and wake-up semantics as
  /// ApplyBatch. Returns the number of rows affected; 0 means the
  /// predicate matched nothing (and nothing was published or woken).
  Result<size_t> ExecuteWrite(std::string_view sql) override;

  /// Live write ingestion, the one typed write call: applies `writes`
  /// (TableWrite::Insert / Delete(pred) / Update(pred, sets), in order)
  /// atomically through db::Storage::ApplyBatch and publishes one version —
  /// or none, if nothing matched. Shards holding pending queries whose
  /// bodies read a changed table are woken once for the whole batch
  /// (WriteNotify: they adopt the new version and re-evaluate just those
  /// partitions); everyone else adopts it at the next evaluation boundary
  /// (batch flush, or per-submit in incremental mode). An in-flight
  /// coordination round keeps evaluating the version it started with
  /// (§2.3). A delete cannot newly satisfy a monotone body, but waking
  /// keeps the re-evaluation snapshot fresh so later answers never
  /// resurrect deleted rows. `rows_changed` (optional) receives the rows
  /// inserted, removed or updated. Safe from any thread, any time. Build
  /// string cells with ir::Value::Str(interner().Intern(...)).
  Status ApplyBatch(const std::vector<db::Storage::TableWrite>& writes,
                    size_t* rows_changed = nullptr);

  /// Follower-side replication entry point: swaps in whole replicated
  /// tables (see db::Storage::ApplyReplacements — cells must already be
  /// interned locally), publishes one version, and wakes exactly the
  /// pending queries reading a replaced table — a shipped version delta
  /// triggers the same reactive re-evaluation as a local write.
  Status ApplyReplicatedTables(
      const std::vector<db::Storage::TableReplacement>& reps);

  /// Normalizes any dialect to the canonical context-free wire form
  /// without submitting: SQL translates against the edge catalog, IR text
  /// parses against it, builder programs validate as-is. This is the
  /// cluster edge's serialization point — a query forwarded to a peer node
  /// ships this form, never raw dialect text.
  Result<client::PortableQuery> Canonicalize(const client::Query& query);

  /// Pulls every in-flight query routed under `rels` out of the service
  /// WITHOUT resolving its ticket, invoking `cb` once per query with its
  /// canonical form (on the extracting shard's thread). The cross-node
  /// half of group-merge migration: the cluster layer re-submits each
  /// extracted query on the group's new owner node and completes the same
  /// ticket from the remote outcome. Queries that resolve before the
  /// extraction lands keep their resolution (cb is not invoked for them);
  /// a Cancel that arrives mid-extraction wins, resolving the ticket as
  /// Cancelled without invoking cb. Returns how many queries were marked
  /// for extraction.
  size_t ExtractForRebalance(const std::vector<std::string>& rels,
                             ExtractCallback cb);

  /// The shared interner (thread-safe): intern string cells for writes or
  /// render symbols.
  StringInterner& interner() { return storage_->interner(); }

  /// The shared versioned storage (read-only observation: version numbers,
  /// current snapshot).
  const db::Storage& storage() const { return *storage_; }

  /// Mutable storage access for catalog growth past the build phase
  /// (mutable_db()->CreateTable + Publish) and diagnostics. Use at
  /// quiescent points only — mutable_db() is not synchronized against
  /// concurrent writers. A schema-affecting change is detected by the
  /// fingerprint check at the next edge-context recycle (or replicated
  /// catalog application) and sweeps the plan cache.
  db::Storage& storage() { return *storage_; }

  /// The snapshot shard `s` currently evaluates against (test/diagnostic:
  /// e.g. asserting TableVersion pointer identity across shards).
  db::Snapshot ShardSnapshot(uint32_t s) const {
    return shards_[s]->adopted_snapshot();
  }

  /// Aggregated per-shard + global counters, throughput and latency
  /// percentiles.
  ServiceMetrics Metrics() const override;

  /// The recorded lifecycle of one (sampled) query, with derived spans:
  /// route time, op-queue wait, engine dwell, re-evaluation count, total.
  /// kNotFound when the ticket was not sampled (see trace_sample_every /
  /// trace_all) or its trace was evicted by the capacity bound. A migrated
  /// query's trace spans both shards.
  Result<QueryTrace> Trace(TicketId ticket) const override;
  using CoordinationInterface::Trace;

  /// The trace registry (admission/eviction counters, options).
  const TraceRegistry& traces() const { return *traces_; }

  /// The ring of shard `s`'s most recent trace events (diagnostics).
  const TraceRing& ShardTraceRing(uint32_t s) const {
    return shards_[s]->trace_ring();
  }

  /// Pending-state introspection: one kDumpState control op per shard,
  /// answered on the shard threads (each shard's section is internally
  /// consistent), joined with the service's routing fingerprints. Blocks
  /// until every shard responds — don't call from a ticket callback (it
  /// runs on a shard thread and would deadlock against itself).
  ServiceStateDump DumpState() const override;

  const QueryRouter& router() const { return router_; }
  uint64_t now_ticks() const {
    return tick_.load(std::memory_order_relaxed);
  }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  size_t inflight_count() const;

 private:
  struct Inflight {
    uint32_t shard = 0;
    uint64_t deadline_tick = 0;  ///< 0 = no TTL
    bool migrating = false;      ///< a kMigrate op is queued for this ticket
    /// Cancel() arrived while the query was mid-migration; honoured when the
    /// extraction lands instead of being re-submitted.
    bool cancel_requested = false;
    /// Canonical form for migration re-submission: every dialect
    /// normalizes to the portable program at prepare time.
    std::shared_ptr<const client::PortableQuery> program;
    client::PreferenceSpec preference;
    std::vector<std::string> relations;
    Ticket ticket;
    bool traced = false;  ///< admitted into the trace registry at submit
    /// Set by ExtractForRebalance: when the kMigratedOut event lands, pop
    /// the entry and hand the canonical form to this callback instead of
    /// re-submitting locally. Shared across one extraction sweep.
    std::shared_ptr<ExtractCallback> extract_cb;
  };

  /// One planned (not yet enqueued) kMigrate op: the sweep marks entries
  /// and collects these under submit_mu_, and the actual shard enqueues
  /// happen after the lock is released (the queue push takes the shard's
  /// queue mutex and can wake its thread — neither belongs under the
  /// submit lock).
  struct PlannedMigration {
    uint32_t shard = 0;
    TicketId ticket = 0;
  };

  /// A dialect-normalized query, ready to route: the canonical program
  /// plus the translated entangled-relation fingerprint.
  struct Prepared {
    std::shared_ptr<const client::PortableQuery> program;
    std::vector<std::string> relations;
    /// When the service accepted the query (PrepareQuery entry) — the
    /// trace's Submitted timestamp, so the route span covers preparation.
    std::chrono::steady_clock::time_point accepted_at{};
  };

  /// Normalizes one query: blank-text rejection, then plan-cache lookup,
  /// then (on a miss) parse/translate/validate on a pooled edge context;
  /// builder programs are only validated, read-only. Records the
  /// prepare-latency histogram. Never takes submit_mu_.
  Result<Prepared> PrepareQuery(const client::Query& query);
  /// The shared prepare worker behind PrepareQuery and Canonicalize:
  /// builder validation, or cache key computation, lookup, miss-path
  /// canonicalization and insert for the text dialects.
  Result<PlanCache::Plan> PreparePlan(const client::Query& query);
  /// Routes, records and enqueues one prepared query. Caller holds
  /// submit_mu_ and enqueues `*planned` after releasing it (see
  /// EnqueuePlannedMigrations).
  Result<Ticket> SubmitPreparedLocked(Prepared p, const SubmitOptions& opts,
                                      std::vector<PlannedMigration>* planned);

  /// Records one service-side trace event (client thread, under
  /// submit_mu_): Submitted/Routed/Enqueued carry no shard of their own.
  void RecordServiceTrace(TicketId ticket, TraceEventKind kind,
                          uint64_t detail,
                          std::chrono::steady_clock::time_point at);

  /// Posts a WriteNotify op (with the touched relations' symbols) to
  /// every shard whose wake-up index entry intersects `rels`. No-op when
  /// no pending query reads them.
  void NotifyRelationsTouched(std::vector<SymbolId> rels);

  void OnShardEvent(ShardRunner::Event ev);
  /// After a group merge: mark the in-flight tickets keyed under `rels`
  /// (the relations whose group assignment just changed) that are now
  /// routed away from their recorded shard — O(stranded group), not
  /// O(all in-flight). Caller holds submit_mu_; the planned kMigrate ops
  /// are enqueued by EnqueuePlannedMigrations AFTER the lock is released
  /// (the entries are already marked migrating, so Cancel and duplicate
  /// sweeps in the window behave as if the op were queued). When
  /// `extract_cb` is non-null the marked entries extract to it instead of
  /// re-submitting locally (ExtractForRebalance). Returns entries marked.
  size_t PlanMigrationsLocked(const std::vector<std::string>& rels,
                              std::vector<PlannedMigration>* planned,
                              std::shared_ptr<ExtractCallback> extract_cb);
  /// Enqueues the planned kMigrate ops (no locks held on entry). A shard
  /// that already stopped yields no extraction event, so its entries are
  /// dropped and their tickets failed here.
  void EnqueuePlannedMigrations(std::vector<PlannedMigration> planned);
  /// Erases one in-flight entry and its relation-index slot; returns the
  /// next iterator. Caller holds submit_mu_.
  std::unordered_map<TicketId, Inflight>::iterator EraseInflightLocked(
      std::unordered_map<TicketId, Inflight>::iterator it);
  void CompleteTicket(const Ticket& ticket, ServiceOutcome outcome);
  /// Completes each ticket as kFailed with `status` (no locks held).
  void FailTickets(std::vector<Ticket> tickets, const Status& status);
  void TickerLoop();

  ServiceOptions opts_;
  QueryRouter router_;

  /// The shared storage tier: one interner, one bootstrap context (catalog
  /// metadata every shard adopts), one versioned CoW store. Declared
  /// before shards_ so it outlives the shard threads that read it.
  std::shared_ptr<StringInterner> interner_;
  std::unique_ptr<ir::QueryContext> storage_ctx_;
  std::unique_ptr<db::Storage> storage_;

  /// Relation→pending-shard index for write-triggered re-evaluation.
  /// Declared before shards_ (shard threads write it until they stop).
  WriteWakeupIndex wakeup_index_;

  /// Per-query lifecycle traces. Declared before shards_ (shard threads
  /// record into it until they stop).
  std::unique_ptr<TraceRegistry> traces_;

  std::vector<std::unique_ptr<ShardRunner>> shards_;

  /// Invalidates the plan cache when `snapshot` presents a different
  /// catalog shape than the last one observed (recycle hook + replicated
  /// catalog changes). Cached plans are schema-dependent (SQL translation
  /// resolves tables/columns), but data-independent, so only shape changes
  /// sweep the cache.
  void MaybeInvalidateOnSchemaChange(const db::Snapshot& snapshot);

  /// Edge catalog pool: the service-side schema views (shared storage
  /// snapshot) that SQL translates against, IR parses against, and
  /// builder programs validate against, before routing. Prepare ops check
  /// a context out and return it, so N client threads prepare in
  /// parallel; each slot recycles independently after
  /// ServiceOptions::edge_recycle_uses uses.
  std::unique_ptr<EdgeContextPool> edge_pool_;
  /// Fingerprint-keyed prepared-plan cache in front of translation.
  std::unique_ptr<PlanCache> plan_cache_;
  /// PrepareQuery/Canonicalize wall latency (cache hits and misses both),
  /// surfaced as the prepare-latency histogram in ServiceMetrics.
  LatencyHistogram prepare_latency_;
  /// Synchronous parse/translation failures at the edge (all dialects) —
  /// folded into ServiceMetrics::parse_errors alongside shard-side
  /// realization failures.
  std::atomic<uint64_t> edge_parse_errors_{0};
  /// Last schema fingerprint the invalidation check observed.
  std::mutex schema_mu_;
  uint64_t schema_fingerprint_ = 0;

  /// Serializes route→record→enqueue so a shard's op queue always sees a
  /// ticket's Submit before any Migrate that targets it.
  mutable std::mutex submit_mu_;
  std::unordered_map<TicketId, Inflight> inflight_;
  /// Relation-group index: primary entangled relation → in-flight tickets,
  /// maintained on submit/complete/migrate-drop. A group merge migrates
  /// exactly the tickets under the moved relations.
  std::unordered_map<std::string, std::unordered_set<TicketId>> rel_tickets_;
  /// Tickets with a kMigrate op issued but not yet re-submitted; Drain waits
  /// for this to reach zero before flushing, so a batch flush cannot fail a
  /// query whose coordination partner is mid-migration.
  uint64_t migrating_count_ = 0;
  std::condition_variable migration_cv_;
  std::atomic<uint64_t> next_ticket_{1};
  std::atomic<uint64_t> tick_{0};

  std::chrono::steady_clock::time_point started_;

  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool stopping_ = false;
  std::thread ticker_;
};

}  // namespace eq::service

#endif  // EQ_SERVICE_SERVICE_H_
