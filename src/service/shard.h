#ifndef EQ_SERVICE_SHARD_H_
#define EQ_SERVICE_SHARD_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "client/query.h"
#include "db/database.h"
#include "db/storage.h"
#include "engine/engine.h"
#include "ir/query.h"
#include "service/metrics.h"
#include "service/ticket.h"
#include "service/trace.h"
#include "service/wakeup.h"
#include "util/mpsc_queue.h"

namespace eq::service {

/// Populates the shared storage catalog: run by CoordinationService exactly
/// once for the whole process (not once per shard), against the storage
/// context and the storage-owned database, before the first snapshot is
/// published. Every shard then shares the resulting immutable snapshot
/// (§2.3: the database must be unchanged during coordinated answering).
using SnapshotBootstrap =
    std::function<void(ir::QueryContext* ctx, db::Database* db)>;

struct ShardOptions {
  uint32_t shard_id = 0;

  /// The shared versioned storage every shard reads through immutable
  /// snapshots. Required; must outlive the shard.
  db::Storage* storage = nullptr;

  /// Catalog metadata (ANSWER relations, arities) recorded by the storage
  /// bootstrap context; adopted into the shard's private context at
  /// startup so queries validate without re-running the bootstrap. Must be
  /// immutable for the shard's lifetime.
  const ir::QueryContext* base_ctx = nullptr;

  /// Test/diagnostic hook: runs on the shard thread after the engine is
  /// ready, before the first op is processed.
  std::function<void(uint32_t shard_id)> on_start;

  /// Test/diagnostic hook: runs on the shard thread at the start of every
  /// write wake-up (after the coalesced relation set was claimed, before
  /// the snapshot refresh and re-evaluation). Lets tests hold a wake-up in
  /// place to observe notify coalescing deterministically.
  std::function<void(uint32_t shard_id)> on_write_wakeup;

  /// The service-wide relation→pending-shard index (write-triggered
  /// re-evaluation). Required; must outlive the shard. The shard registers
  /// every query that becomes pending under its body relations and
  /// unregisters it on resolution, so a write can target WriteNotify ops
  /// at exactly the shards it could satisfy.
  WriteWakeupIndex* wakeup_index = nullptr;

  /// Batched flush scheduling (set-at-a-time mode): flush when this many
  /// submissions accumulated since the last flush...
  size_t max_batch = 64;
  /// ...or when this many logical ticks elapsed with work pending.
  uint64_t max_delay_ticks = 2;

  /// Engine evaluation mode. In kIncremental the engine resolves on arrival
  /// and the batch knobs above are ignored (Flush only forces stragglers).
  engine::EvalMode mode = engine::EvalMode::kSetAtATime;

  /// Service-wide grounding preference (§6), threaded into the shard
  /// engine's EngineOptions; summed with per-query PreferenceSpecs.
  engine::PreferenceFn preference;
  size_t preference_candidates = 16;

  /// Service-level per-query trace registry. The shard records lifecycle
  /// events for tickets the service admitted (Op::traced); null disables
  /// shard-side tracing entirely. Must outlive the shard.
  TraceRegistry* traces = nullptr;
  /// Slow-query log: a traced query resolving slower than this many
  /// milliseconds renders its full trace into `slow_query_sink`.
  /// 0 disables the log.
  double slow_query_threshold_ms = 0;
  /// Where slow-query traces go (called on the shard thread). Null with a
  /// positive threshold = stderr.
  std::function<void(const QueryTrace&)> slow_query_sink;
};

/// Point-in-time introspection of one shard's pending state, filled on the
/// shard thread (kDumpState control op) so every field is one consistent
/// observation: queue depth, snapshot lag inputs, drain rate, and each
/// pending query with its engine partition size and body relations.
struct ShardStateDump {
  struct PendingQuery {
    TicketId ticket = 0;
    ir::QueryId qid = ir::kInvalidQuery;
    double pending_ms = 0;     ///< since (original) submission
    bool traced = false;       ///< Trace(ticket) has events for it
    /// Queries in this query's unifiability partition on this shard (the
    /// entangled group as the engine currently sees it; >= 1).
    size_t partition_size = 0;
    std::vector<std::string> body_relations;  ///< sorted relation names
  };

  uint32_t shard_id = 0;
  size_t queue_depth = 0;        ///< ops queued behind the dump op
  uint64_t snapshot_version = 0; ///< what the engine evaluates against
  double drain_ops_per_sec = 0;  ///< recent op-drain EWMA
  engine::EngineFootprint footprint;  ///< what the engine holds
  std::vector<PendingQuery> pending;  ///< sorted by ticket
};

/// One shard of the coordination service: a dedicated thread owning a
/// private QueryContext + CoordinationEngine, fed through an MPSC
/// operation queue. The database is NOT private: every shard holds a
/// handle to the same immutable storage snapshot (the TableVersions are
/// shared by pointer), refreshed from db::Storage at evaluation boundaries
/// so an in-flight coordination round always sees one consistent version.
/// Engine state is confined to the shard thread — the only cross-thread
/// traffic is the op queue in, the event function out, and reads of the
/// internally-synchronized shared interner while instantiating programs.
class ShardRunner {
 public:
  struct Op {
    enum class Kind : uint8_t {
      kSubmit,   ///< instantiate the program, hand to engine
      kCancel,   ///< client withdrawal; resolves the ticket as Cancelled
      kMigrate,  ///< silent extraction; emits kMigratedOut, no resolution
      kTick,     ///< advance the engine's logical clock
      kFlush,    ///< force a batch flush, then count down `latch`
      kWriteNotify,  ///< a write touched relations pending queries read:
                     ///< adopt the fresh snapshot, re-evaluate only them.
                     ///< Carries no payload — the touched-relation set is
                     ///< claimed from the coalescing slot at dispatch
                     ///< (enqueue via NotifyWrite, never directly).
      kDumpState,    ///< fill `dump` with the shard's pending state, then
                     ///< count down `latch` (introspection barrier)
    };
    Kind kind = Kind::kSubmit;
    TicketId ticket = 0;
    /// kSubmit payload: the canonical portable program every dialect
    /// normalizes to at the service edge (migration re-submissions ship
    /// the same form).
    std::shared_ptr<const client::PortableQuery> program;
    /// Per-query grounding preference (kSubmit), summed with the
    /// service-wide preference function.
    client::PreferenceSpec preference;
    uint64_t ttl_ticks = 0;
    bool migrated_in = false;  ///< kSubmit caused by a migration
    /// For migrated_in: when the query was first submitted on the losing
    /// shard, so latency spans the whole journey (zero = use now).
    std::chrono::steady_clock::time_point submitted_at{};
    uint64_t tick = 0;         ///< kTick payload
    std::shared_ptr<std::latch> latch;  ///< kFlush / kDumpState barrier
    /// kSubmit: the service admitted this ticket into the trace registry,
    /// so the shard records its lifecycle events (decided once at submit —
    /// untraced queries never touch a trace lock on the shard).
    bool traced = false;
    std::shared_ptr<ShardStateDump> dump;  ///< kDumpState output slot
  };

  /// An event leaving the shard, delivered on the shard thread.
  struct Event {
    enum class Kind : uint8_t {
      kResolved,     ///< the ticket's query left the pending state
      kMigratedOut,  ///< extracted for re-routing; resubmit elsewhere
    };
    Kind kind = Kind::kResolved;
    TicketId ticket = 0;
    ServiceOutcome outcome;  // kResolved only
    /// kMigratedOut: original submit time, for the re-submission to carry.
    std::chrono::steady_clock::time_point submitted_at{};
  };
  using EventFn = std::function<void(Event)>;

  /// Starts the shard thread. `event_fn` must be thread-safe with respect
  /// to the other shards' threads and outlive the runner.
  ShardRunner(ShardOptions opts, EventFn event_fn);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// Enqueues an operation (any thread). False after Stop().
  bool Enqueue(Op op);

  /// Posts a write notification for `rels` (sorted, unique), coalescing
  /// per shard: while one WriteNotify op is queued and not yet dispatched,
  /// further notifications merge their touched-relation sets into it
  /// instead of enqueueing more ops (write_notifies_coalesced counts the
  /// merges). Under a write burst the shard therefore re-evaluates once
  /// per drain, not once per write — the wake-up-storm damper. Any thread;
  /// false after Stop(). Correctness: a writer whose set was merged has
  /// already published its version, and the wake-up claims the set before
  /// reading storage, so the adopted snapshot always covers every merged
  /// write.
  bool NotifyWrite(std::vector<SymbolId> rels);

  /// Closes the queue and joins the thread; queued ops are drained first.
  void Stop();

  const ShardStats& stats() const { return stats_; }
  uint32_t shard_id() const { return opts_.shard_id; }
  /// Current op-queue depth (any thread; admission pre-check).
  size_t queue_depth() const { return queue_.size(); }

  /// Concrete backoff hint for an admission rejection: how long a queue of
  /// `depth` ops takes to drain at this shard's recent drain rate (EWMA
  /// over the op loop). 0 = rate unknown (nothing drained yet); callers
  /// fall back to a generic hint. Any thread.
  uint64_t EstimateRetryAfterMs(size_t depth) const {
    return RetryAfterMsHint(
        depth, stats_.drain_ops_per_sec.load(std::memory_order_relaxed));
  }

  /// The storage snapshot the shard currently evaluates against (any
  /// thread; test/diagnostic hook — e.g. asserting that shards share
  /// TableVersion objects by pointer identity).
  db::Snapshot adopted_snapshot() const;

  /// The bounded ring of this shard's most recent trace events (any
  /// thread; Snapshot() is internally synchronized).
  const TraceRing& trace_ring() const { return trace_ring_; }

 private:
  struct TicketInfo {
    TicketId ticket = 0;
    std::chrono::steady_clock::time_point submitted;
    bool traced = false;
  };

  void Run();
  void Dispatch(Op& op);
  void HandleSubmit(Op& op);
  /// Adopts the latest published storage snapshot if it is newer than the
  /// one the engine holds. Called at evaluation boundaries only (before a
  /// batch flush; before each submit in incremental mode), never during an
  /// evaluation, preserving §2.3 per coordination round.
  void RefreshSnapshot();
  /// One write wake-up: count it, adopt the fresh snapshot, re-evaluate
  /// only the pending partitions reading `rels`, and publish the result
  /// counters. Shared by the kWriteNotify dispatch and the
  /// registration-race self-wake in HandleSubmit.
  void DoWriteWakeup(const std::vector<SymbolId>& rels);
  /// Installs the composite engine preference (service-wide fn + per-query
  /// specs) the first time it is needed.
  void EnsurePreferenceInstalled();
  /// Engine query id for a still-inflight ticket, or kInvalidQuery.
  ir::QueryId QueryOfTicket(TicketId ticket) const;
  void MaybeFlush(bool force);
  void OnEngineResolve(ir::QueryId q, const engine::QueryOutcome& outcome);
  void MirrorEngineMetrics();
  /// Stamps and records one lifecycle event for a traced ticket: into the
  /// per-shard ring and (when configured) the service registry. Callers
  /// check the ticket's traced flag first, so untraced traffic never
  /// reaches the trace locks.
  void RecordTrace(TicketId ticket, TraceEventKind kind, uint64_t detail = 0,
                   StatusCode status = StatusCode::kOk);
  /// Fills a kDumpState op's output slot from shard-thread state.
  void FillStateDump(ShardStateDump* dump);

  const ShardOptions opts_;
  const EventFn event_fn_;
  ShardStats stats_;
  MpscQueue<Op> queue_;
  /// Ring of the most recent traced activity on this shard, independent
  /// of the registry's per-ticket retention.
  static constexpr size_t kTraceRingCapacity = 256;
  TraceRing trace_ring_;

  /// The adopted snapshot, mirrored for cross-thread observation. The
  /// shard thread holds the authoritative handle inside the engine; this
  /// copy exists so tests/diagnostics can ask "which version, which
  /// TableVersions" without touching shard-thread state.
  mutable std::mutex snapshot_mu_;
  db::Snapshot snapshot_;

  /// Write-notify coalescing slot (NotifyWrite/dispatch): while
  /// `notify_queued_`, exactly one kWriteNotify op is in the queue and
  /// `pending_notify_rels_` accumulates every touched relation it must
  /// cover; the dispatch claims the set and clears the flag before doing
  /// any work, so later writes enqueue a fresh op.
  std::mutex notify_mu_;
  bool notify_queued_ = false;
  std::vector<SymbolId> pending_notify_rels_;

  // --- shard-thread-only state below ---
  std::unique_ptr<ir::QueryContext> ctx_;
  std::unique_ptr<engine::CoordinationEngine> engine_;
  std::unordered_map<ir::QueryId, TicketInfo> inflight_;
  std::unordered_map<TicketId, ir::QueryId> qid_of_ticket_;
  /// Active per-query preference specs. Written only between ops on the
  /// shard thread; read (possibly from the engine's Flush worker pool,
  /// which runs while the shard thread is blocked in Flush) never
  /// concurrently with writes.
  std::unordered_map<ir::QueryId, client::PreferenceSpec> pref_of_qid_;
  bool preference_installed_ = false;
  /// Ticket of the Submit currently executing (engine callbacks can fire
  /// inside Submit, before the id↔ticket mapping exists).
  TicketInfo current_submit_;
  bool current_submit_active_ = false;
  /// Ticket being silently extracted by a kMigrate op, if any.
  TicketId migrating_ = 0;
  size_t submitted_since_flush_ = 0;
  uint64_t tick_ = 0;
  uint64_t last_flush_tick_ = 0;

  std::thread thread_;  // last member: starts after everything is ready
};

}  // namespace eq::service

#endif  // EQ_SERVICE_SHARD_H_
