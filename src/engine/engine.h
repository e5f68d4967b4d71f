#ifndef EQ_ENGINE_ENGINE_H_
#define EQ_ENGINE_ENGINE_H_

#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/combiner.h"
#include "core/matcher.h"
#include "core/unifiability_graph.h"
#include "db/snapshot.h"
#include "engine/footprint.h"
#include "ir/query.h"
#include "util/status.h"

namespace eq::engine {

/// Evaluation strategy (paper §5.1): set-at-a-time batches queries and
/// resolves them on Flush(); incremental matches each query on arrival and
/// answers a partition as soon as all of its members are matched.
enum class EvalMode { kSetAtATime, kIncremental };

/// Scores one query's answer tuples within one candidate coordinated
/// outcome; higher is better. The §6 "ranking function on preferred query
/// groundings" extension: when set, the engine enumerates several
/// coordinated outcomes and favors the one maximizing the members' total
/// score ("the evaluation algorithm should favor coordinating sets G' that
/// satisfy the users' preferences").
using PreferenceFn = std::function<double(
    ir::QueryId, const std::vector<ir::GroundAtom>&)>;

struct EngineOptions {
  EvalMode mode = EvalMode::kSetAtATime;

  /// Optional grounding preference (§6 extension). Null = paper-core
  /// semantics: the first coordinated outcome wins.
  PreferenceFn preference;

  /// How many coordinated outcomes to enumerate when ranking preferences.
  size_t preference_candidates = 16;

  /// Executor knobs for combined-query evaluation.
  db::ExecOptions exec;
};

/// Life-cycle state of one submitted query.
struct QueryOutcome {
  enum class State { kPending, kAnswered, kFailed };

  /// Which evaluation wave resolved the query — the public entry point
  /// whose work (arrival propagation, batch flush, data wake-up, staleness
  /// sweep, withdrawal) moved it out of the pending state. Observability
  /// plumb-through: the service layer renders this in lifecycle traces.
  enum class Via : uint8_t { kNone, kSubmit, kFlush, kWakeup, kTick, kCancel };

  State state = State::kPending;
  /// For kFailed: why (Unsafe / Unsatisfiable / Timeout / NotFound...).
  Status status;
  Via via = Via::kNone;
  /// For kAnswered: the coordinated answer tuples (rows of the ANSWER
  /// relations this query contributed). CHOOSE 1 yields one tuple per head
  /// atom; CHOOSE k up to k per head atom.
  std::vector<ir::GroundAtom> tuples;
};

/// Human-readable name of a resolution wave ("submit", "flush", ...).
const char* ViaName(QueryOutcome::Via via);

/// What one data-arrival wake-up did (see NotifyDataArrival).
struct WakeupResult {
  uint64_t partitions_reexamined = 0;  ///< pending partitions re-evaluated
  uint64_t queries_satisfied = 0;      ///< queries answered by the wake-up
};

/// Performance counters (used by the benchmark harnesses; Figure 7 reports
/// match_seconds and db_seconds separately).
struct EngineMetrics {
  double match_seconds = 0;  ///< graph building + safety + propagation
  double db_seconds = 0;     ///< combined-query evaluation in the database
  uint64_t answered = 0;
  uint64_t failed = 0;
  uint64_t expired = 0;
  uint64_t cancelled = 0;
  uint64_t rejected_unsafe = 0;
  uint64_t partitions_evaluated = 0;
  uint64_t combined_queries = 0;
};

/// The D3C coordination engine (paper §5.1, Figure 5).
///
/// Life cycle of a query: Submit() validates it, admits it only if the
/// pending set stays safe (§3.1.1), and registers it as pending. The
/// application is then notified asynchronously via the answer callback —
/// on coordination success (with the answer tuples), on failure (safety
/// violation, unsatisfiable constraints, no database support, staleness
/// timeout), exactly once per query.
///
/// Modes:
///  - kIncremental: every Submit updates the unifiability graph, re-runs
///    unifier propagation over the whole affected partition (the paper's
///    "continues the matching algorithm", §5.1, which gives Figure 8 its
///    super-linear incremental curve), and evaluates the partition if all
///    of its members have matched postconditions.
///  - kSetAtATime: Submits only accumulate; Flush() matches and evaluates
///    all pending queries, one partition after another, failing those with
///    no partners.
///
/// Staleness (§5.1): Submit accepts a TTL in logical ticks; AdvanceTime()
/// expires overdue pending queries with a Timeout outcome.
///
/// Query lifetime: ids are dense, in submission order, and never reused;
/// outcome(q) stays valid for every submitted id (the outcome log is the
/// one per-submission record). Everything else the engine keeps for a
/// query (IR, graph node, index entries, body relations, deadline,
/// partition membership, variables) lives in a recycled slot while the
/// query is pending. A resolved query is retired from matching at once and
/// released, slot and all, at the start of the next Submit or at the end
/// of any entry point other than Flush — never inside Flush. Members of a
/// component are resolved, and their callbacks run (and may re-enter
/// Submit), before the component leaves the graph, so no slot may be
/// recycled while an evaluation is running; a Flush leaves all of its
/// retirees to the next entry point.
///
/// Thread model: the public API must be called from one thread.
class CoordinationEngine {
 public:
  using AnswerCallback =
      std::function<void(ir::QueryId, const QueryOutcome&)>;

  /// `ctx` must outlive the engine. `db` is the immutable snapshot the
  /// engine evaluates against — §2.3 requires the database unchanged during
  /// coordinated answering, which the snapshot enforces by construction.
  /// Accepts `const db::Database*` implicitly (freezing its current state);
  /// populate the database before constructing the engine, or hand the
  /// engine a fresh snapshot via AdoptSnapshot.
  CoordinationEngine(ir::QueryContext* ctx, db::Snapshot db,
                     EngineOptions opts = EngineOptions());

  /// Replaces the database snapshot the engine evaluates against. Call
  /// only between evaluations (never during Flush/Submit) — the service
  /// layer refreshes at batch-flush boundaries, so one coordination round
  /// always sees one consistent version. Pending queries are unaffected
  /// (matching state is query-only; the database is consulted at
  /// evaluation time).
  void AdoptSnapshot(db::Snapshot db) { db_ = std::move(db); }

  /// The snapshot currently evaluated against.
  const db::Snapshot& snapshot() const { return db_; }

  /// Registers a query built against this engine's QueryContext. Its
  /// variables must not be used by a pending query; use ir::RenameApart to
  /// instantiate templates. ttl_ticks = 0 means the query never goes
  /// stale. Ids are dense and in submission order (see next_id()).
  Result<ir::QueryId> Submit(ir::EntangledQuery query, uint64_t ttl_ticks = 0);

  /// Resolves all pending queries set-at-a-time. In incremental mode this
  /// forces resolution of the still-pending remainder (queries whose
  /// partners never arrived fail).
  Status Flush();

  /// Advances the logical clock, expiring stale pending queries.
  void AdvanceTime(uint64_t now);
  uint64_t now() const { return now_; }

  /// Data-arrival wake-up (write-triggered re-evaluation): re-examines
  /// exactly the pending partitions whose members' bodies read any of
  /// `rels`, against the current snapshot (call AdoptSnapshot first).
  /// Per affected partition: unifier propagation (with conflict repair),
  /// then evaluation iff every member is fully matched — partitions still
  /// awaiting partners or data stay pending, never fail (inserting data is
  /// monotone, so answering early is always safe; a flush keeps its
  /// fail-the-stragglers semantics). Call between evaluations only, like
  /// AdoptSnapshot.
  WakeupResult NotifyDataArrival(const std::vector<SymbolId>& rels);

  /// The database relations `q`'s body reads (sorted, unique). Valid while
  /// q is pending and inside its callback; empty otherwise. The service
  /// layer mirrors this into its relation→shard wake-up index.
  const std::vector<SymbolId>& body_relations(ir::QueryId q) const;

  /// The pending members of q's coordination partition (including q
  /// itself), sorted; empty when q is not pending. Introspection hook: the
  /// service's DumpState renders this as the entangled group a stuck query
  /// is waiting in.
  std::vector<ir::QueryId> partition_members(ir::QueryId q) const;

  /// Withdraws a still-pending query: resolves it as failed (kCancelled) and
  /// retires it from graph/partition state, so a disconnected client
  /// stops pinning its partition. In incremental mode the affected partition
  /// is re-examined — removing the canceller can unblock the survivors.
  /// Fails with NotFound for ids that are out of range or no longer pending.
  Status Cancel(ir::QueryId q);

  /// Invoked once per query when it leaves the pending state. Callbacks run
  /// synchronously inside Submit/Flush/AdvanceTime.
  void SetCallback(AnswerCallback cb) { callback_ = std::move(cb); }

  /// Replaces the grounding-preference function (§6). Takes effect on the
  /// next evaluation; the service layer uses this to start ranking lazily,
  /// once the first per-query preference spec arrives. Call from the
  /// engine's owning thread only (not during Flush).
  void SetPreference(PreferenceFn preference) {
    opts_.preference = std::move(preference);
  }

  /// Valid for any submitted id.
  const QueryOutcome& outcome(ir::QueryId q) const { return outcomes_[q]; }
  /// The id the next successful Submit returns.
  ir::QueryId next_id() const {
    return static_cast<ir::QueryId>(outcomes_.size());
  }
  size_t pending_count() const { return slot_of_.size(); }
  const EngineMetrics& metrics() const { return metrics_; }
  EngineFootprint footprint() const;

 private:
  /// A position in queries_ and slots_, held by one query from its Submit
  /// until its release, then reused. Core (graph, matcher, combiner) sees
  /// only slots; each slot's IR carries the external id in its `id` field.
  using Slot = ir::QueryId;
  using PartitionId = uint32_t;
  static constexpr PartitionId kNoPartition = UINT32_MAX;
  static constexpr Slot kNoSlot = ir::kInvalidQuery;

  /// What the engine keeps for the query in one slot, beside its IR and
  /// graph node.
  struct SlotState {
    bool pending = false;
    uint64_t deadline = 0;            // 0 = none
    std::vector<SymbolId> body_rels;  // sorted, unique
    PartitionId partition = kNoPartition;
  };

  struct Partition {
    std::vector<Slot> members;  // pending members only
  };

  /// Scoped marker for the resolution wave: every public entry point that
  /// can resolve queries sets it on entry, and Resolve() stamps the active
  /// wave into the outcome. Save/restore so nested evaluation (e.g. the
  /// incremental step inside Submit) keeps the outermost trigger. Leaving
  /// an outermost wave other than a flush releases what it retired.
  class WaveScope {
   public:
    WaveScope(CoordinationEngine* engine, QueryOutcome::Via via)
        : engine_(engine), via_(via), saved_(engine->wave_) {
      engine_->wave_ = via;
    }
    ~WaveScope() {
      engine_->wave_ = saved_;
      if (saved_ == QueryOutcome::Via::kNone &&
          via_ != QueryOutcome::Via::kFlush) {
        engine_->ReleaseRetired();
      }
    }
    WaveScope(const WaveScope&) = delete;
    WaveScope& operator=(const WaveScope&) = delete;

   private:
    CoordinationEngine* engine_;
    QueryOutcome::Via via_;
    QueryOutcome::Via saved_;
  };

  ir::QueryId IdOf(Slot s) const { return queries_.queries[s].id; }

  /// Fires the callback for the resolved query in slot `s`.
  void Notify(Slot s);

  /// Frees every retired slot for reuse: graph node and index entries, IR,
  /// variables. Runs only on the engine thread, outside Flush.
  void ReleaseRetired();

  /// Frees slot `s`'s IR, variables and state; the graph's hold on it must
  /// already be gone.
  void FreeSlot(Slot s);

  /// Merges the partitions of `q` and all its live graph neighbours.
  void AbsorbPartitions(Slot q);

  /// Re-splits a partition whose member set shrank (BFS over live edges).
  void SplitPartition(PartitionId pid);

  /// Marks a query resolved and notifies the application.
  void Resolve(Slot q, QueryOutcome outcome);

  /// Removes a resolved query from graph/partition bookkeeping.
  void Retire(Slot q);

  /// Incremental mode: evaluates any of `affected` partitions whose members
  /// all became fully matched after a removal (expiry / cancellation).
  void ReexaminePartitions(std::vector<PartitionId> affected);

  /// Bulk Retire: one partition fix-up per touched partition instead of a
  /// scan-and-split per query (a whole component retires together when it
  /// is answered or rejected, so this is the hot path of Flush).
  void RetireAll(const std::vector<Slot>& qs);

  /// Incremental step: propagate in q's partition, handling conflicts by
  /// failing the conflicted query and rebuilding, then evaluate the
  /// partition if every member is fully matched.
  void IncrementalStep(Slot q);

  /// Repeatedly runs propagation over `members`; on conflict fails the
  /// conflicted query, removes it, recomputes the survivors' unifiers and
  /// retries. Returns the members still alive.
  std::vector<Slot> PropagateWithRepair(std::vector<Slot> members);

  /// True iff every live member has all postconditions matched.
  bool PartitionReady(const std::vector<Slot>& members) const;

  /// Combines + evaluates a fully matched member set; resolves all members
  /// (answered, or failed when no global MGU / no data in set-at-a-time).
  /// In incremental mode, "no data" leaves members pending and returns
  /// false. Returns true when the members were resolved.
  bool EvaluateMembers(const std::vector<Slot>& members,
                       bool fail_on_no_data);

  /// Set-at-a-time resolution of one matched component: fails the members
  /// batch matching did not keep, then evaluates the survivors.
  void ResolveComponentBatch(const std::vector<Slot>& component,
                             std::vector<Slot> survivors);

  ir::QueryContext* ctx_;
  db::Snapshot db_;
  EngineOptions opts_;

  /// By id: the one per-submission record.
  std::vector<QueryOutcome> outcomes_;

  /// By slot: the IR (`id` = external id) and the rest of the query's
  /// state. Both only grow to the most queries held at once.
  ir::QuerySet queries_;
  std::vector<SlotState> slots_;
  std::vector<Slot> free_slots_;
  /// Slots resolved since the last release.
  std::vector<Slot> retired_;
  /// Pending ids only.
  std::unordered_map<ir::QueryId, Slot> slot_of_;
  /// The slot whose callback is running (body_relations stays valid).
  Slot in_callback_ = kNoSlot;
  /// Variables of the queries in held slots.
  std::unordered_set<ir::VarId> used_vars_;

  /// Wake-up index: body relation → pending slots reading it. Entries
  /// live exactly as long as the query is pending (inserted on Submit,
  /// erased in Resolve), so NotifyDataArrival touches only partitions a
  /// write could actually affect.
  std::unordered_map<SymbolId, std::unordered_set<Slot>> pending_by_body_rel_;

  core::UnifiabilityGraph graph_;
  core::Combiner combiner_;

  std::unordered_map<PartitionId, Partition> partitions_;
  PartitionId next_partition_ = 0;

  // Staleness: min-heap of (deadline, id). Entries of resolved queries are
  // skipped when popped, and dropped by a rebuild once they are half the
  // heap, so the heap stays bounded by the pending queries.
  using DeadlineEntry = std::pair<uint64_t, ir::QueryId>;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<>>
      deadline_heap_;
  size_t stale_deadlines_ = 0;
  uint64_t now_ = 0;

  /// The resolution wave currently executing (see WaveScope).
  QueryOutcome::Via wave_ = QueryOutcome::Via::kNone;

  AnswerCallback callback_;
  EngineMetrics metrics_;
};

}  // namespace eq::engine

#endif  // EQ_ENGINE_ENGINE_H_
