#ifndef EQ_DB_STORAGE_H_
#define EQ_DB_STORAGE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "db/snapshot.h"
#include "util/interner.h"
#include "util/status.h"

namespace eq::db {

/// The versioned, copy-on-write owner of the database: builds the catalog
/// once, publishes numbered immutable Snapshots, and ingests live writes.
///
/// Life cycle:
///   1. Build phase — fill `*mutable_db()` (CreateTable / Insert /
///      BuildIndex; the service runs its SnapshotBootstrap here, exactly
///      once for the whole process).
///   2. Publish() — freezes the state as version 1; every reader (shard)
///      grabs Current() and shares the same TableVersion objects.
///   3. ApplyBatch — copy only the touched tables (CoW via the Table
///      handles), then publish the next version. Readers holding
///      older snapshots are undisturbed; a version dies when the last
///      snapshot referencing it is dropped.
///
/// Thread model: mutable_db() is build-phase only (single-threaded, before
/// the first Publish). ApplyBatch/Current/version are safe from any
/// thread (serialized on an internal mutex). Snapshots handed out are
/// immutable and safe to read without synchronization.
class Storage {
 public:
  explicit Storage(std::shared_ptr<StringInterner> interner)
      : interner_(std::move(interner)), db_(interner_) {}

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Build-phase access to the underlying catalog. Must not be used after
  /// the first Publish() once readers exist.
  Database* mutable_db() { return &db_; }

  const std::shared_ptr<StringInterner>& interner_ptr() const {
    return interner_;
  }
  StringInterner& interner() { return *interner_; }

  /// Publishes the current state as the next numbered version and returns
  /// its snapshot.
  Snapshot Publish();

  /// The latest published snapshot (empty Snapshot if never published).
  Snapshot Current() const;

  /// The latest published version number (0 if never published).
  /// Lock-free: safe on hot paths (the shard submit path compares it to
  /// its adopted snapshot before doing any locked work).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// One write operation destined for one table: Insert(row),
  /// Delete(pred) or Update(pred, sets). Deletes and updates match rows
  /// with a db::Predicate — a conjunction of per-column comparisons
  /// (Predicate::Eq builds the one-conjunct equality). Updates apply SQL
  /// `UPDATE ... SET` clauses; `sets` must be non-empty. CoW keeps every
  /// published snapshot on the version it captured.
  struct TableWrite {
    enum class Kind : uint8_t { kInsert, kDelete, kUpdate };

    std::string table;
    Row row;  ///< kInsert: the row to append
    Kind kind = Kind::kInsert;
    Predicate pred;               ///< kDelete / kUpdate: which rows match
    std::vector<ColumnSet> sets;  ///< kUpdate: per-column assignments

    static TableWrite Insert(std::string table, Row row) {
      return {std::move(table), std::move(row), Kind::kInsert, {}, {}};
    }
    static TableWrite Delete(std::string table, Predicate pred) {
      return {std::move(table), {}, Kind::kDelete, std::move(pred), {}};
    }
    static TableWrite Update(std::string table, Predicate pred,
                             std::vector<ColumnSet> sets) {
      return {std::move(table), {}, Kind::kUpdate, std::move(pred),
              std::move(sets)};
    }
  };

  /// The one write call: applies all writes (inserts, deletes, updates, in
  /// order) atomically, then publishes once — or not at all, if every
  /// delete/update matched zero rows and nothing was inserted (no version
  /// churn for a no-op batch). Only the touched tables are copied (and
  /// only if a published snapshot still shares them); untouched tables
  /// are shared with the previous version. The whole batch is validated
  /// first (table existence, predicate, arity, per-column types, non-empty
  /// SET clauses): on a bad write NOTHING is applied or published, and the
  /// returned error names the offending write's index so the client can
  /// fix and safely retry the batch. `rows_changed` (optional) receives
  /// the total rows inserted, removed or updated.
  Status ApplyBatch(const std::vector<TableWrite>& writes,
                    size_t* rows_changed = nullptr);

  /// Write operations applied since construction (monotone counter;
  /// metrics). Counts every op, including deletes/updates matching zero
  /// rows inside a batch.
  uint64_t writes_applied() const;

  /// True iff any of `rels` (table symbols) changed in a version newer
  /// than `version`. Lets a reader holding an older snapshot decide
  /// whether the relations IT cares about actually moved, instead of
  /// reacting to every unrelated publish. Relations never written since
  /// the build phase report false (the bootstrap state is in version 1,
  /// which every reader starts from).
  bool ChangedSince(const std::vector<SymbolId>& rels,
                    uint64_t version) const;

  /// The subset of `rels` that changed in a version newer than `version`
  /// (order preserved; one lock acquisition for the whole set).
  std::vector<SymbolId> FilterChangedSince(std::vector<SymbolId> rels,
                                           uint64_t version) const;

  /// One whole-table payload of a replication delta: the full row set of a
  /// table that changed after the follower's last-applied version. Whole
  /// touched tables (not row diffs) are the delta unit because the CoW
  /// write path already copies at table granularity.
  struct TableReplacement {
    std::string table;
    std::vector<Row> rows;
  };

  /// Delta extraction for replication: the full current contents of every
  /// table that changed in a version newer than `since_version`, plus the
  /// head version the delta brings a follower up to. Tables are sorted by
  /// name (deterministic frames). One lock acquisition: the row copies and
  /// `*to_version` are one consistent observation.
  Status ExtractDelta(uint64_t since_version, uint64_t* to_version,
                      std::vector<TableReplacement>* out) const;

  /// Follower-side delta application: atomically replaces the contents of
  /// each named table (schema and index configuration are preserved — the
  /// catalogs agree by the bootstrap contract) and publishes one new
  /// version. Row cells must already be interned in THIS storage's
  /// interner (the cluster layer remaps shipped SymbolIds first). Fails
  /// without applying anything if a table is unknown or a row fails
  /// schema validation.
  Status ApplyReplacements(const std::vector<TableReplacement>& reps);

  // ------------------------------------------------------ version GC ------
  //
  // Every published version is retained in a bounded history until the
  // GC watermark — the minimum read-version across registered readers —
  // passes it. Each shard registers itself and reports the version of the
  // snapshot it evaluates against (cluster followers are registered by the
  // storage owner and reported via the delta/ack path), so superseded
  // TableVersions are released eagerly instead of living until their last
  // reader happens to drop them. With no readers registered the watermark
  // is the current version and GC is immediate (the pre-watermark
  // behavior for standalone storages).

  /// Registers a reader that will report its read-version. The reader is
  /// assumed to read version 0 (i.e. nothing can be collected) until its
  /// first ReportReadVersion. Re-registering an id resets it to 0.
  void RegisterReader(uint64_t reader_id);

  /// Reports the version `reader_id` currently reads at, and runs GC
  /// inline (a rising minimum is exactly when history can shrink).
  /// Reports are monotone: a stale out-of-order report is ignored.
  void ReportReadVersion(uint64_t reader_id, uint64_t version);

  /// Drops the reader from the watermark computation (shard shutdown,
  /// peer removal) and runs GC inline.
  void UnregisterReader(uint64_t reader_id);

  /// Recomputes the watermark and releases history below it. Publishes and
  /// reports already GC inline; this is the explicit safety net for
  /// callers that want one, and the test hook.
  void GcTick();

  /// The last computed watermark (min read-version across readers at the
  /// most recent GC; 0 before the first publish).
  uint64_t gc_watermark() const;

  /// Superseded versions released by watermark GC since construction.
  uint64_t versions_retired() const;

  /// Published versions currently retained (history length; the newest
  /// published version always counts).
  uint64_t retained_versions() const;

 private:
  Snapshot PublishLocked();
  /// Records that `table` changed in the version the NEXT PublishLocked
  /// publishes. Caller holds mu_ and publishes afterwards.
  void NoteTableChangedLocked(std::string_view table);
  /// Recomputes the watermark from readers_ and pops history below it.
  void GcLocked();

  mutable std::mutex mu_;
  std::shared_ptr<StringInterner> interner_;
  Database db_;
  /// Written under mu_ (publish), read lock-free by version(). The mutex
  /// chains publishing happens-before any reader that synchronized on the
  /// wake-up index, so release/acquire is enough for the race-closure
  /// protocol in ShardRunner::HandleSubmit.
  std::atomic<uint64_t> version_{0};
  uint64_t writes_applied_ = 0;
  /// Table symbol → last version that changed it (see ChangedSince).
  std::unordered_map<SymbolId, uint64_t> rel_changed_;
  std::shared_ptr<const Snapshot::Rep> current_;
  /// Published versions retained for readers below the watermark, oldest
  /// first; the back is always the current version.
  std::deque<std::pair<uint64_t, std::shared_ptr<const Snapshot::Rep>>>
      history_;
  std::unordered_map<uint64_t, uint64_t> readers_;  // reader id → version
  uint64_t gc_watermark_ = 0;
  uint64_t versions_retired_ = 0;
};

}  // namespace eq::db

#endif  // EQ_DB_STORAGE_H_
