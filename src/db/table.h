#ifndef EQ_DB_TABLE_H_
#define EQ_DB_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/query.h"
#include "ir/value.h"
#include "util/status.h"

namespace eq::db {

using Row = std::vector<ir::Value>;

/// Column description: name (for the SQL frontend) and type.
struct Column {
  std::string name;
  ir::ValueType type = ir::ValueType::kString;
};

/// A table schema: ordered list of typed, named columns.
struct Schema {
  std::vector<Column> columns;

  Schema() = default;
  /*implicit*/ Schema(std::initializer_list<Column> cols) : columns(cols) {}

  size_t arity() const { return columns.size(); }

  /// Index of the column with the given name, or -1.
  int ColumnIndex(std::string_view name) const;
};

/// A write predicate: a conjunction (AND) of per-column comparisons
/// `col <op> literal`, op ∈ {=, !=, <, <=, >, >=}. The match unit for
/// DeleteWhere/UpdateWhere — the declarative generalization of the
/// original single-column-equality match. An empty conjunction matches
/// every row (SQL `DELETE FROM t` with no WHERE).
///
/// Ordered comparisons use the same kernel as query-body filters
/// (ir::EvalCompare), so `WHERE fno < 200` means the same thing in a
/// query and in a DELETE. Ordered STRING comparisons require a
/// sorted-dictionary order — the StringInterner that owns the symbols —
/// passed as `order` to Matches/Validate: tables created through a
/// db::Database carry their interner and support `dest < 'M'` natively,
/// while a bare interner-less Table rejects ordered string comparisons at
/// Validate (SymbolIds alone have no lexicographic order). Predicates
/// are plain data: value-copyable, immutable once built, safe to share
/// across threads.
struct Predicate {
  /// One conjunct: `column <op> value`.
  struct Term {
    size_t col = 0;
    ir::CompareOp op = ir::CompareOp::kEq;
    ir::Value value;
  };

  std::vector<Term> terms;  ///< conjunction; empty = match all rows

  /// `col = v` — the classic single-column match.
  static Predicate Eq(size_t col, ir::Value v) {
    Predicate p;
    p.terms.push_back({col, ir::CompareOp::kEq, std::move(v)});
    return p;
  }

  /// Appends a conjunct (builder style): `Predicate::Eq(0, a).And(1, kLt, b)`.
  Predicate& And(size_t col, ir::CompareOp op, ir::Value v) {
    terms.push_back({col, op, std::move(v)});
    return *this;
  }

  bool empty() const { return terms.empty(); }

  /// True iff every conjunct holds for `row`. `row` must satisfy the schema
  /// this predicate was validated against. SQL NULL semantics: a NULL cell
  /// satisfies no comparison (not even !=) — without this guard the
  /// type-tag ordering in ir::CompareValues would make NULL compare less
  /// than every value and silently match range predicates. A row with
  /// NULL cells is still matched by the empty conjunction (bare
  /// `DELETE FROM t` really does clear the table).
  bool Matches(const Row& row, const StringInterner* order = nullptr) const {
    for (const Term& t : terms) {
      if (row[t.col].is_null()) return false;
      if (!ir::EvalCompare(t.op, row[t.col], t.value, order)) return false;
    }
    return true;
  }

  /// Checks every conjunct against `schema`: column in range, literal
  /// non-null and of the column's declared type. Ordered comparisons on
  /// STRING columns additionally require a sorted-dictionary `order` (the
  /// interner) — without one they are rejected rather than silently
  /// matching hash-ordered rows. Run BEFORE any CoW clone so an invalid
  /// predicate never copies a table.
  Status Validate(const Schema& schema,
                  const StringInterner* order = nullptr) const;
};

/// One SQL SET clause: assign `value` to `col` in every matched row.
struct ColumnSet {
  size_t col = 0;
  ir::Value value;
};

/// Checks SET clauses against `schema`: at least one clause, column in
/// range, no column assigned twice, value type matching the column (NULL
/// allowed, mirroring Insert's CheckRow).
Status ValidateColumnSets(const Schema& schema,
                          const std::vector<ColumnSet>& sets);

/// One immutable version of an in-memory row-store table: rows plus
/// optional per-column hash and ordered indexes, with tombstoned deletes.
///
/// This is the storage substrate for combined-query evaluation — the role
/// MySQL played in the paper's experiments (§5.1). A version is mutable
/// only while it is exclusively owned (bootstrap, or the private copy a
/// write makes); once published inside a db::Snapshot it is shared
/// immutably via shared_ptr across every reader (§2.3: the database must
/// not change during coordinated answering). Copy-construction deep-copies
/// rows and indexes — the unit of copy-on-write is the whole table.
///
/// Tombstones: DeleteWhere/UpdateWhere mark rows dead instead of erasing
/// them, and patch only the touched posting lists — no physical compaction
/// and no full index rebuild per write. Physical row ids therefore stay
/// stable between compactions, and indexes reference live rows only.
/// Readers that iterate physically (`physical_size()` + `row(i)`) must
/// skip `row_dead(i)` rows; `row_count()` reports live rows. Compact()
/// erases the dead rows for real (the CoW handle triggers it once
/// `dead_fraction()` crosses its compaction threshold).
class TableVersion {
 public:
  /// `order` is the sorted-dictionary for this table's interned strings —
  /// non-owning; the Database that creates the table guarantees the
  /// interner outlives every version (snapshots share ownership of it).
  /// A null order means ordered string comparisons are unsupported here.
  explicit TableVersion(Schema schema, const StringInterner* order = nullptr)
      : schema_(std::move(schema)), order_(order) {}
  TableVersion(const TableVersion&) = default;

  const Schema& schema() const { return schema_; }
  /// Live (non-tombstoned) rows — the logical table size.
  size_t row_count() const { return rows_.size() - dead_count_; }
  /// Physical slots, dead included — the bound for row(i) iteration.
  size_t physical_size() const { return rows_.size(); }
  const Row& row(size_t i) const { return rows_[i]; }
  bool row_dead(size_t i) const { return dead_[i] != 0; }
  size_t dead_count() const { return dead_count_; }
  /// Dead fraction of the physical row array (0 when empty).
  double dead_fraction() const {
    return rows_.empty()
               ? 0.0
               : static_cast<double>(dead_count_) /
                     static_cast<double>(rows_.size());
  }
  /// The sorted-dictionary order for string cells (null for bare tables).
  const StringInterner* order() const { return order_; }

  /// Validates `row` against the schema (arity, per-column types) without
  /// inserting. Exactly the checks Insert performs.
  Status CheckRow(const Row& row) const;

  /// Appends a row after arity/type checking. Maintains any built indexes
  /// (hash postings appended, ordered postings sorted-inserted).
  /// Only valid while this version is exclusively owned.
  Status Insert(Row row);

  /// Tombstones every row matching `pred` and unlinks it from every built
  /// index (postings are patched, not rebuilt). An indexed `=` conjunct —
  /// or an ordered conjunct over an ordered-indexed column — narrows the
  /// scan to its candidates. Returns the number of rows removed.
  /// Only valid while this version is exclusively owned.
  size_t DeleteWhere(const Predicate& pred);

  /// Applies `sets` to every row matching `pred` (the SQL UPDATE ... SET
  /// semantics; `sets` must already be schema-checked) MVCC-style: the old
  /// row is tombstoned and the updated copy appended, with both ends
  /// patched into the built indexes — no full rebuild. Returns the number
  /// of rows updated. Only valid while this version is exclusively owned.
  size_t UpdateWhere(const Predicate& pred, const std::vector<ColumnSet>& sets);

  /// True iff some live row matches `pred` (probing the index of an
  /// indexed `=` conjunct when available, linear scan otherwise).
  /// Read-only: lets the CoW handle skip the clone for a delete/update
  /// that would touch nothing.
  bool AnyMatch(const Predicate& pred) const;

  /// Single-column-equality convenience: AnyMatch(col = v).
  bool AnyMatch(size_t col, const ir::Value& v) const {
    return AnyMatch(Predicate::Eq(col, v));
  }

  /// Physically erases tombstoned rows (stable order) and rebuilds every
  /// built index (erasure shifts row ids). The deferred half of the
  /// tombstone design; triggered by the CoW handle's threshold.
  /// Only valid while this version is exclusively owned.
  void Compact();

  /// Builds (or rebuilds) a hash index on `col`; kept up to date by Insert.
  /// Only valid while this version is exclusively owned.
  Status BuildIndex(size_t col);

  bool HasIndex(size_t col) const {
    return col < indexed_.size() && indexed_[col];
  }

  /// Builds (or rebuilds) an ordered index on `col`: row ids sorted by the
  /// cell value (sorted-dictionary order for strings — requires order()).
  /// Kept up to date by Insert/DeleteWhere/UpdateWhere.
  /// Only valid while this version is exclusively owned.
  Status BuildOrderedIndex(size_t col);

  bool HasOrderedIndex(size_t col) const {
    return col < ordered_built_.size() && ordered_built_[col];
  }

  /// Row ids whose `col` equals `v`. Requires HasIndex(col); returns a
  /// pointer to an empty vector when no rows match.
  const std::vector<uint32_t>* Probe(size_t col, const ir::Value& v) const;

  /// Row ids of live rows satisfying `col <op> v` for an ordered op
  /// (<, <=, >, >=), as a contiguous span of the ordered index. Requires
  /// HasOrderedIndex(col); {nullptr, nullptr} for non-range ops.
  std::pair<const uint32_t*, const uint32_t*> OrderedRange(
      size_t col, ir::CompareOp op, const ir::Value& v) const;

 private:
  using HashIndex =
      std::unordered_map<ir::Value, std::vector<uint32_t>, ir::ValueHash>;

  static const std::vector<uint32_t> kEmptyPostings;

  /// Recomputes every built index from the current rows (after compaction
  /// or replication replaced the row array).
  void RebuildIndexes();

  /// Candidate row ids that could match `pred`: postings of an indexed `=`
  /// conjunct, else the ordered-index span of an ordered conjunct; a null
  /// span when no index applies (callers fall back to the full scan). The
  /// shared fast path of AnyMatch/DeleteWhere/UpdateWhere.
  std::pair<const uint32_t*, const uint32_t*> CandidateSpan(
      const Predicate& pred) const;

  /// Postings of the first `=` conjunct over an indexed column, or nullptr
  /// when no conjunct can use an index.
  const std::vector<uint32_t>* EqPostings(const Predicate& pred) const;

  /// Appends an already-validated row, wiring it into every built index.
  uint32_t AppendRow(Row row);

  /// Tombstones row `id` and unlinks it from every built index.
  void KillRow(uint32_t id);

  Schema schema_;
  const StringInterner* order_ = nullptr;  // sorted-dictionary (may be null)
  std::vector<Row> rows_;
  std::vector<uint8_t> dead_;  // parallel to rows_: 1 = tombstoned
  size_t dead_count_ = 0;
  std::vector<HashIndex> indexes_;  // parallel to columns once any index built
  std::vector<bool> indexed_;       // which columns have a hash index
  /// Ordered indexes: per column, live row ids sorted by cell value (ties
  /// by row id, so the order is total and deterministic).
  std::vector<std::vector<uint32_t>> ordered_;
  std::vector<bool> ordered_built_;
};

/// A cheap handle to the current version of one table.
///
/// Reads pass through to the version; mutations are copy-on-write — if the
/// version is shared (held by a published db::Snapshot, or by any other
/// handle), the mutation first clones it, so snapshot readers keep seeing
/// the version they captured. While the version is exclusively owned
/// (bootstrap fill, repeated writes between publishes) mutation is
/// in-place, exactly like the pre-versioned Table.
///
/// Thread model: a Table handle is single-writer (db::Storage serializes
/// writes); concurrent readers must read via db::Snapshot, never through a
/// handle another thread may mutate.
///
/// Write invariants every mutation path upholds (callers — and the
/// no-publish logic in db::Storage — rely on both):
///  - validate BEFORE clone: a write rejected by validation (bad row, bad
///    predicate, bad SET clause) never copies the table and never
///    perturbs version pointer identity for readers;
///  - no match, no clone: a delete/update whose predicate matches nothing
///    is a no-op — AnyMatch runs against the shared version first.
class Table {
 public:
  explicit Table(Schema schema)
      : v_(std::make_shared<TableVersion>(std::move(schema))) {}

  /// Database-created tables carry the sorted-dictionary `order` (enables
  /// ordered string predicates and ordered indexes), a compaction
  /// threshold (tombstoned fraction that triggers Compact() — <= 0 means
  /// compact eagerly on every delete/update, the pre-tombstone behavior),
  /// and whether BuildIndex should pair each hash index with an ordered
  /// index.
  Table(Schema schema, const StringInterner* order,
        double compaction_threshold, bool ordered_indexes)
      : v_(std::make_shared<TableVersion>(std::move(schema), order)),
        compaction_threshold_(compaction_threshold),
        ordered_indexes_(ordered_indexes) {}

  const Schema& schema() const { return v_->schema(); }
  size_t row_count() const { return v_->row_count(); }
  const Row& row(size_t i) const { return v_->row(i); }

  /// Validates without inserting (and without triggering a copy).
  Status CheckRow(const Row& row) const { return v_->CheckRow(row); }

  /// Appends a row after arity/type checking (copy-on-write when shared).
  /// Validates BEFORE the CoW clone, so a rejected row never copies the
  /// table (or perturbs version pointer identity for readers).
  Status Insert(Row row) {
    Status st = v_->CheckRow(row);
    if (!st.ok()) return st;
    return Mutable()->Insert(std::move(row));
  }

  /// Removes every row matching `pred` (copy-on-write when shared).
  /// Validates the predicate — and checks that anything matches — BEFORE
  /// the CoW clone, so an invalid or no-op delete never copies the table
  /// or perturbs version pointer identity for readers. `removed`
  /// (optional) receives the row count.
  Status DeleteWhere(const Predicate& pred, size_t* removed = nullptr) {
    if (removed != nullptr) *removed = 0;
    Status st = pred.Validate(v_->schema(), v_->order());
    if (!st.ok()) return st;
    if (!v_->AnyMatch(pred)) return Status::OK();
    size_t n = Mutable()->DeleteWhere(pred);
    MaybeCompact();
    if (removed != nullptr) *removed = n;
    return Status::OK();
  }

  /// Applies `sets` to every row matching `pred` (copy-on-write when
  /// shared) — SQL UPDATE ... SET semantics. Predicate and SET clauses
  /// are validated up front; a match-less update never clones.
  Status UpdateWhere(const Predicate& pred, const std::vector<ColumnSet>& sets,
                     size_t* updated = nullptr) {
    if (updated != nullptr) *updated = 0;
    Status st = pred.Validate(v_->schema(), v_->order());
    if (!st.ok()) return st;
    st = ValidateColumnSets(v_->schema(), sets);
    if (!st.ok()) return st;
    if (!v_->AnyMatch(pred)) return Status::OK();
    size_t n = Mutable()->UpdateWhere(pred, sets);
    MaybeCompact();
    if (updated != nullptr) *updated = n;
    return Status::OK();
  }

  /// Replaces the table's entire contents with `rows` (schema unchanged,
  /// index configuration preserved) — the follower side of snapshot delta
  /// replication: the storage owner ships whole touched tables, and the
  /// follower swaps each one in atomically. Rows are validated before any
  /// state changes, and the swap installs a fresh TableVersion rather than
  /// mutating in place, so snapshot readers keep the version they captured.
  Status ReplaceAllRows(std::vector<Row> rows) {
    for (const Row& r : rows) {
      Status st = v_->CheckRow(r);
      if (!st.ok()) return st;
    }
    auto next = std::make_shared<TableVersion>(v_->schema(), v_->order());
    for (size_t c = 0; c < v_->schema().arity(); ++c) {
      if (v_->HasIndex(c)) {
        Status st = next->BuildIndex(c);
        if (!st.ok()) return st;
      }
      if (v_->HasOrderedIndex(c)) {
        Status st = next->BuildOrderedIndex(c);
        if (!st.ok()) return st;
      }
    }
    for (Row& r : rows) {
      Status st = next->Insert(std::move(r));
      if (!st.ok()) return st;
    }
    v_ = std::move(next);
    return Status::OK();
  }

  /// Builds (or rebuilds) a hash index on `col` (copy-on-write when
  /// shared). Database-created tables with ordered indexing enabled pair
  /// it with an ordered index on the same column, so every bootstrap-built
  /// index also answers range probes.
  Status BuildIndex(size_t col) {
    if (col >= v_->schema().arity()) {
      return Status::InvalidArgument("no column " + std::to_string(col));
    }
    EQ_RETURN_NOT_OK(Mutable()->BuildIndex(col));
    if (ordered_indexes_) return Mutable()->BuildOrderedIndex(col);
    return Status::OK();
  }

  /// Builds (or rebuilds) just the ordered index on `col`.
  Status BuildOrderedIndex(size_t col) {
    if (col >= v_->schema().arity()) {
      return Status::InvalidArgument("no column " + std::to_string(col));
    }
    return Mutable()->BuildOrderedIndex(col);
  }

  bool HasIndex(size_t col) const { return v_->HasIndex(col); }
  bool HasOrderedIndex(size_t col) const { return v_->HasOrderedIndex(col); }

  const std::vector<uint32_t>* Probe(size_t col, const ir::Value& v) const {
    return v_->Probe(col, v);
  }

  /// The tombstoned fraction that triggers physical compaction after a
  /// delete/update (<= 0: compact eagerly, the pre-tombstone behavior).
  double compaction_threshold() const { return compaction_threshold_; }
  void set_compaction_threshold(double t) { compaction_threshold_ = t; }

  /// The current version, shareable with snapshots.
  std::shared_ptr<const TableVersion> version() const { return v_; }

 private:
  TableVersion* Mutable() {
    // A version is reachable by readers iff some snapshot Rep holds a
    // strong reference, so use_count > 1 ⇒ clone before mutating. The
    // fresh clone is invisible to readers until the next publish, so
    // further mutations before that publish stay in place.
    if (v_.use_count() != 1) v_ = std::make_shared<TableVersion>(*v_);
    return v_.get();
  }

  /// Deferred compaction: physically erase tombstones once they cross the
  /// threshold. Runs right after a mutation, so v_ is already exclusively
  /// owned — Mutable() is a plain pointer fetch, never a second clone.
  void MaybeCompact() {
    if (v_->dead_count() == 0) return;
    if (compaction_threshold_ > 0.0 &&
        v_->dead_fraction() < compaction_threshold_) {
      return;
    }
    Mutable()->Compact();
  }

  std::shared_ptr<TableVersion> v_;
  double compaction_threshold_ = 0.0;  // bare tables compact eagerly
  bool ordered_indexes_ = false;
};

}  // namespace eq::db

#endif  // EQ_DB_TABLE_H_
