#ifndef EQ_DB_DATABASE_H_
#define EQ_DB_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "db/snapshot.h"
#include "db/table.h"
#include "util/interner.h"
#include "util/status.h"

namespace eq::db {

/// The catalog: maps relation symbols to tables.
///
/// The database shares a StringInterner with the ir::QueryContext of the
/// workload, so string constants in queries and string cells in tables are
/// the same SymbolIds and compare as integers.
///
/// Thread model: mutation (CreateTable / Insert / BuildIndex) must be
/// externally serialized. Concurrent read-only evaluation happens through
/// immutable Snapshots (see snapshot()); reading through Table handles
/// concurrently with mutation is not safe — db::Storage is the
/// multi-threaded owner that enforces this.
class Database {
 public:
  /// Non-owning: `interner` must outlive the database AND any Snapshot
  /// taken from it (snapshots reference the interner to resolve names;
  /// the classic QueryContext-owned layout keeps everything in one
  /// scope, which satisfies this naturally). Use the shared_ptr overload
  /// when snapshots may escape the interner's scope — db::Storage does.
  explicit Database(StringInterner* interner)
      : interner_(std::shared_ptr<StringInterner>(std::shared_ptr<void>(),
                                                  interner)) {}

  /// Owning/shared: keeps the interner alive as long as the database and
  /// any snapshot taken from it.
  explicit Database(std::shared_ptr<StringInterner> interner)
      : interner_(std::move(interner)) {}

  StringInterner& interner() { return *interner_; }
  const StringInterner& interner() const { return *interner_; }

  /// Creates an empty table. Fails if the name is taken. The table carries
  /// this database's interner as its sorted dictionary (ordered string
  /// predicates work), builds an ordered index alongside every hash index
  /// (range-predicate fast paths), and defers compaction until
  /// kCompactionThreshold of its rows are dead: deletes/updates patch
  /// postings instead of rebuilding on every write.
  Status CreateTable(const std::string& name, Schema schema);

  /// Tombstoned-row fraction that triggers physical compaction in catalog
  /// tables (deferred compaction measured ~1.6x faster than eager on
  /// delete churn).
  static constexpr double kCompactionThreshold = 0.3;

  /// Table by relation symbol; nullptr if absent.
  Table* GetTable(SymbolId rel);
  const Table* GetTable(SymbolId rel) const;

  /// Table by name; nullptr if absent.
  Table* GetTable(std::string_view name);
  const Table* GetTable(std::string_view name) const;

  /// Convenience: inserts a row built from interned strings / ints according
  /// to the table schema. Mostly used by tests and workload loaders.
  Status Insert(std::string_view table, Row row);

  size_t table_count() const { return tables_.size(); }

  /// Freezes the current state as an immutable Snapshot (version 0).
  /// Cheap: shares the current TableVersions; a later mutation of this
  /// database copies the touched table (CoW) instead of disturbing the
  /// snapshot.
  Snapshot snapshot() const { return Snapshot(MakeRep(0)); }

 private:
  friend class Snapshot;
  friend class Storage;

  std::shared_ptr<const Snapshot::Rep> MakeRep(uint64_t version) const;

  std::shared_ptr<StringInterner> interner_;
  std::unordered_map<SymbolId, Table> tables_;
};

}  // namespace eq::db

#endif  // EQ_DB_DATABASE_H_
