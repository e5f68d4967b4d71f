#include "db/storage.h"

#include <algorithm>

namespace eq::db {

Snapshot Storage::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked();
}

Snapshot Storage::PublishLocked() {
  uint64_t next = version_.load(std::memory_order_relaxed) + 1;
  current_ = db_.MakeRep(next);
  version_.store(next, std::memory_order_release);
  // Retain the new version in the GC history and trim whatever the
  // watermark has already passed. With no registered readers this pops
  // every superseded version immediately.
  history_.emplace_back(next, current_);
  GcLocked();
  return Snapshot(current_);
}

void Storage::GcLocked() {
  uint64_t watermark = version_.load(std::memory_order_relaxed);
  for (const auto& [id, v] : readers_) {
    (void)id;
    watermark = std::min(watermark, v);
  }
  gc_watermark_ = watermark;
  // The back of history_ is the current version — always retained, even
  // when a reader somehow reports past it.
  while (history_.size() > 1 && history_.front().first < watermark) {
    history_.pop_front();
    ++versions_retired_;
  }
}

void Storage::RegisterReader(uint64_t reader_id) {
  std::lock_guard<std::mutex> lock(mu_);
  readers_[reader_id] = 0;
  GcLocked();
}

void Storage::ReportReadVersion(uint64_t reader_id, uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = readers_.find(reader_id);
  if (it == readers_.end()) return;  // unregistered: ignore the straggler
  if (version <= it->second) return;  // monotone: stale reports ignored
  it->second = version;
  GcLocked();
}

void Storage::UnregisterReader(uint64_t reader_id) {
  std::lock_guard<std::mutex> lock(mu_);
  readers_.erase(reader_id);
  GcLocked();
}

void Storage::GcTick() {
  std::lock_guard<std::mutex> lock(mu_);
  GcLocked();
}

uint64_t Storage::gc_watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gc_watermark_;
}

uint64_t Storage::versions_retired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_retired_;
}

uint64_t Storage::retained_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_.size();
}

Snapshot Storage::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot(current_);
}

uint64_t Storage::writes_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_applied_;
}

void Storage::NoteTableChangedLocked(std::string_view table) {
  SymbolId rel = interner_->Lookup(table);
  // The table exists (the write succeeded), so its symbol does too.
  if (rel != kInvalidSymbol) {
    rel_changed_[rel] = version_.load(std::memory_order_relaxed) + 1;
  }
}

bool Storage::ChangedSince(const std::vector<SymbolId>& rels,
                           uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (SymbolId rel : rels) {
    auto it = rel_changed_.find(rel);
    if (it != rel_changed_.end() && it->second > version) return true;
  }
  return false;
}

std::vector<SymbolId> Storage::FilterChangedSince(std::vector<SymbolId> rels,
                                                  uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto unchanged = [&](SymbolId rel) {
    auto it = rel_changed_.find(rel);
    return it == rel_changed_.end() || it->second <= version;
  };
  rels.erase(std::remove_if(rels.begin(), rels.end(), unchanged),
             rels.end());
  return rels;
}

Status Storage::ExtractDelta(uint64_t since_version, uint64_t* to_version,
                             std::vector<TableReplacement>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  *to_version = version_.load(std::memory_order_relaxed);
  out->clear();
  for (const auto& [rel, changed_at] : rel_changed_) {
    if (changed_at <= since_version) continue;
    const Table* t = db_.GetTable(rel);
    if (t == nullptr) continue;  // symbol without a live table: nothing to ship
    TableReplacement rep;
    rep.table = std::string(interner_->Name(rel));
    // Ship live rows only — a follower materializes the delta as a fresh
    // compact table, so tombstones never cross the wire.
    const TableVersion& v = *t->version();
    rep.rows.reserve(v.row_count());
    for (size_t i = 0; i < v.physical_size(); ++i) {
      if (!v.row_dead(i)) rep.rows.push_back(v.row(i));
    }
    out->push_back(std::move(rep));
  }
  std::sort(out->begin(), out->end(),
            [](const TableReplacement& a, const TableReplacement& b) {
              return a.table < b.table;
            });
  return Status::OK();
}

Status Storage::ApplyReplacements(const std::vector<TableReplacement>& reps) {
  if (reps.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  // Validate the whole delta before swapping any table, so a bad frame
  // cannot leave the follower with half a delta applied.
  for (const TableReplacement& rep : reps) {
    const Table* t = db_.GetTable(rep.table);
    if (t == nullptr) {
      return Status::NotFound("replicated table '" + rep.table +
                              "' not found (bootstrap catalogs disagree)");
    }
    for (const Row& r : rep.rows) EQ_RETURN_NOT_OK(t->CheckRow(r));
  }
  for (const TableReplacement& rep : reps) {
    Table* t = db_.GetTable(rep.table);
    EQ_RETURN_NOT_OK(t->ReplaceAllRows(rep.rows));  // validated: cannot fail
    ++writes_applied_;
    NoteTableChangedLocked(rep.table);
  }
  PublishLocked();
  return Status::OK();
}

Status Storage::ApplyBatch(const std::vector<TableWrite>& writes,
                           size_t* out_rows_changed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_rows_changed != nullptr) *out_rows_changed = 0;
  // Validate everything up front so the batch is all-or-nothing: a retry
  // after a reported error cannot duplicate a previously-applied prefix.
  for (size_t i = 0; i < writes.size(); ++i) {
    const TableWrite& w = writes[i];
    const Table* t = db_.GetTable(w.table);
    if (t == nullptr) {
      return Status::NotFound("write #" + std::to_string(i) + ": table '" +
                              w.table + "' not found");
    }
    auto prefix = [&](const Status& st) {
      return Status(st.code(),
                    "write #" + std::to_string(i) + " on table '" + w.table +
                        "': " + st.message());
    };
    if (w.kind != TableWrite::Kind::kInsert) {
      Status st = w.pred.Validate(t->schema(), t->version()->order());
      if (!st.ok()) return prefix(st);
    }
    if (w.kind == TableWrite::Kind::kInsert) {
      Status st = t->CheckRow(w.row);
      if (!st.ok()) return prefix(st);
    } else if (w.kind == TableWrite::Kind::kUpdate) {
      Status st = ValidateColumnSets(t->schema(), w.sets);
      if (!st.ok()) return prefix(st);
    }
  }
  size_t rows_changed = 0;
  for (const TableWrite& w : writes) {
    Table* t = db_.GetTable(w.table);
    Status st;
    size_t affected = 0;
    switch (w.kind) {
      case TableWrite::Kind::kInsert:
        st = t->Insert(w.row);
        affected = 1;
        break;
      case TableWrite::Kind::kDelete:
        st = t->DeleteWhere(w.pred, &affected);
        break;
      case TableWrite::Kind::kUpdate:
        st = t->UpdateWhere(w.pred, w.sets, &affected);
        break;
    }
    if (!st.ok()) return st;  // unreachable after validation
    ++writes_applied_;
    if (affected > 0) {
      NoteTableChangedLocked(w.table);
      rows_changed += affected;
    }
  }
  // One publish for the whole batch: the first mutation per table copies
  // that table, the rest mutate in place in the still-private clone. A
  // batch whose every delete/update matched nothing left every
  // TableVersion untouched — skip the publish (version churn would
  // spuriously wake write-notified readers).
  if (out_rows_changed != nullptr) *out_rows_changed = rows_changed;
  if (rows_changed > 0) PublishLocked();
  return Status::OK();
}

}  // namespace eq::db
