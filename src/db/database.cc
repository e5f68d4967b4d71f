#include "db/database.h"

namespace eq::db {

Status Database::CreateTable(const std::string& name, Schema schema) {
  SymbolId rel = interner_->Intern(name);
  auto [it, inserted] = tables_.emplace(
      rel, Table(std::move(schema), interner_.get(), kCompactionThreshold,
                 /*ordered_indexes=*/true));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  return Status::OK();
}

Table* Database::GetTable(SymbolId rel) {
  auto it = tables_.find(rel);
  return it == tables_.end() ? nullptr : &it->second;
}

const Table* Database::GetTable(SymbolId rel) const {
  auto it = tables_.find(rel);
  return it == tables_.end() ? nullptr : &it->second;
}

Table* Database::GetTable(std::string_view name) {
  SymbolId rel = interner_->Lookup(name);
  if (rel == kInvalidSymbol) return nullptr;
  return GetTable(rel);
}

const Table* Database::GetTable(std::string_view name) const {
  SymbolId rel = interner_->Lookup(name);
  if (rel == kInvalidSymbol) return nullptr;
  return GetTable(rel);
}

Status Database::Insert(std::string_view table, Row row) {
  Table* t = GetTable(table);
  if (t == nullptr) {
    return Status::NotFound("table '" + std::string(table) + "' not found");
  }
  return t->Insert(std::move(row));
}

std::shared_ptr<const Snapshot::Rep> Database::MakeRep(
    uint64_t version) const {
  auto rep = std::make_shared<Snapshot::Rep>();
  rep->version = version;
  rep->interner = interner_;
  rep->tables.reserve(tables_.size());
  for (const auto& [rel, table] : tables_) {
    rep->tables.emplace(rel, table.version());
  }
  return rep;
}

}  // namespace eq::db
