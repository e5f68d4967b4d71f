#include "db/table.h"

#include <algorithm>

namespace eq::db {

const std::vector<uint32_t> TableVersion::kEmptyPostings;

int Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status TableVersion::CheckRow(const Row& row) const {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        std::to_string(schema_.arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.columns[i].type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     schema_.columns[i].name + "'");
    }
  }
  return Status::OK();
}

Status TableVersion::Insert(Row row) {
  EQ_RETURN_NOT_OK(CheckRow(row));
  AppendRow(std::move(row));
  return Status::OK();
}

uint32_t TableVersion::AppendRow(Row row) {
  uint32_t id = static_cast<uint32_t>(rows_.size());
  for (size_t c = 0; c < indexed_.size(); ++c) {
    if (indexed_[c]) indexes_[c][row[c]].push_back(id);
  }
  for (size_t c = 0; c < ordered_built_.size(); ++c) {
    if (!ordered_built_[c]) continue;
    // Sorted insertion by (cell value, row id) — ids only grow, so the id
    // tie-break inserts after equal cells, keeping the order stable.
    std::vector<uint32_t>& idx = ordered_[c];
    auto pos = std::upper_bound(
        idx.begin(), idx.end(), row[c],
        [&](const ir::Value& v, uint32_t rid) {
          return ir::CompareValues(v, rows_[rid][c], order_) < 0;
        });
    idx.insert(pos, id);
  }
  rows_.push_back(std::move(row));
  dead_.push_back(0);
  return id;
}

void TableVersion::KillRow(uint32_t id) {
  dead_[id] = 1;
  ++dead_count_;
  for (size_t c = 0; c < indexed_.size(); ++c) {
    if (!indexed_[c]) continue;
    auto it = indexes_[c].find(rows_[id][c]);
    if (it == indexes_[c].end()) continue;
    std::vector<uint32_t>& postings = it->second;
    postings.erase(std::remove(postings.begin(), postings.end(), id),
                   postings.end());
  }
  for (size_t c = 0; c < ordered_built_.size(); ++c) {
    if (!ordered_built_[c]) continue;
    std::vector<uint32_t>& idx = ordered_[c];
    const ir::Value& v = rows_[id][c];
    // The span of equal cell values, then the id within it.
    auto lo = std::lower_bound(
        idx.begin(), idx.end(), v, [&](uint32_t rid, const ir::Value& b) {
          return ir::CompareValues(rows_[rid][c], b, order_) < 0;
        });
    auto hi = std::upper_bound(
        lo, idx.end(), v, [&](const ir::Value& b, uint32_t rid) {
          return ir::CompareValues(b, rows_[rid][c], order_) < 0;
        });
    auto at = std::find(lo, hi, id);
    if (at != hi) idx.erase(at);
  }
}

Status Predicate::Validate(const Schema& schema,
                           const StringInterner* order) const {
  for (const Term& t : terms) {
    if (t.col >= schema.arity()) {
      return Status::InvalidArgument("no column " + std::to_string(t.col));
    }
    if (t.value.is_null()) {
      return Status::InvalidArgument(
          "predicate on column '" + schema.columns[t.col].name +
          "' compares against NULL");
    }
    if (t.value.type() != schema.columns[t.col].type) {
      return Status::InvalidArgument(
          "type mismatch: predicate compares column '" +
          schema.columns[t.col].name + "' with a value of another type");
    }
    // Ordered string comparisons need a sorted dictionary: without the
    // interner, SymbolIds carry no lexicographic order and the comparison
    // would silently match hash-ordered rows — reject it rather than
    // corrupt data. Database-created tables always carry their interner.
    bool ordered = t.op != ir::CompareOp::kEq && t.op != ir::CompareOp::kNe;
    if (ordered && order == nullptr &&
        schema.columns[t.col].type == ir::ValueType::kString) {
      return Status::InvalidArgument(
          "ordered comparison '" + std::string(ir::CompareOpName(t.op)) +
          "' on STRING column '" + schema.columns[t.col].name +
          "' needs the table's sorted dictionary (this table has none; " +
          "only = and != compare bare interned strings meaningfully)");
    }
  }
  return Status::OK();
}

Status ValidateColumnSets(const Schema& schema,
                          const std::vector<ColumnSet>& sets) {
  if (sets.empty()) {
    return Status::InvalidArgument("update carries no SET clauses");
  }
  std::vector<bool> assigned(schema.arity(), false);
  for (const ColumnSet& s : sets) {
    if (s.col >= schema.arity()) {
      return Status::InvalidArgument("no column " + std::to_string(s.col));
    }
    if (assigned[s.col]) {
      // Last-one-wins would silently mask a typo'd column name; standard
      // SQL rejects duplicate assignment targets, so do we.
      return Status::InvalidArgument("column '" + schema.columns[s.col].name +
                                     "' assigned twice in one update");
    }
    assigned[s.col] = true;
    if (!s.value.is_null() && s.value.type() != schema.columns[s.col].type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     schema.columns[s.col].name + "'");
    }
  }
  return Status::OK();
}

const std::vector<uint32_t>* TableVersion::EqPostings(
    const Predicate& pred) const {
  for (const Predicate::Term& t : pred.terms) {
    if (t.op != ir::CompareOp::kEq || !HasIndex(t.col)) continue;
    return Probe(t.col, t.value);
  }
  return nullptr;
}

std::pair<const uint32_t*, const uint32_t*> TableVersion::CandidateSpan(
    const Predicate& pred) const {
  if (const std::vector<uint32_t>* postings = EqPostings(pred)) {
    return {postings->data(), postings->data() + postings->size()};
  }
  for (const Predicate::Term& t : pred.terms) {
    if (t.op == ir::CompareOp::kEq || t.op == ir::CompareOp::kNe) continue;
    if (!HasOrderedIndex(t.col)) continue;
    return OrderedRange(t.col, t.op, t.value);
  }
  return {nullptr, nullptr};
}

/// Collects the live row ids matching `pred`, via an index span when one
/// applies (postings never contain tombstoned ids, but the dead check also
/// guards the full-scan path). Matching BEFORE mutating matters: killing a
/// row edits the very posting lists a span may point into.
static void CollectMatches(const TableVersion& v, const Predicate& pred,
                           std::pair<const uint32_t*, const uint32_t*> span,
                           std::vector<uint32_t>* hits) {
  if (span.first != nullptr) {
    for (const uint32_t* p = span.first; p != span.second; ++p) {
      if (!v.row_dead(*p) && pred.Matches(v.row(*p), v.order())) {
        hits->push_back(*p);
      }
    }
    return;
  }
  for (uint32_t i = 0; i < v.physical_size(); ++i) {
    if (!v.row_dead(i) && pred.Matches(v.row(i), v.order())) {
      hits->push_back(i);
    }
  }
}

size_t TableVersion::DeleteWhere(const Predicate& pred) {
  std::vector<uint32_t> hits;
  CollectMatches(*this, pred, CandidateSpan(pred), &hits);
  for (uint32_t id : hits) KillRow(id);
  return hits.size();
}

size_t TableVersion::UpdateWhere(const Predicate& pred,
                                 const std::vector<ColumnSet>& sets) {
  // MVCC update: tombstone the old row, append the updated copy. Matched
  // ids are collected first — appends grow the posting lists (and the row
  // array) that matching iterates.
  std::vector<uint32_t> hits;
  CollectMatches(*this, pred, CandidateSpan(pred), &hits);
  for (uint32_t id : hits) {
    Row next = rows_[id];
    for (const ColumnSet& s : sets) next[s.col] = s.value;
    KillRow(id);
    AppendRow(std::move(next));
  }
  return hits.size();
}

bool TableVersion::AnyMatch(const Predicate& pred) const {
  auto [b, e] = CandidateSpan(pred);
  if (b != nullptr) {
    for (const uint32_t* p = b; p != e; ++p) {
      if (!row_dead(*p) && pred.Matches(rows_[*p], order_)) return true;
    }
    return false;
  }
  for (uint32_t i = 0; i < rows_.size(); ++i) {
    if (!dead_[i] && pred.Matches(rows_[i], order_)) return true;
  }
  return false;
}

void TableVersion::Compact() {
  if (dead_count_ == 0) return;
  size_t w = 0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (dead_[r]) continue;
    // Guard the prefix where nothing was dropped yet: self-move-assigning
    // a vector leaves it valid-but-unspecified (empty on libstdc++).
    if (w != r) rows_[w] = std::move(rows_[r]);
    ++w;
  }
  rows_.resize(w);
  dead_.assign(w, 0);
  dead_count_ = 0;
  RebuildIndexes();
}

void TableVersion::RebuildIndexes() {
  for (size_t c = 0; c < indexed_.size(); ++c) {
    if (indexed_[c]) BuildIndex(c);
  }
  for (size_t c = 0; c < ordered_built_.size(); ++c) {
    if (ordered_built_[c]) BuildOrderedIndex(c);
  }
}

Status TableVersion::BuildIndex(size_t col) {
  if (col >= schema_.arity()) {
    return Status::InvalidArgument("no column " + std::to_string(col));
  }
  if (indexes_.size() < schema_.arity()) {
    indexes_.resize(schema_.arity());
    indexed_.resize(schema_.arity(), false);
  }
  indexes_[col].clear();
  indexed_[col] = true;
  for (uint32_t i = 0; i < rows_.size(); ++i) {
    if (!dead_[i]) indexes_[col][rows_[i][col]].push_back(i);
  }
  return Status::OK();
}

Status TableVersion::BuildOrderedIndex(size_t col) {
  if (col >= schema_.arity()) {
    return Status::InvalidArgument("no column " + std::to_string(col));
  }
  if (schema_.columns[col].type == ir::ValueType::kString &&
      order_ == nullptr) {
    return Status::InvalidArgument(
        "ordered index on STRING column '" + schema_.columns[col].name +
        "' needs the table's sorted dictionary (this table has none)");
  }
  if (ordered_.size() < schema_.arity()) {
    ordered_.resize(schema_.arity());
    ordered_built_.resize(schema_.arity(), false);
  }
  std::vector<uint32_t>& idx = ordered_[col];
  idx.clear();
  idx.reserve(rows_.size() - dead_count_);
  for (uint32_t i = 0; i < rows_.size(); ++i) {
    if (!dead_[i]) idx.push_back(i);
  }
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    int c = ir::CompareValues(rows_[a][col], rows_[b][col], order_);
    if (c != 0) return c < 0;
    return a < b;
  });
  ordered_built_[col] = true;
  return Status::OK();
}

std::pair<const uint32_t*, const uint32_t*> TableVersion::OrderedRange(
    size_t col, ir::CompareOp op, const ir::Value& v) const {
  if (!HasOrderedIndex(col)) return {nullptr, nullptr};
  const std::vector<uint32_t>& idx = ordered_[col];
  auto cell_lt = [&](uint32_t rid, const ir::Value& b) {
    return ir::CompareValues(rows_[rid][col], b, order_) < 0;
  };
  auto val_lt = [&](const ir::Value& b, uint32_t rid) {
    return ir::CompareValues(b, rows_[rid][col], order_) < 0;
  };
  const uint32_t* base = idx.data();
  switch (op) {
    case ir::CompareOp::kLt: {
      auto hi = std::lower_bound(idx.begin(), idx.end(), v, cell_lt);
      return {base, base + (hi - idx.begin())};
    }
    case ir::CompareOp::kLe: {
      auto hi = std::upper_bound(idx.begin(), idx.end(), v, val_lt);
      return {base, base + (hi - idx.begin())};
    }
    case ir::CompareOp::kGt: {
      auto lo = std::upper_bound(idx.begin(), idx.end(), v, val_lt);
      return {base + (lo - idx.begin()), base + idx.size()};
    }
    case ir::CompareOp::kGe: {
      auto lo = std::lower_bound(idx.begin(), idx.end(), v, cell_lt);
      return {base + (lo - idx.begin()), base + idx.size()};
    }
    default:
      return {nullptr, nullptr};
  }
}

const std::vector<uint32_t>* TableVersion::Probe(size_t col,
                                          const ir::Value& v) const {
  if (!HasIndex(col)) return nullptr;
  auto it = indexes_[col].find(v);
  if (it == indexes_[col].end()) return &kEmptyPostings;
  return &it->second;
}

}  // namespace eq::db
