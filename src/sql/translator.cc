#include "sql/translator.h"

#include <optional>
#include <unordered_map>

#include "sql/parser.h"
#include "unify/unifier.h"

namespace eq::sql {

using ir::Atom;
using ir::EntangledQuery;
using ir::Term;
using ir::Value;
using ir::VarId;

namespace {

/// Translation state for one statement: table instances from all
/// memberships, the outer variable scope, and a substitution (a unifier)
/// accumulated from equality conditions.
class Translation {
 public:
  Translation(ir::QueryContext* ctx, const db::Snapshot* db)
      : ctx_(ctx), db_(db) {}

  Status Run(const EntangledSelect& stmt, EntangledQuery* out) {
    for (const InSubquery& m : stmt.memberships) {
      EQ_RETURN_NOT_OK(AddMembership(m));
    }

    // Head atoms: the select list into each ANSWER relation.
    std::vector<Term> select_terms;
    for (const SqlTerm& t : stmt.select_list) {
      Term term;
      EQ_RETURN_NOT_OK(OuterTerm(t, /*must_exist=*/true, &term));
      select_terms.push_back(term);
    }
    if (stmt.answer_tables.empty()) {
      return Status::ParseError("INTO requires at least one ANSWER relation");
    }
    for (const std::string& name : stmt.answer_tables) {
      SymbolId rel = ctx_->Intern(name);
      EQ_RETURN_NOT_OK(ctx_->DeclareAnswerRelation(rel));
      out->head.push_back(Atom(rel, select_terms));
    }

    // Postconditions.
    for (const InAnswer& pc : stmt.postconditions) {
      SymbolId rel = ctx_->Intern(pc.answer_table);
      EQ_RETURN_NOT_OK(ctx_->DeclareAnswerRelation(rel));
      std::vector<Term> terms;
      for (const SqlTerm& t : pc.tuple) {
        Term term;
        EQ_RETURN_NOT_OK(OuterTerm(t, /*must_exist=*/true, &term));
        terms.push_back(term);
      }
      out->postconditions.push_back(Atom(rel, std::move(terms)));
    }

    // Top-level scalar filters.
    for (const SqlComparison& cmp : stmt.filters) {
      ir::Filter f;
      EQ_RETURN_NOT_OK(OuterTerm(cmp.lhs, /*must_exist=*/true, &f.lhs));
      f.op = cmp.op;
      EQ_RETURN_NOT_OK(OuterTerm(cmp.rhs, /*must_exist=*/true, &f.rhs));
      out->filters.push_back(f);
    }

    out->body = std::move(body_);
    for (const ir::Filter& f : body_filters_) out->filters.push_back(f);
    out->choose_k = stmt.choose_k;

    // Apply the accumulated substitution (variable classes and constant
    // bindings from equality conditions) everywhere.
    for (auto* atoms : {&out->postconditions, &out->head, &out->body}) {
      for (Atom& a : *atoms) {
        for (Term& t : a.args) t = Rewrite(t);
      }
    }
    for (ir::Filter& f : out->filters) {
      f.lhs = Rewrite(f.lhs);
      f.rhs = Rewrite(f.rhs);
    }
    return CheckTypes(*out);
  }

 private:
  struct TableInstance {
    std::string alias;
    const db::TableVersion* table;
    std::vector<VarId> column_vars;
  };

  Term Rewrite(const Term& t) const {
    if (t.is_const()) return t;
    auto binding = subst_.BindingOf(t.var());
    if (binding.has_value()) return Term::Const(*binding);
    return Term::Var(subst_.Representative(t.var()));
  }

  Status AddMembership(const InSubquery& m) {
    size_t first_instance = instances_.size();
    for (const TableRef& ref : m.subquery.from) {
      const db::TableVersion* table = db_->GetTable(ref.table);
      if (table == nullptr) {
        return Status::NotFound("table '" + ref.table +
                                "' not found in the catalog");
      }
      TableInstance inst;
      inst.alias = ref.alias.empty() ? ref.table : ref.alias;
      for (const TableInstance& other : instances_) {
        if (other.alias == inst.alias) {
          return Status::InvalidArgument("duplicate table alias '" +
                                         inst.alias + "'");
        }
      }
      inst.table = table;
      for (const db::Column& col : table->schema().columns) {
        inst.column_vars.push_back(
            ctx_->NewVar(inst.alias + "." + col.name));
      }
      instances_.push_back(std::move(inst));

      // One body atom per FROM entry, all-variable args.
      SymbolId rel = ctx_->Intern(ref.table);
      std::vector<Term> args;
      for (VarId v : instances_.back().column_vars) args.push_back(Term::Var(v));
      body_.push_back(Atom(rel, std::move(args)));
    }

    for (const SqlComparison& cmp : m.subquery.where) {
      EQ_RETURN_NOT_OK(AddCondition(cmp, first_instance));
    }

    // `outer_col IN (SELECT c ...)`: equate the outer variable with the
    // selected column.
    Term sel;
    EQ_RETURN_NOT_OK(
        Resolve(m.subquery.select, first_instance, /*allow_outer=*/false, &sel));
    if (sel.is_const()) {
      // The selected column was pinned to a constant by an equality.
      EQ_RETURN_NOT_OK(BindOuter(m.outer_column, sel));
      return Status::OK();
    }
    EQ_RETURN_NOT_OK(BindOuter(m.outer_column, sel));
    return Status::OK();
  }

  Status BindOuter(const std::string& name, const Term& t) {
    auto it = outer_.find(name);
    if (it == outer_.end()) {
      if (t.is_var()) {
        outer_.emplace(name, t.var());
      } else {
        VarId v = ctx_->NewVar(name);
        outer_.emplace(name, v);
        if (!subst_.BindConst(v, t.value())) {
          return Status::InvalidArgument("conflicting constants for column '" +
                                         name + "'");
        }
      }
      return Status::OK();
    }
    bool ok = t.is_var() ? subst_.UnionVars(it->second, t.var())
                         : subst_.BindConst(it->second, t.value());
    if (!ok) {
      return Status::InvalidArgument(
          "conflicting equality constraints on column '" + name + "'");
    }
    return Status::OK();
  }

  /// Resolves a scalar term within the subquery scope starting at
  /// `first_instance`; unqualified names not found there fall through to
  /// the outer scope (correlated reference) when allow_outer is set.
  Status Resolve(const SqlTerm& t, size_t first_instance, bool allow_outer,
                 Term* out) {
    switch (t.kind) {
      case SqlTerm::Kind::kStringLit:
        *out = Term::Const(ctx_->StrValue(t.text));
        return Status::OK();
      case SqlTerm::Kind::kIntLit:
        *out = Term::Const(Value::Int(t.number));
        return Status::OK();
      case SqlTerm::Kind::kColumnRef:
        break;
    }
    // Collect every matching (instance, column). An unqualified name that
    // matches several instances is still acceptable when the accumulated
    // equality conditions place all matches in one class — the paper's own
    // example selects the bare `fno` from `Flights F, Airlines A` joined on
    // `F.fno = A.fno`.
    std::vector<VarId> matches;
    for (size_t i = first_instance; i < instances_.size(); ++i) {
      const TableInstance& inst = instances_[i];
      if (!t.qualifier.empty() && inst.alias != t.qualifier) continue;
      int idx = inst.table->schema().ColumnIndex(t.text);
      if (idx < 0) continue;
      matches.push_back(inst.column_vars[idx]);
    }
    if (matches.size() > 1) {
      for (size_t i = 1; i < matches.size(); ++i) {
        if (!subst_.SameClass(matches[0], matches[i])) {
          return Status::InvalidArgument("ambiguous column '" + t.text +
                                         "'; qualify it with a table alias");
        }
      }
    }
    if (!matches.empty()) {
      *out = Term::Var(matches[0]);
      return Status::OK();
    }
    if (!t.qualifier.empty()) {
      return Status::InvalidArgument("unknown column '" + t.qualifier + "." +
                                     t.text + "'");
    }
    if (!allow_outer) {
      return Status::InvalidArgument("unknown column '" + t.text +
                                     "' in subquery");
    }
    Term term;
    EQ_RETURN_NOT_OK(OuterTerm(SqlTerm::Column(t.text), false, &term));
    *out = term;
    return Status::OK();
  }

  /// Resolves a term in the outer scope: literals, or outer variables bound
  /// by memberships. With must_exist, unknown names are an error (they
  /// would violate range restriction); otherwise a fresh outer variable is
  /// created (correlated-subquery reference that a later membership binds).
  Status OuterTerm(const SqlTerm& t, bool must_exist, Term* out) {
    switch (t.kind) {
      case SqlTerm::Kind::kStringLit:
        *out = Term::Const(ctx_->StrValue(t.text));
        return Status::OK();
      case SqlTerm::Kind::kIntLit:
        *out = Term::Const(Value::Int(t.number));
        return Status::OK();
      case SqlTerm::Kind::kColumnRef:
        break;
    }
    if (!t.qualifier.empty()) {
      return Status::InvalidArgument(
          "qualified reference '" + t.qualifier + "." + t.text +
          "' is only valid inside a subquery");
    }
    auto it = outer_.find(t.text);
    if (it != outer_.end()) {
      *out = Term::Var(it->second);
      return Status::OK();
    }
    if (must_exist) {
      return Status::InvalidArgument(
          "column '" + t.text +
          "' is not bound by any IN-subquery membership (range restriction)");
    }
    VarId v = ctx_->NewVar(t.text);
    outer_.emplace(t.text, v);
    *out = Term::Var(v);
    return Status::OK();
  }

  Status AddCondition(const SqlComparison& cmp, size_t first_instance) {
    Term lhs, rhs;
    EQ_RETURN_NOT_OK(Resolve(cmp.lhs, first_instance, true, &lhs));
    EQ_RETURN_NOT_OK(Resolve(cmp.rhs, first_instance, true, &rhs));
    if (cmp.op == ir::CompareOp::kEq) {
      if (!subst_.UnifyTerms(lhs, rhs)) {
        return Status::InvalidArgument(
            "contradictory equality in subquery WHERE");
      }
      return Status::OK();
    }
    body_filters_.push_back(ir::Filter{lhs, cmp.op, rhs});
    return Status::OK();
  }

  /// Type-checks literals against column types after constant folding:
  /// every constant sitting in a body-atom argument must match the column's
  /// declared type (body atoms map positionally to table columns — one atom
  /// per FROM entry), and scalar comparisons must compare like types.
  Status CheckTypes(const EntangledQuery& out) const {
    std::unordered_map<VarId, ir::ValueType> var_types;
    for (size_t i = 0; i < out.body.size() && i < instances_.size(); ++i) {
      const auto& cols = instances_[i].table->schema().columns;
      const Atom& atom = out.body[i];
      for (size_t j = 0; j < atom.args.size() && j < cols.size(); ++j) {
        const Term& t = atom.args[j];
        if (t.is_var()) {
          // An equality may have unified columns of different tables into
          // one variable; they must agree on type.
          auto [it, inserted] = var_types.emplace(t.var(), cols[j].type);
          if (!inserted && it->second != cols[j].type) {
            return Status::InvalidArgument(
                "type mismatch: column '" + instances_[i].alias + "." +
                cols[j].name + "' (" + TypeName(cols[j].type) +
                ") is equated with a " + TypeName(it->second) + " column");
          }
          continue;
        }
        if (t.value().type() != cols[j].type) {
          return Status::InvalidArgument(
              "type mismatch: column '" + instances_[i].alias + "." +
              cols[j].name + "' is " + TypeName(cols[j].type) +
              " but the query compares it with a " +
              TypeName(t.value().type()) + " literal");
        }
      }
    }
    auto type_of = [&](const Term& t) -> std::optional<ir::ValueType> {
      if (t.is_const()) return t.value().type();
      auto it = var_types.find(t.var());
      if (it == var_types.end()) return std::nullopt;
      return it->second;
    };
    for (const ir::Filter& f : out.filters) {
      auto lt = type_of(f.lhs);
      auto rt = type_of(f.rhs);
      if (lt && rt && *lt != *rt) {
        return Status::InvalidArgument(
            "type mismatch: comparison '" + std::string(CompareOpName(f.op)) +
            "' between " + TypeName(*lt) + " and " + TypeName(*rt));
      }
    }
    return Status::OK();
  }

  static const char* TypeName(ir::ValueType t) {
    switch (t) {
      case ir::ValueType::kInt:
        return "INT";
      case ir::ValueType::kString:
        return "STRING";
      case ir::ValueType::kNull:
        break;
    }
    return "NULL";
  }

  ir::QueryContext* ctx_;
  const db::Snapshot* db_;
  std::vector<TableInstance> instances_;
  std::unordered_map<std::string, VarId> outer_;
  unify::Unifier subst_;
  std::vector<Atom> body_;
  std::vector<ir::Filter> body_filters_;
};

}  // namespace

Result<EntangledQuery> Translator::Translate(const EntangledSelect& stmt) {
  EntangledQuery out;
  Translation translation(ctx_, &db_);
  Status st = translation.Run(stmt, &out);
  if (!st.ok()) return st;
  EQ_RETURN_NOT_OK(ir::ValidateQuery(out, ctx_));
  return out;
}

Result<EntangledQuery> Translator::TranslateSql(std::string_view text) {
  auto stmt = ParseSql(text);
  if (!stmt.ok()) return stmt.status();
  return Translate(*stmt);
}

namespace {

/// Mirror of `a op b` ⇒ `b op' a`, for normalizing `lit op col` conjuncts
/// to column-on-the-left predicate terms.
ir::CompareOp FlipOp(ir::CompareOp op) {
  switch (op) {
    case ir::CompareOp::kLt:
      return ir::CompareOp::kGt;
    case ir::CompareOp::kLe:
      return ir::CompareOp::kGe;
    case ir::CompareOp::kGt:
      return ir::CompareOp::kLt;
    case ir::CompareOp::kGe:
      return ir::CompareOp::kLe;
    case ir::CompareOp::kEq:
    case ir::CompareOp::kNe:
      break;  // symmetric
  }
  return op;
}

}  // namespace

Result<WriteStatement> Translator::TranslateWrite(const SqlWrite& stmt) {
  const db::TableVersion* table = db_.GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table +
                            "' not found in the catalog");
  }
  const db::Schema& schema = table->schema();

  // Type-checks a literal against its target column and lowers it to a
  // Value (string literals intern through the shared interner, so the
  // produced write is portable across every owner of the catalog).
  auto lower_literal = [&](const SqlTerm& t, int col) -> Result<Value> {
    ir::ValueType want = schema.columns[static_cast<size_t>(col)].type;
    ir::ValueType got = t.kind == SqlTerm::Kind::kStringLit
                            ? ir::ValueType::kString
                            : ir::ValueType::kInt;
    if (got != want) {
      auto name = [](ir::ValueType ty) {
        return ty == ir::ValueType::kInt ? "INT" : "STRING";
      };
      return Status::InvalidArgument(
          "type mismatch: column '" + stmt.table + "." +
          schema.columns[static_cast<size_t>(col)].name + "' is " +
          name(want) + " but the statement uses a " + name(got) + " literal");
    }
    return t.kind == SqlTerm::Kind::kStringLit ? ctx_->StrValue(t.text)
                                               : Value::Int(t.number);
  };

  auto resolve_column = [&](const SqlTerm& t) -> Result<int> {
    if (!t.qualifier.empty() && t.qualifier != stmt.table) {
      return Status::InvalidArgument("unknown qualifier '" + t.qualifier +
                                     "' in a single-table write statement");
    }
    int idx = schema.ColumnIndex(t.text);
    if (idx < 0) {
      return Status::InvalidArgument("unknown column '" + t.text +
                                     "' in table '" + stmt.table + "'");
    }
    return idx;
  };

  if (stmt.kind == SqlWrite::Kind::kInsert) {
    if (stmt.values.size() != schema.arity()) {
      return Status::InvalidArgument(
          "INSERT INTO " + stmt.table + " supplies " +
          std::to_string(stmt.values.size()) + " values but the table has " +
          std::to_string(schema.arity()) + " columns");
    }
    db::Row row;
    row.reserve(stmt.values.size());
    for (size_t i = 0; i < stmt.values.size(); ++i) {
      auto v = lower_literal(stmt.values[i], static_cast<int>(i));
      if (!v.ok()) return v.status();
      row.push_back(std::move(*v));
    }
    WriteStatement out;
    out.write = db::Storage::TableWrite::Insert(stmt.table, std::move(row));
    return out;
  }

  db::Storage::TableWrite w;
  w.table = stmt.table;
  w.kind = stmt.kind == SqlWrite::Kind::kDelete
               ? db::Storage::TableWrite::Kind::kDelete
               : db::Storage::TableWrite::Kind::kUpdate;

  for (const SetClause& s : stmt.sets) {
    int idx = schema.ColumnIndex(s.column);
    if (idx < 0) {
      return Status::InvalidArgument("unknown column '" + s.column +
                                     "' in table '" + stmt.table + "'");
    }
    auto v = lower_literal(s.value, idx);
    if (!v.ok()) return v.status();
    w.sets.push_back({static_cast<size_t>(idx), *v});
  }

  for (const SqlComparison& cmp : stmt.where) {
    bool lhs_col = cmp.lhs.kind == SqlTerm::Kind::kColumnRef;
    bool rhs_col = cmp.rhs.kind == SqlTerm::Kind::kColumnRef;
    if (lhs_col == rhs_col) {
      return Status::InvalidArgument(
          "write predicates compare one column of '" + stmt.table +
          "' with one literal" +
          (lhs_col ? "; column-to-column comparisons are not supported"
                   : "; literal-to-literal comparisons are not supported"));
    }
    auto idx = resolve_column(lhs_col ? cmp.lhs : cmp.rhs);
    if (!idx.ok()) return idx.status();
    auto v = lower_literal(lhs_col ? cmp.rhs : cmp.lhs, *idx);
    if (!v.ok()) return v.status();
    w.pred.And(static_cast<size_t>(*idx),
               lhs_col ? cmp.op : FlipOp(cmp.op), std::move(*v));
  }

  // Edge-side semantic validation with the storage-layer validators (one
  // implementation): catches duplicate SET targets and — for tables
  // without a sorted dictionary — ordered comparisons on STRING columns,
  // with the same synchronous-error contract as query translation.
  // Database-owned tables carry their interner as the dictionary, so
  // `name < 'carol'` validates and evaluates lexicographically there.
  EQ_RETURN_NOT_OK(w.pred.Validate(schema, table->order()));
  if (w.kind == db::Storage::TableWrite::Kind::kUpdate) {
    EQ_RETURN_NOT_OK(db::ValidateColumnSets(schema, w.sets));
  }

  WriteStatement out;
  out.write = std::move(w);
  return out;
}

Result<WriteStatement> Translator::TranslateWriteSql(std::string_view text) {
  auto stmt = ParseWriteSql(text);
  if (!stmt.ok()) return stmt.status();
  return TranslateWrite(*stmt);
}

}  // namespace eq::sql
