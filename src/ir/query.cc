#include "ir/query.h"

#include <algorithm>
#include <unordered_set>

namespace eq::ir {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

int CompareValues(const Value& a, const Value& b) {
  return CompareValues(a, b, nullptr);
}

int CompareValues(const Value& a, const Value& b,
                  const StringInterner* order) {
  if (a.type() != b.type()) {
    return a.type() < b.type() ? -1 : 1;
  }
  if (a.is_int()) {
    if (a.AsInt() != b.AsInt()) return a.AsInt() < b.AsInt() ? -1 : 1;
    return 0;
  }
  if (a == b) return 0;
  if (a.is_str() && order != nullptr) {
    return order->OrderCompare(a.AsStr(), b.AsStr());  // sorted-dictionary
  }
  return a.Hash() < b.Hash() ? -1 : 1;  // strings: arbitrary but total
}

bool EvalCompare(CompareOp op, const Value& a, const Value& b) {
  return EvalCompare(op, a, b, nullptr);
}

bool EvalCompare(CompareOp op, const Value& a, const Value& b,
                 const StringInterner* order) {
  // Equality/inequality are exact; ordered comparisons use CompareValues.
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return CompareValues(a, b, order) < 0;
    case CompareOp::kLe:
      return CompareValues(a, b, order) <= 0;
    case CompareOp::kGt:
      return CompareValues(a, b, order) > 0;
    case CompareOp::kGe:
      return CompareValues(a, b, order) >= 0;
  }
  return false;
}

VarId QueryContext::NewVar(std::string name) {
  VarId id = static_cast<VarId>(var_names_.size());
  var_names_.push_back(std::move(name));
  return id;
}

Status DatabaseRelationAsAnswer(std::string_view relation) {
  return Status::InvalidArgument(
      "relation '" + std::string(relation) +
      "' is a database table; it cannot appear in a head or postcondition");
}

Status QueryContext::DeclareAnswerRelation(SymbolId rel) {
  auto [it, inserted] = relation_kinds_.emplace(rel, RelationKind::kAnswer);
  if (!inserted && it->second == RelationKind::kDatabase) {
    return DatabaseRelationAsAnswer(interner_->Name(rel));
  }
  return Status::OK();
}

Status QueryContext::NoteArity(SymbolId rel, size_t arity) {
  auto [it, inserted] = arities_.emplace(rel, arity);
  if (!inserted && it->second != arity) {
    return Status::InvalidArgument("relation '" + interner_->Name(rel) +
                                   "' used with arity " +
                                   std::to_string(arity) + " but declared " +
                                   std::to_string(it->second));
  }
  return Status::OK();
}

std::optional<size_t> QueryContext::ArityOf(SymbolId rel) const {
  auto it = arities_.find(rel);
  if (it == arities_.end()) return std::nullopt;
  return it->second;
}

void QueryContext::AdoptMetaFrom(const QueryContext& base) {
  for (const auto& [rel, kind] : base.relation_kinds_) {
    relation_kinds_[rel] = kind;
  }
  for (const auto& [rel, arity] : base.arities_) {
    arities_.emplace(rel, arity);
  }
}

std::vector<VarId> EntangledQuery::Variables() const {
  std::vector<VarId> out;
  std::unordered_set<VarId> seen;
  auto scan = [&](const std::vector<Atom>& atoms) {
    for (const auto& a : atoms) {
      for (const auto& t : a.args) {
        if (t.is_var() && seen.insert(t.var()).second) out.push_back(t.var());
      }
    }
  };
  scan(postconditions);
  scan(head);
  scan(body);
  for (const auto& f : filters) {
    for (const Term* t : {&f.lhs, &f.rhs}) {
      if (t->is_var() && seen.insert(t->var()).second) out.push_back(t->var());
    }
  }
  return out;
}

namespace {

std::string TermToString(const Term& t, const QueryContext& ctx) {
  if (t.is_var()) return ctx.VarName(t.var());
  return t.value().ToString(ctx.interner());
}

std::string AtomListToString(const std::vector<Atom>& atoms,
                             const QueryContext& ctx) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].ToString(ctx);
  }
  return out;
}

}  // namespace

std::string Atom::ToString(const QueryContext& ctx) const {
  std::string out = ctx.interner().Name(relation);
  out += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += TermToString(args[i], ctx);
  }
  out += ")";
  return out;
}

std::string GroundAtom::ToString(const StringInterner& interner) const {
  std::string out = interner.Name(relation);
  out += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString(interner);
  }
  out += ")";
  return out;
}

std::string EntangledQuery::ToString(const QueryContext& ctx) const {
  std::string out = "{";
  out += AtomListToString(postconditions, ctx);
  out += "} ";
  out += AtomListToString(head, ctx);
  if (!body.empty() || !filters.empty()) {
    out += " :- ";
    out += AtomListToString(body, ctx);
    for (size_t i = 0; i < filters.size(); ++i) {
      if (!body.empty() || i > 0) out += ", ";
      out += TermToString(filters[i].lhs, ctx);
      out += " ";
      out += CompareOpName(filters[i].op);
      out += " ";
      out += TermToString(filters[i].rhs, ctx);
    }
  }
  if (choose_k != 1) {
    out += " choose " + std::to_string(choose_k);
  }
  return out;
}

void QuerySet::AssignIds() {
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].id = static_cast<QueryId>(i);
  }
}

Status ValidateQuery(const EntangledQuery& q, QueryContext* ctx) {
  if (q.head.empty()) {
    return Status::InvalidArgument("query '" + q.label +
                                   "': head must contain at least one atom");
  }
  if (q.choose_k < 1) {
    return Status::InvalidArgument("query '" + q.label +
                                   "': CHOOSE k requires k >= 1");
  }

  // Head and postcondition atoms must use ANSWER relations; bodies must not.
  for (const auto* atoms : {&q.head, &q.postconditions}) {
    for (const auto& a : *atoms) {
      if (!ctx->IsAnswerRelation(a.relation)) {
        return Status::InvalidArgument(
            "query '" + q.label + "': relation '" +
            ctx->interner().Name(a.relation) +
            "' used in head/postcondition but not declared ANSWER");
      }
      EQ_RETURN_NOT_OK(ctx->NoteArity(a.relation, a.arity()));
    }
  }
  for (const auto& a : q.body) {
    if (ctx->IsAnswerRelation(a.relation)) {
      return Status::InvalidArgument(
          "query '" + q.label + "': ANSWER relation '" +
          ctx->interner().Name(a.relation) + "' cannot appear in the body");
    }
    EQ_RETURN_NOT_OK(ctx->NoteArity(a.relation, a.arity()));
  }

  // Range restriction: every variable of H and C must be bound by B.
  std::unordered_set<VarId> body_vars;
  for (const auto& a : q.body) {
    for (const auto& t : a.args) {
      if (t.is_var()) body_vars.insert(t.var());
    }
  }
  for (const auto* atoms : {&q.head, &q.postconditions}) {
    for (const auto& a : *atoms) {
      for (const auto& t : a.args) {
        if (t.is_var() && !body_vars.count(t.var())) {
          return Status::InvalidArgument(
              "query '" + q.label + "': variable '" + ctx->VarName(t.var()) +
              "' in head/postcondition is not range-restricted by the body");
        }
      }
    }
  }
  // Filters may only mention body variables (they refine B).
  for (const auto& f : q.filters) {
    for (const Term* t : {&f.lhs, &f.rhs}) {
      if (t->is_var() && !body_vars.count(t->var())) {
        return Status::InvalidArgument(
            "query '" + q.label + "': filter variable '" +
            ctx->VarName(t->var()) + "' is not bound by the body");
      }
    }
  }
  return Status::OK();
}

EntangledQuery RenameApart(const EntangledQuery& q, QueryContext* ctx) {
  EntangledQuery out = q;
  std::unordered_map<VarId, VarId> fresh;
  auto rename = [&](Term& t) {
    if (!t.is_var()) return;
    auto [it, inserted] = fresh.emplace(t.var(), 0);
    if (inserted) it->second = ctx->NewVar(ctx->VarName(t.var()));
    t = Term::Var(it->second);
  };
  for (auto* atoms : {&out.postconditions, &out.head, &out.body}) {
    for (Atom& a : *atoms) {
      for (Term& t : a.args) rename(t);
    }
  }
  for (Filter& f : out.filters) {
    rename(f.lhs);
    rename(f.rhs);
  }
  return out;
}

Status ValidateQuerySet(const QuerySet& qs, QueryContext* ctx) {
  std::unordered_map<VarId, size_t> owner;
  for (size_t i = 0; i < qs.queries.size(); ++i) {
    EQ_RETURN_NOT_OK(ValidateQuery(qs.queries[i], ctx));
    for (VarId v : qs.queries[i].Variables()) {
      auto [it, inserted] = owner.emplace(v, i);
      if (!inserted && it->second != i) {
        return Status::InvalidArgument(
            "variable '" + ctx->VarName(v) + "' is shared between queries " +
            std::to_string(it->second) + " and " + std::to_string(i) +
            "; rename apart first (§4.1.3)");
      }
    }
  }
  return Status::OK();
}

}  // namespace eq::ir
