#include "client/query.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_map>

namespace eq::client {

const char* DialectName(Dialect d) {
  switch (d) {
    case Dialect::kIr:
      return "ir";
    case Dialect::kSql:
      return "sql";
    case Dialect::kBuilder:
      return "builder";
  }
  return "?";
}

Result<ir::EntangledQuery> PortableQuery::Instantiate(
    ir::QueryContext* ctx) const {
  ir::EntangledQuery out;
  out.label = label;
  out.choose_k = choose_k;

  std::unordered_map<std::string, ir::VarId> vars;
  auto term = [&](const PortableTerm& t) -> ir::Term {
    switch (t.kind) {
      case PortableTerm::Kind::kInt:
        return ir::Term::Const(ir::Value::Int(t.number));
      case PortableTerm::Kind::kStr:
        return ir::Term::Const(ctx->StrValue(t.text));
      case PortableTerm::Kind::kVar:
        break;
    }
    auto it = vars.find(t.text);
    if (it == vars.end()) {
      it = vars.emplace(t.text, ctx->NewVar(t.text)).first;
    }
    return ir::Term::Var(it->second);
  };
  auto convert = [&](const std::vector<PortableAtom>& in,
                     std::vector<ir::Atom>* atoms,
                     bool declare_answer) -> Status {
    for (const PortableAtom& a : in) {
      SymbolId rel = ctx->Intern(a.relation);
      if (declare_answer) EQ_RETURN_NOT_OK(ctx->DeclareAnswerRelation(rel));
      std::vector<ir::Term> args;
      args.reserve(a.args.size());
      for (const PortableTerm& t : a.args) args.push_back(term(t));
      atoms->push_back(ir::Atom(rel, std::move(args)));
    }
    return Status::OK();
  };
  EQ_RETURN_NOT_OK(
      convert(postconditions, &out.postconditions, /*declare_answer=*/true));
  EQ_RETURN_NOT_OK(convert(head, &out.head, /*declare_answer=*/true));
  EQ_RETURN_NOT_OK(convert(body, &out.body, /*declare_answer=*/false));
  for (const PortableFilter& f : filters) {
    out.filters.push_back(ir::Filter{term(f.lhs), f.op, term(f.rhs)});
  }

  EQ_RETURN_NOT_OK(ir::ValidateQuery(out, ctx));
  return out;
}

namespace {

/// What validation knows about one relation: the catalog's declarations
/// plus the program's own (its heads and postconditions declare ANSWER,
/// its first use of a relation fixes the arity).
struct RelationFacts {
  std::string_view name;
  bool answer = false;
  bool database = false;
  std::optional<size_t> arity;
};

}  // namespace

Status PortableQuery::Validate(const ir::QueryContext& catalog) const {
  // The checks run in the order Instantiate + ir::ValidateQuery run them,
  // so the first failure (and its message) is the same.
  std::vector<RelationFacts> rels;
  rels.reserve(postconditions.size() + head.size() + body.size());
  auto facts = [&](const std::string& name) -> RelationFacts& {
    for (RelationFacts& r : rels) {
      if (r.name == name) return r;
    }
    RelationFacts& r = rels.emplace_back();  // no reallocation: reserved
    r.name = name;
    // Lookup, not Intern: a name the interner has never seen is unknown to
    // the catalog too.
    SymbolId sym = catalog.interner().Lookup(name);
    if (sym != kInvalidSymbol) {
      r.answer = catalog.IsAnswerRelation(sym);
      r.database = catalog.IsDatabaseRelation(sym);
      r.arity = catalog.ArityOf(sym);
    }
    return r;
  };
  auto note_arity = [&](RelationFacts& r, size_t arity) -> Status {
    if (!r.arity.has_value()) {
      r.arity = arity;
    } else if (*r.arity != arity) {
      return Status::InvalidArgument(
          "relation '" + std::string(r.name) + "' used with arity " +
          std::to_string(arity) + " but declared " + std::to_string(*r.arity));
    }
    return Status::OK();
  };

  // Instantiate: head and postcondition relations become ANSWER relations.
  for (const auto* atoms : {&postconditions, &head}) {
    for (const PortableAtom& a : *atoms) {
      RelationFacts& r = facts(a.relation);
      if (r.database) return ir::DatabaseRelationAsAnswer(a.relation);
      r.answer = true;
    }
  }

  // ir::ValidateQuery.
  if (head.empty()) {
    return Status::InvalidArgument("query '" + label +
                                   "': head must contain at least one atom");
  }
  if (choose_k < 1) {
    return Status::InvalidArgument("query '" + label +
                                   "': CHOOSE k requires k >= 1");
  }
  for (const auto* atoms : {&head, &postconditions}) {
    for (const PortableAtom& a : *atoms) {
      EQ_RETURN_NOT_OK(note_arity(facts(a.relation), a.args.size()));
    }
  }
  for (const PortableAtom& a : body) {
    RelationFacts& r = facts(a.relation);
    if (r.answer) {
      return Status::InvalidArgument("query '" + label +
                                     "': ANSWER relation '" + a.relation +
                                     "' cannot appear in the body");
    }
    EQ_RETURN_NOT_OK(note_arity(r, a.args.size()));
  }

  // Range restriction. Variables are identified by name, as in Instantiate.
  std::vector<std::string_view> body_vars;
  for (const PortableAtom& a : body) {
    for (const PortableTerm& t : a.args) {
      if (t.kind == PortableTerm::Kind::kVar) body_vars.push_back(t.text);
    }
  }
  auto bound = [&](const PortableTerm& t) {
    return t.kind != PortableTerm::Kind::kVar ||
           std::find(body_vars.begin(), body_vars.end(), t.text) !=
               body_vars.end();
  };
  for (const auto* atoms : {&head, &postconditions}) {
    for (const PortableAtom& a : *atoms) {
      for (const PortableTerm& t : a.args) {
        if (!bound(t)) {
          return Status::InvalidArgument(
              "query '" + label + "': variable '" + t.text +
              "' in head/postcondition is not range-restricted by the body");
        }
      }
    }
  }
  for (const PortableFilter& f : filters) {
    for (const PortableTerm* t : {&f.lhs, &f.rhs}) {
      if (!bound(*t)) {
        return Status::InvalidArgument("query '" + label +
                                       "': filter variable '" + t->text +
                                       "' is not bound by the body");
      }
    }
  }
  return Status::OK();
}

std::vector<std::string> PortableQuery::EntangledRelations() const {
  std::vector<std::string> rels;
  for (const auto* atoms : {&postconditions, &head}) {
    for (const PortableAtom& a : *atoms) rels.push_back(a.relation);
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  return rels;
}

namespace {

void RenderTerm(const PortableTerm& t,
                std::unordered_map<std::string, size_t>* var_index,
                std::string* out) {
  switch (t.kind) {
    case PortableTerm::Kind::kInt:
      *out += std::to_string(t.number);
      return;
    case PortableTerm::Kind::kStr: {
      // ir::Parser accepts both quote characters but no escapes: pick one
      // the payload does not contain. A constant containing both quote
      // characters is unrepresentable in the text grammar — ToIrText is
      // diagnostic only (the portable struct itself is the wire form), so
      // such payloads degrade to a best-effort rendering.
      char quote = t.text.find('\'') == std::string::npos ? '\'' : '"';
      *out += quote;
      *out += t.text;
      *out += quote;
      return;
    }
    case PortableTerm::Kind::kVar:
      break;
  }
  auto it = var_index->find(t.text);
  if (it == var_index->end()) {
    it = var_index->emplace(t.text, var_index->size()).first;
  }
  *out += "v" + std::to_string(it->second);
}

void RenderAtoms(const std::vector<PortableAtom>& atoms,
                 std::unordered_map<std::string, size_t>* var_index,
                 std::string* out) {
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += atoms[i].relation;
    *out += '(';
    for (size_t j = 0; j < atoms[i].args.size(); ++j) {
      if (j > 0) *out += ", ";
      RenderTerm(atoms[i].args[j], var_index, out);
    }
    *out += ')';
  }
}

}  // namespace

std::string PortableQuery::ToIrText() const {
  std::unordered_map<std::string, size_t> var_index;
  std::string out;
  if (!label.empty()) out += label + ": ";
  out += '{';
  RenderAtoms(postconditions, &var_index, &out);
  out += "} ";
  RenderAtoms(head, &var_index, &out);
  if (!body.empty() || !filters.empty()) {
    out += " :- ";
    RenderAtoms(body, &var_index, &out);
    for (size_t i = 0; i < filters.size(); ++i) {
      if (!body.empty() || i > 0) out += ", ";
      RenderTerm(filters[i].lhs, &var_index, &out);
      out += ' ';
      out += ir::CompareOpName(filters[i].op);
      out += ' ';
      RenderTerm(filters[i].rhs, &var_index, &out);
    }
  }
  if (choose_k != 1) out += " choose " + std::to_string(choose_k);
  return out;
}

PortableQuery FromIr(const ir::EntangledQuery& q,
                     const ir::QueryContext& ctx) {
  PortableQuery out;
  out.label = q.label;
  out.choose_k = q.choose_k;

  // Synthetic per-VarId names: display names may repeat across distinct
  // variables, so de-interning by display name could alias them.
  std::unordered_map<ir::VarId, std::string> var_names;
  auto term = [&](const ir::Term& t) -> PortableTerm {
    if (t.is_const()) {
      const ir::Value& v = t.value();
      if (v.is_int()) return PortableTerm::Int(v.AsInt());
      return PortableTerm::Str(ctx.interner().Name(v.AsStr()));
    }
    auto it = var_names.find(t.var());
    if (it == var_names.end()) {
      it = var_names
               .emplace(t.var(), "v" + std::to_string(var_names.size()))
               .first;
    }
    return PortableTerm::Var(it->second);
  };
  auto convert = [&](const std::vector<ir::Atom>& in,
                     std::vector<PortableAtom>* atoms) {
    for (const ir::Atom& a : in) {
      PortableAtom pa;
      pa.relation = ctx.interner().Name(a.relation);
      pa.args.reserve(a.args.size());
      for (const ir::Term& t : a.args) pa.args.push_back(term(t));
      atoms->push_back(std::move(pa));
    }
  };
  convert(q.postconditions, &out.postconditions);
  convert(q.head, &out.head);
  convert(q.body, &out.body);
  for (const ir::Filter& f : q.filters) {
    out.filters.push_back(PortableFilter{term(f.lhs), f.op, term(f.rhs)});
  }
  return out;
}

double PreferenceSpec::Score(
    const std::vector<ir::GroundAtom>& tuples) const {
  if (kind == Kind::kNone || tuples.empty()) return 0;
  const ir::GroundAtom& tuple = tuples.front();
  if (arg_index >= tuple.args.size() || !tuple.args[arg_index].is_int()) {
    return 0;
  }
  double x = static_cast<double>(tuple.args[arg_index].AsInt());
  return (kind == Kind::kMaximizeArg ? x : -x) * weight;
}

}  // namespace eq::client
