#include "core/combiner.h"

#include <algorithm>

namespace eq::core {

using ir::Atom;
using ir::EntangledQuery;
using ir::GroundAtom;
using ir::QueryId;
using ir::Term;
using ir::Value;
using unify::MergeResult;
using unify::Unifier;

Term Combiner::Rewrite(const Unifier& u, const Term& t) const {
  if (t.is_const()) return t;
  auto binding = u.BindingOf(t.var());
  if (binding.has_value()) return Term::Const(*binding);
  return Term::Var(u.Representative(t.var()));
}

Atom Combiner::Rewrite(const Unifier& u, const Atom& a) const {
  Atom out;
  out.relation = a.relation;
  out.args.reserve(a.args.size());
  for (const Term& t : a.args) out.args.push_back(Rewrite(u, t));
  return out;
}

Result<CombinedQuery> Combiner::Combine(
    const UnifiabilityGraph& graph,
    const std::vector<QueryId>& members) const {
  CombinedQuery cq;
  cq.members = members;
  // Ordered by query id, which need not be the position (see
  // UnifiabilityGraph); positions break ties between unset ids.
  std::sort(cq.members.begin(), cq.members.end(),
            [this](QueryId a, QueryId b) {
              QueryId ia = queries_->queries[a].id;
              QueryId ib = queries_->queries[b].id;
              return ia != ib ? ia < ib : a < b;
            });

  // Global unifier U = mgu({U(q_i)}).
  for (QueryId q : cq.members) {
    if (graph.node(q).unifier.var_count() == 0) continue;
    if (cq.global.MergeFrom(graph.node(q).unifier) == MergeResult::kConflict) {
      return Status::Unsatisfiable(
          "no global MGU exists for the matched component containing query " +
          std::to_string(queries_->queries[q].id));
    }
  }

  // q*: conjunction of all bodies and heads, rewritten through U (the φU
  // equalities are applied by substitution — §4.2's simplified form).
  for (QueryId q : cq.members) {
    const EntangledQuery& query = queries_->queries[q];
    std::vector<Atom> heads, pcs;
    heads.reserve(query.head.size());
    for (const Atom& h : query.head) heads.push_back(Rewrite(cq.global, h));
    pcs.reserve(query.postconditions.size());
    for (const Atom& p : query.postconditions) {
      pcs.push_back(Rewrite(cq.global, p));
    }
    cq.head_templates.push_back(std::move(heads));
    cq.pc_templates.push_back(std::move(pcs));
    for (const Atom& b : query.body) {
      cq.body.atoms.push_back(Rewrite(cq.global, b));
    }
    for (const ir::Filter& f : query.filters) {
      cq.body.filters.push_back(ir::Filter{Rewrite(cq.global, f.lhs), f.op,
                                           Rewrite(cq.global, f.rhs)});
    }
  }
  return cq;
}

namespace {

/// Grounds a rewritten atom template with a body valuation.
GroundAtom GroundTemplate(const Atom& tmpl, const db::Valuation& val) {
  GroundAtom out;
  out.relation = tmpl.relation;
  out.args.reserve(tmpl.args.size());
  for (const Term& t : tmpl.args) {
    out.args.push_back(t.is_const() ? t.value() : val.ValueOf(t.var()));
  }
  return out;
}

}  // namespace

Result<std::vector<CoordinatedAnswer>> Combiner::Evaluate(
    const CombinedQuery& cq, db::Snapshot db, size_t k,
    const db::ExecOptions& opts, db::ExecStats* stats) const {
  db::ConjunctiveQuery body = cq.body;
  body.limit = k;

  std::vector<CoordinatedAnswer> out;
  db::Executor exec(std::move(db));
  Status st = exec.Execute(
      body, opts,
      [&](const db::Valuation& val) {
        CoordinatedAnswer answer;
        answer.members = cq.members;
        answer.answers.reserve(cq.members.size());
        for (const auto& templates : cq.head_templates) {
          std::vector<GroundAtom> atoms;
          atoms.reserve(templates.size());
          for (const Atom& tmpl : templates) {
            atoms.push_back(GroundTemplate(tmpl, val));
          }
          answer.answers.push_back(std::move(atoms));
        }
        out.push_back(std::move(answer));
        return out.size() < k;
      },
      stats);
  if (!st.ok()) return st;
  return out;
}

}  // namespace eq::core
