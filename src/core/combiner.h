#ifndef EQ_CORE_COMBINER_H_
#define EQ_CORE_COMBINER_H_

#include <vector>

#include "core/unifiability_graph.h"
#include "db/executor.h"
#include "ir/query.h"
#include "unify/unifier.h"
#include "util/status.h"

namespace eq::core {

/// The combined query q* of paper §4.2 for one set of matched queries
/// Q = {q_i}: body = ∧ B_i plus the global-unifier constraints φU, head =
/// ∧ H_i. We apply the paper's simplification eagerly — every variable is
/// rewritten to its class representative and constant-bound classes are
/// substituted — so φU never materializes as explicit equality atoms.
struct CombinedQuery {
  /// The member queries (positions in the query set), by ascending id.
  std::vector<ir::QueryId> members;

  /// The global unifier U = mgu({U(q_i)}).
  unify::Unifier global;

  /// The rewritten conjunctive body (∧ B_i + filters, simplified by φU).
  db::ConjunctiveQuery body;

  /// Per member (parallel to `members`): rewritten head atom templates.
  /// Grounding a template with a body valuation yields the member's answer
  /// tuples.
  std::vector<std::vector<ir::Atom>> head_templates;

  /// Per member: rewritten postcondition templates (used by verification
  /// and the naive-evaluator cross-checks, not by evaluation itself).
  std::vector<std::vector<ir::Atom>> pc_templates;
};

/// One coordinated outcome: for every member query, its ground answer
/// tuples (the paper's per-query rows of the ANSWER relation).
struct CoordinatedAnswer {
  std::vector<ir::QueryId> members;
  /// Parallel to `members`: the ground head atoms of each member.
  std::vector<std::vector<ir::GroundAtom>> answers;
};

/// Builds and evaluates combined queries.
class Combiner {
 public:
  explicit Combiner(const ir::QuerySet* queries) : queries_(queries) {}

  /// Combines the (matched, surviving) queries `members` of `graph` into a
  /// single combined query. Fails with Unsatisfiable when the members'
  /// unifiers admit no global MGU (paper: "evaluation fails for Q' and all
  /// the queries in Q' are rejected").
  Result<CombinedQuery> Combine(const UnifiabilityGraph& graph,
                                const std::vector<ir::QueryId>& members) const;

  /// Evaluates q* against the database snapshot and scatters up to `k`
  /// coordinated outcomes (k = 1 is the paper's CHOOSE 1; k > 1 serves the
  /// §6 multi-answer extension). An empty result vector means the database
  /// offers no coordinated solution. Accepts `const db::Database*`
  /// implicitly (freezing it for the call).
  Result<std::vector<CoordinatedAnswer>> Evaluate(
      const CombinedQuery& cq, db::Snapshot db, size_t k = 1,
      const db::ExecOptions& opts = db::ExecOptions(),
      db::ExecStats* stats = nullptr) const;

 private:
  /// Rewrites a term through the global unifier: constants stay, variables
  /// become their bound constant or their class representative.
  ir::Term Rewrite(const unify::Unifier& u, const ir::Term& t) const;
  ir::Atom Rewrite(const unify::Unifier& u, const ir::Atom& a) const;

  const ir::QuerySet* queries_;
};

}  // namespace eq::core

#endif  // EQ_CORE_COMBINER_H_
