#ifndef EQ_UNIFY_NAIVE_UNIFIER_H_
#define EQ_UNIFY_NAIVE_UNIFIER_H_

#include <optional>
#include <vector>

#include "ir/atom.h"
#include "unify/unifier.h"

namespace eq::unify {

/// Textbook set-of-sets unifier used as (a) a correctness oracle for the
/// disjoint-set implementation in property tests and (b) the "naive MGU"
/// arm of the ablation benchmark (DSU-MGU vs naive MGU; see
/// docs/BENCHMARKS.md, "Paper substitutions and deviations").
///
/// Every operation is linear in the number of classes; MergeFrom is
/// quadratic. Semantics are identical to unify::Unifier.
class NaiveUnifier {
 public:
  bool UnifyTerms(const ir::Term& a, const ir::Term& b);
  bool UnionVars(ir::VarId a, ir::VarId b);
  bool BindConst(ir::VarId v, const ir::Value& c);
  MergeResult MergeFrom(const NaiveUnifier& other);

  std::optional<ir::Value> BindingOf(ir::VarId v) const;
  bool SameClass(ir::VarId a, ir::VarId b) const;

  /// Same canonical form as Unifier::Classes().
  std::vector<Unifier::Class> Classes() const;

 private:
  struct Cls {
    std::vector<ir::VarId> vars;   // unsorted
    std::optional<ir::Value> constant;
  };

  /// Index of the class containing v, or nullopt.
  std::optional<size_t> FindClass(ir::VarId v) const;

  /// Merges class j into class i (i != j). Returns false on conflict.
  bool MergeClasses(size_t i, size_t j);

  std::vector<Cls> classes_;
};

}  // namespace eq::unify

#endif  // EQ_UNIFY_NAIVE_UNIFIER_H_
