#ifndef EQ_CORE_SAFETY_H_
#define EQ_CORE_SAFETY_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/atom_index.h"
#include "ir/query.h"
#include "util/status.h"

namespace eq::core {

/// Knobs for the safety check. `count_self_matches` selects the strict
/// reading of §3.1.1 in which a query's own head atoms count as potential
/// satisfiers of its own postconditions. The default (false) matches the
/// paper's §5.3 experimental workloads, which are only safe when a query's
/// own atoms are never matched against each other (see
/// docs/BENCHMARKS.md, "Paper substitutions and deviations").
struct SafetyOptions {
  bool count_self_matches = false;
};

/// The safety condition of paper §3.1.1: a set of queries Q is *unsafe* if
/// it contains a query q with a postcondition atom that is unifiable with
/// two (or more) head atoms found in Q — whether those heads belong to
/// different queries or to the same one. Safe workloads admit tractable
/// matching (Theorem 3.1): each postcondition has at most one candidate
/// satisfier, so the coordination structure is discovered without search.
class SafetyChecker {
 public:
  /// A detected violation: the query whose postcondition is ambiguous, the
  /// postcondition atom, and (at least) two of the unifying heads.
  struct Violation {
    ir::QueryId query = ir::kInvalidQuery;
    uint32_t pc_idx = 0;
    AtomRef head1, head2;
  };

  // ------------------------------------------------------------ batch API --

  /// Scans a whole workload and reports every query that currently has an
  /// ambiguous postcondition (one Violation per such postcondition).
  static std::vector<Violation> FindViolations(
      const ir::QuerySet& qs, const SafetyOptions& opts = SafetyOptions());

  /// The paper's simple removal strategy: iterate over the query set,
  /// removing every query with a postcondition that unifies with more than
  /// one remaining head, until the set is safe. (Removal can make other
  /// queries safe again, so this runs to fixpoint; the procedure is not
  /// Church-Rosser — removal order is the ascending id order.)
  /// Returns the removed ids; `qs` keeps the surviving queries (ids intact).
  static std::vector<ir::QueryId> EnforceSafety(
      ir::QuerySet* qs, const SafetyOptions& opts = SafetyOptions());

  // ------------------------------------------------- incremental admission --

  /// `queries` must outlive the checker; queries are referenced by id.
  explicit SafetyChecker(const ir::QuerySet* queries,
                         const SafetyOptions& opts = SafetyOptions());

  /// Admission check for the engine's incremental mode: would adding `q`
  /// keep the admitted set safe? Two failure cases:
  ///   (a) a postcondition of q unifies with >= 2 admitted heads (or two of
  ///       q's own heads, or one of each);
  ///   (b) a head of q gives some *admitted* query's postcondition a second
  ///       match.
  /// Returns kUnsafe without admitting q in either case; OK admits q.
  /// This "reject the newcomer" policy keeps resident queries stable; the
  /// paper's batch removal strategy is available via EnforceSafety.
  Status Admit(ir::QueryId q);

  /// Removes an admitted query (answered / stale), releasing its heads so
  /// future admissions are checked against the current set only.
  void Remove(ir::QueryId q);

  size_t admitted_count() const { return admitted_.size(); }

  /// Unification attempts performed by Admit so far (for benchmarks).
  uint64_t unification_attempts() const { return unification_attempts_; }

 private:
  /// Counts live admitted heads unifying with `probe`, stopping at `cap`.
  uint32_t CountUnifyingHeads(const ir::Atom& probe, uint32_t cap);

  const ir::QuerySet* queries_;
  SafetyOptions opts_;
  AtomIndex head_index_;                 // heads of admitted queries
  AtomIndex pc_index_;                   // postconditions of admitted queries
  std::unordered_set<ir::QueryId> admitted_;
  /// Current number of admitted heads unifying with each admitted
  /// postcondition, keyed by (query, pc_idx).
  std::unordered_map<uint64_t, uint32_t> pc_match_counts_;
  uint64_t unification_attempts_ = 0;
};

}  // namespace eq::core

#endif  // EQ_CORE_SAFETY_H_
