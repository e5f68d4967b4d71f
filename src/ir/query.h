#ifndef EQ_IR_QUERY_H_
#define EQ_IR_QUERY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/atom.h"
#include "util/status.h"

namespace eq::ir {

/// Dense id of an entangled query within a QuerySet / engine instance.
using QueryId = uint32_t;

inline constexpr QueryId kInvalidQuery = UINT32_MAX;

/// Comparison operators for (optional) scalar filters in query bodies.
///
/// The paper restricts bodies to conjunctions of relational atoms "for
/// simplicity of discussion" but explicitly allows arbitrary queries over
/// database relations (§2.2). Filters cover the common non-join conditions
/// produced by the SQL frontend.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// Three-way comparison of two values; types compare before payloads so
/// that mixed-type comparisons are total (and deterministic) rather than
/// errors. Integers order numerically. Strings: the two-argument form
/// orders interned symbols by an arbitrary-but-total hash order — NOT
/// lexicographic; pass the interner (`order`) to get the sorted-dictionary
/// lexicographic order instead. Interner-less write predicates reject
/// ordered string comparisons outright (db::Predicate::Validate with a
/// null order); everything that evaluates against a db::Snapshot passes
/// the snapshot's interner and gets real string ranges.
int CompareValues(const Value& a, const Value& b);
int CompareValues(const Value& a, const Value& b,
                  const StringInterner* order);

/// Evaluates `a op b` under CompareValues semantics. The single comparison
/// kernel shared by query filters (db::Executor) and write predicates
/// (db::Predicate), so `WHERE fno < 200` means the same thing in a query
/// body and in a DELETE statement. The `order` overload makes ordered
/// string comparisons lexicographic (see CompareValues); = and != are
/// pure SymbolId comparisons either way.
bool EvalCompare(CompareOp op, const Value& a, const Value& b);
bool EvalCompare(CompareOp op, const Value& a, const Value& b,
                 const StringInterner* order);

/// A scalar filter `lhs op rhs` over body variables/constants.
struct Filter {
  Term lhs;
  CompareOp op = CompareOp::kEq;
  Term rhs;

  bool operator==(const Filter& o) const {
    return lhs == o.lhs && op == o.op && rhs == o.rhs;
  }
};

/// Shared symbol/variable namespace for a set of entangled queries.
///
/// Owns (or shares) the string interner, and owns the variable table (ids
/// to display names), the registry of ANSWER relations, and per-relation
/// arities. The matching algorithm requires globally unique variables
/// (paper §4.1.3); NewVar hands out fresh ids, so queries built through one
/// context never alias variables unless the caller deliberately reuses a
/// VarId.
///
/// Sharing: by default each context owns a private interner (the original
/// single-workload model). The shared-interner constructor lets many
/// contexts — the storage tier and every service shard — agree on SymbolIds,
/// which is what makes immutable table versions shareable across shards
/// (rows store interned ids). The interner is internally synchronized; the
/// rest of the context (variables, arities, answer relations) remains
/// single-threaded state of its owner.
class QueryContext {
 public:
  QueryContext() : interner_(std::make_shared<StringInterner>()) {}
  explicit QueryContext(std::shared_ptr<StringInterner> interner)
      : interner_(std::move(interner)) {}

  StringInterner& interner() { return *interner_; }
  const StringInterner& interner() const { return *interner_; }
  const std::shared_ptr<StringInterner>& interner_ptr() const {
    return interner_;
  }

  /// Interns a symbol (relation name or string constant).
  SymbolId Intern(std::string_view s) { return interner_->Intern(s); }

  /// Shorthand: interned string constant value.
  Value StrValue(std::string_view s) { return Value::Str(Intern(s)); }

  /// Creates a fresh variable with a display name (names may repeat; ids
  /// never do).
  VarId NewVar(std::string name);

  const std::string& VarName(VarId v) const { return var_names_[v]; }
  size_t var_count() const { return var_names_.size(); }

  /// Declares `rel` as an ANSWER relation (head/postcondition namespace).
  /// Fails with InvalidArgument, declaring nothing, when `rel` is a
  /// database table (DeclareDatabaseRelation): a table used as a head
  /// would otherwise turn every later body that reads it invalid.
  Status DeclareAnswerRelation(SymbolId rel);
  bool IsAnswerRelation(SymbolId rel) const {
    auto it = relation_kinds_.find(rel);
    return it != relation_kinds_.end() && it->second == RelationKind::kAnswer;
  }

  /// Declares `rel` as a database table (body namespace). The service
  /// declares every bootstrap table in its catalog. A relation already
  /// declared ANSWER stays ANSWER.
  void DeclareDatabaseRelation(SymbolId rel) {
    relation_kinds_.emplace(rel, RelationKind::kDatabase);
  }
  bool IsDatabaseRelation(SymbolId rel) const {
    auto it = relation_kinds_.find(rel);
    return it != relation_kinds_.end() &&
           it->second == RelationKind::kDatabase;
  }

  /// Records/validates the arity of a relation. The first call fixes the
  /// arity; later mismatches return InvalidArgument.
  Status NoteArity(SymbolId rel, size_t arity);

  /// Returns the recorded arity, or nullopt if the relation was never seen.
  std::optional<size_t> ArityOf(SymbolId rel) const;

  /// Copies `base`'s catalog metadata — ANSWER and database relation
  /// declarations and recorded arities — into this context. Used when seeding a
  /// fresh context (a service shard, a recycled edge catalog) from the storage
  /// bootstrap context without re-running the bootstrap. Requires a shared
  /// interner (SymbolIds must mean the same strings in both contexts). `base`
  /// must not be mutated concurrently.
  void AdoptMetaFrom(const QueryContext& base);

 private:
  enum class RelationKind : uint8_t { kAnswer, kDatabase };

  std::shared_ptr<StringInterner> interner_;
  std::vector<std::string> var_names_;
  std::unordered_map<SymbolId, RelationKind> relation_kinds_;
  std::unordered_map<SymbolId, size_t> arities_;
};

/// An entangled query in the intermediate representation {C} H ⊃ B
/// (paper §2.2):
///   - `postconditions` (C): conjunctive constraints over ANSWER relations
///     that must be satisfied by *other* queries' contributions;
///   - `head` (H): this query's contribution to the ANSWER relations, also
///     the tuples returned to the submitter;
///   - `body` (B) (+ `filters`): an ordinary conjunctive query over database
///     relations that binds every variable used in H and C.
struct EntangledQuery {
  QueryId id = kInvalidQuery;
  std::string label;  ///< diagnostic tag (e.g. submitting user)

  std::vector<Atom> postconditions;  // C
  std::vector<Atom> head;            // H
  std::vector<Atom> body;            // B
  std::vector<Filter> filters;       // extra scalar conditions on B

  /// Number of coordinated answer tuples requested (CHOOSE k). The paper's
  /// core semantics fixes k = 1; k > 1 is the §6 multi-answer extension.
  int choose_k = 1;

  /// All variables appearing anywhere in the query, in first-use order.
  std::vector<VarId> Variables() const;

  /// Renders the Datalog-style form `{C} H :- B`.
  std::string ToString(const QueryContext& ctx) const;
};

/// A workload of entangled queries sharing one QueryContext.
struct QuerySet {
  std::vector<EntangledQuery> queries;

  /// Assigns sequential ids (0..n-1) to all queries.
  void AssignIds();
};

/// The InvalidArgument status for a database table used as a head or
/// postcondition relation (shared by QueryContext::DeclareAnswerRelation
/// and the read-only client::PortableQuery::Validate).
Status DatabaseRelationAsAnswer(std::string_view relation);

/// Validates a single query against the paper's well-formedness rules:
/// non-empty head, ANSWER relations only in H/C, database relations only in
/// B, consistent arities, and range restriction (every variable of H and C
/// occurs in B).
Status ValidateQuery(const EntangledQuery& q, QueryContext* ctx);

/// Validates a workload: per-query validation plus the global requirement
/// that no variable is shared between two queries (§4.1.3).
Status ValidateQuerySet(const QuerySet& qs, QueryContext* ctx);

/// Returns a copy of `q` with every variable replaced by a fresh one from
/// `ctx` (same display names). Use this to instantiate a query template for
/// repeated submission — the matching algorithm requires globally unique
/// variables (§4.1.3: "it is easy to enforce by renaming as needed").
EntangledQuery RenameApart(const EntangledQuery& q, QueryContext* ctx);

}  // namespace eq::ir

#endif  // EQ_IR_QUERY_H_
