#ifndef EQ_CLIENT_QUERY_H_
#define EQ_CLIENT_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/query.h"
#include "util/status.h"

namespace eq::client {

/// The three surface languages a query can arrive in (paper §2.1 / §2.2):
///  - kSql: entangled SQL text, translated against the catalog;
///  - kIr: the Datalog-style `{C} H :- B` text form (ir::Parser grammar);
///  - kBuilder: a programmatic template built with QueryBuilder — no text,
///    no parsing anywhere on its path.
enum class Dialect : uint8_t { kIr, kSql, kBuilder };

const char* DialectName(Dialect d);

// ---------------------------------------------------------------------------
// Portable (context-free) query representation
// ---------------------------------------------------------------------------

/// A term of a portable atom: an integer constant, a string constant, or a
/// named variable. Unlike ir::Term it references no QueryContext, so it can
/// cross shard boundaries (each shard owns a private interner).
struct PortableTerm {
  enum class Kind : uint8_t { kInt, kStr, kVar };

  Kind kind = Kind::kVar;
  int64_t number = 0;  ///< kInt payload
  std::string text;    ///< kStr / kVar payload

  static PortableTerm Int(int64_t v) {
    PortableTerm t;
    t.kind = Kind::kInt;
    t.number = v;
    return t;
  }
  static PortableTerm Str(std::string s) {
    PortableTerm t;
    t.kind = Kind::kStr;
    t.text = std::move(s);
    return t;
  }
  static PortableTerm Var(std::string name) {
    PortableTerm t;
    t.kind = Kind::kVar;
    t.text = std::move(name);
    return t;
  }

  bool operator==(const PortableTerm& o) const {
    return kind == o.kind && number == o.number && text == o.text;
  }
};

/// Shorthand constructors, so builder programs read like the paper:
///   builder.Head("R", {Str("Kramer"), Var("x")})
inline PortableTerm Int(int64_t v) { return PortableTerm::Int(v); }
inline PortableTerm Str(std::string s) { return PortableTerm::Str(std::move(s)); }
inline PortableTerm Var(std::string name) {
  return PortableTerm::Var(std::move(name));
}

struct PortableAtom {
  std::string relation;
  std::vector<PortableTerm> args;
};

struct PortableFilter {
  PortableTerm lhs;
  ir::CompareOp op = ir::CompareOp::kEq;
  PortableTerm rhs;
};

/// A complete entangled-query template with no ties to any interner or
/// variable table: the service's canonical wire form. Every dialect
/// normalizes to this before routing, and migrations re-submit it verbatim,
/// so the shard that finally evaluates a query never re-parses SQL.
///
/// Variable identity is by name: two PortableTerm::Var with the same text
/// denote the same variable within one PortableQuery.
///
/// Thread safety: a PortableQuery is plain immutable data once built.
/// The service ships it across shard boundaries as a
/// shared_ptr<const PortableQuery>; concurrent Instantiate calls against
/// distinct contexts are safe (Instantiate only reads the template).
struct PortableQuery {
  std::string label;
  std::vector<PortableAtom> postconditions;  // C
  std::vector<PortableAtom> head;            // H
  std::vector<PortableAtom> body;            // B
  std::vector<PortableFilter> filters;
  int choose_k = 1;

  /// Builds a validated ir::EntangledQuery against `ctx`, interning symbols
  /// and allocating fresh variables (so repeated instantiation of one
  /// template never aliases variables, §4.1.3). Head and postcondition
  /// relations are declared as ANSWER relations.
  Result<ir::EntangledQuery> Instantiate(ir::QueryContext* ctx) const;

  /// Read-only validation against `catalog`: the status (code and message)
  /// that Instantiate would return on a fresh context seeded from
  /// `catalog` (QueryContext::AdoptMetaFrom), computed without interning a
  /// symbol, allocating a variable or declaring a relation. The service
  /// edge validates builder programs this way; shards instantiate them.
  Status Validate(const ir::QueryContext& catalog) const;

  /// The entangled (ANSWER) relation names: head + postconditions, sorted
  /// and deduplicated — the routing fingerprint.
  std::vector<std::string> EntangledRelations() const;

  /// Renders the canonical `{C} H :- B [choose k]` text form; the output is
  /// re-parsable by ir::Parser (variables are renamed v0, v1, ... and string
  /// constants are always quoted).
  std::string ToIrText() const;
};

/// De-interns an ir::EntangledQuery back into the portable form. Variables
/// are renamed to unique synthetic names (display names may collide across
/// distinct VarIds; synthetic names never do).
PortableQuery FromIr(const ir::EntangledQuery& q, const ir::QueryContext& ctx);

// ---------------------------------------------------------------------------
// Per-query preference spec (§6)
// ---------------------------------------------------------------------------

/// A declarative, shard-portable preference over coordinated outcomes: score
/// the query's first answer tuple by one integer argument, maximized or
/// minimized, scaled by `weight`. Specs of all partition members are summed
/// with the service-wide engine::PreferenceFn (ServiceOptions::preference),
/// and the engine favors the outcome with the highest total (§6: "favor
/// coordinating sets G' that satisfy the users' preferences").
struct PreferenceSpec {
  enum class Kind : uint8_t { kNone, kMaximizeArg, kMinimizeArg };

  Kind kind = Kind::kNone;
  size_t arg_index = 0;  ///< argument position within the answer tuple
  double weight = 1.0;

  static PreferenceSpec MaximizeArg(size_t arg, double weight = 1.0) {
    return PreferenceSpec{Kind::kMaximizeArg, arg, weight};
  }
  static PreferenceSpec MinimizeArg(size_t arg, double weight = 1.0) {
    return PreferenceSpec{Kind::kMinimizeArg, arg, weight};
  }

  bool active() const { return kind != Kind::kNone; }

  /// Scores one query's answer tuples. Non-integer or out-of-range
  /// arguments score 0.
  double Score(const std::vector<ir::GroundAtom>& tuples) const;
};

// ---------------------------------------------------------------------------
// Query value + builder
// ---------------------------------------------------------------------------

/// The typed client-facing query value: one of the three dialects. Cheap to
/// copy (builder programs are shared, not duplicated).
///
/// Thread safety: a Query is an immutable value after construction — copy
/// it freely across threads. Submission itself is thread-safe on the
/// service side (CoordinationService::Submit may be called from any
/// thread); the Query object is consumed by value.
class Query {
 public:
  Query() = default;

  /// IR text, ir::Parser grammar.
  static Query Ir(std::string text) {
    Query q;
    q.dialect_ = Dialect::kIr;
    q.text_ = std::move(text);
    return q;
  }

  /// Entangled SQL (paper §2.1); translated against the catalog at
  /// submission, before routing.
  static Query Sql(std::string text) {
    Query q;
    q.dialect_ = Dialect::kSql;
    q.text_ = std::move(text);
    return q;
  }

  /// A finished builder program (see QueryBuilder::Build).
  static Query Program(PortableQuery program) {
    Query q;
    q.dialect_ = Dialect::kBuilder;
    q.program_ =
        std::make_shared<const PortableQuery>(std::move(program));
    return q;
  }

  Dialect dialect() const { return dialect_; }
  const std::string& text() const { return text_; }
  /// Non-null iff dialect() == kBuilder.
  const std::shared_ptr<const PortableQuery>& program() const {
    return program_;
  }

 private:
  Dialect dialect_ = Dialect::kIr;
  std::string text_;
  std::shared_ptr<const PortableQuery> program_;
};

/// Fluent construction of entangled queries without any parsing:
///
///   auto q = QueryBuilder()
///                .Label("kramer")
///                .Postcondition("R", {Str("Jerry"), Var("x")})
///                .Head("R", {Str("Kramer"), Var("x")})
///                .Body("F", {Var("x"), Str("Paris")})
///                .Choose(1)
///                .Build();
class QueryBuilder {
 public:
  QueryBuilder& Label(std::string label) {
    query_.label = std::move(label);
    return *this;
  }
  QueryBuilder& Head(std::string relation, std::vector<PortableTerm> args) {
    query_.head.push_back({std::move(relation), std::move(args)});
    return *this;
  }
  QueryBuilder& Postcondition(std::string relation,
                              std::vector<PortableTerm> args) {
    query_.postconditions.push_back({std::move(relation), std::move(args)});
    return *this;
  }
  QueryBuilder& Body(std::string relation, std::vector<PortableTerm> args) {
    query_.body.push_back({std::move(relation), std::move(args)});
    return *this;
  }
  QueryBuilder& Filter(PortableTerm lhs, ir::CompareOp op, PortableTerm rhs) {
    query_.filters.push_back({std::move(lhs), op, std::move(rhs)});
    return *this;
  }
  QueryBuilder& Choose(int k) {
    query_.choose_k = k;
    return *this;
  }

  /// The accumulated template as a submittable Query. The builder is reset
  /// to its initial state and can be reused.
  Query Build() { return Query::Program(BuildPortable()); }

  /// The raw template (for direct Instantiate / inspection).
  PortableQuery BuildPortable() {
    PortableQuery out = std::move(query_);
    query_ = {};
    return out;
  }

 private:
  PortableQuery query_;
};

}  // namespace eq::client

#endif  // EQ_CLIENT_QUERY_H_
