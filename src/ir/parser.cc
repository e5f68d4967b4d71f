#include "ir/parser.h"

#include <cctype>
#include <unordered_map>

namespace eq::ir {

namespace {

// EQ_RETURN_ERR propagates a Status from a helper inside a Result-returning
// function (EQ_RETURN_NOT_OK can't be used there: return types differ).
#define EQ_RETURN_ERR(expr)              \
  do {                                   \
    ::eq::Status _st = (expr);           \
    if (!_st.ok()) return _st;           \
  } while (0)

/// Single-use recursive-descent parser over one query text.
class QueryParser {
 public:
  QueryParser(std::string_view text, QueryContext* ctx)
      : text_(text), ctx_(ctx) {}

  Result<EntangledQuery> Parse() {
    EntangledQuery q;
    SkipWs();
    // Optional "label:" prefix (a bare identifier followed by ':').
    size_t save = pos_;
    std::string ident;
    if (ReadIdent(&ident) && Peek() == ':' && PeekAt(1) != '-') {
      ++pos_;  // consume ':'
      q.label = ident;
      SkipWs();
    } else {
      pos_ = save;
    }

    if (!Consume('{')) return Err("expected '{' to open postconditions");
    SkipWs();
    if (Peek() != '}') {
      EQ_RETURN_ERR(ParseAtomList(&q.postconditions, /*declare_answer=*/true));
    }
    if (!Consume('}')) return Err("expected '}' to close postconditions");

    EQ_RETURN_ERR(ParseAtomList(&q.head, /*declare_answer=*/true));

    SkipWs();
    if (ConsumeSeq(":-") || ConsumeSeq("<-")) {
      EQ_RETURN_ERR(ParseBody(&q));
    }

    SkipWs();
    if (ConsumeWord("choose")) {
      SkipWs();
      int64_t k = 0;
      if (!ReadInt(&k) || k < 1) return Err("expected positive CHOOSE count");
      q.choose_k = static_cast<int>(k);
    }
    SkipWs();
    if (pos_ != text_.size()) return Err("unexpected trailing input");
    return q;
  }

 private:
  Result<EntangledQuery> Err(const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_) +
                              " in query text");
  }
  Status ErrS(const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_) +
                              " in query text");
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char PeekAt(size_t off) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeSeq(std::string_view s) {
    SkipWs();
    if (text_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  /// Consumes a whole keyword (case-insensitive, word-boundary checked).
  bool ConsumeWord(std::string_view w) {
    SkipWs();
    if (pos_ + w.size() > text_.size()) return false;
    for (size_t i = 0; i < w.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) != w[i]) {
        return false;
      }
    }
    char after = PeekAt(w.size());
    if (std::isalnum(static_cast<unsigned char>(after)) || after == '_') {
      return false;
    }
    pos_ += w.size();
    return true;
  }

  bool ReadIdent(std::string* out) {
    SkipWs();
    size_t start = pos_;
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      *out = std::string(text_.substr(start, pos_ - start));
      return true;
    }
    return false;
  }

  bool ReadInt(int64_t* out) {
    SkipWs();
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits) {
      pos_ = start;
      return false;
    }
    *out = std::stoll(std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  Status ParseTerm(Term* out) {
    SkipWs();
    char c = Peek();
    if (c == '\'' || c == '"') {
      char quote = c;
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
      if (pos_ == text_.size()) return ErrS("unterminated string literal");
      std::string s(text_.substr(start, pos_ - start));
      ++pos_;
      *out = Term::Const(ctx_->StrValue(s));
      return Status::OK();
    }
    int64_t i;
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      if (ReadInt(&i)) {
        *out = Term::Const(Value::Int(i));
        return Status::OK();
      }
    }
    std::string ident;
    if (!ReadIdent(&ident)) return ErrS("expected term");
    if (ident == "_") {
      *out = Term::Var(ctx_->NewVar("_" + std::to_string(anon_counter_++)));
      return Status::OK();
    }
    if (std::isupper(static_cast<unsigned char>(ident[0]))) {
      *out = Term::Const(ctx_->StrValue(ident));
      return Status::OK();
    }
    // Lowercase identifier: a variable, scoped to this query.
    auto it = vars_.find(ident);
    if (it == vars_.end()) {
      VarId v = ctx_->NewVar(ident);
      vars_.emplace(ident, v);
      *out = Term::Var(v);
    } else {
      *out = Term::Var(it->second);
    }
    return Status::OK();
  }

  Status ParseAtom(Atom* out, bool declare_answer) {
    std::string rel;
    if (!ReadIdent(&rel)) return ErrS("expected relation name");
    SymbolId rel_id = ctx_->Intern(rel);
    if (declare_answer) EQ_RETURN_NOT_OK(ctx_->DeclareAnswerRelation(rel_id));
    if (!Consume('(')) return ErrS("expected '(' after relation name");
    std::vector<Term> args;
    SkipWs();
    if (Peek() != ')') {
      do {
        Term t;
        EQ_RETURN_NOT_OK(ParseTerm(&t));
        args.push_back(t);
      } while (Consume(','));
    }
    if (!Consume(')')) return ErrS("expected ')' to close atom");
    *out = Atom(rel_id, std::move(args));
    return Status::OK();
  }

  Status ParseAtomList(std::vector<Atom>* out, bool declare_answer) {
    do {
      Atom a;
      EQ_RETURN_NOT_OK(ParseAtom(&a, declare_answer));
      out->push_back(std::move(a));
    } while (Consume(','));
    return Status::OK();
  }

  /// Body items are atoms or comparisons. Disambiguation: after a leading
  /// term, an atom continues with '(' (handled inside ParseAtom via the
  /// relation-name path), so we first try "IDENT (" as an atom and fall back
  /// to a comparison.
  Status ParseBody(EntangledQuery* q) {
    do {
      SkipWs();
      size_t save = pos_;
      std::string ident;
      bool is_atom = false;
      if (ReadIdent(&ident)) {
        SkipWs();
        is_atom = Peek() == '(';
      }
      pos_ = save;
      if (is_atom) {
        Atom a;
        EQ_RETURN_NOT_OK(ParseAtom(&a, /*declare_answer=*/false));
        q->body.push_back(std::move(a));
      } else {
        Filter f;
        EQ_RETURN_NOT_OK(ParseTerm(&f.lhs));
        SkipWs();
        if (ConsumeSeq("!=")) {
          f.op = CompareOp::kNe;
        } else if (ConsumeSeq("<=")) {
          f.op = CompareOp::kLe;
        } else if (ConsumeSeq(">=")) {
          f.op = CompareOp::kGe;
        } else if (ConsumeSeq("=")) {
          f.op = CompareOp::kEq;
        } else if (ConsumeSeq("<")) {
          f.op = CompareOp::kLt;
        } else if (ConsumeSeq(">")) {
          f.op = CompareOp::kGt;
        } else {
          return ErrS("expected comparison operator in body filter");
        }
        EQ_RETURN_NOT_OK(ParseTerm(&f.rhs));
        q->filters.push_back(f);
      }
    } while (Consume(','));
    return Status::OK();
  }

#undef EQ_RETURN_ERR

  std::string_view text_;
  QueryContext* ctx_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
  std::unordered_map<std::string, VarId> vars_;
};

}  // namespace

Result<EntangledQuery> Parser::ParseQuery(std::string_view text) {
  QueryParser p(text, ctx_);
  return p.Parse();
}

Result<QuerySet> Parser::ParseProgram(std::string_view text) {
  QuerySet qs;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(';', start);
    std::string_view piece = text.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    // Skip empty / whitespace-only segments.
    bool blank = true;
    for (char c : piece) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (!blank) {
      QueryParser p(piece, ctx_);
      Result<EntangledQuery> r = p.Parse();
      if (!r.ok()) return r.status();
      qs.queries.push_back(std::move(r).value());
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  qs.AssignIds();
  return qs;
}

}  // namespace eq::ir
