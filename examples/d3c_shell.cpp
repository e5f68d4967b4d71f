// d3c_shell — an interactive shell for the entangled-queries service.
//
// The paper notes that "entangled queries can, in principle, be input by
// hand" (§5.1); this tool makes that concrete. It reads ';'-terminated
// statements from stdin (or a script file passed as argv[1]):
//
//   CREATE TABLE Flights (fno INT, dest STR);
//   INSERT Flights (122, 'Paris');
//   DELETE FROM Flights WHERE dest = 'Paris' AND fno < 123;
//   UPDATE Flights SET dest = 'Naples' WHERE fno = 136;
//   INDEX Flights dest;
//   SELECT 'Kramer', fno INTO ANSWER R
//     WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
//     AND ('Jerry', fno) IN ANSWER R CHOOSE 1;
//   IR {R(Kramer, x)} R(Jerry, x) :- Flights(x, 'Paris');
//   STATUS;            -- full service metrics (per-shard lines included)
//   TTL 20;            -- staleness for subsequent queries (logical ticks)
//   TICK 25;           -- advance the clock (expires stale queries)
//   FLUSH;             -- set-at-a-time resolution of everything pending
//   HELP; QUIT;
//
// Lines starting with '\' are immediate observability commands (no ';'):
//
//   \metrics [prom|json] [file]   exporter output (default: prom, stdout)
//   \trace <ticket-id>            recorded lifecycle of one query
//   \state                        pending-state dump (queues, groups, lag)
//
// The shell runs on a CoordinationService with lazy start: CREATE / INSERT
// / INDEX statements before the first query accumulate into the service
// bootstrap; the first query (or '\' command) starts the service. After
// start, INSERT / DELETE / UPDATE flow through the versioned write path
// and wake exactly the pending queries that read a touched relation.
// Answers arrive asynchronously through ticket callbacks and are printed
// as soon as a coordination partner appears.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/query.h"
#include "db/database.h"
#include "ir/query.h"
#include "service/export.h"
#include "service/service.h"
#include "sql/translator.h"

namespace {

using namespace eq;

class Shell {
 public:
  /// Executes one ';'-terminated statement. Returns false on QUIT.
  bool Execute(const std::string& stmt) {
    std::string word = FirstWord(stmt);
    if (word.empty()) return true;
    if (word == "QUIT" || word == "EXIT") return false;
    if (word == "HELP") {
      Help();
    } else if (word == "CREATE" || word == "INDEX") {
      if (svc_) {
        std::printf(
            "error: the catalog is fixed once the service starts — declare "
            "tables and indexes before the first query\n");
      } else {
        Report(Staged(stmt, word == "CREATE" ? CreateTable(&ctx_, &db_, stmt)
                                             : Index(&ctx_, &db_, stmt)));
      }
    } else if (word == "INSERT") {
      if (svc_) {
        Report(LiveInsert(stmt));
      } else {
        Report(Staged(stmt, Insert(&ctx_, &db_, stmt)));
      }
    } else if (word == "DELETE" || word == "UPDATE") {
      if (svc_) {
        auto rows = svc_->ExecuteWrite(stmt);
        if (rows.ok()) {
          std::printf("%zu row(s) affected\n", *rows);
        } else {
          Report(rows.status());
        }
      } else {
        Report(Staged(stmt, Write(&ctx_, &db_, stmt)));
      }
    } else if (word == "SELECT") {
      Submit(client::Query::Sql(stmt));
    } else if (word == "IR") {
      Submit(client::Query::Ir(stmt.substr(stmt.find("IR") + 2)));
    } else if (word == "FLUSH") {
      EnsureStarted();
      svc_->FlushAll();
      std::printf("flushed; pending=%llu\n",
                  (unsigned long long)svc_->Metrics().pending);
    } else if (word == "TICK") {
      EnsureStarted();
      uint64_t t = 0;
      std::sscanf(stmt.c_str(), "%*s %llu", (unsigned long long*)&t);
      svc_->AdvanceTicks(t);
      std::printf("clock=%llu pending=%llu\n",
                  (unsigned long long)svc_->now_ticks(),
                  (unsigned long long)svc_->Metrics().pending);
    } else if (word == "TTL") {
      std::sscanf(stmt.c_str(), "%*s %llu", (unsigned long long*)&ttl_);
      std::printf("ttl=%llu ticks for subsequent queries\n",
                  (unsigned long long)ttl_);
    } else if (word == "STATUS") {
      EnsureStarted();
      std::printf("%s", svc_->Metrics().ToString().c_str());
    } else {
      std::printf("unknown statement '%s' (try HELP)\n", word.c_str());
    }
    return true;
  }

  /// Executes one '\'-prefixed observability command (whole line).
  void Command(const std::string& line) {
    std::istringstream in(line);
    std::string cmd, arg1, arg2;
    in >> cmd >> arg1 >> arg2;
    EnsureStarted();
    if (cmd == "\\metrics") {
      std::string format = arg1.empty() ? "prom" : arg1;
      std::string text;
      if (format == "prom") {
        text = service::MetricsToPrometheusText(svc_->Metrics());
      } else if (format == "json") {
        text = service::MetricsToJson(svc_->Metrics());
      } else {
        std::printf("usage: \\metrics [prom|json] [file]\n");
        return;
      }
      if (arg2.empty()) {
        std::printf("%s", text.c_str());
      } else {
        std::ofstream out(arg2);
        if (!out) {
          std::printf("error: cannot open %s\n", arg2.c_str());
          return;
        }
        out << text;
        std::printf("wrote %zu bytes of %s metrics to %s\n", text.size(),
                    format.c_str(), arg2.c_str());
      }
    } else if (cmd == "\\trace") {
      if (arg1.empty()) {
        std::printf("usage: \\trace <ticket-id>\n");
        return;
      }
      auto trace = svc_->Trace(std::strtoull(arg1.c_str(), nullptr, 10));
      if (trace.ok()) {
        std::printf("%s", trace->ToString().c_str());
      } else {
        Report(trace.status());
      }
    } else if (cmd == "\\state") {
      std::printf("%s", svc_->DumpState().ToString().c_str());
    } else {
      std::printf("unknown command '%s' (try \\metrics, \\trace <id>, "
                  "\\state)\n",
                  cmd.c_str());
    }
  }

 private:
  static std::string FirstWord(const std::string& s) {
    size_t i = 0;
    while (i < s.size() && std::isspace((unsigned char)s[i])) ++i;
    size_t j = i;
    while (j < s.size() && (std::isalpha((unsigned char)s[j]))) ++j;
    std::string w = s.substr(i, j - i);
    for (char& c : w) c = static_cast<char>(std::toupper((unsigned char)c));
    return w;
  }

  static void Report(const Status& st) {
    std::printf("%s\n", st.ok() ? "ok" : st.ToString().c_str());
  }

  void Help() {
    std::printf(
        "statements (terminate with ';'):\n"
        "  CREATE TABLE name (col TYPE, ...)   TYPE = INT | STR (pre-start)\n"
        "  INSERT name (value, ...)            value = 123 | 'text'\n"
        "  DELETE FROM name [WHERE col op lit [AND ...]]\n"
        "  UPDATE name SET col = lit [, ...] [WHERE ...]   op = = != < <= > >=\n"
        "      (ranges work on INT and STR alike; STR compares\n"
        "       lexicographically via the sorted dictionary)\n"
        "  INDEX name column                   (pre-start)\n"
        "  SELECT ... INTO ANSWER ... CHOOSE k   entangled SQL (paper §2.1)\n"
        "  IR {C} H :- B                         Datalog-style IR (§2.2)\n"
        "  TTL n | TICK n | FLUSH | STATUS | HELP | QUIT\n"
        "observability commands (whole line, no ';'):\n"
        "  \\metrics [prom|json] [file]   exporter output\n"
        "  \\trace <ticket-id>            lifecycle trace of one query\n"
        "  \\state                        pending queries, groups, lag\n");
  }

  /// Pre-start statements validate against the staging catalog and, on
  /// success, are recorded for replay inside the service bootstrap.
  Status Staged(const std::string& stmt, Status st) {
    if (st.ok()) boot_stmts_.push_back(stmt);
    return st;
  }

  /// Starts the CoordinationService, replaying the staged CREATE / INSERT
  /// / INDEX statements as its snapshot bootstrap. trace_all keeps every
  /// interactive query's lifecycle available to \trace.
  void EnsureStarted() {
    if (svc_) return;
    service::ServiceOptions opts;
    opts.num_shards = 2;
    opts.mode = engine::EvalMode::kIncremental;
    opts.max_delay_ticks = 1;
    opts.trace_all = true;
    std::vector<std::string> stmts = boot_stmts_;
    opts.bootstrap = [stmts](ir::QueryContext* ctx, db::Database* db) {
      for (const auto& s : stmts) {
        std::string word = FirstWord(s);
        Status st = word == "CREATE"   ? CreateTable(ctx, db, s)
                    : word == "INSERT" ? Insert(ctx, db, s)
                    : word == "INDEX"  ? Index(ctx, db, s)
                                       : Write(ctx, db, s);
        if (!st.ok()) {
          std::printf("bootstrap: %s\n", st.ToString().c_str());
        }
      }
    };
    svc_ = std::make_unique<service::CoordinationService>(opts);
    std::printf(
        "service started: %u shards, incremental evaluation, tracing all "
        "queries (catalog: %zu staged statement(s))\n",
        opts.num_shards, boot_stmts_.size());
  }

  static Status CreateTable(ir::QueryContext* /*ctx*/, db::Database* db,
                            const std::string& stmt) {
    // CREATE TABLE name ( col TYPE , ... )
    std::istringstream in(stmt);
    std::string kw1, kw2, name;
    in >> kw1 >> kw2 >> name;
    size_t open = stmt.find('(');
    size_t close = stmt.rfind(')');
    if (name.empty() || open == std::string::npos ||
        close == std::string::npos || close < open) {
      return Status::ParseError("usage: CREATE TABLE name (col TYPE, ...)");
    }
    // Strip a '(' glued to the name.
    if (size_t p = name.find('('); p != std::string::npos) {
      name = name.substr(0, p);
    }
    db::Schema schema;
    std::string cols = stmt.substr(open + 1, close - open - 1);
    std::istringstream cin2(cols);
    std::string piece;
    while (std::getline(cin2, piece, ',')) {
      std::istringstream pin(piece);
      std::string col, type;
      pin >> col >> type;
      for (char& c : type) c = static_cast<char>(std::toupper((unsigned char)c));
      if (col.empty() || (type != "INT" && type != "STR")) {
        return Status::ParseError("bad column spec '" + piece + "'");
      }
      schema.columns.push_back(db::Column{
          col, type == "INT" ? ir::ValueType::kInt : ir::ValueType::kString});
    }
    if (schema.columns.empty()) {
      return Status::ParseError("table needs at least one column");
    }
    return db->CreateTable(name, std::move(schema));
  }

  /// Parses "INSERT name (v1, v2, ...)" into the table name and a row,
  /// interning string cells through `intern`.
  static Status ParseInsert(const std::string& stmt, StringInterner* intern,
                            std::string* name, db::Row* row) {
    std::istringstream in(stmt);
    std::string kw;
    in >> kw >> *name;
    size_t open = stmt.find('(');
    size_t close = stmt.rfind(')');
    if (name->empty() || open == std::string::npos ||
        close == std::string::npos) {
      return Status::ParseError("usage: INSERT name (v1, v2, ...)");
    }
    if (size_t p = name->find('('); p != std::string::npos) {
      *name = name->substr(0, p);
    }
    std::string vals = stmt.substr(open + 1, close - open - 1);
    std::istringstream vin(vals);
    std::string piece;
    while (std::getline(vin, piece, ',')) {
      // Trim.
      size_t b = piece.find_first_not_of(" \t\n");
      size_t e = piece.find_last_not_of(" \t\n");
      if (b == std::string::npos) {
        return Status::ParseError("empty value");
      }
      piece = piece.substr(b, e - b + 1);
      if (piece.front() == '\'') {
        if (piece.size() < 2 || piece.back() != '\'') {
          return Status::ParseError("unterminated string " + piece);
        }
        row->push_back(
            ir::Value::Str(intern->Intern(piece.substr(1, piece.size() - 2))));
      } else {
        row->push_back(ir::Value::Int(std::atoll(piece.c_str())));
      }
    }
    return Status::OK();
  }

  static Status Insert(ir::QueryContext* ctx, db::Database* db,
                       const std::string& stmt) {
    std::string name;
    db::Row row;
    EQ_RETURN_NOT_OK(ParseInsert(stmt, &ctx->interner(), &name, &row));
    return db->Insert(name, std::move(row));
  }

  /// Post-start INSERT: through the versioned write path, waking exactly
  /// the pending queries that read the touched relation.
  Status LiveInsert(const std::string& stmt) {
    std::string name;
    db::Row row;
    EQ_RETURN_NOT_OK(ParseInsert(stmt, &svc_->interner(), &name, &row));
    return svc_->ApplyBatch(
        {db::Storage::TableWrite::Insert(std::move(name), std::move(row))});
  }

  /// SQL DELETE/UPDATE against the staging catalog (pre-start only): the
  /// statement is resolved and type-checked through the same translator
  /// the service uses, then applied to the staging database.
  static Status Write(ir::QueryContext* ctx, db::Database* db,
                      const std::string& stmt) {
    sql::Translator tr(ctx, db);
    auto w = tr.TranslateWriteSql(stmt);
    if (!w.ok()) return w.status();
    db::Table* table = db->GetTable(w->table());
    if (table == nullptr) return Status::NotFound("no table " + w->table());
    size_t rows = 0;
    if (w->kind() == db::Storage::TableWrite::Kind::kDelete) {
      EQ_RETURN_NOT_OK(table->DeleteWhere(w->write.pred, &rows));
    } else {
      EQ_RETURN_NOT_OK(table->UpdateWhere(w->write.pred, w->write.sets, &rows));
    }
    std::printf("%zu row(s) affected\n", rows);
    return Status::OK();
  }

  static Status Index(ir::QueryContext* /*ctx*/, db::Database* db,
                      const std::string& stmt) {
    std::istringstream in(stmt);
    std::string kw, name, col;
    in >> kw >> name >> col;
    db::Table* table = db->GetTable(name);
    if (table == nullptr) return Status::NotFound("no table " + name);
    int idx = table->schema().ColumnIndex(col);
    if (idx < 0) return Status::NotFound("no column " + col);
    return table->BuildIndex(static_cast<size_t>(idx));
  }

  void Submit(client::Query query) {
    EnsureStarted();
    service::SubmitOptions opts;
    opts.ttl_ticks = ttl_;
    opts.callback = [](service::TicketId id,
                       const service::ServiceOutcome& outcome) {
      if (outcome.state == service::ServiceOutcome::State::kAnswered) {
        for (const auto& t : outcome.tuples) {
          std::printf("[t%llu] answered: %s\n", (unsigned long long)id,
                      t.c_str());
        }
      } else {
        std::printf("[t%llu] failed: %s\n", (unsigned long long)id,
                    outcome.status.ToString().c_str());
      }
    };
    auto ticket = svc_->Submit(std::move(query), std::move(opts));
    if (!ticket.ok()) {
      std::printf("rejected: %s\n", ticket.status().ToString().c_str());
      return;
    }
    if (!ticket->Done()) {
      std::printf("[t%llu] pending (awaiting coordination partners)\n",
                  (unsigned long long)ticket->id());
    }
  }

  /// Staging catalog for pre-start statements: validates DDL/DML up front
  /// so errors surface at the prompt, not inside the bootstrap replay.
  ir::QueryContext ctx_;
  db::Database db_{&ctx_.interner()};
  std::vector<std::string> boot_stmts_;

  std::unique_ptr<service::CoordinationService> svc_;
  uint64_t ttl_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::ifstream file;
  std::istream* in = &std::cin;
  bool interactive = true;
  if (argc > 1) {
    file.open(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    in = &file;
    interactive = false;
  }

  Shell shell;
  if (interactive) {
    std::printf("entangled-queries shell — HELP; for commands\n");
  }
  std::string buffer, line;
  while (std::getline(*in, line)) {
    // Strip -- comments.
    if (size_t c = line.find("--"); c != std::string::npos) {
      line = line.substr(0, c);
    }
    // '\'-prefixed lines are immediate observability commands.
    size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '\\') {
      shell.Command(line.substr(first));
      continue;
    }
    buffer += line + "\n";
    size_t semi;
    while ((semi = buffer.find(';')) != std::string::npos) {
      std::string stmt = buffer.substr(0, semi);
      buffer = buffer.substr(semi + 1);
      if (!shell.Execute(stmt)) return 0;
    }
  }
  return 0;
}
