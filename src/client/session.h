#ifndef EQ_CLIENT_SESSION_H_
#define EQ_CLIENT_SESSION_H_

#include <string>
#include <string_view>
#include <utility>

#include "client/query.h"
#include "service/service.h"

namespace eq::client {

/// Session-wide defaults, merged into each submission's SubmitOptions.
struct SessionOptions {
  /// Applied when a submission leaves ttl_ticks at 0.
  uint64_t default_ttl_ticks = 0;
  /// Applied when a submission carries no preference spec of its own
  /// (preference-aware sessions: "this user always prefers the earliest
  /// flight" becomes one line at session creation).
  PreferenceSpec default_preference;
};

/// The client-facing facade over a coordination surface: typed queries in
/// any dialect, per-submission knobs, and session-level defaults.
///
///   client::Session session(&svc, {.default_ttl_ticks = 500});
///   auto t = session.SubmitSql(
///       "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE ... CHOOSE 1");
///   const auto& outcome = t->Wait();
///
/// A Session is a cheap handle (pointer + defaults): create one per logical
/// client. It binds to the abstract service::CoordinationInterface, so the
/// same client code runs unchanged against a single-node
/// CoordinationService or a multi-node cluster::ClusterService — which
/// backend answers a query is invisible at this layer. Thread-safe to the
/// same extent as the underlying service.
class Session {
 public:
  /// `svc` must outlive the session.
  explicit Session(service::CoordinationInterface* svc,
                   SessionOptions opts = {})
      : svc_(svc), opts_(std::move(opts)) {}

  /// Submits one typed query (see CoordinationService::Submit for the
  /// synchronous-failure contract).
  Result<service::Ticket> Submit(Query query,
                                 service::SubmitOptions opts = {}) {
    return svc_->Submit(std::move(query), Merge(std::move(opts)));
  }

  /// Convenience per-dialect submission.
  Result<service::Ticket> SubmitSql(std::string text,
                                    service::SubmitOptions opts = {}) {
    return Submit(Query::Sql(std::move(text)), std::move(opts));
  }
  Result<service::Ticket> SubmitIr(std::string text,
                                   service::SubmitOptions opts = {}) {
    return Submit(Query::Ir(std::move(text)), std::move(opts));
  }

  /// Executes one SQL DELETE or UPDATE statement (see
  /// CoordinationService::ExecuteWrite): translated and type-checked at
  /// the edge catalog, applied through the versioned storage, and waking
  /// exactly the pending queries that read a touched relation. Returns the
  /// number of rows affected.
  Result<size_t> ExecuteWrite(std::string_view sql) {
    return svc_->ExecuteWrite(sql);
  }

  /// Withdraws a pending query (see CoordinationService::Cancel).
  Status Cancel(const service::Ticket& ticket) { return svc_->Cancel(ticket); }

  /// Observability passthroughs, so a session-scoped client can inspect
  /// the service it talks to without reaching around the facade.
  service::ServiceMetrics Metrics() const { return svc_->Metrics(); }
  /// The recorded lifecycle of one (sampled) query (see
  /// CoordinationService::Trace).
  Result<service::QueryTrace> Trace(const service::Ticket& ticket) const {
    return svc_->Trace(ticket);
  }
  Result<service::QueryTrace> Trace(service::TicketId ticket) const {
    return svc_->Trace(ticket);
  }
  /// Pending-state introspection (see CoordinationService::DumpState).
  service::ServiceStateDump DumpState() const { return svc_->DumpState(); }

  service::CoordinationInterface& service() { return *svc_; }
  const SessionOptions& options() const { return opts_; }

 private:
  service::SubmitOptions Merge(service::SubmitOptions opts) const {
    if (opts.ttl_ticks == 0) opts.ttl_ticks = opts_.default_ttl_ticks;
    if (!opts.preference.active()) opts.preference = opts_.default_preference;
    return opts;
  }

  service::CoordinationInterface* svc_;
  SessionOptions opts_;
};

}  // namespace eq::client

#endif  // EQ_CLIENT_SESSION_H_
