#include "cluster/node.h"

#include <algorithm>
#include <set>
#include <utility>

#include "net/frame.h"

namespace eq::cluster {
namespace {

using service::ServiceOutcome;
using service::Ticket;
using service::TicketFactory;

ServiceOutcome FailedOutcome(Status status) {
  ServiceOutcome o;
  o.state = ServiceOutcome::State::kFailed;
  o.status = std::move(status);
  return o;
}

/// Reader-id base for cluster followers in the storage's version-GC
/// registry. Local shard readers use their shard id (small integers);
/// offsetting peers far above any realistic shard count keeps the two
/// id spaces disjoint.
constexpr uint64_t kPeerReaderBase = uint64_t{1} << 20;

std::vector<uint32_t> AllMembers(const ClusterOptions& opts) {
  std::vector<uint32_t> members;
  members.push_back(opts.node_id);
  for (const auto& p : opts.peers) members.push_back(p.node_id);
  return members;
}

}  // namespace

// ---------------------------------------------------------------------------
// ClusterService
// ---------------------------------------------------------------------------

ClusterService::ClusterService(const ClusterOptions& opts,
                               service::CoordinationService* local)
    : self_(opts.node_id),
      storage_owner_(opts.storage_owner),
      max_forward_hops_(opts.max_forward_hops),
      io_timeout_ms_(opts.io_timeout_ms),
      local_(local),
      // Captured before any traffic: the interner holds exactly the
      // bootstrap catalog here. Symbols interned later (query constants,
      // write payloads) diverge across nodes and must stay out of the
      // handshake-verified prefix.
      sym_catalog_hwm_(local->interner().size()),
      groups_(AllMembers(opts)) {
  PeerLink::Options lopts;
  lopts.self_node = opts.node_id;
  lopts.connect_timeout_ms = opts.connect_timeout_ms;
  lopts.io_timeout_ms = opts.io_timeout_ms;
  lopts.backoff_initial_ms = opts.backoff_initial_ms;
  lopts.backoff_max_ms = opts.backoff_max_ms;
  lopts.sym_catalog_hwm = sym_catalog_hwm_;
  for (const auto& p : opts.peers) {
    links_.emplace(p.node_id,
                   std::make_unique<PeerLink>(p, lopts, &local->interner()));
  }
  // The storage owner's version-GC watermark must respect replication
  // progress: each follower registers as a reader pinned at its applied
  // version (0 until the first confirmed push), so an unreachable or
  // lagging follower holds superseded versions alive instead of GC
  // racing the delta stream.
  if (self_ == storage_owner_) {
    for (const auto& p : opts.peers) {
      local_->storage().RegisterReader(kPeerReaderBase + p.node_id);
    }
  }
}

ClusterService::~ClusterService() { Shutdown(); }

void ClusterService::Shutdown() {
  // Unregister exactly once: Shutdown runs again from the destructor,
  // AFTER ClusterNode::Stop may have destroyed the embedded service
  // `local_` points at.
  bool expected = false;
  if (shut_down_.compare_exchange_strong(expected, true) &&
      self_ == storage_owner_) {
    for (auto& [node, link] : links_) {
      (void)link;
      local_->storage().UnregisterReader(kPeerReaderBase + node);
    }
  }
  for (auto& [node, link] : links_) link->Close();
}

PeerLink* ClusterService::LinkTo(uint32_t node) const {
  auto it = links_.find(node);
  return it == links_.end() ? nullptr : it->second.get();
}

void ClusterService::NotifyDisplaced(const GroupTable::Decision& d) {
  for (uint32_t node : d.displaced) {
    net::GroupUpdateMsg m;
    m.new_owner = d.owner;
    m.relations = d.relations;
    if (node == self_) {
      HandleGroupUpdate(m);
    } else if (PeerLink* link = LinkTo(node)) {
      // Best effort: if the displaced node is unreachable its stranded
      // queries re-route when it next forwards or reconnects.
      link->SendGroupUpdate(m);
    }
  }
}

Result<Ticket> ClusterService::Submit(client::Query query,
                                      service::SubmitOptions opts) {
  // Canonicalize at the edge: parse/translate errors fail synchronously
  // here, exactly like the single-node service.
  auto canonical = local_->Canonicalize(query);
  if (!canonical.ok()) return canonical.status();

  auto decision = groups_.Route(canonical.value().EntangledRelations());
  NotifyDisplaced(decision);

  if (decision.owner == self_) {
    return local_->Submit(client::Query::Program(std::move(canonical.value())),
                          std::move(opts));
  }

  // Remote owner: mint a proxy ticket completed by the outcome frame.
  service::TicketId id =
      (static_cast<uint64_t>(self_) + 1) << 48 |
      next_proxy_seq_.fetch_add(1, std::memory_order_relaxed);
  Ticket ticket = TicketFactory::Create(id, std::move(opts.callback));

  PeerLink* link = LinkTo(decision.owner);
  if (link == nullptr) {
    TicketFactory::Complete(
        ticket, FailedOutcome(Status::Unavailable(
                    "no link to owner node " +
                    std::to_string(decision.owner))));
    return ticket;
  }

  net::SubmitMsg msg;
  msg.origin_node = self_;
  msg.hops = 0;
  msg.query = std::move(canonical.value());
  msg.ttl_ticks = opts.ttl_ticks;
  msg.preference = opts.preference;
  msg.group_relations = std::move(decision.relations);

  // Register the proxy before sending so Cancel can always find it; the
  // completion handler (reader thread or inline failure) erases it.
  {
    std::lock_guard<std::mutex> lock(proxy_mu_);
    proxies_[id] = Proxy{link, 0};
  }
  uint64_t req = link->Submit(
      std::move(msg), [this, ticket](const ServiceOutcome& outcome) {
        {
          std::lock_guard<std::mutex> lock(proxy_mu_);
          proxies_.erase(ticket.id());
        }
        TicketFactory::Complete(ticket, outcome);
      });
  {
    std::lock_guard<std::mutex> lock(proxy_mu_);
    auto it = proxies_.find(id);
    if (it != proxies_.end()) it->second.remote_req = req;
  }
  return ticket;
}

Status ClusterService::Cancel(const Ticket& ticket) {
  if (!ticket.valid()) return Status::InvalidArgument("empty ticket");
  Proxy proxy;
  bool is_proxy = false;
  {
    std::lock_guard<std::mutex> lock(proxy_mu_);
    auto it = proxies_.find(ticket.id());
    if (it != proxies_.end()) {
      proxy = it->second;
      is_proxy = true;
    }
  }
  if (!is_proxy) return local_->Cancel(ticket);
  if (proxy.remote_req != 0) proxy.link->Cancel(proxy.remote_req);
  return Status::OK();
}

Result<size_t> ClusterService::ExecuteWrite(std::string_view sql) {
  if (self_ == storage_owner_) {
    auto r = local_->ExecuteWrite(sql);
    if (r.ok() && r.value() > 0) PushDeltas();
    return r;
  }
  PeerLink* link = LinkTo(storage_owner_);
  if (link == nullptr) {
    return Status::Unavailable("no link to storage owner node " +
                               std::to_string(storage_owner_));
  }
  net::WriteReplyMsg reply = link->Write(std::string(sql));
  if (!reply.status.ok()) return reply.status;
  return static_cast<size_t>(reply.rows_affected);
}

service::ServiceMetrics ClusterService::Metrics() const {
  return local_->Metrics();
}

Result<service::QueryTrace> ClusterService::Trace(
    service::TicketId ticket) const {
  return local_->Trace(ticket);
}

service::ServiceStateDump ClusterService::DumpState() const {
  return local_->DumpState();
}

// ---------------------------------------------------------------------------
// Inbound handlers
// ---------------------------------------------------------------------------

net::HelloAckMsg ClusterService::HandleHello(const net::HelloMsg& m) {
  net::HelloAckMsg ack;
  ack.node_id = self_;
  const StringInterner& interner = local_->interner();
  if (m.sym_hwm <= interner.size() &&
      net::InternerPrefixHash(interner, m.sym_hwm) != m.sym_prefix_hash) {
    ack.ok = false;
    ack.error =
        "interner prefix mismatch (nodes bootstrapped different catalogs?)";
    return ack;
  }
  // Answer with our own catalog fingerprint (NOT the live interner size:
  // symbols interned after bootstrap diverge across nodes by design).
  ack.ok = true;
  ack.sym_hwm = sym_catalog_hwm_;
  ack.sym_prefix_hash = net::InternerPrefixHash(interner, sym_catalog_hwm_);
  {
    std::lock_guard<std::mutex> lock(applied_mu_);
    auto it = applied_versions_.find(m.node_id);
    ack.applied_db_version = it == applied_versions_.end() ? 0 : it->second;
  }
  return ack;
}

void ClusterService::SendOutcomeAndForget(ServerConn* conn, uint64_t req_id,
                                          const ServiceOutcome& outcome) {
  {
    std::lock_guard<std::mutex> lock(conn->state_mu);
    conn->inflight.erase(req_id);
  }
  net::OutcomeMsg m;
  m.req_id = req_id;
  m.outcome = outcome;
  std::lock_guard<std::mutex> lock(conn->send_mu);
  // Best effort: if the origin hung up, its proxies already failed
  // kUnavailable on its side.
  net::SendFrame(conn->sock, net::FrameType::kOutcome, net::Encode(m),
                 io_timeout_ms_);
}

void ClusterService::HandleSubmit(net::SubmitMsg m,
                                  std::shared_ptr<ServerConn> conn) {
  uint64_t req_id = m.req_id;

  // Merge the sender's group knowledge with the query's own relations,
  // then re-route: we may know of merges the sender does not. Route
  // tolerates the duplicates this concatenation carries.
  std::vector<std::string> rels = std::move(m.group_relations);
  for (auto& rel : m.query.EntangledRelations()) rels.push_back(std::move(rel));
  auto decision = groups_.Route(rels);
  NotifyDisplaced(decision);

  if (decision.owner == self_) {
    service::SubmitOptions sopts;
    sopts.ttl_ticks = m.ttl_ticks;
    sopts.preference = m.preference;
    sopts.callback = [this, conn, req_id](service::TicketId,
                                          const ServiceOutcome& outcome) {
      SendOutcomeAndForget(conn.get(), req_id, outcome);
    };
    auto t = local_->Submit(client::Query::Program(std::move(m.query)),
                            std::move(sopts));
    if (!t.ok()) {
      // Synchronous rejection travels the same path as async outcomes:
      // one immediate OutcomeMsg.
      SendOutcomeAndForget(conn.get(), req_id, FailedOutcome(t.status()));
      return;
    }
    std::lock_guard<std::mutex> lock(conn->state_mu);
    conn->inflight[req_id].local = t.value();
    // The shard callback may have resolved (and erased) already — don't
    // leave a stale entry behind in that case.
    if (t.value().Done()) conn->inflight.erase(req_id);
    return;
  }

  if (m.hops + 1 > max_forward_hops_) {
    SendOutcomeAndForget(
        conn.get(), req_id,
        FailedOutcome(Status::Internal(
            "cluster routing did not converge within the hop limit")));
    return;
  }

  PeerLink* link = LinkTo(decision.owner);
  if (link == nullptr) {
    SendOutcomeAndForget(conn.get(), req_id,
                         FailedOutcome(Status::Unavailable(
                             "no link to owner node " +
                             std::to_string(decision.owner))));
    return;
  }
  m.hops += 1;
  m.group_relations = std::move(decision.relations);
  {
    // Register before sending so the handler's erase always pairs with an
    // existing entry, whichever thread wins.
    std::lock_guard<std::mutex> lock(conn->state_mu);
    conn->inflight[req_id];
  }
  uint64_t remote = link->Submit(
      std::move(m), [this, conn, req_id](const ServiceOutcome& outcome) {
        SendOutcomeAndForget(conn.get(), req_id, outcome);
      });
  std::lock_guard<std::mutex> lock(conn->state_mu);
  auto it = conn->inflight.find(req_id);
  if (it == conn->inflight.end()) {
    // Outcome already came back (inline failure or a very fast peer);
    // nothing left to track.
    return;
  }
  it->second.forwarded = link;
  it->second.remote_req = remote;
}

void ClusterService::HandleCancel(const net::CancelMsg& m, ServerConn* conn) {
  ServerConn::Inflight entry;
  {
    std::lock_guard<std::mutex> lock(conn->state_mu);
    auto it = conn->inflight.find(m.req_id);
    if (it == conn->inflight.end()) return;  // already resolved
    entry = it->second;
  }
  if (entry.local.valid()) {
    local_->Cancel(entry.local);  // resolution flows via the callback
  } else if (entry.forwarded != nullptr && entry.remote_req != 0) {
    entry.forwarded->Cancel(entry.remote_req);
  }
}

net::WriteReplyMsg ClusterService::HandleWrite(const net::WriteMsg& m) {
  net::WriteReplyMsg reply;
  reply.req_id = m.req_id;
  if (self_ != storage_owner_) {
    reply.status = Status::InvalidArgument(
        "node " + std::to_string(self_) + " is not the storage owner");
    return reply;
  }
  auto r = local_->ExecuteWrite(m.sql);
  if (!r.ok()) {
    reply.status = r.status();
    return reply;
  }
  reply.rows_affected = r.value();
  if (r.value() > 0) PushDeltas();
  return reply;
}

void ClusterService::PushDeltas() {
  // Serialized so each peer sees versions in order; per-peer resume state
  // lives on the link (seeded by its handshake ack).
  std::lock_guard<std::mutex> push_lock(push_mu_);
  const StringInterner& interner = local_->interner();
  for (auto& [node, link] : links_) {
    const uint64_t reader = kPeerReaderBase + node;
    // SendDelta may transparently reconnect mid-call; the handshake then
    // resets the link's resume point to the follower's true applied
    // version, which can sit BELOW the cursor this delta was extracted
    // from. ConfirmPush detects the turnover via the connection
    // generation and we re-extract from the fresh cursor instead of
    // marking a range shipped that the follower never saw.
    for (int attempt = 0; attempt < 3; ++attempt) {
      PeerLink::PushCursor cur = link->push_cursor();
      // The cursor IS the follower's confirmed replica version (seeded
      // from its handshake ack) — report it so a caught-up follower does
      // not hold the GC watermark back. Stale reports are ignored, so a
      // reconnect resetting the cursor backwards cannot regress it.
      local_->storage().ReportReadVersion(reader, cur.version);
      uint64_t to = 0;
      std::vector<db::Storage::TableReplacement> reps;
      if (!local_->storage().ExtractDelta(cur.version, &to, &reps).ok()) break;
      if (to <= cur.version || reps.empty()) break;

      net::DeltaMsg m;
      m.origin_node = self_;
      m.from_version = cur.version;
      m.to_version = to;
      // Dictionary: every string symbol at or above the link's verified
      // shared prefix ships by name (0 before the first connect — then the
      // whole delta is self-describing, which is always safe).
      uint64_t prefix = link->shared_sym_prefix();
      std::set<uint32_t> dict_syms;
      m.tables.reserve(reps.size());
      for (const auto& rep : reps) {
        net::DeltaMsg::TableRows t;
        t.table = rep.table;
        t.arity = rep.rows.empty()
                      ? 0
                      : static_cast<uint32_t>(rep.rows.front().size());
        for (const auto& row : rep.rows) {
          for (const auto& cell : row) {
            if (cell.is_str() && cell.AsStr() >= prefix) {
              dict_syms.insert(cell.AsStr());
            }
            t.cells.push_back(cell);
          }
        }
        m.tables.push_back(std::move(t));
      }
      m.dict.reserve(dict_syms.size());
      for (uint32_t sym : dict_syms) {
        m.dict.emplace_back(sym, interner.Name(sym));
      }

      if (!link->SendDelta(m).ok()) break;
      // On failure the resume point stays put; the next write (or
      // reconnect handshake) re-ships the whole range.
      if (link->ConfirmPush(cur.generation, to)) {
        local_->storage().ReportReadVersion(reader, to);
        break;
      }
    }
  }
}

Status ClusterService::HandleDelta(const net::DeltaMsg& m) {
  // One delta at a time: the contiguity check below and the apply it
  // guards must be atomic, and a dying connection's last frame must not
  // interleave with a reconnected stream's first.
  std::lock_guard<std::mutex> delta_lock(delta_mu_);
  {
    std::lock_guard<std::mutex> lock(applied_mu_);
    uint64_t applied = applied_versions_[m.origin_node];
    // Replayed history (an owner re-shipping after a reconnect whose
    // handshake raced our apply): everything here is already applied.
    if (m.to_version <= applied) return Status::OK();
    if (m.from_version > applied) {
      // Gap: a prior delta was lost in flight (sent into a connection
      // that died under it). Applying this one would permanently skip
      // every table touched only in the lost range. Fail so the caller
      // drops the connection; the owner's next push reconnects and the
      // handshake ack reports our real applied version, making the next
      // extraction contiguous again.
      return Status::Unavailable(
          "replication gap from node " + std::to_string(m.origin_node) +
          ": delta builds on version " + std::to_string(m.from_version) +
          " but only version " + std::to_string(applied) + " is applied");
    }
  }

  // Remap owner symbol ids to local ids: dictionary entries re-intern by
  // name; everything else is below the verified shared prefix and is
  // identical by the handshake invariant.
  StringInterner& interner = local_->interner();
  std::unordered_map<uint32_t, SymbolId> remap;
  remap.reserve(m.dict.size());
  for (const auto& [sym, name] : m.dict) remap[sym] = interner.Intern(name);

  std::vector<db::Storage::TableReplacement> reps;
  reps.reserve(m.tables.size());
  for (const auto& t : m.tables) {
    db::Storage::TableReplacement rep;
    rep.table = t.table;
    if (t.arity > 0) {
      rep.rows.reserve(t.cells.size() / t.arity);
      for (size_t i = 0; i + t.arity <= t.cells.size(); i += t.arity) {
        db::Row row;
        row.reserve(t.arity);
        for (size_t j = 0; j < t.arity; ++j) {
          ir::Value cell = t.cells[i + j];
          if (cell.is_str()) {
            auto it = remap.find(cell.AsStr());
            if (it != remap.end()) cell = ir::Value::Str(it->second);
          }
          row.push_back(cell);
        }
        rep.rows.push_back(std::move(row));
      }
    }
    reps.push_back(std::move(rep));
  }

  // Advance the applied version ONLY on a successful, contiguous apply:
  // a failed apply followed by later deltas advancing it would make the
  // reconnect-handshake resync lie about what we actually hold.
  Status s = local_->ApplyReplicatedTables(reps);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(applied_mu_);
    uint64_t& v = applied_versions_[m.origin_node];
    v = std::max(v, m.to_version);
  }
  return s;
}

void ClusterService::HandleGroupUpdate(const net::GroupUpdateMsg& m) {
  // Learn the merge first; our own table then names the authoritative
  // owner (normally m.new_owner, unless we know of an even wider merge).
  auto decision = groups_.Route(m.relations);
  if (decision.owner == self_) return;  // we own it — nothing to hand over
  uint32_t owner = decision.owner;
  auto group = decision.relations;
  local_->ExtractForRebalance(
      m.relations, [this, owner, group](service::ExtractedQuery ex) {
        ReforwardExtracted(std::move(ex), owner, group);
      });
}

void ClusterService::ReforwardExtracted(service::ExtractedQuery ex,
                                        uint32_t owner,
                                        std::vector<std::string> group) {
  Ticket ticket = ex.ticket;
  if (ex.program == nullptr) {
    // Unreachable: every dialect normalizes to the portable program at
    // submission. Fail loudly rather than forwarding a blank query.
    TicketFactory::Complete(
        ticket, FailedOutcome(Status::Internal(
                    "extracted query carries no canonical program")));
    return;
  }
  client::PortableQuery canonical = *ex.program;

  if (owner == self_) {
    service::SubmitOptions sopts;
    sopts.ttl_ticks = ex.ttl_remaining;
    sopts.preference = ex.preference;
    sopts.callback = [ticket](service::TicketId,
                              const ServiceOutcome& outcome) {
      TicketFactory::Complete(ticket, outcome);
    };
    auto t = local_->Submit(client::Query::Program(std::move(canonical)),
                            std::move(sopts));
    if (!t.ok()) TicketFactory::Complete(ticket, FailedOutcome(t.status()));
    return;
  }

  PeerLink* link = LinkTo(owner);
  if (link == nullptr) {
    TicketFactory::Complete(
        ticket, FailedOutcome(Status::Unavailable(
                    "no link to owner node " + std::to_string(owner))));
    return;
  }
  net::SubmitMsg msg;
  msg.origin_node = self_;
  msg.hops = 0;
  msg.query = std::move(canonical);
  msg.ttl_ticks = ex.ttl_remaining;
  msg.preference = ex.preference;
  msg.group_relations = std::move(group);
  link->Submit(std::move(msg), [ticket](const ServiceOutcome& outcome) {
    TicketFactory::Complete(ticket, outcome);
  });
}

// ---------------------------------------------------------------------------
// ClusterNode
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ClusterNode>> ClusterNode::Start(ClusterOptions opts) {
  // Proxy ticket ids tag (node_id + 1) into bits 48..63; an id at or
  // above 65535 would shift the tag out of the 64-bit id entirely, making
  // proxy ids collide with the local service's counter ids.
  if (opts.node_id >= 0xFFFF) {
    return Status::InvalidArgument("node_id " + std::to_string(opts.node_id) +
                                   " out of range (max 65534)");
  }
  for (const auto& p : opts.peers) {
    if (p.node_id >= 0xFFFF) {
      return Status::InvalidArgument(
          "peer node_id " + std::to_string(p.node_id) +
          " out of range (max 65534)");
    }
  }
  auto listener = net::Listener::Bind(opts.listen_host, opts.listen_port);
  if (!listener.ok()) return listener.status();

  std::unique_ptr<ClusterNode> node(new ClusterNode());
  node->opts_ = std::move(opts);
  node->listener_ = std::move(listener.value());
  node->local_ = std::make_unique<service::CoordinationService>(
      node->opts_.service);
  node->cluster_ =
      std::make_unique<ClusterService>(node->opts_, node->local_.get());
  node->accept_thread_ = std::thread(&ClusterNode::AcceptLoop, node.get());
  return node;
}

ClusterNode::~ClusterNode() { Stop(); }

void ClusterNode::AcceptLoop() {
  for (;;) {
    auto sock = listener_.Accept();
    if (!sock.ok()) return;  // Shutdown() — orderly exit
    auto conn = std::make_shared<ServerConn>();
    conn->sock = std::move(sock.value());
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopped_) return;  // raced with Stop: drop the connection
    conns_.push_back(conn);
    conn_threads_.emplace_back(&ClusterNode::ServeConnection, this,
                               std::move(conn));
  }
}

void ClusterNode::ServeConnection(std::shared_ptr<ServerConn> conn) {
  const int io = opts_.io_timeout_ms;

  // Handshake first: one Hello within the io timeout, or hang up.
  auto first = net::RecvFrame(conn->sock, io, io);
  if (!first.ok() || first.value().type != net::FrameType::kHello) return;
  auto hello = net::DecodeHello(first.value().payload);
  if (!hello.ok()) return;
  net::HelloAckMsg ack = cluster_->HandleHello(hello.value());
  {
    std::lock_guard<std::mutex> lock(conn->send_mu);
    if (!net::SendFrame(conn->sock, net::FrameType::kHelloAck,
                        net::Encode(ack), io)
             .ok()) {
      return;
    }
  }
  if (!ack.ok) return;  // refused (interner mismatch): close after the ack

  for (;;) {
    // Block indefinitely for the next frame (Stop interrupts via socket
    // shutdown); once a header arrives the body must follow promptly.
    auto frame = net::RecvFrame(conn->sock, /*header_timeout_ms=*/-1, io);
    if (!frame.ok()) return;  // disconnect, or corrupt stream: hang up
    switch (frame.value().type) {
      case net::FrameType::kSubmit: {
        auto m = net::DecodeSubmit(frame.value().payload);
        if (!m.ok()) return;
        cluster_->HandleSubmit(std::move(m.value()), conn);
        break;
      }
      case net::FrameType::kCancel: {
        auto m = net::DecodeCancel(frame.value().payload);
        if (!m.ok()) return;
        cluster_->HandleCancel(m.value(), conn.get());
        break;
      }
      case net::FrameType::kWrite: {
        auto m = net::DecodeWrite(frame.value().payload);
        if (!m.ok()) return;
        net::WriteReplyMsg reply = cluster_->HandleWrite(m.value());
        std::lock_guard<std::mutex> lock(conn->send_mu);
        if (!net::SendFrame(conn->sock, net::FrameType::kWriteReply,
                            net::Encode(reply), io)
                 .ok()) {
          return;
        }
        break;
      }
      case net::FrameType::kDelta: {
        auto m = net::DecodeDelta(frame.value().payload);
        if (!m.ok()) return;
        // A replication gap or a failed apply must never be skipped
        // silently: hang up, so the owner reconnects and the handshake
        // ack tells it the version we actually hold — its next push then
        // re-ships the whole missing range.
        if (!cluster_->HandleDelta(m.value()).ok()) return;
        break;
      }
      case net::FrameType::kGroupUpdate: {
        auto m = net::DecodeGroupUpdate(frame.value().payload);
        if (!m.ok()) return;
        cluster_->HandleGroupUpdate(m.value());
        break;
      }
      default:
        return;  // protocol violation
    }
  }
}

void ClusterNode::Stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // 1. No new inbound connections.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Wake every connection thread out of its blocking read.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) c->sock.ShutdownBoth();
  }
  for (auto& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  // 3. Fail all in-flight outbound requests (proxy tickets resolve
  //    kUnavailable) and stop forwarding.
  cluster_->Shutdown();
  // 4. Stop the embedded service last: its shard threads may still be
  //    firing outcome callbacks that (harmlessly) try to send on the
  //    now-closed connections above.
  local_.reset();
}

}  // namespace eq::cluster
