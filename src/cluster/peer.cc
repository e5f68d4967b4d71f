#include "cluster/peer.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/frame.h"

namespace eq::cluster {
namespace {

service::ServiceOutcome UnavailableOutcome(std::string why) {
  service::ServiceOutcome o;
  o.state = service::ServiceOutcome::State::kFailed;
  o.status = Status::Unavailable(std::move(why));
  return o;
}

}  // namespace

bool PeerLink::Connection::AddSubmit(uint64_t req_id,
                                     OutcomeHandler& handler) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return false;
  submits_.emplace(req_id, std::move(handler));
  return true;
}

bool PeerLink::Connection::AddWrite(uint64_t req_id,
                                    std::shared_ptr<WriteWait> wait) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return false;
  writes_.emplace(req_id, std::move(wait));
  return true;
}

PeerLink::OutcomeHandler PeerLink::Connection::TakeSubmit(uint64_t req_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = submits_.extract(req_id);
  return node ? std::move(node.mapped()) : OutcomeHandler();
}

std::shared_ptr<PeerLink::WriteWait> PeerLink::Connection::TakeWrite(
    uint64_t req_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = writes_.extract(req_id);
  return node ? std::move(node.mapped()) : nullptr;
}

bool PeerLink::Connection::open() {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

void PeerLink::Connection::SetCloseReason(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (close_reason_.empty()) close_reason_ = why;
}

void PeerLink::Connection::FailAll(std::string why) {
  std::unordered_map<uint64_t, OutcomeHandler> submits;
  std::unordered_map<uint64_t, std::shared_ptr<WriteWait>> writes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    if (!close_reason_.empty()) why = close_reason_;
    submits.swap(submits_);
    writes.swap(writes_);
  }
  auto outcome = UnavailableOutcome(why);
  for (auto& [id, h] : submits) h(outcome);
  for (auto& [id, w] : writes) {
    std::lock_guard<std::mutex> lock(w->mu);
    w->reply.status = Status::Unavailable(why);
    w->done = true;
    w->cv.notify_all();
  }
}

PeerLink::PeerLink(PeerSpec spec, Options opts, const StringInterner* interner)
    : spec_(std::move(spec)), opts_(opts), interner_(interner) {}

PeerLink::~PeerLink() { Close(); }

std::string PeerLink::LostReason() const {
  return "connection to peer " + std::to_string(spec_.node_id) + " lost";
}

Status PeerLink::EnsureConnectedLocked() {
  if (closed_) return Status::Unavailable("peer link is closed");
  if (conn_) {
    if (conn_->open()) return Status::OK();
    DropConnectionLocked(LostReason());
  }
  auto now = std::chrono::steady_clock::now();
  if (now < next_attempt_) {
    return Status::Unavailable("peer " + std::to_string(spec_.node_id) +
                               " unreachable (backing off)");
  }
  auto note_failure = [&] {
    backoff_ms_ = backoff_ms_ == 0
                      ? opts_.backoff_initial_ms
                      : std::min(backoff_ms_ * 2, opts_.backoff_max_ms);
    next_attempt_ = now + std::chrono::milliseconds(backoff_ms_);
  };

  auto sock = net::Socket::Connect(spec_.host, spec_.port,
                                   opts_.connect_timeout_ms);
  if (!sock.ok()) {
    note_failure();
    return sock.status();
  }

  // Interner-prefix handshake: fingerprint our bootstrap catalog, verify
  // theirs. The CURRENT interner size would not do — each node interns
  // local query constants after bootstrap, so the live tails diverge on
  // healthy clusters; only the catalog prefix is required to match.
  uint64_t hwm = opts_.sym_catalog_hwm;
  net::HelloMsg hello;
  hello.node_id = opts_.self_node;
  hello.sym_hwm = hwm;
  hello.sym_prefix_hash = net::InternerPrefixHash(*interner_, hwm);
  if (Status s = net::SendFrame(sock.value(), net::FrameType::kHello,
                                net::Encode(hello), opts_.io_timeout_ms);
      !s.ok()) {
    note_failure();
    return s;
  }
  auto frame = net::RecvFrame(sock.value(), opts_.io_timeout_ms,
                              opts_.io_timeout_ms);
  if (!frame.ok()) {
    note_failure();
    return frame.status();
  }
  if (frame.value().type != net::FrameType::kHelloAck) {
    note_failure();
    return Status::Unavailable("peer sent a non-handshake frame first");
  }
  auto ack = net::DecodeHelloAck(frame.value().payload);
  if (!ack.ok()) {
    note_failure();
    return ack.status();
  }
  if (!ack.value().ok) {
    note_failure();
    return Status::Unavailable("peer " + std::to_string(spec_.node_id) +
                               " refused handshake: " + ack.value().error);
  }
  // Verify the peer's catalog fingerprint against our own first sym_hwm
  // names whenever we hold at least that many. Symbols are append-only,
  // so a verified shared prefix stays verified for the link's lifetime.
  if (ack.value().sym_hwm <= interner_->size() &&
      net::InternerPrefixHash(*interner_, ack.value().sym_hwm) !=
          ack.value().sym_prefix_hash) {
    note_failure();
    return Status::Internal(
        "interner prefix mismatch with peer " +
        std::to_string(spec_.node_id) +
        " (nodes bootstrapped different catalogs?)");
  }

  // Readers of earlier connections that have finished hold no lock and
  // are about to return, so joining them here cannot block.
  std::erase_if(readers_, [](Reader& r) {
    if (!r.done->load(std::memory_order_acquire)) return false;
    r.thread.join();
    return true;
  });
  conn_ = std::make_shared<Connection>();
  conn_->sock = std::move(sock.value());
  backoff_ms_ = 0;
  next_attempt_ = {};
  shared_sym_prefix_v_ = std::min<uint64_t>(hwm, ack.value().sym_hwm);
  last_pushed_version_v_ = ack.value().applied_db_version;
  ++conn_generation_v_;
  auto done = std::make_shared<std::atomic<bool>>(false);
  readers_.push_back(
      {std::thread(&PeerLink::ReaderLoop, this, conn_, done), done});
  return Status::OK();
}

Status PeerLink::SendLocked(net::FrameType type, const std::string& payload) {
  bool was_connected = conn_ != nullptr;
  if (Status s = EnsureConnectedLocked(); !s.ok()) return s;
  Status sent =
      net::SendFrame(conn_->sock, type, payload, opts_.io_timeout_ms);
  if (sent.ok()) return sent;
  DropConnectionLocked("send to peer " + std::to_string(spec_.node_id) +
                       " failed");
  if (!was_connected) return sent;
  // The connection was pre-existing and may simply have died while idle
  // (peer restart): one immediate reconnect + resend before giving up.
  if (Status s = EnsureConnectedLocked(); !s.ok()) return s;
  sent = net::SendFrame(conn_->sock, type, payload, opts_.io_timeout_ms);
  if (!sent.ok()) {
    DropConnectionLocked("send to peer " + std::to_string(spec_.node_id) +
                         " failed");
  }
  return sent;
}

void PeerLink::ReaderLoop(std::shared_ptr<Connection> conn,
                          std::shared_ptr<std::atomic<bool>> done) {
  for (;;) {
    auto frame = net::RecvFrame(conn->sock, /*header_timeout_ms=*/-1,
                                opts_.io_timeout_ms);
    if (!frame.ok()) break;
    if (frame.value().type == net::FrameType::kOutcome) {
      auto m = net::DecodeOutcome(frame.value().payload);
      if (!m.ok()) break;  // corrupt stream: drop the connection
      if (OutcomeHandler handler = conn->TakeSubmit(m.value().req_id)) {
        handler(m.value().outcome);
      }
    } else if (frame.value().type == net::FrameType::kWriteReply) {
      auto m = net::DecodeWriteReply(frame.value().payload);
      if (!m.ok()) break;
      if (auto wait = conn->TakeWrite(m.value().req_id)) {
        std::lock_guard<std::mutex> lock(wait->mu);
        wait->reply = std::move(m.value());
        wait->done = true;
        wait->cv.notify_all();
      }
    } else {
      break;  // protocol violation: only replies flow to the connector
    }
  }
  conn->FailAll(LostReason());
  done->store(true, std::memory_order_release);
}

void PeerLink::DropConnectionLocked(const std::string& why) {
  conn_->SetCloseReason(why);
  conn_->sock.ShutdownBoth();
  conn_.reset();
}

uint64_t PeerLink::Submit(net::SubmitMsg msg, OutcomeHandler handler) {
  uint64_t req_id = next_req_id_.fetch_add(1, std::memory_order_relaxed);
  msg.req_id = req_id;
  std::string payload = net::Encode(msg);

  // The handler never fires under conn_mu_: it may re-submit on this link.
  std::shared_ptr<Connection> conn;
  Status sent;
  {
    std::lock_guard<std::mutex> conn_lock(conn_mu_);
    sent = EnsureConnectedLocked();
    // Register before sending so a fast reply always finds its handler.
    if (sent.ok() && conn_->AddSubmit(req_id, handler)) {
      conn = conn_;
      sent = SendLocked(net::FrameType::kSubmit, payload);
    } else if (sent.ok()) {
      sent = Status::Unavailable(LostReason());
    }
  }
  if (!sent.ok()) {
    // Once registered, the reader may have failed the handler already;
    // fire it here only if we win the extraction.
    OutcomeHandler mine = conn ? conn->TakeSubmit(req_id) : std::move(handler);
    if (mine) mine(UnavailableOutcome(sent.message()));
  }
  return req_id;
}

void PeerLink::Cancel(uint64_t req_id) {
  net::CancelMsg m;
  m.req_id = req_id;
  std::string payload = net::Encode(m);
  std::lock_guard<std::mutex> lock(conn_mu_);
  SendLocked(net::FrameType::kCancel, payload);  // best effort
}

net::WriteReplyMsg PeerLink::Write(const std::string& sql) {
  auto wait = std::make_shared<WriteWait>();
  net::WriteMsg m;
  m.req_id = next_req_id_.fetch_add(1, std::memory_order_relaxed);
  m.sql = sql;
  std::shared_ptr<Connection> conn;
  Status sent;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    sent = EnsureConnectedLocked();
    if (sent.ok() && conn_->AddWrite(m.req_id, wait)) {
      conn = conn_;
      sent = SendLocked(net::FrameType::kWrite, net::Encode(m));
    } else if (sent.ok()) {
      sent = Status::Unavailable(LostReason());
    }
  }
  if (!sent.ok()) {
    if (conn) conn->TakeWrite(m.req_id);
    net::WriteReplyMsg reply;
    reply.req_id = m.req_id;
    reply.status = sent;
    return reply;
  }
  std::unique_lock<std::mutex> lock(wait->mu);
  bool done = wait->cv.wait_for(
      lock, std::chrono::milliseconds(opts_.io_timeout_ms),
      [&] { return wait->done; });
  if (!done) {
    conn->TakeWrite(m.req_id);
    // Re-check under wait->mu: the reader may have completed it between
    // the wait timing out and the deregistration.
    if (!wait->done) {
      wait->reply.req_id = m.req_id;
      wait->reply.status =
          Status::Unavailable("write to storage owner timed out");
    }
  }
  return wait->reply;
}

Status PeerLink::SendDelta(const net::DeltaMsg& m) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return SendLocked(net::FrameType::kDelta, net::Encode(m));
}

Status PeerLink::SendGroupUpdate(const net::GroupUpdateMsg& m) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return SendLocked(net::FrameType::kGroupUpdate, net::Encode(m));
}

uint64_t PeerLink::shared_sym_prefix() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return shared_sym_prefix_v_;
}

PeerLink::PushCursor PeerLink::push_cursor() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return {last_pushed_version_v_, conn_generation_v_};
}

bool PeerLink::ConfirmPush(uint64_t generation, uint64_t version) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (conn_generation_v_ != generation) return false;
  last_pushed_version_v_ = std::max(last_pushed_version_v_, version);
  return true;
}

void PeerLink::Close() {
  std::vector<Reader> readers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    closed_ = true;
    if (conn_) DropConnectionLocked("peer link closed");
    readers.swap(readers_);
  }
  // Each reader fails its connection's requests before it exits, so
  // every handler has fired once these joins return. A reader cannot join
  // itself (Close called from a handler): it stays for the destructor's
  // Close to join.
  for (auto& r : readers) {
    if (r.thread.get_id() == std::this_thread::get_id()) {
      std::lock_guard<std::mutex> lock(conn_mu_);
      readers_.push_back(std::move(r));
    } else {
      r.thread.join();
    }
  }
}

}  // namespace eq::cluster
