#ifndef EQ_CLUSTER_PEER_H_
#define EQ_CLUSTER_PEER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "service/ticket.h"
#include "util/interner.h"
#include "util/status.h"

namespace eq::cluster {

/// One peer node in the static cluster membership.
struct PeerSpec {
  uint32_t node_id = 0;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// The outbound half of a node's relationship with one peer: a single
/// lazily-established TCP connection carrying forwarded submits, cancels,
/// writes, delta pushes and group updates, plus a reader thread that
/// demultiplexes replies.
///
/// Failure model (the "never a hang" contract): every operation either
/// completes within the configured timeouts or fails with kUnavailable.
/// When the connection drops, every in-flight request — submit handlers,
/// blocked writers — is failed with kUnavailable immediately; the next
/// operation attempts a reconnect, gated by exponential backoff so a dead
/// peer costs one fast failure per backoff window instead of a connect
/// timeout per request.
///
/// Thread safety: all public methods are safe from any thread. Outcome
/// handlers fire on the reader thread (or the failing caller's thread)
/// with no link lock held, so a handler may call back into the link —
/// re-submitting on kUnavailable included. A connection's reader runs
/// its handlers one at a time; keep them bounded.
class PeerLink {
 public:
  /// Fires exactly once per Submit: with the remote outcome, or with a
  /// kFailed/kUnavailable outcome on transport failure.
  using OutcomeHandler = std::function<void(const service::ServiceOutcome&)>;

  struct Options {
    uint32_t self_node = 0;
    int connect_timeout_ms = 1000;
    int io_timeout_ms = 2000;
    int backoff_initial_ms = 50;
    int backoff_max_ms = 2000;
    /// Interner size right after bootstrap — the catalog prefix the
    /// handshake fingerprints. Symbols interned later (query constants,
    /// write payloads) diverge across nodes by design and must stay out
    /// of the verified prefix. 0 = fingerprint nothing, ship every
    /// symbol by name (always safe).
    uint64_t sym_catalog_hwm = 0;
  };

  /// `interner` is the node's shared interner (outlives the link); the
  /// handshake fingerprints its prefix.
  PeerLink(PeerSpec spec, Options opts, const StringInterner* interner);
  ~PeerLink();

  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  uint32_t peer() const { return spec_.node_id; }

  /// Forwards one canonical query; fills in msg.req_id and returns it
  /// (usable with Cancel). The handler always fires exactly once.
  uint64_t Submit(net::SubmitMsg msg, OutcomeHandler handler);

  /// Best-effort withdrawal of a forwarded submit. The resolution arrives
  /// through the submit's handler (Cancelled from the peer), not here.
  void Cancel(uint64_t req_id);

  /// Forwards one SQL write and blocks for the reply (bounded by
  /// io_timeout). Transport failures come back as status kUnavailable.
  net::WriteReplyMsg Write(const std::string& sql);

  /// Pushes one replication delta / group update (fire-and-forget at the
  /// protocol level; TCP ordering is the delivery guarantee).
  Status SendDelta(const net::DeltaMsg& m);
  Status SendGroupUpdate(const net::GroupUpdateMsg& m);

  /// Verified shared interner prefix from the last successful handshake:
  /// symbol ids below this are identical on both nodes; ids at or above
  /// must ship through a delta's name dictionary. 0 before first connect.
  uint64_t shared_sym_prefix() const;

  /// Replication resume point: the highest storage version this peer is
  /// known to have applied from us, captured together with the connection
  /// generation it was read under. The generation increments on every
  /// successful (re)connect — a reconnect resets the resume point to the
  /// follower's true applied version from the handshake ack, invalidating
  /// any delta extracted against the previous cursor.
  struct PushCursor {
    uint64_t version = 0;
    uint64_t generation = 0;
  };
  PushCursor push_cursor() const;

  /// Advances the resume point to `version` iff no reconnect happened
  /// since `generation` was read. Returns false when the connection
  /// turned over mid-push — the delta just sent was built on a cursor the
  /// follower may not hold, so the caller must re-extract from the fresh
  /// push_cursor() instead of marking the range shipped.
  bool ConfirmPush(uint64_t generation, uint64_t version);

  /// Permanently closes the link: fails all in-flight requests with
  /// kUnavailable and rejects future operations. Every handler has fired
  /// when it returns, except when called from a handler itself.
  void Close();

 private:
  struct WriteWait {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    net::WriteReplyMsg reply;
  };

  /// One TCP connection and the requests in flight on it. Its reader
  /// thread shares ownership, and it alone fails the connection's
  /// requests once the connection ends, so a torn-down connection never
  /// touches the requests of the one that replaced it.
  struct Connection {
    net::Socket sock;

    /// Each returns false, registering nothing, once the reader has
    /// failed the connection's requests.
    bool AddSubmit(uint64_t req_id, OutcomeHandler& handler);
    bool AddWrite(uint64_t req_id, std::shared_ptr<WriteWait> wait);
    /// Removes and returns a request; empty if it already resolved.
    OutcomeHandler TakeSubmit(uint64_t req_id);
    std::shared_ptr<WriteWait> TakeWrite(uint64_t req_id);
    bool open();
    /// The reason the reader reports when it fails what is in flight.
    void SetCloseReason(const std::string& why);
    /// Called by the reader as it exits: closes registration and fails
    /// every request still in flight with kUnavailable.
    void FailAll(std::string why);

   private:
    std::mutex mu_;
    bool open_ = true;
    std::string close_reason_;
    std::unordered_map<uint64_t, OutcomeHandler> submits_;
    std::unordered_map<uint64_t, std::shared_ptr<WriteWait>> writes_;
  };

  struct Reader {
    std::thread thread;
    /// Set as the reader's last step: joining it then cannot block.
    std::shared_ptr<std::atomic<bool>> done;
  };

  /// Establishes the connection + handshake if needed. Called with
  /// conn_mu_ held. kUnavailable when the peer is down or backing off.
  Status EnsureConnectedLocked();
  /// Serializes one frame over the live connection (conn_mu_ held),
  /// reconnecting first if needed; one immediate retry if the send fails
  /// on a connection that was already open (it may have died idle).
  Status SendLocked(net::FrameType type, const std::string& payload);
  void ReaderLoop(std::shared_ptr<Connection> conn,
                  std::shared_ptr<std::atomic<bool>> done);
  /// Shuts the current connection down (conn_mu_ held). Joins and fires
  /// nothing: the connection's reader wakes, fails its requests with
  /// kUnavailable and exits.
  void DropConnectionLocked(const std::string& why);
  std::string LostReason() const;

  const PeerSpec spec_;
  const Options opts_;
  const StringInterner* interner_;

  mutable std::mutex conn_mu_;
  std::shared_ptr<Connection> conn_;  ///< null while disconnected
  /// Readers not yet joined: the live connection's and any that are still
  /// failing a torn-down connection's requests. Finished ones are joined
  /// at the next connect, the rest by Close.
  std::vector<Reader> readers_;
  bool closed_ = false;
  std::chrono::steady_clock::time_point next_attempt_{};
  int backoff_ms_ = 0;
  uint64_t shared_sym_prefix_v_ = 0;
  uint64_t last_pushed_version_v_ = 0;
  /// Bumped by every successful connect; pairs with last_pushed_version_v_
  /// so ConfirmPush can tell whether a reconnect reset the resume point
  /// while a delta was in flight.
  uint64_t conn_generation_v_ = 0;

  std::atomic<uint64_t> next_req_id_{1};
};

}  // namespace eq::cluster

#endif  // EQ_CLUSTER_PEER_H_
