#ifndef EQ_CLUSTER_NODE_H_
#define EQ_CLUSTER_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_router.h"
#include "cluster/peer.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/interface.h"
#include "service/service.h"

namespace eq::cluster {

/// Static configuration of one cluster node. Every node in the cluster
/// lists every other node in `peers`; membership is fixed for the node's
/// lifetime (the paper's coordination model needs no elections — group
/// ownership is a pure hash of relation names over the member list).
struct ClusterOptions {
  /// Unique per node, in [0, 65534] — proxy ticket ids tag (node_id + 1)
  /// into their high 16 bits; ClusterNode::Start rejects ids beyond that.
  uint32_t node_id = 0;
  std::string listen_host = "127.0.0.1";
  /// 0 = kernel-assigned; read back via ClusterNode::listen_port().
  uint16_t listen_port = 0;
  /// All other nodes (this node's own id/address is not listed).
  std::vector<PeerSpec> peers;
  /// The node that executes every write and pushes version deltas to the
  /// rest. Queries evaluate against each node's local replica.
  uint32_t storage_owner = 0;
  int connect_timeout_ms = 1000;
  int io_timeout_ms = 2000;
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;
  /// A forwarded submit that has not reached its group's owner within
  /// this many hops fails kInternal instead of looping (only reachable
  /// while group knowledge is still propagating).
  uint32_t max_forward_hops = 4;
  /// The embedded single-node service. `bootstrap` must build the SAME
  /// catalog in the SAME order on every node — the interner-prefix
  /// handshake enforces this at connect time.
  service::ServiceOptions service;
};

/// One inbound connection accepted from a peer (or any client speaking
/// the frame protocol). Shared between the connection's reader thread and
/// the shard-thread callbacks that push outcome frames back.
struct ServerConn {
  net::Socket sock;
  std::mutex send_mu;  ///< serializes frames onto `sock`

  /// How to cancel each in-flight forwarded submit, keyed by the
  /// sender's req_id: resolved locally (a live Ticket) or forwarded one
  /// hop further (the outbound link + its req id there).
  struct Inflight {
    service::Ticket local;
    PeerLink* forwarded = nullptr;
    uint64_t remote_req = 0;
  };
  std::mutex state_mu;
  std::unordered_map<uint64_t, Inflight> inflight;
};

/// The multi-node face of the coordination service: the same
/// Submit/Ticket/Cancel/ExecuteWrite/Metrics surface as the single-node
/// CoordinationService (both implement service::CoordinationInterface, so
/// client::Session code is byte-for-byte identical), backed by an
/// embedded local service plus socket links to peer nodes.
///
/// Division of labor per query: Submit canonicalizes the dialect locally
/// (so peers never re-parse SQL), routes the entangled-relation group
/// through the GroupTable, and either submits locally (this node owns the
/// group) or forwards the canonical form to the owner, returning a proxy
/// Ticket completed by the peer's outcome frame. Writes forward to the
/// storage owner, which pushes CoW version deltas to every follower;
/// an arriving delta wakes exactly the local pending queries that read a
/// replaced table — a write on one node answers a waiting query on
/// another with no polling.
///
/// Failure semantics: any transport failure — peer down, connect/read
/// timeout, mid-flight disconnect — surfaces as kUnavailable through the
/// returned Ticket (or write status) within the configured timeouts.
/// Never a hang.
class ClusterService : public service::CoordinationInterface {
 public:
  ClusterService(const ClusterOptions& opts,
                 service::CoordinationService* local);
  ~ClusterService() override;

  // --- the CoordinationInterface surface (client::Session binds here) ---
  Result<service::Ticket> Submit(client::Query query,
                                 service::SubmitOptions opts = {}) override;
  Status Cancel(const service::Ticket& ticket) override;
  Result<size_t> ExecuteWrite(std::string_view sql) override;
  service::ServiceMetrics Metrics() const override;
  Result<service::QueryTrace> Trace(service::TicketId ticket) const override;
  using service::CoordinationInterface::Trace;
  service::ServiceStateDump DumpState() const override;

  // --- inbound frame handlers (ClusterNode connection threads) ---
  net::HelloAckMsg HandleHello(const net::HelloMsg& m);
  void HandleSubmit(net::SubmitMsg m, std::shared_ptr<ServerConn> conn);
  void HandleCancel(const net::CancelMsg& m, ServerConn* conn);
  net::WriteReplyMsg HandleWrite(const net::WriteMsg& m);
  Status HandleDelta(const net::DeltaMsg& m);
  void HandleGroupUpdate(const net::GroupUpdateMsg& m);

  /// Closes every peer link (failing their in-flight requests with
  /// kUnavailable). Called by ClusterNode::Stop before the local service
  /// shuts down.
  void Shutdown();

  /// The node that owns `rels`' entangled group right now (tests: decide
  /// which node to kill / where a query will land).
  uint32_t OwnerOf(const std::vector<std::string>& rels) const {
    return groups_.ProbeOwner(rels);
  }
  uint32_t node_id() const { return self_; }

 private:
  PeerLink* LinkTo(uint32_t node) const;
  /// Sends GroupUpdates to every owner displaced by a routing merge
  /// (handling a displaced self by direct extraction).
  void NotifyDisplaced(const GroupTable::Decision& d);
  /// Re-submits one extracted query on the group's (possibly remote) new
  /// owner, completing the original ticket from the eventual outcome.
  void ReforwardExtracted(service::ExtractedQuery ex, uint32_t owner,
                          std::vector<std::string> group);
  /// Storage owner only: ships every version since each peer's last
  /// applied version over that peer's link.
  void PushDeltas();
  void SendOutcomeAndForget(ServerConn* conn, uint64_t req_id,
                            const service::ServiceOutcome& outcome);

  const uint32_t self_;
  const uint32_t storage_owner_;
  const uint32_t max_forward_hops_;
  const int io_timeout_ms_;
  service::CoordinationService* const local_;
  /// Interner size at construction (== end of bootstrap): the catalog
  /// prefix the connect-time handshake fingerprints on both sides.
  const uint64_t sym_catalog_hwm_;
  GroupTable groups_;
  std::unordered_map<uint32_t, std::unique_ptr<PeerLink>> links_;
  /// First Shutdown() call wins the reader unregistration (see there).
  std::atomic<bool> shut_down_{false};

  /// Proxy tickets for queries running on peers: ticket id -> (link,
  /// remote req id), so Cancel can chase them. Ids are tagged with the
  /// node id in the high bits so they can never collide with the local
  /// service's ids.
  struct Proxy {
    PeerLink* link = nullptr;
    uint64_t remote_req = 0;
  };
  mutable std::mutex proxy_mu_;
  std::unordered_map<service::TicketId, Proxy> proxies_;
  std::atomic<uint64_t> next_proxy_seq_{1};

  /// Per-origin replication progress (highest delta to_version applied
  /// contiguously), reported back in HelloAck so a reconnecting storage
  /// owner resumes instead of re-shipping. Guarded by applied_mu_ (read
  /// from the handshake path); HandleDelta additionally serializes its
  /// whole check-then-apply-then-advance under delta_mu_ so deltas from
  /// an old and a reconnected stream cannot interleave.
  mutable std::mutex applied_mu_;
  std::unordered_map<uint32_t, uint64_t> applied_versions_;
  std::mutex delta_mu_;

  /// Serializes delta extraction + push so versions reach each peer in
  /// order.
  std::mutex push_mu_;
};

/// One process-embedded cluster node: the listener + accept loop, one
/// server thread per inbound connection, the embedded CoordinationService
/// and the ClusterService facade over it. Two ClusterNodes in one test
/// binary talking over 127.0.0.1 form the canonical loopback cluster.
class ClusterNode {
 public:
  /// Binds the listener (kUnavailable if the address is taken), starts
  /// the accept loop, and constructs the embedded service (running its
  /// bootstrap). Peers do NOT need to be up — links connect lazily.
  static Result<std::unique_ptr<ClusterNode>> Start(ClusterOptions opts);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// The port actually bound (== opts.listen_port unless that was 0).
  uint16_t listen_port() const { return listener_.port(); }

  /// The coordination surface — hand `&node.service()` to a
  /// client::Session exactly as you would a single-node service.
  ClusterService& service() { return *cluster_; }
  /// The embedded single-node service (tests/diagnostics: FlushAll,
  /// AdvanceTicks, storage inspection). READ-ONLY in spirit on a cluster
  /// node: writes applied here directly (ApplyBatch/
  /// ExecuteWrite) update local storage and wake local queries but ship
  /// NO delta — followers stay stale until the next write through
  /// service().ExecuteWrite. All cluster writes must go through the
  /// ClusterService surface.
  service::CoordinationService& local_service() { return *local_; }

  /// Orderly shutdown: stop accepting, close inbound connections, close
  /// peer links (failing in-flight requests kUnavailable), then stop the
  /// embedded service. Idempotent; also run by the destructor. Do not
  /// call service() after Stop.
  void Stop();

 private:
  ClusterNode() = default;
  void AcceptLoop();
  void ServeConnection(std::shared_ptr<ServerConn> conn);

  ClusterOptions opts_;
  std::unique_ptr<service::CoordinationService> local_;
  std::unique_ptr<ClusterService> cluster_;
  net::Listener listener_;
  std::thread accept_thread_;

  std::mutex conns_mu_;
  bool stopped_ = false;
  std::vector<std::shared_ptr<ServerConn>> conns_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace eq::cluster

#endif  // EQ_CLUSTER_NODE_H_
