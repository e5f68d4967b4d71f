// Two-node loopback cluster tests: the acceptance suite for the
// multi-node coordination layer. Two ClusterNodes in one process talk
// over real TCP sockets on 127.0.0.1; the tests drive them exclusively
// through client::Session bound to the abstract CoordinationInterface —
// the same client code that runs against a single-node service.
//
// Covered: cross-node entangled-pair coordination, write-triggered
// wake-up of a remote pending query via snapshot delta replication,
// backend-agnostic Session code, cross-node group-merge migration,
// peer-death -> kUnavailable (never a hang), callbacks that re-submit
// from inside a link failure, handshake catalog verification, and
// garbage-on-the-port robustness.

#include "db/database.h"
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/session.h"
#include "cluster/node.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/service.h"

namespace eq::cluster {
namespace {

using client::Query;
using client::Session;
using service::ServiceOutcome;
using service::Ticket;

constexpr auto kWait = std::chrono::milliseconds(10000);

// Figure 1 (a), with the full table names the SQL dialect resolves
// against. Both nodes MUST run the identical bootstrap (same tables, same
// insertion order) — the interner-prefix handshake enforces it.
void FlightBootstrap(ir::QueryContext* ctx, db::Database* db) {
  ASSERT_TRUE(db->CreateTable("Flights", {{"fno", ir::ValueType::kInt},
                                          {"dest", ir::ValueType::kString}})
                  .ok());
  ASSERT_TRUE(db->CreateTable("Airlines",
                              {{"fno", ir::ValueType::kInt},
                               {"airline", ir::ValueType::kString}})
                  .ok());
  auto S = [&](const char* s) { return ir::Value::Str(ctx->Intern(s)); };
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(122), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(123), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(134), S("Paris")}).ok());
  ASSERT_TRUE(db->Insert("Flights", {ir::Value::Int(136), S("Rome")}).ok());
  ASSERT_TRUE(db->Insert("Airlines", {ir::Value::Int(122), S("United")}).ok());
  ASSERT_TRUE(db->Insert("Airlines", {ir::Value::Int(136), S("Alitalia")}).ok());
}

service::ServiceOptions LocalOpts() {
  service::ServiceOptions o;
  o.num_shards = 2;
  o.mode = engine::EvalMode::kIncremental;
  o.max_batch = 16;
  o.max_delay_ticks = 1;
  o.bootstrap = FlightBootstrap;
  return o;
}

uint16_t PickFreePort() {
  auto l = net::Listener::Bind("127.0.0.1", 0);
  EXPECT_TRUE(l.ok());
  uint16_t port = l->port();
  // Closed on scope exit; the port stays free long enough for the node to
  // rebind it (SO_REUSEADDR).
  return port;
}

ClusterOptions NodeOpts(uint32_t self, uint16_t self_port,
                        uint32_t peer, uint16_t peer_port) {
  ClusterOptions o;
  o.node_id = self;
  o.listen_port = self_port;
  o.peers = {{peer, "127.0.0.1", peer_port}};
  o.storage_owner = 0;
  o.connect_timeout_ms = 1000;
  o.io_timeout_ms = 3000;
  o.service = LocalOpts();
  return o;
}

/// A canonical 2-node loopback cluster (node 0 = storage owner).
struct TwoNodes {
  std::unique_ptr<ClusterNode> a;  // node 0
  std::unique_ptr<ClusterNode> b;  // node 1

  TwoNodes() {
    uint16_t pa = PickFreePort();
    uint16_t pb = PickFreePort();
    auto ra = ClusterNode::Start(NodeOpts(0, pa, 1, pb));
    auto rb = ClusterNode::Start(NodeOpts(1, pb, 0, pa));
    EXPECT_TRUE(ra.ok()) << ra.status().ToString();
    EXPECT_TRUE(rb.ok()) << rb.status().ToString();
    if (ra.ok()) a = std::move(ra.value());
    if (rb.ok()) b = std::move(rb.value());
  }
};

/// First relation name with the given prefix owned by `want` — both nodes
/// compute the same deterministic owner, so tests can pin a group to a
/// chosen node without depending on hash internals.
std::string RelationOwnedBy(ClusterService& svc, uint32_t want,
                            const std::string& prefix) {
  for (int i = 0; i < 64; ++i) {
    std::string rel = prefix + std::to_string(i);
    if (svc.OwnerOf({rel}) == want) return rel;
  }
  ADD_FAILURE() << "no relation with prefix " << prefix
                << " hashes to node " << want;
  return prefix + "unreachable";
}

std::pair<std::string, std::string> PairFor(const std::string& rel,
                                            const std::string& dest) {
  return {"{" + rel + "(Jerry, x)} " + rel + "(Kramer, x) :- Flights(x, " +
              dest + ")",
          "{" + rel + "(Kramer, y)} " + rel + "(Jerry, y) :- Flights(y, " +
              dest + ")"};
}

// ------------------------------------------------------- coordination --

TEST(ClusterTest, EntangledPairResolvesAcrossNodes) {
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);
  Session on_a(&cluster.a->service());
  Session on_b(&cluster.b->service());

  // Whichever node owns the group, exactly one side submits remotely.
  std::string rel = RelationOwnedBy(cluster.a->service(), 1, "R");
  auto [kramer, jerry] = PairFor(rel, "Paris");

  service::SubmitOptions sopts;
  sopts.preference = client::PreferenceSpec::MaximizeArg(1);
  auto tk = on_a.SubmitIr(kramer, sopts);
  auto tj = on_b.SubmitIr(jerry, sopts);
  ASSERT_TRUE(tk.ok()) << tk.status().ToString();
  ASSERT_TRUE(tj.ok()) << tj.status().ToString();

  ASSERT_TRUE(tk->WaitFor(kWait));
  ASSERT_TRUE(tj->WaitFor(kWait));
  ASSERT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
      << tk->outcome().status.ToString();
  ASSERT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
      << tj->outcome().status.ToString();

  // Consistent resolution: both halves see the same coordinated flight
  // (preference pins it to the max Paris flight, 134).
  ASSERT_FALSE(tk->outcome().tuples.empty());
  ASSERT_FALSE(tj->outcome().tuples.empty());
  EXPECT_NE(tk->outcome().tuples[0].find("134"), std::string::npos)
      << tk->outcome().tuples[0];
  EXPECT_NE(tj->outcome().tuples[0].find("134"), std::string::npos)
      << tj->outcome().tuples[0];
}

TEST(ClusterTest, WriteOnStorageOwnerWakesRemotePendingQueryViaDelta) {
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);
  Session on_a(&cluster.a->service());
  Session on_b(&cluster.b->service());

  // The pending pair must live on node 1 (NOT the storage owner) so
  // resolution can only come from a shipped version delta.
  std::string rel = RelationOwnedBy(cluster.a->service(), 1, "W");
  auto [kramer, jerry] = PairFor(rel, "Berlin");  // no Berlin flights yet

  auto tk = on_a.SubmitIr(kramer);
  auto tj = on_b.SubmitIr(jerry);
  ASSERT_TRUE(tk.ok()) << tk.status().ToString();
  ASSERT_TRUE(tj.ok()) << tj.status().ToString();
  EXPECT_FALSE(tk->WaitFor(std::chrono::milliseconds(200)));

  // Write through node 1's session: forwarded to the storage owner
  // (node 0), applied there, and the touched Flights table ships back to
  // node 1 as a delta — which wakes the pending pair.
  auto rows = on_b.ExecuteWrite("INSERT INTO Flights VALUES (200, 'Berlin')");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value(), 1u);

  ASSERT_TRUE(tk->WaitFor(kWait));
  ASSERT_TRUE(tj->WaitFor(kWait));
  ASSERT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
      << tk->outcome().status.ToString();
  ASSERT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
      << tj->outcome().status.ToString();
  ASSERT_FALSE(tk->outcome().tuples.empty());
  EXPECT_NE(tk->outcome().tuples[0].find("200"), std::string::npos)
      << tk->outcome().tuples[0];
}

/// The backend-agnostic client: byte-for-byte identical Session code,
/// handed either a single-node service or a cluster node.
void RunKramerJerry(service::CoordinationInterface* svc,
                    const std::string& rel) {
  Session session(svc);
  auto [kramer, jerry] = PairFor(rel, "Paris");
  auto tk = session.SubmitIr(kramer);
  auto tj = session.SubmitIr(jerry);
  ASSERT_TRUE(tk.ok()) << tk.status().ToString();
  ASSERT_TRUE(tj.ok()) << tj.status().ToString();
  ASSERT_TRUE(tk->WaitFor(kWait));
  ASSERT_TRUE(tj->WaitFor(kWait));
  EXPECT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
      << tk->outcome().status.ToString();
  EXPECT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
      << tj->outcome().status.ToString();
}

TEST(ClusterTest, SessionCodeIsBackendAgnostic) {
  service::CoordinationService single(LocalOpts());
  RunKramerJerry(&single, "Solo");

  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);
  // Same client function; the relation is owned by the OTHER node, so the
  // cluster backend transparently forwards both halves over the wire.
  RunKramerJerry(&cluster.a->service(),
                 RelationOwnedBy(cluster.a->service(), 1, "S"));
}

TEST(ClusterTest, CrossNodeGroupMergeMigratesPendingQuery) {
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);
  Session on_a(&cluster.a->service());
  Session on_b(&cluster.b->service());

  // rp: owned by node 0. rm: owned by node 1 AND lexicographically
  // smaller, so the merged group {rm, rp} moves to node 1 and node 0 must
  // extract + re-forward its pending query.
  std::string rp = RelationOwnedBy(cluster.a->service(), 0, "Pa");
  std::string rm = RelationOwnedBy(cluster.a->service(), 1, "Ma");
  ASSERT_LT(rm, rp);

  // q1 runs locally on node 0 and waits for a partner.
  auto t1 = on_a.SubmitIr("{" + rp + "(Bob, x)} " + rp +
                          "(Alice, x) :- Flights(x, Paris)");
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  EXPECT_FALSE(t1->WaitFor(std::chrono::milliseconds(200)));

  // q2 waits under rm on node 1.
  auto t2 = on_b.SubmitIr("{" + rm + "(Carol, y)} " + rm +
                          "(Dan, y) :- Flights(y, Paris)");
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();

  // The bridge entangles {rm, rp}: submitting it on node 0 re-routes the
  // merged group to node 1, displacing node 0 — which must extract q1 and
  // re-forward it so the three-way cycle coordinates on node 1.
  auto t3 = on_a.SubmitIr("{" + rp + "(Alice, z), " + rm + "(Dan, z)} " +
                          rp + "(Bob, z), " + rm +
                          "(Carol, z) :- Flights(z, Paris)");
  ASSERT_TRUE(t3.ok()) << t3.status().ToString();

  ASSERT_TRUE(t1->WaitFor(kWait));
  ASSERT_TRUE(t2->WaitFor(kWait));
  ASSERT_TRUE(t3->WaitFor(kWait));
  EXPECT_EQ(t1->outcome().state, ServiceOutcome::State::kAnswered)
      << t1->outcome().status.ToString();
  EXPECT_EQ(t2->outcome().state, ServiceOutcome::State::kAnswered)
      << t2->outcome().status.ToString();
  EXPECT_EQ(t3->outcome().state, ServiceOutcome::State::kAnswered)
      << t3->outcome().status.ToString();
}

// ------------------------------------------------------------ failure --

TEST(ClusterTest, DeadPeerYieldsUnavailableNotHang) {
  // Node 0 alone; its configured peer address has nothing listening.
  uint16_t pa = PickFreePort();
  uint16_t dead = PickFreePort();
  ClusterOptions opts = NodeOpts(0, pa, 1, dead);
  opts.storage_owner = 1;  // writes must cross to the dead node too
  auto node = ClusterNode::Start(opts);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  Session session(&node.value()->service());

  std::string rel = RelationOwnedBy(node.value()->service(), 1, "D");
  auto t = session.SubmitIr(PairFor(rel, "Paris").first);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(t->WaitFor(kWait)) << "submit to dead peer hung";
  EXPECT_EQ(t->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(t->outcome().status.code(), StatusCode::kUnavailable)
      << t->outcome().status.ToString();

  auto w = session.ExecuteWrite("INSERT INTO Flights VALUES (9, 'Oslo')");
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kUnavailable);
}

TEST(ClusterTest, KillingPeerMidFlightFailsPendingTicketUnavailable) {
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);
  Session on_a(&cluster.a->service());

  // Half a pair, owned by node 1: forwarded there and parked pending.
  std::string rel = RelationOwnedBy(cluster.a->service(), 1, "K");
  auto t = on_a.SubmitIr(PairFor(rel, "Paris").first);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_FALSE(t->WaitFor(std::chrono::milliseconds(200)));

  // Kill the peer mid-flight: node 0's proxy ticket must resolve
  // kUnavailable within the configured timeouts — never hang.
  auto start = std::chrono::steady_clock::now();
  cluster.b->Stop();
  ASSERT_TRUE(t->WaitFor(kWait)) << "ticket hung after peer death";
  EXPECT_EQ(t->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(t->outcome().status.code(), StatusCode::kUnavailable)
      << t->outcome().status.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(8));
}

/// Submits `text` with a callback that re-submits it once, the way a
/// client retries on kUnavailable; the retry's outcome fulfils `retried`.
/// The link fires the first callback from inside its own failure path, so
/// the retry re-enters the link that just failed.
struct Resubmitter {
  ClusterService* svc = nullptr;
  std::string text;
  std::promise<ServiceOutcome> retried;
  std::atomic<int> first_calls{0};
  std::atomic<int> retry_calls{0};
  std::atomic<int> first_code{-1};

  void Submit() {
    service::SubmitOptions first;
    first.callback = [this](service::TicketId, const ServiceOutcome& out) {
      first_calls.fetch_add(1);
      first_code.store(static_cast<int>(out.status.code()));
      service::SubmitOptions again;
      again.callback = [this](service::TicketId, const ServiceOutcome& o) {
        if (retry_calls.fetch_add(1) == 0) retried.set_value(o);
      };
      auto t = svc->Submit(Query::Ir(text), std::move(again));
      if (!t.ok()) {
        ServiceOutcome failed;
        failed.state = ServiceOutcome::State::kFailed;
        failed.status = t.status();
        if (retry_calls.fetch_add(1) == 0) retried.set_value(failed);
      }
    };
    auto t = svc->Submit(Query::Ir(text), std::move(first));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
  }

  void ExpectBothUnavailableOnce(const ServiceOutcome& retry) {
    EXPECT_EQ(retry.state, ServiceOutcome::State::kFailed);
    EXPECT_EQ(retry.status.code(), StatusCode::kUnavailable)
        << retry.status.ToString();
    EXPECT_EQ(first_code.load(), static_cast<int>(StatusCode::kUnavailable));
    // A duplicate resolution would land after the first; give it time.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(first_calls.load(), 1);
    EXPECT_EQ(retry_calls.load(), 1);
  }
};

TEST(ClusterTest, CallbackResubmittingToDeadPeerDoesNotDeadlock) {
  Resubmitter r;  // outlives the node whose callbacks point at it
  uint16_t pa = PickFreePort();
  uint16_t dead = PickFreePort();
  auto node = ClusterNode::Start(NodeOpts(0, pa, 1, dead));
  ASSERT_TRUE(node.ok()) << node.status().ToString();

  // The connect to the dead owner fails inside Submit, so the first
  // callback runs on the submitting thread; submit from a helper thread
  // so a deadlock there shows up as a timeout here.
  r.svc = &node.value()->service();
  r.text = PairFor(RelationOwnedBy(*r.svc, 1, "D"), "Paris").first;
  auto retried = r.retried.get_future();
  std::thread submitter([&r] { r.Submit(); });
  if (retried.wait_for(kWait) != std::future_status::ready) {
    ADD_FAILURE() << "re-submit from a failing link's callback deadlocked";
    // The submitter still holds the link's lock: leak the node and the
    // thread rather than hang the suite in their destructors.
    submitter.detach();
    (void)node.value().release();
    return;
  }
  submitter.join();
  r.ExpectBothUnavailableOnce(retried.get());
}

TEST(ClusterTest, CallbackResubmittingWhenPeerDiesMidFlightDoesNotAbort) {
  Resubmitter r;  // outlives the nodes whose callbacks point at it
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);

  // Half a pair, owned by node 1: forwarded there and parked pending.
  r.svc = &cluster.a->service();
  r.text = PairFor(RelationOwnedBy(*r.svc, 1, "M"), "Paris").first;
  auto retried = r.retried.get_future();
  r.Submit();
  EXPECT_NE(retried.wait_for(std::chrono::milliseconds(200)),
            std::future_status::ready);

  // The peer's death fails the forwarded submit on node 0's reader
  // thread, and the callback re-submits through the same link from there.
  cluster.b->Stop();
  ASSERT_EQ(retried.wait_for(kWait), std::future_status::ready)
      << "re-submit from the reader thread never resolved";
  r.ExpectBothUnavailableOnce(retried.get());
}

TEST(ClusterTest, CancelReachesForwardedQuery) {
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);
  Session on_a(&cluster.a->service());

  std::string rel = RelationOwnedBy(cluster.a->service(), 1, "C");
  auto t = on_a.SubmitIr(PairFor(rel, "Paris").first);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_FALSE(t->WaitFor(std::chrono::milliseconds(200)));

  EXPECT_TRUE(on_a.Cancel(t.value()).ok());
  ASSERT_TRUE(t->WaitFor(kWait)) << "cancelled ticket never resolved";
  EXPECT_EQ(t->outcome().state, ServiceOutcome::State::kFailed);
  EXPECT_EQ(t->outcome().status.code(), StatusCode::kCancelled)
      << t->outcome().status.ToString();
}

// -------------------------------------------------------- replication --

TEST(ClusterTest, FollowerRejectsGappedDeltaAndIgnoresReplays) {
  // A follower node; the configured storage owner (node 1) is not
  // running — deltas are hand-crafted and fed straight to the handler,
  // exactly what a connection thread does with a decoded kDelta frame.
  ClusterOptions opts = NodeOpts(0, PickFreePort(), 1, PickFreePort());
  opts.storage_owner = 1;
  auto node = ClusterNode::Start(opts);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  ClusterService& svc = node.value()->service();

  // The follower's applied version for an origin is exactly what its
  // HelloAck would report back to a reconnecting owner.
  auto applied_version = [&](uint32_t origin) {
    StringInterner empty;
    net::HelloMsg hello;
    hello.node_id = origin;
    hello.sym_hwm = 0;
    hello.sym_prefix_hash = net::InternerPrefixHash(empty, 0);
    return svc.HandleHello(hello).applied_db_version;
  };

  auto delta = [&](uint64_t from, uint64_t to, int fno,
                   const std::string& dest) {
    net::DeltaMsg m;
    m.origin_node = 1;
    m.from_version = from;
    m.to_version = to;
    net::DeltaMsg::TableRows t;
    t.table = "Flights";
    t.arity = 2;
    constexpr uint32_t kOwnerSym = 7777;  // above any shared prefix
    t.cells = {ir::Value::Int(fno), ir::Value::Str(kOwnerSym)};
    m.tables.push_back(std::move(t));
    m.dict.emplace_back(kOwnerSym, dest);
    return m;
  };

  // Contiguous from the initial state (applied = 0): accepted.
  EXPECT_TRUE(svc.HandleDelta(delta(0, 3, 200, "Berlin")).ok());
  EXPECT_EQ(applied_version(1), 3u);

  // Replayed history (an owner re-shipping after a resync race):
  // idempotently ignored, applied version unchanged.
  EXPECT_TRUE(svc.HandleDelta(delta(0, 3, 201, "Oslo")).ok());
  EXPECT_TRUE(svc.HandleDelta(delta(1, 2, 202, "Pisa")).ok());
  EXPECT_EQ(applied_version(1), 3u);

  // Gap (builds on version 5, only 3 applied): rejected so the serving
  // thread drops the connection and the owner resyncs via handshake —
  // applying it would silently skip tables touched in (3, 5].
  Status gap = svc.HandleDelta(delta(5, 6, 203, "Nice"));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kUnavailable) << gap.ToString();
  EXPECT_EQ(applied_version(1), 3u);

  // Overlapping re-ship after a resync (builds on 2 <= applied 3, a
  // superset of what we miss): accepted, advances to 6.
  EXPECT_TRUE(svc.HandleDelta(delta(2, 6, 204, "Rome")).ok());
  EXPECT_EQ(applied_version(1), 6u);
}

TEST(ClusterTest, StartRejectsNodeIdsThatOverflowTheProxyTag) {
  // (node_id + 1) << 48 with node_id 65535 shifts the proxy-ticket tag
  // out of the id entirely — ids would collide with local counter ids.
  auto self = ClusterNode::Start(NodeOpts(65535, 0, 1, PickFreePort()));
  ASSERT_FALSE(self.ok());
  EXPECT_EQ(self.status().code(), StatusCode::kInvalidArgument);

  auto peer = ClusterNode::Start(NodeOpts(0, 0, 70000, PickFreePort()));
  ASSERT_FALSE(peer.ok());
  EXPECT_EQ(peer.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- protocol --

TEST(ClusterTest, HandshakeRefusesMismatchedCatalog) {
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);

  // Speak the protocol directly with a hash that cannot match node 0's
  // bootstrap prefix: the node must answer with a refusal ack, not accept
  // deltas from a divergent catalog.
  auto sock = net::Socket::Connect("127.0.0.1", cluster.a->listen_port(), 2000);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  net::HelloMsg hello;
  hello.node_id = 9;
  hello.sym_hwm = 1;  // below the node's hwm, so the node verifies it
  hello.sym_prefix_hash = 0xdeadbeef;
  ASSERT_TRUE(net::SendFrame(sock.value(), net::FrameType::kHello,
                             net::Encode(hello), 2000)
                  .ok());
  auto reply = net::RecvFrame(sock.value(), 3000, 3000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::FrameType::kHelloAck);
  auto ack = net::DecodeHelloAck(reply->payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_FALSE(ack->ok);
  EXPECT_NE(ack->error.find("interner prefix mismatch"), std::string::npos)
      << ack->error;
}

TEST(ClusterTest, GarbageOnThePortDoesNotDisturbTheCluster) {
  TwoNodes cluster;
  ASSERT_TRUE(cluster.a && cluster.b);

  // A client that never says Hello, one that sends a corrupt frame type,
  // and one that sends a valid type with a garbage payload: the node hangs
  // up on each without crashing.
  {
    auto s = net::Socket::Connect("127.0.0.1", cluster.a->listen_port(), 2000);
    ASSERT_TRUE(s.ok());
    const char junk[] = {(char)0xff, (char)0xfe, 0x01, 0x02, 0x03, 0x04};
    (void)s.value().SendAll(junk, sizeof(junk), 1000);
  }
  {
    auto s = net::Socket::Connect("127.0.0.1", cluster.a->listen_port(), 2000);
    ASSERT_TRUE(s.ok());
    // Valid Hello first (an empty interner prefix always verifies), then
    // a truncated Submit payload.
    StringInterner empty;
    net::HelloMsg hello;
    hello.node_id = 9;
    hello.sym_hwm = 0;
    hello.sym_prefix_hash = net::InternerPrefixHash(empty, 0);
    ASSERT_TRUE(net::SendFrame(s.value(), net::FrameType::kHello,
                               net::Encode(hello), 2000)
                    .ok());
    auto ackf = net::RecvFrame(s.value(), 3000, 3000);
    ASSERT_TRUE(ackf.ok());
    ASSERT_TRUE(net::SendFrame(s.value(), net::FrameType::kSubmit,
                               "\x01\x02\x03", 2000)
                    .ok());
    // The node closes the connection on the corrupt payload.
    auto next = net::RecvFrame(s.value(), 5000, 5000);
    EXPECT_FALSE(next.ok());
  }

  // The cluster still coordinates normally afterwards.
  Session on_a(&cluster.a->service());
  Session on_b(&cluster.b->service());
  std::string rel = RelationOwnedBy(cluster.a->service(), 1, "G");
  auto [kramer, jerry] = PairFor(rel, "Paris");
  auto tk = on_a.SubmitIr(kramer);
  auto tj = on_b.SubmitIr(jerry);
  ASSERT_TRUE(tk.ok() && tj.ok());
  ASSERT_TRUE(tk->WaitFor(kWait));
  ASSERT_TRUE(tj->WaitFor(kWait));
  EXPECT_EQ(tk->outcome().state, ServiceOutcome::State::kAnswered)
      << tk->outcome().status.ToString();
  EXPECT_EQ(tj->outcome().state, ServiceOutcome::State::kAnswered)
      << tj->outcome().status.ToString();
}

}  // namespace
}  // namespace eq::cluster
