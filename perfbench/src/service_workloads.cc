// The three service workloads: kway_open, write_mix and cluster_kway.
//
// All three drive service::CoordinationInterface (a single-node
// CoordinationService, or a two-node loopback ClusterService) with an
// open-loop Poisson stream of entangled groups, and optionally a paced
// stream of SQL writes through ExecuteWrite. A run is a fixed sequence of
// phases, each on a fresh system started five times (setup_s is the median
// of every start-up): five repeats of the reference rate (group latency;
// writes beside it, then a write probe), five closed bursts (batch_qps,
// CPU per query), and an offered-rate staircase (max_qps_at_slo). Every
// answer is checked when its system is torn down.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/query.h"
#include "cluster/node.h"
#include "common.h"
#include "db/storage.h"
#include "layers.h"
#include "net/socket.h"
#include "service/service.h"
#include "util/rng.h"
#include "workload/kway_workload.h"

namespace eq::perfbench {
namespace {

using service::CoordinationInterface;
using service::CoordinationService;
using service::ServiceOutcome;

const char* const kDests[] = {"Paris", "Rome", "Ithaca", "Oslo"};
/// A run whose reference phases sent later than this at p99 is invalid:
/// the generator, not the service, would shape its latencies.
constexpr double kGeneratorLagLimitMs = 25.0;
/// Group ids of enabling pairs start here, so they never share a member
/// name with a ring group.
constexpr size_t kEnableIdBase = 100000000;
/// Fresh rows inserted by writes start here (initial rows are 0..rows-1).
constexpr int64_t kFirstInsertedFno = 1000000;

// ------------------------------------------------------------ configuration

struct WorkloadConfig {
  bool cluster = false;
  size_t rows = 512;                ///< rows of table F(fno, dest)
  std::vector<int> ks = {2, 3, 4};  ///< ring sizes, drawn uniformly
  bool mixed_dests = false;         ///< groups read one of four dests
  std::vector<double> stair;        ///< offered q/s, ascending
  double ref_qps = 0;               ///< reference rate
  double write_qps = 0;             ///< writes beside the reference rate
  bool full_mix = false;            ///< INSERT/UPDATE/DELETE; else INSERT
  double enable_share = 0.25;       ///< share of writes enabling a pair
  double probe_write_qps = 0;       ///< write probe after the reference
  double probe_s = 0.8;             ///< its length at a 20 s run
  size_t burst_queries = 20000;
};

/// Groups per staircase step: three p99 windows.
constexpr size_t kStepGroups = 3000;

/// Phase lengths in seconds for a 20 s run (scaled by --seconds / 20).
struct PhasePlan {
  double warm_s = 0.1;
  double step_s = 0.3;
  bool tiny_steps = false;  ///< smoke size: ten groups per step
  double ref_s = 1.0;
  int repeats = 5;
  int setups = 5;  ///< start-ups of each fresh system
  int bursts = 5;
  double scale = 1;
};

PhasePlan PlanFor(const RunOptions& opts) {
  PhasePlan p;
  p.scale = opts.seconds / 20.0;
  if (opts.tiny) {
    p.warm_s = 0.05;
    p.step_s = 0.05;
    p.tiny_steps = true;
    p.ref_s = 0.15;
    p.repeats = 1;
    p.setups = 2;
    p.bursts = 1;
    p.scale = 1;
  }
  return p;
}

// ------------------------------------------------------------ system

/// F(fno INT, dest STR): fno 0..rows-1, dest cycling through kDests, with
/// indexes on both columns. `load_s` (optional) receives the load time.
service::SnapshotBootstrap FlightTable(size_t rows, double* load_s) {
  return [rows, load_s](ir::QueryContext* ctx, db::Database* db) {
    auto t0 = Clock::now();
    (void)db->CreateTable("F", {{"fno", ir::ValueType::kInt},
                                {"dest", ir::ValueType::kString}});
    (void)db->GetTable("F")->BuildIndex(0);
    (void)db->GetTable("F")->BuildIndex(1);
    for (size_t i = 0; i < rows; ++i) {
      (void)db->Insert("F", {ir::Value::Int(static_cast<int64_t>(i)),
                             ir::Value::Str(ctx->Intern(kDests[i % 4]))});
    }
    if (load_s) *load_s = MsBetween(t0, Clock::now()) / 1000.0;
  };
}

/// One running system under test: a single-node service, or a two-node
/// loopback cluster whose node 0 owns storage.
struct System {
  std::unique_ptr<CoordinationService> svc;
  std::unique_ptr<cluster::ClusterNode> a, b;
  std::vector<CoordinationInterface*> targets;  ///< member j -> targets[j % n]
  CoordinationInterface* writer = nullptr;      ///< where writes go
  std::vector<CoordinationService*> locals;     ///< [0] owns storage
  double bulk_load_s = 0;
  bool cluster() const { return a != nullptr; }
};

service::ServiceOptions ServiceOpts(const WorkloadConfig& cfg, bool traced,
                                    size_t trace_capacity, double* load_s) {
  service::ServiceOptions o;
  o.num_shards = 2;
  o.mode = engine::EvalMode::kIncremental;
  o.bootstrap = FlightTable(cfg.rows, load_s);
  if (traced) {
    o.trace_all = true;
    o.trace_capacity = trace_capacity;
    o.trace_max_events = 64;
  } else {
    o.trace_sample_every = 0;
  }
  return o;
}

std::unique_ptr<System> StartSystem(const WorkloadConfig& cfg, bool traced,
                                    size_t trace_capacity) {
  auto sys = std::make_unique<System>();
  if (!cfg.cluster) {
    sys->svc = std::make_unique<CoordinationService>(
        ServiceOpts(cfg, traced, trace_capacity, &sys->bulk_load_s));
    sys->targets = {sys->svc.get()};
    sys->writer = sys->svc.get();
    sys->locals = {sys->svc.get()};
    return sys;
  }
  auto free_port = []() -> uint16_t {
    auto l = net::Listener::Bind("127.0.0.1", 0);
    return l.ok() ? l.value().port() : 0;
  };
  const uint16_t pa = free_port();
  const uint16_t pb = free_port();
  double follower_load_s = 0;
  auto start = [&](uint32_t self, uint16_t port, uint32_t peer,
                   uint16_t peer_port, double* load_s) {
    cluster::ClusterOptions o;
    o.node_id = self;
    o.listen_port = port;
    o.peers = {{peer, "127.0.0.1", peer_port}};
    o.storage_owner = 0;
    o.io_timeout_ms = 5000;
    o.service = ServiceOpts(cfg, traced, trace_capacity, load_s);
    return cluster::ClusterNode::Start(std::move(o));
  };
  auto ra = start(0, pa, 1, pb, &sys->bulk_load_s);
  auto rb = start(1, pb, 0, pa, &follower_load_s);
  if (!ra.ok() || !rb.ok()) return nullptr;
  sys->a = std::move(ra.value());
  sys->b = std::move(rb.value());
  sys->targets = {&sys->a->service(), &sys->b->service()};
  sys->writer = &sys->a->service();
  sys->locals = {&sys->a->local_service(), &sys->b->local_service()};
  return sys;
}

// ------------------------------------------------------------ groups

/// One entangled group and everything observed about it. Callbacks fire
/// on shard (or peer-link) threads and fill one slot each; the last one
/// publishes `done`.
struct Group {
  size_t id = 0;
  int k = 0;
  std::string dest;
  std::string relation;
  std::vector<client::Query> members;
  int64_t want_x = -1;  ///< enabling pair: the row its write inserts
  Clock::time_point scheduled{}, submit_start{}, done_at{};
  std::atomic<int> remaining{0};
  std::atomic<int> next_slot{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::vector<std::string> tuples;           ///< per slot
  std::vector<Clock::time_point> cb_at;      ///< per slot
  std::vector<service::TicketId> cb_ticket;  ///< per slot
  std::vector<service::TicketId> tickets;    ///< per member
  std::vector<double> submit_us;             ///< per member
  std::vector<Clock::time_point> call_at;    ///< per member
  std::vector<int> node;                     ///< per member
};

using GroupStore = std::deque<std::unique_ptr<Group>>;

Group* NewGroup(GroupStore* store, size_t id, int k, const std::string& dest,
                const std::string& prefix) {
  store->push_back(std::make_unique<Group>());
  Group* g = store->back().get();
  g->id = id;
  g->k = k;
  g->dest = dest;
  workload::KWayGroupSpec spec{.group_id = id, .k = k, .body_table = "F",
                               .dest = dest, .rel_prefix = prefix};
  g->relation = workload::KWayGroupRelation(spec);
  g->members = workload::MakeKWayGroup(spec);
  g->remaining.store(k, std::memory_order_relaxed);
  g->tuples.resize(k);
  g->cb_at.resize(k);
  g->cb_ticket.resize(k);
  g->tickets.resize(k);
  g->submit_us.resize(k);
  g->call_at.resize(k);
  g->node.resize(k);
  return g;
}

void Finish(Group* g) {
  if (g->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    g->done_at = Clock::now();
    g->done.store(true, std::memory_order_release);
  }
}

service::TicketCallback CallbackFor(Group* g) {
  return [g](service::TicketId id, const ServiceOutcome& o) {
    int slot = g->next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot < g->k) {
      g->cb_at[slot] = Clock::now();
      g->cb_ticket[slot] = id;
      if (o.state == ServiceOutcome::State::kAnswered && !o.tuples.empty()) {
        g->tuples[slot] = o.tuples[0];
      } else {
        g->tuples[slot] = o.status.ToString();
        g->failed.store(true, std::memory_order_relaxed);
      }
    }
    Finish(g);
  };
}

/// Submits every member of `g`, alternating between the system's nodes.
void SubmitGroup(System& sys, Group* g) {
  g->submit_start = Clock::now();
  for (int j = 0; j < g->k; ++j) {
    const int node = j % static_cast<int>(sys.targets.size());
    service::SubmitOptions o;
    o.callback = CallbackFor(g);
    g->node[j] = node;
    g->call_at[j] = Clock::now();
    auto t = sys.targets[node]->Submit(g->members[j], std::move(o));
    g->submit_us[j] = UsBetween(g->call_at[j], Clock::now());
    if (t.ok()) {
      g->tickets[j] = t->id();
    } else {
      g->failed.store(true, std::memory_order_relaxed);
      Finish(g);
    }
  }
}

/// The x a tuple like "G7(U7m0, 42)" binds: its last argument.
bool ParseX(const std::string& tuple, int64_t* x) {
  const size_t comma = tuple.rfind(',');
  const size_t close = tuple.rfind(')');
  if (comma == std::string::npos || close == std::string::npos ||
      close < comma) {
    return false;
  }
  try {
    *x = std::stoll(tuple.substr(comma + 1, close - comma - 1));
    return true;
  } catch (...) {
    return false;
  }
}

// ------------------------------------------------------------ open loop

struct PhaseResult {
  std::vector<Group*> groups;
  std::vector<double> group_ms;  ///< answered groups, scheduled -> done
  std::vector<double> lag_ms;    ///< actual send - scheduled, per group
  size_t queries = 0;
  size_t failed_groups = 0;
  double drain_ms = 0;  ///< last scheduled arrival -> last group done
  double cpu_s = 0;
  double p99() const { return WindowedPercentile(group_ms, 99); }
  bool clean() const { return failed_groups == 0 && drain_ms <= 100; }
};

/// Waits for every group (bounded) and fills the latency side of `r`.
void Collect(PhaseResult* r, Clock::time_point last_arrival,
             double timeout_ms) {
  const auto deadline = After(Clock::now(), timeout_ms);
  for (Group* g : r->groups) {
    while (!g->done.load(std::memory_order_acquire) &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  Clock::time_point last_done = last_arrival;
  for (Group* g : r->groups) {
    if (!g->done.load(std::memory_order_acquire) ||
        g->failed.load(std::memory_order_relaxed)) {
      ++r->failed_groups;
      continue;
    }
    r->group_ms.push_back(MsBetween(g->scheduled, g->done_at));
    last_done = std::max(last_done, g->done_at);
  }
  r->drain_ms = MsBetween(last_arrival, last_done);
}

/// Runs `groups` open loop at `qps` offered queries/s over two client
/// threads, then waits for them.
PhaseResult RunOpenLoop(System& sys, std::vector<Group*> groups, double qps,
                        uint64_t seed) {
  PhaseResult r;
  r.groups = std::move(groups);
  if (r.groups.empty()) return r;
  for (Group* g : r.groups) r.queries += g->k;
  const double mean_k =
      static_cast<double>(r.queries) / static_cast<double>(r.groups.size());
  Rng rng(seed);
  const std::vector<double> offsets =
      workload::PoissonArrivalsMs(r.groups.size(), qps / mean_k, &rng);
  const Clock::time_point t0 = After(Clock::now(), 5);
  for (size_t i = 0; i < r.groups.size(); ++i) {
    r.groups[i]->scheduled = After(t0, offsets[i]);
  }
  r.lag_ms.resize(r.groups.size());
  const double cpu0 = ProcessCpuSeconds();
  constexpr size_t kClients = 2;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = t; i < r.groups.size(); i += kClients) {
        Group* g = r.groups[i];
        std::this_thread::sleep_until(g->scheduled);
        r.lag_ms[i] = MsBetween(g->scheduled, Clock::now());
        SubmitGroup(sys, g);
      }
    });
  }
  for (auto& c : clients) c.join();
  Collect(&r, r.groups.back()->scheduled, 5000);
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  return r;
}

// ------------------------------------------------------------ writes

struct WriteOp {
  enum class Kind { kInsert, kEnable, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  std::string sql;
  int64_t fno = 0;
  std::string dest;       ///< inserted row's dest
  Group* pair = nullptr;  ///< kEnable: the pair the row completes
  Clock::time_point scheduled{}, start{}, end{};
  bool ran = false;
  bool ok = false;
  double replication_ms = -1;
};

using WriteLog = std::vector<std::unique_ptr<WriteOp>>;

/// Generates writes against a model of table F, so deletes and updates
/// always target a live initial row and the final table can be checked.
/// Next() runs on the write thread, so the pairs it parks live in a store
/// of their own: the main thread builds ring groups meanwhile.
class WriteGenerator {
 public:
  WriteGenerator(const WorkloadConfig& cfg, uint64_t seed)
      : cfg_(cfg), rng_(seed) {
    for (size_t i = 0; i < cfg.rows; ++i) {
      live_initial_.push_back(static_cast<int64_t>(i));
    }
  }

  std::unique_ptr<WriteOp> Next() {
    auto op = std::make_unique<WriteOp>();
    const double u = rng_.NextDouble();
    if (u < cfg_.enable_share) {
      op->kind = WriteOp::Kind::kEnable;
    } else if (!cfg_.full_mix) {
      op->kind = WriteOp::Kind::kInsert;
    } else {
      const double v = (u - cfg_.enable_share) / (1 - cfg_.enable_share);
      op->kind = v < 0.4   ? WriteOp::Kind::kInsert
                 : v < 0.7 ? WriteOp::Kind::kUpdate
                           : WriteOp::Kind::kDelete;
    }
    if ((op->kind == WriteOp::Kind::kUpdate ||
         op->kind == WriteOp::Kind::kDelete) &&
        live_initial_.empty()) {
      op->kind = WriteOp::Kind::kInsert;
    }
    switch (op->kind) {
      case WriteOp::Kind::kEnable:
        op->fno = next_fno_++;
        op->dest = "E" + std::to_string(op->fno);
        op->pair = NewGroup(&pairs_, kEnableIdBase + enabled_++, 2, op->dest,
                            "W");
        op->pair->want_x = op->fno;
        break;
      case WriteOp::Kind::kInsert:
        op->fno = next_fno_++;
        op->dest = cfg_.full_mix ? kDests[rng_.Below(4)] : "Noise";
        break;
      case WriteOp::Kind::kUpdate:
      case WriteOp::Kind::kDelete: {
        const size_t j = rng_.Below(live_initial_.size());
        op->fno = live_initial_[j];
        if (op->kind == WriteOp::Kind::kDelete) {
          live_initial_[j] = live_initial_.back();
          live_initial_.pop_back();
        }
        break;
      }
    }
    switch (op->kind) {
      case WriteOp::Kind::kEnable:
      case WriteOp::Kind::kInsert:
        op->sql = "INSERT INTO F VALUES (" + std::to_string(op->fno) + ", '" +
                  op->dest + "')";
        break;
      case WriteOp::Kind::kUpdate:
        op->sql = "UPDATE F SET dest = 'Moved' WHERE fno = " +
                  std::to_string(op->fno);
        break;
      case WriteOp::Kind::kDelete:
        op->sql = "DELETE FROM F WHERE fno = " + std::to_string(op->fno);
        break;
    }
    return op;
  }

  /// The enabling pairs so far; read only while no write stream runs.
  const GroupStore& pairs() const { return pairs_; }

 private:
  const WorkloadConfig& cfg_;
  Rng rng_;
  GroupStore pairs_;
  std::vector<int64_t> live_initial_;
  int64_t next_fno_ = kFirstInsertedFno;
  size_t enabled_ = 0;
};

/// A paced write stream on its own thread: Poisson schedule at `qps`
/// until Stop(). An enabling write parks its pair first and writes 2 ms
/// later, so the write wakes the pending pair.
class WriteStream {
 public:
  WriteStream(System* sys, WriteGenerator* gen, double qps,
              bool measure_replication, uint64_t seed, WriteLog* log)
      : sys_(sys), measure_replication_(measure_replication) {
    thread_ = std::thread([this, gen, qps, seed, log] {
      Rng rng(seed);
      const double gap_ms = 1000.0 / qps;
      Clock::time_point next = After(Clock::now(), 2);
      while (!stop_.load(std::memory_order_relaxed)) {
        next = After(next, -std::log(1.0 - rng.NextDouble()) * gap_ms);
        std::this_thread::sleep_until(next);
        if (stop_.load(std::memory_order_relaxed)) break;
        log->push_back(gen->Next());
        Run(log->back().get(), next);
      }
    });
  }
  ~WriteStream() { Stop(); }
  WriteStream(const WriteStream&) = delete;
  WriteStream& operator=(const WriteStream&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Run(WriteOp* op, Clock::time_point at) {
    op->scheduled = at;
    Group* pair = op->pair;
    if (pair) {
      pair->scheduled = at;
      SubmitGroup(*sys_, pair);
      op->scheduled = After(at, 2);
      std::this_thread::sleep_until(op->scheduled);
    }
    op->start = Clock::now();
    auto r = sys_->writer->ExecuteWrite(op->sql);
    op->end = Clock::now();
    op->ran = true;
    op->ok = r.ok();
    if (measure_replication_ && sys_->cluster() && op->ok) {
      const uint64_t v = sys_->locals[0]->storage().version();
      const auto deadline = After(op->end, 500);
      while (sys_->locals[1]->storage().version() < v &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      if (sys_->locals[1]->storage().version() >= v) {
        op->replication_ms = MsBetween(op->end, Clock::now());
      }
    }
  }

  System* sys_;
  const bool measure_replication_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------------ checks

/// The dest every initial row starts with.
std::string InitialDest(int64_t fno) { return kDests[fno % 4]; }

/// Live rows of F as (fno, dest name), sorted.
std::vector<std::pair<int64_t, std::string>> TableF(
    const CoordinationService& svc) {
  std::vector<std::pair<int64_t, std::string>> out;
  db::Snapshot snap = svc.storage().Current();
  const db::TableVersion* t = snap.GetTable("F");
  if (t == nullptr) return out;
  for (size_t i = 0; i < t->physical_size(); ++i) {
    if (t->row_dead(i)) continue;
    const db::Row& row = t->row(i);
    out.emplace_back(row[0].AsInt(), snap.interner().Name(row[1].AsStr()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Checks every group and write of a run and counts its operations.
class Checker {
 public:
  Checker(const WorkloadConfig& cfg, Report* report)
      : cfg_(cfg), report_(report) {}

  /// Records what the writes did (call before CheckGroup, which needs the
  /// removal times) and counts failed writes.
  void NoteWrites(const WriteLog& log) {
    for (const auto& op : log) {
      if (!op->ran) continue;
      ++writes_;
      if (!op->ok) {
        ++failed_writes_;
        continue;
      }
      switch (op->kind) {
        case WriteOp::Kind::kInsert:
        case WriteOp::Kind::kEnable:
          inserted_[op->fno] = op->dest;
          break;
        case WriteOp::Kind::kUpdate:
        case WriteOp::Kind::kDelete:
          removed_at_.emplace(op->fno, op->end);
          break;
      }
    }
  }

  /// A group's answers: every member answered, each member's own tuple
  /// is present, all bind one x, and x is a row its dest had — the row
  /// its write inserted for an enabling pair, and never a row removed
  /// from the dest before the group was submitted.
  void CheckGroup(const Group& g) {
    ++groups_;
    queries_ += static_cast<uint64_t>(g.k);
    const bool done = g.done.load(std::memory_order_acquire);
    if (!done || g.failed.load(std::memory_order_relaxed)) {
      failed_queries_ += static_cast<uint64_t>(g.k);
      if (failed_queries_ <= 3 * static_cast<uint64_t>(g.k)) {
        std::string why = done ? "" : "still pending at drain";
        for (const std::string& t : g.tuples) {
          if (done && t.find('(') == std::string::npos) why += t + "; ";
        }
        std::fprintf(stderr, "perfbench: group %s failed: %s\n",
                     g.relation.c_str(), why.c_str());
      }
      return;
    }
    std::set<std::string> expected, seen;
    for (int j = 0; j < g.k; ++j) {
      expected.insert(g.relation + "(U" + std::to_string(g.id) + "m" +
                      std::to_string(j));
    }
    int64_t x0 = 0;
    for (int j = 0; j < g.k; ++j) {
      const std::string& t = g.tuples[j];
      seen.insert(t.substr(0, t.find(',')));
      int64_t x = 0;
      if (!ParseX(t, &x)) return Fail(g, "unparsable tuple '" + t + "'");
      if (j == 0) x0 = x;
      if (x != x0) return Fail(g, "members bind different x");
    }
    if (seen != expected) return Fail(g, "answer tuples do not match members");
    if (g.want_x >= 0) {
      if (x0 != g.want_x) {
        Fail(g, "answered x=" + std::to_string(x0) + ", its write inserted " +
                    std::to_string(g.want_x));
      }
      return;
    }
    const bool initial = x0 >= 0 && x0 < static_cast<int64_t>(cfg_.rows) &&
                         InitialDest(x0) == g.dest;
    auto ins = inserted_.find(x0);
    const bool inserted = ins != inserted_.end() && ins->second == g.dest;
    if (!initial && !inserted) {
      return Fail(g, "answered x=" + std::to_string(x0) + ", never a '" +
                         g.dest + "' row");
    }
    auto removed = removed_at_.find(x0);
    if (removed != removed_at_.end() && removed->second < g.submit_start) {
      Fail(g, "answered x=" + std::to_string(x0) + " after that row left '" +
                  g.dest + "'");
    }
  }

  /// The final F equals the initial rows with the write log applied.
  void CheckFinalTable(const WriteLog& log, const CoordinationService& svc) {
    std::map<int64_t, std::string> model;
    for (size_t i = 0; i < cfg_.rows; ++i) {
      model[static_cast<int64_t>(i)] = InitialDest(static_cast<int64_t>(i));
    }
    for (const auto& op : log) {
      if (!op->ran || !op->ok) continue;
      switch (op->kind) {
        case WriteOp::Kind::kInsert:
        case WriteOp::Kind::kEnable:
          model[op->fno] = op->dest;
          break;
        case WriteOp::Kind::kUpdate:
          model[op->fno] = "Moved";
          break;
        case WriteOp::Kind::kDelete:
          model.erase(op->fno);
          break;
      }
    }
    const std::vector<std::pair<int64_t, std::string>> want(model.begin(),
                                                            model.end());
    report_->Check(TableF(svc) == want,
                   "final table F differs from the write-log model");
  }

  /// Adds this run's operation counts to the report.
  void Count() {
    report_->Count(queries_ + writes_, failed_queries_ + failed_writes_);
    report_->Note("checked.groups", static_cast<double>(groups_));
    report_->Note("checked.writes", static_cast<double>(writes_));
    report_->Note("failed.queries", static_cast<double>(failed_queries_));
    report_->Note("failed.writes", static_cast<double>(failed_writes_));
  }

 private:
  void Fail(const Group& g, const std::string& what) {
    report_->Check(false, "group " + g.relation + ": " + what);
  }

  const WorkloadConfig& cfg_;
  Report* report_;
  std::map<int64_t, std::string> inserted_;
  std::map<int64_t, Clock::time_point> removed_at_;
  uint64_t groups_ = 0, queries_ = 0, failed_queries_ = 0;
  uint64_t writes_ = 0, failed_writes_ = 0;
};

// ------------------------------------------------------------ observation

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// The highest step rate that met the SLO: its p99 within kSloMs and the
/// step `clean` (no failed group, no backlog left). When the next step
/// missed on p99 alone, the crossing between the two is interpolated on
/// log p99, so the figure is not quantized to the steps. 0 when no step
/// met it: the figure is not gated, and a host stall in every low step
/// does not make the gated figures of the run untrustworthy.
double RateAtSlo(const std::vector<double>& rates,
                 const std::vector<double>& p99_ms,
                 const std::vector<bool>& clean, Report* report) {
  int best = -1;
  for (size_t i = 0; i < rates.size(); ++i) {
    char key[64];
    std::snprintf(key, sizeof(key), "stair.%.0f.p99_ms", rates[i]);
    report->Note(key, p99_ms[i]);
    if (clean[i] && p99_ms[i] <= kSloMs) best = static_cast<int>(i);
  }
  if (best < 0) return 0;
  double rate = rates[best];
  const size_t next = static_cast<size_t>(best) + 1;
  if (next < rates.size() && clean[next] && p99_ms[next] > kSloMs) {
    const double lo = std::log(std::max(p99_ms[best], 1e-3));
    const double hi = std::log(p99_ms[next]);
    const double f = hi > lo ? (std::log(kSloMs) - lo) / (hi - lo) : 0;
    rate += (rates[next] - rates[best]) * std::clamp(f, 0.0, 1.0);
  }
  return rate;
}

/// The repeats' samples one after another: a write stream yields too few
/// writes per repeat for a p99 window of its own.
std::vector<double> Concat(const std::vector<std::vector<double>>& parts) {
  std::vector<double> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Counters summed over every node's service, for before/after deltas.
struct Totals {
  uint64_t hits = 0, misses = 0, wakeups = 0, reevals = 0, satisfied = 0,
           coalesced = 0;
  double match_s = 0, db_s = 0;
  std::vector<uint64_t> shard_submitted;
};

Totals Sum(const System& sys) {
  Totals t;
  for (CoordinationService* svc : sys.locals) {
    const service::ServiceMetrics m = svc->Metrics();
    t.hits += m.prepare_cache_hits;
    t.misses += m.prepare_cache_misses;
    t.wakeups += m.write_wakeups;
    t.reevals += m.wakeup_reevals;
    t.satisfied += m.wakeup_satisfied;
    t.coalesced += m.write_notifies_coalesced;
    for (const auto& sh : m.shards) {
      t.match_s += sh.match_seconds;
      t.db_s += sh.db_seconds;
      t.shard_submitted.push_back(sh.submitted);
    }
  }
  return t;
}

/// Samples DumpState() every 20 ms on its own thread: the largest shard
/// snapshot lag and retained-version count seen.
class StateSampler {
 public:
  explicit StateSampler(const System* sys) {
    thread_ = std::thread([this, sys] {
      while (!stop_.load(std::memory_order_relaxed)) {
        for (CoordinationService* svc : sys->locals) {
          const service::ServiceStateDump d = svc->DumpState();
          for (const auto& shard : d.shards) {
            max_lag_ = std::max(max_lag_, shard.snapshot_lag);
          }
          max_retained_ = std::max(max_retained_, d.retained_versions);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~StateSampler() { Stop(); }
  StateSampler(const StateSampler&) = delete;
  StateSampler& operator=(const StateSampler&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  uint64_t max_lag() const { return max_lag_; }
  uint64_t max_retained() const { return max_retained_; }

 private:
  std::atomic<bool> stop_{false};
  uint64_t max_lag_ = 0;
  uint64_t max_retained_ = 0;
  std::thread thread_;
};

// ------------------------------------------------------------ the run

class ServiceRun {
 public:
  ServiceRun(WorkloadConfig cfg, Report* report)
      : cfg_(std::move(cfg)),
        report_(report),
        opts_(report->options()),
        plan_(PlanFor(opts_)),
        rng_(opts_.seed) {}

  void Run() {
    if (opts_.trace) {
      RunTraced();
    } else {
      RunMeasured();
    }
  }

 private:
  /// `n` fresh ring groups from the seeded generator.
  std::vector<Group*> MakeGroups(size_t n) {
    std::vector<Group*> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const int k = cfg_.ks[rng_.Below(cfg_.ks.size())];
      const std::string dest =
          cfg_.mixed_dests ? kDests[rng_.Below(4)] : "Paris";
      out.push_back(NewGroup(&groups_, next_id_++, k, dest, "G"));
    }
    return out;
  }

  /// Enough groups for `queries` queries, at least `min_groups`.
  std::vector<Group*> GroupsFor(double queries, size_t min_groups = 1) {
    double mean_k = 0;
    for (int k : cfg_.ks) mean_k += k;
    mean_k /= static_cast<double>(cfg_.ks.size());
    return MakeGroups(
        std::max(static_cast<size_t>(queries / mean_k), min_groups));
  }

  PhaseResult OpenLoop(double qps, double seconds, size_t min_groups = 1) {
    return RunOpenLoop(*sys_, GroupsFor(qps * seconds, min_groups), qps,
                       rng_.Next());
  }

  /// Starts the system `plan_.setups` times, tearing down all but the
  /// last, and records each start-up time in `setup_s_`. Every phase sets
  /// up this way, so the start-ups spread over the whole run: back to back
  /// they take milliseconds and would all see the host in one moment.
  void SetUp(bool traced = false, size_t trace_capacity = 0) {
    for (int i = 0; i < plan_.setups; ++i) {
      sys_.reset();
      const auto t0 = Clock::now();
      sys_ = StartSystem(cfg_, traced, trace_capacity);
      setup_s_.push_back(MsBetween(t0, Clock::now()) / 1000.0);
      if (!sys_) {
        report_->Invalid("system failed to start");
        return;
      }
    }
  }

  /// A fresh system, warmed up: every phase starts from the same state,
  /// whatever the phases before it left behind.
  void Fresh() {
    SetUp();
    if (sys_) WarmUp();
  }

  /// Quiesces the system, checks and counts everything it answered, and
  /// tears it down.
  void Retire() {
    Quiesce();
    CheckAll();
    for (const auto& op : write_log_) {
      if (!op->ran || !op->ok) continue;
      write_ms_.push_back(MsBetween(op->start, op->end));
      const Group* p = op->pair;
      if (p && p->done.load(std::memory_order_acquire) &&
          !p->failed.load(std::memory_order_relaxed)) {
        to_answer_ms_.push_back(MsBetween(op->start, p->done_at));
      }
    }
    sys_.reset();
    groups_.clear();
    write_log_.clear();
    gen_.reset();
  }

  void WarmUp() {
    OpenLoop(cfg_.ref_qps, plan_.warm_s);
    if (sys_->cluster()) {
      // One write, so the replication link is up before anything is timed.
      warm_write_ok_ =
          sys_->writer->ExecuteWrite("INSERT INTO F VALUES (999999, 'Warm')")
              .ok();
    }
  }

  void StartWrites(double qps, bool measure_replication) {
    if (!gen_) {
      gen_ = std::make_unique<WriteGenerator>(cfg_, opts_.seed ^ 0xF00DULL);
    }
    writes_ = std::make_unique<WriteStream>(sys_.get(), gen_.get(), qps,
                                            measure_replication,
                                            rng_.Next(), &write_log_);
  }
  void StopWrites() { writes_.reset(); }

  struct BurstResult {
    double qps = 0;           ///< queries resolved per second
    double cpu_us_per_q = 0;  ///< process CPU per query meanwhile
  };

  /// Closed burst: every group submitted back to back by two clients.
  BurstResult Burst() {
    std::vector<Group*> gs = GroupsFor(
        opts_.tiny ? 60.0 : static_cast<double>(cfg_.burst_queries));
    size_t queries = 0;
    for (Group* g : gs) queries += g->k;
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    for (Group* g : gs) g->scheduled = t0;
    std::vector<std::thread> clients;
    for (size_t t = 0; t < 2; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = t; i < gs.size(); i += 2) {
          SubmitGroup(*sys_, gs[i]);
        }
      });
    }
    for (auto& c : clients) c.join();
    PhaseResult r;
    r.groups = gs;
    Collect(&r, t0, 10000);
    const double q = static_cast<double>(queries);
    report_->Note("burst.queries", q);
    return {Ratio(q, r.drain_ms / 1000.0),
            Ratio((ProcessCpuSeconds() - cpu0) * 1e6, q)};
  }

  /// Every group submitted on this system: the rings, then the pairs the
  /// write stream parked. Call only while no write stream runs.
  std::vector<const Group*> Submitted() const {
    std::vector<const Group*> out;
    auto add = [&out](const GroupStore& store) {
      for (const auto& g : store) {
        if (g->submit_start != Clock::time_point{}) out.push_back(g.get());
      }
    };
    add(groups_);
    if (gen_) add(gen_->pairs());
    return out;
  }

  /// Lets every submitted group resolve (bounded), then drains every node
  /// and waits until the follower caught up. Draining first would fail a
  /// pair still waiting for its enabling write's delta.
  void Quiesce() {
    const auto resolve_by = After(Clock::now(), 5000);
    for (const Group* g : Submitted()) {
      while (!g->done.load(std::memory_order_acquire) &&
             Clock::now() < resolve_by) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    for (CoordinationService* s : sys_->locals) s->Drain();
    if (!sys_->cluster()) return;
    const auto deadline = After(Clock::now(), 5000);
    while (sys_->locals[1]->storage().version() <
               sys_->locals[0]->storage().version() &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Every correctness check, and the operation counts.
  void CheckAll() {
    Checker check(cfg_, report_);
    check.NoteWrites(write_log_);
    for (const Group* g : Submitted()) check.CheckGroup(*g);
    if (cfg_.full_mix) check.CheckFinalTable(write_log_, *sys_->locals[0]);
    if (sys_->cluster()) {
      report_->Check(warm_write_ok_, "cluster: the warm-up write failed");
      const auto owner = TableF(*sys_->locals[0]);
      report_->Check(owner == TableF(*sys_->locals[1]),
                     "cluster: follower table F differs from the owner's");
      report_->Note("cluster.rows_f", static_cast<double>(owner.size()));
    }
    check.Count();
  }

  void RunMeasured() {
    const double s = plan_.scale;

    // Repeats of the reference rate (writes beside it, then the write
    // probe), each on a fresh system; every metric is the median over
    // the repeats.
    std::vector<double> p50s, ref_cpus, write_p50s, to_answer_p50s, lags;
    std::vector<std::vector<double>> group_ms, write_ms, to_answer_ms;
    for (int i = 0; i < plan_.repeats; ++i) {
      SetUp();
      if (!sys_) return;
      WarmUp();
      if (cfg_.write_qps > 0) StartWrites(cfg_.write_qps, false);
      const PhaseResult ref = OpenLoop(cfg_.ref_qps, plan_.ref_s * s);
      StopWrites();
      if (cfg_.probe_write_qps > 0) {
        StartWrites(cfg_.probe_write_qps, false);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.tiny ? 0.1 : cfg_.probe_s * s));
        StopWrites();
      }
      const size_t w0 = write_ms_.size(), a0 = to_answer_ms_.size();
      Retire();
      p50s.push_back(Median(ref.group_ms));
      report_->Note("ref." + std::to_string(i) + ".p50_ms", p50s.back());
      ref_cpus.push_back(
          Ratio(ref.cpu_s * 1e6, static_cast<double>(ref.queries)));
      group_ms.push_back(ref.group_ms);
      write_ms.emplace_back(write_ms_.begin() + w0, write_ms_.end());
      to_answer_ms.emplace_back(to_answer_ms_.begin() + a0,
                                to_answer_ms_.end());
      write_p50s.push_back(Median(write_ms.back()));
      to_answer_p50s.push_back(Median(to_answer_ms.back()));
      lags.insert(lags.end(), ref.lag_ms.begin(), ref.lag_ms.end());
    }

    // Closed bursts: throughput, and CPU per query with every thread busy
    // (at the reference rate, idle wake-ups dominate and swing with the
    // host; that figure is a note).
    std::vector<double> bursts, cpus;
    for (int i = 0; i < plan_.bursts; ++i) {
      Fresh();
      if (!sys_) return;
      const BurstResult b = Burst();
      bursts.push_back(b.qps);
      cpus.push_back(b.cpu_us_per_q);
      report_->Note("burst." + std::to_string(i) + ".qps", b.qps);
      Retire();
    }

    // The staircase of read rates, one fresh system per step. Writes stay
    // out of it: each one stalls reads for milliseconds, which would turn
    // the SLO test into a coin toss; the repeats above measure reads
    // beside writes.
    std::vector<double> rates, p99s;
    std::vector<bool> clean;
    int fails_in_row = 0;
    bool passed = false;
    for (double qps : cfg_.stair) {
      Fresh();
      if (!sys_) return;
      const PhaseResult st =
          OpenLoop(qps, plan_.step_s * s,
                   plan_.tiny_steps ? 10 : kStepGroups);
      Retire();
      rates.push_back(qps);
      p99s.push_back(st.p99());
      clean.push_back(st.clean());
      // Past the knee after three misses in a row, once a step has met
      // the SLO: a noisy moment on a low step does not end the climb.
      const bool met = st.clean() && st.p99() <= kSloMs;
      passed = passed || met;
      fails_in_row = met ? 0 : fails_in_row + 1;
      if ((passed && fails_in_row >= 3) || (opts_.tiny && rates.size() >= 2)) {
        break;
      }
    }

    report_->Metric("setup_s", Median(setup_s_), "s");
    report_->Note("setup.count", static_cast<double>(setup_s_.size()));
    report_->Note("setup.min_s", Percentile(setup_s_, 0));
    report_->Note("setup.max_s", Percentile(setup_s_, 100));
    report_->Metric("group_p50_ms", Median(p50s), "ms");
    report_->Tail("group_p99_ms", group_ms, 99, "ms");
    report_->Metric("max_qps_at_slo", RateAtSlo(rates, p99s, clean, report_),
                    "queries/s");
    report_->Metric("cpu_us_per_query", Median(cpus), "us");
    report_->Metric("write_p50_ms", Median(write_p50s), "ms");
    report_->Tail("write_p99_ms", {Concat(write_ms)}, 99, "ms");
    report_->Metric("write_to_answer_p50_ms", Median(to_answer_p50s), "ms");
    report_->Tail("write_to_answer_p95_ms", {Concat(to_answer_ms)}, 95, "ms");
    report_->Metric("batch_qps", Median(bursts), "queries/s");
    report_->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report_->Metric(
        "answered_share",
        1.0 - Ratio(static_cast<double>(report_->failed()),
                    static_cast<double>(report_->attempted())),
        "ratio");
    report_->Note("ref.qps", cfg_.ref_qps);
    report_->Note("ref.cpu_us_per_query", Median(ref_cpus));
    const double lag = Percentile(lags, 99);
    report_->Note("ref.send_lag_p99_ms", lag);
    if (lag > kGeneratorLagLimitMs && !opts_.tiny) {
      report_->Invalid("generator fell behind: send lag p99 " +
                       std::to_string(lag) + " ms");
    }
  }

  // ---------------------------------------------------------- traced run

  void RunTraced() {
    // The same reference phase with tracing off first: the two medians
    // give the tracing overhead. Its answers are checked like any other.
    SetUp();
    if (!sys_) return;
    WarmUp();
    if (cfg_.write_qps > 0) StartWrites(cfg_.write_qps, false);
    const std::vector<double> plain_ms =
        OpenLoop(cfg_.ref_qps, plan_.ref_s).group_ms;
    StopWrites();
    Retire();

    const size_t capacity =
        static_cast<size_t>(cfg_.ref_qps * plan_.ref_s * 1.5) + 20000;
    SetUp(true, capacity);
    if (!sys_) return;
    WarmUp();
    StateSampler sampler(sys_.get());
    const Totals t0 = Sum(*sys_);
    if (cfg_.write_qps > 0) StartWrites(cfg_.write_qps, true);
    const PhaseResult traced = OpenLoop(cfg_.ref_qps, plan_.ref_s);
    StopWrites();
    if (cfg_.probe_write_qps > 0) {
      StartWrites(cfg_.probe_write_qps, true);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts_.tiny ? 0.1 : cfg_.probe_s));
      StopWrites();
    }
    Quiesce();
    const Totals t1 = Sum(*sys_);
    sampler.Stop();

    size_t writes = 0;
    std::vector<double> replication_ms;
    for (const auto& op : write_log_) {
      if (!op->ran) continue;
      ++writes;
      if (op->replication_ms >= 0) replication_ms.push_back(op->replication_ms);
    }
    SpanMetrics(traced, plain_ms);
    report_->Metric("service.prepare_us.p50", PrepareReplay(), "us");
    report_->Metric(
        "service.plan_cache_hit_ratio",
        Ratio(static_cast<double>(t1.hits - t0.hits),
              static_cast<double>(t1.hits - t0.hits + t1.misses - t0.misses)),
        "ratio");
    double shard_mean = 0, shard_max = 0;
    for (size_t i = 0; i < t1.shard_submitted.size(); ++i) {
      const double d =
          static_cast<double>(t1.shard_submitted[i] - t0.shard_submitted[i]);
      shard_mean += d;
      shard_max = std::max(shard_max, d);
    }
    shard_mean /= static_cast<double>(
        std::max<size_t>(1, t1.shard_submitted.size()));
    report_->Metric("service.shard_load_imbalance",
                    Ratio(shard_max, shard_mean), "ratio");
    const double wakeups = static_cast<double>(t1.wakeups - t0.wakeups);
    const double coalesced = static_cast<double>(t1.coalesced - t0.coalesced);
    report_->Metric("service.wakeups_per_write",
                    Ratio(wakeups, static_cast<double>(writes)), "count");
    report_->Metric("service.wakeup_useful_ratio",
                    Ratio(static_cast<double>(t1.satisfied - t0.satisfied),
                          static_cast<double>(t1.reevals - t0.reevals)),
                    "ratio");
    report_->Metric("service.notify_coalesced_ratio",
                    Ratio(coalesced, coalesced + wakeups), "ratio");
    report_->Metric("service.snapshot_lag_versions.max",
                    static_cast<double>(sampler.max_lag()), "versions");
    const double kq =
        static_cast<double>(std::max<size_t>(1, traced.queries)) / 1000.0;
    report_->Metric("engine.match_s_per_1k_queries",
                    (t1.match_s - t0.match_s) / kq, "s");
    report_->Metric("engine.db_s_per_1k_queries", (t1.db_s - t0.db_s) / kq,
                    "s");
    report_->Metric("db.retained_versions.max",
                    static_cast<double>(sampler.max_retained()), "versions");
    report_->Metric("db.bulk_load_s", sys_->bulk_load_s, "s");
    report_->Metric("cluster.replication_lag_ms.p50", Median(replication_ms),
                    "ms");
    report_->Metric("harness.send_lag_ms.p99", Percentile(traced.lag_ms, 99),
                    "ms");
    ReplayAll(traced);
    Retire();
  }

  /// The per-query spans: trace events of every member its submitting
  /// node owns, the harness's own timestamps around them, and the Submit
  /// calls (remote ones apart).
  void SpanMetrics(const PhaseResult& traced,
                   const std::vector<double>& plain_ms) {
    std::vector<double> route, queue, dwell, cb_delay, evals, submit_us,
        remote_submit_us;
    double total_ms = 0, unattributed_ms = 0;
    size_t members = 0;
    for (size_t gi = 0; gi < traced.groups.size(); ++gi) {
      const Group* g = traced.groups[gi];
      if (!g->done.load(std::memory_order_acquire)) continue;
      const uint32_t owner =
          sys_->cluster() ? sys_->a->service().OwnerOf({g->relation}) : 0;
      std::unordered_map<service::TicketId, Clock::time_point> cb;
      for (int s = 0; s < g->k; ++s) cb[g->cb_ticket[s]] = g->cb_at[s];
      for (int j = 0; j < g->k; ++j) {
        ++members;
        const bool remote =
            sys_->cluster() && static_cast<uint32_t>(g->node[j]) != owner;
        (remote ? remote_submit_us : submit_us).push_back(g->submit_us[j]);
        if (remote) continue;
        auto tr = sys_->targets[g->node[j]]->Trace(g->tickets[j]);
        auto cb_it = cb.find(g->tickets[j]);
        if (!tr.ok() || !tr->resolved || cb_it == cb.end()) continue;
        Clock::time_point resolved{};
        for (const auto& ev : tr->events) {
          if (ev.kind == service::TraceEventKind::kResolved) resolved = ev.at;
        }
        const double delay_us = UsBetween(resolved, cb_it->second);
        route.push_back(tr->spans.route_us);
        queue.push_back(tr->spans.queue_us);
        dwell.push_back(tr->spans.pending_us);
        cb_delay.push_back(delay_us);
        evals.push_back(static_cast<double>(tr->spans.eval_count));
        const double total = MsBetween(g->scheduled, cb_it->second);
        const double covered =
            traced.lag_ms[gi] + MsBetween(g->submit_start, g->call_at[j]) +
            (tr->spans.route_us + tr->spans.queue_us + tr->spans.pending_us +
             delay_us) / 1000.0;
        total_ms += total;
        unattributed_ms += std::max(0.0, total - covered);
      }
    }
    report_->Metric("cluster.remote_share",
                    Ratio(static_cast<double>(remote_submit_us.size()),
                          static_cast<double>(members)),
                    "ratio");
    report_->Metric("cluster.remote_submit_call_us.p50",
                    Median(remote_submit_us), "us");
    submit_us.insert(submit_us.end(), remote_submit_us.begin(),
                     remote_submit_us.end());
    report_->Metric("service.submit_call_us.p50", Median(submit_us), "us");
    report_->Metric("service.submit_call_us.p99", Percentile(submit_us, 99),
                    "us");
    report_->Metric("service.route_us.p50", Median(route), "us");
    report_->Metric("service.queue_wait_us.p50", Median(queue), "us");
    report_->Metric("service.queue_wait_us.p99", Percentile(queue, 99), "us");
    report_->Metric("service.engine_dwell_us.p50", Median(dwell), "us");
    report_->Metric("service.callback_delay_us.p50", Median(cb_delay), "us");
    report_->Metric("service.evals_per_query", Mean(evals), "count");
    report_->Metric("harness.trace_overhead",
                    Ratio(Median(traced.group_ms), Median(plain_ms)), "ratio");
    report_->Metric("harness.unattributed_share",
                    Ratio(unattributed_ms, total_ms), "ratio");
    report_->Note("trace.members_with_spans",
                  static_cast<double>(route.size()));
  }

  /// Canonicalize() on fresh groups of the workload's shape: the prepare
  /// every new group pays.
  double PrepareReplay() {
    std::vector<double> us;
    for (const Group* g : MakeGroups(opts_.tiny ? 20 : 1000)) {
      for (const auto& m : g->members) {
        const auto t0 = Clock::now();
        (void)sys_->locals[0]->Canonicalize(m);
        us.push_back(UsBetween(t0, Clock::now()));
      }
    }
    return Median(us);
  }

  /// The layer replays on this run's own queries and writes.
  void ReplayAll(const PhaseResult& traced) {
    std::vector<client::PortableQuery> programs;
    const size_t limit = opts_.tiny ? 200 : 3000;
    for (const Group* g : traced.groups) {
      for (const auto& m : g->members) {
        if (programs.size() < limit) programs.push_back(*m.program());
      }
    }
    CoordinationService& owner = *sys_->locals[0];
    const db::Snapshot snap = owner.storage().Current();
    ir::QueryContext ctx(owner.storage().interner_ptr());
    ir::QuerySet qs;
    for (const auto& p : programs) {
      auto q = p.Instantiate(&ctx);
      if (q.ok()) qs.queries.push_back(std::move(q).value());
    }
    qs.AssignIds();
    ReplayCore(qs, snap, report_);
    ReplayEngine(programs, snap, owner.storage().interner_ptr(), engine::EvalMode::kIncremental, report_);
    ReplayNet(programs, report_);
    ReplayIntern(ConstantsOf(programs), report_);

    std::vector<std::string> sql;
    for (const auto& op : write_log_) {
      if (op->ran) sql.push_back(op->sql);
    }
    auto interner = std::make_shared<StringInterner>();
    db::Storage primary(interner), follower(interner);
    for (db::Storage* st : {&primary, &follower}) {
      ir::QueryContext bctx(interner);
      FlightTable(cfg_.rows, nullptr)(&bctx, st->mutable_db());
      st->Publish();
    }
    ReplayWrites(sql, &primary, &follower, report_);
  }

  WorkloadConfig cfg_;
  Report* report_;
  const RunOptions opts_;
  const PhasePlan plan_;
  Rng rng_;
  size_t next_id_ = 0;
  bool warm_write_ok_ = true;
  std::vector<double> write_ms_, to_answer_ms_;  ///< every retired system's
  std::vector<double> setup_s_;                  ///< every start-up's
  // Declared before sys_ and writes_: shard callbacks and the write thread
  // use them until the system is torn down.
  GroupStore groups_;
  WriteLog write_log_;
  std::unique_ptr<WriteGenerator> gen_;
  std::unique_ptr<System> sys_;
  std::unique_ptr<WriteStream> writes_;
};

}  // namespace

void RunKwayOpen(Report* report) {
  WorkloadConfig c;
  c.rows = 512;
  c.ks = {2, 3, 4};
  c.stair = {8000,  16000, 24000, 32000, 40000, 48000, 56000,
             64000, 72000, 80000, 88000, 96000, 104000};
  c.ref_qps = 8000;
  c.probe_write_qps = 1000;
  c.enable_share = 0.25;
  c.burst_queries = 30000;
  ServiceRun(c, report).Run();
}

void RunWriteMix(Report* report) {
  WorkloadConfig c;
  c.rows = 8192;
  c.ks = {2};
  c.mixed_dests = true;
  c.stair = {4000,  8000,  12000, 16000, 20000, 26000,
             32000, 40000, 48000, 56000, 64000};
  c.ref_qps = 2000;
  c.write_qps = 60;
  c.probe_write_qps = 300;
  c.probe_s = 1.5;
  c.full_mix = true;
  c.enable_share = 0.3;
  c.burst_queries = 20000;
  ServiceRun(c, report).Run();
}

void RunClusterKway(Report* report) {
  WorkloadConfig c;
  c.cluster = true;
  c.rows = 512;
  c.ks = {2, 3, 4};
  c.stair = {8000,  12000, 16000, 20000, 26000,
             32000, 40000, 48000, 56000, 64000};
  c.ref_qps = 4000;
  c.write_qps = 250;
  c.probe_write_qps = 300;
  c.enable_share = 0.3;
  c.burst_queries = 20000;
  ServiceRun(c, report).Run();
}

}  // namespace eq::perfbench
