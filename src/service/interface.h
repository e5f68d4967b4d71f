#ifndef EQ_SERVICE_INTERFACE_H_
#define EQ_SERVICE_INTERFACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "client/query.h"
#include "engine/footprint.h"
#include "ir/query.h"
#include "service/metrics.h"
#include "service/ticket.h"
#include "service/trace.h"

namespace eq::service {

/// Per-submission knobs for Submit.
struct SubmitOptions {
  /// Logical-tick TTL; 0 = never stale.
  uint64_t ttl_ticks = 0;
  /// Fires exactly once on the owning shard's thread when the query
  /// resolves.
  TicketCallback callback;
  /// Per-query grounding preference (§6), summed across a coordination
  /// partition with ServiceOptions::preference.
  client::PreferenceSpec preference;
};

/// Point-in-time introspection of the whole service's pending state
/// (CoordinationService::DumpState): per shard, the op-queue depth, the
/// snapshot version the engine evaluates against (vs. the storage head —
/// the difference is the shard's snapshot lag), the drain-rate EWMA, and
/// every pending query with its entangled-group fingerprint, engine
/// partition size, and body relations. Each shard's section is one
/// consistent observation taken on that shard's thread.
struct ServiceStateDump {
  struct PendingQuery {
    TicketId ticket = 0;
    ir::QueryId qid = ir::kInvalidQuery;  ///< shard-local engine id
    double pending_ms = 0;
    bool traced = false;  ///< Trace(ticket) has its lifecycle
    /// Entangled-relation fingerprint the service routed on (sorted,
    /// '+'-joined) — queries sharing it can coordinate.
    std::string fingerprint;
    size_t partition_size = 0;  ///< entangled-group size on the shard
    std::vector<std::string> body_relations;
  };
  struct ShardState {
    uint32_t shard_id = 0;
    size_t queue_depth = 0;
    uint64_t snapshot_version = 0;
    /// Storage head minus snapshot_version = versions published but not
    /// yet adopted by this shard.
    uint64_t snapshot_lag = 0;
    double drain_ops_per_sec = 0;
    /// What the shard's engine holds (see engine::EngineFootprint).
    engine::EngineFootprint footprint;
    std::vector<PendingQuery> pending;  ///< sorted by ticket
  };

  uint64_t storage_version = 0;  ///< storage head at dump time
  /// Version-GC state at dump time: the watermark (min read-version across
  /// registered readers), versions retired by it so far, and versions the
  /// storage still retains for lagging readers.
  uint64_t gc_watermark = 0;
  uint64_t versions_retired = 0;
  uint64_t retained_versions = 0;
  std::vector<ShardState> shards;

  /// Prepare-path state: plan-cache occupancy/counters and pool shape.
  struct PrepareState {
    size_t edge_pool_size = 0;
    uint64_t edge_recycles = 0;
    size_t plan_cache_size = 0;
    size_t plan_cache_capacity = 0;
    uint64_t plan_cache_hits = 0;
    uint64_t plan_cache_misses = 0;
    uint64_t plan_cache_evictions = 0;
    uint64_t plan_cache_invalidations = 0;
  };
  PrepareState prepare;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// The coordination surface a client::Session talks to: submit entangled
/// queries in any dialect, get a Ticket future back, cancel, write, and
/// observe. CoordinationService implements it with in-process shards;
/// cluster::ClusterService implements the same contract with a mix of
/// local shards and peer nodes reached over sockets — client code is
/// identical against either (the multi-node acceptance criterion).
class CoordinationInterface {
 public:
  virtual ~CoordinationInterface() = default;

  /// Submits one typed query in any dialect; see the implementations for
  /// their synchronous-failure sets.
  virtual Result<Ticket> Submit(client::Query query, SubmitOptions opts = {}) = 0;

  /// Withdraws a pending query; its ticket resolves as Cancelled.
  virtual Status Cancel(const Ticket& ticket) = 0;

  /// Executes one SQL INSERT, DELETE or UPDATE statement; returns rows
  /// affected.
  virtual Result<size_t> ExecuteWrite(std::string_view sql) = 0;

  /// Aggregated counters, throughput and latency percentiles.
  virtual ServiceMetrics Metrics() const = 0;

  /// The recorded lifecycle of one (sampled) query.
  virtual Result<QueryTrace> Trace(TicketId ticket) const = 0;
  Result<QueryTrace> Trace(const Ticket& ticket) const {
    return Trace(ticket.id());
  }

  /// Pending-state introspection.
  virtual ServiceStateDump DumpState() const = 0;
};

}  // namespace eq::service

#endif  // EQ_SERVICE_INTERFACE_H_
