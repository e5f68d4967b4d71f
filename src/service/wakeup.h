#ifndef EQ_SERVICE_WAKEUP_H_
#define EQ_SERVICE_WAKEUP_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/interner.h"

namespace eq::service {

/// The service-wide relation→pending-shard index behind write-triggered
/// re-evaluation: for every database relation, how many pending queries on
/// each shard read it in their body. Every service write (ApplyBatch,
/// ExecuteWrite, replicated deltas) consults it to post a WriteNotify
/// control op to exactly the shards whose pending work the write could
/// affect — no broadcast, no polling.
///
/// Writers: each shard thread registers its own queries as they become
/// pending and unregisters them when they resolve, expire, cancel, or
/// migrate away (the new shard re-registers on arrival). Readers: any
/// client thread applying a write. Internally synchronized (every method
/// may be called from any thread); an entry dies with its last pending
/// reader, so the index stays proportional to the live working set.
///
/// The index decides WHO to notify; HOW OFTEN is bounded separately by
/// ShardRunner::NotifyWrite, which coalesces notifications per shard
/// while one WriteNotify op is still queued (see shard.h). Registration
/// racing a write is closed on the shard side: after registering, the
/// shard checks Storage::ChangedSince over the query's body relations and
/// self-wakes if a write slipped through the index lookup.
class WriteWakeupIndex {
 public:
  explicit WriteWakeupIndex(uint32_t num_shards)
      : num_shards_(num_shards) {}

  /// One query on `shard` whose body reads `rels` became pending.
  void AddPending(uint32_t shard, const std::vector<SymbolId>& rels);

  /// That query left the pending state. Must mirror a prior AddPending
  /// with the same relations.
  void RemovePending(uint32_t shard, const std::vector<SymbolId>& rels);

  /// Shards holding at least one pending query whose body reads any of
  /// `rels` (ascending, unique) — the WriteNotify fan-out set.
  std::vector<uint32_t> ShardsReading(
      const std::vector<SymbolId>& rels) const;

  /// Relations currently read by at least one pending query (diagnostic).
  size_t tracked_relation_count() const;

 private:
  const uint32_t num_shards_;
  mutable std::mutex mu_;
  /// relation → per-shard count of pending queries whose body reads it.
  std::unordered_map<SymbolId, std::vector<uint32_t>> counts_;
};

}  // namespace eq::service

#endif  // EQ_SERVICE_WAKEUP_H_
