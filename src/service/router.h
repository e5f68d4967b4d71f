#ifndef EQ_SERVICE_ROUTER_H_
#define EQ_SERVICE_ROUTER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/disjoint_set.h"
#include "util/status.h"

namespace eq::service {

inline constexpr uint32_t kInvalidShard = UINT32_MAX;

/// Routes the query stream across engine shards by entangled-relation
/// signature, the service-level analogue of core::Partitioner: two queries
/// can only coordinate if they share an ANSWER relation (§4.1.2 — edges of
/// the unifiability graph connect a head and a postcondition of the same
/// relation), so colocating every "shares an entangled relation" component
/// on one shard guarantees potential partners are never separated.
///
/// Assignment is sticky per relation group: the first query naming a group
/// picks the least-loaded shard; later queries follow. When one query
/// bridges two groups that were already pinned to different shards, the
/// groups merge onto the shard of the larger group and RouteDecision reports
/// merged_groups so the service can migrate the stranded minority.
///
/// Routing reads the entangled relation list of the query's canonical
/// program, which the service builds at the edge for every dialect; shards
/// only instantiate that program. EntangledRelationsOf is the one lexical
/// scan of raw IR text, the service's routability check before it parses.
///
/// Thread-safe: any number of client threads may route concurrently.
class QueryRouter {
 public:
  struct RouteDecision {
    uint32_t shard = 0;
    /// This query united >= 2 relation groups already pinned to different
    /// shards; queries of the losing groups must migrate to `shard`.
    bool merged_groups = false;
    /// The query's entangled relation names (sorted, unique).
    std::vector<std::string> relations;
    /// Every relation whose group's shard assignment changed because of
    /// this route (the losing groups' full relation lists). In-flight
    /// queries keyed under these relations are exactly the stranded set —
    /// the service migrates them without scanning all in-flight queries.
    std::vector<std::string> moved_relations;
  };

  explicit QueryRouter(uint32_t num_shards);

  /// Lexically extracts the entangled relation names of an IR query: every
  /// relation occurring in the `{...}` postcondition block or in head
  /// position (before `:-`). Fails on text with no entangled atoms.
  static Result<std::vector<std::string>> EntangledRelationsOf(
      std::string_view text);

  /// Routes one query by its (already translated) entangled-relation
  /// signature, updating group state. `relations` must be non-empty.
  Result<RouteDecision> RouteRelations(std::vector<std::string> relations);

  /// The shard RouteRelations would pick for this signature, with no state
  /// change (pre-route admission checks reject overloaded shards before
  /// the group merge is committed). Total: falls back to the least-loaded
  /// shard for unseen signatures, exactly as RouteRelations would.
  uint32_t PeekShard(const std::vector<std::string>& relations) const;

  /// Current shard of `rel`'s group, or kInvalidShard if never seen.
  uint32_t ShardOfRelation(const std::string& rel) const;

  uint32_t num_shards() const { return num_shards_; }

  /// Number of distinct relation groups currently tracked.
  size_t group_count() const;

 private:
  const uint32_t num_shards_;

  mutable std::mutex mu_;
  mutable DisjointSetForest dsu_;  // Find() path-halves; logically const
  std::unordered_map<std::string, uint32_t> rel_elem_;
  /// Indexed by DSU element; authoritative only at a set's root.
  std::vector<uint32_t> shard_of_group_;
  std::vector<uint64_t> group_size_;  // queries routed through the group
  /// Relation names of each group, authoritative only at a set's root;
  /// merged small-into-large on Union so a merge costs O(smaller group).
  std::vector<std::vector<std::string>> group_rels_;
  std::vector<uint64_t> shard_load_;  // queries routed per shard
};

}  // namespace eq::service

#endif  // EQ_SERVICE_ROUTER_H_
