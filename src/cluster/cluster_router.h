#ifndef EQ_CLUSTER_CLUSTER_ROUTER_H_
#define EQ_CLUSTER_CLUSTER_ROUTER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/disjoint_set.h"

namespace eq::cluster {

/// Node-level entangled-group routing: the cross-node analogue of the
/// in-process ShardRouter. Relations that have ever appeared together in
/// one query belong to one group (union-find, merges only — the same
/// "entanglement only grows" monotonicity the shard router relies on),
/// and every group is owned by exactly one node, chosen deterministically:
///
///   owner(group) = members[fnv1a(min relation of group) % members.size()]
///
/// Because the rule is a pure function of the group's relation set and the
/// (static, sorted) membership, any two nodes with the same knowledge of a
/// group agree on its owner with no coordination. Knowledge spreads by
/// piggybacking each group's full relation list on forwarded submits;
/// since knowledge only grows and merging is commutative, all nodes
/// converge on the same owner. While knowledge is still propagating, a
/// node may route to a stale owner — the receiver re-routes (bounded by
/// the submit hop limit) and emits GroupUpdates to displaced owners.
///
/// A Route costs O(relations of the groups it touches), independent of
/// how many groups the table has ever seen: each group's members form a
/// cycle that a merge splices in O(1) and a decision walks in O(group).
///
/// Thread-safe; every method may be called from any thread.
class GroupTable {
 public:
  /// `member_nodes`: the static cluster membership (all node ids,
  /// including the local node). Sorted internally so every node computes
  /// the same owner regardless of configuration order.
  explicit GroupTable(std::vector<uint32_t> member_nodes);

  struct Decision {
    uint32_t owner = 0;
    /// The group's full relation set as known here, sorted — piggybacked
    /// on forwarded submits so receivers can merge this knowledge.
    std::vector<std::string> relations;
    /// Owners of pre-merge subgroups that lost ownership in this merge
    /// (excluding `owner`), deduplicated: each should receive a
    /// GroupUpdate telling it to extract and re-forward its pending
    /// queries under this group.
    std::vector<uint32_t> displaced;
  };

  /// Merges `rels` into one group (joining any existing groups they touch)
  /// and returns the owner decision. Duplicate names are fine. Empty input
  /// yields the local fallback: owner of an empty relation set is
  /// members[0].
  Decision Route(const std::vector<std::string>& rels);

  /// The owner `rels` would route to right now, without merging anything
  /// (diagnostics / tests).
  uint32_t ProbeOwner(const std::vector<std::string>& rels) const;

 private:
  uint32_t InternLocked(const std::string& rel);
  uint32_t OwnerOfRootLocked(uint32_t root) const;

  mutable std::mutex mu_;
  std::vector<uint32_t> members_;
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<std::string> names_;
  mutable DisjointSetForest groups_;  // Find() path-halves; logically const
  /// Per relation id: the next member of its group, a cycle through every
  /// relation of the group.
  std::vector<uint32_t> next_in_group_;
  /// Per root: id of the group's lexicographically smallest relation, the
  /// deterministic input to the owner hash.
  std::vector<uint32_t> min_name_;
};

}  // namespace eq::cluster

#endif  // EQ_CLUSTER_CLUSTER_ROUTER_H_
