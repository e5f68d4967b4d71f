#include "cluster/cluster_router.h"

#include <algorithm>
#include <utility>

namespace eq::cluster {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

GroupTable::GroupTable(std::vector<uint32_t> member_nodes)
    : members_(std::move(member_nodes)) {
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
}

uint32_t GroupTable::InternLocked(const std::string& rel) {
  auto it = index_.find(rel);
  if (it != index_.end()) return it->second;
  uint32_t id = groups_.Add();
  index_.emplace(rel, id);
  names_.push_back(rel);
  next_in_group_.push_back(id);
  min_name_.push_back(id);
  return id;
}

uint32_t GroupTable::OwnerOfRootLocked(uint32_t root) const {
  return members_[Fnv1a(names_[min_name_[root]]) % members_.size()];
}

GroupTable::Decision GroupTable::Route(const std::vector<std::string>& rels) {
  std::lock_guard<std::mutex> lock(mu_);
  Decision d;
  if (members_.empty() || rels.empty()) {
    d.owner = members_.empty() ? 0 : members_[0];
    return d;
  }

  // Collect the distinct roots the input touches, remembering each
  // pre-merge owner so displaced ones can be told to hand over.
  std::vector<uint32_t> roots;
  for (const auto& rel : rels) {
    uint32_t root = groups_.Find(InternLocked(rel));
    if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
      roots.push_back(root);
    }
  }
  std::vector<uint32_t> old_owners;
  old_owners.reserve(roots.size());
  for (uint32_t r : roots) old_owners.push_back(OwnerOfRootLocked(r));

  // Union everything into one group: splice the member cycles together
  // and keep the smaller of the two min relations at the surviving root.
  uint32_t merged = roots[0];
  for (size_t i = 1; i < roots.size(); ++i) {
    uint32_t r = roots[i];
    uint32_t min_id = names_[min_name_[r]] < names_[min_name_[merged]]
                          ? min_name_[r]
                          : min_name_[merged];
    std::swap(next_in_group_[merged], next_in_group_[r]);
    merged = groups_.Union(merged, r);
    min_name_[merged] = min_id;
  }

  d.owner = OwnerOfRootLocked(merged);
  for (uint32_t old : old_owners) {
    if (old != d.owner &&
        std::find(d.displaced.begin(), d.displaced.end(), old) ==
            d.displaced.end()) {
      d.displaced.push_back(old);
    }
  }

  // Full relation set of the merged group (piggyback payload).
  uint32_t id = merged;
  do {
    d.relations.push_back(names_[id]);
    id = next_in_group_[id];
  } while (id != merged);
  std::sort(d.relations.begin(), d.relations.end());
  return d;
}

uint32_t GroupTable::ProbeOwner(const std::vector<std::string>& rels) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (members_.empty()) return 0;
  if (rels.empty()) return members_[0];
  // Owner of the would-be merged group: hash of the min relation across
  // all touched groups (or the raw relation when unknown).
  const std::string* min_rel = nullptr;
  for (const auto& rel : rels) {
    const std::string* candidate = &rel;
    auto it = index_.find(rel);
    if (it != index_.end()) {
      uint32_t root = groups_.Find(it->second);
      candidate = &names_[min_name_[root]];
    }
    if (min_rel == nullptr || *candidate < *min_rel) min_rel = candidate;
  }
  return members_[Fnv1a(*min_rel) % members_.size()];
}

}  // namespace eq::cluster
