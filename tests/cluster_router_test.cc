// GroupTable, the cluster's entangled-group router.
//
// The model test drives seeded random Route calls — fresh singleton
// relations, bridges between existing groups, repeated names — and checks
// every Decision (owner, sorted relations, displaced owners) and every
// ProbeOwner answer against a brute-force reference: a naive union-find
// over relation names plus a full sweep for each group's members. The
// reference spells out the owner rule, members[fnv1a(min relation) %
// members.size()], so a change to it fails here. The failing seed is
// echoed through SCOPED_TRACE.
//
// The history test checks that routing cost does not grow with the
// number of groups the table has already seen.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_router.h"
#include "util/rng.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EQ_MODEL_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#ifndef EQ_MODEL_SANITIZED
#define EQ_MODEL_SANITIZED 1
#endif
#endif
#ifndef EQ_MODEL_SANITIZED
#define EQ_MODEL_SANITIZED 0
#endif

namespace eq::cluster {
namespace {

constexpr int kOpsPerSeed = EQ_MODEL_SANITIZED ? 150 : 600;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The obvious GroupTable: parent pointers keyed by name, and every
/// group's members found by sweeping all names ever seen.
class ReferenceTable {
 public:
  explicit ReferenceTable(std::vector<uint32_t> members)
      : members_(std::move(members)) {
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());
  }

  GroupTable::Decision Route(const std::vector<std::string>& rels) {
    GroupTable::Decision d;
    if (rels.empty()) {
      d.owner = members_[0];
      return d;
    }
    std::vector<std::string> roots;
    for (const auto& rel : rels) {
      if (!parent_.count(rel)) parent_[rel] = rel;
      std::string root = Find(rel);
      if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
        roots.push_back(root);
      }
    }
    std::vector<uint32_t> old_owners;
    for (const auto& r : roots) old_owners.push_back(OwnerOf(Members(r)));
    for (size_t i = 1; i < roots.size(); ++i) parent_[roots[i]] = roots[0];
    d.relations = Members(roots[0]);
    d.owner = OwnerOf(d.relations);
    for (uint32_t old : old_owners) {
      if (old != d.owner && std::find(d.displaced.begin(), d.displaced.end(),
                                      old) == d.displaced.end()) {
        d.displaced.push_back(old);
      }
    }
    return d;
  }

  /// Owner of the group Route(rels) would form, with no state change.
  uint32_t Probe(const std::vector<std::string>& rels) {
    if (rels.empty()) return members_[0];
    std::vector<std::string> all;
    for (const auto& rel : rels) {
      if (!parent_.count(rel)) {
        all.push_back(rel);
        continue;
      }
      auto group = Members(Find(rel));
      all.insert(all.end(), group.begin(), group.end());
    }
    return OwnerOf(all);
  }

 private:
  std::string Find(const std::string& x) {
    std::string& p = parent_[x];
    if (p != x) p = Find(p);  // path compression keeps the sweeps cheap
    return p;
  }

  /// Every known relation in root's group, sorted: a full sweep.
  std::vector<std::string> Members(const std::string& root) {
    std::vector<std::string> out;
    for (const auto& [name, parent] : parent_) {
      if (Find(name) == root) out.push_back(name);
    }
    return out;  // std::map iterates in sorted order
  }

  uint32_t OwnerOf(const std::vector<std::string>& rels) const {
    const std::string& min = *std::min_element(rels.begin(), rels.end());
    return members_[Fnv1a(min) % members_.size()];
  }

  std::vector<uint32_t> members_;
  std::map<std::string, std::string> parent_;
};

class GroupTableModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupTableModelTest, RouteAgreesWithBruteForceReference) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  Rng rng(seed);

  // Unsorted, with a duplicate: both tables must normalize it alike.
  std::vector<uint32_t> members = {5, 0, 2, 5, 9};
  GroupTable table(members);
  ReferenceTable ref(members);

  std::vector<std::string> known;
  int fresh = 0;
  auto pick = [&]() -> std::string {
    // Mostly reuse a known relation (bridging groups), sometimes mint one.
    if (known.empty() || rng.Chance(0.35)) {
      known.push_back("R" + std::to_string(rng.Below(1000)) + "_" +
                      std::to_string(fresh++));
      return known.back();
    }
    return known[rng.Below(known.size())];
  };

  int bridged = 0;    // decisions that joined existing groups
  int displaced = 0;  // decisions that moved a group to a new owner
  for (int op = 0; op < kOpsPerSeed; ++op) {
    SCOPED_TRACE(::testing::Message() << "op=" << op);
    std::vector<std::string> rels;
    uint64_t n = rng.Below(10) == 0 ? 0 : rng.Range(1, 4);
    for (uint64_t i = 0; i < n; ++i) rels.push_back(pick());
    if (!rels.empty() && rng.Chance(0.2)) rels.push_back(rels[0]);

    uint32_t probed = table.ProbeOwner(rels);
    EXPECT_EQ(probed, ref.Probe(rels));

    GroupTable::Decision got = table.Route(rels);
    GroupTable::Decision want = ref.Route(rels);
    ASSERT_EQ(got.owner, want.owner);
    ASSERT_EQ(got.relations, want.relations);
    ASSERT_EQ(got.displaced, want.displaced);
    bridged += got.relations.size() > rels.size();
    displaced += !got.displaced.empty();
    // Probing never merges, so the decision lands where the probe said.
    EXPECT_EQ(got.owner, probed);
    // Once merged, probing the group again is stable.
    EXPECT_EQ(table.ProbeOwner(rels), got.owner);
  }
  // The random mix must reach the interesting cases.
  EXPECT_GT(bridged, kOpsPerSeed / 10);
  EXPECT_GT(displaced, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupTableModelTest,
                         ::testing::Values(1, 2, 3, 17, 0xC0FFEE));

TEST(GroupTableTest, EmptyMembershipAndEmptyInput) {
  GroupTable none({});
  EXPECT_EQ(none.Route({"A"}).owner, 0u);
  EXPECT_EQ(none.ProbeOwner({"A"}), 0u);

  GroupTable table({7, 3});
  GroupTable::Decision d = table.Route({});
  EXPECT_EQ(d.owner, 3u);
  EXPECT_TRUE(d.relations.empty());
  EXPECT_TRUE(d.displaced.empty());
  EXPECT_EQ(table.ProbeOwner({}), 3u);
}

/// Routes `groups` fresh groups the way a 3-way ring does — each of its
/// queries names the group's one relation — and returns the elapsed time.
std::chrono::nanoseconds RouteFreshGroups(GroupTable* table,
                                          const std::string& prefix,
                                          int groups) {
  auto start = std::chrono::steady_clock::now();
  for (int g = 0; g < groups; ++g) {
    std::vector<std::string> rels = {prefix + std::to_string(g)};
    for (int q = 0; q < 3; ++q) table->Route(rels);
  }
  return std::chrono::steady_clock::now() - start;
}

TEST(GroupTableTest, RoutingCostDoesNotGrowWithHistory) {
  constexpr int kBatch = 1000;
  GroupTable small({0, 1});
  GroupTable large({0, 1});
  RouteFreshGroups(&small, "old", kBatch);
  RouteFreshGroups(&large, "old", 50 * kBatch);

  // The best of a few alternated batches keeps one scheduling hiccup
  // from deciding the comparison.
  auto best_small = std::chrono::nanoseconds::max();
  auto best_large = std::chrono::nanoseconds::max();
  for (int rep = 0; rep < 5; ++rep) {
    std::string prefix = "new" + std::to_string(rep) + "_";
    best_small = std::min(best_small, RouteFreshGroups(&small, prefix, kBatch));
    best_large = std::min(best_large, RouteFreshGroups(&large, prefix, kBatch));
  }
  EXPECT_LT(best_large.count(), 5 * best_small.count())
      << "1000 fresh groups took " << best_small.count() / 1000
      << " us beside 1000 groups and " << best_large.count() / 1000
      << " us beside 50000";
}

}  // namespace
}  // namespace eq::cluster
