#ifndef EQ_WORKLOAD_SOCIAL_GRAPH_H_
#define EQ_WORKLOAD_SOCIAL_GRAPH_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace eq::workload {

/// Parameters for the synthetic social graph.
///
/// The paper's experiments (§5.2) use the Slashdot Feb-2009 SNAP graph:
/// 82,168 users and 102 airport destinations, with a hometown per user
/// chosen so that "as far as possible each user has at least half his or
/// her friends living in the same city". The SNAP download is not available
/// offline, so we generate a scale-free graph with heavy triangle closure
/// (Holme–Kim-style preferential attachment) at the same scale — the
/// experiments depend only on the availability of friend pairs / triangles /
/// cliques, strong clustering, and one large community (see
/// docs/BENCHMARKS.md, "Paper substitutions and deviations").
struct SocialGraphOptions {
  uint32_t num_users = 82168;
  uint32_t num_airports = 102;
  /// Edges added per arriving node (m in preferential attachment).
  uint32_t attach_edges = 7;
  /// Probability that an edge closes a triangle instead of attaching
  /// preferentially — controls the clustering coefficient.
  double triangle_prob = 0.6;
  uint64_t seed = 42;
  /// Majority-repair passes after the multi-source BFS hometown assignment.
  int hometown_repair_passes = 2;
  /// Cliques planted after generation (all-pairs friendships among
  /// same-city users). Scale-free growth alone yields few cliques beyond
  /// size 4; the §5.3.3 workload needs groups of up to 6 mutual friends.
  uint32_t plant_cliques = 0;
  uint32_t planted_clique_size = 6;
};

/// An undirected social graph with hometown labels.
class SocialGraph {
 public:
  static SocialGraph Generate(const SocialGraphOptions& opts =
                                  SocialGraphOptions());

  uint32_t num_users() const { return static_cast<uint32_t>(adj_.size()); }
  uint32_t num_airports() const { return num_airports_; }
  size_t num_edges() const { return num_edges_; }

  /// Sorted neighbour list of `u`.
  const std::vector<uint32_t>& Friends(uint32_t u) const { return adj_[u]; }

  bool AreFriends(uint32_t u, uint32_t v) const;

  /// Airport index of u's hometown (0 .. num_airports-1).
  uint32_t Hometown(uint32_t u) const { return hometown_[u]; }

  /// "u<id>" — stable user name for query constants.
  std::string UserName(uint32_t u) const { return "u" + std::to_string(u); }

  /// Airport code; the first few are recognizable (ITH, JFK, IAH, SBN),
  /// the rest synthetic.
  std::string AirportName(uint32_t a) const;

  // ------------------------------------------------------------ sampling --

  /// A uniformly random (ordered) pair of friends.
  std::pair<uint32_t, uint32_t> RandomFriendPair(Rng* rng) const;

  /// A random triangle (mutual friends), or nullopt after max_tries.
  std::optional<std::array<uint32_t, 3>> RandomTriangle(
      Rng* rng, int max_tries = 200) const;

  /// A random clique of `k` mutual friends, or nullopt after max_tries.
  /// Prefers planted cliques (when large enough); falls back to sampling.
  std::optional<std::vector<uint32_t>> RandomClique(size_t k, Rng* rng,
                                                    int max_tries = 500) const;

  size_t planted_clique_count() const { return planted_.size(); }

  /// Users of the most populous hometown, ascending (the "big cluster" of
  /// the §5.3.4 stress test).
  std::vector<uint32_t> UsersInLargestCity() const;

  // --------------------------------------------------------------- stats --

  double AverageDegree() const;

  /// Fraction of sampled users with >= half their friends in their own
  /// hometown (the paper's assignment goal).
  double HometownCohesion(Rng* rng, int samples = 2000) const;

  /// Local clustering coefficient averaged over sampled nodes.
  double SampleClustering(Rng* rng, int samples = 500) const;

 private:
  std::vector<std::vector<uint32_t>> adj_;
  std::vector<std::vector<uint32_t>> planted_;
  std::vector<uint32_t> hometown_;
  uint32_t num_airports_ = 0;
  size_t num_edges_ = 0;
};

}  // namespace eq::workload

#endif  // EQ_WORKLOAD_SOCIAL_GRAPH_H_
