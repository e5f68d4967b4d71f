#include "service/router.h"

#include <algorithm>
#include <cctype>

namespace eq::service {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

QueryRouter::QueryRouter(uint32_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      shard_load_(num_shards_, 0) {}

Result<std::vector<std::string>> QueryRouter::EntangledRelationsOf(
    std::string_view text) {
  // The entangled section is everything before the (unquoted) `:-` body
  // separator: `[label ':'] '{' C '}' H [':-' B] ['choose' k]`. A trailing
  // `choose k` clause cannot be mistaken for a relation (no '(' follows).
  // Quote tracking mirrors ir::Parser: either quote character opens a
  // string literal, closed only by the same character, no escapes.
  size_t end = text.size();
  char quote = 0;
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    char c = text[i];
    if (quote == 0 && (c == '\'' || c == '"')) {
      quote = c;
    } else if (c == quote) {
      quote = 0;
    }
    if (quote == 0 && c == ':' && text[i + 1] == '-') {
      end = i;
      break;
    }
  }
  std::string_view section = text.substr(0, end);

  std::vector<std::string> rels;
  quote = 0;
  for (size_t i = 0; i < section.size();) {
    char c = section[i];
    if (quote == 0 && (c == '\'' || c == '"')) {
      quote = c;
      ++i;
      continue;
    }
    if (c == quote) {
      quote = 0;
      ++i;
      continue;
    }
    if (quote != 0 || !IsIdentStart(c)) {
      ++i;
      continue;
    }
    size_t start = i;
    while (i < section.size() && IsIdentChar(section[i])) ++i;
    size_t after = i;
    while (after < section.size() &&
           std::isspace(static_cast<unsigned char>(section[after]))) {
      ++after;
    }
    // `Ident(` is a relation application; bare identifiers are the optional
    // label or constant/variable terms.
    if (after < section.size() && section[after] == '(') {
      rels.emplace_back(section.substr(start, i - start));
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  if (rels.empty()) {
    return Status::InvalidArgument(
        "query text has no entangled atoms to route on: " +
        std::string(text.substr(0, 80)));
  }
  return rels;
}

Result<QueryRouter::RouteDecision> QueryRouter::RouteRelations(
    std::vector<std::string> rels) {
  if (rels.empty()) {
    return Status::InvalidArgument(
        "query has no entangled relations to route on");
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Map relations to DSU elements, creating unassigned singleton groups for
  // relations never seen before.
  std::vector<uint32_t> elems;
  elems.reserve(rels.size());
  for (const std::string& rel : rels) {
    auto it = rel_elem_.find(rel);
    if (it == rel_elem_.end()) {
      uint32_t elem = dsu_.Add();
      shard_of_group_.push_back(kInvalidShard);
      group_size_.push_back(0);
      group_rels_.push_back({rel});
      it = rel_elem_.emplace(rel, elem).first;
    }
    elems.push_back(it->second);
  }

  // Distinct existing groups this query touches.
  std::vector<uint32_t> roots;
  for (uint32_t e : elems) roots.push_back(dsu_.Find(e));
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());

  // Winner: among already-pinned groups, the one with the most queries (its
  // members are the most expensive to migrate). Fresh groups have no shard.
  uint32_t winner_shard = kInvalidShard;
  uint64_t winner_size = 0;
  uint64_t total_size = 0;
  size_t pinned_groups = 0;
  for (uint32_t r : roots) {
    total_size += group_size_[r];
    if (shard_of_group_[r] == kInvalidShard) continue;
    ++pinned_groups;
    if (winner_shard == kInvalidShard || group_size_[r] > winner_size) {
      winner_shard = shard_of_group_[r];
      winner_size = group_size_[r];
    }
  }
  if (winner_shard == kInvalidShard) {
    // Entirely new coordination group: pick the least-loaded shard.
    winner_shard = 0;
    for (uint32_t s = 1; s < num_shards_; ++s) {
      if (shard_load_[s] < shard_load_[winner_shard]) winner_shard = s;
    }
  }

  // Relations of the losing groups (pinned elsewhere) change shard: report
  // them so the service can migrate exactly their in-flight queries.
  RouteDecision out;
  for (uint32_t r : roots) {
    if (shard_of_group_[r] == kInvalidShard ||
        shard_of_group_[r] == winner_shard) {
      continue;
    }
    out.moved_relations.insert(out.moved_relations.end(),
                               group_rels_[r].begin(), group_rels_[r].end());
  }

  uint32_t merged = roots[0];
  for (uint32_t r : roots) {
    if (r == merged) continue;
    uint32_t next = dsu_.Union(merged, r);
    // Keep the relation list at the surviving root, small-into-large.
    uint32_t absorbed = next == r ? merged : r;
    auto& into = group_rels_[next];
    auto& from = group_rels_[absorbed];
    if (into.size() < from.size()) into.swap(from);
    into.insert(into.end(), from.begin(), from.end());
    from.clear();
    from.shrink_to_fit();
    merged = next;
  }
  shard_of_group_[merged] = winner_shard;
  group_size_[merged] = total_size + 1;
  shard_load_[winner_shard] += 1;

  out.shard = winner_shard;
  out.merged_groups = pinned_groups > 1;
  out.relations = std::move(rels);
  return out;
}

uint32_t QueryRouter::PeekShard(const std::vector<std::string>& rels) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Mirror RouteRelations' winner selection exactly: distinct existing
  // roots in sorted order, largest pinned group first-wins.
  std::vector<uint32_t> roots;
  for (const std::string& rel : rels) {
    auto it = rel_elem_.find(rel);
    if (it != rel_elem_.end()) roots.push_back(dsu_.Find(it->second));
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  uint32_t winner = kInvalidShard;
  uint64_t winner_size = 0;
  for (uint32_t r : roots) {
    if (shard_of_group_[r] == kInvalidShard) continue;
    if (winner == kInvalidShard || group_size_[r] > winner_size) {
      winner = shard_of_group_[r];
      winner_size = group_size_[r];
    }
  }
  if (winner != kInvalidShard) return winner;
  uint32_t least = 0;
  for (uint32_t s = 1; s < num_shards_; ++s) {
    if (shard_load_[s] < shard_load_[least]) least = s;
  }
  return least;
}

uint32_t QueryRouter::ShardOfRelation(const std::string& rel) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rel_elem_.find(rel);
  if (it == rel_elem_.end()) return kInvalidShard;
  return shard_of_group_[dsu_.Find(it->second)];
}

size_t QueryRouter::group_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t groups = 0;
  for (const auto& [rel, elem] : rel_elem_) {
    if (dsu_.Find(elem) == elem) ++groups;
  }
  return groups;
}

}  // namespace eq::service
