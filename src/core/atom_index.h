#ifndef EQ_CORE_ATOM_INDEX_H_
#define EQ_CORE_ATOM_INDEX_H_

#include <unordered_map>
#include <vector>

#include "ir/atom.h"
#include "ir/query.h"

namespace eq::core {

/// Locates one atom of one query: `query` plus the position of the atom in
/// the indexed list (head atoms or postcondition atoms, depending on which
/// side the index covers). `generation` tells registrations of a reused
/// query slot apart (see UnifiabilityGraph::Release); owners that never
/// reuse a slot leave it 0.
struct AtomRef {
  ir::QueryId query = ir::kInvalidQuery;
  uint32_t atom_idx = 0;
  uint32_t generation = 0;

  bool operator==(const AtomRef& o) const {
    return query == o.query && atom_idx == o.atom_idx &&
           generation == o.generation;
  }
};

/// The (Relation, Parameter, Value) → [atoms] index of paper §4.1.4.
///
/// Every indexed atom is registered under one key per argument position:
/// constant positions under their value, variable positions under the
/// wildcard Δ. A lookup for atom R(v1..vn) consults, per the paper,
///
///     A ∩ ⋂_{constant v_i} ( L(R, i, v_i) ∪ L(R, i, Δ) )
///
/// and returns a superset of the truly unifiable atoms (the caller runs real
/// unification on the candidates; the index only prunes). Atoms whose
/// arguments are all variables are found via the per-relation catch-all
/// list.
///
/// Deletion is lazy. When a query leaves the system the caller filters its
/// dead AtomRefs on lookup, and Remove() only counts them: a list is
/// compacted once half of it is dead, and its key is erased when it
/// empties. A release therefore costs amortized O(1) per key, and every
/// list holds fewer than twice its live references.
class AtomIndex {
 public:
  /// Registers `atom` under reference `ref`.
  void Add(const AtomRef& ref, const ir::Atom& atom);

  /// Records that one reference registered under `atom` is dead. `stale`
  /// must return true for exactly the dead references (those already
  /// counted and this one); it is only called when a list is compacted.
  template <typename StaleFn>
  void Remove(const ir::Atom& atom, StaleFn stale);

  /// Appends candidate references that may unify with `probe` to *out.
  /// Candidates are distinct but may include dead queries.
  void Candidates(const ir::Atom& probe, std::vector<AtomRef>* out) const;

  /// Number of stored (key, reference) entries, dead ones not yet
  /// compacted included.
  size_t entry_count() const { return entries_; }

 private:
  /// One (Relation, Parameter, Value) list and how many of its entries are
  /// dead.
  struct List {
    std::vector<AtomRef> refs;
    size_t dead = 0;
  };

  /// Counts one dead entry of `list` under `key` in `map`, compacting the
  /// list at half dead and erasing the key when the list empties.
  template <typename Map, typename StaleFn>
  void CountDead(Map* map, const typename Map::key_type& key, StaleFn& stale);

  struct Key {
    SymbolId rel;
    uint32_t pos;
    ir::Value val;  // null Value encodes Δ (constants are never null)

    bool operator==(const Key& o) const {
      return rel == o.rel && pos == o.pos && val == o.val;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = k.rel * 0x9e3779b97f4a7c15ULL + k.pos;
      h ^= k.val.Hash() + 0x9e3779b9u + (h << 6) + (h >> 2);
      return h;
    }
  };

  std::unordered_map<Key, List, KeyHash> map_;
  std::unordered_map<SymbolId, List> by_relation_;
  size_t entries_ = 0;
};

template <typename Map, typename StaleFn>
void AtomIndex::CountDead(Map* map, const typename Map::key_type& key,
                          StaleFn& stale) {
  auto it = map->find(key);
  if (it == map->end()) return;
  List& list = it->second;
  if (++list.dead * 2 < list.refs.size()) return;
  const size_t before = list.refs.size();
  std::erase_if(list.refs, stale);
  entries_ -= before - list.refs.size();
  list.dead = 0;
  if (list.refs.empty()) map->erase(it);
}

template <typename StaleFn>
void AtomIndex::Remove(const ir::Atom& atom, StaleFn stale) {
  CountDead(&by_relation_, atom.relation, stale);
  for (uint32_t i = 0; i < atom.args.size(); ++i) {
    const ir::Term& t = atom.args[i];
    Key key{atom.relation, i, t.is_const() ? t.value() : ir::Value()};
    CountDead(&map_, key, stale);
  }
}

}  // namespace eq::core

#endif  // EQ_CORE_ATOM_INDEX_H_
