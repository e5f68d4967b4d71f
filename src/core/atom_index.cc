#include "core/atom_index.h"

namespace eq::core {

using ir::Atom;
using ir::Term;
using ir::Value;

void AtomIndex::Add(const AtomRef& ref, const Atom& atom) {
  by_relation_[atom.relation].refs.push_back(ref);
  entries_ += 1 + atom.args.size();
  for (uint32_t i = 0; i < atom.args.size(); ++i) {
    const Term& t = atom.args[i];
    Key key{atom.relation, i, t.is_const() ? t.value() : Value()};
    map_[key].refs.push_back(ref);
  }
}

void AtomIndex::Candidates(const Atom& probe,
                           std::vector<AtomRef>* out) const {
  // Find the most selective constant position: the one whose
  // L(R,i,v) ∪ L(R,i,Δ) union is smallest. Scanning that union and letting
  // the caller unify implements the paper's intersection formula lazily —
  // every member of the full intersection is in each union.
  const std::vector<AtomRef>* best_exact = nullptr;
  const std::vector<AtomRef>* best_wild = nullptr;
  size_t best_size = SIZE_MAX;
  bool has_const = false;

  static const std::vector<AtomRef> kEmpty;
  for (uint32_t i = 0; i < probe.args.size(); ++i) {
    const Term& t = probe.args[i];
    if (!t.is_const()) continue;
    has_const = true;
    auto it_exact = map_.find(Key{probe.relation, i, t.value()});
    auto it_wild = map_.find(Key{probe.relation, i, Value()});
    const std::vector<AtomRef>* exact =
        it_exact == map_.end() ? &kEmpty : &it_exact->second.refs;
    const std::vector<AtomRef>* wild =
        it_wild == map_.end() ? &kEmpty : &it_wild->second.refs;
    size_t size = exact->size() + wild->size();
    if (size < best_size) {
      best_size = size;
      best_exact = exact;
      best_wild = wild;
    }
  }

  if (!has_const) {
    // All-variable probe: every atom of the relation is a candidate.
    auto it = by_relation_.find(probe.relation);
    if (it != by_relation_.end()) {
      out->insert(out->end(), it->second.refs.begin(), it->second.refs.end());
    }
    return;
  }
  // The two lists are disjoint (an atom's position i is either the constant
  // or a variable), so concatenation yields distinct candidates.
  out->insert(out->end(), best_exact->begin(), best_exact->end());
  out->insert(out->end(), best_wild->begin(), best_wild->end());
}

}  // namespace eq::core
