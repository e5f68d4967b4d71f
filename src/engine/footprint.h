#ifndef EQ_ENGINE_FOOTPRINT_H_
#define EQ_ENGINE_FOOTPRINT_H_

#include <cstddef>

namespace eq::engine {

/// What a CoordinationEngine holds right now (CoordinationEngine::
/// footprint()). The in-use counts follow the queries the engine holds
/// (pending, plus retired ones awaiting release); the free counts follow
/// the most it ever held at once. Only `outcomes` grows per submission.
struct EngineFootprint {
  size_t slots_in_use = 0;       ///< pending + retired awaiting release
  size_t slots_free = 0;         ///< released slots awaiting a new query
  size_t index_entries = 0;      ///< atom-index references, dead included
  size_t edges_in_use = 0;       ///< edge ids listed by some held query
  size_t edges_free = 0;         ///< edge ids awaiting a new edge
  size_t tracked_variables = 0;  ///< variables of held queries
  size_t outcomes = 0;           ///< outcome-log length (= ids submitted)
  size_t awaiting_release = 0;   ///< retired queries not yet released

  bool operator==(const EngineFootprint&) const = default;
};

}  // namespace eq::engine

#endif  // EQ_ENGINE_FOOTPRINT_H_
