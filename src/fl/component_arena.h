// Re-usable storage for the sub-instances of one parent instance.
//
// The streaming service (service/streaming_solver.h) solves every dirty
// connectivity component of a snapshot as an instance of its own, about a
// thousand small ones per epoch. Building each through `InstanceBuilder`
// would re-prove, per component, invariants the parent already holds:
// sorted rows, no duplicate edge, every client reachable. A
// `ComponentArena` instead owns one `Instance` and re-fills it in place,
// copying the member rows straight from the parent.
//
// Why no sort and no check is needed. Local ids are ranks in the
// ascending member lists, so the parent -> local map is monotone: a parent
// row sorted by (cost, id) is still sorted by (cost, local id). A
// component is edge-closed (every edge of a member leads to a member), so
// each parent row maps whole, with no duplicate and no orphan. The result
// equals `InstanceBuilder::build()` of the same rows field for field, its
// cost profile summed in the same order. Both preconditions — ascending
// member lists and closure — are checked only in builds without NDEBUG.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/instance.h"

namespace dflp::fl {

class ComponentArena {
 public:
  /// Re-fills the arena's instance with the sub-instance of `parent` on
  /// the given members: facility `facilities[t]` becomes local facility t,
  /// client `clients[t]` local client t. Both lists must be non-empty,
  /// strictly ascending and edge-closed in `parent`. Every vector keeps its
  /// capacity, so fills no larger than an earlier one allocate nothing.
  /// The reference stays valid, and the instance unchanged, until the next
  /// fill.
  const Instance& fill(const Instance& parent,
                       std::span<const FacilityId> facilities,
                       std::span<const ClientId> clients);

 private:
  Instance inst_;
  // Parent id -> local id, sized to the largest parent seen; only the
  // entries of the current members are meaningful.
  std::vector<std::int32_t> local_facility_;
  std::vector<std::int32_t> local_client_;
};

}  // namespace dflp::fl
