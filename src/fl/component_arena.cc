#include "fl/component_arena.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"

namespace dflp::fl {

namespace {

/// Writes each member's rank into `local` (grown to `parent_size`) and
/// checks, in debug builds, that the members are in range and ascending.
template <typename Id>
void rank_members(std::span<const Id> members, std::int32_t parent_size,
                  std::vector<std::int32_t>& local,
                  [[maybe_unused]] const char* side) {
  if (local.size() < static_cast<std::size_t>(parent_size))
    local.resize(static_cast<std::size_t>(parent_size), -1);
  for (std::size_t t = 0; t < members.size(); ++t) {
    DFLP_DCHECK_MSG(members[t] >= 0 && members[t] < parent_size &&
                        (t == 0 || members[t - 1] < members[t]),
                    side << " member list is not strictly ascending within "
                            "the parent at position "
                         << t);
    local[static_cast<std::size_t>(members[t])] =
        static_cast<std::int32_t>(t);
  }
}

/// True when `id` is one of `members` (whose ranks `local` holds).
template <typename Id>
bool is_member(std::span<const Id> members,
               const std::vector<std::int32_t>& local, Id id) {
  const std::int32_t t = local[static_cast<std::size_t>(id)];
  return t >= 0 && static_cast<std::size_t>(t) < members.size() &&
         members[static_cast<std::size_t>(t)] == id;
}

}  // namespace

const Instance& ComponentArena::fill(const Instance& parent,
                                     std::span<const FacilityId> facilities,
                                     std::span<const ClientId> clients) {
  DFLP_CHECK_MSG(!facilities.empty() && !clients.empty(),
                 "a sub-instance needs a facility and a client, got "
                     << facilities.size() << " / " << clients.size());
  rank_members(facilities, parent.num_facilities(), local_facility_,
               "facility");
  rank_members(clients, parent.num_clients(), local_client_, "client");

  Instance& inst = inst_;
  inst.num_clients_ = static_cast<std::int32_t>(clients.size());

  // Facility rows, copied whole in member order.
  inst.opening_.clear();
  inst.facility_offset_.assign(1, 0);
  inst.facility_edges_.clear();
  inst.max_facility_degree_ = 0;
  for (const FacilityId i : facilities) {
    const auto row = static_cast<std::size_t>(i);
    inst.opening_.push_back(parent.opening_[row]);
    const auto lo = static_cast<std::size_t>(parent.facility_offset_[row]);
    const auto hi =
        static_cast<std::size_t>(parent.facility_offset_[row + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const FacilityEdge& e = parent.facility_edges_[k];
      DFLP_DCHECK_MSG(is_member(clients, local_client_, e.client),
                      "facility " << i << " reaches client " << e.client
                                  << " outside the member list");
      inst.facility_edges_.push_back(
          {local_client_[static_cast<std::size_t>(e.client)], e.cost});
    }
    inst.facility_offset_.push_back(
        static_cast<std::int32_t>(inst.facility_edges_.size()));
    inst.max_facility_degree_ =
        std::max(inst.max_facility_degree_, static_cast<int>(hi - lo));
  }

  // Client rows, likewise.
  inst.client_offset_.assign(1, 0);
  inst.client_edges_.clear();
  inst.max_client_degree_ = 0;
  for (const ClientId j : clients) {
    const auto row = static_cast<std::size_t>(j);
    const auto lo = static_cast<std::size_t>(parent.client_offset_[row]);
    const auto hi =
        static_cast<std::size_t>(parent.client_offset_[row + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const ClientEdge& e = parent.client_edges_[k];
      DFLP_DCHECK_MSG(is_member(facilities, local_facility_, e.facility),
                      "client " << j << " reaches facility " << e.facility
                                << " outside the member list");
      inst.client_edges_.push_back(
          {local_facility_[static_cast<std::size_t>(e.facility)], e.cost});
    }
    inst.client_offset_.push_back(
        static_cast<std::int32_t>(inst.client_edges_.size()));
    inst.max_client_degree_ =
        std::max(inst.max_client_degree_, static_cast<int>(hi - lo));
  }

  inst.compute_profile();
  return inst;
}

}  // namespace dflp::fl
