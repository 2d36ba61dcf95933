#include "fl/instance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/csr.h"

namespace dflp::fl {

void InstanceBuilder::reserve(std::int32_t num_facilities,
                              std::int32_t num_clients,
                              std::size_t num_edges) {
  DFLP_CHECK(num_facilities >= 0 && num_clients >= 0);
  opening_.reserve(opening_.size() + static_cast<std::size_t>(num_facilities));
  edges_.reserve(edges_.size() + num_edges);
  // Clients are just a counter today; the parameter keeps the hint
  // self-describing (and future-proofs per-client builder state).
  (void)num_clients;
}

FacilityId InstanceBuilder::add_facility(Cost opening_cost) {
  DFLP_CHECK_MSG(std::isfinite(opening_cost) && opening_cost >= 0.0,
                 "opening cost must be finite and non-negative, got "
                     << opening_cost);
  opening_.push_back(opening_cost);
  return static_cast<FacilityId>(opening_.size() - 1);
}

ClientId InstanceBuilder::add_client() { return num_clients_++; }

ClientId InstanceBuilder::add_clients(std::int32_t count) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  DFLP_CHECK_MSG(count >= 0 && count <= kMax - num_clients_,
                 "cannot add " << count << " clients to " << num_clients_);
  const ClientId first = num_clients_;
  num_clients_ += count;
  return first;
}

void InstanceBuilder::connect(FacilityId i, ClientId j, Cost cost) {
  DFLP_CHECK_MSG(i >= 0 && static_cast<std::size_t>(i) < opening_.size(),
                 "facility id " << i << " out of range");
  DFLP_CHECK_MSG(j >= 0 && j < num_clients_, "client id " << j
                                                          << " out of range");
  DFLP_CHECK_MSG(std::isfinite(cost) && cost >= 0.0,
                 "connection cost must be finite and non-negative, got "
                     << cost);
  edges_.push_back({i, j, cost});
}

Instance InstanceBuilder::build() {
  DFLP_CHECK_MSG(!opening_.empty(), "instance has no facilities");
  DFLP_CHECK_MSG(num_clients_ > 0, "instance has no clients");

  Instance inst;
  inst.opening_ = std::move(opening_);
  inst.num_clients_ = num_clients_;

  const auto m = static_cast<std::size_t>(inst.opening_.size());
  const auto n = static_cast<std::size_t>(num_clients_);

  // Facility-side CSR, sorted by (cost, client id). Duplicate (i, j) pairs
  // are caught row by row with one stamp per client (stamp[j] == i: j
  // already seen in row i), so the check is O(E) with no global sort. Rows
  // are visited in ascending i and the whole offending row is scanned, so
  // the error names the lexicographically smallest duplicated pair.
  {
    std::vector<std::int32_t>& offset = inst.facility_offset_;
    offset.assign(m + 1, 0);
    for (const auto& e : edges_) ++offset[static_cast<std::size_t>(e.i) + 1];
    csr_begins_from_counts(offset);
    inst.facility_edges_.resize(edges_.size());
    for (const auto& e : edges_)
      inst.facility_edges_[static_cast<std::size_t>(
          offset[static_cast<std::size_t>(e.i)]++)] = {e.j, e.c};
    csr_begins_from_ends(offset);
    std::vector<FacilityId> stamp(n, kNoFacility);
    for (std::size_t i = 0; i < m; ++i) {
      auto begin = inst.facility_edges_.begin() + offset[i];
      auto end = inst.facility_edges_.begin() + offset[i + 1];
      const auto row = static_cast<FacilityId>(i);
      ClientId dup = -1;
      for (auto it = begin; it != end; ++it) {
        FacilityId& seen = stamp[static_cast<std::size_t>(it->client)];
        if (seen == row && (dup == -1 || it->client < dup)) dup = it->client;
        seen = row;
      }
      DFLP_CHECK_MSG(dup == -1, "duplicate edge (facility="
                                    << row << ", client=" << dup << ")");
      const auto by_cost = [](const FacilityEdge& a, const FacilityEdge& b) {
        if (a.cost != b.cost) return a.cost < b.cost;
        return a.client < b.client;
      };
      if (!std::is_sorted(begin, end, by_cost)) std::sort(begin, end, by_cost);
      inst.max_facility_degree_ = std::max(
          inst.max_facility_degree_, static_cast<int>(end - begin));
    }
  }

  // Client-side CSR, sorted by (cost, facility id).
  {
    std::vector<std::int32_t>& offset = inst.client_offset_;
    offset.assign(n + 1, 0);
    for (const auto& e : edges_) ++offset[static_cast<std::size_t>(e.j) + 1];
    for (std::size_t j = 0; j < n; ++j)
      DFLP_CHECK_MSG(offset[j + 1] > 0,
                     "client " << j
                               << " has no candidate facility — "
                                  "instance would be infeasible");
    csr_begins_from_counts(offset);
    inst.client_edges_.resize(edges_.size());
    for (const auto& e : edges_)
      inst.client_edges_[static_cast<std::size_t>(
          offset[static_cast<std::size_t>(e.j)]++)] = {e.i, e.c};
    csr_begins_from_ends(offset);
    for (std::size_t j = 0; j < n; ++j) {
      auto begin = inst.client_edges_.begin() + offset[j];
      auto end = inst.client_edges_.begin() + offset[j + 1];
      const auto by_cost = [](const ClientEdge& a, const ClientEdge& b) {
        if (a.cost != b.cost) return a.cost < b.cost;
        return a.facility < b.facility;
      };
      if (!std::is_sorted(begin, end, by_cost)) std::sort(begin, end, by_cost);
      inst.max_client_degree_ =
          std::max(inst.max_client_degree_, static_cast<int>(end - begin));
    }
  }

  inst.compute_profile();

  // Reset builder.
  num_clients_ = 0;
  edges_.clear();

  return inst;
}

void Instance::compute_profile() {
  CostProfile& cp = profile_;
  cp = CostProfile{};
  auto absorb = [&cp](Cost c) {
    cp.max_value = std::max(cp.max_value, c);
    if (c > 0.0) cp.min_positive = std::min(cp.min_positive, c);
  };
  for (Cost f : opening_) {
    absorb(f);
    cp.total_opening += f;
  }
  for (const auto& e : facility_edges_) {
    absorb(e.cost);
    cp.total_connection += e.cost;
  }
  cp.rho = std::isfinite(cp.min_positive) && cp.max_value > 0.0
               ? cp.max_value / cp.min_positive
               : 1.0;
}

std::span<const FacilityEdge> Instance::facility_edges(FacilityId i) const {
  DFLP_CHECK(i >= 0 && i < num_facilities());
  const auto idx = static_cast<std::size_t>(i);
  return {facility_edges_.data() + facility_offset_[idx],
          static_cast<std::size_t>(facility_offset_[idx + 1] -
                                   facility_offset_[idx])};
}

std::span<const ClientEdge> Instance::client_edges(ClientId j) const {
  DFLP_CHECK(j >= 0 && j < num_clients());
  const auto idx = static_cast<std::size_t>(j);
  return {client_edges_.data() + client_offset_[idx],
          static_cast<std::size_t>(client_offset_[idx + 1] -
                                   client_offset_[idx])};
}

std::size_t Instance::facility_edge_offset(FacilityId i) const {
  DFLP_CHECK(i >= 0 && i < num_facilities());
  return static_cast<std::size_t>(
      facility_offset_[static_cast<std::size_t>(i)]);
}

std::size_t Instance::client_edge_offset(ClientId j) const {
  DFLP_CHECK(j >= 0 && j < num_clients());
  return static_cast<std::size_t>(client_offset_[static_cast<std::size_t>(j)]);
}

Cost Instance::connection_cost(FacilityId i, ClientId j) const {
  // The facility-side list is sorted by cost, not client id, so scan the
  // client's (typically shorter) list instead; it is sorted by cost too, so
  // a linear scan is required — client degrees are small in practice.
  for (const ClientEdge& e : client_edges(j)) {
    if (e.facility == i) return e.cost;
  }
  return std::numeric_limits<Cost>::infinity();
}

Cost Instance::open_all_cost() const {
  Cost total = profile_.total_opening;
  for (ClientId j = 0; j < num_clients(); ++j)
    total += client_edges(j).front().cost;  // sorted: front is cheapest
  return total;
}

std::string Instance::describe() const {
  std::ostringstream os;
  os << "UFL(m=" << num_facilities() << ", n=" << num_clients()
     << ", edges=" << num_edges() << ", rho=" << profile_.rho
     << ", maxdeg_f=" << max_facility_degree_
     << ", maxdeg_c=" << max_client_degree_ << ")";
  return os.str();
}

}  // namespace dflp::fl
