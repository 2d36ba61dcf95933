// Shared plumbing between the distributed algorithms: mapping a UFL
// instance onto a simulated CONGEST network and giving each node its
// strictly-local view of the instance.
//
// Node layout: facility i -> network node i; client j -> network node m+j.
// A node's constructor receives only what the model lets it know locally:
// its own cost data and the ids/costs of its incident edges.
//
// run_protocol is the one scaffold the mw-greedy, frac-lp and rand-round
// runners share. It maps the MwParams transport knobs onto the network:
//   * `params.network` lends it a network to re-arm (net::Network::reset)
//     instead of a local one it builds and destroys; the results are the
//     same either way;
//   * `params.faults` installs the seeded FaultPlan and `params.tracer`
//     traces the run under the runner's section name;
//   * `params.reliable` wraps every node program in a ReliableChannel
//     (netsim/reliable.h), widens the physical bit budget to carry the
//     transport header, and stretches the round bound for dilation and the
//     channel's linger tail;
//   * when the run, the readout or its feasibility check throws CheckError
//     under injected faults, the error is re-thrown with the identity of the
//     first lost message appended, so a test or a user can see *which* drop
//     broke an unprotected run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/function_ref.h"
#include "core/params.h"
#include "fl/instance.h"
#include "netsim/network.h"
#include "netsim/reliable.h"

namespace dflp::core {

/// One incident edge from a node's local perspective.
struct LocalEdge {
  net::NodeId peer = net::kNoNode;  ///< network node id of the other side
  double cost = 0.0;                ///< connection cost of this edge
};

[[nodiscard]] inline net::NodeId facility_node(fl::FacilityId i) noexcept {
  return i;
}

[[nodiscard]] inline net::NodeId client_node(const fl::Instance& inst,
                                             fl::ClientId j) noexcept {
  return inst.num_facilities() + j;
}

[[nodiscard]] inline fl::FacilityId node_to_facility(net::NodeId v) noexcept {
  return v;
}

[[nodiscard]] inline fl::ClientId node_to_client(const fl::Instance& inst,
                                                 net::NodeId v) noexcept {
  return v - inst.num_facilities();
}

/// Facility i's incident edges, ascending by (cost, peer). The order is the
/// star-prefix order the greedy candidacy computation uses.
[[nodiscard]] inline std::vector<LocalEdge> facility_local_edges(
    const fl::Instance& inst, fl::FacilityId i) {
  std::vector<LocalEdge> edges;
  const auto span = inst.facility_edges(i);
  edges.reserve(span.size());
  for (const fl::FacilityEdge& e : span)
    edges.push_back({client_node(inst, e.client), e.cost});
  // facility_edges is sorted by (cost, client id) == (cost, peer) already.
  return edges;
}

/// Client j's incident edges, ascending by (cost, peer).
[[nodiscard]] inline std::vector<LocalEdge> client_local_edges(
    const fl::Instance& inst, fl::ClientId j) {
  std::vector<LocalEdge> edges;
  const auto span = inst.client_edges(j);
  edges.reserve(span.size());
  for (const fl::ClientEdge& e : span)
    edges.push_back({facility_node(e.facility), e.cost});
  return edges;
}

/// (peer, t): a neighbour and its position t in the node's cost-sorted
/// edge list.
using PeerSlot = std::pair<net::NodeId, std::size_t>;

/// Position of `peer` among a node's edges, given the node's PeerSlots in
/// ascending order; a CheckError for a non-neighbour.
[[nodiscard]] inline std::size_t peer_position(std::span<const PeerSlot> sorted,
                                               net::NodeId peer) {
  const auto it =
      std::lower_bound(sorted.begin(), sorted.end(), PeerSlot{peer, 0});
  DFLP_CHECK_MSG(it != sorted.end() && it->first == peer,
                 "message from non-neighbour " << peer);
  return it->second;
}

/// A node's incident edges indexed by peer: at(peer) is the peer's position
/// in the node's cost-sorted edge list.
class PeerIndex {
 public:
  explicit PeerIndex(const std::vector<LocalEdge>& edges) {
    sorted_.reserve(edges.size());
    for (std::size_t t = 0; t < edges.size(); ++t)
      sorted_.push_back({edges[t].peer, t});
    std::sort(sorted_.begin(), sorted_.end());
  }

  [[nodiscard]] std::size_t at(net::NodeId peer) const {
    return peer_position(sorted_, peer);
  }

 private:
  std::vector<PeerSlot> sorted_;
};

/// Node count of the bipartite network of `inst`: m + n.
[[nodiscard]] inline std::size_t num_network_nodes(const fl::Instance& inst) {
  return static_cast<std::size_t>(inst.num_facilities() + inst.num_clients());
}

/// Adds every instance edge to a sized network and finalizes it.
template <typename Net>
void add_bipartite_edges(const fl::Instance& inst, Net& net) {
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    for (const fl::FacilityEdge& e : inst.facility_edges(i))
      net.add_edge(facility_node(i), client_node(inst, e.client));
  }
  net.finalize();
}

/// Builds the (finalized, process-less) bipartite communication network of
/// `inst` with the given options: a net::Network, or a net::AsyncNetwork.
template <typename Net = net::Network>
[[nodiscard]] Net make_bipartite_network(const fl::Instance& inst,
                                         typename Net::Options options) {
  Net net(num_network_nodes(inst), std::move(options));
  add_bipartite_edges(inst, net);
  return net;
}

/// Re-arms `net` (net::Network::reset) as the same network the overload
/// above builds, keeping `net`'s storage.
inline void make_bipartite_network(const fl::Instance& inst,
                                   net::Network::Options options,
                                   net::Network& net) {
  net.reset(num_network_nodes(inst), std::move(options));
  add_bipartite_edges(inst, net);
}

/// What differs between the runners.
struct ProtocolSpec {
  std::string_view section;         ///< trace section name
  int bit_budget = 0;               ///< the protocol's own message budget
  std::uint64_t seed = 0;           ///< engine seed
  std::uint64_t logical_bound = 0;  ///< round bound of a direct run
};

/// Arms the bipartite network of `inst` — `params.network` when set, a
/// local network otherwise — installs `make_node(v)` at every node v, runs
/// it to the transport round bound and hands the metrics to `readout`.
/// Returns the channel counters merged over all nodes (all-zero unless
/// `params.reliable`). Both callables are borrowed for the call only.
net::ReliableStats run_protocol(
    const fl::Instance& inst, const MwParams& params, const ProtocolSpec& spec,
    FunctionRef<std::unique_ptr<net::Process>(net::NodeId)> make_node,
    FunctionRef<void(const net::NetMetrics&)> readout);

/// Typed pointers to one run's node programs, recorded as make() builds
/// them so the readout needs no downcast. The network owns the programs;
/// the pointers live as long as it does.
template <typename Facility, typename Client>
struct NodePrograms {
  explicit NodePrograms(const fl::Instance& inst)
      : inst(&inst),
        facility(static_cast<std::size_t>(inst.num_facilities())),
        client(static_cast<std::size_t>(inst.num_clients())) {}

  /// Node v's program: `make_facility(i)` or `make_client(j)`.
  template <typename MakeFacility, typename MakeClient>
  std::unique_ptr<net::Process> make(net::NodeId v,
                                     MakeFacility&& make_facility,
                                     MakeClient&& make_client) {
    if (v < inst->num_facilities()) {
      std::unique_ptr<Facility> proc = make_facility(node_to_facility(v));
      facility[static_cast<std::size_t>(v)] = proc.get();
      return proc;
    }
    const fl::ClientId j = node_to_client(*inst, v);
    std::unique_ptr<Client> proc = make_client(j);
    client[static_cast<std::size_t>(j)] = proc.get();
    return proc;
  }

  const fl::Instance* inst;
  std::vector<const Facility*> facility;
  std::vector<const Client*> client;
};

}  // namespace dflp::core
