#include "core/mw_greedy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory_resource>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/bipartite.h"

namespace dflp::core {

namespace {

// Protocol opcodes.
constexpr std::uint8_t kOffer = 1;
constexpr std::uint8_t kAccept = 2;
constexpr std::uint8_t kGrant = 3;
constexpr std::uint8_t kCovered = 4;
constexpr std::uint8_t kOpenReq = 5;

/// Data shared read-only by every node: the schedule (the pinned one
/// when set, else one derived for this run), the params and the round
/// layout constants.
struct Shared {
  Shared(const fl::Instance& inst, const MwParams& p)
      : derived(p.pinned_schedule == nullptr
                    ? std::optional<MwSchedule>(derive_schedule(inst, p))
                    : std::nullopt),
        sched(derived ? *derived : *p.pinned_schedule), params(p),
        scheduled_rounds(4ULL * static_cast<std::uint64_t>(sched.levels) *
                         static_cast<std::uint64_t>(sched.subphases)) {}

  std::optional<MwSchedule> derived;  // set when no schedule is pinned
  const MwSchedule& sched;
  const MwParams& params;
  std::uint64_t scheduled_rounds = 0;  // 4 * levels * subphases
};

/// The facility programs' per-edge state for one run, in two columns
/// aligned with the instance's facility-edge array: facility i owns the
/// slice of its degree at facility_edge_offset(i). Programs hold spans
/// into it, so building one allocates only the program itself.
struct FacilityColumns {
  explicit FacilityColumns(const fl::Instance& inst)
      : covered(inst.num_edges(), 0), peers(inst.num_edges()) {
    for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
      const auto row = inst.facility_edges(i);
      const auto slice = slice_of(inst, i, std::span<PeerSlot>(peers));
      for (std::size_t t = 0; t < row.size(); ++t)
        slice[t] = {client_node(inst, row[t].client), t};
      std::sort(slice.begin(), slice.end());
    }
  }

  template <typename T>
  static std::span<T> slice_of(const fl::Instance& inst, fl::FacilityId i,
                               std::span<T> column) {
    return column.subspan(inst.facility_edge_offset(i),
                          inst.facility_edges(i).size());
  }

  std::vector<std::uint8_t> covered;  // by cost position
  std::vector<PeerSlot> peers;        // ascending by peer within a slice
};

class FacilityProc final : public net::Process {
 public:
  /// `edges`: the facility's instance row, cost-sorted; `covered` and
  /// `peers`: its FacilityColumns slices.
  FacilityProc(const Shared* shared, double opening_cost,
               net::NodeId first_client,
               std::span<const fl::FacilityEdge> edges,
               std::span<std::uint8_t> covered,
               std::span<const PeerSlot> peers)
      : shared_(shared), opening_cost_(opening_cost),
        first_client_(first_client), edges_(edges), covered_(covered),
        peers_(peers), uncovered_count_(static_cast<int>(edges_.size())) {}

  [[nodiscard]] bool opened() const noexcept { return open_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    // Absorb coverage notices whenever they arrive (phase-3 broadcasts land
    // in the next phase-0 round; mop-up notices can land later too).
    for (const net::Message& msg : inbox) {
      if (msg.kind == kCovered) mark_covered(msg.src);
    }

    if (r < shared_->scheduled_rounds) {
      switch (r % 4) {
        case 0:
          maybe_offer(ctx, r);
          break;
        case 2:
          maybe_open_and_grant(ctx, inbox);
          break;
        default:
          break;  // phases 1 and 3 belong to the clients
      }
      ctx.idle_until(next_action_round(r));
      return;
    }

    // Mop-up window. Round base+1: serve OPEN_REQs, then halt. (Round base
    // makes no idle promise: the next action is base+1 anyway.)
    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup || r >= base + 1) {
      bool served = false;
      for (const net::Message& msg : inbox) {
        if (msg.kind == kOpenReq) {
          open();
          ctx.send(msg.src, kGrant);
          served = true;
        }
      }
      if (served) ctx.annotate("mopup-grant");
      ctx.halt();
    }
    // Round base+0: just absorbed trailing COVERED notices; stay for the
    // requests arriving next round.
  }

 private:
  void open() {
    open_ = true;
    star_stale_ = true;  // the opening cost leaves every star
  }

  void mark_covered(net::NodeId client) {
    const std::size_t t = peer_position(peers_, client);
    if (!covered_[t]) {
      covered_[t] = 1;
      --uncovered_count_;
      star_stale_ = true;
    }
  }

  /// Best star over uncovered neighbours: edges_ is cost-sorted, so scan
  /// the prefix. Returns the ratio and fills `star_size`. Cached between
  /// the coverage and opening changes that can move it.
  [[nodiscard]] double best_star(int* star_size) {
    if (star_stale_) {
      double num = open_ ? 0.0 : opening_cost_;
      star_ratio_ = std::numeric_limits<double>::infinity();
      star_size_ = 0;
      int size = 0;
      for (std::size_t t = 0; t < edges_.size(); ++t) {
        if (covered_[t]) continue;
        num += edges_[t].cost;
        ++size;
        const double ratio = num / static_cast<double>(size);
        if (ratio < star_ratio_) {
          star_ratio_ = ratio;
          star_size_ = size;
        }
      }
      star_stale_ = false;
    }
    *star_size = star_size_;
    return star_ratio_;
  }

  /// The first round after `r` in which this facility can act when no
  /// message reaches it (its NodeContext::idle_until promise): the first
  /// phase-0 round whose rung admits its best star, as maybe_offer tests
  /// it; the next phase-0 round, where it halts, once nothing is left to
  /// serve; and the mop-up window when no rung admits the star.
  [[nodiscard]] std::uint64_t next_action_round(std::uint64_t r) {
    const std::uint64_t next_phase0 = (r / 4 + 1) * 4;
    if (uncovered_count_ == 0) return next_phase0;
    int star = 0;
    const double ratio = best_star(&star);
    const std::vector<double>& rungs = shared_->sched.thresholds;
    // Rungs ascend, so the first rung >= ratio is the first that passes
    // maybe_offer's `ratio <= threshold`.
    const auto rung = std::lower_bound(rungs.begin(), rungs.end(), ratio);
    const std::uint64_t base = shared_->scheduled_rounds;
    if (rung == rungs.end()) return shared_->params.mopup ? base + 1 : base;
    const auto level = static_cast<std::uint64_t>(rung - rungs.begin());
    return std::max(next_phase0,
                    4 * level *
                        static_cast<std::uint64_t>(shared_->sched.subphases));
  }

  void maybe_offer(net::NodeContext& ctx, std::uint64_t r) {
    const auto iteration = r / 4;
    const auto level = static_cast<int>(
        iteration / static_cast<std::uint64_t>(shared_->sched.subphases));
    DFLP_CHECK(level < shared_->sched.levels);
    const double threshold =
        shared_->sched.thresholds[static_cast<std::size_t>(level)];

    offered_star_ = 0;
    if (uncovered_count_ == 0) {
      // Nothing left to serve and mop-up requests can only come from
      // uncovered neighbours: this facility is done.
      ctx.halt();
      return;
    }
    int star = 0;
    const double ratio = best_star(&star);
    if (star == 0 || !(ratio <= threshold)) return;

    // Offer the star prefix to its uncovered clients.
    ctx.annotate("offer");
    offered_star_ = star;
    int sent = 0;
    for (std::size_t t = 0; t < edges_.size() && sent < star; ++t) {
      if (covered_[t]) continue;
      ctx.send(first_client_ + edges_[t].client, kOffer);
      ++sent;
    }
  }

  void maybe_open_and_grant(net::NodeContext& ctx,
                            std::span<const net::Message> inbox) {
    if (offered_star_ == 0) return;
    const auto accepts = static_cast<int>(std::count_if(
        inbox.begin(), inbox.end(),
        [](const net::Message& msg) { return msg.kind == kAccept; }));
    if (accepts == 0) return;

    int needed = 1;
    if (shared_->params.accept_rule == AcceptRule::kFractionOfStar) {
      needed = std::max(
          1, static_cast<int>(std::ceil(static_cast<double>(offered_star_) /
                                        shared_->sched.beta)));
    }
    if (accepts < needed) return;

    ctx.annotate("open");
    open();
    for (const net::Message& msg : inbox) {
      if (msg.kind == kAccept) ctx.send(msg.src, kGrant);
    }
  }

  const Shared* shared_;
  double opening_cost_;
  net::NodeId first_client_;  // node id of client 0: peer of client c
  std::span<const fl::FacilityEdge> edges_;  // cost-sorted
  std::span<std::uint8_t> covered_;          // parallel to edges_
  std::span<const PeerSlot> peers_;
  int uncovered_count_ = 0;
  bool open_ = false;
  int offered_star_ = 0;  // size of the star offered this sub-phase
  bool star_stale_ = true;  // best_star's cache below needs a rescan
  double star_ratio_ = 0.0;
  int star_size_ = 0;
};

class ClientProc final : public net::Process {
 public:
  /// `edges`: the client's instance row, cost-sorted; a facility's id is
  /// its node id.
  ClientProc(const Shared* shared, std::span<const fl::ClientEdge> edges)
      : shared_(shared), edges_(edges) {}

  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] net::NodeId assigned_facility_node() const noexcept {
    return assigned_;
  }
  [[nodiscard]] bool covered_by_mopup() const noexcept { return by_mopup_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    if (r < shared_->scheduled_rounds) {
      switch (r % 4) {
        case 1:
          maybe_accept(ctx, inbox);
          break;
        case 3:
          maybe_finalize_grant(ctx, inbox);
          break;
        default:
          break;
      }
      // Without a message a client only acts again in the mop-up window.
      ctx.idle_until(shared_->scheduled_rounds);
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup) {
      ctx.halt();
      return;
    }
    if (r == base) {
      if (!covered_) {
        // edges_ is cost-sorted: front is the cheapest facility.
        ctx.annotate("mopup-request");
        pending_ = facility_node(edges_.front().facility);
        ctx.send(pending_, kOpenReq);
        by_mopup_ = true;
      } else {
        ctx.halt();
      }
      return;
    }
    if (r == base + 1) return;  // request in flight; grant arrives next
    // base+2: the grant for the mop-up request arrives.
    for (const net::Message& msg : inbox) {
      if (msg.kind == kGrant && msg.src == pending_) {
        covered_ = true;
        assigned_ = msg.src;
      }
    }
    DFLP_CHECK_MSG(covered_, "mop-up grant missing for client node "
                                 << ctx.self());
    ctx.halt();
  }

 private:
  void maybe_accept(net::NodeContext& ctx,
                    std::span<const net::Message> inbox) {
    pending_ = net::kNoNode;
    if (covered_) return;
    // Small inboxes (every component solve of the streaming service) sort
    // their offers in this stack buffer; larger ones spill to the heap.
    std::array<std::byte, 64 * sizeof(net::NodeId)> buffer;
    std::pmr::monotonic_buffer_resource pool(buffer.data(), buffer.size());
    std::pmr::vector<net::NodeId> offers(&pool);
    offers.reserve(inbox.size());
    for (const net::Message& m : inbox) {
      if (m.kind == kOffer) offers.push_back(m.src);
    }
    if (offers.empty()) return;
    std::sort(offers.begin(), offers.end());
    // Cheapest offering facility by exact local cost, ties by node id
    // (edges_ order encodes exactly that preference).
    for (const fl::ClientEdge& e : edges_) {
      const net::NodeId peer = facility_node(e.facility);
      if (std::binary_search(offers.begin(), offers.end(), peer)) {
        ctx.annotate("accept");
        pending_ = peer;
        ctx.send(peer, kAccept);
        return;
      }
    }
  }

  void maybe_finalize_grant(net::NodeContext& ctx,
                            std::span<const net::Message> inbox) {
    if (covered_ || pending_ == net::kNoNode) return;
    for (const net::Message& msg : inbox) {
      if (msg.kind == kGrant && msg.src == pending_) {
        ctx.annotate("connect");
        covered_ = true;
        assigned_ = msg.src;
        ctx.broadcast(kCovered);
        ctx.halt();  // nothing further to say or learn
        return;
      }
    }
    pending_ = net::kNoNode;  // no grant: retry in a later sub-phase
  }

  const Shared* shared_;
  std::span<const fl::ClientEdge> edges_;  // cost-sorted
  bool covered_ = false;
  bool by_mopup_ = false;
  net::NodeId assigned_ = net::kNoNode;
  net::NodeId pending_ = net::kNoNode;
};

using Nodes = NodePrograms<FacilityProc, ClientProc>;

/// Node v's program, for the synchronous and the asynchronous run alike.
std::unique_ptr<net::Process> make_node(const fl::Instance& inst,
                                        const Shared& shared,
                                        FacilityColumns& columns, Nodes& nodes,
                                        net::NodeId v) {
  return nodes.make(
      v,
      [&](fl::FacilityId i) {
        return std::make_unique<FacilityProc>(
            &shared, inst.opening_cost(i), client_node(inst, 0),
            inst.facility_edges(i),
            FacilityColumns::slice_of(
                inst, i, std::span<std::uint8_t>(columns.covered)),
            FacilityColumns::slice_of(inst, i,
                                      std::span<PeerSlot>(columns.peers)));
      },
      [&](fl::ClientId j) {
        return std::make_unique<ClientProc>(&shared, inst.client_edges(j));
      });
}

/// Reads the solution off the node programs into `outcome` and, with
/// mop-up on, checks it is feasible. Returns the mop-up count.
template <typename Outcome>
int read_solution(const fl::Instance& inst, const MwParams& params,
                  const Nodes& nodes, std::string_view runner,
                  Outcome& outcome) {
  int mopup_clients = 0;
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    if (nodes.facility[static_cast<std::size_t>(i)]->opened())
      outcome.solution.open(i);
  }
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
    const ClientProc& proc = *nodes.client[static_cast<std::size_t>(j)];
    if (proc.covered()) {
      outcome.solution.assign(
          j, node_to_facility(proc.assigned_facility_node()));
    }
    if (proc.covered_by_mopup()) ++mopup_clients;
  }
  if (params.mopup) {
    std::string why;
    DFLP_CHECK_MSG(outcome.solution.is_feasible(inst, &why),
                   runner << " with mop-up must be feasible: " << why);
  }
  return mopup_clients;
}

}  // namespace

MwGreedyOutcome run_mw_greedy(const fl::Instance& inst,
                              const MwParams& params) {
  Shared shared(inst, params);
  FacilityColumns columns(inst);
  Nodes nodes(inst);
  MwGreedyOutcome outcome{fl::IntegralSolution(inst), {}, {}, 0, {}};
  outcome.transport = run_protocol(
      inst, params,
      {"mw-greedy", shared.sched.bit_budget, params.seed,
       shared.scheduled_rounds + 8},
      [&](net::NodeId v) {
        return make_node(inst, shared, columns, nodes, v);
      },
      [&](const net::NetMetrics& metrics) {
        outcome.metrics = metrics;
        outcome.mopup_clients =
            read_solution(inst, params, nodes, "mw-greedy", outcome);
      });
  if (shared.derived) outcome.schedule = std::move(*shared.derived);
  return outcome;
}

MwGreedyAsyncOutcome run_mw_greedy_async(const fl::Instance& inst,
                                         const MwParams& params,
                                         int max_delay) {
  Shared shared(inst, params);
  FacilityColumns columns(inst);
  net::AsyncNetwork::Options options;
  // The synchronizer tags every message with its logical round, so the
  // budget grows by the tag size: O(log rounds) = O(log N) extra bits.
  options.bit_budget =
      shared.sched.bit_budget +
      net::bits_for_value(
          static_cast<std::int64_t>(shared.scheduled_rounds + 8)) +
      2;
  options.max_delay = max_delay;
  options.seed = params.seed;
  options.tracer = params.tracer;
  if (params.tracer != nullptr) params.tracer->set_section("mw-greedy-async");
  net::AsyncNetwork net =
      make_bipartite_network<net::AsyncNetwork>(inst, options);

  Nodes nodes(inst);
  MwGreedyAsyncOutcome outcome{
      fl::IntegralSolution(inst),
      net::run_synchronized(
          net,
          [&](net::NodeId v) {
            return make_node(inst, shared, columns, nodes, v);
          },
          /*max_events=*/1ULL << 32),
      {}, 0};
  for (std::size_t v = 0; v < net.num_nodes(); ++v) {
    const auto& sync = static_cast<const net::Synchronizer&>(
        net.process(static_cast<net::NodeId>(v)));
    outcome.max_rounds_executed =
        std::max(outcome.max_rounds_executed, sync.rounds_executed());
  }
  (void)read_solution(inst, params, nodes, "async mw-greedy", outcome);
  if (shared.derived) outcome.schedule = std::move(*shared.derived);
  return outcome;
}

}  // namespace dflp::core
