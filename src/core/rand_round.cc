#include "core/rand_round.h"

#include <algorithm>

#include "common/check.h"
#include "core/bipartite.h"

namespace dflp::core {

namespace {

constexpr std::uint8_t kOpen = 20;
constexpr std::uint8_t kOpenReq = 21;
constexpr std::uint8_t kGrant = 22;

struct Shared {
  double boost = 1.0;
  std::uint64_t scheduled_rounds = 0;  // 2 * rounding_phases
};

class FacilityProc final : public net::Process {
 public:
  FacilityProc(const Shared* shared, double y) : shared_(shared), y_(y) {}

  [[nodiscard]] bool opened() const noexcept { return open_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    if (r < shared_->scheduled_rounds) {
      if (r % 2 == 0 && !open_) {
        const double p = std::min(1.0, y_ * shared_->boost);
        if (p > 0.0 && ctx.rng().bernoulli(p)) {
          ctx.annotate("flip-open");
          open_ = true;
          ctx.broadcast(kOpen);
        }
      }
      return;
    }
    const std::uint64_t base = shared_->scheduled_rounds;
    if (r >= base + 1) {
      bool served = false;
      for (const net::Message& msg : inbox) {
        if (msg.kind == kOpenReq) {
          open_ = true;
          ctx.send(msg.src, kGrant);
          served = true;
        }
      }
      if (served) ctx.annotate("fallback-grant");
      ctx.halt();
    }
  }

 private:
  const Shared* shared_;
  double y_;
  bool open_ = false;
};

class ClientProc final : public net::Process {
 public:
  /// `edges` in cost order; `x` parallel fractional support.
  ClientProc(const Shared* shared, std::vector<LocalEdge> edges,
             std::span<const double> x)
      : shared_(shared), edges_(std::move(edges)), x_(x),
        open_known_(edges_.size(), 0), peers_(edges_) {
    DFLP_CHECK(x_.size() == edges_.size());
  }

  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] net::NodeId assigned_facility_node() const noexcept {
    return assigned_;
  }
  [[nodiscard]] bool used_fallback() const noexcept { return fallback_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    for (const net::Message& msg : inbox) {
      if (msg.kind == kOpen) open_known_[peers_.at(msg.src)] = 1;
    }

    if (r < shared_->scheduled_rounds) {
      if (r % 2 == 1 && !covered_) try_connect(ctx);
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (r == base) {
      if (!covered_) try_connect(ctx);  // late announcements from phase P-1
      if (covered_) {
        ctx.halt();
        return;
      }
      // Fallback: cheapest facility with positive fractional support
      // (edges are cost-sorted); the fractional solution is feasible, so
      // one exists.
      pending_ = net::kNoNode;
      for (std::size_t t = 0; t < edges_.size(); ++t) {
        if (x_[t] > 0.0) {
          pending_ = edges_[t].peer;
          break;
        }
      }
      if (pending_ == net::kNoNode) pending_ = edges_.front().peer;
      ctx.annotate("fallback");
      ctx.send(pending_, kOpenReq);
      fallback_ = true;
      return;
    }
    if (r == base + 1) return;  // request in flight
    for (const net::Message& msg : inbox) {
      if (msg.kind == kGrant && msg.src == pending_) {
        covered_ = true;
        assigned_ = msg.src;
      }
    }
    DFLP_CHECK_MSG(covered_, "rounding fallback grant missing at node "
                                 << ctx.self());
    ctx.halt();
  }

 private:
  void try_connect(net::NodeContext& ctx) {
    for (std::size_t t = 0; t < edges_.size(); ++t) {  // cost order
      if (open_known_[t]) {
        ctx.annotate("connect");
        covered_ = true;
        assigned_ = edges_[t].peer;
        return;
      }
    }
  }

  const Shared* shared_;
  std::vector<LocalEdge> edges_;
  std::span<const double> x_;  // into the fractional input
  std::vector<std::uint8_t> open_known_;
  PeerIndex peers_;
  bool covered_ = false;
  bool fallback_ = false;
  net::NodeId assigned_ = net::kNoNode;
  net::NodeId pending_ = net::kNoNode;
};

}  // namespace

RoundOutcome run_rand_round(const fl::Instance& inst,
                            const fl::FractionalSolution& fractional,
                            const MwSchedule& schedule,
                            const MwParams& params) {
  {
    std::string why;
    DFLP_CHECK_MSG(fractional.is_feasible(inst, 1e-6, &why),
                   "rounding requires a feasible fractional input: " << why);
  }
  const Shared shared{
      params.rounding_boost,
      2ULL * static_cast<std::uint64_t>(schedule.rounding_phases)};

  NodePrograms<FacilityProc, ClientProc> nodes(inst);
  const auto make_node = [&](net::NodeId v) {
    return nodes.make(
        v,
        [&](fl::FacilityId i) {
          return std::make_unique<FacilityProc>(
              &shared, fractional.y[static_cast<std::size_t>(i)]);
        },
        [&](fl::ClientId j) {
          return std::make_unique<ClientProc>(
              &shared, client_local_edges(inst, j),
              std::span<const double>(fractional.x)
                  .subspan(inst.client_edge_offset(j),
                           inst.client_edges(j).size()));
        });
  };

  RoundOutcome outcome(inst);
  outcome.transport = run_protocol(
      inst, params,
      {"rand-round", schedule.bit_budget,
       params.seed ^ 0x5EEDB00572ULL,  // decorrelate from stage 1
       shared.scheduled_rounds + 8},
      make_node, [&](const net::NetMetrics& metrics) {
        outcome.metrics = metrics;
        for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
          if (nodes.facility[static_cast<std::size_t>(i)]->opened())
            outcome.solution.open(i);
        }
        for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
          const ClientProc& proc = *nodes.client[static_cast<std::size_t>(j)];
          DFLP_CHECK(proc.covered());
          outcome.solution.assign(
              j, node_to_facility(proc.assigned_facility_node()));
          if (proc.used_fallback()) ++outcome.fallback_clients;
        }
        std::string why;
        DFLP_CHECK_MSG(outcome.solution.is_feasible(inst, &why),
                       "rounded solution must be feasible: " << why);
      });
  return outcome;
}

}  // namespace dflp::core
