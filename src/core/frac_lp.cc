#include "core/frac_lp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/bipartite.h"

namespace dflp::core {

namespace {

constexpr std::uint8_t kYUpdate = 10;  // field[0] = raise count
constexpr std::uint8_t kCovered = 11;
constexpr std::uint8_t kOpenReq = 12;

struct Shared {
  Shared(const fl::Instance& inst, const MwParams& p)
      : sched(derive_schedule(inst, p)), params(p),
        scheduled_rounds(2ULL * static_cast<std::uint64_t>(sched.levels) *
                         static_cast<std::uint64_t>(sched.subphases)) {}

  MwSchedule sched;
  MwParams params;
  std::uint64_t scheduled_rounds = 0;  // 2 * levels * subphases
};

/// The y grid both sides evaluate identically from the shared schedule.
double y_of_raises(const MwSchedule& sched, std::int64_t raises) {
  if (raises <= 0) return 0.0;
  if (raises >= sched.y_scale) return 1.0;
  return std::pow(sched.beta,
                  static_cast<double>(raises - sched.y_scale));
}

class FacilityProc final : public net::Process {
 public:
  FacilityProc(const Shared* shared, double opening_cost,
               std::vector<LocalEdge> edges)
      : shared_(shared), opening_cost_(opening_cost),
        edges_(std::move(edges)), covered_(edges_.size(), 0),
        peers_(edges_), uncovered_count_(static_cast<int>(edges_.size())) {}

  [[nodiscard]] std::int64_t raises() const noexcept { return raises_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    for (const net::Message& msg : inbox) {
      if (msg.kind == kCovered) mark_covered(msg.src);
    }

    if (r < shared_->scheduled_rounds) {
      if (r % 2 == 0) maybe_raise(ctx, r);
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup || r >= base + 1) {
      bool requested = false;
      for (const net::Message& msg : inbox) {
        if (msg.kind == kOpenReq) requested = true;
      }
      if (requested && raises_ < shared_->sched.y_scale) {
        ctx.annotate("mopup-raise");
        raises_ = shared_->sched.y_scale;  // y = 1
        ctx.broadcast(kYUpdate, {raises_, 0, 0});
      }
      ctx.halt();
    }
  }

 private:
  void mark_covered(net::NodeId client) {
    const std::size_t t = peers_.at(client);
    if (!covered_[t]) {
      covered_[t] = 1;
      --uncovered_count_;
    }
  }

  [[nodiscard]] double best_star_ratio() const {
    // Once fully raised the facility cannot act anyway.
    double num = opening_cost_ * (1.0 - y_of_raises(shared_->sched, raises_));
    double best = std::numeric_limits<double>::infinity();
    int size = 0;
    for (std::size_t t = 0; t < edges_.size(); ++t) {
      if (covered_[t]) continue;
      num += edges_[t].cost;
      ++size;
      best = std::min(best, num / static_cast<double>(size));
    }
    return size == 0 ? std::numeric_limits<double>::infinity() : best;
  }

  void maybe_raise(net::NodeContext& ctx, std::uint64_t r) {
    if (uncovered_count_ == 0) {
      ctx.halt();  // y final; mop-up requests only come from the uncovered
      return;
    }
    if (raises_ >= shared_->sched.y_scale) return;  // y == 1 already
    const auto iteration = r / 2;
    const auto level = static_cast<int>(
        iteration / static_cast<std::uint64_t>(shared_->sched.subphases));
    DFLP_CHECK(level < shared_->sched.levels);
    const double threshold =
        shared_->sched.thresholds[static_cast<std::size_t>(level)];
    if (!(best_star_ratio() <= threshold)) return;
    ctx.annotate("raise");
    ++raises_;
    ctx.broadcast(kYUpdate, {raises_, 0, 0});
  }

  const Shared* shared_;
  double opening_cost_;
  std::vector<LocalEdge> edges_;
  std::vector<std::uint8_t> covered_;
  PeerIndex peers_;
  int uncovered_count_ = 0;
  std::int64_t raises_ = 0;
};

class ClientProc final : public net::Process {
 public:
  ClientProc(const Shared* shared, std::vector<LocalEdge> edges)
      : shared_(shared), edges_(std::move(edges)),
        known_raises_(edges_.size(), 0), peers_(edges_) {}

  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] bool covered_by_mopup() const noexcept { return by_mopup_; }

  /// Local x allocation over this client's edges (edge order = cost
  /// order), written into the zeroed `x`: x_ij = min(known y_i, residual).
  /// Known y never exceeds the facility's true final y, so the allocation
  /// is feasible against it.
  void allocate_x(std::span<double> x) const {
    double residual = 1.0;
    for (std::size_t t = 0; t < edges_.size() && residual > 0.0; ++t) {
      const double yv = y_of_raises(shared_->sched, known_raises_[t]);
      const double take = std::min(yv, residual);
      x[t] = take;
      residual -= take;
    }
  }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    for (const net::Message& msg : inbox) {
      if (msg.kind == kYUpdate) {
        std::int64_t& known = known_raises_[peers_.at(msg.src)];
        known = std::max(known, msg.field[0]);
      }
    }

    if (r < shared_->scheduled_rounds) {
      if (r % 2 == 1 && !covered_) maybe_cover(ctx);
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup) {
      ctx.halt();
      return;
    }
    if (r == base) {
      if (!covered_) {
        ctx.annotate("mopup-request");
        ctx.send(edges_.front().peer, kOpenReq);  // cheapest facility
        by_mopup_ = true;
      } else {
        ctx.halt();
      }
      return;
    }
    if (r == base + 1) return;  // y update in flight
    // base+2: the mop-up facility raised to y=1; coverage must now hold.
    if (!covered_) maybe_cover(ctx);
    DFLP_CHECK_MSG(covered_, "client node " << ctx.self()
                                            << " uncovered after mop-up");
    ctx.halt();
  }

 private:
  void maybe_cover(net::NodeContext& ctx) {
    double mass = 0.0;
    for (std::size_t t = 0; t < edges_.size(); ++t)
      mass += y_of_raises(shared_->sched, known_raises_[t]);
    if (mass >= 1.0 - 1e-12) {
      ctx.annotate("covered");
      covered_ = true;
      ctx.broadcast(kCovered);
    }
  }

  const Shared* shared_;
  std::vector<LocalEdge> edges_;
  std::vector<std::int64_t> known_raises_;  // parallel to edges_
  PeerIndex peers_;
  bool covered_ = false;
  bool by_mopup_ = false;
};

}  // namespace

FracOutcome run_frac_lp(const fl::Instance& inst, const MwParams& params) {
  const Shared shared(inst, params);

  NodePrograms<FacilityProc, ClientProc> nodes(inst);
  const auto make_node = [&](net::NodeId v) {
    return nodes.make(
        v,
        [&](fl::FacilityId i) {
          return std::make_unique<FacilityProc>(
              &shared, inst.opening_cost(i), facility_local_edges(inst, i));
        },
        [&](fl::ClientId j) {
          return std::make_unique<ClientProc>(&shared,
                                              client_local_edges(inst, j));
        });
  };

  FracOutcome outcome(inst);
  outcome.schedule = shared.sched;
  outcome.transport = run_protocol(
      inst, params,
      {"frac-lp", shared.sched.bit_budget, params.seed,
       shared.scheduled_rounds + 8},
      make_node, [&](const net::NetMetrics& metrics) {
        outcome.metrics = metrics;
        for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
          outcome.fractional.y[static_cast<std::size_t>(i)] = y_of_raises(
              shared.sched, nodes.facility[static_cast<std::size_t>(i)]
                                ->raises());
        }
        for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
          const ClientProc& proc = *nodes.client[static_cast<std::size_t>(j)];
          proc.allocate_x(std::span<double>(outcome.fractional.x)
                              .subspan(inst.client_edge_offset(j),
                                       inst.client_edges(j).size()));
          if (proc.covered_by_mopup()) ++outcome.mopup_clients;
        }
        if (params.mopup) {
          std::string why;
          DFLP_CHECK_MSG(
              outcome.fractional.is_feasible(inst, 1e-7, &why),
              "fractional stage with mop-up must be feasible: " << why);
        }
      });
  return outcome;
}

}  // namespace dflp::core
