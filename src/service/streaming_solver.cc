#include "service/streaming_solver.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/frac_lp.h"
#include "core/mw_greedy.h"
#include "core/rand_round.h"

namespace dflp::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Union-find with path halving + union by size; nodes are the bipartite
/// layout's dense ids (facility i -> i, client j -> m + j).
class Dsu {
 public:
  explicit Dsu(std::size_t size) : parent_(size), size_(size, 1) {
    for (std::size_t v = 0; v < size; ++v)
      parent_[v] = static_cast<std::int32_t>(v);
  }

  std::int32_t find(std::int32_t v) {
    while (parent_[static_cast<std::size_t>(v)] != v) {
      parent_[static_cast<std::size_t>(v)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(v)])];
      v = parent_[static_cast<std::size_t>(v)];
    }
    return v;
  }

  void merge(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[static_cast<std::size_t>(a)] <
        size_[static_cast<std::size_t>(b)])
      std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] +=
        size_[static_cast<std::size_t>(b)];
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> size_;
};

std::uint64_t chain(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v * 0x9E3779B97F4A7C15ULL + 0x7F4A7C15ULL));
}

/// Per-component seed tag; keeps component streams disjoint from every
/// other derived stream in the codebase.
constexpr std::uint64_t kComponentSeedTag = 0x57AEA41C0FFEEULL;

}  // namespace

core::InstanceBounds stream_bounds(const workload::StreamParams& params,
                                   std::int64_t max_events) {
  DFLP_CHECK(max_events >= 0);
  core::InstanceBounds b;
  b.max_facilities = params.num_cells * params.facilities_per_cell;
  const std::int64_t max_clients = params.initial_clients + max_events;
  b.max_network_nodes =
      static_cast<std::int32_t>(b.max_facilities + max_clients);
  b.min_positive_cost = std::min(params.opening_lo, params.connection_lo);
  b.max_cost = std::max(params.opening_hi, params.connection_hi);
  // A cell facility can in principle serve every client ever alive.
  b.max_facility_degree = static_cast<int>(max_clients);
  return b;
}

std::string engine_name(SolveEngine engine) {
  switch (engine) {
    case SolveEngine::kMwGreedy:
      return "mw-greedy";
    case SolveEngine::kPipeline:
      return "mw-pipeline";
  }
  return "unknown";
}

StreamingSolver::StreamingSolver(fl::InstanceSnapshot initial,
                                 StreamingOptions options)
    : options_(std::move(options)), snapshot_(std::move(initial)) {
  DFLP_CHECK_MSG(options_.params.pinned_schedule == nullptr,
                 "StreamingOptions::params.pinned_schedule is managed by "
                 "the service; leave it null");
  DFLP_CHECK_MSG(options_.params.mopup,
                 "the streaming service requires mopup (it asserts every "
                 "epoch's solution is feasible)");
  schedule_ = core::derive_schedule_from_bounds(options_.bounds,
                                                options_.params);
  last_report_ = resolve(/*events=*/0, /*apply_ms=*/0.0, {}, {});
}

EpochReport StreamingSolver::commit_epoch() {
  const auto start = Clock::now();
  std::vector<fl::NodeKey> touched_f;
  std::vector<fl::NodeKey> touched_c;
  for (const fl::Delta& d : pending_.deltas()) {
    switch (d.kind) {
      case fl::Delta::Kind::kClientArrive:
        touched_c.push_back(d.client);
        for (const fl::KeyedEdge& e : d.edges) touched_f.push_back(e.peer);
        break;
      case fl::Delta::Kind::kClientDepart:
        touched_c.push_back(d.client);
        break;
      case fl::Delta::Kind::kFacilityOpen:
        touched_f.push_back(d.facility);
        for (const fl::KeyedEdge& e : d.edges) touched_c.push_back(e.peer);
        break;
      case fl::Delta::Kind::kFacilityClose:
        touched_f.push_back(d.facility);
        break;
      case fl::Delta::Kind::kEdgeCostChange:
        touched_f.push_back(d.facility);
        touched_c.push_back(d.client);
        break;
    }
  }
  const std::size_t events = pending_.size();
  snapshot_ = fl::apply(snapshot_, pending_);
  pending_.clear();
  const double apply_ms = ms_since(start);

  EpochReport report = resolve(events, apply_ms, touched_f, touched_c);
  report.total_ms = ms_since(start);
  last_report_ = report;
  return report;
}

StreamingSolver::ComponentEntry StreamingSolver::solve_component(
    const Component& comp, std::uint64_t fingerprint) {
  ComponentEntry entry;
  entry.key = comp.key;
  entry.fingerprint = fingerprint;
  entry.open.assign(comp.facilities.size(), 0);
  if (comp.clients.empty()) return entry;  // facility-only: stays closed

  const fl::Instance& sub =
      arena_.fill(snapshot_.instance(), comp.facilities, comp.clients);

  core::MwParams params = options_.params;
  params.pinned_schedule = &schedule_;
  params.tracer = nullptr;
  params.trace_path.clear();
  params.network = &network_;
  params.seed = derive_stream_seed(options_.params.seed,
                                   static_cast<std::uint64_t>(comp.key),
                                   kComponentSeedTag);

  fl::IntegralSolution sub_solution;
  switch (options_.engine) {
    case SolveEngine::kMwGreedy: {
      core::MwGreedyOutcome out = core::run_mw_greedy(sub, params);
      sub_solution = std::move(out.solution);
      entry.rounds = out.metrics.rounds;
      entry.messages = out.metrics.messages;
      break;
    }
    case SolveEngine::kPipeline: {
      core::FracOutcome frac = core::run_frac_lp(sub, params);
      core::RoundOutcome rounded =
          core::run_rand_round(sub, frac.fractional, frac.schedule, params);
      sub_solution = std::move(rounded.solution);
      entry.fractional_value = frac.fractional.value(sub);
      entry.frac_y = std::move(frac.fractional.y);
      entry.rounds = frac.metrics.rounds + rounded.metrics.rounds;
      entry.messages = frac.metrics.messages + rounded.metrics.messages;
      break;
    }
  }

  for (std::size_t fi = 0; fi < comp.facilities.size(); ++fi)
    entry.open[fi] = sub_solution.is_open(static_cast<std::int32_t>(fi));
  entry.assignment.reserve(comp.clients.size());
  for (std::size_t t = 0; t < comp.clients.size(); ++t) {
    const fl::FacilityId local =
        sub_solution.assignment(static_cast<std::int32_t>(t));
    DFLP_CHECK_MSG(local != fl::kNoFacility,
                   "component solve left a client unassigned");
    entry.assignment.push_back(local);
  }
  return entry;
}

EpochReport StreamingSolver::resolve(
    std::size_t events, double apply_ms,
    const std::vector<fl::NodeKey>& touched_f,
    const std::vector<fl::NodeKey>& touched_c) {
  const auto start = Clock::now();
  const fl::Instance& inst = snapshot_.instance();
  const auto m = inst.num_facilities();
  const auto n = inst.num_clients();

  DFLP_CHECK_MSG(
      options_.bounds.dominates(core::InstanceBounds::of(inst)),
      "epoch " << snapshot_.epoch()
               << " outgrew the declared capacity bounds the schedule was "
                  "pinned from ("
               << inst.describe() << ")");

  // ---- Touched keys -> dirty flags over dense ids. ---------------------
  std::vector<std::uint8_t> dirty_f(static_cast<std::size_t>(m), 0);
  std::vector<std::uint8_t> dirty_c(static_cast<std::size_t>(n), 0);
  for (fl::NodeKey key : touched_f) {
    const fl::FacilityId i = snapshot_.facility_index(key);
    if (i != -1) dirty_f[static_cast<std::size_t>(i)] = 1;
  }
  for (fl::NodeKey key : touched_c) {
    const fl::ClientId j = snapshot_.client_index(key);
    if (j != -1) dirty_c[static_cast<std::size_t>(j)] = 1;
  }

  // ---- Partition into connectivity components. -------------------------
  Dsu dsu(static_cast<std::size_t>(m + n));
  for (fl::FacilityId i = 0; i < m; ++i) {
    for (const fl::FacilityEdge& e : inst.facility_edges(i))
      dsu.merge(i, m + e.client);
  }
  std::vector<Component> comps;
  std::vector<std::int32_t> comp_of_root(static_cast<std::size_t>(m + n),
                                         -1);
  // Facilities in dense (= ascending-key) order: the first facility seen
  // for a root is the component's minimum key, and `comps` ends up sorted
  // by key — which keeps every downstream accumulation order-deterministic
  // and lets the key-ordered cache be merged against it.
  for (fl::FacilityId i = 0; i < m; ++i) {
    std::int32_t& c = comp_of_root[static_cast<std::size_t>(dsu.find(i))];
    if (c == -1) {
      c = static_cast<std::int32_t>(comps.size());
      comps.emplace_back();
      comps.back().key = snapshot_.facility_key(i);
    }
    comps[static_cast<std::size_t>(c)].facilities.push_back(i);
  }
  for (fl::ClientId j = 0; j < n; ++j) {
    const std::int32_t c =
        comp_of_root[static_cast<std::size_t>(dsu.find(m + j))];
    DFLP_CHECK_MSG(c != -1,
                   "client " << j << " has no facility in its component");
    comps[static_cast<std::size_t>(c)].clients.push_back(j);
  }

  EpochReport report;
  report.epoch = snapshot_.epoch();
  report.events = events;
  report.apply_ms = apply_ms;
  report.num_facilities = m;
  report.num_clients = n;
  report.components = static_cast<std::int64_t>(comps.size());

  // ---- Solve dirty components, reuse clean ones. -----------------------
  std::vector<ComponentEntry> next_cache;
  next_cache.reserve(comps.size());
  std::size_t cached = 0;  // merge cursor into the key-ordered cache_
  fl::IntegralSolution solution(inst);
  for (const Component& comp : comps) {
    std::uint64_t fp = 0xD17F;
    for (fl::FacilityId i : comp.facilities)
      fp = chain(fp, static_cast<std::uint64_t>(snapshot_.facility_key(i)));
    fp = chain(fp, 0xC11E57);  // side separator
    for (fl::ClientId j : comp.clients)
      fp = chain(fp, static_cast<std::uint64_t>(snapshot_.client_key(j)));

    while (cached < cache_.size() && cache_[cached].key < comp.key) ++cached;
    bool reusable = options_.warm_start && cached < cache_.size() &&
                    cache_[cached].key == comp.key &&
                    cache_[cached].fingerprint == fp;
    for (std::size_t t = 0; reusable && t < comp.facilities.size(); ++t)
      reusable = dirty_f[static_cast<std::size_t>(comp.facilities[t])] == 0;
    for (std::size_t t = 0; reusable && t < comp.clients.size(); ++t)
      reusable = dirty_c[static_cast<std::size_t>(comp.clients[t])] == 0;

    ComponentEntry entry;
    if (reusable) {
      entry = std::move(cache_[cached]);
      // Positions are only meaningful against the member lists they were
      // solved on; the fingerprint vouches for that, this guards it.
      DFLP_CHECK_MSG(entry.open.size() == comp.facilities.size() &&
                         entry.assignment.size() == comp.clients.size(),
                     "cached solution of component "
                         << comp.key << " holds " << entry.open.size()
                         << " facility / " << entry.assignment.size()
                         << " client positions, the component has "
                         << comp.facilities.size() << " / "
                         << comp.clients.size());
      ++report.reused_components;
    } else {
      entry = solve_component(comp, fp);
      ++report.solved_components;
      report.rounds = std::max(report.rounds, entry.rounds);
      report.messages += entry.messages;
    }
    report.fractional_value += entry.fractional_value;

    for (std::size_t fi = 0; fi < comp.facilities.size(); ++fi) {
      if (entry.open[fi] != 0) solution.open(comp.facilities[fi]);
    }
    for (std::size_t t = 0; t < comp.clients.size(); ++t) {
      solution.assign(comp.clients[t],
                      comp.facilities[static_cast<std::size_t>(
                          entry.assignment[t])]);
    }
    next_cache.push_back(std::move(entry));
  }
  cache_ = std::move(next_cache);

  std::string why;
  DFLP_CHECK_MSG(solution.is_feasible(inst, &why),
                 "epoch " << snapshot_.epoch()
                          << " assembled an infeasible solution: " << why);
  report.cost = solution.cost(inst);

  // ---- Recourse vs the previous epoch, in key space. -------------------
  // Every list below is in ascending key order (dense order is key
  // order), so each count is one linear merge.
  std::vector<fl::NodeKey> open_keys;
  for (fl::FacilityId i = 0; i < m; ++i) {
    if (solution.is_open(i)) open_keys.push_back(snapshot_.facility_key(i));
  }
  std::int64_t kept_open = 0;
  for (std::size_t a = 0, b = 0;
       a < open_keys.size() && b < prev_open_keys_.size();) {
    if (open_keys[a] < prev_open_keys_[b]) {
      ++a;
    } else if (prev_open_keys_[b] < open_keys[a]) {
      ++b;
    } else {
      ++kept_open;
      ++a;
      ++b;
    }
  }
  report.recourse.facilities_opened =
      static_cast<std::int64_t>(open_keys.size()) - kept_open;
  report.recourse.facilities_closed =
      static_cast<std::int64_t>(prev_open_keys_.size()) - kept_open;

  std::vector<fl::NodeKey> client_keys(static_cast<std::size_t>(n));
  std::vector<fl::NodeKey> assigned(static_cast<std::size_t>(n));
  std::int64_t common = 0;
  std::size_t prev = 0;
  for (fl::ClientId j = 0; j < n; ++j) {
    const auto t = static_cast<std::size_t>(j);
    client_keys[t] = snapshot_.client_key(j);
    assigned[t] = snapshot_.facility_key(solution.assignment(j));
    while (prev < prev_client_keys_.size() &&
           prev_client_keys_[prev] < client_keys[t])
      ++prev;
    if (prev == prev_client_keys_.size() ||
        prev_client_keys_[prev] != client_keys[t])
      continue;
    ++common;
    if (prev_assigned_[prev] != assigned[t])
      ++report.recourse.clients_reassigned;
  }
  report.recourse.clients_arrived = static_cast<std::int64_t>(n) - common;
  report.recourse.clients_departed =
      static_cast<std::int64_t>(prev_client_keys_.size()) - common;

  prev_open_keys_ = std::move(open_keys);
  prev_client_keys_ = std::move(client_keys);
  prev_assigned_ = std::move(assigned);
  solution_ = std::move(solution);

  report.solve_ms = ms_since(start);
  report.total_ms = report.apply_ms + report.solve_ms;
  return report;
}

}  // namespace dflp::service
