// Tests for the epoch-batched streaming solver: warm-started re-solves
// must be bit-identical to the from-scratch baseline on every epoch, the
// component decomposition must agree with a whole-instance solve under a
// pinned schedule, and recourse accounting must be sane.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/mw_greedy.h"
#include "core/params.h"
#include "fl/component_arena.h"
#include "fl/delta.h"
#include "service/streaming_solver.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace dflp::service {
namespace {

workload::StreamParams small_stream() {
  workload::StreamParams p;
  p.num_cells = 12;
  p.facilities_per_cell = 3;
  p.initial_clients = 60;
  p.client_degree = 2;
  p.arrival_fraction = 0.6;
  return p;
}

/// Capacity bounds that dominate the whole stream: costs come from the
/// generator's fixed ranges, the facility set is static, and the node
/// count is bounded by initial + every possible arrival.
core::InstanceBounds stream_bounds(const workload::StreamParams& p,
                                   std::int64_t total_events) {
  core::InstanceBounds b;
  b.max_facilities = p.num_cells * p.facilities_per_cell;
  b.max_network_nodes = static_cast<std::int32_t>(
      b.max_facilities + p.initial_clients + total_events);
  b.min_positive_cost = std::min(p.opening_lo, p.connection_lo);
  b.max_cost = std::max(p.opening_hi, p.connection_hi);
  // A cell facility can in principle serve every client ever alive.
  b.max_facility_degree = static_cast<int>(p.initial_clients + total_events);
  return b;
}

StreamingOptions make_options(const workload::StreamParams& p,
                              std::int64_t total_events, bool warm,
                              SolveEngine engine) {
  StreamingOptions opt;
  opt.params.k = 4;
  opt.params.seed = 42;
  opt.bounds = stream_bounds(p, total_events);
  opt.engine = engine;
  opt.warm_start = warm;
  return opt;
}

void expect_same_state(const StreamingSolver& a, const StreamingSolver& b) {
  const fl::Instance& inst = a.snapshot().instance();
  ASSERT_EQ(inst.num_clients(), b.snapshot().instance().num_clients());
  ASSERT_EQ(inst.num_facilities(),
            b.snapshot().instance().num_facilities());
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    EXPECT_EQ(a.solution().is_open(i), b.solution().is_open(i))
        << "facility " << i;
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    EXPECT_EQ(a.solution().assignment(j), b.solution().assignment(j))
        << "client " << j;
}

/// Runs a warm and a cold service side by side through a 5-epoch stream,
/// checks that they agree on every epoch, and returns the per-epoch costs
/// (epoch 0 first).
std::vector<double> run_warm_vs_cold(SolveEngine engine, int threads = 1) {
  const workload::StreamParams sp = small_stream();
  constexpr std::int32_t kEpochs = 5;
  constexpr std::int32_t kEventsPerEpoch = 15;
  constexpr std::int64_t kTotal = kEpochs * kEventsPerEpoch;

  workload::ClientStream warm_stream(sp, 7);
  workload::ClientStream cold_stream(sp, 7);
  StreamingOptions warm_opt = make_options(sp, kTotal, /*warm=*/true, engine);
  StreamingOptions cold_opt = make_options(sp, kTotal, /*warm=*/false, engine);
  warm_opt.params.num_threads = threads;
  cold_opt.params.num_threads = threads;
  StreamingSolver warm(warm_stream.initial_snapshot(), warm_opt);
  StreamingSolver cold(cold_stream.initial_snapshot(), cold_opt);

  // Epoch 0 (the constructor's solve) must already agree.
  EXPECT_EQ(warm.last_report().cost, cold.last_report().cost);
  expect_same_state(warm, cold);
  std::vector<double> costs{warm.last_report().cost};

  std::int64_t total_reused = 0;
  for (std::int32_t e = 0; e < kEpochs; ++e) {
    fl::DeltaLog batch;
    warm_stream.fill_epoch(kEventsPerEpoch, batch);
    for (const fl::Delta& d : batch.deltas()) {
      warm.ingest(d);
      cold.ingest(d);
    }
    const EpochReport wr = warm.commit_epoch();
    const EpochReport cr = cold.commit_epoch();

    // Identical final solution cost on every epoch — exact, not approx.
    EXPECT_EQ(wr.cost, cr.cost) << "epoch " << e;
    EXPECT_EQ(wr.fractional_value, cr.fractional_value) << "epoch " << e;
    costs.push_back(wr.cost);
    expect_same_state(warm, cold);

    // Identical recourse (same solutions on both sides).
    EXPECT_EQ(wr.recourse.facilities_opened, cr.recourse.facilities_opened);
    EXPECT_EQ(wr.recourse.clients_reassigned,
              cr.recourse.clients_reassigned);

    EXPECT_EQ(cr.reused_components, 0);
    EXPECT_EQ(cr.solved_components, cr.components);
    EXPECT_EQ(wr.reused_components + wr.solved_components, wr.components);
    total_reused += wr.reused_components;

    // The warm run must do strictly less solver work whenever anything is
    // reused.
    if (wr.reused_components > 0) {
      EXPECT_LT(wr.messages, cr.messages) << "epoch " << e;
    }
  }
  // With 12 cells and 15 events per epoch some cells stay untouched.
  EXPECT_GT(total_reused, 0);
  return costs;
}

TEST(StreamingSolver, WarmEqualsColdMwGreedy) {
  run_warm_vs_cold(SolveEngine::kMwGreedy);
}

TEST(StreamingSolver, WarmEqualsColdPipeline) {
  run_warm_vs_cold(SolveEngine::kPipeline);
}

// Two step threads: every component solve runs on the service's one lent
// network and its thread pool, for both engines, and must reproduce the
// single-threaded epochs exactly.
TEST(StreamingSolver, WarmEqualsColdMultiThread) {
  for (const SolveEngine engine :
       {SolveEngine::kMwGreedy, SolveEngine::kPipeline}) {
    EXPECT_EQ(run_warm_vs_cold(engine, /*threads=*/2),
              run_warm_vs_cold(engine))
        << engine_name(engine);
  }
}

/// One line per epoch (the constructor's epoch 0 first):
/// "cost solved reused opened closed reassigned arrived departed", cost
/// printed with enough digits to round-trip the double exactly.
std::string epoch_trace(SolveEngine engine, bool warm) {
  const workload::StreamParams sp = small_stream();
  constexpr std::int32_t kEpochs = 5;
  constexpr std::int32_t kEventsPerEpoch = 15;
  workload::ClientStream stream(sp, 7);
  StreamingSolver service(
      stream.initial_snapshot(),
      make_options(sp, kEpochs * kEventsPerEpoch, warm, engine));
  std::ostringstream os;
  os << std::setprecision(17);
  auto line = [&os](const EpochReport& r) {
    os << r.cost << ' ' << r.solved_components << ' '
       << r.reused_components << ' ' << r.recourse.facilities_opened << ' '
       << r.recourse.facilities_closed << ' '
       << r.recourse.clients_reassigned << ' '
       << r.recourse.clients_arrived << ' ' << r.recourse.clients_departed
       << '\n';
  };
  line(service.last_report());
  for (std::int32_t e = 0; e < kEpochs; ++e) {
    fl::DeltaLog batch;
    stream.fill_epoch(kEventsPerEpoch, batch);
    for (const fl::Delta& d : batch.deltas()) service.ingest(d);
    line(service.commit_epoch());
  }
  return os.str();
}

// Per-epoch goldens of the fixed stream above: any drift in cost, reuse or
// recourse accounting trips them. Warm and cold differ only in the
// solved/reused split.
constexpr char kMwGreedyWarmGolden[] =
    "2644.209782947175 12 0 27 0 0 60 0\n"
    "2564.8054225492378 9 3 0 1 0 7 8\n"
    "2673.4019761427949 11 2 2 1 2 8 5\n"
    "2398.5472915164455 7 6 0 2 2 5 6\n"
    "2815.862728370108 8 5 3 0 4 8 5\n"
    "2884.4071905733463 9 4 1 1 3 8 5\n";
constexpr char kMwGreedyColdGolden[] =
    "2644.209782947175 12 0 27 0 0 60 0\n"
    "2564.8054225492378 12 0 0 1 0 7 8\n"
    "2673.4019761427949 13 0 2 1 2 8 5\n"
    "2398.5472915164455 13 0 0 2 2 5 6\n"
    "2815.862728370108 13 0 3 0 4 8 5\n"
    "2884.4071905733463 13 0 1 1 3 8 5\n";
constexpr char kPipelineWarmGolden[] =
    "2654.8804286391087 12 0 27 0 0 60 0\n"
    "2778.2439980963268 9 3 1 0 0 7 8\n"
    "2745.2289897763271 11 2 1 1 2 8 5\n"
    "2450.2742784882839 7 6 0 2 0 5 6\n"
    "3123.5684639896745 8 5 5 1 3 8 5\n"
    "3031.0012095647139 9 4 1 2 2 8 5\n";
constexpr char kPipelineColdGolden[] =
    "2654.8804286391087 12 0 27 0 0 60 0\n"
    "2778.2439980963268 12 0 1 0 0 7 8\n"
    "2745.2289897763271 13 0 1 1 2 8 5\n"
    "2450.2742784882839 13 0 0 2 0 5 6\n"
    "3123.5684639896745 13 0 5 1 3 8 5\n"
    "3031.0012095647139 13 0 1 2 2 8 5\n";

TEST(StreamingSolver, EpochReportsMatchGoldens) {
  EXPECT_EQ(epoch_trace(SolveEngine::kMwGreedy, true), kMwGreedyWarmGolden);
  EXPECT_EQ(epoch_trace(SolveEngine::kMwGreedy, false), kMwGreedyColdGolden);
  EXPECT_EQ(epoch_trace(SolveEngine::kPipeline, true), kPipelineWarmGolden);
  EXPECT_EQ(epoch_trace(SolveEngine::kPipeline, false), kPipelineColdGolden);
}

TEST(StreamingSolver, EdgeCostChangeResolvesOnlyItsComponent) {
  // A re-pricing keeps every member-key set, so only the dirty flags can
  // tell the warm service that facility 0's component must re-solve.
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 13);
  StreamingSolver warm(
      stream.initial_snapshot(),
      make_options(sp, 1, /*warm=*/true, SolveEngine::kMwGreedy));
  StreamingSolver cold(
      stream.initial_snapshot(),
      make_options(sp, 1, /*warm=*/false, SolveEngine::kMwGreedy));
  const fl::InstanceSnapshot& snap = warm.snapshot();
  const fl::FacilityEdge edge = snap.instance().facility_edges(0).front();
  const fl::Delta reprice = fl::Delta::edge_cost_change(
      snap.facility_key(0), snap.client_key(edge.client), sp.connection_hi);
  warm.ingest(reprice);
  cold.ingest(reprice);
  const EpochReport wr = warm.commit_epoch();
  const EpochReport cr = cold.commit_epoch();
  EXPECT_EQ(wr.solved_components, 1);
  EXPECT_EQ(wr.reused_components, wr.components - 1);
  EXPECT_EQ(wr.cost, cr.cost);
  expect_same_state(warm, cold);
}

TEST(StreamingSolver, ComponentDecompositionMatchesGlobalSolve) {
  // Cells are connectivity components, so a whole-instance mw-greedy run
  // under the same pinned schedule must produce the very same solution the
  // service assembles from per-component solves (the algorithm is
  // deterministic and tie-breaks only on relative node order, which the
  // monotone renumbering preserves).
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 11);
  const StreamingOptions opt =
      make_options(sp, 0, /*warm=*/true, SolveEngine::kMwGreedy);
  StreamingSolver service(stream.initial_snapshot(), opt);

  core::MwParams params = opt.params;
  const core::MwSchedule pinned =
      core::derive_schedule_from_bounds(opt.bounds, opt.params);
  params.pinned_schedule = &pinned;
  const fl::Instance& inst = stream.initial_snapshot().instance();
  const core::MwGreedyOutcome global = core::run_mw_greedy(inst, params);

  EXPECT_EQ(service.last_report().cost, global.solution.cost(inst));
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    EXPECT_EQ(service.solution().is_open(i), global.solution.is_open(i));
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    EXPECT_EQ(service.solution().assignment(j),
              global.solution.assignment(j));
}

TEST(StreamingSolver, EmptyEpochReusesEverything) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 3);
  StreamingSolver service(
      stream.initial_snapshot(),
      make_options(sp, 0, /*warm=*/true, SolveEngine::kMwGreedy));
  const double cost0 = service.last_report().cost;

  const EpochReport rep = service.commit_epoch();
  EXPECT_EQ(rep.epoch, 1);
  EXPECT_EQ(rep.events, 0u);
  EXPECT_EQ(rep.solved_components, 0);
  EXPECT_EQ(rep.reused_components, rep.components);
  EXPECT_EQ(rep.rounds, 0u);
  EXPECT_EQ(rep.messages, 0u);
  EXPECT_EQ(rep.cost, cost0);
  EXPECT_EQ(rep.recourse.facilities_opened, 0);
  EXPECT_EQ(rep.recourse.facilities_closed, 0);
  EXPECT_EQ(rep.recourse.clients_reassigned, 0);
  EXPECT_EQ(rep.recourse.clients_arrived, 0);
  EXPECT_EQ(rep.recourse.clients_departed, 0);
}

TEST(StreamingSolver, RecourseCountsArrivalsAndDepartures) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 5);
  StreamingSolver service(
      stream.initial_snapshot(),
      make_options(sp, 64, /*warm=*/true, SolveEngine::kMwGreedy));

  // Recourse is a snapshot diff, so an arrive+depart of the same client
  // inside one epoch cancels; count net membership changes here too.
  fl::DeltaLog batch;
  stream.fill_epoch(20, batch);
  std::set<fl::NodeKey> arrived;
  std::int64_t departures = 0;
  for (const fl::Delta& d : batch.deltas()) {
    if (d.kind == fl::Delta::Kind::kClientArrive) {
      arrived.insert(d.client);
    } else if (d.kind == fl::Delta::Kind::kClientDepart) {
      if (arrived.erase(d.client) == 0) ++departures;
    }
    service.ingest(d);
  }
  const auto arrivals = static_cast<std::int64_t>(arrived.size());
  const EpochReport rep = service.commit_epoch();
  EXPECT_EQ(rep.recourse.clients_arrived, arrivals);
  EXPECT_EQ(rep.recourse.clients_departed, departures);
  EXPECT_EQ(rep.num_clients,
            sp.initial_clients + arrivals - departures);
}

TEST(StreamingSolver, RejectsUndersizedBounds) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 1);
  StreamingOptions opt =
      make_options(sp, 0, /*warm=*/true, SolveEngine::kMwGreedy);
  opt.bounds.max_network_nodes = 4;  // way below the initial snapshot
  EXPECT_THROW(StreamingSolver(stream.initial_snapshot(), std::move(opt)),
               CheckError);
}

TEST(DeriveSchedule, PinnedScheduleWinsAndBoundsDominate) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 9);
  const fl::Instance& inst = stream.initial_snapshot().instance();

  core::MwParams params;
  params.k = 4;
  const core::InstanceBounds bounds = stream_bounds(sp, 100);
  EXPECT_TRUE(bounds.dominates(core::InstanceBounds::of(inst)));

  const core::MwSchedule from_bounds =
      core::derive_schedule_from_bounds(bounds, params);
  params.pinned_schedule = &from_bounds;
  const core::MwSchedule resolved = core::derive_schedule(inst, params);
  EXPECT_EQ(resolved.levels, from_bounds.levels);
  EXPECT_EQ(resolved.bit_budget, from_bounds.bit_budget);
  EXPECT_EQ(resolved.thresholds, from_bounds.thresholds);

  // Without pinning, the schedule derives from the instance itself and
  // must match derive_schedule_from_bounds on the instance's own bounds.
  params.pinned_schedule = nullptr;
  const core::MwSchedule own = core::derive_schedule(inst, params);
  const core::MwSchedule own_bounds = core::derive_schedule_from_bounds(
      core::InstanceBounds::of(inst), params);
  EXPECT_EQ(own.thresholds, own_bounds.thresholds);
  EXPECT_EQ(own.y_scale, own_bounds.y_scale);
  EXPECT_EQ(own.num_network_nodes, own_bounds.num_network_nodes);
}

// ---- ComponentArena: re-filled sub-instances equal built ones. -----------

using Members =
    std::pair<std::vector<fl::FacilityId>, std::vector<fl::ClientId>>;

/// Connectivity components of `inst` as ascending member lists, found by
/// breadth-first search (independently of the service's union-find).
std::vector<Members> components_of(const fl::Instance& inst) {
  const auto m = static_cast<std::size_t>(inst.num_facilities());
  const auto n = static_cast<std::size_t>(inst.num_clients());
  std::vector<std::int32_t> comp_f(m, -1);
  std::vector<std::int32_t> comp_c(n, -1);
  std::int32_t count = 0;
  for (fl::FacilityId root = 0; root < inst.num_facilities(); ++root) {
    if (comp_f[static_cast<std::size_t>(root)] != -1) continue;
    std::vector<fl::FacilityId> frontier{root};
    comp_f[static_cast<std::size_t>(root)] = count;
    while (!frontier.empty()) {
      const fl::FacilityId i = frontier.back();
      frontier.pop_back();
      for (const fl::FacilityEdge& e : inst.facility_edges(i)) {
        if (comp_c[static_cast<std::size_t>(e.client)] != -1) continue;
        comp_c[static_cast<std::size_t>(e.client)] = count;
        for (const fl::ClientEdge& b : inst.client_edges(e.client)) {
          if (comp_f[static_cast<std::size_t>(b.facility)] != -1) continue;
          comp_f[static_cast<std::size_t>(b.facility)] = count;
          frontier.push_back(b.facility);
        }
      }
    }
    ++count;
  }
  std::vector<Members> comps(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < m; ++i)
    comps[static_cast<std::size_t>(comp_f[i])].first.push_back(
        static_cast<fl::FacilityId>(i));
  for (std::size_t j = 0; j < n; ++j)
    comps[static_cast<std::size_t>(comp_c[j])].second.push_back(
        static_cast<fl::ClientId>(j));
  return comps;
}

/// The same sub-instance through InstanceBuilder::build().
fl::Instance build_sub(const fl::Instance& parent, const Members& members) {
  const auto& [facilities, clients] = members;
  fl::InstanceBuilder builder;
  for (const fl::FacilityId i : facilities)
    (void)builder.add_facility(parent.opening_cost(i));
  (void)builder.add_clients(static_cast<std::int32_t>(clients.size()));
  for (std::size_t fi = 0; fi < facilities.size(); ++fi) {
    for (const fl::FacilityEdge& e : parent.facility_edges(facilities[fi])) {
      const auto local =
          std::lower_bound(clients.begin(), clients.end(), e.client) -
          clients.begin();
      builder.connect(static_cast<fl::FacilityId>(fi),
                      static_cast<fl::ClientId>(local), e.cost);
    }
  }
  return builder.build();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-by-field, bitwise equality of two instances.
void expect_same_instance(const fl::Instance& got, const fl::Instance& want) {
  ASSERT_EQ(got.num_facilities(), want.num_facilities());
  ASSERT_EQ(got.num_clients(), want.num_clients());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (fl::FacilityId i = 0; i < want.num_facilities(); ++i) {
    EXPECT_EQ(bits(got.opening_cost(i)), bits(want.opening_cost(i)));
    EXPECT_EQ(got.facility_edge_offset(i), want.facility_edge_offset(i));
    const auto g = got.facility_edges(i);
    const auto w = want.facility_edges(i);
    ASSERT_EQ(g.size(), w.size()) << "facility " << i;
    for (std::size_t t = 0; t < w.size(); ++t) {
      EXPECT_EQ(g[t].client, w[t].client) << "facility " << i;
      EXPECT_EQ(bits(g[t].cost), bits(w[t].cost)) << "facility " << i;
    }
  }
  for (fl::ClientId j = 0; j < want.num_clients(); ++j) {
    EXPECT_EQ(got.client_edge_offset(j), want.client_edge_offset(j));
    const auto g = got.client_edges(j);
    const auto w = want.client_edges(j);
    ASSERT_EQ(g.size(), w.size()) << "client " << j;
    for (std::size_t t = 0; t < w.size(); ++t) {
      EXPECT_EQ(g[t].facility, w[t].facility) << "client " << j;
      EXPECT_EQ(bits(g[t].cost), bits(w[t].cost)) << "client " << j;
    }
  }
  EXPECT_EQ(got.max_facility_degree(), want.max_facility_degree());
  EXPECT_EQ(got.max_client_degree(), want.max_client_degree());
  const fl::CostProfile& gp = got.cost_profile();
  const fl::CostProfile& wp = want.cost_profile();
  EXPECT_EQ(bits(gp.min_positive), bits(wp.min_positive));
  EXPECT_EQ(bits(gp.max_value), bits(wp.max_value));
  EXPECT_EQ(bits(gp.rho), bits(wp.rho));
  EXPECT_EQ(bits(gp.total_opening), bits(wp.total_opening));
  EXPECT_EQ(bits(gp.total_connection), bits(wp.total_connection));
  EXPECT_EQ(got.describe(), want.describe());
}

TEST(ComponentArena, EveryStreamComponentEqualsItsBuild) {
  // Both engines drive the service through the arena; every component of
  // every epoch's snapshot is re-filled on one shared arena and compared.
  const workload::StreamParams sp = small_stream();
  constexpr std::int32_t kEpochs = 5;
  constexpr std::int32_t kEventsPerEpoch = 15;
  fl::ComponentArena arena;
  std::int64_t checked = 0;
  for (const SolveEngine engine :
       {SolveEngine::kMwGreedy, SolveEngine::kPipeline}) {
    workload::ClientStream stream(sp, 7);
    StreamingSolver service(
        stream.initial_snapshot(),
        make_options(sp, kEpochs * kEventsPerEpoch, /*warm=*/false, engine));
    for (std::int32_t e = 0; e <= kEpochs; ++e) {
      if (e > 0) {
        fl::DeltaLog batch;
        stream.fill_epoch(kEventsPerEpoch, batch);
        for (const fl::Delta& d : batch.deltas()) service.ingest(d);
        (void)service.commit_epoch();
      }
      const fl::Instance& parent = service.snapshot().instance();
      for (const Members& comp : components_of(parent)) {
        if (comp.second.empty()) continue;  // the service solves none
        SCOPED_TRACE(engine_name(engine) + " epoch " + std::to_string(e) +
                     " facility " + std::to_string(comp.first.front()));
        expect_same_instance(arena.fill(parent, comp.first, comp.second),
                             build_sub(parent, comp));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(ComponentArena, RefillsLargeSmallLargeOnOneArena) {
  // Three uniform instances side by side in one parent, so the parent has
  // components of very different sizes.
  fl::InstanceBuilder builder;
  fl::FacilityId facility_base = 0;
  fl::ClientId client_base = 0;
  for (const auto& [m, n] : {std::pair{24, 300}, std::pair{2, 3},
                             std::pair{8, 40}}) {
    workload::UniformParams up;
    up.num_facilities = m;
    up.num_clients = n;
    up.client_degree = 3;
    const fl::Instance part = workload::uniform_random(up, 5);
    for (fl::FacilityId i = 0; i < m; ++i)
      (void)builder.add_facility(part.opening_cost(i));
    (void)builder.add_clients(n);
    for (fl::FacilityId i = 0; i < m; ++i) {
      for (const fl::FacilityEdge& e : part.facility_edges(i))
        builder.connect(facility_base + i, client_base + e.client, e.cost);
    }
    facility_base += m;
    client_base += n;
  }
  const fl::Instance parent = builder.build();
  std::vector<Members> comps = components_of(parent);
  std::erase_if(comps, [](const Members& c) { return c.second.empty(); });
  const auto by_size = [](const Members& a, const Members& b) {
    return a.second.size() < b.second.size();
  };
  const Members& small = *std::min_element(comps.begin(), comps.end(), by_size);
  const Members& large = *std::max_element(comps.begin(), comps.end(), by_size);
  ASSERT_GE(large.second.size(), 100u);
  ASSERT_LE(small.second.size(), 3u);

  fl::ComponentArena arena;
  for (const Members* comp : {&large, &small, &large, &small}) {
    expect_same_instance(arena.fill(parent, comp->first, comp->second),
                         build_sub(parent, *comp));
  }
}

TEST(ComponentArena, DebugBuildsRejectNonClosedMembers) {
#ifdef NDEBUG
  GTEST_SKIP() << "the closure and order checks are debug-only";
#else
  // Facility 0 serves clients 0 and 1; facility 1 serves client 1.
  fl::InstanceBuilder builder;
  (void)builder.add_facility(1.0);
  (void)builder.add_facility(2.0);
  (void)builder.add_clients(2);
  builder.connect(0, 0, 1.0);
  builder.connect(0, 1, 2.0);
  builder.connect(1, 1, 3.0);
  const fl::Instance parent = builder.build();
  fl::ComponentArena arena;
  const std::vector<fl::FacilityId> both{0, 1};
  const std::vector<fl::ClientId> clients{0, 1};
  // A client list missing client 1, which both facilities reach.
  EXPECT_THROW((void)arena.fill(parent, both, std::vector<fl::ClientId>{0}),
               CheckError);
  // A facility list missing facility 1, which client 1 reaches.
  EXPECT_THROW(
      (void)arena.fill(parent, std::vector<fl::FacilityId>{0}, clients),
      CheckError);
  // Members out of ascending order.
  EXPECT_THROW((void)arena.fill(parent, std::vector<fl::FacilityId>{1, 0},
                                clients),
               CheckError);
  // The closed, ascending lists fill fine.
  expect_same_instance(arena.fill(parent, both, clients),
                       build_sub(parent, {both, clients}));
#endif
}

}  // namespace
}  // namespace dflp::service
