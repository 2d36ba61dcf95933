// Steady-state allocation audit for the SoA arena.
//
// The engine's capacity-recycling contract (netsim/network.h §arena) is
// that once a workload's shapes have been seen, whole rounds run out of
// recycled storage: staging logs, the slot permutation, inbox scratch,
// RecRange stamps, and the per-edge allowance slab are all grown once and
// reused. This file replaces the global allocator with a counting shim and
// pins that contract literally — after a short warm-up, additional rounds
// perform ZERO heap allocations, in both delivery modes the commit can
// pick (slot-permutation scatter and neighbour scan) — and extends it to
// re-armed networks (Network::reset): a repeated component solve on one
// network allocates nothing inside Network::run, at one step thread or
// two, and a repeated mw-greedy component solve allocates its node
// programs plus a fixed handful of per-solve tables.
//
// The overrides are process-wide for the whole dflp_tests binary; they
// only count and forward, so the other suites see identical behaviour.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/bipartite.h"
#include "core/mw_greedy.h"
#include "core/params.h"
#include "netsim/network.h"
#include "workload/stream.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  // C11 aligned_alloc wants size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dflp {
namespace {

/// All-broadcast storm: every record fans out analytically, the commit's
/// scan gate fires (scan_cost == survivors on any graph), and delivery
/// goes through the neighbour-scan gather.
class Broadcaster final : public net::Process {
 public:
  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> in) override {
    received_ += in.size();
    ctx.broadcast(1, {7, 9, 0});
  }

 private:
  std::uint64_t received_ = 0;
};

/// One unicast per node on a degree-8 graph: scan_cost is ~8x the survivor
/// count, the gate stays closed, and delivery goes through the layout +
/// scatter + slot-permutation path.
class Unicaster final : public net::Process {
 public:
  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> in) override {
    received_ += in.size();
    ctx.send(ctx.neighbors().front(), 1, {7, 9, 0});
  }

 private:
  std::uint64_t received_ = 0;
};

/// Ring + 3 random chords per node, same construction as the storm
/// benchmark topology (degree ~8).
template <typename Proc>
std::unique_ptr<net::Network> make_chorded_ring(std::size_t n) {
  net::Network::Options o;
  o.bit_budget = 64;
  o.seed = 1;
  o.num_threads = 1;
  auto net = std::make_unique<net::Network>(n, o);
  Rng topo_rng(0xBE7C417ULL);
  std::set<std::pair<net::NodeId, net::NodeId>> edges;
  const auto norm = [](net::NodeId a, net::NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  for (std::size_t v = 0; v < n; ++v)
    edges.insert(norm(static_cast<net::NodeId>(v),
                      static_cast<net::NodeId>((v + 1) % n)));
  for (std::size_t v = 0; v < n; ++v)
    for (int c = 0; c < 3; ++c) {
      const auto w = static_cast<net::NodeId>(topo_rng.uniform_u64(n));
      if (w == static_cast<net::NodeId>(v)) continue;
      edges.insert(norm(static_cast<net::NodeId>(v), w));
    }
  for (const auto& [u, v] : edges) net->add_edge(u, v);
  net->finalize();
  for (std::size_t v = 0; v < n; ++v)
    net->set_process(static_cast<net::NodeId>(v), std::make_unique<Proc>());
  return net;
}

/// Warm the network's shapes, then count allocations across a steady-state
/// stretch. The warm-up must cover both log parities a few times so every
/// double-buffered structure has reached its high-water mark.
std::uint64_t steady_state_allocations(net::Network& net) {
  net.run(6);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  net.run(10);
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(ArenaAllocTest, ScanModeSteadyStateAllocatesNothing) {
  const auto net = make_chorded_ring<Broadcaster>(512);
  EXPECT_EQ(steady_state_allocations(*net), 0u);
}

TEST(ArenaAllocTest, ScatterModeSteadyStateAllocatesNothing) {
  const auto net = make_chorded_ring<Unicaster>(512);
  EXPECT_EQ(steady_state_allocations(*net), 0u);
}

/// A component-sized bipartite protocol touching every engine path: each
/// client asks one facility (unicasts: the scatter path), each asked
/// facility answers all its neighbours (a broadcast: the scan path), then
/// everyone idles to a common halt round (idle fast-forward).
class ComponentNode final : public net::Process {
 public:
  static constexpr std::uint64_t kHaltRound = 9;

  explicit ComponentNode(bool facility) : facility_(facility) {}

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> in) override {
    if (ctx.round() == 0 && !facility_)
      ctx.send(ctx.neighbors().front(), 1, {3, 0, 0});
    if (ctx.round() == 1 && facility_ && !in.empty())
      ctx.broadcast(2, {4, 0, 0});
    if (ctx.round() == kHaltRound) {
      ctx.halt();
      return;
    }
    ctx.idle_until(kHaltRound);
  }

 private:
  bool facility_;
};

/// One cell of the streaming benchmark: 4 facilities, 11 clients.
fl::Instance stream_cell() {
  workload::StreamParams cell;
  cell.num_cells = 1;
  cell.initial_clients = 11;
  return workload::ClientStream(cell, 1).initial_snapshot().instance();
}

TEST(ArenaAllocTest, RearmedComponentSolveAllocatesNothingInRun) {
  const fl::Instance inst = stream_cell();
  const core::ProtocolSpec spec{"component", 64, 1,
                                ComponentNode::kHaltRound + 4};
  // Step shards own their staging logs by shard index, so which log grows
  // is fixed by the partition, not by scheduling: the count holds at any
  // thread count.
  for (const int threads : {1, 2}) {
    net::Network net;
    core::MwParams params;
    params.network = &net;
    params.num_threads = threads;
    // run_protocol installs the programs in node order and then runs, so
    // the count after the last program is built starts the run's window.
    const auto run_allocations = [&] {
      std::uint64_t at_run = 0;
      std::uint64_t in_run = 0;
      (void)core::run_protocol(
          inst, params, spec,
          [&](net::NodeId v) {
            auto node =
                std::make_unique<ComponentNode>(v < inst.num_facilities());
            at_run = g_news.load(std::memory_order_relaxed);
            return node;
          },
          [&](const net::NetMetrics& metrics) {
            in_run = g_news.load(std::memory_order_relaxed) - at_run;
            EXPECT_EQ(metrics.rounds, ComponentNode::kHaltRound + 1);
          });
      return in_run;
    };
    // The first solve grows the buffers; the identical second one must
    // find everything in place.
    EXPECT_GT(run_allocations(), 0u) << "threads=" << threads;
    EXPECT_EQ(run_allocations(), 0u) << "threads=" << threads;
  }
}

TEST(ArenaAllocTest, RepeatedMwGreedyComponentSolveAllocatesItsPrograms) {
  // The streaming service's solve: lent network, pinned schedule.
  const fl::Instance inst = stream_cell();
  core::MwParams params;
  const core::MwSchedule schedule = core::derive_schedule_from_bounds(
      core::InstanceBounds::of(inst), params);
  params.pinned_schedule = &schedule;
  const auto programs =
      static_cast<std::uint64_t>(inst.num_facilities() + inst.num_clients());
  for (const int threads : {1, 2}) {
    net::Network net;
    params.network = &net;
    params.num_threads = threads;
    const double cost = core::run_mw_greedy(inst, params).solution.cost(inst);
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
    const std::uint64_t allocations =
        g_news.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(out.solution.cost(inst), cost);
    // One object per node program, plus per solve: the returned
    // solution's two vectors, the two typed program tables the readout
    // walks and the two columns of facility edge state.
    EXPECT_EQ(allocations, programs + 6) << "threads=" << threads;
  }
}

TEST(ArenaAllocTest, CountingShimIsLive) {
  // Guards the audit itself: if the shim ever stops intercepting the
  // global allocator, the steady-state expectations above would pass
  // vacuously.
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  auto* p = new std::uint64_t(42);
  EXPECT_GT(g_news.load(std::memory_order_relaxed), before);
  delete p;
}

}  // namespace
}  // namespace dflp
