// Unit tests for the CONGEST simulator: delivery semantics, budget
// enforcement, determinism, metrics, fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "core/frac_lp.h"
#include "core/mw_greedy.h"
#include "core/params.h"
#include "core/rand_round.h"
#include "netsim/message.h"
#include "netsim/network.h"
#include "netsim/trace.h"
#include "service/streaming_solver.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace dflp::net {
namespace {

/// Process programmable with small lambdas per round.
class Script final : public Process {
 public:
  using Fn = std::function<void(NodeContext&, std::span<const Message>)>;
  explicit Script(Fn fn) : fn_(std::move(fn)) {}
  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    fn_(ctx, inbox);
  }

 private:
  Fn fn_;
};

/// Installs a no-op halting process everywhere not already set.
void fill_idle(Network& net, const std::vector<NodeId>& skip = {}) {
  for (NodeId v = 0; v < static_cast<NodeId>(net.num_nodes()); ++v) {
    if (std::find(skip.begin(), skip.end(), v) != skip.end()) continue;
    net.set_process(v, std::make_unique<Script>(
                           [](NodeContext& ctx, auto) { ctx.halt(); }));
  }
}

Network::Options opts() {
  Network::Options o;
  o.bit_budget = 64;
  o.seed = 1;
  return o;
}

TEST(Message, BitsForValue) {
  EXPECT_EQ(bits_for_value(0), 1);
  EXPECT_EQ(bits_for_value(1), 2);   // magnitude + sign
  EXPECT_EQ(bits_for_value(-1), 2);  // sign-magnitude: |-1| needs 1 bit
  EXPECT_EQ(bits_for_value(255), 9);
  EXPECT_EQ(bits_for_value(256), 10);
}

TEST(Message, MinMessageBits) {
  Message m;
  EXPECT_EQ(min_message_bits(m), 8);  // opcode only
  m.field = {255, 0, 0};
  EXPECT_EQ(min_message_bits(m), 17);
}

TEST(Message, BitsForValueExtremes) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Sign-magnitude: INT64_MAX needs 63 magnitude bits + sign; INT64_MIN's
  // magnitude 2^63 needs one more.
  EXPECT_EQ(bits_for_value(kMax), 64);
  EXPECT_EQ(bits_for_value(kMin), 65);
  EXPECT_EQ(bits_for_value(kMin + 1), 64);  // magnitude 2^63 - 1
  // Powers of two straddle a magnitude-bit boundary.
  EXPECT_EQ(bits_for_value((std::int64_t{1} << 62) - 1), 63);
  EXPECT_EQ(bits_for_value(std::int64_t{1} << 62), 64);
  EXPECT_EQ(bits_for_value(-(std::int64_t{1} << 62)), 64);
}

TEST(Message, MinMessageBitsAllZeroFieldsIsOpcodeOnly) {
  // Zero payload words are free: the honest size never drops below the
  // 8-bit opcode, and all-zero fields add nothing on top of it.
  Message m;
  m.field = {0, 0, 0};
  EXPECT_EQ(min_message_bits(m), 8);
  m.kind = 0xFF;  // opcode value does not change the size
  EXPECT_EQ(min_message_bits(m), 8);
  // Extreme payloads still fit the declared-size arithmetic: three
  // INT64_MIN words cost 8 + 3 * 65 bits.
  m.field = {std::numeric_limits<std::int64_t>::min(),
             std::numeric_limits<std::int64_t>::min(),
             std::numeric_limits<std::int64_t>::min()};
  EXPECT_EQ(min_message_bits(m), 8 + 3 * 65);
}

TEST(Network, TopologyValidation) {
  Network net(3, opts());
  EXPECT_THROW(net.add_edge(0, 0), CheckError);   // self loop
  EXPECT_THROW(net.add_edge(0, 3), CheckError);   // out of range
  EXPECT_THROW(net.add_edge(-1, 1), CheckError);  // negative
  net.add_edge(0, 1);
  net.add_edge(0, 1);  // duplicate detected at finalize
  EXPECT_THROW(net.finalize(), CheckError);
}

TEST(Network, NeighborsAreSortedBothDirections) {
  Network net(4, opts());
  net.add_edge(2, 0);
  net.add_edge(2, 3);
  net.add_edge(1, 2);
  net.finalize();
  const auto nbrs = net.neighbors_of(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 3);
  EXPECT_EQ(net.neighbors_of(0).size(), 1u);
  EXPECT_EQ(net.num_edges(), 3u);
}

TEST(Network, MessageDeliveredNextRoundIntact) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  std::vector<Message> got;
  net.set_process(0, std::make_unique<Script>(
                         [](NodeContext& ctx, auto) {
                           if (ctx.round() == 0)
                             ctx.send(1, /*kind=*/7, {11, -22, 33});
                           ctx.halt();
                         }));
  net.set_process(1, std::make_unique<Script>(
                         [&](NodeContext& ctx, std::span<const Message> in) {
                           for (const auto& m : in) got.push_back(m);
                           if (ctx.round() >= 1) ctx.halt();
                         }));
  net.run(10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].dst, 1);
  EXPECT_EQ(got[0].kind, 7);
  EXPECT_EQ(got[0].field[0], 11);
  EXPECT_EQ(got[0].field[1], -22);
  EXPECT_EQ(got[0].field[2], 33);
}

TEST(Network, SendToNonNeighborThrows) {
  Network net(3, opts());
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(2, 1);  // not a neighbour
  }));
  fill_idle(net, {0});
  EXPECT_THROW(net.run(2), CheckError);
}

TEST(Network, BitBudgetEnforced) {
  auto o = opts();
  o.bit_budget = 16;
  Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(1, 1, {1 << 20, 0, 0});  // ~21 payload bits + opcode > 16
  }));
  fill_idle(net, {0});
  EXPECT_THROW(net.run(2), CheckError);
}

TEST(Network, UnderDeclaredBitsRejectedPaddingAllowed) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.send(1, 1, {255, 0, 0}, /*bits=*/60);  // pad ok
    ctx.halt();
  }));
  fill_idle(net, {0});
  const NetMetrics m = net.run(5);
  EXPECT_EQ(m.max_message_bits, 60);

  Network net2(2, opts());
  net2.add_edge(0, 1);
  net2.finalize();
  net2.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(1, 1, {255, 0, 0}, /*bits=*/10);  // honest size is 17
  }));
  fill_idle(net2, {0});
  EXPECT_THROW(net2.run(2), CheckError);
}

TEST(Network, CongestEdgeAllowanceIsOnePerRound) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(1, 1);
    ctx.send(1, 2);  // second message on the same edge, same round
  }));
  fill_idle(net, {0});
  EXPECT_THROW(net.run(2), CheckError);
}

TEST(Network, RaisedEdgeAllowanceWorks) {
  auto o = opts();
  o.max_msgs_per_edge_per_round = 2;
  Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) {
      ctx.send(1, 1);
      ctx.send(1, 2);
    }
    ctx.halt();
  }));
  fill_idle(net, {0});
  const NetMetrics m = net.run(5);
  EXPECT_EQ(m.messages, 2u);
}

TEST(Network, QuiescenceStopsRun) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  fill_idle(net);
  const NetMetrics m = net.run(100);
  EXPECT_EQ(m.rounds, 1u);  // one round to let everyone halt
  EXPECT_TRUE(net.all_halted());
}

TEST(Network, MaxRoundsCapsExecution) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  // Ping-pong forever.
  for (NodeId v : {0, 1}) {
    net.set_process(v, std::make_unique<Script>(
                           [](NodeContext& ctx, auto) {
                             ctx.send(ctx.neighbors()[0], 1);
                           }));
  }
  const NetMetrics m = net.run(25);
  EXPECT_EQ(m.rounds, 25u);
  EXPECT_FALSE(net.all_halted());
}

TEST(Network, MetricsCountMessagesAndBits) {
  Network net(3, opts());
  net.add_edge(0, 1);
  net.add_edge(0, 2);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.broadcast(1, {3, 0, 0});  // 8+3 = 11 bits
    ctx.halt();
  }));
  fill_idle(net, {0});
  const NetMetrics m = net.run(5);
  EXPECT_EQ(m.messages, 2u);
  EXPECT_EQ(m.total_bits, 22u);
  EXPECT_EQ(m.max_message_bits, 11);
  EXPECT_EQ(m.max_messages_in_round, 2u);
}

TEST(Network, DeliveryOrderBySource) {
  auto run_with = [](DeliveryOrder order) {
    auto o = opts();
    o.delivery = order;
    Network net(4, o);
    net.add_edge(3, 0);
    net.add_edge(3, 1);
    net.add_edge(3, 2);
    net.finalize();
    for (NodeId v : {0, 1, 2}) {
      net.set_process(v, std::make_unique<Script>(
                             [](NodeContext& ctx, auto) {
                               if (ctx.round() == 0) ctx.send(3, 1);
                               ctx.halt();
                             }));
    }
    std::vector<NodeId> sources;
    net.set_process(3, std::make_unique<Script>(
                           [&sources](NodeContext& ctx,
                                      std::span<const Message> in) {
                             for (const auto& m : in)
                               sources.push_back(m.src);
                             if (ctx.round() >= 1) ctx.halt();
                           }));
    net.run(5);
    return sources;
  };
  EXPECT_EQ(run_with(DeliveryOrder::kBySource),
            (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(run_with(DeliveryOrder::kReverseSource),
            (std::vector<NodeId>{2, 1, 0}));
  // Random shuffle: deterministic per seed; must be a permutation.
  auto shuffled = run_with(DeliveryOrder::kRandomShuffle);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Network, PerNodeRngIsDeterministicAcrossRuns) {
  auto draw = []() {
    Network net(2, opts());
    net.add_edge(0, 1);
    net.finalize();
    std::uint64_t value = 0;
    net.set_process(0, std::make_unique<Script>(
                           [&value](NodeContext& ctx, auto) {
                             value = ctx.rng()();
                             ctx.halt();
                           }));
    fill_idle(net, {0});
    net.run(3);
    return value;
  };
  EXPECT_EQ(draw(), draw());
}

TEST(Network, DropProbabilityOneDropsEverything) {
  auto o = opts();
  o.faults.drop_probability = 1.0;
  Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();
  std::size_t received = 0;
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.send(1, 1);
    ctx.halt();
  }));
  net.set_process(1, std::make_unique<Script>(
                         [&received](NodeContext& ctx,
                                     std::span<const Message> in) {
                           received += in.size();
                           if (ctx.round() >= 2) ctx.halt();
                         }));
  const NetMetrics m = net.run(10);
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(m.messages, 0u);
  EXPECT_EQ(m.dropped, 1u);
}

TEST(Network, ResumedRunAccumulatesCumulativeMetrics) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  int hops = 0;
  for (NodeId v : {0, 1}) {
    net.set_process(v, std::make_unique<Script>(
                           [&hops, v](NodeContext& ctx,
                                      std::span<const Message> in) {
                             if (v == 0 && ctx.round() == 0) ctx.send(1, 1);
                             for (const auto& m : in) {
                               (void)m;
                               ++hops;
                               if (hops < 6) ctx.send(ctx.neighbors()[0], 1);
                             }
                           }));
  }
  const NetMetrics first = net.run(3);
  const NetMetrics second = net.run(3);
  EXPECT_EQ(net.cumulative_metrics().rounds, first.rounds + second.rounds);
  EXPECT_EQ(net.cumulative_metrics().messages,
            first.messages + second.messages);
}

TEST(Network, CongestBudgetGrowsLogarithmically) {
  const int small = congest_bit_budget(16);
  const int large = congest_bit_budget(1 << 20);
  EXPECT_GT(large, small);
  EXPECT_LT(large, 4 * small);  // log growth, not linear
  EXPECT_GE(small, 16);
}

TEST(Network, CongestBudgetMonotoneInNetworkSize) {
  // The canonical budget must never shrink as the network grows — a
  // protocol tuned on a small instance stays legal on a larger one.
  int prev = congest_bit_budget(1);
  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{15},
                        std::size_t{16}, std::size_t{17}, std::size_t{1000},
                        std::size_t{1} << 16, std::size_t{1} << 20,
                        std::size_t{1} << 30}) {
    const int budget = congest_bit_budget(n);
    EXPECT_GE(budget, prev) << "budget shrank at n=" << n;
    // Any node id fits in a single payload word under the budget.
    Message probe;
    probe.field = {static_cast<std::int64_t>(n - 1), 0, 0};
    EXPECT_LE(min_message_bits(probe), budget) << "n=" << n;
    prev = budget;
  }
}

TEST(Network, HaltedNodeInboxDiscardedAndNotStepped) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  int steps_after_halt = 0;
  net.set_process(0, std::make_unique<Script>(
                         [&](NodeContext& ctx, auto) {
                           if (ctx.round() > 0) ++steps_after_halt;
                           ctx.halt();
                         }));
  net.set_process(1, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() < 3) ctx.send(0, 1);  // keep sending to the halted node
    else ctx.halt();
  }));
  net.run(10);
  EXPECT_EQ(steps_after_halt, 0);
}

// Resume contract (network.h "Resume semantics"): run() always returns at a
// round boundary with every staged send committed, so splitting an
// execution across multiple run() calls is invisible to the protocol —
// even when shuffles, drops and node coins span the split point, because
// every random stream is a function of (seed, node, round), never of how
// the rounds were batched into run() calls.
TEST(Network, SplitRunBitIdenticalToSingleRun) {
  const auto run_split =
      [](const std::vector<std::uint64_t>& chunks) -> std::string {
    Network::Options o;
    o.bit_budget = 64;
    o.seed = 42;
    o.delivery = DeliveryOrder::kRandomShuffle;
    o.faults.drop_probability = 0.25;
    constexpr NodeId kN = 6;
    Network net(kN, o);
    for (NodeId v = 0; v < kN; ++v) net.add_edge(v, (v + 1) % kN);
    net.finalize();
    auto log = std::make_shared<std::ostringstream>();
    for (NodeId v = 0; v < kN; ++v) {
      net.set_process(
          v, std::make_unique<Script>(
                 [log, v](NodeContext& ctx, std::span<const Message> in) {
                   *log << v << '@' << ctx.round() << ':';
                   for (const Message& m : in) *log << m.src << ',';
                   if (ctx.round() >= 14) {
                     ctx.halt();
                     return;
                   }
                   // Coin-flip target and payload: pins the per-node coin
                   // streams across the split as well.
                   const auto& nbrs = ctx.neighbors();
                   const std::size_t pick = ctx.rng().bernoulli(0.5) ? 1 : 0;
                   const auto payload = static_cast<std::int64_t>(
                       ctx.rng().uniform_u64(128));
                   ctx.send(nbrs[pick], 1, {payload, 0, 0});
                 }));
    }
    NetMetrics total;
    for (std::uint64_t c : chunks) {
      const NetMetrics part = net.run(c);
      total.rounds += part.rounds;
      total.messages += part.messages;
      total.total_bits += part.total_bits;
      total.dropped += part.dropped;
    }
    std::ostringstream os;
    os << log->str() << " | " << total.rounds << '/' << total.messages << '/'
       << total.total_bits << '/' << total.dropped;
    return os.str();
  };

  const std::string whole = run_split({100});
  EXPECT_EQ(run_split({4, 100}), whole);
  EXPECT_EQ(run_split({1, 1, 1, 100}), whole);
  EXPECT_EQ(run_split({7, 2, 100}), whole);
}

// Commit-cost contract (network.h): each round the transport does work
// proportional to the live nodes plus the destinations that actually
// received traffic — never to the total node count. On a star where every
// leaf halts immediately, 50 further hub-only rounds must cost ~2 touches
// per round, not ~N.
TEST(Network, MostlyHaltedNetworkCommitsInLivePlusMessageWork) {
  constexpr NodeId kLeaves = 999;
  Network net(kLeaves + 1, opts());
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) net.add_edge(0, leaf);
  net.finalize();
  net.set_process(0, std::make_unique<Script>(
                         [](NodeContext& ctx, auto) {
                           if (ctx.round() >= 50) {
                             ctx.halt();
                             return;
                           }
                           // Keep one destination warm so the message term
                           // of the bound is exercised too.
                           ctx.send(1, /*kind=*/1);
                         }));
  fill_idle(net, {0});

  EXPECT_FALSE(net.all_halted());
  const NetMetrics m = net.run(1000);

  EXPECT_EQ(m.rounds, 51u);  // 50 hub rounds + the round every leaf halted
  EXPECT_TRUE(net.all_halted());
  EXPECT_EQ(net.live_node_count(), 0u);
  EXPECT_EQ(net.inflight_messages(), 0u);
  // Round 0 tallies all 1000 live nodes; afterwards each round touches the
  // hub plus the single warm destination. A transport that scanned every
  // node per round would register >= 51000 touches.
  EXPECT_GE(net.transport_touches(), 1000u);
  EXPECT_LE(net.transport_touches(), 1500u);
  // Quiescence is observable without re-running: a further run() exits at
  // the first round boundary.
  EXPECT_EQ(net.run(10).rounds, 0u);
}

// --- Idle fast-forward (network.h) ----------------------------------------

/// Toy protocol for the idle fast-forward tests. Node v acts in every
/// positive multiple of its period: it draws two coins (pinning the rng
/// streams) and sends the payload one coin picks to the neighbour the
/// other picks. Every node logs what it receives and halts at its halt
/// round. With `promise` a node calls idle_until with its next action
/// round, which is exactly when an empty-inbox step stops being a no-op;
/// the twin without it is stepped in every round. Logs are per node, so
/// multi-threaded steps never share one.
class Sleeper final : public Process {
 public:
  Sleeper(std::uint64_t period, std::uint64_t halt_round, bool promise)
      : period_(period), halt_round_(halt_round), promise_(promise) {}

  [[nodiscard]] std::string log() const { return log_.str(); }

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    const std::uint64_t r = ctx.round();
    for (const Message& m : inbox)
      log_ << ctx.self() << '@' << r << '<' << m.src << ':' << m.field[0]
           << ' ';
    if (r >= halt_round_) {
      ctx.halt();
      return;
    }
    if (r > 0 && r % period_ == 0) {
      ctx.annotate("send");
      const std::span<const NodeId> nbrs = ctx.neighbors();
      const NodeId to = nbrs[ctx.rng().uniform_u64(nbrs.size())];
      ctx.send(to, 1,
               {static_cast<std::int64_t>(ctx.rng().uniform_u64(100)), 0, 0});
    }
    if (promise_)
      ctx.idle_until(std::min(halt_round_, (r / period_ + 1) * period_));
  }

 private:
  std::uint64_t period_;
  std::uint64_t halt_round_;
  bool promise_;
  std::ostringstream log_;
};

struct ToyRun {
  std::string log;
  NetMetrics metrics;
};

struct ToyConfig {
  bool promise = true;
  int threads = 1;
  std::vector<std::uint64_t> chunks = {1000};  ///< run() calls in order
  std::vector<CrashEvent> crashes;
  Tracer* tracer = nullptr;
};

/// An 8-node ring of Sleepers with periods 7, 10, ..., 28; node 5 halts
/// at round 30, the rest at 60. Rounds 1-6 and every later round that is
/// neither an action round nor a delivery round are idle.
ToyRun run_toy(const ToyConfig& config) {
  Network::Options o = opts();
  o.num_threads = config.threads;
  o.faults.crashes = config.crashes;
  o.tracer = config.tracer;
  constexpr NodeId kN = 8;
  Network net(kN, o);
  for (NodeId v = 0; v < kN; ++v) net.add_edge(v, (v + 1) % kN);
  net.finalize();
  std::vector<const Sleeper*> nodes;
  for (NodeId v = 0; v < kN; ++v) {
    auto node = std::make_unique<Sleeper>(static_cast<std::uint64_t>(7 + 3 * v),
                                          v == 5 ? 30 : 60, config.promise);
    nodes.push_back(node.get());
    net.set_process(v, std::move(node));
  }
  ToyRun out;
  for (const std::uint64_t c : config.chunks) out.metrics.merge(net.run(c));
  for (const Sleeper* node : nodes) out.log += node->log() + '|';
  return out;
}

/// Every NetMetrics field the protocol can observe (all but node_steps).
std::string observable(const NetMetrics& m) {
  std::ostringstream os;
  os << m.rounds << '/' << m.messages << '/' << m.total_bits << '/'
     << m.max_message_bits << '/' << m.max_messages_in_round << '/'
     << m.dropped << '/' << m.crashed << '/' << m.arena_peak_messages << '/'
     << m.bytes_moved;
  return os.str();
}

/// The tracer's records as JSONL with the wall timings zeroed; every
/// counter, phase and shard range is kept.
std::string untimed_jsonl(const Tracer& tracer) {
  ParsedTrace trace;
  trace.version = kTraceSchemaVersion;
  trace.sections = tracer.sections();
  trace.rounds = tracer.rounds();
  for (TraceRound& r : trace.rounds) {
    r.step_s = r.commit_s = r.scatter_s = 0.0;
    for (TraceShard& shard : r.shards) shard.dur_s = 0.0;
  }
  std::ostringstream os;
  write_trace_jsonl(trace, os);
  return os.str();
}

/// The tracer's JSONL through the `trace_check --normalize` path.
std::string normalized_jsonl(const Tracer& tracer) {
  std::ostringstream raw;
  tracer.write_jsonl(raw);
  std::istringstream in(raw.str());
  ParsedTrace trace = read_trace_jsonl(in);
  normalize_trace(&trace);
  std::ostringstream os;
  write_trace_jsonl(trace, os);
  return os.str();
}

std::uint64_t summed_live(const Tracer& tracer) {
  std::uint64_t live = 0;
  for (const TraceRound& r : tracer.rounds()) live += r.live;
  return live;
}

TEST(Network, IdleFastForwardKeepsRoundsAndCutsSteps) {
  const ToyRun fast = run_toy(ToyConfig{});
  ToyConfig twin_config;
  twin_config.promise = false;
  const ToyRun twin = run_toy(twin_config);
  EXPECT_EQ(fast.log, twin.log);
  EXPECT_FALSE(fast.log.empty());
  EXPECT_EQ(observable(fast.metrics), observable(twin.metrics));
  EXPECT_EQ(fast.metrics.rounds, 61u);  // rounds 0..60, the last halts all
  EXPECT_LT(fast.metrics.node_steps, twin.metrics.node_steps);
  // Round 0 steps all 8 nodes, and every node is stepped in round 60.
  EXPECT_GE(fast.metrics.node_steps, 16u);
}

TEST(Network, IdleFastForwardTracesMatchSteppedIdleRounds) {
  for (const int threads : {1, 4}) {
    Tracer fast_trace(/*capture_phases=*/true);
    Tracer twin_trace(/*capture_phases=*/true);
    ToyConfig config;
    config.threads = threads;
    config.tracer = &fast_trace;
    const ToyRun fast = run_toy(config);
    config.promise = false;
    config.tracer = &twin_trace;
    const ToyRun twin = run_toy(config);
    ASSERT_EQ(fast_trace.rounds().size(), fast.metrics.rounds);
    EXPECT_EQ(untimed_jsonl(fast_trace), untimed_jsonl(twin_trace))
        << "threads=" << threads;
    EXPECT_EQ(normalized_jsonl(fast_trace), normalized_jsonl(twin_trace));
    // The twin steps every traced node; the fast run skips idle ones.
    EXPECT_EQ(twin.metrics.node_steps, summed_live(twin_trace));
    EXPECT_LT(fast.metrics.node_steps, summed_live(fast_trace));
  }
}

TEST(Network, IdleFastForwardResumesAcrossRunCalls) {
  Tracer whole_trace;
  ToyConfig config;
  config.tracer = &whole_trace;
  const ToyRun whole = run_toy(config);
  // 7 ends exactly at the first wake round; 2, 1+1+1 and 12 end inside
  // idle windows, 12+11 straddles two.
  for (const std::vector<std::uint64_t>& chunks :
       std::vector<std::vector<std::uint64_t>>{
           {7, 1000}, {2, 1000}, {1, 1, 1, 1000}, {12, 11, 1000}}) {
    Tracer split_trace;
    config.chunks = chunks;
    config.tracer = &split_trace;
    const ToyRun split = run_toy(config);
    EXPECT_EQ(split.log, whole.log);
    EXPECT_EQ(observable(split.metrics), observable(whole.metrics));
    EXPECT_EQ(split.metrics.node_steps, whole.metrics.node_steps);
    EXPECT_EQ(untimed_jsonl(split_trace), untimed_jsonl(whole_trace));
  }
}

TEST(Network, IdleFastForwardFiresCrashInsideSkippedWindow) {
  // Nobody acts before round 7, so rounds 1-6 are one idle window; the
  // crash of node 2 at round 3 must still land in round 3.
  Tracer fast_trace;
  Tracer twin_trace;
  ToyConfig config;
  config.crashes = {{2, 3}};
  config.tracer = &fast_trace;
  const ToyRun fast = run_toy(config);
  config.promise = false;
  config.tracer = &twin_trace;
  const ToyRun twin = run_toy(config);
  EXPECT_EQ(fast.metrics.crashed, 1u);
  EXPECT_EQ(fast.log, twin.log);
  EXPECT_EQ(observable(fast.metrics), observable(twin.metrics));
  EXPECT_EQ(untimed_jsonl(fast_trace), untimed_jsonl(twin_trace));
  EXPECT_LT(fast.metrics.node_steps, twin.metrics.node_steps);
  const std::vector<TraceRound>& rounds = fast_trace.rounds();
  ASSERT_GT(rounds.size(), 4u);
  EXPECT_EQ(rounds[2].live, 8u);
  EXPECT_EQ(rounds[2].crashed, 0u);
  EXPECT_EQ(rounds[3].live, 7u);
  EXPECT_EQ(rounds[3].crashed, 1u);
  EXPECT_EQ(rounds[4].crashed, 0u);
}

TEST(Network, IdleFastForwardIsThreadCountInvariant) {
  ToyConfig config;
  const ToyRun one = run_toy(config);
  config.threads = 4;
  const ToyRun four = run_toy(config);
  EXPECT_EQ(four.log, one.log);
  EXPECT_EQ(observable(four.metrics), observable(one.metrics));
  EXPECT_EQ(four.metrics.node_steps, one.metrics.node_steps);
}

// mw-greedy's wake rule on the component networks of the streaming
// benchmark: one 4-facility cell with 11 clients under the schedule the
// service pins for a 2000-cell stream of 200 000 events. The long rung
// ladder leaves most rounds with nothing in flight.
TEST(Network, IdleFastForwardCutsMwGreedyStepsOnAStreamCell) {
  workload::StreamParams cell;
  cell.num_cells = 1;
  cell.initial_clients = 11;
  const fl::Instance inst =
      workload::ClientStream(cell, 1).initial_snapshot().instance();
  ASSERT_EQ(inst.num_facilities(), 4);
  ASSERT_EQ(inst.num_clients(), 11);
  workload::StreamParams service = cell;
  service.num_cells = 2000;
  service.initial_clients = 20000;
  core::MwParams params;
  params.k = 4;
  const core::MwSchedule schedule = core::derive_schedule_from_bounds(
      service::stream_bounds(service, 200000), params);
  params.pinned_schedule = &schedule;

  Tracer greedy_trace;
  params.tracer = &greedy_trace;
  const core::MwGreedyOutcome greedy = core::run_mw_greedy(inst, params);
  EXPECT_EQ(greedy.metrics.rounds, greedy_trace.rounds().size());
  EXPECT_GT(greedy.metrics.node_steps, 0u);
  EXPECT_LE(4 * greedy.metrics.node_steps, summed_live(greedy_trace));

  // Programs that make no promise are stepped in every traced round: the
  // frac-LP stage, and mw-greedy under the reliable channel, whose inner
  // promises stay in the channel's private buffer.
  Tracer frac_trace;
  params.tracer = &frac_trace;
  const core::FracOutcome frac = core::run_frac_lp(inst, params);
  EXPECT_EQ(frac.metrics.node_steps, summed_live(frac_trace));

  Tracer reliable_trace;
  params.tracer = &reliable_trace;
  params.reliable = true;
  const core::MwGreedyOutcome reliable = core::run_mw_greedy(inst, params);
  EXPECT_EQ(reliable.metrics.node_steps, summed_live(reliable_trace));
  EXPECT_EQ(reliable.solution.cost(inst), greedy.solution.cost(inst));
}

/// Every NetMetrics field, node_steps and the first-drop identity included.
std::string every_metric(const NetMetrics& m) {
  std::ostringstream os;
  os << observable(m) << '/' << m.duplicated << '/' << m.node_steps << '/'
     << m.first_drop_round << '/' << m.first_drop_src << '/'
     << m.first_drop_dst << '/' << static_cast<int>(m.first_drop_kind);
  return os.str();
}

std::string solution_key(const fl::Instance& inst,
                         const fl::IntegralSolution& sol) {
  std::ostringstream os;
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    os << (sol.is_open(i) ? '1' : '0');
  os << ':';
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    os << sol.assignment(j) << ',';
  return os.str();
}

/// mw-greedy, then frac-LP and rand-round, on `net` (nullptr: the runners'
/// own networks): solutions, metrics and untimed trace, or the CheckError
/// text of the first run that failed.
std::string solve_all(const fl::Instance& inst, core::MwParams params,
                      Network* net) {
  Tracer tracer(/*capture_phases=*/true);
  params.network = net;
  params.tracer = &tracer;
  std::string out;
  try {
    const core::MwGreedyOutcome greedy = core::run_mw_greedy(inst, params);
    out = solution_key(inst, greedy.solution) + ' ' +
          every_metric(greedy.metrics) + '\n';
    const core::FracOutcome frac = core::run_frac_lp(inst, params);
    const core::RoundOutcome rounded =
        core::run_rand_round(inst, frac.fractional, frac.schedule, params);
    out += every_metric(frac.metrics) + ' ' +
           solution_key(inst, rounded.solution) + ' ' +
           every_metric(rounded.metrics) + '\n';
  } catch (const CheckError& e) {
    out += std::string("CheckError: ") + e.what() + '\n';
  }
  return out + untimed_jsonl(tracer);
}

/// Three rounds of seeded broadcasts on an n-node clique armed on `net`:
/// every node logs what it hears, then the metrics.
std::string clique_run(Network& net, std::size_t n, Network::Options o) {
  Tracer tracer;
  o.topology = Topology::kClique;
  o.tracer = &tracer;
  net.reset(n, o);
  net.finalize();
  std::vector<std::string> logs(n);
  for (std::size_t v = 0; v < n; ++v) {
    net.set_process(
        static_cast<NodeId>(v),
        std::make_unique<Script>([&log = logs[v]](NodeContext& ctx,
                                                  std::span<const Message> in) {
          for (const Message& m : in)
            log += std::to_string(m.src) + ':' + std::to_string(m.field[0]) +
                   ',';
          if (ctx.round() == 3) {
            ctx.halt();
            return;
          }
          ctx.broadcast(1, {static_cast<std::int64_t>(
                                ctx.rng().uniform_u64(1000)),
                            0, 0});
        }));
  }
  std::string out = every_metric(net.run(100)) + '\n';
  for (const std::string& log : logs) out += log + '|';
  return out + '\n' + untimed_jsonl(tracer);
}

// One network re-armed across a sequence of bipartite instances that grow
// and shrink, with a clique in between, under every thread count, delivery
// order and fault mode: each run must equal the same run on fresh networks
// — metrics, solutions and trace records, or the CheckError text. Bare
// drops make runs throw, so re-arms after a failed run are covered too.
TEST(Network, RearmedMatchesFresh) {
  std::vector<fl::Instance> insts;
  for (const auto& [m, n] : std::vector<std::pair<int, int>>{
           {8, 30}, {20, 90}, {5, 12}, {14, 50}}) {
    workload::UniformParams u;
    u.num_facilities = m;
    u.num_clients = n;
    u.client_degree = 3;
    insts.push_back(workload::uniform_random(u, 7 + static_cast<unsigned>(m)));
  }
  Network lent;
  int threw = 0;
  int rearmed_after_throw = 0;
  bool last_threw = false;
  for (const int threads : {1, 2, 4}) {
    for (const DeliveryOrder delivery :
         {DeliveryOrder::kBySource, DeliveryOrder::kRandomShuffle,
          DeliveryOrder::kReverseSource}) {
      for (int mode = 0; mode < 4; ++mode) {
        core::MwParams params;
        params.k = 4;
        params.seed = 5;
        params.num_threads = threads;
        params.delivery = delivery;
        if (mode == 1 || mode == 2) params.faults.drop_probability = 0.15;
        if (mode == 2) params.reliable = true;
        if (mode == 3) params.faults.crashes = {{0, 6}, {3, 9}};
        const std::string where = "threads=" + std::to_string(threads) +
                                  " delivery=" +
                                  std::to_string(static_cast<int>(delivery)) +
                                  " mode=" + std::to_string(mode);
        for (std::size_t s = 0; s < insts.size(); ++s) {
          const std::string fresh = solve_all(insts[s], params, nullptr);
          if (last_threw) ++rearmed_after_throw;
          const std::string rearmed = solve_all(insts[s], params, &lent);
          EXPECT_EQ(rearmed, fresh) << where << " instance=" << s;
          last_threw = rearmed.find("CheckError") != std::string::npos;
          threw += last_threw ? 1 : 0;
          if (s != 1) continue;
          // A clique between the second and third explicit instances.
          Network::Options o;
          o.seed = 9;
          o.num_threads = threads;
          o.delivery = delivery;
          o.faults = params.faults;
          if (last_threw) ++rearmed_after_throw;
          Network fresh_net;
          EXPECT_EQ(clique_run(lent, 11, o), clique_run(fresh_net, 11, o))
              << where;
          last_threw = false;
        }
      }
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(rearmed_after_throw, 0);

  // A throw in the middle of round 0's step phase leaves its staging
  // unconsumed: every node before the last has staged a send to the
  // highest id. The re-armed, much smaller network must not see it.
  for (const int threads : {1, 2}) {
    Network::Options o = opts();
    o.num_threads = threads;
    constexpr NodeId kWide = 60;
    lent.reset(kWide, o);
    for (NodeId v = 0; v + 1 < kWide; ++v) lent.add_edge(v, kWide - 1);
    lent.finalize();
    for (NodeId v = 0; v < kWide; ++v) {
      lent.set_process(v, std::make_unique<Script>([](NodeContext& ctx,
                                                      auto) {
        DFLP_CHECK_MSG(ctx.self() + 1 < kWide, "the last node throws");
        ctx.send(kWide - 1, 1);
      }));
    }
    EXPECT_THROW(lent.run(10), CheckError);
    const auto path = [&](Network& net) {
      net.reset(4, o);
      for (NodeId v = 0; v + 1 < 4; ++v) net.add_edge(v, v + 1);
      net.finalize();
      for (NodeId v = 0; v < 4; ++v) {
        net.set_process(v, std::make_unique<Script>([](NodeContext& ctx,
                                                       auto) {
          if (ctx.round() == 2) ctx.halt();
          ctx.broadcast(1);
        }));
      }
      return every_metric(net.run(10));
    };
    Network fresh_net;
    EXPECT_EQ(path(lent), path(fresh_net)) << "threads=" << threads;
  }
}

TEST(Network, MetricsToStringMentionsCounts) {
  NetMetrics m;
  m.rounds = 3;
  m.messages = 14;
  const std::string s = m.to_string();
  EXPECT_NE(s.find("rounds=3"), std::string::npos);
  EXPECT_NE(s.find("messages=14"), std::string::npos);
}

}  // namespace
}  // namespace dflp::net
