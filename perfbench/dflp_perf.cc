// dflp_perf — the end-to-end benchmark program (one workload per process).
//
//   dflp_perf --workload NAME --seed N --seconds T --trace 0|1 --workdir DIR
//
// The solve workload times exactly what `dflp_cli solve` does, minus printing:
// read the v1 text written to DIR during set-up, compute the certified
// lower bound, run the distributed solver (plus the fault-free baseline
// when faults are on, for round dilation) and evaluate the solution. The
// stream workload drives a warm `service::StreamingSolver` through a fixed,
// pre-generated sequence of epochs. Every call into a layer's public
// function is timed from here, outside the program; with --trace 1 the
// in-memory `net::Tracer` is attached through `MwParams::tracer` as well,
// and traced operations alternate with untraced ones so the tracing
// overhead is measured in the same process.
//
// Every operation's output is checked (feasible, cost >= LB > 0, the same
// fingerprint on every repetition). The last stdout line is one JSON
// record; perfbench/run.py turns it into the benchmark result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/mw_greedy.h"
#include "fl/serialize.h"
#include "fl/solution.h"
#include "harness/runner.h"
#include "netsim/trace.h"
#include "service/streaming_solver.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace {

using namespace dflp;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Percentile p in [0, 1], interpolating linearly between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Tracing overhead: the median over pairs of (traced / untraced) time,
/// pairing each traced operation with the untraced one run just before it,
/// so a cold first operation or a slow stretch of the host falls on both.
double paired_overhead(const std::vector<double>& untraced,
                       const std::vector<double>& traced) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(untraced.size(), traced.size()); ++i)
    ratios.push_back(traced[i] / untraced[i]);
  return ratios.empty() ? 1.0 : median(ratios);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// FNV-1a over raw bytes: the stream fingerprint folds every epoch's
/// (cost, rounds, messages, solved, reused) into one value.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h = (h ^ c) * 1099511628211ULL;
  }
};

std::string exact(double x) {
  std::ostringstream os;
  os << std::setprecision(17) << x;
  return os.str();
}

/// Ordered (name, value) pairs printed as one JSON object.
using Fields = std::vector<std::pair<std::string, double>>;

void write_fields(std::ostream& os, const Fields& fields) {
  os << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    os << (i ? "," : "") << '"' << fields[i].first << "\":"
       << std::setprecision(12) << fields[i].second;
  }
  os << '}';
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

/// Per-layer metrics of a traced run (README.md has the metric -> layer ->
/// workload table). Layers a workload does not run keep their neutral
/// values: 0 for times and counts, 1 for the ratios.
struct Ledger {
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double throughput_per_s = 0.0;
  double trace_overhead = 1.0;
  double traced_latency_ms = 0.0;
  double input_mb = 0.0;
  double parse_s = 0.0;
  double lower_bound_s = 0.0;
  double mw_greedy_s = 0.0;
  double runner_self_s = 0.0;
  double networks_built = 0.0;
  double step_s = 0.0;
  double commit_s = 0.0;
  double scatter_s = 0.0;
  double node_steps = 0.0;
  double idle_rounds = 0.0;
  double bytes_moved = 0.0;
  double arena_peak = 0.0;
  double shard_imbalance = 1.0;
  double dropped = 0.0;
  double retransmits = 0.0;
  double reliable_goodput = 1.0;
  double round_dilation = 1.0;
  double ingest_ms = 0.0;
  double apply_ms = 0.0;
  double solve_ms = 0.0;
  double solved_components = 0.0;
  double reuse_ratio = 0.0;
  double evaluate_s = 0.0;
  double unspanned_s = 0.0;

  [[nodiscard]] Fields fields() const {
    return {
        {"latency_p50_ms", latency_p50_ms},
        {"latency_p90_ms", latency_p90_ms},
        {"throughput_per_s", throughput_per_s},
        {"trace_overhead", trace_overhead},
        {"traced_latency_ms", traced_latency_ms},
        {"fl.input_mb", input_mb},
        {"fl.parse_s", parse_s},
        {"fl.parse_mb_per_s", parse_s > 0.0 ? input_mb / parse_s : 0.0},
        {"lp.lower_bound_s", lower_bound_s},
        {"core.mw_greedy_s", mw_greedy_s},
        {"core.runner_self_s", runner_self_s},
        {"core.networks_built", networks_built},
        {"netsim.step_s", step_s},
        {"netsim.commit_s", commit_s},
        {"netsim.scatter_s", scatter_s},
        {"netsim.node_steps", node_steps},
        {"netsim.idle_rounds", idle_rounds},
        {"netsim.bytes_moved", bytes_moved},
        {"netsim.arena_peak", arena_peak},
        {"netsim.shard_imbalance", shard_imbalance},
        {"netsim.dropped", dropped},
        {"netsim.retransmits", retransmits},
        {"netsim.reliable_goodput", reliable_goodput},
        {"netsim.round_dilation", round_dilation},
        {"service.ingest_ms", ingest_ms},
        {"service.apply_ms", apply_ms},
        {"service.solve_ms", solve_ms},
        {"service.solved_components", solved_components},
        {"service.reuse_ratio", reuse_ratio},
        {"fl.evaluate_s", evaluate_s},
        {"unspanned_s", unspanned_s},
    };
  }
};

/// What one process reports; run.py maps it onto BENCHMARK.json.
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  int threads = 1;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::string fingerprint;
  std::string trace_counters;  ///< counters only a traced run observes
  std::int64_t samples = 0;  ///< timed operations behind the latencies
  Fields end_to_end;
  Ledger ledger;  ///< printed only for traced runs

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }

  void print(std::ostream& os) const {
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"trace\":" << (traced ? 1 : 0) << ",\"threads\":" << threads
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"samples\":" << samples << ",\"fingerprint\":\""
       << json_escape(fingerprint) << "\",\"trace_counters\":\""
       << json_escape(trace_counters) << "\",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
      os << (i ? "," : "") << '"' << json_escape(failures[i]) << '"';
    os << "],\"stamp\":{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"build_type\":\"" << DFLP_PERF_BUILD_TYPE
       << "\",\"compiler\":\"" << json_escape(__VERSION__)
       << "\"},\"end_to_end\":";
    write_fields(os, end_to_end);
    os << ",\"per_layer\":";
    write_fields(os, traced ? ledger.fields() : Fields{});
    os << "}\n";
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Solve workloads.

struct SolveSpec {
  const char* name;
  workload::Family family;
  std::int32_t size;  ///< clients; facilities are size / 5
  int threads;
  double drop;  ///< i.i.d. loss; nonzero runs under the reliable channel
};

// Why each workload exists: perfbench/README.md.
constexpr SolveSpec kSolveSpecs[] = {
    {"lossy-reliable", workload::Family::kUniform, 500, 2, 0.05},
};

/// setup_s is the median of a run's set-ups: kSetupReps before the first
/// timed operation, then more spread over the whole run (one per
/// kSetupTicks-th of it on a solve workload, kSetupReps at every pass start
/// on the stream), so the median samples the host's speed across the run
/// instead of during its first seconds only.
constexpr int kSetupReps = 3;
constexpr int kSetupTicks = 10;

/// Runs `setup` `reps` times, appending each one's time to `times`. What a
/// set-up returns is destroyed after its clock stops.
template <typename F>
void time_setups(F&& setup, int reps, std::vector<double>& times) {
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    const auto made = setup();
    times.push_back(since(t));
  }
}

constexpr int kMinOps = 3;  ///< timed operations per run, at least

/// The bounded latency is the 10th percentile of a run's untraced
/// operations. On a shared host other tenants slow stretches of seconds by
/// up to 2x and only ever add time, so a run's median and p90 follow the
/// host while its fast tail follows the program (README.md, "Noise").
/// Traced runs still report the median and p90, unbounded.
constexpr double kLatencyQuantile = 0.1;

/// Benchmark-side spans of one solve plus its deterministic outputs.
struct SolveSample {
  double op_s = 0.0;
  double parse_s = 0.0;
  double lb_s = 0.0;
  double mw_s = 0.0;  ///< mw-greedy, including the fault-free baseline
  double eval_s = 0.0;

  std::size_t edges = 0;
  double lb = 0.0;
  double cost = 0.0;
  bool feasible = false;
  net::NetMetrics net;  ///< of the faulty run, not the baseline
  net::ReliableStats transport;
  std::uint64_t baseline_rounds = 0;

  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream os;
    os << "cost=" << exact(cost) << " lb=" << exact(lb)
       << " rounds=" << net.rounds << " messages=" << net.messages
       << " bytes_moved=" << net.bytes_moved << " dropped=" << net.dropped
       << " retransmits=" << transport.retransmissions;
    return os.str();
  }
};

/// In-memory tracers of one traced solve. The fault-free baseline gets its
/// own: a Tracer merges consecutive runs with identical section facts into
/// one section, which would hide the baseline's network.
struct SolveTracers {
  net::Tracer run;
  net::Tracer baseline;
};

SolveSample timed_solve(const SolveSpec& spec, const std::string& path,
                        std::uint64_t seed, int threads,
                        SolveTracers* tracers) {
  SolveSample s;
  const auto t_op = Clock::now();
  std::ifstream in(path);
  DFLP_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  auto t = Clock::now();
  const fl::Instance inst = fl::read_instance(in);
  s.parse_s = since(t);
  s.edges = inst.num_edges();

  t = Clock::now();
  const harness::LowerBound lb = harness::compute_lower_bound(inst);
  s.lb_s = since(t);
  s.lb = lb.value;

  core::MwParams params;  // dflp_cli solve defaults: k=4, seed=1
  params.num_threads = threads;
  params.faults.drop_probability = spec.drop;
  params.faults.fault_seed = seed;
  params.reliable = spec.drop > 0.0;
  params.tracer = tracers != nullptr ? &tracers->run : nullptr;

  t = Clock::now();
  core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
  if (spec.drop > 0.0) {
    // dflp_cli's round-dilation baseline: same transport, no faults.
    core::MwParams clean = params;
    clean.faults = net::FaultPlan::Options{};
    clean.faults.fault_seed = params.faults.fault_seed;
    clean.tracer = tracers != nullptr ? &tracers->baseline : nullptr;
    s.baseline_rounds = core::run_mw_greedy(inst, clean).metrics.rounds;
  }
  s.mw_s = since(t);
  const fl::IntegralSolution sol = std::move(out.solution);
  s.net = out.metrics;
  s.transport = out.transport;

  t = Clock::now();
  s.feasible = sol.is_feasible(inst);
  s.cost = s.feasible ? sol.cost(inst) : 0.0;
  s.eval_s = since(t);
  s.op_s = since(t_op);
  return s;
}

/// Per-solve folds of the attached tracers' round records.
struct TraceFold {
  double step_s = 0.0;
  double commit_s = 0.0;
  double scatter_s = 0.0;
  double shard_max_s = 0.0;   ///< Σ over multi-shard rounds of the max shard
  double shard_mean_s = 0.0;  ///< Σ over the same rounds of the mean shard
  std::uint64_t node_steps = 0;
  std::uint64_t idle_rounds = 0;
  std::uint64_t networks = 0;

  explicit TraceFold(const SolveTracers& tracers) {
    add(tracers.run);
    add(tracers.baseline);
  }

  void add(const net::Tracer& tracer) {
    networks += tracer.sections().size();
    for (const net::TraceRound& r : tracer.rounds()) {
      step_s += r.step_s;
      commit_s += r.commit_s;
      scatter_s += r.scatter_s;
      node_steps += r.live;
      if (r.sent == 0) ++idle_rounds;
      if (r.shards.size() > 1) {
        double mx = 0.0;
        double sum = 0.0;
        for (const net::TraceShard& sh : r.shards) {
          mx = std::max(mx, sh.dur_s);
          sum += sh.dur_s;
        }
        shard_max_s += mx;
        shard_mean_s += sum / static_cast<double>(r.shards.size());
      }
    }
  }

  [[nodiscard]] std::string counters() const {
    std::ostringstream os;
    os << "networks=" << networks << " node_steps=" << node_steps
       << " idle_rounds=" << idle_rounds;
    return os.str();
  }
};

void run_solve(const SolveSpec& spec, std::uint64_t seed, double seconds,
               bool trace, const std::string& workdir, Record& rec) {
  const std::string path =
      workdir + "/" + spec.name + "-" + std::to_string(seed) + ".ufl";
  // Rewriting the file later in the run writes the same bytes: the
  // generator is deterministic in (family, size, seed).
  const auto setup = [&] {
    const fl::Instance inst =
        workload::make_family_instance(spec.family, spec.size, seed);
    std::ofstream out(path, std::ios::trunc);
    fl::write_instance(out, inst);
    out.close();
    DFLP_CHECK_MSG(out.good(), "cannot write '" << path << "'");
    return inst;
  };
  std::vector<double> setup_s;
  time_setups(setup, kSetupReps, setup_s);
  const double input_mb =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  std::cout << spec.name << ": " << input_mb << " MB of v1 text\n";

  std::vector<SolveSample> plain;
  std::vector<SolveSample> traced;
  std::vector<TraceFold> folds;
  std::string first_fp;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const auto tick = std::chrono::duration<double>(seconds / kSetupTicks);
  auto next_setup = start + tick;
  // Trace runs alternate untraced and traced solves so both see the same
  // host conditions.
  const int min_ops = trace ? 2 * kMinOps : kMinOps;
  for (int i = 0; i < min_ops || Clock::now() < deadline; ++i) {
    if (Clock::now() >= next_setup) {
      time_setups(setup, 1, setup_s);
      next_setup += tick;
    }
    const bool traced_op = trace && i % 2 == 1;
    ++rec.attempted;
    try {
      SolveTracers tracers;
      SolveSample s = timed_solve(spec, path, seed, rec.threads,
                                  traced_op ? &tracers : nullptr);
      // The first solve is untraced, so this also checks that attaching
      // the tracer changes no output or counter.
      const std::string fp = s.fingerprint();
      if (first_fp.empty()) first_fp = fp;
      if (!s.feasible) {
        rec.fail("infeasible solution");
      } else if (!(s.lb > 0.0) || s.cost < s.lb * (1.0 - 1e-9)) {
        rec.fail("cost " + exact(s.cost) + " below lower bound " +
                 exact(s.lb));
      } else if (fp != first_fp) {
        rec.fail("fingerprint changed between repetitions: " + fp);
      }
      if (traced_op) {
        const TraceFold& fold = folds.emplace_back(tracers);
        if (rec.trace_counters.empty()) rec.trace_counters = fold.counters();
        if (fold.counters() != rec.trace_counters)
          rec.fail("trace counters changed between repetitions: " +
                   fold.counters());
        traced.push_back(std::move(s));
      } else {
        plain.push_back(std::move(s));
      }
    } catch (const std::exception& e) {
      rec.fail(e.what());
    }
  }
  rec.fingerprint = first_fp;
  if (plain.empty()) return;

  const SolveSample& ref = plain.front();
  std::vector<double> op_ms;
  for (const SolveSample& s : plain) op_ms.push_back(1e3 * s.op_s);
  rec.samples = static_cast<std::int64_t>(op_ms.size());
  rec.end_to_end = {
      {"latency_p10_ms", percentile(op_ms, kLatencyQuantile)},
      {"setup_s", median(setup_s)},
      {"peak_rss_mb", peak_rss_mb()},
      {"cost_ratio", ref.cost / ref.lb},
      {"rounds", static_cast<double>(ref.net.rounds)},
      {"messages", static_cast<double>(ref.net.messages)},
  };
  std::cout << spec.name << ": set-up " << median(setup_s) << " s (median of "
            << setup_s.size() << ")\n";
  std::cout << spec.name << ": " << op_ms.size() << " untraced solves (ms:";
  for (double ms : op_ms) std::cout << ' ' << std::llround(ms);
  std::cout << "), p10 " << percentile(op_ms, kLatencyQuantile) << " ms, p50 "
            << median(op_ms) << " ms, p90 " << percentile(op_ms, 0.9)
            << " ms; " << ref.fingerprint() << "\n";
  if (!trace) return;

  // Traced metrics: layer self times are per-solve means over the traced
  // solves, so they add up to the traced solve time with the unspanned
  // remainder (file open, the benchmark's own loop) reported explicitly.
  // Counters come from the first traced solve; the loop checked that every
  // repetition repeats them exactly.
  if (traced.empty()) return;
  const auto avg = [&](double SolveSample::*f) {
    std::vector<double> v;
    for (const SolveSample& s : traced) v.push_back(s.*f);
    return mean(v);
  };
  const auto fold_avg = [&](double TraceFold::*f) {
    std::vector<double> v;
    for (const TraceFold& fo : folds) v.push_back(fo.*f);
    return mean(v);
  };
  const SolveSample& tr = traced.front();
  const TraceFold& fold = folds.front();
  const double op = avg(&SolveSample::op_s);
  std::vector<double> traced_ms;
  for (const SolveSample& s : traced) traced_ms.push_back(1e3 * s.op_s);
  const double first_frames = static_cast<double>(tr.transport.items_sent);
  const double all_frames =
      first_frames + static_cast<double>(tr.transport.retransmissions +
                                         tr.transport.ack_frames);
  const double shard_mean = fold_avg(&TraceFold::shard_mean_s);

  Ledger& l = rec.ledger;
  l.latency_p50_ms = median(op_ms);
  l.latency_p90_ms = percentile(op_ms, 0.9);
  l.throughput_per_s = 1e3 * static_cast<double>(ref.edges) / l.latency_p50_ms;
  l.trace_overhead = paired_overhead(op_ms, traced_ms);
  l.traced_latency_ms = median(traced_ms);
  l.input_mb = input_mb;
  l.parse_s = avg(&SolveSample::parse_s);
  l.lower_bound_s = avg(&SolveSample::lb_s);
  l.mw_greedy_s = avg(&SolveSample::mw_s);
  l.step_s = fold_avg(&TraceFold::step_s);
  l.commit_s = fold_avg(&TraceFold::commit_s);
  l.scatter_s = fold_avg(&TraceFold::scatter_s);
  l.runner_self_s = l.mw_greedy_s - l.step_s -
                    l.commit_s - l.scatter_s;
  l.networks_built = static_cast<double>(fold.networks);
  l.node_steps = static_cast<double>(fold.node_steps);
  l.idle_rounds = static_cast<double>(fold.idle_rounds);
  l.bytes_moved = static_cast<double>(tr.net.bytes_moved);
  l.arena_peak = static_cast<double>(tr.net.arena_peak_messages);
  if (shard_mean > 0.0)
    l.shard_imbalance = fold_avg(&TraceFold::shard_max_s) / shard_mean;
  l.dropped = static_cast<double>(tr.net.dropped);
  l.retransmits = static_cast<double>(tr.transport.retransmissions);
  if (all_frames > 0.0) l.reliable_goodput = first_frames / all_frames;
  if (tr.baseline_rounds > 0)
    l.round_dilation = static_cast<double>(tr.net.rounds) /
                       static_cast<double>(tr.baseline_rounds);
  l.evaluate_s = avg(&SolveSample::eval_s);
  l.unspanned_s = op - l.parse_s - l.lower_bound_s - l.mw_greedy_s -
                  l.evaluate_s;

  std::cout << spec.name << ": " << traced.size()
            << " traced solves, mean " << 1e3 * op << " ms; "
            << rec.trace_counters << "; layer shares:\n";
  const std::pair<const char*, double> shares[] = {
      {"fl parse", l.parse_s},
      {"lp lower bound", l.lower_bound_s},
      {"core runner self", l.runner_self_s},
      {"netsim step", l.step_s},
      {"netsim commit", l.commit_s},
      {"netsim scatter", l.scatter_s},
      {"fl evaluate", l.evaluate_s},
      {"unspanned", l.unspanned_s}};
  for (const auto& [layer, secs] : shares) {
    std::cout << "  " << std::left << std::setw(18) << layer << std::right
              << std::fixed << std::setprecision(4) << std::setw(9) << secs
              << " s " << std::setprecision(1) << std::setw(6)
              << 100.0 * secs / op << " %\n"
              << std::defaultfloat;
  }
}

// ---------------------------------------------------------------------------
// Stream workload.

constexpr std::int32_t kStreamCells = 2000;
constexpr std::int32_t kStreamInitial = 20000;
constexpr std::int32_t kEpochEvents = 2000;
/// Nearly balanced arrivals and departures (the generator needs > 0.5):
/// the population grows by about 10% over a pass, so every epoch of a pass
/// does about the same work and the epoch percentiles are not a mix of
/// small early and large late epochs.
constexpr double kArrivalFraction = 0.505;
/// Epochs per pass: fixed, so every pass replays the identical stream and
/// p90 always has at least ten samples beyond it.
constexpr int kEpochs = 100;
constexpr int kMinPasses = 2;

void run_stream(std::uint64_t seed, double seconds, bool trace,
                Record& rec) {
  workload::StreamParams sp;
  sp.num_cells = kStreamCells;
  sp.initial_clients = kStreamInitial;
  sp.arrival_fraction = kArrivalFraction;

  // Event generation is the benchmark's own work: done once, untimed.
  const auto t_gen = Clock::now();
  workload::ClientStream stream(sp, seed);
  std::vector<fl::DeltaLog> batches(kEpochs);
  for (fl::DeltaLog& b : batches) stream.fill_epoch(kEpochEvents, b);
  std::cout << "stream-cells: generated " << kEpochs << " x " << kEpochEvents
            << " events in " << since(t_gen) << " s (untimed)\n";

  service::StreamingOptions opt;
  opt.params.seed = seed;
  opt.params.num_threads = rec.threads;
  opt.bounds =
      service::stream_bounds(sp, static_cast<std::int64_t>(kEpochs) *
                                     kEpochEvents);

  // Set-up is construction, epoch-0 solve included. Each pass below
  // starts with kSetupReps more and then constructs its own solver, which
  // counts as one more set-up.
  const auto setup = [&] {
    return service::StreamingSolver(stream.initial_snapshot(), opt);
  };
  std::vector<double> setup_s;
  time_setups(setup, kSetupReps, setup_s);
  std::vector<double> epoch_ms;
  std::vector<double> traced_ms;
  std::vector<double> ingest_ms;
  std::vector<double> apply_ms;
  std::vector<double> solve_ms;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::int64_t solved = 0;
  std::int64_t reused = 0;
  double cost_ratio = 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  int pass = 0;
  for (; pass < kMinPasses || Clock::now() < deadline; ++pass) {
    if (pass > 0) time_setups(setup, kSetupReps, setup_s);
    auto t = Clock::now();
    service::StreamingSolver solver(stream.initial_snapshot(), opt);
    setup_s.push_back(since(t));
    Fnv fp;
    std::uint64_t pass_rounds = 0;
    std::uint64_t pass_messages = 0;
    std::int64_t pass_solved = 0;
    std::int64_t pass_reused = 0;
    // Past the deadline a pass stops between epochs, so a run ends within
    // one epoch of it; such a partial pass has no fingerprint to compare.
    int e = 0;
    for (; e < kEpochs; ++e) {
      if (pass >= kMinPasses && Clock::now() >= deadline) break;
      // In trace runs every other epoch also spans ingest separately.
      const bool traced_op = trace && e % 2 == 1;
      ++rec.attempted;
      try {
        t = Clock::now();
        for (const fl::Delta& d : batches[static_cast<std::size_t>(e)].deltas())
          solver.ingest(d);
        double ingest = 0.0;
        if (traced_op) ingest = since(t);
        const service::EpochReport rep = solver.commit_epoch();
        const double op = since(t);
        (traced_op ? traced_ms : epoch_ms).push_back(1e3 * op);
        if (traced_op) ingest_ms.push_back(1e3 * ingest);
        apply_ms.push_back(rep.apply_ms);
        solve_ms.push_back(rep.solve_ms);

        // Checks, untimed: the service asserts feasibility itself; this
        // re-checks it and the reported cost from outside.
        const fl::Instance& inst = solver.snapshot().instance();
        if (!solver.solution().is_feasible(inst)) {
          rec.fail("epoch " + std::to_string(e + 1) + " infeasible");
        } else if (std::abs(solver.solution().cost(inst) - rep.cost) >
                   1e-6 * rep.cost) {
          rec.fail("epoch " + std::to_string(e + 1) + " cost mismatch");
        }
        fp.add(rep.cost);
        fp.add(rep.rounds);
        fp.add(rep.messages);
        fp.add(rep.solved_components);
        fp.add(rep.reused_components);
        pass_rounds += rep.rounds;
        pass_messages += rep.messages;
        pass_solved += rep.solved_components;
        pass_reused += rep.reused_components;
      } catch (const std::exception& ex) {
        rec.fail(ex.what());
      }
    }
    if (e < kEpochs) break;
    std::ostringstream pass_fp;
    pass_fp << "epochs=" << kEpochs << " hash=" << std::hex << fp.h
            << std::dec << " rounds=" << pass_rounds
            << " messages=" << pass_messages << " solved=" << pass_solved
            << " reused=" << pass_reused;
    if (pass == 0) {
      rec.fingerprint = pass_fp.str();
      rounds = pass_rounds;
      messages = pass_messages;
      solved = pass_solved;
      reused = pass_reused;
      // Certified ratio of the final epoch: its cost over a lower bound of
      // its snapshot (untimed).
      const harness::LowerBound lb =
          harness::compute_lower_bound(solver.snapshot().instance());
      const double cost = solver.last_report().cost;
      if (!(lb.value > 0.0) || cost < lb.value * (1.0 - 1e-9))
        rec.fail("final cost " + exact(cost) + " vs lower bound " +
                 exact(lb.value));
      cost_ratio = cost / lb.value;
    } else if (pass_fp.str() != rec.fingerprint) {
      rec.fail("stream fingerprint changed between passes: " + pass_fp.str());
    }
  }

  rec.samples = static_cast<std::int64_t>(epoch_ms.size());
  rec.end_to_end = {
      {"latency_p10_ms", percentile(epoch_ms, kLatencyQuantile)},
      {"setup_s", median(setup_s)},
      {"peak_rss_mb", peak_rss_mb()},
      {"cost_ratio", cost_ratio},
      {"rounds", static_cast<double>(rounds)},
      {"messages", static_cast<double>(messages)},
  };
  std::cout << "stream-cells: " << setup_s.size() << " set-ups, "
            << rec.attempted << " epochs in " << pass << " full passes, "
            << epoch_ms.size() << " untraced epochs, p10 "
            << percentile(epoch_ms, kLatencyQuantile) << " ms, p50 "
            << median(epoch_ms) << " ms, p90 " << percentile(epoch_ms, 0.9)
            << " ms; " << rec.fingerprint << "\n";
  if (!trace) return;

  // The service detaches MwParams::tracer before its per-component solves,
  // so netsim counters are not observable here; networks_built counts one
  // network per solved component (the mw-greedy engine builds one each).
  Ledger& l = rec.ledger;
  l.latency_p50_ms = median(epoch_ms);
  l.latency_p90_ms = percentile(epoch_ms, 0.9);
  l.throughput_per_s = 1e3 * kEpochEvents / l.latency_p50_ms;
  l.trace_overhead = paired_overhead(epoch_ms, traced_ms);
  l.traced_latency_ms = median(traced_ms);
  l.networks_built = static_cast<double>(solved);
  l.ingest_ms = median(ingest_ms);
  l.apply_ms = median(apply_ms);
  l.solve_ms = median(solve_ms);
  l.solved_components = static_cast<double>(solved);
  l.reuse_ratio = static_cast<double>(reused) /
                  static_cast<double>(std::max<std::int64_t>(1, solved + reused));
  std::cout << "stream-cells: per epoch median ingest " << median(ingest_ms)
            << " ms, apply " << median(apply_ms) << " ms, solve "
            << median(solve_ms) << " ms; " << solved << " solved / " << reused
            << " reused components per pass\n";
}

int usage() {
  std::cerr << "usage: dflp_perf --workload NAME --seed N --seconds T "
               "--trace 0|1 --workdir DIR\n"
               "workloads: stream-cells lossy-reliable\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "workdir"})
    if (!args.count(key)) return usage();

  Record rec;
  rec.workload = args["workload"];
  rec.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  rec.traced = args["trace"] == "1";
  const double seconds = std::atof(args["seconds"].c_str());
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  const SolveSpec* spec = nullptr;
  for (const SolveSpec& s : kSolveSpecs)
    if (rec.workload == s.name) spec = &s;
  if (spec == nullptr && rec.workload != "stream-cells") return usage();
  rec.threads = spec != nullptr ? std::min(spec->threads, nproc) : 1;

  try {
    if (spec != nullptr) {
      run_solve(*spec, rec.seed, seconds, rec.traced, args["workdir"], rec);
    } else {
      run_stream(rec.seed, seconds, rec.traced, rec);
    }
  } catch (const std::exception& e) {
    ++rec.attempted;
    rec.fail(std::string("set-up failed: ") + e.what());
  }
  rec.print(std::cout);
  return 0;
}
