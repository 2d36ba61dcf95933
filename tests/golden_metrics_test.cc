// Golden-metrics regression tests for the round engine.
//
// The equivalence sweep (engine_equivalence_test.cc) proves that thread
// count and delivery order cannot change an execution, but it would not
// notice if a transport rewrite shifted *every* configuration in the same
// way. These tests pin the absolute NetMetrics of fixed-seed runs to
// values committed when the per-inbox transport was replaced by the flat
// delivery arena — both engines produced exactly these numbers. Any
// future change that alters a fingerprint is a behavioural change to the
// simulator, not a refactor, and must update the goldens deliberately.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/frac_lp.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"
#include "workload/generators.h"

namespace dflp {
namespace {

std::string metrics_fingerprint(const net::NetMetrics& m) {
  std::ostringstream os;
  os << m.rounds << '/' << m.messages << '/' << m.total_bits << '/'
     << m.max_message_bits << '/' << m.max_messages_in_round << '/'
     << m.dropped;
  return os.str();
}

// Uniform family, 80 facilities, seed 13; k=4, engine seed 17. Committed
// from identical runs of the pre-arena and arena transports.
constexpr char kGoldenFingerprint[] = "29/1005/8040/8/592/0";
constexpr std::uint64_t kGoldenOpenFacilities = 16;

core::MwParams golden_params() {
  core::MwParams params;
  params.k = 4;
  params.seed = 17;
  return params;
}

fl::Instance golden_instance() {
  return workload::make_family_instance(workload::Family::kUniform, 80, 13);
}

std::string solution_fingerprint(const fl::Instance& inst,
                                 const fl::IntegralSolution& sol) {
  std::ostringstream os;
  os << "open:";
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    os << (sol.is_open(i) ? '1' : '0');
  os << " assign:";
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    os << sol.assignment(j) << ',';
  return os.str();
}

/// A CheckError's text with its " at <file>:<line>" source location cut
/// out: the location moves with every edit to the throwing file, the
/// condition and message do not.
std::string without_location(const std::string& what) {
  const std::size_t at = what.find(" at ");
  const std::size_t dash = what.find(" — ", at);
  if (at == std::string::npos || dash == std::string::npos) return what;
  return what.substr(0, at) + what.substr(dash);
}

std::uint64_t open_count(const fl::Instance& inst,
                         const fl::IntegralSolution& sol) {
  std::uint64_t open = 0;
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    if (sol.is_open(i)) ++open;
  return open;
}

TEST(GoldenMetrics, MwGreedyReliableRunMatchesCommittedFingerprint) {
  const fl::Instance inst = golden_instance();
  const core::MwGreedyOutcome out = core::run_mw_greedy(inst, golden_params());
  EXPECT_EQ(metrics_fingerprint(out.metrics), kGoldenFingerprint);
  EXPECT_EQ(open_count(inst, out.solution), kGoldenOpenFacilities);
}

TEST(GoldenMetrics, FingerprintIndependentOfDeliveryOrderAndThreads) {
  // For this instance the protocol's behaviour is invariant under inbox
  // reordering, so every delivery order must reproduce the one golden —
  // at every thread count.
  const fl::Instance inst = golden_instance();
  for (auto delivery :
       {net::DeliveryOrder::kBySource, net::DeliveryOrder::kRandomShuffle,
        net::DeliveryOrder::kReverseSource}) {
    for (int threads : {1, 4}) {
      core::MwParams params = golden_params();
      params.delivery = delivery;
      params.num_threads = threads;
      const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
      EXPECT_EQ(metrics_fingerprint(out.metrics), kGoldenFingerprint)
          << "delivery=" << static_cast<int>(delivery)
          << " threads=" << threads;
      EXPECT_EQ(open_count(inst, out.solution), kGoldenOpenFacilities);
    }
  }
}

TEST(GoldenMetrics, MwGreedyUnderDropsFailsWithCommittedDiagnostic) {
  // With 15% message drops this protocol fails loudly; the failure point
  // is itself a function of the seeded fault streams, so the diagnostic is
  // part of the golden.
  const fl::Instance inst = golden_instance();
  core::MwParams params = golden_params();
  params.faults.drop_probability = 0.15;
  try {
    (void)core::run_mw_greedy(inst, params);
    FAIL() << "expected CheckError under drops";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what())
                  .find("mop-up grant missing for client node 74"),
              std::string::npos)
        << "actual: " << e.what();
  }
}

// The goldens below pin paths the cross-thread and async-vs-sync
// comparisons cannot: a change that moved every run of one of them the
// same way would pass those and trip these.

TEST(GoldenMetrics, RecoveredPipelineMatchesCommittedFingerprint) {
  // The equivalence sweep's recovered configuration: reliable channel over
  // 15% drops and 5% duplication, fault seed 23.
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kPowerLaw, 50, 3);
  core::MwParams params;
  params.k = 4;
  params.seed = 5;
  params.reliable = true;
  params.faults.drop_probability = 0.15;
  params.faults.duplicate_probability = 0.05;
  params.faults.fault_seed = 23;
  const core::PipelineOutcome out = core::run_pipeline(inst, params);
  EXPECT_EQ(metrics_fingerprint(out.frac_metrics),
            "154/25629/543344/29/800/4288");
  EXPECT_EQ(metrics_fingerprint(out.round_metrics),
            "201/40549/915569/29/800/6778");
  EXPECT_EQ(solution_fingerprint(inst, out.solution),
            "open:1000011001 assign:6,5,9,5,6,0,6,9,6,5,6,6,9,6,9,5,5,5,5,5,6,9,"
            "0,6,6,6,0,0,5,5,5,9,9,6,5,5,9,5,6,9,5,5,0,6,6,0,5,6,9,6,");
  EXPECT_EQ(out.transport.to_string(),
            "logical=26 physical=201 items=33200 retx=11967 acks=28864 "
            "dups=7166");
}

TEST(GoldenMetrics, FracLpUnderDropsFailsWithCommittedDiagnostic) {
  // At k=1 the greedy-tight family leaves stragglers for the mop-up,
  // whose request or y update the drops can lose. The diagnostic carries the
  // first-lost-message suffix.
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kGreedyTight, 40, 2);
  core::MwParams params;
  params.k = 1;
  params.seed = 17;
  params.faults.drop_probability = 0.15;
  try {
    (void)core::run_frac_lp(inst, params);
    FAIL() << "expected CheckError under drops";
  } catch (const CheckError& e) {
    EXPECT_EQ(without_location(e.what()),
              "CHECK failed: covered_ — client node 60 uncovered after mop-up "
              "[fault injection: first lost message was 1->42 kind 10 in "
              "round 2; 37 dropped total]");
  }
}

TEST(GoldenMetrics, MwGreedyAsyncMatchesCommittedFingerprint) {
  const fl::Instance inst = golden_instance();
  const core::MwGreedyAsyncOutcome out =
      core::run_mw_greedy_async(inst, golden_params());
  EXPECT_EQ(solution_fingerprint(inst, out.solution),
            "open:1111111111111111 assign:0,8,3,2,5,15,11,3,14,5,0,3,3,15,5,11,"
            "2,5,4,1,13,12,8,8,10,4,9,7,12,3,6,9,1,10,15,9,15,14,2,8,14,12,6,"
            "4,7,9,4,10,13,11,10,11,0,3,13,11,3,9,5,4,8,1,11,1,10,4,5,1,13,12,"
            "7,15,11,6,14,14,10,13,15,11,");
  EXPECT_EQ(out.max_rounds_executed, 29u);
  EXPECT_EQ(out.metrics.to_string(),
            "deliveries=30840 payload=1005 control=29835 total_bits=398480 "
            "virtual_time=451");
}

}  // namespace
}  // namespace dflp
