// Unit tests for the UFL instance model, solutions and serialization.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "fl/instance.h"
#include "fl/serialize.h"
#include "fl/solution.h"

namespace dflp::fl {
namespace {

Instance tiny() {
  // 2 facilities, 3 clients:
  //   F0 (open 10): C0@1, C1@2
  //   F1 (open 5):  C1@4, C2@1
  InstanceBuilder b;
  const FacilityId f0 = b.add_facility(10.0);
  const FacilityId f1 = b.add_facility(5.0);
  const ClientId c0 = b.add_client();
  const ClientId c1 = b.add_client();
  const ClientId c2 = b.add_client();
  b.connect(f0, c0, 1.0);
  b.connect(f0, c1, 2.0);
  b.connect(f1, c1, 4.0);
  b.connect(f1, c2, 1.0);
  return b.build();
}

TEST(Instance, BasicAccessors) {
  const Instance inst = tiny();
  EXPECT_EQ(inst.num_facilities(), 2);
  EXPECT_EQ(inst.num_clients(), 3);
  EXPECT_EQ(inst.num_edges(), 4u);
  EXPECT_DOUBLE_EQ(inst.opening_cost(0), 10.0);
  EXPECT_DOUBLE_EQ(inst.opening_cost(1), 5.0);
  EXPECT_EQ(inst.max_facility_degree(), 2);
  EXPECT_EQ(inst.max_client_degree(), 2);
}

TEST(Instance, EdgesSortedByCost) {
  const Instance inst = tiny();
  const auto f0 = inst.facility_edges(0);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(f0[0].client, 0);
  EXPECT_DOUBLE_EQ(f0[0].cost, 1.0);
  EXPECT_EQ(f0[1].client, 1);

  const auto c1 = inst.client_edges(1);
  ASSERT_EQ(c1.size(), 2u);
  EXPECT_EQ(c1[0].facility, 0);  // cost 2 < 4
  EXPECT_EQ(c1[1].facility, 1);
}

TEST(Instance, ConnectionCostLookup) {
  const Instance inst = tiny();
  EXPECT_DOUBLE_EQ(inst.connection_cost(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(inst.connection_cost(1, 2), 1.0);
  EXPECT_TRUE(std::isinf(inst.connection_cost(1, 0)));
}

TEST(Instance, CostProfileAndRho) {
  const Instance inst = tiny();
  const CostProfile& p = inst.cost_profile();
  EXPECT_DOUBLE_EQ(p.max_value, 10.0);
  EXPECT_DOUBLE_EQ(p.min_positive, 1.0);
  EXPECT_DOUBLE_EQ(p.rho, 10.0);
  EXPECT_DOUBLE_EQ(p.total_opening, 15.0);
  EXPECT_DOUBLE_EQ(p.total_connection, 8.0);
}

TEST(Instance, RhoIsOneForAllZeroCosts) {
  InstanceBuilder b;
  const FacilityId f = b.add_facility(0.0);
  const ClientId c = b.add_client();
  b.connect(f, c, 0.0);
  const Instance inst = b.build();
  EXPECT_DOUBLE_EQ(inst.cost_profile().rho, 1.0);
}

TEST(Instance, OpenAllCost) {
  const Instance inst = tiny();
  // 15 opening + cheapest per client (1 + 2 + 1).
  EXPECT_DOUBLE_EQ(inst.open_all_cost(), 19.0);
}

TEST(Instance, ClientEdgeOffsets) {
  const Instance inst = tiny();
  EXPECT_EQ(inst.client_edge_offset(0), 0u);
  EXPECT_EQ(inst.client_edge_offset(1), 1u);
  EXPECT_EQ(inst.client_edge_offset(2), 3u);
  EXPECT_EQ(inst.total_client_edges(), 4u);
}

TEST(Instance, DescribeMentionsShape) {
  const std::string d = tiny().describe();
  EXPECT_NE(d.find("m=2"), std::string::npos);
  EXPECT_NE(d.find("n=3"), std::string::npos);
}

TEST(InstanceBuilder, RejectsBadInput) {
  InstanceBuilder b;
  EXPECT_THROW(b.add_facility(-1.0), CheckError);
  EXPECT_THROW(b.add_facility(std::numeric_limits<double>::infinity()),
               CheckError);
  const FacilityId f = b.add_facility(1.0);
  const ClientId c = b.add_client();
  EXPECT_THROW(b.connect(f + 5, c, 1.0), CheckError);
  EXPECT_THROW(b.connect(f, c + 5, 1.0), CheckError);
  EXPECT_THROW(b.connect(f, c, -2.0), CheckError);
}

TEST(InstanceBuilder, RejectsDuplicateEdges) {
  InstanceBuilder b;
  const FacilityId f = b.add_facility(1.0);
  const ClientId c = b.add_client();
  b.connect(f, c, 1.0);
  b.connect(f, c, 2.0);
  EXPECT_THROW(b.build(), CheckError);
}

/// The user message of a CheckError: what follows the " — " separator.
std::string check_message(const CheckError& e) {
  const std::string what = e.what();
  const std::string sep = " — ";
  const auto at = what.rfind(sep);
  return at == std::string::npos ? what : what.substr(at + sep.size());
}

TEST(InstanceBuilder, DuplicateEdgeNamesSmallestPair) {
  // Duplicates in two facilities, inserted from the largest pair down and
  // with equal costs, so neither insertion order nor the cost sort can
  // pick the reported pair.
  InstanceBuilder b;
  for (int i = 0; i < 3; ++i) (void)b.add_facility(1.0);
  (void)b.add_clients(4);
  b.connect(2, 0, 1.0);
  b.connect(2, 0, 1.0);
  b.connect(1, 3, 2.0);
  b.connect(0, 2, 1.0);
  b.connect(1, 3, 2.0);
  b.connect(1, 1, 2.0);
  b.connect(1, 1, 2.0);
  try {
    (void)b.build();
    FAIL() << "duplicate edges were accepted";
  } catch (const CheckError& e) {
    EXPECT_EQ(check_message(e), "duplicate edge (facility=1, client=1)");
  }
}

TEST(InstanceBuilder, RejectsIsolatedClient) {
  InstanceBuilder b;
  b.add_facility(1.0);
  b.add_client();
  EXPECT_THROW(b.build(), CheckError);
}

TEST(InstanceBuilder, RejectsEmptySides) {
  {
    InstanceBuilder b;
    b.add_client();
    EXPECT_THROW(b.build(), CheckError);
  }
  {
    InstanceBuilder b;
    b.add_facility(1.0);
    EXPECT_THROW(b.build(), CheckError);
  }
}

// ------------------------------------------------------------- solution --

TEST(IntegralSolution, CostAndFeasibility) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  EXPECT_FALSE(sol.is_feasible(inst));

  sol.open(0);
  sol.open(1);
  sol.assign(0, 0);
  sol.assign(1, 0);
  sol.assign(2, 1);
  std::string why;
  EXPECT_TRUE(sol.is_feasible(inst, &why)) << why;
  EXPECT_DOUBLE_EQ(sol.cost(inst), 15.0 + 1.0 + 2.0 + 1.0);
  EXPECT_EQ(sol.num_open(), 2);
}

TEST(IntegralSolution, DetectsClosedAssignment) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  sol.assign(0, 0);
  sol.assign(1, 0);
  sol.assign(2, 1);  // facility 1 closed
  std::string why;
  EXPECT_FALSE(sol.is_feasible(inst, &why));
  EXPECT_NE(why.find("closed"), std::string::npos);
}

TEST(IntegralSolution, DetectsNonAdjacentAssignment) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(1);
  sol.assign(0, 1);  // F1 cannot serve C0
  sol.assign(1, 1);
  sol.assign(2, 1);
  std::string why;
  EXPECT_FALSE(sol.is_feasible(inst, &why));
  EXPECT_NE(why.find("non-adjacent"), std::string::npos);
}

TEST(IntegralSolution, AssignGreedilyPicksCheapestOpen) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  sol.open(1);
  EXPECT_EQ(sol.assign_greedily(inst), 3);
  EXPECT_EQ(sol.assignment(1), 0);  // cost 2 beats 4
}

TEST(IntegralSolution, PruneUnusedClosesIdleFacilities) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  sol.open(1);
  sol.assign(0, 0);
  sol.assign(1, 0);
  sol.assign(2, 1);
  EXPECT_EQ(sol.prune_unused(inst), 0);
  // Reassign client 2's work away and facility 1 becomes unused… but that
  // would be infeasible; instead test with an genuinely unused facility.
  IntegralSolution sol2(inst);
  sol2.open(0);
  sol2.open(1);
  sol2.assign(0, 0);
  sol2.assign(1, 0);
  sol2.assign(2, 1);
  sol2.open(0);  // idempotent
  EXPECT_EQ(sol2.num_open(), 2);
}

TEST(IntegralSolution, CostOnUnassignedThrows) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  EXPECT_THROW((void)sol.cost(inst), CheckError);
}

TEST(FractionalSolution, ValueAndFeasibility) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  // Fully open both facilities, each client served by its cheapest edge.
  frac.y = {1.0, 1.0};
  // client edge order: c0:[f0], c1:[f0,f1], c2:[f1]
  frac.x = {1.0, 1.0, 0.0, 1.0};
  std::string why;
  EXPECT_TRUE(frac.is_feasible(inst, 1e-9, &why)) << why;
  EXPECT_DOUBLE_EQ(frac.value(inst), 15.0 + 1.0 + 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(frac.coverage(inst, 1), 1.0);
}

TEST(FractionalSolution, DetectsUndercoverage) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {1.0, 1.0};
  frac.x = {0.4, 1.0, 0.0, 1.0};
  EXPECT_FALSE(frac.is_feasible(inst));
}

TEST(FractionalSolution, DetectsXAboveY) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {0.5, 1.0};
  frac.x = {1.0, 1.0, 0.0, 1.0};  // x for c0@f0 exceeds y0
  std::string why;
  EXPECT_FALSE(frac.is_feasible(inst, 1e-9, &why));
  EXPECT_NE(why.find("y_i"), std::string::npos);
}

TEST(FractionalSolution, HalfAndHalfCoverageIsFeasible) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {0.5, 0.5};
  frac.x = {0.5, 0.5, 0.5, 0.5};
  // c0 and c2 each have a single edge with x=0.5: undercovered.
  EXPECT_FALSE(frac.is_feasible(inst));
  frac.y = {1.0, 1.0};
  frac.x = {1.0, 0.5, 0.5, 1.0};  // c1 split across both facilities
  EXPECT_TRUE(frac.is_feasible(inst));
}

// ------------------------------------------------------------ serialize --

TEST(Serialize, RoundTripPreservesEverything) {
  const Instance inst = tiny();
  const std::string text = to_text(inst);
  const Instance back = from_text(text);
  EXPECT_EQ(back.num_facilities(), inst.num_facilities());
  EXPECT_EQ(back.num_clients(), inst.num_clients());
  EXPECT_EQ(back.num_edges(), inst.num_edges());
  for (FacilityId i = 0; i < inst.num_facilities(); ++i)
    EXPECT_DOUBLE_EQ(back.opening_cost(i), inst.opening_cost(i));
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const auto a = inst.client_edges(j);
    const auto b = back.client_edges(j);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].facility, b[k].facility);
      EXPECT_DOUBLE_EQ(a[k].cost, b[k].cost);
    }
  }
}

TEST(Serialize, HeaderIsStable) {
  const std::string text = to_text(tiny());
  EXPECT_EQ(text.rfind("dflp-ufl 1\n", 0), 0u);
  EXPECT_NE(text.find("2 3 4"), std::string::npos);
}

TEST(Serialize, RejectsGarbage) {
  EXPECT_THROW(from_text("not an instance"), CheckError);
  EXPECT_THROW(from_text("dflp-ufl 2\n1 1 0\n1.0\n"), CheckError);
  EXPECT_THROW(from_text("dflp-ufl 1\n0 1 0\n"), CheckError);
}

TEST(Serialize, RejectsTruncatedEdges) {
  EXPECT_THROW(from_text("dflp-ufl 1\n1 1 1\n5.0\n"), CheckError);
}

TEST(Serialize, RejectsDuplicateEdgeLine) {
  try {
    (void)from_text("dflp-ufl 1\n2 2 3\n1 1\n0 0 1\n1 1 2\n0 0 3\n");
    FAIL() << "a duplicate edge line was accepted";
  } catch (const CheckError& e) {
    EXPECT_EQ(check_message(e), "duplicate edge (facility=0, client=0)");
  }
}

/// Expects `text` to be rejected with a CheckError in well under a second.
void expect_fast_reject(const std::string& text) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)from_text(text), CheckError) << text;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << text;
}

TEST(Serialize, RejectsDeclaredCountsTheBytesDoNotBack) {
  // A client count past the int32 id range once spun the parser for as
  // long as it took to overflow the client counter.
  expect_fast_reject("dflp-ufl 1\n1 99999999999 1\n1\n0 0 1\n");
  // In range, but the declared clients and edges are never supplied.
  expect_fast_reject("dflp-ufl 1\n1 2000000000 2000000000\n1\n");
  expect_fast_reject("dflp-ufl 1\n1 1 99999999999\n1\n0 0 1\n");
  expect_fast_reject("dflp-ufl 1\n99999999999 1 1\n1\n0 0 1\n");
  // Every client needs an edge.
  expect_fast_reject("dflp-ufl 1\n1 2 1\n1\n0 0 1\n");
  // Ids past int32 must not wrap onto valid ones.
  expect_fast_reject("dflp-ufl 1\n1 1 1\n1\n4294967296 0 1\n");
  expect_fast_reject("dflp-ufl 1\n1 1 1\n1\n0 4294967296 1\n");
}

}  // namespace
}  // namespace dflp::fl
