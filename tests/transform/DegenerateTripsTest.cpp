//===- tests/transform/DegenerateTripsTest.cpp -----------------*- C++ -*-===//
//
// Degenerate trip-count differential sweep through the real pipeline:
// every assignment of inner trip counts from {-1, 0, 1, k} must leave the
// coalesced program, the flattened+SIMDized (and simplified) program,
// and the scalar reference in exact agreement - stores and body counts
// alike. Negative and zero rows execute no body iterations.
//
//===----------------------------------------------------------------------===//

#include "transform/Coalesce.h"
#include "transform/Pipeline.h"

#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "ir/Builder.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <vector>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;
using namespace simdflat::transform;

namespace {

constexpr int64_t K = 4;
constexpr int64_t MaxTrip = 3;

/// DOALL i = 1, K { DO j = 1, L(i) { X(i,j) = i*10+j; A(i) += j } } -
/// a perfect nest the pipeline flattens; the A(i) reduction makes it
/// ineligible for coalescing (iterations of one row would race).
Program makeNest() {
  Program P("degenerate");
  P.addVar("K", ScalarKind::Int);
  P.addVar("L", ScalarKind::Int, {K}, Dist::Distributed);
  P.addVar("X", ScalarKind::Int, {K, MaxTrip}, Dist::Distributed);
  P.addVar("A", ScalarKind::Int, {K}, Dist::Distributed);
  P.addVar("i", ScalarKind::Int);
  P.addVar("j", ScalarKind::Int);
  Builder B(P);
  Body Inner;
  Inner.push_back(B.assign(B.at("X", B.var("i"), B.var("j")),
                           B.add(B.mul(B.var("i"), B.lit(10)),
                                 B.var("j"))));
  Inner.push_back(B.assign(B.at("A", B.var("i")),
                           B.add(B.at("A", B.var("i")), B.var("j"))));
  Body Outer;
  Outer.push_back(
      B.doLoop("j", B.lit(1), B.at("L", B.var("i")), std::move(Inner)));
  P.body().push_back(B.doLoop("i", B.lit(1), B.var("K"),
                              std::move(Outer), nullptr,
                              /*IsParallel=*/true));
  return P;
}

/// The same nest without the A(i) reduction: every store varies with j,
/// so coalesceNest accepts it. A stays declared (and all-zero) so the
/// run helpers work unchanged.
Program makeCoalesceableNest() {
  Program P("degenerate");
  P.addVar("K", ScalarKind::Int);
  P.addVar("L", ScalarKind::Int, {K}, Dist::Distributed);
  P.addVar("X", ScalarKind::Int, {K, MaxTrip}, Dist::Distributed);
  P.addVar("A", ScalarKind::Int, {K}, Dist::Distributed);
  P.addVar("i", ScalarKind::Int);
  P.addVar("j", ScalarKind::Int);
  Builder B(P);
  Body Inner;
  Inner.push_back(B.assign(B.at("X", B.var("i"), B.var("j")),
                           B.add(B.mul(B.var("i"), B.lit(10)),
                                 B.var("j"))));
  Body Outer;
  Outer.push_back(
      B.doLoop("j", B.lit(1), B.at("L", B.var("i")), std::move(Inner)));
  P.body().push_back(B.doLoop("i", B.lit(1), B.var("K"),
                              std::move(Outer), nullptr,
                              /*IsParallel=*/true));
  return P;
}

struct Outcome {
  std::vector<int64_t> X, A;
  int64_t BodyCount = 0;
};

RunOptions workOptions() {
  RunOptions O;
  O.WorkTargets = {"X", "A"};
  return O;
}

Outcome runScalar(const Program &P, const std::vector<int64_t> &L) {
  ScalarInterp I(P, machine::MachineConfig::sparc2(), nullptr,
                 workOptions());
  I.store().setInt("K", K);
  I.store().setIntArray("L", L);
  ScalarRunResult R = I.run().value();
  return {I.store().getIntArray("X"), I.store().getIntArray("A"),
          R.Stats.WorkSteps};
}

Outcome runSimd(const Program &P, const std::vector<int64_t> &L) {
  machine::MachineConfig M;
  M.Name = "sweep";
  M.Processors = 4;
  M.Gran = 4;
  M.DataLayout = machine::Layout::Cyclic;
  SimdInterp I(P, M, nullptr, workOptions());
  I.store().setInt("K", K);
  I.store().setIntArray("L", L);
  SimdRunResult R = I.run().value();
  return {I.store().getIntArray("X"), I.store().getIntArray("A"),
          R.Stats.WorkActiveLanes};
}

/// All 4^K assignments of {-1, 0, 1, MaxTrip} to the K rows.
std::vector<std::vector<int64_t>> allTripAssignments() {
  const std::vector<int64_t> Menu = {-1, 0, 1, MaxTrip};
  std::vector<std::vector<int64_t>> Out;
  for (int Case = 0; Case < 4 * 4 * 4 * 4; ++Case) {
    std::vector<int64_t> L;
    for (int Digit = 0, C = Case; Digit < K; ++Digit, C /= 4)
      L.push_back(Menu[static_cast<size_t>(C % 4)]);
    Out.push_back(std::move(L));
  }
  return Out;
}

TEST(DegenerateTrips, CoalescePathMatchesReference) {
  Program Ref = makeCoalesceableNest();
  Program Coal = makeCoalesceableNest();
  CoalesceResult CR = coalesceNest(Coal, K, K * MaxTrip);
  ASSERT_TRUE(CR.Changed) << CR.Reason;

  for (const std::vector<int64_t> &L : allTripAssignments()) {
    Outcome Want = runScalar(Ref, L);
    Outcome Got = runScalar(Coal, L);
    EXPECT_EQ(Got.X, Want.X) << printProgram(Coal);
    EXPECT_EQ(Got.A, Want.A);
    EXPECT_EQ(Got.BodyCount, Want.BodyCount);
  }
}

TEST(DegenerateTrips, CoalesceDeclinesRowReduction) {
  // A(i) = A(i) + j carries a dependence over j that only the
  // sequential inner loop orders; a coalesced DOALL would race it on
  // any parallel machine, so the transform must refuse.
  Program P = makeNest();
  CoalesceResult CR = coalesceNest(P, K, K * MaxTrip);
  EXPECT_FALSE(CR.Changed);
  EXPECT_NE(CR.Reason.find("not independent"), std::string::npos)
      << CR.Reason;
}

TEST(DegenerateTrips, CoalescedSimdMatchesReference) {
  // The full strategy path: coalesce through the pipeline, then run the
  // simdized executor on the lockstep machine across the whole sweep.
  Program Ref = makeCoalesceableNest();
  PipelineOptions PO;
  PO.Strategy = StrategyPolicy::coalesced(K, K * MaxTrip);
  PipelineReport Rep;
  Program Simd = compileForSimd(makeCoalesceableNest(), PO, &Rep).value();
  ASSERT_EQ(Rep.StrategyApplied, analysis::Strategy::Coalesced)
      << Rep.summary();

  for (const std::vector<int64_t> &L : allTripAssignments()) {
    Outcome Want = runScalar(Ref, L);
    Outcome Got = runSimd(Simd, L);
    EXPECT_EQ(Got.X, Want.X) << printProgram(Simd);
    EXPECT_EQ(Got.A, Want.A);
  }
}

TEST(DegenerateTrips, SimdAfterSimplifyMatchesReference) {
  Program Ref = makeNest();
  // Zero and negative rows rule out the min-one assumption; the
  // pipeline must pick a level that tests before executing. Simplify
  // runs as the final stage, so this sweeps the exact program the
  // SIMD machine would receive.
  PipelineOptions PO;
  PipelineReport Rep;
  Program Simd = compileForSimd(makeNest(), PO, &Rep).value();
  ASSERT_TRUE(Rep.Flattened) << Rep.summary();

  for (const std::vector<int64_t> &L : allTripAssignments()) {
    Outcome Want = runScalar(Ref, L);
    Outcome Got = runSimd(Simd, L);
    EXPECT_EQ(Got.X, Want.X) << printProgram(Simd);
    EXPECT_EQ(Got.A, Want.A);
    EXPECT_EQ(Got.BodyCount, Want.BodyCount);
  }
}

TEST(DegenerateTrips, UnflattenedSimdMatchesReference) {
  Program Ref = makeNest();
  PipelineOptions PO;
  PO.Flatten = false;
  Program Simd = compileForSimd(makeNest(), PO).value();

  for (const std::vector<int64_t> &L : allTripAssignments()) {
    Outcome Want = runScalar(Ref, L);
    Outcome Got = runSimd(Simd, L);
    EXPECT_EQ(Got.X, Want.X);
    EXPECT_EQ(Got.A, Want.A);
    EXPECT_EQ(Got.BodyCount, Want.BodyCount);
  }
}

} // namespace
