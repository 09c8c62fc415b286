//===- tests/exec/EngineEquivalenceTest.cpp --------------------*- C++ -*-===//
//
// Three-engine equivalence: the bytecode core and the native tier must
// be observably identical to the tree-walking reference on stores,
// every RunStats counter, traces, and traps (kind, lanes, location,
// detail) across the scalar, MIMD and SIMD executors. Scalar and MIMD
// programs have no lanes, so Native runs them on the bytecode core. These
// are the focused unit-level checks; the differential fuzzer covers the
// same contract at scale.
//
//===----------------------------------------------------------------------===//

#include "interp/MimdInterp.h"
#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include "ir/Builder.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;
using namespace simdflat::workloads;

namespace {

void expectSameStats(const RunStats &A, const RunStats &B) {
  EXPECT_EQ(A.WorkSteps, B.WorkSteps);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.WorkActiveLanes, B.WorkActiveLanes);
  EXPECT_EQ(A.WorkTotalLanes, B.WorkTotalLanes);
  EXPECT_EQ(A.CommAccesses, B.CommAccesses);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Seconds, B.Seconds);
}

void expectSameTrap(const Trap &A, const Trap &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Lanes, B.Lanes);
  EXPECT_EQ(A.Location, B.Location);
  EXPECT_EQ(A.Detail, B.Detail);
}

void expectSameTrace(const Trace &A, const Trace &B) {
  EXPECT_EQ(A.Watch, B.Watch);
  EXPECT_EQ(A.Lanes, B.Lanes);
  ASSERT_EQ(A.Steps.size(), B.Steps.size());
  for (size_t S = 0; S < A.Steps.size(); ++S) {
    EXPECT_EQ(A.Steps[S].Values, B.Steps[S].Values) << "step " << S;
    EXPECT_EQ(A.Steps[S].Active, B.Steps[S].Active) << "step " << S;
  }
}

RunOptions optsFor(Engine E) {
  RunOptions O;
  O.WorkTargets = {"X"};
  O.Eng = E;
  return O;
}

TEST(EngineEquivalence, ScalarStoresAndStats) {
  ExampleSpec Spec = paperExampleSpec();
  Program P = makeExample(Spec);
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  std::vector<int64_t> X[3];
  ScalarRunResult R[3];
  int I = 0;
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    ScalarInterp Interp(P, M, nullptr, optsFor(E));
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    R[I] = Interp.run().value();
    X[I] = Interp.store().getIntArray("X");
    ++I;
  }
  EXPECT_EQ(X[0], X[1]);
  EXPECT_EQ(X[0], X[2]);
  expectSameStats(R[0].Stats, R[1].Stats);
  expectSameStats(R[0].Stats, R[2].Stats);
}

TEST(EngineEquivalence, ScalarOutOfBoundsTrap) {
  // A(9) with extent 8: both engines trap with the same rendered
  // location chain and detail text.
  Program P("OOB");
  P.addVar("A", ScalarKind::Int, {8});
  P.addVar("i", ScalarKind::Int);
  Builder B(P);
  P.body().push_back(B.doLoop(
      "i", B.lit(1), B.lit(9),
      Builder::body(B.assign(B.at("A", B.var("i")), B.var("i")))));
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  Trap T[3];
  int I = 0;
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    RunOptions O;
    O.Eng = E;
    ScalarInterp Interp(P, M, nullptr, O);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::OutOfBounds);
  expectSameTrap(T[0], T[1]);
  expectSameTrap(T[0], T[2]);
}

TEST(EngineEquivalence, ScalarFuelTrap) {
  // The fuel watchdog fires after the same number of charged
  // instructions in both engines.
  ExampleSpec Spec = paperExampleSpec();
  Program P = makeExample(Spec);
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  Trap T[3];
  int I = 0;
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    RunOptions O = optsFor(E);
    O.Fuel = 40;
    ScalarInterp Interp(P, M, nullptr, O);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::FuelExhausted);
  expectSameTrap(T[0], T[1]);
  expectSameTrap(T[0], T[2]);
}

TEST(EngineEquivalence, MimdSlicingAndMerge) {
  // Each MIMD processor runs the scalar engine over its owned slice;
  // per-processor stats, Eq. 1 time and the merged store must match.
  ExampleSpec Spec = paperExampleSpec();
  Program P = makeExample(Spec);
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  MimdRunResult R[3];
  int I = 0;
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    MimdInterp Interp(P, M, nullptr, /*NumProcs=*/2,
                      machine::Layout::Block, optsFor(E));
    R[I++] = Interp.run([&](DataStore &S) {
               S.setInt("K", Spec.K);
               S.setIntArray("L", Spec.L);
             }).value();
  }
  for (int J : {1, 2}) {
    EXPECT_EQ(R[0].TimeSteps, R[J].TimeSteps);
    EXPECT_EQ(R[0].Seconds, R[J].Seconds);
    ASSERT_EQ(R[0].PerProc.size(), R[J].PerProc.size());
    for (size_t Proc = 0; Proc < R[0].PerProc.size(); ++Proc)
      expectSameStats(R[0].PerProc[Proc], R[J].PerProc[Proc]);
    EXPECT_EQ(R[0].Merged->getIntArray("X"),
              R[J].Merged->getIntArray("X"));
  }
}

TEST(EngineEquivalence, SimdTraceAndStats) {
  // The flattened EXAMPLE on a 2-lane machine, with the Fig. 6 trace
  // recorded: step-by-step values and activity masks must be identical.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M;
  M.Name = "test-2";
  M.Processors = 2;
  M.Gran = 2;
  M.DataLayout = machine::Layout::Cyclic;
  SimdRunResult R[3];
  int I = 0;
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    RunOptions O = optsFor(E);
    O.Watch = {"i", "j"};
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    R[I++] = Interp.run().value();
  }
  expectSameStats(R[0].Stats, R[1].Stats);
  expectSameStats(R[0].Stats, R[2].Stats);
  expectSameTrace(R[0].Tr, R[1].Tr);
  expectSameTrace(R[0].Tr, R[2].Tr);
}

TEST(EngineEquivalence, SharedCompiledProgramReuse) {
  // One lowered Program serves many interpreter instances (the pipeline
  // cache contract): repeated runs keep producing identical results.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M;
  M.Name = "test-4";
  M.Processors = 4;
  M.Gran = 4;
  M.DataLayout = machine::Layout::Cyclic;
  RunStats First;
  for (int Round = 0; Round < 3; ++Round) {
    SimdInterp Interp(C->Prog, M, nullptr, optsFor(Engine::Bytecode));
    Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    SimdRunResult R = Interp.run().value();
    if (Round == 0)
      First = R.Stats;
    else
      expectSameStats(First, R.Stats);
  }
}

} // namespace
