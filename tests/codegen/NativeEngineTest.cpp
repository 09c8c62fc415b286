//===- tests/codegen/NativeEngineTest.cpp ----------------------*- C++ -*-===//
//
// Engine equivalence for the native codegen tier: Engine::Native must
// be observably identical to the tree and bytecode engines on stores,
// every RunStats counter, traces, trip histograms and traps (kind,
// lanes, location, detail) - and must degrade to the bytecode path,
// not fail, when no toolchain can be invoked. On builds
// configured with SIMDFLAT_ENABLE_JIT=OFF every test here still passes:
// Native degrades everywhere and the equivalence checks compare
// bytecode against itself.
//
//===----------------------------------------------------------------------===//

#include "codegen/JitCache.h"
#include "codegen/NativeEngine.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;
using namespace simdflat::workloads;

namespace {

machine::MachineConfig lanes(int64_t Gran, machine::Layout L) {
  machine::MachineConfig M;
  M.Name = "test-" + std::to_string(Gran);
  M.Processors = Gran;
  M.Gran = Gran;
  M.DataLayout = L;
  return M;
}

void expectSameStats(const RunStats &A, const RunStats &B) {
  EXPECT_EQ(A.WorkSteps, B.WorkSteps);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.WorkActiveLanes, B.WorkActiveLanes);
  EXPECT_EQ(A.WorkTotalLanes, B.WorkTotalLanes);
  EXPECT_EQ(A.CommAccesses, B.CommAccesses);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Seconds, B.Seconds);
}

void expectSameTripNests(const RunStats &A, const RunStats &B) {
  ASSERT_EQ(A.TripNests.size(), B.TripNests.size());
  for (size_t I = 0; I < A.TripNests.size(); ++I) {
    const NestTripStats &X = A.TripNests[I], &Y = B.TripNests[I];
    EXPECT_EQ(X.Name, Y.Name);
    EXPECT_EQ(X.Depth, Y.Depth);
    EXPECT_EQ(X.Hist.Exact, Y.Hist.Exact) << X.Name;
    EXPECT_EQ(X.Hist.Log2, Y.Hist.Log2) << X.Name;
    EXPECT_EQ(X.Hist.Samples, Y.Hist.Samples) << X.Name;
    EXPECT_EQ(X.Hist.Sum, Y.Hist.Sum) << X.Name;
    EXPECT_EQ(X.Hist.Max, Y.Hist.Max) << X.Name;
  }
}

void expectSameTrap(const Trap &A, const Trap &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Lanes, B.Lanes);
  EXPECT_EQ(A.Location, B.Location);
  EXPECT_EQ(A.Detail, B.Detail);
}

constexpr Engine AllEngines[] = {Engine::Tree, Engine::Bytecode,
                                 Engine::Native};

TEST(NativeEngine, FlattenedExampleEngineEquivalence) {
  // The paper's flattened EXAMPLE with a recorded trace: stores, stats,
  // step-by-step trace values/masks and trip histograms must be
  // identical across all three engines.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(2, machine::Layout::Cyclic);
  SimdRunResult R[3];
  std::vector<int64_t> X[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.WorkTargets = {"X"};
    O.Watch = {"i", "j"};
    O.Eng = E;
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    R[I] = Interp.run().value();
    X[I] = Interp.store().getIntArray("X");
    ++I;
  }
  for (int J : {1, 2}) {
    EXPECT_EQ(X[0], X[J]) << engineName(AllEngines[J]);
    expectSameStats(R[0].Stats, R[J].Stats);
    ASSERT_EQ(R[0].Tr.Steps.size(), R[J].Tr.Steps.size());
    for (size_t S = 0; S < R[0].Tr.Steps.size(); ++S) {
      EXPECT_EQ(R[0].Tr.Steps[S].Values, R[J].Tr.Steps[S].Values);
      EXPECT_EQ(R[0].Tr.Steps[S].Active, R[J].Tr.Steps[S].Active);
    }
  }
  // Trip histograms: tree records none; the lowered engines agree
  // bitwise among themselves.
  expectSameTripNests(R[1].Stats, R[2].Stats);
  // When this build can JIT, the run must actually have gone native.
  if (codegen::nativeAvailable()) {
    EXPECT_EQ(R[2].EngineUsed, Engine::Native);
  } else {
    EXPECT_EQ(R[2].EngineUsed, Engine::Bytecode);
  }
}

TEST(NativeEngine, OutOfBoundsTrapIdentity) {
  // A lane-varying gather where some active lane runs off the end: the
  // native module must collect the same faulting lane set and render
  // the same location/detail as every other engine.
  Program P("oob");
  P.setDialect(Dialect::F90Simd);
  P.addVar("A", ScalarKind::Int, {4}, Dist::Distributed);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  // Lane 4 reads A(5): out of bounds on an active lane.
  P.body().push_back(
      B.set("v", B.at("A", B.add(B.var("v"), B.lit(1)))));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    SimdInterp Interp(P, M, nullptr, O);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::OutOfBounds);
  EXPECT_EQ(T[0].Lanes, (std::vector<int64_t>{3}));
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);
}

TEST(NativeEngine, FuelTrapIdentity) {
  // The watchdog fires after the same charged instruction under every
  // engine - the native module counts charges exactly like charge().
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    O.Fuel = 25;
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::FuelExhausted);
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);
}

TEST(NativeEngine, ExternCallsPerActiveLaneInOrder) {
  // Extern invocation order, arguments, and work-call accounting cross
  // the ABI: the host-side CallLane must replay the interpreter's
  // per-active-lane order exactly.
  Program P("sub");
  P.setDialect(Dialect::F90Simd);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  P.addExtern("Probe", ScalarKind::Int, /*Pure=*/false,
              /*IsSubroutine=*/true);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  std::vector<ExprPtr> Args;
  Args.push_back(B.var("v"));
  P.body().push_back(B.where(
      B.le(B.var("v"), B.lit(2)),
      Builder::body(B.callSub("Probe", std::move(Args)))));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  std::vector<int64_t> Logs[3];
  RunStats Stats[3];
  int I = 0;
  for (Engine E : AllEngines) {
    ExternRegistry Reg;
    std::vector<int64_t> &Seen = Logs[I];
    Reg.bind(
        "Probe",
        [&Seen](std::span<const ScalVal> A) {
          Seen.push_back(A[0].I);
          return ScalVal::makeInt(0);
        },
        /*Cost=*/7.0);
    RunOptions O;
    O.Eng = E;
    O.WorkCalls = {"Probe"};
    SimdInterp Interp(P, M, &Reg, O);
    Stats[I] = Interp.run().value().Stats;
    ++I;
  }
  EXPECT_EQ(Logs[0], (std::vector<int64_t>{1, 2}));
  for (int J : {1, 2}) {
    EXPECT_EQ(Logs[0], Logs[J]) << engineName(AllEngines[J]);
    expectSameStats(Stats[0], Stats[J]);
  }
}

TEST(NativeEngine, ExternFailureTrapIdentity) {
  // A throwing extern: ExternFailure with the failing lane, identical
  // detail text, after the same committed prefix of calls.
  Program P("fail");
  P.setDialect(Dialect::F90Simd);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  P.addExtern("Probe", ScalarKind::Int, /*Pure=*/false,
              /*IsSubroutine=*/true);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  std::vector<ExprPtr> Args;
  Args.push_back(B.var("v"));
  P.body().push_back(B.callSub("Probe", std::move(Args)));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  std::vector<int64_t> Logs[3];
  int I = 0;
  for (Engine E : AllEngines) {
    ExternRegistry Reg;
    std::vector<int64_t> &Seen = Logs[I];
    Reg.bind("Probe", [&Seen](std::span<const ScalVal> A) {
      if (A[0].I == 3)
        throw ExternError{"lane three refuses"};
      Seen.push_back(A[0].I);
      return ScalVal::makeInt(0);
    });
    RunOptions O;
    O.Eng = E;
    SimdInterp Interp(P, M, &Reg, O);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::ExternFailure);
  EXPECT_EQ(T[0].Lanes, (std::vector<int64_t>{2}));
  for (int J : {1, 2}) {
    expectSameTrap(T[0], T[J]);
    EXPECT_EQ(Logs[0], Logs[J]);
  }
}

TEST(NativeEngine, ExpiredDeadlineTrapIdentity) {
  // A deadline already in the past traps at the first poll point with
  // the same statement location and detail under every engine.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    O.Deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(5);
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::DeadlineExpired);
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);
}

TEST(NativeEngine, BlockLayoutForall) {
  // Block layout exercises the other FaLayerMask/laneOf emission path.
  Program P("fb");
  P.setDialect(Dialect::F90Simd);
  P.addVar("A", ScalarKind::Int, {10}, Dist::Distributed);
  P.addVar("e", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.forall(
      "e", B.lit(1), B.lit(10), nullptr,
      Builder::body(B.assign(B.at("A", B.var("e")),
                             B.mul(B.var("e"), B.lit(3))))));
  machine::MachineConfig M = lanes(4, machine::Layout::Block);
  std::vector<int64_t> Want;
  for (int64_t E = 1; E <= 10; ++E)
    Want.push_back(3 * E);
  RunStats Stats[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    SimdInterp Interp(P, M, nullptr, O);
    Stats[I] = Interp.run().value().Stats;
    EXPECT_EQ(Interp.store().getIntArray("A"), Want) << engineName(E);
    EXPECT_EQ(Stats[I].CommAccesses, 0) << engineName(E);
    ++I;
  }
  for (int J : {1, 2})
    expectSameStats(Stats[0], Stats[J]);
}

TEST(NativeEngine, DegradesToBytecodeWithoutCompiler) {
  // Pointing the JIT at a nonexistent compiler and an uncreatable
  // artifact directory (so no prior on-disk .so can satisfy the build
  // either) must not fail the run: the result is computed by the
  // bytecode engine and EngineUsed says so. Uses a distinct lane count
  // so no earlier test's in-process memo can satisfy this program.
  ::setenv("SIMDFLAT_JIT_CC", "/nonexistent/compiler-for-fallback-test",
           1);
  ::setenv("SIMDFLAT_JIT_DIR", "/dev/null/no-jit-dir", 1);
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(8, machine::Layout::Cyclic);
  RunOptions O;
  O.Eng = Engine::Native;
  SimdInterp Interp(C->Prog, M, nullptr, O);
  Interp.setCompiled(C->Code);
  Interp.store().setInt("K", Spec.K);
  Interp.store().setIntArray("L", Spec.L);
  SimdRunResult R = Interp.run().value();
  ::unsetenv("SIMDFLAT_JIT_CC");
  ::unsetenv("SIMDFLAT_JIT_DIR");
  EXPECT_EQ(R.EngineUsed, Engine::Bytecode);
  EXPECT_GT(R.Stats.Instructions, 0);
  // The failed compile is a cached outcome, visible in the stats.
  if (codegen::jitAvailable()) {
    EXPECT_GE(codegen::jitStats().Failures, 1);
  }
}

} // namespace
