//===- tests/exec/FuelEdgeTest.cpp -----------------------------*- C++ -*-===//
//
// Fuel-budget edge semantics, pinned across all three engines: Fuel = 0
// is unlimited, a budget of exactly the program's instruction count
// completes while one less traps, and SIMD trap *sets* (the per-lane
// Lanes vector, location and detail) are identical between the tree
// reference, the bytecode engine and the native tier. The serving
// core leans on these edges: MaxFuel admission and FuelExhausted
// replies are only deterministic if every engine charges identically.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::workloads;

namespace {

void expectSameTrap(const Trap &A, const Trap &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Lanes, B.Lanes);
  EXPECT_EQ(A.Location, B.Location);
  EXPECT_EQ(A.Detail, B.Detail);
}

/// Runs the paper example on the scalar interpreter with \p Fuel;
/// returns the outcome.
RunOutcome<ScalarRunResult> runScalar(Engine E, int64_t Fuel) {
  ExampleSpec Spec = paperExampleSpec();
  ir::Program P = makeExample(Spec);
  RunOptions O;
  O.Eng = E;
  O.Fuel = Fuel;
  ScalarInterp Interp(P, machine::MachineConfig::sparc2(), nullptr, O);
  Interp.store().setInt("K", Spec.K);
  Interp.store().setIntArray("L", Spec.L);
  return Interp.run();
}

TEST(FuelEdge, ZeroFuelIsUnlimited) {
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    auto R = runScalar(E, 0);
    ASSERT_TRUE(static_cast<bool>(R))
        << engineName(E) << ": " << R.error().render();
    EXPECT_GT(R->Stats.Instructions, 0) << engineName(E);
  }
}

TEST(FuelEdge, ExactBudgetCompletesOneLessTraps) {
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    // Total charge of the unlimited run...
    auto Free = runScalar(E, 0);
    ASSERT_TRUE(static_cast<bool>(Free)) << engineName(E);
    int64_t Total = Free->Stats.Instructions;
    ASSERT_GT(Total, 1) << engineName(E);

    // ...is exactly enough fuel: the last instruction does not trap.
    auto Exact = runScalar(E, Total);
    ASSERT_TRUE(static_cast<bool>(Exact))
        << engineName(E) << ": a budget of the full instruction count "
        << "must complete, got " << Exact.error().render();
    EXPECT_EQ(Exact->Stats.Instructions, Total) << engineName(E);

    // One unit less traps, with the spent budget in the detail.
    auto Starved = runScalar(E, Total - 1);
    ASSERT_FALSE(static_cast<bool>(Starved)) << engineName(E);
    EXPECT_EQ(Starved.error().Kind, TrapKind::FuelExhausted)
        << engineName(E);
  }
}

TEST(FuelEdge, ExhaustionTrapIdenticalAcrossEngines) {
  auto Free = runScalar(Engine::Tree, 0);
  ASSERT_TRUE(static_cast<bool>(Free));
  int64_t Budget = Free->Stats.Instructions / 2;
  auto Tree = runScalar(Engine::Tree, Budget);
  ASSERT_FALSE(static_cast<bool>(Tree));
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = runScalar(E, Budget);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    expectSameTrap(Tree.error(), Got.error());
  }
}

/// Compiles \p Source through the full pipeline and runs it on the
/// 4-lane SIMD machine with \p Fuel; returns the outcome per engine.
RunOutcome<SimdRunResult> runSimd(const std::string &Source, Engine E,
                                  int64_t Fuel) {
  frontend::ParseResult PR = frontend::parseProgram(Source);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  machine::MachineConfig M;
  M.Name = "test-4";
  M.Processors = 4;
  M.Gran = 4;
  M.DataLayout = machine::Layout::Cyclic;
  RunOptions O;
  O.Eng = E;
  O.Fuel = Fuel;
  SimdInterp Interp(C->Prog, M, nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C->Code);
  const std::vector<int64_t> L = {1, 2, 9, 3};
  Interp.store().setIntArray("L", L);
  return Interp.run();
}

constexpr const char *PerLaneOobSource =
    "PROGRAM LANES\n"
    "DISTRIBUTED INTEGER A(8)\n"
    "DISTRIBUTED INTEGER L(4)\n"
    "INTEGER j\n"
    "BEGIN\n"
    "  DOALL j = 1, 4\n"
    "    A(L(j)) = j\n"
    "  ENDDO\n"
    "END\n";

TEST(FuelEdge, SimdPerLaneTrapSetEquality) {
  // L(3) = 9 sends exactly one lane out of A's extent: the trap's lane
  // set, location chain and detail must match across all engines.
  auto Tree = runSimd(PerLaneOobSource, Engine::Tree, 0);
  ASSERT_FALSE(static_cast<bool>(Tree));
  EXPECT_EQ(Tree.error().Kind, TrapKind::OutOfBounds);
  ASSERT_FALSE(Tree.error().Lanes.empty())
      << "an OOB store under SIMD must name the faulting lane(s)";
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = runSimd(PerLaneOobSource, E, 0);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    expectSameTrap(Tree.error(), Got.error());
  }
}

TEST(FuelEdge, SimdFuelTrapSetEquality) {
  // Starve the same SIMD program of fuel before the trapping store so
  // every engine reports the identical FuelExhausted trap instead.
  auto Tree = runSimd(PerLaneOobSource, Engine::Tree, 2);
  ASSERT_FALSE(static_cast<bool>(Tree));
  EXPECT_EQ(Tree.error().Kind, TrapKind::FuelExhausted);
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = runSimd(PerLaneOobSource, E, 2);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    expectSameTrap(Tree.error(), Got.error());
  }
}

/// Runs PerLaneOobSource with a deadline that expired before the run
/// started: the DeadlineExpired trap must fire at the first poll point
/// (instruction 1) with identical location and detail on all engines.
RunOutcome<SimdRunResult> runSimdExpired(Engine E) {
  frontend::ParseResult PR = frontend::parseProgram(PerLaneOobSource);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  machine::MachineConfig M;
  M.Name = "test-4";
  M.Processors = 4;
  M.Gran = 4;
  M.DataLayout = machine::Layout::Cyclic;
  RunOptions O;
  O.Eng = E;
  O.Deadline = std::chrono::steady_clock::now() -
               std::chrono::milliseconds(10);
  SimdInterp Interp(C->Prog, M, nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C->Code);
  const std::vector<int64_t> L = {1, 2, 9, 3};
  Interp.store().setIntArray("L", L);
  return Interp.run();
}

TEST(FuelEdge, DeadlineTrapIdenticalAcrossEngines) {
  auto Tree = runSimdExpired(Engine::Tree);
  ASSERT_FALSE(static_cast<bool>(Tree));
  EXPECT_EQ(Tree.error().Kind, TrapKind::DeadlineExpired);
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = runSimdExpired(E);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    expectSameTrap(Tree.error(), Got.error());
  }
}

} // namespace
