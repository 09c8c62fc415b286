//===- tests/exec/LaneEdgeTest.cpp -----------------------------*- C++ -*-===//
//
// Per-lane value edges, beyond the generic engine-equivalence sweeps:
// real arithmetic (including the NaN/-0.0/denormal-sensitive
// MAX/MIN/DIV/SQRT paths) is bitwise identical across engines, masked
// WHERE commits keep idle lanes' bits exactly, a negative SQRT operand
// traps on the same active lanes, and a padded tail (N not divisible
// by the machine width) charges idle lane slots without ever counting
// them active - on every engine. When the build can JIT, the native
// runs must really have gone native.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeEngine.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>

using namespace simdflat;
using namespace simdflat::interp;

namespace {

constexpr Engine AllEngines[] = {Engine::Tree, Engine::Bytecode,
                                 Engine::Native};

/// Bitwise equality for doubles: distinguishes -0.0 from 0.0 and treats
/// identical NaN payloads as equal, which value comparison cannot.
bool bitwiseEqual(const std::vector<double> &A,
                  const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

struct SimdRun {
  SimdRunResult R;
  std::map<std::string, std::vector<double>> RealArrays;
  std::map<std::string, std::vector<int64_t>> IntArrays;
};

/// Compiles \p Source through the full pipeline and runs it on a 4-lane
/// machine under \p E, seeding the named arrays first.
SimdRun runSource(
    const std::string &Source, Engine E,
    const std::map<std::string, std::vector<double>> &SeedReals = {},
    const std::map<std::string, std::vector<int64_t>> &SeedInts = {},
    const std::vector<std::string> &WorkTargets = {}) {
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
  O.WorkTargets = WorkTargets;
  SimdInterp Interp(C->Prog, M, nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C->Code);
  for (const auto &[Name, V] : SeedReals)
    Interp.store().setRealArray(Name, V);
  for (const auto &[Name, V] : SeedInts)
    Interp.store().setIntArray(Name, V);
  SimdRun Out;
  auto R = Interp.run();
  EXPECT_TRUE(static_cast<bool>(R))
      << engineName(E) << ": " << (R ? "" : R.error().render());
  if (R)
    Out.R = std::move(*R);
  if (E == Engine::Native && codegen::nativeAvailable()) {
    EXPECT_EQ(Out.R.EngineUsed, Engine::Native);
  }
  for (const auto &[Name, V] : SeedReals)
    Out.RealArrays[Name] = Interp.store().getRealArray(Name);
  for (const auto &[Name, V] : SeedInts)
    Out.IntArrays[Name] = Interp.store().getIntArray(Name);
  return Out;
}

TEST(LaneEdge, PaddedTailNeverCountsActive) {
  // 6 trips on a 4-lane machine: layer 1 full, layer 2 half idle. Every
  // engine must report 2 work steps covering 8 lane slots of which
  // exactly 6 were active - the padded tail charges the total but can
  // never count as active work (75% utilization, not 100%).
  const char *Source = "PROGRAM PAD\n"
                       "DISTRIBUTED INTEGER A(6)\n"
                       "INTEGER j\n"
                       "BEGIN\n"
                       "  DOALL j = 1, 6\n"
                       "    A(j) = j * j\n"
                       "  ENDDO\n"
                       "END\n";
  for (Engine E : AllEngines) {
    SimdRun Out = runSource(Source, E, {}, {{"A", std::vector<int64_t>(6)}},
                            {"A"});
    EXPECT_EQ(Out.R.Stats.WorkSteps, 2) << engineName(E);
    EXPECT_EQ(Out.R.Stats.WorkActiveLanes, 6) << engineName(E);
    EXPECT_EQ(Out.R.Stats.WorkTotalLanes, 8) << engineName(E);
    EXPECT_DOUBLE_EQ(Out.R.Stats.workUtilization(), 0.75) << engineName(E);
    EXPECT_TRUE(Out.R.Stats.laneAccountingConsistent()) << engineName(E);
    EXPECT_EQ(Out.IntArrays["A"],
              (std::vector<int64_t>{1, 4, 9, 16, 25, 36}))
        << engineName(E);
  }
}

TEST(LaneEdge, RealKernelsBitIdentical) {
  // One expression soup over the value cases where vector instructions
  // and scalar C++ can legitimately disagree: signed zero (negation,
  // division), denormals, huge magnitudes, infinities, NaN operands,
  // divide-by-zero (defined to 0.0 here), MAX/MIN (NaN ordering), ABS,
  // SQRT. The result arrays must be bitwise equal across all engines.
  const char *Source =
      "PROGRAM RK\n"
      "DISTRIBUTED REAL A(12)\n"
      "DISTRIBUTED REAL B(12)\n"
      "DISTRIBUTED REAL C(12)\n"
      "DISTRIBUTED REAL D(12)\n"
      "DISTRIBUTED REAL E(12)\n"
      "DISTRIBUTED REAL F(12)\n"
      "INTEGER k\n"
      "BEGIN\n"
      "  DOALL k = 1, 12\n"
      "    C(k) = (A(k) + B(k)) * A(k) - B(k) / A(k)\n"
      "    D(k) = MAX(A(k), B(k)) + MIN(A(k), B(k)) - (-A(k))\n"
      "    D(k) = D(k) + ABS(B(k)) + SQRT(ABS(A(k)))\n"
      "    E(k) = MAX(A(k), B(k))\n"
      "    F(k) = MIN(A(k), B(k))\n"
      "  ENDDO\n"
      "END\n";
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  std::map<std::string, std::vector<double>> Seeds = {
      {"A", {1.5, -2.25, 0.0, 5e-324, -0.0, 3.75, 1e300, -5.5, NaN, 2.0,
             -Inf, NaN}},
      {"B", {-0.0, 0.5, -1.25, 0.0, 2.0, -7.5, 1e-300, 4.25, 3.0, NaN, Inf,
             -0.0}},
      {"C", std::vector<double>(12, 0.0)},
      {"D", std::vector<double>(12, 0.0)},
      {"E", std::vector<double>(12, 0.0)},
      {"F", std::vector<double>(12, 0.0)},
  };
  SimdRun Ref = runSource(Source, Engine::Tree, Seeds);
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    SimdRun Got = runSource(Source, E, Seeds);
    EXPECT_TRUE(bitwiseEqual(Ref.RealArrays["C"], Got.RealArrays["C"]))
        << engineName(E);
    EXPECT_TRUE(bitwiseEqual(Ref.RealArrays["D"], Got.RealArrays["D"]))
        << engineName(E);
    // MAX/MIN stored on their own, so a NaN operand's position decides
    // the result instead of being swamped by later NaN arithmetic.
    EXPECT_TRUE(bitwiseEqual(Ref.RealArrays["E"], Got.RealArrays["E"]))
        << engineName(E);
    EXPECT_TRUE(bitwiseEqual(Ref.RealArrays["F"], Got.RealArrays["F"]))
        << engineName(E);
    EXPECT_EQ(Ref.R.Stats.Instructions, Got.R.Stats.Instructions)
        << engineName(E);
    EXPECT_EQ(Ref.R.Stats.Cycles, Got.R.Stats.Cycles) << engineName(E);
  }
}

TEST(LaneEdge, MaskedWhereBlendsExactly) {
  // Divergent WHERE/ELSEWHERE: idle lanes must keep their old bits
  // exactly (including a -0.0 that a sloppy blend could renormalize,
  // and a NaN, which fails the comparison and so stays idle).
  const char *Source = "PROGRAM WB\n"
                       "DISTRIBUTED REAL V(8)\n"
                       "DISTRIBUTED INTEGER W(8)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 8\n"
                       "    WHERE (V(k) > 0.5)\n"
                       "      V(k) = V(k) * 2.0\n"
                       "      W(k) = k\n"
                       "    ELSEWHERE\n"
                       "      W(k) = -k\n"
                       "    ENDWHERE\n"
                       "  ENDDO\n"
                       "END\n";
  std::map<std::string, std::vector<double>> Seeds = {
      {"V", {1.0, 0.25, -0.0, 2.5, 0.5, 7.75,
             std::numeric_limits<double>::quiet_NaN(), 0.75}},
  };
  std::map<std::string, std::vector<int64_t>> IntSeeds = {
      {"W", std::vector<int64_t>(8, 0)},
  };
  SimdRun Ref = runSource(Source, Engine::Tree, Seeds, IntSeeds);
  EXPECT_EQ(Ref.IntArrays["W"],
            (std::vector<int64_t>{1, -2, -3, 4, -5, 6, -7, 8}));
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    SimdRun Got = runSource(Source, E, Seeds, IntSeeds);
    EXPECT_TRUE(bitwiseEqual(Ref.RealArrays["V"], Got.RealArrays["V"]))
        << engineName(E);
    EXPECT_EQ(Ref.IntArrays["W"], Got.IntArrays["W"]) << engineName(E);
  }
}

TEST(LaneEdge, SqrtNegativeActiveLaneTrapsIdentically) {
  // SQRT has a fast path (no negative anywhere) and a trap-collecting
  // sweep; force the sweep and require the same per-lane trap set as
  // the tree reference.
  const char *Source = "PROGRAM SN\n"
                       "DISTRIBUTED REAL A(4)\n"
                       "DISTRIBUTED REAL B(4)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 4\n"
                       "    B(k) = SQRT(A(k))\n"
                       "  ENDDO\n"
                       "END\n";
  auto RunIt = [&](Engine E) {
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
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    const std::vector<double> A = {4.0, -1.0, 9.0, -16.0};
    Interp.store().setRealArray("A", A);
    Interp.store().setRealArray("B", std::vector<double>(4, 0.0));
    return Interp.run();
  };
  auto Tree = RunIt(Engine::Tree);
  ASSERT_FALSE(static_cast<bool>(Tree));
  EXPECT_EQ(Tree.error().Kind, TrapKind::DomainError);
  EXPECT_EQ(Tree.error().Lanes, (std::vector<int64_t>{1, 3}));
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = RunIt(E);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    EXPECT_EQ(Tree.error().Kind, Got.error().Kind) << engineName(E);
    EXPECT_EQ(Tree.error().Lanes, Got.error().Lanes) << engineName(E);
    EXPECT_EQ(Tree.error().Detail, Got.error().Detail) << engineName(E);
  }
}

} // namespace
