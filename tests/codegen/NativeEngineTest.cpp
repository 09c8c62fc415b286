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
#include "exec/Lower.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/Mandelbrot.h"
#include "workloads/PaperKernels.h"

#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

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

/// A fresh, empty directory under the test temp dir.
std::filesystem::path freshDir(const std::string &Tag) {
  std::string Templ = testing::TempDir() + "/simdflat-" + Tag + "-XXXXXX";
  if (!::mkdtemp(Templ.data()))
    return {};
  return Templ;
}

/// Writes an executable /bin/sh script with \p Body at \p Path.
void writeScript(const std::filesystem::path &Path, const std::string &Body) {
  {
    std::ofstream Out(Path);
    Out << "#!/bin/sh\n" << Body;
  }
  std::filesystem::permissions(Path, std::filesystem::perms::owner_all);
}

/// Sets an environment variable for one scope.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    ::setenv(Name, Value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(Name); }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *Name;
};

/// Bit patterns of \p V, so -0.0 and NaN payloads compare exactly.
std::vector<uint64_t> bits(const std::vector<double> &V) {
  std::vector<uint64_t> B(V.size());
  if (!V.empty())
    std::memcpy(B.data(), V.data(), V.size() * sizeof(double));
  return B;
}

/// Every slot's payload, bit for bit.
void expectSameStore(const DataStore &A, const DataStore &B,
                     const Program &P) {
  for (const VarDecl &D : P.vars()) {
    EXPECT_EQ(A.slot(D.Name).I, B.slot(D.Name).I) << D.Name;
    EXPECT_EQ(bits(A.slot(D.Name).R), bits(B.slot(D.Name).R)) << D.Name;
  }
}

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

TEST(NativeEngine, LoopLimitTrapIdentity) {
  // The native module renders the loop-iteration backstop's detail into
  // a buffer sized at emit time: a program name longer than 128 bytes
  // and the most negative limit must still come out byte-identical.
  ExampleSpec Spec = paperExampleSpec();
  Program Src = makeExample(Spec);
  const std::string Name = std::string(150, 'N') + "_LONG_NAME";
  Src.setName(Name);
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(Src, PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  for (int64_t Limit : {int64_t{3}, INT64_MIN}) {
    Trap T[3];
    int I = 0;
    for (Engine E : AllEngines) {
      RunOptions O;
      O.Eng = E;
      O.MaxLoopIterations = Limit;
      SimdInterp Interp(C->Prog, M, nullptr, O);
      if (E != Engine::Tree)
        Interp.setCompiled(C->Code);
      Interp.store().setInt("K", Spec.K);
      Interp.store().setIntArray("L", Spec.L);
      auto R = Interp.run();
      ASSERT_FALSE(R) << engineName(E) << " limit " << Limit;
      T[I++] = R.error();
    }
    EXPECT_EQ(T[0].Kind, TrapKind::FuelExhausted);
    EXPECT_NE(T[0].Detail.find(std::to_string(Limit) + " exceeded in '" +
                               Name + "'"),
              std::string::npos)
        << T[0].Detail;
    for (int J : {1, 2})
      expectSameTrap(T[0], T[J]);
  }
}

TEST(NativeEngine, NonUniformControlTrapIdentity) {
  // A lane-varying WHILE condition traps with the divergent lanes under
  // every engine. The native module builds the detail in a buffer
  // sized by the longest control message, so the same run is repeated
  // on a lowering whose message is longer than 256 bytes (the lowering
  // only interns short fixed texts; the tree engine has its own, so
  // that leg compares bytecode and native).
  Program P("nonuniform");
  P.setDialect(Dialect::F90Simd);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  P.body().push_back(
      B.whileLoop(B.lt(B.var("v"), B.lit(3)),
                  Builder::body(B.set("v", B.add(B.var("v"), B.lit(1))))));
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
  EXPECT_EQ(T[0].Kind, TrapKind::NonUniformControl);
  EXPECT_EQ(T[0].Lanes, (std::vector<int64_t>{2, 3}));
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);

  const std::string Short = "WHILE condition";
  ASSERT_EQ(T[0].Detail.rfind(Short, 0), 0u) << T[0].Detail;
  const std::string Long = Short + " " + std::string(300, 'w');
  exec::Program Doctored = exec::lower(P, exec::Mode::Simd);
  int Replaced = 0;
  for (std::string &Msg : Doctored.Msgs)
    if (Msg == Short) {
      Msg = Long;
      ++Replaced;
    }
  ASSERT_EQ(Replaced, 1);
  auto Code = std::make_shared<const exec::Program>(std::move(Doctored));
  Trap LT[2];
  I = 0;
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    RunOptions O;
    O.Eng = E;
    SimdInterp Interp(P, M, nullptr, O);
    Interp.setCompiled(Code);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    LT[I++] = R.error();
  }
  EXPECT_EQ(LT[0].Detail, Long + T[0].Detail.substr(Short.size()));
  EXPECT_EQ(LT[0].Lanes, T[0].Lanes);
  expectSameTrap(LT[0], LT[1]);
}

TEST(NativeEngine, ThousandLanesMatchBytecode) {
  // At 1024 lanes the register file alone is hundreds of kilobytes, so
  // the module's per-run scratch must live on the heap. Every pixel of
  // a 32x32 Mandelbrot gets its own lane.
  MandelbrotSpec Spec;
  Spec.Width = 32;
  Spec.Height = 32;
  Spec.MaxIter = 24;
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(mandelbrotF77(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(1024, machine::Layout::Cyclic);
  SimdRunResult R[2];
  std::vector<int64_t> It[2];
  int I = 0;
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    RunOptions O;
    O.Eng = E;
    O.WorkTargets = {"tmp"};
    SimdInterp Interp(C->Prog, M, nullptr, O);
    Interp.setCompiled(C->Code);
    Interp.store().setInt("maxIter", Spec.MaxIter);
    R[I] = Interp.run().value();
    It[I] = Interp.store().getIntArray("IT");
    ++I;
  }
  EXPECT_EQ(It[0], mandelbrotIterations(Spec));
  EXPECT_EQ(It[0], It[1]);
  expectSameStats(R[0].Stats, R[1].Stats);
  expectSameTripNests(R[0].Stats, R[1].Stats);
  if (codegen::nativeAvailable()) {
    EXPECT_EQ(R[1].EngineUsed, Engine::Native);
  }
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

TEST(NativeEngine, ConcurrentProcessesShareOneArtifactDir) {
  // Two processes compile the same never-seen program into one fresh
  // SIMDFLAT_JIT_DIR at the same moment (as test binaries run in
  // parallel do on the default directory). Each must load a module and
  // get bit-identical results, and no temp file may outlive the race.
  // The compiler is wrapped to linger one second after writing its
  // output, so both compiles have finished before either renames: a
  // temp name shared between the processes cannot survive that.
  if (!codegen::nativeAvailable())
    GTEST_SKIP() << "no JIT in this build";
  const std::filesystem::path Root = freshDir("jit-race");
  ASSERT_FALSE(Root.empty());
  const std::filesystem::path Dir = Root / "jit";
  const std::filesystem::path Cc = Root / "slow-cc.sh";
  writeScript(Cc, std::string("\"") + SIMDFLAT_TEST_CXX +
                      "\" \"$@\" || exit $?\nsleep 1\n");
  ::setenv("SIMDFLAT_JIT_DIR", Dir.c_str(), 1);
  ::setenv("SIMDFLAT_JIT_CC", Cc.c_str(), 1);

  // K = 13 and 3 lanes appear in no other test, so neither this
  // process's in-memory cache nor the directory can hold the module.
  ExampleSpec Spec;
  Spec.K = 13;
  Spec.L = {5, 1, 4, 2, 7, 1, 3, 6, 2, 2, 9, 1, 4};
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  const machine::MachineConfig M = lanes(3, machine::Layout::Cyclic);

  int Go[2];
  ASSERT_EQ(::pipe(Go), 0);
  pid_t Kids[2];
  int Out[2];
  for (int K = 0; K < 2; ++K) {
    int P[2];
    ASSERT_EQ(::pipe(P), 0);
    Kids[K] = ::fork();
    ASSERT_GE(Kids[K], 0);
    if (Kids[K] == 0) {
      ::close(P[0]);
      ::close(Go[1]);
      char B;
      if (::read(Go[0], &B, 1) != 1)
        ::_exit(3);
      codegen::JitStats Before = codegen::jitStats();
      RunOptions O;
      O.Eng = Engine::Native;
      O.WorkTargets = {"X"};
      SimdInterp Interp(C->Prog, M, nullptr, O);
      Interp.setCompiled(C->Code);
      Interp.store().setInt("K", Spec.K);
      Interp.store().setIntArray("L", Spec.L);
      SimdRunResult R = Interp.run().value();
      codegen::JitStats After = codegen::jitStats();
      // The module must come from this race (a compile, or the other
      // process's artifact), never from an inherited in-memory entry.
      char Buf[128];
      std::snprintf(
          Buf, sizeof(Buf), " loaded=%lld hits=%lld cycles=%a steps=%lld",
          static_cast<long long>(After.Compiles + After.DiskHits -
                                 Before.Compiles - Before.DiskHits),
          static_cast<long long>(After.Hits - Before.Hits), R.Stats.Cycles,
          static_cast<long long>(R.Stats.WorkSteps));
      std::string Res = engineName(R.EngineUsed);
      Res += Buf;
      // Appended piecewise: GCC 12's -O3 -Werror=restrict misfires on
      // `" " + std::to_string(V)`.
      for (int64_t V : Interp.store().getIntArray("X")) {
        Res += ' ';
        Res += std::to_string(V);
      }
      bool Wrote = ::write(P[1], Res.data(), Res.size()) ==
                   static_cast<ssize_t>(Res.size());
      ::_exit(Wrote ? 0 : 4);
    }
    ::close(P[1]);
    Out[K] = P[0];
  }
  ::close(Go[0]);
  ASSERT_EQ(::write(Go[1], "gg", 2), 2);
  ::close(Go[1]);

  std::string Res[2];
  for (int K = 0; K < 2; ++K) {
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(Out[K], Buf, sizeof(Buf))) > 0)
      Res[K].append(Buf, static_cast<size_t>(N));
    ::close(Out[K]);
    int Status = 0;
    ASSERT_EQ(::waitpid(Kids[K], &Status, 0), Kids[K]);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0) << Status;
  }
  ::unsetenv("SIMDFLAT_JIT_DIR");
  ::unsetenv("SIMDFLAT_JIT_CC");

  EXPECT_EQ(Res[0].rfind("native loaded=1 hits=0 ", 0), 0u) << Res[0];
  EXPECT_EQ(Res[0], Res[1]);
  int Modules = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    std::string Ext = E.path().extension().string();
    EXPECT_EQ(Name.find(".tmp"), std::string::npos) << Name;
    // Only the source and the module: a log would mean a failed compile.
    EXPECT_TRUE(Ext == ".so" || Ext == ".cpp") << Name;
    Modules += Ext == ".so";
  }
  EXPECT_EQ(Modules, 1);
  std::filesystem::remove_all(Root);
}

TEST(NativeEngine, EmittedTuCompilesWithoutStandardHeaders) {
  // The emitted TU must not need a single system header: compiled with
  // -nostdinc -nostdinc++ it still loads and matches the other engines
  // on a program that uses every library piece the prelude replaces
  // (INT64_MIN, abs, sqrt, max/min, the reduction identities).
  if (!codegen::nativeAvailable())
    GTEST_SKIP() << "no JIT in this build";
  const std::filesystem::path Root = freshDir("jit-nostdinc");
  ASSERT_FALSE(Root.empty());
  const std::filesystem::path Cc = Root / "nostdinc-cc.sh";
  writeScript(Cc, std::string("exec \"") + SIMDFLAT_TEST_CXX +
                      "\" -nostdinc -nostdinc++ \"$@\"\n");
  ScopedEnv JitDir("SIMDFLAT_JIT_DIR", (Root / "jit").string());
  ScopedEnv JitCc("SIMDFLAT_JIT_CC", Cc.string());

  Program P("prelude");
  P.setDialect(Dialect::F90Simd);
  for (const char *V : {"v", "m", "hi", "lo"})
    P.addVar(V, ScalarKind::Int, {}, Dist::Replicated);
  for (const char *V : {"r", "x", "big", "small"})
    P.addVar(V, ScalarKind::Real, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  P.body().push_back(B.set("m", B.add(B.lit(INT64_MIN), B.var("v"))));
  P.body().push_back(B.set("hi", B.maxRed(B.var("m"))));
  P.body().push_back(B.set("m", B.abs(B.var("m"))));
  P.body().push_back(B.set("lo", B.minRed(B.var("m"))));
  P.body().push_back(B.set("r", B.mul(B.lit(0.5), B.var("v"))));
  P.body().push_back(B.set("x", B.abs(B.neg(B.sqrt(B.var("r"))))));
  P.body().push_back(B.set("r", B.max(B.var("r"), B.lit(1.25))));
  P.body().push_back(B.set("v", B.min(B.var("v"), B.lit(2))));
  P.body().push_back(B.set("big", B.maxRed(B.var("x"))));
  P.body().push_back(B.set("small", B.minRed(B.var("r"))));
  machine::MachineConfig M = lanes(5, machine::Layout::Cyclic);

  codegen::JitStats Before = codegen::jitStats();
  std::unique_ptr<SimdInterp> Runs[3];
  SimdRunResult R[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    Runs[I] = std::make_unique<SimdInterp>(P, M, nullptr, O);
    R[I] = Runs[I]->run().value();
    ++I;
  }
  codegen::JitStats After = codegen::jitStats();
  EXPECT_EQ(R[2].EngineUsed, Engine::Native);
  EXPECT_EQ(After.Compiles - Before.Compiles, 1);
  EXPECT_EQ(After.Failures, Before.Failures);
  for (int J : {1, 2}) {
    expectSameStore(Runs[0]->store(), Runs[J]->store(), P);
    expectSameStats(R[0].Stats, R[J].Stats);
  }
  EXPECT_EQ(Runs[0]->store().getIntLane("hi", 0), INT64_MIN + 5);
  std::filesystem::remove_all(Root);
}

TEST(NativeEngine, CorruptedArtifactSourceForcesRecompile) {
  // An artifact is found on disk by a 64-bit hash of its file name, so
  // a module is reused only when the source saved beside it is the
  // requested source. Drill: a child process compiles into a fresh
  // directory, the saved source is damaged, and the next load here
  // must recompile (counted as stale) and stay bit-identical.
  if (!codegen::nativeAvailable())
    GTEST_SKIP() << "no JIT in this build";
  const std::filesystem::path Root = freshDir("jit-stale");
  ASSERT_FALSE(Root.empty());
  const std::filesystem::path Dir = Root / "jit";
  ScopedEnv JitDir("SIMDFLAT_JIT_DIR", Dir.string());

  // K = 11 and 5 lanes appear in no other test, so this process's
  // in-memory cache cannot hold the module.
  ExampleSpec Spec;
  Spec.K = 11;
  Spec.L = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  const machine::MachineConfig M = lanes(5, machine::Layout::Cyclic);
  auto Run = [&](Engine E, std::vector<int64_t> &X) {
    RunOptions O;
    O.Eng = E;
    O.WorkTargets = {"X"};
    SimdInterp Interp(C->Prog, M, nullptr, O);
    Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    SimdRunResult R = Interp.run().value();
    X = Interp.store().getIntArray("X");
    return R;
  };

  pid_t Kid = ::fork();
  ASSERT_GE(Kid, 0);
  if (Kid == 0) {
    std::vector<int64_t> X;
    ::_exit(Run(Engine::Native, X).EngineUsed == Engine::Native ? 0 : 1);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Kid, &Status, 0), Kid);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0) << Status;

  std::filesystem::path Cpp;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".cpp")
      Cpp = E.path();
  ASSERT_FALSE(Cpp.empty());
  const std::string Damage = "// damaged\n";
  std::ofstream(Cpp, std::ios::binary | std::ios::trunc) << Damage;

  codegen::JitStats Before = codegen::jitStats();
  std::vector<int64_t> X[2];
  SimdRunResult R[2] = {Run(Engine::Bytecode, X[0]),
                        Run(Engine::Native, X[1])};
  codegen::JitStats After = codegen::jitStats();
  EXPECT_EQ(R[1].EngineUsed, Engine::Native);
  EXPECT_EQ(After.StaleArtifacts - Before.StaleArtifacts, 1);
  EXPECT_EQ(After.Compiles - Before.Compiles, 1);
  EXPECT_EQ(After.DiskHits, Before.DiskHits);
  EXPECT_EQ(X[0], X[1]);
  expectSameStats(R[0].Stats, R[1].Stats);
  EXPECT_GT(std::filesystem::file_size(Cpp), Damage.size());
  std::filesystem::remove_all(Root);
}

} // namespace
