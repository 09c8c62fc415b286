//===- tests/codegen/CppEmitterTest.cpp ------------------------*- C++ -*-===//
//
// Contract tests for codegen::emitCpp and the JitCache keying layer
// that do not need a host toolchain: which programs the emitter
// accepts, what the generated TU must structurally contain, and that
// source keys are stable and content-sensitive.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "codegen/JitCache.h"
#include "exec/Lower.h"
#include "transform/Pipeline.h"
#include "workloads/Mandelbrot.h"
#include "workloads/PaperKernels.h"
#include "workloads/RegionGrow.h"
#include "workloads/SpMV.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::workloads;

namespace {

std::string emitExample() {
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(
      makeExample(paperExampleSpec()), PO);
  EXPECT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  return codegen::emitCpp(*C->Code, C->Prog, M);
}

TEST(CppEmitter, SimdProgramEmitsEntryAndAbiGuard) {
  std::string Src = emitExample();
  ASSERT_FALSE(Src.empty());
  // Structural landmarks the loader and the ABI contract rely on.
  EXPECT_NE(Src.find("simdflat_native_run"), std::string::npos);
  EXPECT_NE(Src.find("SfContext"), std::string::npos);
  EXPECT_NE(Src.find("AbiVersion"), std::string::npos);
  EXPECT_NE(Src.find("return 1;"), std::string::npos);
  // Masked execution scaffolding must be present.
  EXPECT_NE(Src.find("MaskCur"), std::string::npos);
  // Real-constant pools are emitted as bit-exact hexfloat literals.
  EXPECT_EQ(Src.find("e+0"), std::string::npos)
      << "decimal real literal leaked into generated source";
}

TEST(CppEmitter, EmissionIsDeterministic) {
  EXPECT_EQ(emitExample(), emitExample());
}

TEST(CppEmitter, PaperKernelsEmitHeaderFreeTranslationUnits) {
  // The emitted TU declares the little it uses itself: parsing the
  // standard headers cost more host-compile time than the generated
  // code. No #include and no std:: at any lane count or layout.
  transform::PipelineOptions MinOne;
  MinOne.AssumeInnerMinOneTrip = true;
  const std::pair<ir::Program, transform::PipelineOptions> Kernels[] = {
      {makeExample(paperExampleSpec()), MinOne},
      {mandelbrotF77(MandelbrotSpec()), MinOne},
      {regionGrowF77(6, 9), transform::PipelineOptions()},
      {spmvF77(16, 64), transform::PipelineOptions()},
  };
  for (const auto &[Prog, Opts] : Kernels) {
    for (machine::Layout L : {machine::Layout::Cyclic, machine::Layout::Block}) {
      transform::PipelineOptions PO = Opts;
      PO.Layout = L;
      auto C = transform::compileForSimdExec(Prog, PO);
      ASSERT_TRUE(static_cast<bool>(C)) << Prog.name();
      for (int64_t Lanes : {1, 3, 64, 1024}) {
        machine::MachineConfig M;
        M.Processors = Lanes;
        M.Gran = Lanes;
        M.DataLayout = L;
        std::string Src = codegen::emitCpp(*C->Code, C->Prog, M);
        ASSERT_FALSE(Src.empty()) << Prog.name() << " lanes " << Lanes;
        EXPECT_EQ(Src.find("#include"), std::string::npos)
            << Prog.name() << " lanes " << Lanes;
        EXPECT_EQ(Src.find("std::"), std::string::npos)
            << Prog.name() << " lanes " << Lanes;
      }
    }
  }
}

TEST(CppEmitter, ScalarModeProgramIsRejected) {
  // The native tier only implements the SIMD policy; a scalar-mode
  // lowering must yield "" so the dispatcher falls back to bytecode.
  ir::Program P = makeExample(paperExampleSpec());
  exec::Program EP = exec::lower(P, exec::Mode::Scalar);
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  EXPECT_EQ(codegen::emitCpp(EP, P, M), "");
}

TEST(JitCache, SourceKeyStableAndContentSensitive) {
  std::string A = "int f() { return 1; }";
  EXPECT_EQ(codegen::sourceKey(A), codegen::sourceKey(A));
  EXPECT_NE(codegen::sourceKey(A),
            codegen::sourceKey("int f() { return 2; }"));
}

TEST(JitCache, AvailabilityMatchesBuildConfig) {
  // jitAvailable() may be false (SIMDFLAT_ENABLE_JIT=OFF), but must be
  // callable and stable either way.
  EXPECT_EQ(codegen::jitAvailable(), codegen::jitAvailable());
}

} // namespace
