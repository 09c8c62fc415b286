//===- perfbench/Layers.cpp -----------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Requests.h"

#include "codegen/CppEmitter.h"
#include "codegen/JitCache.h"
#include "exec/Lower.h"
#include "frontend/GotoRecovery.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "interp/Store.h"
#include "ir/Printer.h"
#include "transform/Pipeline.h"

#include <memory>

using namespace simdbench;
using namespace simdflat;

namespace {

/// Times \p F as span \p Name; returns its duration.
template <typename Fn>
int64_t timed(TraceBuffer &B, const char *Name, uint64_t Req, int32_t Parent,
              Fn &&F) {
  int32_t Idx = B.open(Name, Req, Parent);
  F();
  return B.close(Idx);
}

} // namespace

ProbeResult simdbench::probeLayers(TraceBuffer &B, uint64_t Req,
                                   int32_t Parent, const serve::Request &R,
                                   const Item &I, interp::Engine Eng) {
  ProbeResult P;
  std::optional<ir::Program> Prog;
  P.ParseNs = timed(B, "frontend.parse", Req, Parent, [&] {
    frontend::ParseResult PR = frontend::parseProgram(R.Source);
    if (PR.ok()) {
      Prog = std::move(*PR.Prog);
      frontend::recoverGotoLoops(*Prog);
    }
  });
  // The server rejects bad inputs right after parsing; so does the probe.
  if (!Prog || I.Want.Out == serve::Outcome::CompileError)
    return P;

  transform::PipelineOptions PO;
  PO.Layout = machine::Layout::Cyclic;
  PO.Flatten = true;
  PO.AssumeInnerMinOneTrip = R.MinOne;
  P.KeyNs = timed(B, "transform.canonical_key", Req, Parent,
                  [&] { (void)transform::canonicalKey(*Prog, PO); });

  std::optional<ir::Program> Simd;
  P.PipelineNs = timed(B, "transform.pipeline", Req, Parent, [&] {
    auto C = transform::compileForSimd(*Prog, PO);
    if (C)
      Simd = std::move(*C);
  });
  if (!Simd)
    return P;
  P.IrBytes = static_cast<int64_t>(ir::printProgram(*Simd).size());

  std::shared_ptr<const exec::Program> Code;
  P.LowerNs = timed(B, "exec.lower", Req, Parent, [&] {
    Code = std::make_shared<const exec::Program>(
        exec::lower(*Simd, exec::Mode::Simd));
  });
  P.CodeLen = static_cast<int64_t>(Code->Code.size());

  machine::MachineConfig M;
  M.Name = "flattend";
  M.Processors = R.Lanes;
  M.Gran = R.Lanes;
  M.DataLayout = machine::Layout::Cyclic;

  if (Eng == interp::Engine::Native) {
    std::string Cpp;
    P.EmitNs = timed(B, "codegen.emit", Req, Parent,
                     [&] { Cpp = codegen::emitCpp(*Code, *Simd, M); });
    P.EmitBytes = static_cast<int64_t>(Cpp.size());
    codegen::JitStats Before = codegen::jitStats();
    P.JitNs = timed(B, "codegen.jit", Req, Parent,
                    [&] { (void)codegen::getOrCompile(Cpp); });
    codegen::JitStats After = codegen::jitStats();
    P.JitMiss = After.Compiles > Before.Compiles;
    P.SoBytes = After.ArtifactBytes - Before.ArtifactBytes;
  }

  interp::RunOptions RO;
  RO.Eng = Eng;
  if (!I.WorkTarget.empty())
    RO.WorkTargets = {I.WorkTarget};
  interp::SimdInterp Interp(*Simd, M, nullptr, RO);
  Interp.setCompiled(Code);
  interp::DataStore &S = Interp.store();
  for (const auto &[Name, V] : R.Ints)
    S.setInt(Name, V);
  for (const auto &[Name, V] : R.IntArrays)
    S.setIntArray(Name, V);
  for (const auto &[Name, V] : R.RealArrays)
    S.setRealArray(Name, V);
  P.RunNs = timed(B, "interp.run", Req, Parent, [&] {
    auto Out = Interp.run();
    if (Out) {
      P.RunServed = true;
      P.Stats = Out->Stats;
    }
  });
  return P;
}
