//===- perfbench/Layers.h - Direct per-layer calls for tracing -*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's layer probe. For a traced request the benchmark calls
/// each layer's public function itself, in the order serve::Server does,
/// on that request's program and inputs, and records one span per call:
///
///   frontend.parse           parseProgram + recoverGotoLoops
///   transform.canonical_key  canonicalKey
///   transform.pipeline       compileForSimd
///   exec.lower               exec::lower
///   codegen.emit             emitCpp            (Engine::Native only)
///   codegen.jit              getOrCompile       (Engine::Native only)
///   interp.run               SimdInterp::run
///
/// The probe runs before the request is submitted, so on cold_native it
/// is the probe's getOrCompile that misses and the server that hits.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDBENCH_LAYERS_H
#define SIMDBENCH_LAYERS_H

#include "Trace.h"

#include "interp/RunStats.h"
#include "serve/Serve.h"

#include <optional>

namespace simdbench {

struct Item;

/// What the probe measured for one request (durations in ns; absent
/// when the layer was not reached).
struct ProbeResult {
  std::optional<int64_t> ParseNs, KeyNs, PipelineNs, LowerNs, EmitNs, JitNs,
      RunNs;
  int64_t IrBytes = 0;
  int64_t CodeLen = 0;
  int64_t EmitBytes = 0;
  /// getOrCompile compiled (rather than found) the module.
  bool JitMiss = false;
  int64_t SoBytes = 0;
  /// The run completed (no trap); Stats is valid.
  bool RunServed = false;
  simdflat::interp::RunStats Stats;
};

ProbeResult probeLayers(TraceBuffer &B, uint64_t Req, int32_t Parent,
                        const simdflat::serve::Request &R, const Item &I,
                        simdflat::interp::Engine Eng);

} // namespace simdbench

#endif // SIMDBENCH_LAYERS_H
