//===- codegen/CppEmitter.h - exec::Program -> C++ source ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a self-contained C++ translation unit from a lowered SIMD-mode
/// exec::Program: the flattened/coalesced schedule as straight-line
/// native loops over a fixed lane count, masked commits as blends,
/// per-lane fuel/deadline polling and trap collection semantically
/// identical to the interpreter's Core<IsSimd> (the differential fuzz
/// oracle's native leg enforces bit-identity of stores, counters,
/// traps, extern logs and trip histograms).
///
/// The emitter bakes every compile-time fact - lane count, data layout,
/// constant pools (reals as bit-exact hexfloat literals), slot shapes /
/// kinds / names, messages, prerendered trap locations - and leaves
/// per-run state to the SfContext ABI (NativeAbi.h). One emitted source
/// therefore serves exactly one (program, lanes, layout) shape;
/// JitCache keys compiled artifacts by a hash of the source text.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_CODEGEN_CPPEMITTER_H
#define SIMDFLAT_CODEGEN_CPPEMITTER_H

#include <string>

namespace simdflat {
namespace ir {
class Program;
} // namespace ir
namespace exec {
struct Program;
} // namespace exec
namespace machine {
struct MachineConfig;
} // namespace machine

namespace codegen {

/// Emits the native translation unit for \p EP (which must be a
/// Mode::Simd lowering of \p IRP) under \p Machine's lane count and
/// layout. Returns the C++ source, or an empty string when the program
/// cannot be emitted (scalar mode, an undeclared slot, an opcode
/// outside the SIMD set) - callers then fall back to the bytecode
/// engine.
std::string emitCpp(const exec::Program &EP, const ir::Program &IRP,
                    const machine::MachineConfig &Machine);

} // namespace codegen
} // namespace simdflat

#endif // SIMDFLAT_CODEGEN_CPPEMITTER_H
