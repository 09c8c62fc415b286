//===- perfbench/Requests.h - Seeded workload generation -------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads as seeded request pools. Each request
/// is a flattend JSON request line plus the reply it must produce. The
/// expected replies are built during set-up from references that never
/// run the engine under test: workloads::mandelbrotIterations,
/// workloads::regionSizes, CsrMatrix::multiply (through a tree-engine
/// run, which also gives SpMV's fuel and cycle counts), and tree-engine
/// runs of the unflattened Fig. 1 program.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDBENCH_REQUESTS_H
#define SIMDBENCH_REQUESTS_H

#include "interp/RunStats.h"
#include "interp/Trap.h"
#include "serve/Serve.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace simdbench {

/// The kernels reported one row each (Fig. 1 requests are reported only
/// in the aggregates).
inline const char *const ReportedKernels[] = {"mandelbrot", "region_grow",
                                              "spmv"};

/// What a reply must look like.
struct Expect {
  simdflat::serve::Outcome Out = simdflat::serve::Outcome::Served;
  /// Required trap kind when Out == Trapped.
  std::optional<simdflat::interp::TrapKind> Trap;
  /// Int arrays the reply must carry, compared exactly (want_arrays).
  std::map<std::string, std::vector<int64_t>> IntArrays;
  /// Fuel and cycles the reply must report (< 0: not checked).
  int64_t Fuel = -1;
  double Cycles = -1;
};

struct Item {
  uint64_t Id = 0;
  /// "mandelbrot", "region_grow", "spmv" or "fig1".
  std::string Kernel;
  /// The flattend request line.
  std::string Line;
  /// Array whose assignments count as useful work (interp utilization).
  std::string WorkTarget;
  Expect Want;
};

struct Workload {
  std::string Name;
  simdflat::interp::Engine Eng = simdflat::interp::Engine::Bytecode;
  int Workers = 1;
  size_t QueueCapacity = 16;
  size_t CacheCapacity = 64;
  /// Every request is a program the process has never seen: the run is
  /// the pool, consumed in order, in rounds of RoundLen kinds.
  bool Cold = false;
  /// Traced and untraced requests alternate in groups of this many.
  uint64_t RoundLen = 1;
  /// Requests submitted and checked during set-up (JIT and cache warm).
  std::vector<Item> Warmup;
  std::vector<Item> Pool;
  /// Seeded sequence of Pool indices the load draws from (wraps).
  std::vector<uint32_t> Order;
};

/// Builds workload \p Name for \p Seed, sized for a \p Seconds window.
/// Returns false (with \p Err) for an unknown name or a failed
/// reference run.
bool makeWorkload(const std::string &Name, uint64_t Seed, int Seconds,
                  Workload &W, std::string &Err);

/// Empty when \p R is the reply \p I must produce on engine \p Eng;
/// otherwise why not. A served reply must have run on \p Eng, so a
/// native workload that fell back to bytecode fails.
std::string checkReply(const Item &I, const simdflat::serve::Reply &R,
                       simdflat::interp::Engine Eng);

} // namespace simdbench

#endif // SIMDBENCH_REQUESTS_H
