//===- perfbench/Trace.h - In-memory span recorder -------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: one span per layer call made from the
/// benchmark's own code (name, start, end, parent, request id). Spans are
/// kept in memory, in one buffer owned by the load thread, and written
/// out when the run ends. A span's self time is its duration minus the part of its
/// interval that its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDBENCH_TRACE_H
#define SIMDBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace simdbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the run's time origin.
int64_t nowNs();

/// CPU time the process has used, in ns: every thread's CPU clock plus
/// the children it has waited for (the JIT's host compiler). The kernel
/// leaves the hypervisor's steal time out of these clocks, so a busy
/// neighbour on a shared host moves them much less than the wall clock.
///
/// Each thread's clock is read on its own: the process clock leaves out
/// what a thread still running on another core has used since its last
/// tick, up to 4 ms at 250 Hz.
class CpuClock {
public:
  /// Reads the process's threads; call once all of them are started.
  CpuClock();
  int64_t nowNs() const;
  /// Whether the process still has exactly the threads it had when this
  /// clock was made.
  bool sameThreads() const;

  /// The process clock alone: exact while no other thread runs.
  static int64_t processNs();

private:
  std::vector<int> Tids;
  std::vector<clockid_t> Clocks;
};

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the parent span in the same buffer; -1 for a root.
  int32_t Parent = -1;
  uint64_t Req = 0;
  /// What the request was (root spans: the kernel).
  std::string Detail;
  /// Filled by TraceBuffer::computeSelfTimes.
  int64_t SelfNs = 0;

  int64_t durNs() const { return EndNs - StartNs; }
};

/// A buffer of spans, used from one thread.
class TraceBuffer {
public:
  /// Opens a span at the current time; returns its index.
  int32_t open(const char *Name, uint64_t Req, int32_t Parent);
  /// Closes span \p Idx at the current time; returns its duration.
  int64_t close(int32_t Idx);
  /// Records a span with known bounds (derived from reply telemetry).
  int32_t add(const char *Name, uint64_t Req, int32_t Parent,
              int64_t StartNs, int64_t EndNs, std::string Detail = "");

  /// Self time of every span: duration minus the union of its
  /// children's intervals (clipped to the parent). Call once recording
  /// has stopped.
  void computeSelfTimes();
  /// The spans; only once recording has stopped.
  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
};

/// Writes every span as one JSON object per line:
/// {"req":..,"id":..,"parent":..,"name":..,"start_ns":..,"end_ns":..,
///  "self_ns":..} plus "detail" on root spans.
bool writeTrace(const std::string &Path, const TraceBuffer &B);

/// Self time per span name, summed over the buffer.
std::map<std::string, int64_t> selfTimeByName(const TraceBuffer &B);

} // namespace simdbench

#endif // SIMDBENCH_TRACE_H
