//===- perfbench/Calibrate.h - The host's speed, sampled ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared host the CPU itself runs faster or slower by up to a
/// quarter for minutes at a time, and CPU time follows it. The benchmark
/// therefore times a fixed piece of work of its own, a small switch-
/// dispatch interpreter loop that depends on nothing in simdflat, every
/// 20 ms through the run, and reports CPU times scaled to the speed at
/// which that loop takes RefCalibrationNs ("reference ms").
///
//===----------------------------------------------------------------------===//

#ifndef SIMDBENCH_CALIBRATE_H
#define SIMDBENCH_CALIBRATE_H

#include "Trace.h"

#include <cstdint>
#include <future>
#include <vector>

namespace simdbench {

/// The calibration loop's CPU time at the reference speed: a round
/// figure near the 97 to 125 us it takes on the 2.0 GHz Xeon vCPUs of
/// the reference host (README.md).
constexpr double RefCalibrationNs = 100'000;

/// How often the load thread runs the loop, and how far before and after
/// a request the runs that scale it may lie.
constexpr int64_t CalibrateEveryNs = 20'000'000;
constexpr int64_t CalibrateAroundNs = 100'000'000;

/// Runs the calibration loop once on the calling thread; returns the
/// thread CPU time it took, in ns.
int64_t calibrationNs();

/// Median of \p Reps runs of the calibration loop, in ns.
double calibrationMedianNs(int Reps);

/// Samples the calibration loop on the load thread every EveryNs of
/// wall time: between requests, and while a reply is awaited.
class Calibrator {
public:
  struct Point {
    int64_t AtNs;
    int64_t Ns;
  };

  explicit Calibrator(int64_t EveryNs) : EveryNs(EveryNs) {}

  /// Runs the loop if it is due; returns the CPU time it took (0: not
  /// due).
  int64_t tick();

  /// Waits for \p F, running the loop whenever it is due. Adds the CPU
  /// time the loop took to \p SpentNs, so it can be taken out of the
  /// request's CPU time.
  template <typename T> T await(std::future<T> &F, int64_t &SpentNs) {
    for (;;) {
      int64_t WaitNs = NextNs - nowNs();
      if (WaitNs <= 0) {
        SpentNs += tick();
        continue;
      }
      if (F.wait_for(std::chrono::nanoseconds(WaitNs)) ==
          std::future_status::ready)
        return F.get();
    }
  }

  /// Median loop time, in ns, of the points taken in [LoNs, HiNs); NaN
  /// when there are none.
  double medianNs(int64_t LoNs, int64_t HiNs) const;

private:
  int64_t EveryNs;
  int64_t NextNs = 0;
  std::vector<Point> Points;
};

} // namespace simdbench

#endif // SIMDBENCH_CALIBRATE_H
