//===- bench/BenchReporter.h - Shared bench telemetry ----------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared observability layer for every bench_* binary. Each bench
/// keeps printing its human-readable table, and additionally:
///
///   --json=<path>  write a machine-readable BENCH_<name>.json with all
///                  recorded metrics (schema: simdflat-bench-v1);
///   --smoke        run a reduced grid (CI-sized), also implied by the
///                  legacy SIMDFLAT_QUICK environment variable.
///
/// Metrics are keyed (case, metric) and carry a `gate` flag: gated
/// metrics are deterministic model outputs (steps, model cycles/seconds,
/// utilization, force calls) that tools/perf_compare diffs across
/// commits and fails on >10% regressions; ungated metrics (wall-clock
/// times) ride along for trend plots but never gate, since CI hardware
/// varies. Wall-clock numbers come from steady_clock with warmup +
/// median-of-N so one descheduled run cannot pollute the trajectory.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_BENCH_BENCHREPORTER_H
#define SIMDFLAT_BENCH_BENCHREPORTER_H

#include "interp/RunStats.h"
#include "native/FlattenedLoop.h"
#include "support/Json.h"

#include <chrono>
#include <functional>
#include <string>
#include <vector>

namespace simdflat {
namespace bench {

/// Whether a metric improves by going down (times, steps) or up
/// (utilization, speedups).
enum class Direction { LowerIsBetter, HigherIsBetter };

/// One recorded data point.
struct BenchMetric {
  /// Which configuration, e.g. "cm2/P=8192/cutoff=8/Lf".
  std::string Case;
  /// Which quantity, e.g. "model_seconds", "work_steps".
  std::string Metric;
  double Value = 0.0;
  /// Display unit ("s", "steps", "ratio", ...; informational).
  std::string Unit;
  /// Deterministic model output -> perf_compare gates regressions on it.
  bool Gate = true;
  Direction Better = Direction::LowerIsBetter;
};

/// Per-binary telemetry collector. Construct it first thing in main()
/// with argv; it consumes --json/--smoke (leaving everything else for
/// the bench, e.g. google-benchmark flags) and writes the JSON file in
/// finish().
class BenchReporter {
public:
  /// \p BenchName is the binary's short name ("table1_runtime"); the
  /// default JSON filename is BENCH_<BenchName>.json.
  BenchReporter(std::string BenchName, int Argc, char **Argv);

  /// Reduced-grid mode: --smoke or SIMDFLAT_QUICK.
  bool smoke() const { return Smoke; }

  /// Interpreter engine selected by --engine= (a name from
  /// interp::EngineNames; default bytecode). Benches copy this into
  /// RunOptions::Eng; the value is also written to meta.engine so
  /// perf_compare can refuse to diff runs from different engines.
  interp::Engine engine() const { return Eng; }

  /// Pins the engine tag for benches whose backend is fixed by
  /// construction (e.g. bench_codegen_native) rather than
  /// user-selectable; call before finish() so meta.engine matches what
  /// actually ran.
  void setEngine(interp::Engine E) { Eng = E; }

  /// argc/argv with the reporter's own flags removed (argv[0] kept).
  int argc() const { return static_cast<int>(Args.size()); }
  char **argv() { return Args.data(); }

  /// Free-form run metadata (grid sizes, machine names, ...).
  void meta(const std::string &Key, const std::string &Value);
  void meta(const std::string &Key, int64_t Value);

  /// Records one data point.
  void record(const std::string &Case, const std::string &Metric,
              double Value, const std::string &Unit = "",
              bool Gate = true,
              Direction Better = Direction::LowerIsBetter);

  /// Expands interpreter counters into the standard metric set
  /// (work_steps, instructions, cycles, model_seconds, comm_accesses,
  /// work_utilization), all gated.
  void recordRunStats(const std::string &Case, const interp::RunStats &S);

  /// Expands native-driver lane accounting (steps, active/total lane
  /// slots, utilization), all gated.
  void recordLaneStats(const std::string &Case,
                       const native::LaneStats &S);

  /// Expands a per-nest trip histogram into trip_hist_* counters
  /// (samples, sum, max, mean plus occupied buckets). Histogram shape
  /// describes the workload's input distribution, not the build's
  /// performance, so every counter is recorded ungated - and
  /// perf_compare additionally refuses to gate on the trip_hist_ prefix
  /// even if a producer marks one gated.
  void recordTripHistogram(const std::string &Case,
                           const interp::TripHistogram &H);

  /// Wall-clock of \p Fn via steady_clock: \p Warmup untimed calls,
  /// then the median of \p Repeats timed calls, in seconds. Smoke mode
  /// clamps to one warmup and one repeat.
  double timeSecondsMedian(const std::function<void()> &Fn,
                           int Warmup = 1, int Repeats = 5);

  /// timeSecondsMedian + record as an ungated "wall_seconds" metric.
  double recordWallTime(const std::string &Case,
                        const std::function<void()> &Fn, int Warmup = 1,
                        int Repeats = 5);

  /// The bench's own PASS/FAIL verdict (recorded into the JSON).
  void setPassed(bool P) { Passed = P; }

  const std::vector<BenchMetric> &metrics() const { return Metrics; }

  /// The full document (schema simdflat-bench-v1).
  json::Value toJson() const;

  /// Appends total_wall_seconds, writes the JSON file when --json was
  /// given, and returns \p ExitCode (or 2 when the write failed).
  /// Call as `return R.finish(Code);` at the end of main().
  int finish(int ExitCode);

private:
  std::string BenchName;
  std::string JsonPath; // empty: do not write
  interp::Engine Eng = interp::Engine::Bytecode;
  bool Smoke = false;
  bool Passed = true;
  bool Finished = false;
  std::vector<char *> Args;
  std::vector<std::pair<std::string, json::Value>> Meta;
  std::vector<BenchMetric> Metrics;
  std::chrono::steady_clock::time_point Start;
};

} // namespace bench
} // namespace simdflat

#endif // SIMDFLAT_BENCH_BENCHREPORTER_H
