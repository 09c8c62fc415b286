//===- bench/BenchReporter.cpp - Shared bench telemetry --------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace simdflat;
using namespace simdflat::bench;

BenchReporter::BenchReporter(std::string Name, int Argc, char **Argv)
    : BenchName(std::move(Name)),
      Start(std::chrono::steady_clock::now()) {
  Smoke = std::getenv("SIMDFLAT_QUICK") != nullptr;
  if (Argc > 0)
    Args.push_back(Argv[0]);
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    if (A == "--smoke") {
      Smoke = true;
    } else if (A == "--json") {
      JsonPath = "BENCH_" + BenchName + ".json";
    } else if (A.rfind("--json=", 0) == 0) {
      JsonPath = std::string(A.substr(std::strlen("--json=")));
      if (JsonPath.empty()) {
        std::fprintf(stderr, "%s: --json= expects a path\n",
                     BenchName.c_str());
        std::exit(2);
      }
    } else if (A.rfind("--engine=", 0) == 0) {
      std::string V(A.substr(std::strlen("--engine=")));
      if (!interp::engineFromName(V, Eng)) {
        std::fprintf(stderr, "%s: --engine= expects %s\n",
                     BenchName.c_str(), interp::engineNameList().c_str());
        std::exit(2);
      }
    } else {
      // Not ours (e.g. a --benchmark_* flag): hand it back to the bench.
      Args.push_back(Argv[I]);
    }
  }
}

void BenchReporter::meta(const std::string &Key, const std::string &V) {
  Meta.emplace_back(Key, json::Value(V));
}

void BenchReporter::meta(const std::string &Key, int64_t V) {
  Meta.emplace_back(Key, json::Value(V));
}

void BenchReporter::record(const std::string &Case,
                           const std::string &Metric, double Value,
                           const std::string &Unit, bool Gate,
                           Direction Better) {
  Metrics.push_back({Case, Metric, Value, Unit, Gate, Better});
}

void BenchReporter::recordRunStats(const std::string &Case,
                                   const interp::RunStats &S) {
  record(Case, "work_steps", static_cast<double>(S.WorkSteps), "steps");
  record(Case, "instructions", static_cast<double>(S.Instructions),
         "instrs");
  record(Case, "cycles", S.Cycles, "cycles");
  record(Case, "model_seconds", S.Seconds, "s");
  record(Case, "comm_accesses", static_cast<double>(S.CommAccesses),
         "accesses");
  record(Case, "work_utilization", S.workUtilization(), "ratio",
         /*Gate=*/true, Direction::HigherIsBetter);
}

void BenchReporter::recordLaneStats(const std::string &Case,
                                    const native::LaneStats &S) {
  record(Case, "steps", static_cast<double>(S.Steps), "steps");
  record(Case, "active_lane_slots",
         static_cast<double>(S.ActiveLaneSlots), "slots");
  record(Case, "total_lane_slots", static_cast<double>(S.TotalLaneSlots),
         "slots");
  record(Case, "utilization", S.utilization(), "ratio", /*Gate=*/true,
         Direction::HigherIsBetter);
}

void BenchReporter::recordTripHistogram(const std::string &Case,
                                        const interp::TripHistogram &H) {
  record(Case, "trip_hist_samples", static_cast<double>(H.Samples),
         "samples", /*Gate=*/false);
  record(Case, "trip_hist_sum", static_cast<double>(H.Sum), "trips",
         /*Gate=*/false);
  record(Case, "trip_hist_max", static_cast<double>(H.Max), "trips",
         /*Gate=*/false);
  record(Case, "trip_hist_mean", H.mean(), "trips", /*Gate=*/false);
  for (size_t I = 0; I < H.Exact.size(); ++I)
    if (H.Exact[I] != 0)
      record(Case, "trip_hist_exact_" + std::to_string(I),
             static_cast<double>(H.Exact[I]), "samples", /*Gate=*/false);
  for (size_t I = 0; I < H.Log2.size(); ++I)
    if (H.Log2[I] != 0)
      record(Case, "trip_hist_log2_" + std::to_string(I),
             static_cast<double>(H.Log2[I]), "samples", /*Gate=*/false);
}

double BenchReporter::timeSecondsMedian(const std::function<void()> &Fn,
                                        int Warmup, int Repeats) {
  if (Smoke) {
    Warmup = std::min(Warmup, 1);
    Repeats = 1;
  }
  Repeats = std::max(Repeats, 1);
  for (int I = 0; I < Warmup; ++I)
    Fn();
  std::vector<double> Times;
  Times.reserve(static_cast<size_t>(Repeats));
  for (int I = 0; I < Repeats; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
  }
  std::sort(Times.begin(), Times.end());
  size_t Mid = Times.size() / 2;
  return Times.size() % 2 == 1
             ? Times[Mid]
             : 0.5 * (Times[Mid - 1] + Times[Mid]);
}

double BenchReporter::recordWallTime(const std::string &Case,
                                     const std::function<void()> &Fn,
                                     int Warmup, int Repeats) {
  double S = timeSecondsMedian(Fn, Warmup, Repeats);
  record(Case, "wall_seconds", S, "s", /*Gate=*/false);
  return S;
}

json::Value BenchReporter::toJson() const {
  json::Value Doc = json::Value::object();
  Doc.set("schema", "simdflat-bench-v1");
  Doc.set("bench", BenchName);
  Doc.set("smoke", Smoke);
  Doc.set("passed", Passed);
  json::Value M = json::Value::object();
  for (const auto &[K, V] : Meta)
    M.set(K, V);
  // Always present, never overridable by meta(): the engine tag is
  // what lets perf_compare refuse cross-engine comparisons.
  M.set("engine", interp::engineName(Eng));
  Doc.set("meta", std::move(M));
  json::Value Arr = json::Value::array();
  for (const BenchMetric &X : Metrics) {
    json::Value E = json::Value::object();
    E.set("case", X.Case);
    E.set("metric", X.Metric);
    E.set("value", X.Value);
    E.set("unit", X.Unit);
    E.set("gate", X.Gate);
    E.set("better", X.Better == Direction::LowerIsBetter ? "lower"
                                                         : "higher");
    Arr.push(std::move(E));
  }
  Doc.set("metrics", std::move(Arr));
  return Doc;
}

int BenchReporter::finish(int ExitCode) {
  if (Finished)
    return ExitCode;
  Finished = true;
  if (ExitCode != 0)
    Passed = false;
  double Total = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  record("total", "total_wall_seconds", Total, "s", /*Gate=*/false);
  if (JsonPath.empty())
    return ExitCode;
  if (!json::writeFile(JsonPath, toJson())) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", BenchName.c_str(),
                 JsonPath.c_str());
    return 2;
  }
  std::fprintf(stderr, "%s: wrote %s (%zu metrics)\n", BenchName.c_str(),
               JsonPath.c_str(), Metrics.size());
  return ExitCode;
}
