//===- bench/bench_overhead_native.cpp -------------------------*- C++ -*-===//
//
// The Sec. 6 profitability claim measured on the code the system runs:
// "the additional overhead caused by loop flattening is, in the worst
// case, to manipulate two flags and to perform two conditional jumps"
// per iteration, plus the Eq. 1 vs Eq. 2 lane-slot gap. The EXAMPLE
// nest (K = 4096 rows, seeded trip counts of mean 12) goes through the
// real pipeline twice - unflattened (PipelineOptions::Flatten = false)
// and flattened - and each build runs on the engine --engine= selects
// (tree, bytecode, or native: the JIT-compiled loops) at two widths:
//
//   lanes=1 - no lane is ever idle, so flattened over unflattened wall
//             time is the per-iteration cost of the fused loop;
//   lanes=8 - lane_slots (RunStats::WorkTotalLanes) is Eq. 2 for the
//             unflattened build and Eq. 1 for the flattened one.
//
// lane_slots and the model counters are gated: they are deterministic
// and identical on every engine. Wall times and the flattened /
// unflattened ratios ride along ungated. K is the same under --smoke,
// so the gated values do not depend on the mode. The timed unit is one
// whole SimdInterp run (store setup included); with --engine=native
// the JIT compile happens before any clock starts.
//
// The bench fails unless every run does exactly sum(trips) useful lane
// slots, flattening never costs lane slots, and both builds leave the
// same X.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "codegen/NativeEngine.h"
#include "interp/SimdInterp.h"
#include "support/Format.h"
#include "support/Table.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"
#include "workloads/TripCounts.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::workloads;

namespace {

constexpr int64_t K = 4096;
constexpr int64_t Mean = 12;
constexpr uint64_t TripSeed = 123;

machine::MachineConfig machineFor(int64_t Lanes) {
  machine::MachineConfig M;
  M.Name = "overhead";
  M.Processors = Lanes;
  M.Gran = Lanes;
  M.DataLayout = machine::Layout::Cyclic;
  return M;
}

transform::CompiledSimdProgram compileOrDie(const ir::Program &P,
                                            bool Flatten) {
  transform::PipelineOptions PO;
  PO.Layout = machine::Layout::Cyclic;
  PO.Flatten = Flatten;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(P, PO);
  if (!C) {
    std::fprintf(stderr, "overhead_native: %s\n",
                 C.error().render().c_str());
    std::exit(1);
  }
  return std::move(*C);
}

} // namespace

int main(int argc, char **argv) {
  bench::BenchReporter Rep("overhead_native", argc, argv);
  Rep.meta("rows", K);
  Rep.meta("mean_trips", Mean);
  const Engine Eng = Rep.engine();
  const bool Native = Eng == Engine::Native && codegen::nativeAvailable();
  if (Eng == Engine::Native && !Native)
    std::printf("note: native codegen unavailable; native runs fall "
                "back to bytecode\n");

  TextTable T;
  T.setHeader({"case", "lane slots", "active", "util", "wall s"});
  TextTable Ratios;
  Ratios.setHeader({"trips", "lanes", "flattened / unflattened wall"});
  bool Ok = true;
  auto fail = [&Ok](const std::string &Why) {
    std::fprintf(stderr, "overhead_native: %s\n", Why.c_str());
    Ok = false;
  };

  for (TripDist D :
       {TripDist::Geometric, TripDist::Bimodal, TripDist::Constant}) {
    const std::string Trips = tripDistName(D);
    ExampleSpec Spec;
    Spec.K = K;
    Spec.L = generateTripCounts(D, K, Mean, TripSeed);
    const int64_t TripSum =
        std::accumulate(Spec.L.begin(), Spec.L.end(), int64_t{0});
    ir::Program Source = makeExample(Spec);
    const transform::CompiledSimdProgram Builds[2] = {
        compileOrDie(Source, /*Flatten=*/false),
        compileOrDie(Source, /*Flatten=*/true)};

    for (int64_t Lanes : {int64_t{1}, int64_t{8}}) {
      const machine::MachineConfig M = machineFor(Lanes);
      const std::string Width = Trips + "/lanes=" + std::to_string(Lanes);
      double Wall[2] = {0.0, 0.0};
      int64_t Slots[2] = {0, 0};
      std::vector<int64_t> X[2];
      for (int F = 0; F < 2; ++F) {
        const transform::CompiledSimdProgram &C = Builds[F];
        const std::string Case =
            Width + (F == 0 ? "/unflattened" : "/flattened");
        if (Native && !codegen::prepareNative(*C.Code, C.Prog, M))
          fail(Case + ": prepareNative failed with a toolchain present");

        auto runOnce = [&](std::vector<int64_t> *Out) {
          RunOptions Opts;
          Opts.Eng = Eng;
          Opts.WorkTargets = {"X"};
          SimdInterp I(C.Prog, M, nullptr, Opts);
          I.setCompiled(C.Code);
          I.store().setInt("K", Spec.K);
          I.store().setIntArray("L", Spec.L);
          SimdRunResult R = I.run().value();
          if (Out)
            *Out = I.store().getIntArray("X");
          return R;
        };
        SimdRunResult R = runOnce(&X[F]);
        if (Native && R.EngineUsed != Engine::Native)
          fail(Case + ": the run did not go native");
        if (R.Stats.WorkActiveLanes != TripSum)
          fail(Case + ": " + std::to_string(R.Stats.WorkActiveLanes) +
               " active lane slots, want sum(trips) = " +
               std::to_string(TripSum));
        Slots[F] = R.Stats.WorkTotalLanes;
        Rep.recordRunStats(Case, R.Stats);
        Rep.record(Case, "lane_slots", static_cast<double>(Slots[F]),
                   "slots");
        Wall[F] = Rep.recordWallTime(
            Case, [&] { runOnce(nullptr); }, /*Warmup=*/1,
            /*Repeats=*/7);
        T.addRow({Case, std::to_string(Slots[F]),
                  std::to_string(R.Stats.WorkActiveLanes),
                  formatf("%.3f", R.Stats.workUtilization()),
                  formatf("%.5f", Wall[F])});
      }
      if (Slots[1] > Slots[0])
        fail(Width + ": flattening raised lane slots from " +
             std::to_string(Slots[0]) + " to " + std::to_string(Slots[1]));
      if (X[0] != X[1])
        fail(Width + ": unflattened and flattened builds disagree on X");
      double Ratio = Wall[0] > 0.0 ? Wall[1] / Wall[0] : 0.0;
      Rep.record(Width, "flattened_over_unflattened_wall", Ratio, "ratio",
                 /*Gate=*/false);
      Ratios.addRow({Trips, std::to_string(Lanes), formatf("%.2fx", Ratio)});
    }
  }

  std::printf("Sec. 6 overhead on the %s engine: EXAMPLE, K = %lld, "
              "mean trips %lld\n",
              engineName(Eng), static_cast<long long>(K),
              static_cast<long long>(Mean));
  std::fputs(T.render().c_str(), stdout);
  std::fputs(Ratios.render().c_str(), stdout);
  std::printf("\n%s\n", Ok ? "PASS: active slots = sum(trips) and "
                             "flattened slots <= unflattened everywhere"
                           : "FAIL: see messages above");
  Rep.setPassed(Ok);
  return Rep.finish(Ok ? 0 : 1);
}
