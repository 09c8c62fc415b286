//===- bench/bench_transform_cost.cpp --------------------------*- C++ -*-===//
//
// Compile-time cost of the passes themselves (Sec. 6: "the
// transformation itself is relatively straightforward ... there are no
// parameters to adjust"): microseconds to flatten and SIMDize a loop
// nest, and how the cost scales with the number of nests in a program.
//
// Each case times batches of calls on inputs built before the clock
// starts; the batch size doubles until one batch takes at least 1 ms,
// so a sample is never a handful of timer ticks. Every row is wall
// clock and therefore ungated.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "ir/Builder.h"
#include "support/Format.h"
#include "support/Table.h"
#include "transform/Flatten.h"
#include "transform/GuardIntro.h"
#include "transform/Normalize.h"
#include "transform/Simdize.h"
#include "workloads/PaperKernels.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::ir;
using namespace simdflat::transform;
using namespace simdflat::workloads;

namespace {

/// Shortest batch worth timing.
constexpr double MinBatchSeconds = 1e-3;

/// A program with \p Nests independent DOALL/DO nests.
Program makeManyNests(int64_t Nests) {
  Program P("many");
  P.addVar("K", ScalarKind::Int);
  P.addVar("L", ScalarKind::Int, {64}, Dist::Distributed);
  Builder B(P);
  for (int64_t N = 0; N < Nests; ++N) {
    // Built via append rather than operator+ to dodge a GCC 12 -O2
    // -Wrestrict false positive (PR105651).
    std::string Suffix = std::to_string(N);
    std::string I = "i";
    I += Suffix;
    std::string J = "j";
    J += Suffix;
    std::string X = "X";
    X += Suffix;
    P.addVar(I, ScalarKind::Int);
    P.addVar(J, ScalarKind::Int);
    P.addVar(X, ScalarKind::Int, {64, 64}, Dist::Distributed);
    Body Inner = Builder::body(B.assign(
        B.at(X, B.var(I), B.var(J)), B.mul(B.var(I), B.var(J))));
    Body Outer = Builder::body(
        B.doLoop(J, B.lit(1), B.at("L", B.var(I)), std::move(Inner)));
    P.body().push_back(B.doLoop(I, B.lit(1), B.var("K"),
                                std::move(Outer), nullptr,
                                /*IsParallel=*/true));
  }
  return P;
}

FlattenOptions minOneTrip() {
  FlattenOptions Opts;
  Opts.AssumeInnerMinOneTrip = true;
  return Opts;
}

/// One timed pass: \p Make builds a fresh input (untimed), \p Run is
/// the work under the clock. Run's result feeds Sink so the optimizer
/// cannot drop the call.
struct Case {
  std::string Name;
  std::function<Program()> Make;
  std::function<size_t(Program &)> Run;
};

volatile size_t Sink = 0;

} // namespace

int main(int argc, char **argv) {
  bench::BenchReporter Rep("transform_cost", argc, argv);

  std::vector<Case> Cases = {
      {"flatten_nest", [] { return makeExample(paperExampleSpec()); },
       [](Program &P) {
         return static_cast<size_t>(flattenNest(P, minOneTrip()).Changed);
       }},
      {"simdize", [] { return makeExample(paperExampleSpec()); },
       [](Program &P) { return simdize(P).body().size(); }},
      {"full_pipeline", [] { return makeExample(paperExampleSpec()); },
       [](Program &P) {
         FlattenOptions Opts = minOneTrip();
         Opts.DistributeOuter = machine::Layout::Cyclic;
         flattenNest(P, Opts);
         return simdize(P).body().size();
       }},
      {"normalize_and_guards",
       [] { return makeExample(paperExampleSpec()); },
       [](Program &P) {
         NormalizeOptions NOpts;
         NOpts.SkipParallel = false;
         normalizeLoops(P, NOpts);
         return static_cast<size_t>(introduceGuards(P));
       }},
  };
  for (int64_t Nests : {1, 8, 64})
    Cases.push_back({"flatten_many_nests/nests=" + std::to_string(Nests),
                     [Nests] { return makeManyNests(Nests); },
                     [](Program &P) {
                       // Flatten every nest in the program.
                       size_t Flattened = 0;
                       while (flattenNest(P, minOneTrip()).Changed)
                         ++Flattened;
                       return Flattened;
                     }});

  TextTable T;
  T.setHeader({"case", "batch", "us/call"});
  for (const Case &C : Cases) {
    auto makeBatch = [&C](size_t N) {
      std::vector<Program> B;
      B.reserve(N);
      for (size_t I = 0; I < N; ++I)
        B.push_back(C.Make());
      return B;
    };
    auto runBatch = [&C](std::vector<Program> &B) {
      for (Program &P : B)
        Sink = Sink + C.Run(P);
    };

    size_t Batch = 1;
    for (;;) {
      std::vector<Program> Probe = makeBatch(Batch);
      if (Rep.timeSecondsMedian([&] { runBatch(Probe); }, /*Warmup=*/0,
                                /*Repeats=*/1) >= MinBatchSeconds)
        break;
      Batch *= 2;
    }

    // One prepared batch per call recordWallTime makes (smoke mode
    // clamps to one warmup and one repeat), all built before timing.
    const int Warmup = 1, Repeats = Rep.smoke() ? 1 : 5;
    std::vector<std::vector<Program>> Batches;
    for (int I = 0; I < Warmup + Repeats; ++I)
      Batches.push_back(makeBatch(Batch));
    size_t Next = 0;
    double BatchS = Rep.recordWallTime(
        C.Name, [&] { runBatch(Batches[Next++]); }, Warmup, Repeats);
    double PerCallUs = BatchS / static_cast<double>(Batch) * 1e6;
    Rep.record(C.Name, "batch_calls", static_cast<double>(Batch), "calls",
               /*Gate=*/false);
    Rep.record(C.Name, "us_per_call", PerCallUs, "us", /*Gate=*/false);
    T.addRow({C.Name, std::to_string(Batch), formatf("%.2f", PerCallUs)});
  }
  std::fputs(T.render().c_str(), stdout);
  return Rep.finish(0);
}
