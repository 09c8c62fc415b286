//===- bench/bench_table2_force_calls.cpp ----------------------*- C++ -*-===//
//
// Reproduces Table 2: the number of calls to the Force routine for the
// flattened (Lf) and unflattened (Lu, multiplied by the memory layer
// count Lrs, exactly as the paper normalizes) versions at different
// data granularities, and the Lu/Lf ratios, which must be bounded by
// the pCntmax/pCntavg ratios of Fig. 18 (Sec. 5.5).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "bench/NBForceHarness.h"

#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>
#include <vector>

using namespace simdflat;
using namespace simdflat::bench;

namespace {

/// A pruning (DECmpp-style) machine at granularity \p Gran; Table 2 is
/// granularity-driven, so one machine family suffices (the paper's
/// caption: "Gran is equal to P for the DECmpp and P/8 for the CM-2").
machine::MachineConfig machineAt(int64_t Gran) {
  return NBForceExperiment::decmpp(Gran);
}

} // namespace

int main(int argc, char **argv) {
  BenchReporter Rep("table2_force_calls", argc, argv);
  bool Smoke = Rep.smoke();
  NBForceExperiment E;
  E.setEngine(Rep.engine());
  std::vector<double> Cutoffs =
      Smoke ? std::vector<double>{4.0, 8.0}
            : std::vector<double>{4.0, 8.0, 12.0, 16.0};
  std::vector<int64_t> Grans =
      Smoke
          ? std::vector<int64_t>{1024, 8192}
          : std::vector<int64_t>{128, 256, 512, 1024, 2048, 4096, 8192};
  Rep.meta("molecule", "synthetic-SOD");

  std::printf("Table 2: Force-routine call counts, unflattened (Lu, "
              "scaled by Lrs) vs flattened (Lf)\n\n");

  TextTable T;
  std::vector<std::string> Header = {"Gran"};
  for (double C : Cutoffs) {
    Header.push_back(formatf("Lu@%gA", C));
    Header.push_back(formatf("Lf@%gA", C));
    Header.push_back(formatf("Lu/Lf@%gA", C));
  }
  T.setHeader(Header);

  bool BoundHolds = true;
  for (int64_t G : Grans) {
    machine::MachineConfig M = machineAt(G);
    std::vector<std::string> Row = {std::to_string(G)};
    for (double C : Cutoffs) {
      NBRunResult U = E.run(LoopVersion::L1u, M, C);
      NBRunResult F = E.run(LoopVersion::Lf, M, C);
      double Ratio = static_cast<double>(U.ForceSteps) /
                     static_cast<double>(F.ForceSteps);
      Row.push_back(std::to_string(U.ForceSteps));
      Row.push_back(std::to_string(F.ForceSteps));
      Row.push_back(formatf("%.3f", Ratio));
      std::string Case = formatf("Gran=%lld/cutoff=%g",
                                 static_cast<long long>(G), C);
      Rep.record(Case + "/Lu", "force_calls",
                 static_cast<double>(U.ForceSteps), "calls");
      Rep.record(Case + "/Lf", "force_calls",
                 static_cast<double>(F.ForceSteps), "calls");
      Rep.record(Case, "lu_over_lf", Ratio, "ratio", /*Gate=*/true,
                 Direction::HigherIsBetter);
      const md::PairList &PL = E.pairlist(C);
      double MaxOverAvg =
          static_cast<double>(PL.maxPCnt()) / PL.avgPCnt();
      if (Ratio > MaxOverAvg + 1e-9)
        BoundHolds = false;
    }
    T.addRow(Row);
  }
  std::fputs(T.render().c_str(), stdout);

  std::printf("\npCntmax / pCntavg bounds (Sec. 5.5):\n");
  for (double C : Cutoffs) {
    const md::PairList &PL = E.pairlist(C);
    std::printf("  cutoff %4.1f A: max %5lld  avg %8.2f  max/avg %.3f\n",
                C, static_cast<long long>(PL.maxPCnt()), PL.avgPCnt(),
                static_cast<double>(PL.maxPCnt()) / PL.avgPCnt());
  }
  std::printf("\n%s\n",
              BoundHolds
                  ? "PASS: every Lu/Lf ratio is bounded by pCntmax/pCntavg"
                  : "FAIL: ratio bound violated");

  // At Gran >= N the paper's last row has Lu == Lf == pCntmax: one atom
  // per lane, so flattening cannot help (ratio 1).
  machine::MachineConfig M = machineAt(8192);
  for (double C : Cutoffs) {
    NBRunResult U = E.run(LoopVersion::L1u, M, C);
    NBRunResult F = E.run(LoopVersion::Lf, M, C);
    const md::PairList &PL = E.pairlist(C);
    std::printf("Gran 8192, cutoff %g A: Lu %lld Lf %lld pCntmax %lld "
                "(all three %s)\n",
                C, static_cast<long long>(U.ForceSteps),
                static_cast<long long>(F.ForceSteps),
                static_cast<long long>(PL.maxPCnt()),
                (U.ForceSteps == F.ForceSteps &&
                 F.ForceSteps == PL.maxPCnt())
                    ? "equal, as in the paper's last row"
                    : "differ: see EXPERIMENTS.md");
  }
  Rep.setPassed(BoundHolds);
  return Rep.finish(0);
}
