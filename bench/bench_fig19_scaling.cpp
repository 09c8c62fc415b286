//===- bench/bench_fig19_scaling.cpp ---------------------------*- C++ -*-===//
//
// Reproduces Figure 19: running time vs number of processors, log-log,
// for both machine models, all three loop versions and two cutoff radii
// (8 A and 16 A; the paper plots four). Emits the plot series as text
// plus a coarse ASCII log-log rendering. Key shapes to observe:
// near-linear scaling, the flattened line strictly below the
// unflattened ones, and the lines converging as Gran approaches N
// (one atom per lane leaves nothing to flatten).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "bench/NBForceHarness.h"

#include "support/Format.h"
#include "support/Table.h"

#include <cmath>
#include <cstdio>
#include <vector>

using namespace simdflat;
using namespace simdflat::bench;

int main(int argc, char **argv) {
  BenchReporter Rep("fig19_scaling", argc, argv);
  bool Smoke = Rep.smoke();
  NBForceExperiment E;
  E.setEngine(Rep.engine());
  std::vector<double> Cutoffs = Smoke
                                    ? std::vector<double>{8.0}
                                    : std::vector<double>{8.0, 16.0};
  std::vector<int64_t> Procs = Smoke
                                   ? std::vector<int64_t>{2048, 8192}
                                   : std::vector<int64_t>{1024, 2048, 4096,
                                                          8192};

  std::printf("Figure 19: running time vs processors (log-log series)\n\n");

  for (bool IsCm2 : {true, false}) {
    const char *Name = IsCm2 ? "CM-2" : "DECmpp-12000";
    std::printf("%s\n", Name);
    TextTable T;
    std::vector<std::string> Header = {"P"};
    for (double C : Cutoffs)
      for (const char *V : {"L1u", "L2u", "Lf"})
        Header.push_back(formatf("%s@%gA", V, C));
    T.setHeader(Header);

    // Collect for the ASCII plot: series[cutoff][version][procIdx].
    std::vector<std::vector<std::vector<double>>> Series(
        Cutoffs.size(),
        std::vector<std::vector<double>>(3));

    for (int64_t P : Procs) {
      machine::MachineConfig M = IsCm2 ? NBForceExperiment::cm2(P)
                                       : NBForceExperiment::decmpp(P);
      std::vector<std::string> Row = {std::to_string(P)};
      for (size_t CI = 0; CI < Cutoffs.size(); ++CI) {
        int VI = 0;
        for (LoopVersion V :
             {LoopVersion::L1u, LoopVersion::L2u, LoopVersion::Lf}) {
          NBRunResult R = E.run(V, M, Cutoffs[CI]);
          Row.push_back(formatf("%.3f", R.Seconds));
          Series[CI][static_cast<size_t>(VI++)].push_back(R.Seconds);
          Rep.record(formatf("%s/P=%lld/cutoff=%g/%s", Name,
                             static_cast<long long>(P), Cutoffs[CI],
                             loopVersionName(V)),
                     "model_seconds", R.Seconds, "s");
        }
      }
      T.addRow(Row);
    }
    std::fputs(T.render().c_str(), stdout);

    // Coarse ASCII log-log plot for the first cutoff.
    std::printf("\n  log-log, cutoff %g A ('1'=L1u '2'=L2u 'f'=Lf):\n",
                Cutoffs[0]);
    double Lo = 1e30, Hi = 0;
    for (const auto &S : Series[0])
      for (double V : S) {
        Lo = std::min(Lo, V);
        Hi = std::max(Hi, V);
      }
    const int Rows = 12, Cols = 48;
    std::vector<std::string> Canvas(Rows, std::string(Cols, ' '));
    auto Put = [&](double X01, double Y01, char Ch) {
      int R = Rows - 1 -
              static_cast<int>(Y01 * (Rows - 1) + 0.5);
      int C = static_cast<int>(X01 * (Cols - 1) + 0.5);
      Canvas[static_cast<size_t>(R)][static_cast<size_t>(C)] = Ch;
    };
    const char Marks[3] = {'1', '2', 'f'};
    for (size_t VI = 0; VI < 3; ++VI) {
      for (size_t PI = 0; PI < Procs.size(); ++PI) {
        double X = Procs.size() == 1
                       ? 0.0
                       : static_cast<double>(PI) /
                             static_cast<double>(Procs.size() - 1);
        double Y = (std::log(Series[0][VI][PI]) - std::log(Lo)) /
                   (std::log(Hi) - std::log(Lo) + 1e-12);
        Put(X, Y, Marks[VI]);
      }
    }
    std::printf("  %8.3fs +%s+\n", Hi, std::string(Cols, '-').c_str());
    for (const std::string &Line : Canvas)
      std::printf("  %9s |%s|\n", "", Line.c_str());
    std::printf("  %8.3fs +%s+\n", Lo, std::string(Cols, '-').c_str());
    std::printf("  %11s P=%lld ... P=%lld\n\n", "",
                static_cast<long long>(Procs.front()),
                static_cast<long long>(Procs.back()));
  }

  // Shape check: Lf below both unflattened versions at every point
  // except possibly Gran >= N (nothing left to flatten).
  bool Pass = true;
  for (bool IsCm2 : {true, false}) {
    for (int64_t P : Procs) {
      machine::MachineConfig M = IsCm2 ? NBForceExperiment::cm2(P)
                                       : NBForceExperiment::decmpp(P);
      if (M.Gran >= 6968)
        continue;
      for (double C : Cutoffs) {
        double L1 = E.run(LoopVersion::L1u, M, C).Seconds;
        double Lf = E.run(LoopVersion::Lf, M, C).Seconds;
        Pass = Pass && Lf < L1;
      }
    }
  }
  std::printf("%s\n",
              Pass ? "PASS: the flattened series lies below the "
                     "unflattened ones wherever Gran < N"
                   : "NOTE: see EXPERIMENTS.md");
  Rep.setPassed(Pass);
  return Rep.finish(0);
}
