//===- tools/perf_compare/main.cpp ----------------------------------------===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CLI for the perf-regression gate:
///
///   perf_compare <baseline.json> <new.json> [--threshold=0.10] [--all]
///
/// Exit codes: 0 no gated regression, 1 regression(s) found, 2 usage or
/// I/O error. CI runs every bench in smoke mode, then this tool against
/// the checked-in bench/baselines/ snapshots.
///
//===----------------------------------------------------------------------===//

#include "support/Cli.h"
#include "tools/perf_compare/PerfCompare.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::perfcompare;

int main(int argc, char **argv) {
  CompareOptions Opts;
  bool Dirs = false;
  cli::Command Cmd{
      "perf_compare",
      "[options] <baseline.json> <new.json>\n"
      "       perf_compare --dirs [options] <baseline-dir> <new-dir>",
      {cli::value(
           "--threshold", "FRAC",
           [&](const std::string &V) -> std::string {
             char *End = nullptr;
             Opts.Threshold = std::strtod(V.c_str(), &End);
             if (V.empty() || *End != '\0' || !(Opts.Threshold >= 0.0))
               return "--threshold expects a non-negative number, got "
                      "'--threshold=" +
                      V + "'";
             return "";
           },
           "fail on a gated metric that regresses by more than FRAC "
           "(default 0.10)"),
       cli::flag("--all", Opts.ShowAll,
                 "also print metrics whose change stayed inside the "
                 "threshold"),
       cli::flag("--dirs", Dirs,
                 "compare *.json files matched by name between two "
                 "directories; benches present on one side only are "
                 "reported as added or removed, never as failures")},
      {"<baseline>", "<new>"},
      "Compares two simdflat-bench-v1 files.\n"
      "exit codes: 0 no gated regression, 1 regression(s) found, 2 usage\n"
      "or I/O error\n"};
  std::vector<std::string> Paths;
  if (std::optional<int> Exit = cli::parse(Cmd, argc, argv, &Paths))
    return *Exit;
  const std::string &BasePath = Paths[0], &NewPath = Paths[1];

  if (Dirs) {
    auto Result = compareBenchDirs(BasePath, NewPath, Opts);
    if (!Result) {
      std::fprintf(stderr, "perf_compare: %s\n",
                   Result.error().render().c_str());
      return 2;
    }
    std::fputs(Result->render(Opts).c_str(), stdout);
    return Result->ok() ? 0 : 1;
  }

  auto Result = compareBenchFiles(BasePath, NewPath, Opts);
  if (!Result) {
    std::fprintf(stderr, "perf_compare: %s\n",
                 Result.error().render().c_str());
    return 2;
  }
  std::fputs(Result->render(Opts).c_str(), stdout);
  return Result->ok() ? 0 : 1;
}
