//===- tools/flattenc/main.cpp - Source-to-source driver -------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// flattenc: the command-line face of the simdflat pipeline. Reads a
/// mini-Fortran program, recovers GOTO loops, optionally flattens the
/// parallel nest (Sec. 4) and SIMDizes it (Sec. 3), prints the result,
/// and can execute it on the SIMD machine simulator.
///
/// Examples:
///   flattenc example.f                      # flatten + SIMDize, print
///   flattenc --emit=flat example.f          # flattened F77 only
///   flattenc --level=general example.f      # force the Fig. 10 form
///   flattenc --run --lanes=4 --set K=8
///            --set-array L=4,1,2,1,1,3,1,3 example.f (one line)
///
/// Exit codes: 0 success, 1 front-end or pipeline error, 2 bad command
/// line, 3 runtime trap under --run, 4 internal error (the top-level
/// exception barrier fired).
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopNests.h"
#include "analysis/Profitability.h"
#include "analysis/Safety.h"
#include "exec/Bytecode.h"
#include "exec/Lower.h"
#include "frontend/GotoRecovery.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "interp/StatsJson.h"
#include "ir/Printer.h"
#include "ir/Walk.h"
#include "support/Cli.h"
#include "support/Json.h"
#include "transform/Flatten.h"
#include "transform/Pipeline.h"
#include "transform/ReportJson.h"
#include "transform/Simdize.h"
#include "transform/Simplify.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace simdflat;

namespace {

struct CliOptions {
  std::string InputPath;
  std::string Emit = "simd"; // f77 | flat | simd
  machine::Layout Layout = machine::Layout::Cyclic;
  std::optional<transform::FlattenLevel> Level;
  bool AssumeMinOne = false;
  bool NoFlatten = false;
  std::optional<analysis::Strategy> Strategy;
  bool Adaptive = false;
  bool Analyze = false;
  bool Run = false;
  bool DumpBytecode = false;
  interp::Engine Eng = interp::Engine::Bytecode;
  bool TestThrow = false;
  int64_t Lanes = 4;
  int64_t Fuel = 0;
  std::string StatsJsonPath;
  std::vector<std::pair<std::string, int64_t>> Sets;
  std::vector<std::pair<std::string, std::vector<int64_t>>> SetArrays;
};

/// "NAME=..." split at the first '='; false without a non-empty NAME.
bool splitAssignment(const std::string &KV, std::string &Name,
                     std::string &Value) {
  size_t Eq = KV.find('=');
  if (Eq == std::string::npos || Eq == 0)
    return false;
  Name = KV.substr(0, Eq);
  Value = KV.substr(Eq + 1);
  return true;
}

/// Parses the command line into \p Opts; returns the exit code when the
/// compiler should not run.
std::optional<int> parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  cli::Command Cmd{
      "flattenc",
      "[options] file.f",
      {cli::choice(
           "--emit", {"f77", "flat", "simd"},
           [&](const std::string &V) { Opts.Emit = V; },
           "output stage (default simd)"),
       cli::choice(
           "--level", {"general", "optimized", "done"},
           [&](const std::string &V) {
             Opts.Level = V == "general"     ? transform::FlattenLevel::General
                          : V == "optimized" ? transform::FlattenLevel::Optimized
                                             : transform::FlattenLevel::DoneTest;
           },
           "pin the flattening level (Figs. 10-12)"),
       cli::flag("--assume-min-one", Opts.AssumeMinOne,
                 "assert inner loops run at least once"),
       cli::layout(Opts.Layout, "lane layout for the parallel loop"),
       cli::flag("--no-flatten", Opts.NoFlatten,
                 "SIMDize without flattening (Fig. 5 path)"),
       cli::choice(
           "--strategy",
           {analysis::strategyName(analysis::Strategy::Unflattened),
            analysis::strategyName(analysis::Strategy::Flattened),
            analysis::strategyName(analysis::Strategy::Coalesced)},
           [&](const std::string &V) {
             analysis::strategyFromName(V, Opts.Strategy.emplace());
           },
           "build the nest under an explicit loop strategy (with "
           "--emit=simd)"),
       cli::flag("--adaptive", Opts.Adaptive,
                 "two-pass profile-guided build (with --run): execute the "
                 "unflattened variant on the given inputs to observe the "
                 "trip distribution, let the Sec. 6 cost model pick the "
                 "strategy, then build and run it"),
       cli::flag("--analyze", Opts.Analyze,
                 "print the loop-nest analysis and exit"),
       cli::flag("--run", Opts.Run, "execute on the SIMD simulator"),
       cli::engine(Opts.Eng,
                   "interpreter engine for --run (default bytecode; tree is "
                   "the reference oracle, native JIT-compiles the schedule "
                   "to host loops and falls back to bytecode without a "
                   "toolchain)"),
       cli::flag("--dump-bytecode", Opts.DumpBytecode,
                 "disassemble the lowered bytecode of the emitted program "
                 "to stdout"),
       cli::integer("--lanes", "N", 1, Opts.Lanes,
                    "simulator lanes (with --run)"),
       cli::integer("--fuel", "N", 0, Opts.Fuel,
                    "watchdog: trap after N instructions (with --run; 0 = "
                    "unlimited)"),
       cli::text("--stats-json", "PATH", Opts.StatsJsonPath,
                 "dump pipeline stage outcomes (and, with --run, "
                 "interpreter RunStats) as JSON"),
       cli::nextArg(
           "--set", "NAME=V",
           [&](const std::string &KV) -> std::string {
             std::string Name, V;
             int64_t Val = 0;
             if (!splitAssignment(KV, Name, V) || !cli::parseInt(V, Val))
               return "--set expects NAME=VALUE, got '" + KV + "'";
             Opts.Sets.emplace_back(Name, Val);
             return "";
           },
           "set an integer input (with --run)"),
       cli::nextArg(
           "--set-array", "NAME=a,b,c",
           [&](const std::string &KV) -> std::string {
             std::string Name, List;
             if (!splitAssignment(KV, Name, List) || List.empty())
               return "--set-array expects NAME=a,b,c, got '" + KV + "'";
             std::vector<int64_t> Vals;
             std::stringstream SS(List);
             std::string Item;
             while (std::getline(SS, Item, ','))
               if (!cli::parseInt(Item, Vals.emplace_back()))
                 return "bad integer in --set-array '" + KV + "'";
             Opts.SetArrays.emplace_back(Name, std::move(Vals));
             return "";
           },
           "set an integer array input (with --run)"),
       // Undocumented (no help text): fires the exception barrier so the
       // CLI test can assert the structured-diagnostic + exit-4 contract.
       cli::flag("--test-throw", Opts.TestThrow, "")},
      {"file.f"},
      "exit codes: 0 success, 1 front-end/pipeline error, 2 bad command\n"
      "line, 3 runtime trap, 4 internal error\n"};
  std::vector<std::string> Inputs;
  if (std::optional<int> Exit = cli::parse(Cmd, Argc, Argv, &Inputs))
    return Exit;
  Opts.InputPath = Inputs[0];
  if (Opts.Adaptive && Opts.Strategy)
    return cli::fail(Cmd, "--adaptive picks the strategy itself; drop "
                          "--strategy");
  if (Opts.Adaptive && !Opts.Run)
    return cli::fail(Cmd, "--adaptive profiles a real execution; it "
                          "requires --run");
  if ((Opts.Adaptive || Opts.Strategy) &&
      (Opts.Emit != "simd" || Opts.NoFlatten))
    return cli::fail(Cmd, "--strategy/--adaptive drive the full SIMD "
                          "pipeline; they need --emit=simd and no "
                          "--no-flatten");
  return std::nullopt;
}

/// Checks a --set / --set-array name against the program's declarations
/// so a typo is a clean diagnostic, not an interpreter fault.
bool checkSetName(const ir::Program &P, const std::string &Name,
                  bool WantArray) {
  const ir::VarDecl *D = P.lookupVar(Name);
  if (!D) {
    std::fprintf(stderr, "flattenc: --set%s names undeclared variable "
                         "'%s'\n",
                 WantArray ? "-array" : "", Name.c_str());
    return false;
  }
  if (D->Kind != ir::ScalarKind::Int) {
    std::fprintf(stderr, "flattenc: '%s' is not an integer variable\n",
                 Name.c_str());
    return false;
  }
  if (D->isArray() != WantArray) {
    std::fprintf(stderr, "flattenc: '%s' is %s; use %s\n", Name.c_str(),
                 D->isArray() ? "an array" : "a scalar",
                 D->isArray() ? "--set-array" : "--set");
    return false;
  }
  return true;
}

/// Checks every --set / --set-array against \p P: names, kinds and
/// array lengths.
bool checkInputs(const ir::Program &P, const CliOptions &Opts) {
  for (const auto &[Name, V] : Opts.Sets)
    if (!checkSetName(P, Name, /*WantArray=*/false))
      return false;
  for (const auto &[Name, Vals] : Opts.SetArrays) {
    if (!checkSetName(P, Name, /*WantArray=*/true))
      return false;
    int64_t Want = P.lookupVar(Name)->numElements();
    if (static_cast<int64_t>(Vals.size()) != Want) {
      std::fprintf(stderr,
                   "flattenc: --set-array '%s' expects %lld value(s), "
                   "got %zu\n",
                   Name.c_str(), static_cast<long long>(Want),
                   Vals.size());
      return false;
    }
  }
  return true;
}

} // namespace

int realMain(int Argc, char **Argv) {
  CliOptions Opts;
  if (std::optional<int> Exit = parseArgs(Argc, Argv, Opts))
    return *Exit;
  if (Opts.TestThrow)
    throw std::runtime_error("--test-throw requested");

  std::ifstream In(Opts.InputPath);
  if (!In) {
    std::fprintf(stderr, "flattenc: cannot open '%s'\n",
                 Opts.InputPath.c_str());
    return 2;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  frontend::ParseResult PR = frontend::parseProgram(Buf.str());
  if (!PR.Diags.empty())
    std::fprintf(stderr, "%s", PR.Diags.renderAll().c_str());
  if (!PR.ok())
    return 1;
  ir::Program P = std::move(*PR.Prog);

  int Recovered = frontend::recoverGotoLoops(P);
  if (Recovered > 0)
    std::fprintf(stderr, "flattenc: recovered %d GOTO loop(s)\n",
                 Recovered);

  // Telemetry accumulated along whichever path runs; flushed by
  // writeStats() at the successful exits.
  std::optional<transform::PipelineReport> PipelineRep;
  std::optional<interp::RunStats> RunStats;
  // Engine that actually ran, not the one requested: a native request
  // without a toolchain degrades to bytecode, and telemetry must say so.
  std::optional<interp::Engine> EngineRan;
  std::optional<json::Value> AdaptiveJson;
  auto writeStats = [&]() -> bool {
    if (Opts.StatsJsonPath.empty())
      return true;
    json::Value Doc = json::Value::object();
    Doc.set("schema", "simdflat-stats-v1");
    Doc.set("input", Opts.InputPath);
    Doc.set("goto_loops_recovered", static_cast<int64_t>(Recovered));
    if (PipelineRep)
      Doc.set("pipeline", transform::toJson(*PipelineRep));
    if (AdaptiveJson)
      Doc.set("adaptive", *AdaptiveJson);
    if (RunStats) {
      interp::Engine Eng = EngineRan.value_or(Opts.Eng);
      Doc.set("engine", interp::engineName(Eng));
      Doc.set("run_stats", interp::toJson(*RunStats, Eng));
    }
    if (!json::writeFile(Opts.StatsJsonPath, Doc)) {
      std::fprintf(stderr, "flattenc: cannot write '%s'\n",
                   Opts.StatsJsonPath.c_str());
      return false;
    }
    return true;
  };

  if (Opts.Analyze) {
    std::printf("loop nests:\n%s",
                analysis::renderLoopNests(
                    analysis::findLoopNests(P))
                    .c_str());
    // Safety verdict for every parallel-marked loop.
    for (const analysis::LoopNestNode &N : analysis::findLoopNests(P)) {
      if (!N.Parallel)
        continue;
      const auto *D = cast<ir::DoStmt>(N.Loop);
      analysis::SafetyResult SR = analysis::checkParallelizable(*D, P);
      std::printf("DOALL %s: %s%s\n", N.IndexVar.c_str(),
                  SR.Parallelizable ? "provably parallelizable"
                                    : "not provable: ",
                  SR.Parallelizable ? "" : SR.Reason.c_str());
    }
    // What would flattening do?
    ir::Program Copy = ir::cloneProgram(P);
    transform::FlattenOptions FOpts;
    FOpts.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    transform::FlattenResult FR = transform::flattenNest(Copy, FOpts);
    if (FR.Changed)
      std::printf("flattening: applicable at the %s level\n",
                  transform::flattenLevelName(FR.Applied));
    else
      std::printf("flattening: not applicable: %s\n", FR.Reason.c_str());
    // Dry-run the full pipeline and report each stage's verification.
    transform::PipelineOptions PO;
    PO.Layout = Opts.Layout;
    PO.Flatten = !Opts.NoFlatten;
    PO.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    transform::PipelineReport Rep;
    auto Compiled = transform::compileForSimd(P, PO, &Rep);
    std::printf("pipeline stages:\n");
    for (const transform::StageOutcome &S : Rep.Stages) {
      std::printf("  %-13s %s", S.Stage.c_str(),
                  !S.Ran ? "skipped"
                         : S.Verified ? "verified" : "FAILED verify");
      if (!S.Note.empty())
        std::printf(" (%s)", S.Note.c_str());
      std::printf("\n");
    }
    PipelineRep = Rep;
    if (!Compiled) {
      std::printf("pipeline: %s\n", Compiled.error().render().c_str());
      (void)writeStats();
      return 1;
    }
    return writeStats() ? 0 : 2;
  }

  // --adaptive pass 1: build and run the *unflattened* variant on the
  // provided inputs. Its inner serial loop records one trip sample per
  // source row -- exactly the distribution the Sec. 6 cost model
  // consumes (a transformed variant would report its own schedule and
  // hide the source skew). The verdict then drives the real build.
  if (Opts.Adaptive) {
    transform::PipelineOptions PPO;
    PPO.Layout = Opts.Layout;
    PPO.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    PPO.Strategy = transform::StrategyPolicy::unflattened();
    auto Profiled = transform::compileForSimd(P, PPO, nullptr);
    if (!Profiled) {
      std::fprintf(stderr, "flattenc: %s\n",
                   Profiled.error().render().c_str());
      return 1;
    }
    if (!checkInputs(*Profiled, Opts))
      return 2;
    machine::MachineConfig PM;
    PM.Name = "flattenc-profile";
    PM.Processors = Opts.Lanes;
    PM.Gran = Opts.Lanes;
    PM.DataLayout = Opts.Layout;
    interp::RunOptions PRO;
    PRO.Fuel = Opts.Fuel;
    // The tree engine records no trip nests; profile on bytecode
    // regardless of which engine --engine picked for the real run.
    PRO.Eng = interp::Engine::Bytecode;
    interp::SimdInterp Profiler(*Profiled, PM, nullptr, PRO);
    for (const auto &[Name, V] : Opts.Sets)
      Profiler.store().setInt(Name, V);
    for (const auto &[Name, Vals] : Opts.SetArrays)
      Profiler.store().setIntArray(Name, Vals);
    interp::RunOutcome<interp::SimdRunResult> POut = Profiler.run();
    if (!POut) {
      std::fprintf(stderr, "flattenc: profiling run: %s\n",
                   POut.error().render().c_str());
      return 3;
    }
    const interp::NestTripStats *Dom =
        analysis::dominantTripNest(POut->Stats.TripNests);
    analysis::StrategyChoice C;
    if (Dom)
      C = analysis::chooseStrategy(
          analysis::TripDistribution(Dom->Hist), Opts.Lanes, Opts.Layout,
          transform::StrategyPolicy::coalesced().costs());
    std::fprintf(stderr,
                 "flattenc: adaptive profile chose %s "
                 "(confidence %.2f, %lld trip sample(s))\n",
                 analysis::strategyName(C.Primary), C.Confidence,
                 static_cast<long long>(Dom ? Dom->Hist.Samples : 0));
    Opts.Strategy = C.Primary;
    json::Value AJ = json::Value::object();
    AJ.set("chosen", analysis::strategyName(C.Primary));
    AJ.set("confidence", C.Confidence);
    AJ.set("profiled_samples",
           Dom ? Dom->Hist.Samples : static_cast<int64_t>(0));
    json::Value Scores = json::Value::object();
    for (analysis::Strategy S :
         {analysis::Strategy::Unflattened, analysis::Strategy::Flattened,
          analysis::Strategy::Coalesced})
      Scores.set(analysis::strategyName(S), C.scoreOf(S));
    AJ.set("scores", std::move(Scores));
    AdaptiveJson = std::move(AJ);
  }

  if (Opts.Emit == "flat" && !Opts.NoFlatten) {
    transform::FlattenOptions FOpts;
    FOpts.Force = Opts.Level;
    FOpts.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    transform::FlattenResult FR = transform::flattenNest(P, FOpts);
    if (!FR.Changed) {
      std::fprintf(stderr, "flattenc: not flattened: %s\n",
                   FR.Reason.c_str());
      if (Opts.Level)
        return 1;
    } else {
      std::fprintf(stderr, "flattenc: flattened at the %s level\n",
                   transform::flattenLevelName(FR.Applied));
    }
    transform::simplifyProgram(P);
  } else if (Opts.Emit == "simd") {
    transform::PipelineOptions PO;
    PO.Layout = Opts.Layout;
    PO.Flatten = !Opts.NoFlatten;
    PO.ForceLevel = Opts.Level;
    PO.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    if (Opts.Strategy)
      PO.Strategy = transform::StrategyPolicy{*Opts.Strategy};
    transform::PipelineReport Rep;
    auto Compiled = transform::compileForSimd(P, PO, &Rep);
    std::fputs(("flattenc: " + Rep.summary()).c_str(), stderr);
    if (Opts.Strategy)
      std::fprintf(stderr, "flattenc: strategy: %s\n",
                   analysis::strategyName(Rep.StrategyApplied));
    PipelineRep = Rep;
    if (!Compiled) {
      std::fprintf(stderr, "flattenc: %s\n",
                   Compiled.error().render().c_str());
      (void)writeStats();
      return 1;
    }
    P = std::move(*Compiled);
    if (Opts.Level && !Rep.Flattened) {
      (void)writeStats();
      return 1;
    }
  }

  std::fputs(ir::printProgram(P).c_str(), stdout);

  if (Opts.DumpBytecode) {
    exec::Mode M = P.dialect() == ir::Dialect::F90Simd
                       ? exec::Mode::Simd
                       : exec::Mode::Scalar;
    exec::Program Code = exec::lower(P, M);
    std::fputs(exec::disassemble(Code).c_str(), stdout);
  }

  if (!Opts.Run)
    return writeStats() ? 0 : 2;
  if (P.dialect() != ir::Dialect::F90Simd) {
    std::fprintf(stderr,
                 "flattenc: --run requires --emit=simd (the simulator "
                 "executes the F90simd dialect)\n");
    return 2;
  }
  if (!checkInputs(P, Opts))
    return 2;
  machine::MachineConfig M;
  M.Name = "flattenc-sim";
  M.Processors = Opts.Lanes;
  M.Gran = Opts.Lanes;
  M.DataLayout = Opts.Layout;
  interp::RunOptions ROpts;
  ROpts.Fuel = Opts.Fuel;
  ROpts.Eng = Opts.Eng;
  interp::SimdInterp Interp(P, M, nullptr, ROpts);
  for (const auto &[Name, V] : Opts.Sets)
    Interp.store().setInt(Name, V);
  for (const auto &[Name, Vals] : Opts.SetArrays)
    Interp.store().setIntArray(Name, Vals);
  interp::RunOutcome<interp::SimdRunResult> Out = Interp.run();
  if (!Out) {
    std::fprintf(stderr, "flattenc: %s\n", Out.error().render().c_str());
    (void)writeStats();
    return 3;
  }
  const interp::SimdRunResult &R = *Out;
  RunStats = R.Stats;
  EngineRan = R.EngineUsed;
  std::fprintf(stderr,
               "flattenc: executed on %lld lanes: %lld instructions, "
               "%.1f cycles, comm accesses %lld\n",
               static_cast<long long>(Opts.Lanes),
               static_cast<long long>(R.Stats.Instructions),
               R.Stats.Cycles,
               static_cast<long long>(R.Stats.CommAccesses));
  // Print distributed integer arrays so results are inspectable.
  for (const ir::VarDecl &V : P.vars()) {
    if (!V.isArray() || V.Kind != ir::ScalarKind::Int ||
        V.numElements() > 64)
      continue;
    std::fprintf(stderr, "  %s =", V.Name.c_str());
    for (int64_t X : Interp.store().getIntArray(V.Name))
      std::fprintf(stderr, " %lld", static_cast<long long>(X));
    std::fprintf(stderr, "\n");
  }
  return writeStats() ? 0 : 2;
}

int main(int Argc, char **Argv) {
  // Top-level exception barrier: an escaped exception (std::bad_alloc
  // on a hostile input, a container throw from a bug) is a structured
  // one-line diagnostic and a distinct exit code, never std::terminate.
  try {
    return realMain(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "flattenc: internal error: %s\n", E.what());
    return 4;
  } catch (...) {
    std::fprintf(stderr, "flattenc: internal error: unknown exception\n");
    return 4;
  }
}
