//===- tests/tools/FlattencCliTest.cpp -------------------------*- C++ -*-===//
//
// The flattenc exit-code contract at the process boundary, notably the
// top-level exception barrier: an escaped exception must become a
// structured one-line diagnostic and exit code 4, never std::terminate.
// FLATTENC_BIN is injected by the build (see tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace {

struct CliResult {
  int ExitCode = -1;
  std::string Output; // stdout + stderr interleaved
};

/// Runs flattenc with \p Args, capturing combined output and the exit
/// code (-1 if the process died on a signal, e.g. std::terminate).
CliResult runFlattenc(const std::string &Args) {
  CliResult R;
  std::string Cmd = std::string(FLATTENC_BIN) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), P)) > 0)
    R.Output.append(Buf.data(), N);
  int Status = pclose(P);
  if (Status >= 0 && WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

TEST(FlattencCli, ExceptionBarrierExitsFourWithDiagnostic) {
  CliResult R = runFlattenc("--test-throw /dev/null");
  EXPECT_EQ(R.ExitCode, 4)
      << "an escaped exception must exit 4, not crash; output:\n"
      << R.Output;
  EXPECT_NE(R.Output.find("flattenc: internal error:"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("--test-throw requested"), std::string::npos)
      << R.Output;
}

TEST(FlattencCli, BadCommandLineExitsTwo) {
  EXPECT_EQ(runFlattenc("--no-such-flag").ExitCode, 2);
  // No input file at all.
  EXPECT_EQ(runFlattenc("").ExitCode, 2);
}

TEST(FlattencCli, MissingInputFileIsAFrontEndError) {
  CliResult R = runFlattenc("/nonexistent/prog.f");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.ExitCode, 4)
      << "an unreadable input is an ordinary error, not the barrier";
}

TEST(FlattencCli, UsageMentionsAllExitCodes) {
  CliResult R = runFlattenc("--help");
  EXPECT_NE(R.Output.find("4 internal error"), std::string::npos)
      << R.Output;
}

/// Writes the strategy-test fixture (a DOALL/DO nest whose inner trips
/// come from the L array) and returns its path.
std::string writeNestFixture() {
  std::string Path =
      "/tmp/flattenc_cli_nest_" + std::to_string(getpid()) + ".f";
  if (FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fputs("PROGRAM WIDE\n"
               "INTEGER K\n"
               "DISTRIBUTED INTEGER L(8)\n"
               "DISTRIBUTED INTEGER X(8, 8)\n"
               "INTEGER i\n"
               "INTEGER j\n"
               "BEGIN\n"
               "  DOALL i = 1, K\n"
               "    DO j = 1, L(i)\n"
               "      X(i, j) = i * j\n"
               "    ENDDO\n"
               "  ENDDO\n"
               "END\n",
               F);
    std::fclose(F);
  }
  return Path;
}

/// The "  X = ..." result line printed after --run, or "" if absent.
std::string xLine(const std::string &Output) {
  size_t Pos = Output.find("  X =");
  if (Pos == std::string::npos)
    return "";
  return Output.substr(Pos, Output.find('\n', Pos) - Pos);
}

TEST(FlattencCli, StrategyVariantsAgreeOnResults) {
  // The semantic-preservation contract at the CLI boundary: the same
  // program and inputs produce identical results under every forced
  // loop strategy, and the applied strategy is echoed.
  std::string Fix = writeNestFixture();
  std::string Baseline;
  for (const char *S : {"unflattened", "flattened", "coalesced"}) {
    CliResult R = runFlattenc(
        std::string("--strategy=") + S +
        " --run --lanes=4 --set K=8 --set-array L=8,1,1,1,1,1,1,1 " +
        Fix);
    EXPECT_EQ(R.ExitCode, 0) << S << ":\n" << R.Output;
    EXPECT_NE(R.Output.find(std::string("flattenc: strategy: ") + S),
              std::string::npos)
        << S << ":\n" << R.Output;
    std::string X = xLine(R.Output);
    EXPECT_FALSE(X.empty()) << S << ":\n" << R.Output;
    if (Baseline.empty())
      Baseline = X;
    else
      EXPECT_EQ(X, Baseline) << S << " diverged:\n" << R.Output;
  }
  std::remove(Fix.c_str());
}

TEST(FlattencCli, EngineVariantsAgreeOnResults) {
  // Every listed engine runs the program to the same result; a name not
  // in the list (including the removed hostsimd) is a usage error, and
  // the usage and error text print exactly the accepted names.
  std::string Fix = writeNestFixture();
  std::string Baseline;
  for (const char *Eng : {"tree", "bytecode", "native"}) {
    CliResult R = runFlattenc(
        std::string("--engine=") + Eng +
        " --run --lanes=4 --set K=8 --set-array L=3,1,2,1,1,3,1,2 " + Fix);
    EXPECT_EQ(R.ExitCode, 0) << Eng << ":\n" << R.Output;
    std::string X = xLine(R.Output);
    EXPECT_FALSE(X.empty()) << Eng << ":\n" << R.Output;
    if (Baseline.empty())
      Baseline = X;
    else
      EXPECT_EQ(X, Baseline) << Eng << " diverged:\n" << R.Output;
  }
  for (const char *Eng : {"hostsimd", "warp", ""}) {
    CliResult R = runFlattenc(std::string("--engine=") + Eng + " " + Fix);
    EXPECT_EQ(R.ExitCode, 2) << Eng << ":\n" << R.Output;
    EXPECT_NE(R.Output.find("--engine expects tree|bytecode|native, got"),
              std::string::npos)
        << R.Output;
    EXPECT_NE(R.Output.find("  --engine=tree|bytecode|native\n"),
              std::string::npos)
        << R.Output;
  }
  std::remove(Fix.c_str());
}

TEST(FlattencCli, AdaptiveTwoPassPicksFromTheProfile) {
  // One hot row on 4 lanes: the profiled distribution makes the
  // balanced coalesced schedule the model's winner. Uniform trips keep
  // the plain unflattened build. Both runs must produce the identical
  // result array the forced-strategy runs produce.
  std::string Fix = writeNestFixture();
  std::string Stats =
      "/tmp/flattenc_cli_stats_" + std::to_string(getpid()) + ".json";
  CliResult Skew = runFlattenc(
      "--adaptive --run --lanes=4 --set K=8 "
      "--set-array L=8,1,1,1,1,1,1,1 --stats-json=" +
      Stats + " " + Fix);
  EXPECT_EQ(Skew.ExitCode, 0) << Skew.Output;
  EXPECT_NE(Skew.Output.find("adaptive profile chose coalesced"),
            std::string::npos)
      << Skew.Output;
  EXPECT_NE(Skew.Output.find("flattenc: strategy: coalesced"),
            std::string::npos)
      << Skew.Output;
  EXPECT_FALSE(xLine(Skew.Output).empty()) << Skew.Output;

  CliResult Uniform = runFlattenc(
      "--adaptive --run --lanes=4 --set K=8 "
      "--set-array L=5,5,5,5,5,5,5,5 " +
      Fix);
  EXPECT_EQ(Uniform.ExitCode, 0) << Uniform.Output;
  EXPECT_NE(Uniform.Output.find("adaptive profile chose unflattened"),
            std::string::npos)
      << Uniform.Output;

  // The stats document records the verdict for offline analysis.
  std::string Doc;
  if (FILE *F = std::fopen(Stats.c_str(), "r")) {
    std::array<char, 4096> Buf;
    size_t N;
    while ((N = fread(Buf.data(), 1, Buf.size(), F)) > 0)
      Doc.append(Buf.data(), N);
    std::fclose(F);
  }
  EXPECT_NE(Doc.find("\"adaptive\""), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("coalesced"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"confidence\""), std::string::npos) << Doc;
  std::remove(Stats.c_str());
  std::remove(Fix.c_str());
}

TEST(FlattencCli, AdaptiveAndStrategyFlagValidation) {
  std::string Fix = writeNestFixture();
  // --adaptive needs a run to profile.
  EXPECT_EQ(runFlattenc("--adaptive " + Fix).ExitCode, 2);
  // --adaptive picks the strategy itself.
  EXPECT_EQ(runFlattenc("--adaptive --run --strategy=flattened " + Fix)
                .ExitCode,
            2);
  // Unknown strategy name.
  EXPECT_EQ(runFlattenc("--strategy=warp " + Fix).ExitCode, 2);
  // Strategies drive the full SIMD pipeline.
  EXPECT_EQ(
      runFlattenc("--strategy=flattened --emit=flat " + Fix).ExitCode, 2);
  EXPECT_EQ(
      runFlattenc("--strategy=flattened --no-flatten " + Fix).ExitCode,
      2);
  std::remove(Fix.c_str());
}

} // namespace
