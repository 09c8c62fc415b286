//===- tests/tools/CliHelpTest.cpp -----------------------------*- C++ -*-===//
//
// Every front end renders its help from its option table: `--help`
// prints the usage to stdout and exits 0, and flattend's usage lists
// exactly the flags docs/SERVING.md documents. The binary and document
// paths are injected by the build (see tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

struct CliResult {
  int ExitCode = -1;
  std::string Stdout;
};

/// Runs \p Cmd with stderr discarded, capturing stdout and the exit code.
CliResult runStdout(const std::string &Cmd) {
  CliResult R;
  FILE *P = popen((Cmd + " 2>/dev/null").c_str(), "r");
  if (!P)
    return R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), P)) > 0)
    R.Stdout.append(Buf.data(), N);
  int Status = pclose(P);
  if (Status >= 0 && WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

/// The `--name` that starts each line of \p Text that begins with
/// \p Prefix (a usage entry, or a docs table row).
std::set<std::string> rowNames(const std::string &Text,
                               const std::string &Prefix) {
  std::set<std::string> Names;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line))
    if (Line.rfind(Prefix, 0) == 0)
      Names.insert(Line.substr(
          Prefix.size() - 2,
          Line.find_first_of(" =`", Prefix.size()) - (Prefix.size() - 2)));
  return Names;
}

TEST(CliHelp, HelpPrintsUsageToStdoutAndExitsZero) {
  for (const char *Bin : {FLATTENC_BIN, FLATTEND_BIN, FLATTENFUZZ_BIN,
                          PERF_COMPARE_BIN, BENCH_BIN}) {
    for (const char *Help : {"--help", "-h"}) {
      CliResult R = runStdout(std::string(Bin) + " " + Help);
      EXPECT_EQ(R.ExitCode, 0) << Bin << " " << Help;
      EXPECT_EQ(R.Stdout.rfind("usage: ", 0), 0u)
          << Bin << " " << Help << ":\n"
          << R.Stdout;
      EXPECT_NE(R.Stdout.find("\n  --"), std::string::npos)
          << Bin << " lists no options:\n"
          << R.Stdout;
    }
  }
}

TEST(CliHelp, FlattendUsageMatchesTheServingDocs) {
  CliResult R = runStdout(std::string(FLATTEND_BIN) + " --help");
  ASSERT_EQ(R.ExitCode, 0);
  std::ifstream Doc(SERVING_MD);
  ASSERT_TRUE(Doc) << SERVING_MD;
  std::stringstream Buf;
  Buf << Doc.rdbuf();
  std::string Text = Buf.str();
  size_t Begin = Text.find("## Daemon flags");
  ASSERT_NE(Begin, std::string::npos);
  size_t End = Text.find("\n## ", Begin + 1);
  std::set<std::string> Usage = rowNames(R.Stdout, "  --");
  EXPECT_EQ(Usage, rowNames(Text.substr(Begin, End - Begin), "| `--"));
  EXPECT_GT(Usage.size(), 20u);
}

} // namespace
