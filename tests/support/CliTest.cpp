//===- tests/support/CliTest.cpp -------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

#include "interp/RunStats.h"
#include "machine/Machine.h"

#include <gtest/gtest.h>

using namespace simdflat;

namespace {

/// One front end's worth of options, with every row kind.
struct Fixture {
  int64_t Lanes = 4;
  int64_t Fuel = 0;
  int64_t Big = 0;
  bool Run = false;
  bool Secret = false;
  std::string Path;
  std::vector<std::string> Sets;
  interp::Engine Eng = interp::Engine::Bytecode;
  machine::Layout Layout = machine::Layout::Cyclic;
  std::vector<std::string> Inputs;

  cli::Command command() {
    return {"tool",
            "[options] file.f",
            {cli::integer("--lanes", "N", 1, Lanes, "simulator lanes"),
             cli::integer("--fuel", "N", 0, Fuel, "watchdog budget"),
             cli::integer("--big", "N", 5, Big, "at least five"),
             cli::flag("--run", Run, "execute the program"),
             cli::text("--out", "PATH", Path, "where to write"),
             cli::nextArg(
                 "--set", "NAME=V",
                 [this](const std::string &KV) -> std::string {
                   if (KV.find('=') == std::string::npos)
                     return "--set expects NAME=V, got '" + KV + "'";
                   Sets.push_back(KV);
                   return "";
                 },
                 "set an input"),
             cli::engine(Eng, "which engine runs it"),
             cli::layout(Layout, "lane layout"),
             cli::flag("--secret", Secret, "")},
            {"file.f"},
            "exit codes: 0 ok, 2 bad command line\n"};
  }

  /// Parses \p Args (after the program name); stderr is captured into
  /// \p Err.
  std::optional<int> parse(std::vector<std::string> Args,
                           std::string *Err = nullptr) {
    Args.insert(Args.begin(), "tool");
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    testing::internal::CaptureStderr();
    std::optional<int> Exit = cli::parse(
        command(), static_cast<int>(Argv.size()), Argv.data(), &Inputs);
    std::string Captured = testing::internal::GetCapturedStderr();
    if (Err)
      *Err = Captured;
    return Exit;
  }
};

TEST(Cli, ParseIntIsStrict) {
  int64_t V = 0;
  EXPECT_TRUE(cli::parseInt("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(cli::parseInt("-7", V));
  EXPECT_EQ(V, -7);
  for (const char *Bad :
       {"", "4x", "x4", "1.5", " 4", "99999999999999999999"})
    EXPECT_FALSE(cli::parseInt(Bad, V)) << Bad;
}

TEST(Cli, OptionValueMatchesOnlyNameEqualsValue) {
  std::string V;
  EXPECT_TRUE(cli::optionValue("--lanes=4", "--lanes", V));
  EXPECT_EQ(V, "4");
  EXPECT_TRUE(cli::optionValue("--lanes=", "--lanes", V));
  EXPECT_EQ(V, "");
  for (const char *Bad : {"--lanes", "--lanesfoo=2", "--lane=2", "-lanes=2"})
    EXPECT_FALSE(cli::optionValue(Bad, "--lanes", V)) << Bad;
}

TEST(Cli, RowsApplyTheirValues) {
  Fixture F;
  ASSERT_EQ(F.parse({"--lanes=8", "--fuel=0", "--big=5", "--run",
                     "--out=o.json", "--set", "K=3", "--engine=tree",
                     "--layout=block", "--secret", "in.f", "--set", "L=1"}),
            std::nullopt);
  EXPECT_EQ(F.Lanes, 8);
  EXPECT_EQ(F.Fuel, 0);
  EXPECT_EQ(F.Big, 5);
  EXPECT_TRUE(F.Run);
  EXPECT_EQ(F.Path, "o.json");
  EXPECT_EQ(F.Sets, (std::vector<std::string>{"K=3", "L=1"}));
  EXPECT_EQ(F.Eng, interp::Engine::Tree);
  EXPECT_EQ(F.Layout, machine::Layout::Block);
  EXPECT_TRUE(F.Secret);
  EXPECT_EQ(F.Inputs, (std::vector<std::string>{"in.f"}));
}

TEST(Cli, NamesMatchExactly) {
  // A value row matches only as name=value, a flag or next-argument row
  // only as its bare name; anything else is an unknown option.
  for (const char *Bad : {"--lanesfoo=2", "--lanes", "--run=1", "--runs",
                          "--set=K=1", "--engine", "-run"}) {
    Fixture F;
    std::string Err;
    EXPECT_EQ(F.parse({Bad, "in.f"}, &Err), 2) << Bad;
    EXPECT_EQ(Err.rfind(std::string("tool: unknown option '") + Bad + "'\n",
                        0),
              0u)
        << Err;
    EXPECT_NE(Err.find("usage: tool [options] file.f\n"), std::string::npos)
        << Err;
  }
}

TEST(Cli, RowErrorsNameTheArgument) {
  const std::pair<const char *, const char *> Cases[] = {
      {"--lanes=0", "--lanes expects a positive integer, got '--lanes=0'"},
      {"--lanes=two", "--lanes expects a positive integer, got "
                      "'--lanes=two'"},
      {"--fuel=-1", "--fuel expects a non-negative integer, got "
                    "'--fuel=-1'"},
      {"--big=4", "--big expects an integer >= 5, got '--big=4'"},
      {"--engine=warp",
       "--engine expects tree|bytecode|native, got '--engine=warp'"},
      {"--layout=", "--layout expects cyclic|block, got '--layout='"},
      {"--out=", "--out expects a non-empty value, got '--out='"},
  };
  for (const auto &[Arg, Msg] : Cases) {
    Fixture F;
    std::string Err;
    EXPECT_EQ(F.parse({Arg, "in.f"}, &Err), 2) << Arg;
    EXPECT_EQ(Err.rfind(std::string("tool: ") + Msg + "\n", 0), 0u) << Err;
  }
}

TEST(Cli, NextArgumentRows) {
  Fixture F;
  std::string Err;
  EXPECT_EQ(F.parse({"in.f", "--set"}, &Err), 2);
  EXPECT_EQ(Err.rfind("tool: --set expects a NAME=V argument\n", 0), 0u)
      << Err;
  // The row's own check runs on the consumed argument.
  EXPECT_EQ(F.parse({"--set", "K", "in.f"}, &Err), 2);
  EXPECT_EQ(Err.rfind("tool: --set expects NAME=V, got 'K'\n", 0), 0u)
      << Err;
  // The value is consumed even when it looks like an option.
  Fixture G;
  EXPECT_EQ(G.parse({"--set", "--run=1", "in.f"}, &Err), std::nullopt)
      << Err;
  EXPECT_EQ(G.Sets, (std::vector<std::string>{"--run=1"}));
  EXPECT_FALSE(G.Run);
}

TEST(Cli, PositionalCountIsExact) {
  Fixture F;
  std::string Err;
  EXPECT_EQ(F.parse({"--run"}, &Err), 2);
  EXPECT_EQ(Err.rfind("tool: expected file.f\n", 0), 0u) << Err;
  EXPECT_EQ(F.parse({"a.f", "b.f"}, &Err), 2);
  EXPECT_EQ(Err.rfind("tool: unexpected argument 'b.f'\n", 0), 0u) << Err;
}

TEST(Cli, HelpPrintsUsageToStdoutAndExitsZero) {
  for (const char *Help : {"--help", "-h"}) {
    Fixture F;
    std::string Err;
    testing::internal::CaptureStdout();
    // --help wins even before a bad option or a missing positional.
    std::optional<int> Exit = F.parse({Help, "--bogus"}, &Err);
    std::string Out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(Exit, 0) << Help;
    EXPECT_EQ(Out, cli::usage(F.command()));
    EXPECT_EQ(Err, "");
  }
}

TEST(Cli, UsageListsEveryVisibleRow) {
  Fixture F;
  std::string U = cli::usage(F.command());
  EXPECT_EQ(U.rfind("usage: tool [options] file.f\n", 0), 0u) << U;
  for (const char *Entry :
       {"\n  --lanes=N                simulator lanes\n",
        "\n  --run                    execute the program\n",
        "\n  --set NAME=V             set an input\n",
        "\n  --out=PATH               where to write\n",
        // A spelling too wide for the column puts its help below it.
        "\n  --engine=tree|bytecode|native\n"
        "                           which engine runs it\n",
        "\n  --layout=cyclic|block    lane layout\n"})
    EXPECT_NE(U.find(Entry), std::string::npos) << Entry << "in:\n" << U;
  EXPECT_EQ(U.find("--secret"), std::string::npos) << U;
  EXPECT_EQ(U.substr(U.size() - 37), "exit codes: 0 ok, 2 bad command line\n");
}

TEST(Cli, LongHelpWrapsInsideTheHelpColumn) {
  bool B = false;
  cli::Command C{"t",
                 "",
                 {cli::flag("--x", B,
                            "one two three four five six seven eight nine "
                            "ten eleven twelve thirteen fourteen fifteen")},
                 {},
                 ""};
  std::string U = cli::usage(C);
  EXPECT_EQ(U, "usage: t \n"
               "  --x                      one two three four five six "
               "seven eight nine ten\n"
               "                           eleven twelve thirteen "
               "fourteen fifteen\n");
}

} // namespace
