//===- tests/tools/FlattendCliTest.cpp -------------------------*- C++ -*-===//
//
// The flattend process contract at the stdin/stdout boundary: a
// truncated final JSON line (EOF mid-record, no terminating newline) is
// a structured per-request error - answered in sequence and counted in
// the summary - never an exit-5 accounting inconsistency; an
// unterminated line that still parses as a complete request is served
// normally; and --engine selects the execution backend, echoed in the
// summary record. FLATTEND_BIN is injected by the build (see
// tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

struct CliResult {
  int ExitCode = -1;
  std::string Output; // stdout + stderr interleaved
};

/// Runs flattend with \p Args, feeding \p Stdin verbatim (no newline is
/// appended - callers control whether the final record is terminated),
/// capturing combined output and the exit code.
CliResult runFlattend(const std::string &Args, const std::string &Stdin) {
  CliResult R;
  std::string In = "/tmp/flattend_cli_in_" + std::to_string(getpid());
  if (FILE *F = std::fopen(In.c_str(), "wb")) {
    std::fwrite(Stdin.data(), 1, Stdin.size(), F);
    std::fclose(F);
  }
  std::string Cmd =
      std::string(FLATTEND_BIN) + " " + Args + " < " + In + " 2>&1";
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
  std::remove(In.c_str());
  return R;
}

/// One complete request line (terminated by the caller). The program is
/// trivially servable on any engine.
std::string goodRequest(int Id) {
  return "{\"id\": " + std::to_string(Id) +
         ", \"source\": \"PROGRAM REPEAT\\nINTEGER a\\nINTEGER b\\n"
         "BEGIN\\n  b = a * 3 + 1\\nEND\\n\", \"fuel\": 100000}";
}

TEST(FlattendCli, TruncatedFinalLineIsStructuredErrorNotExitFive) {
  // A valid request, then a record cut off mid-JSON with no newline -
  // the shape a killed producer leaves behind. The cut record must get
  // its own structured reply naming the truncation, the summary must
  // count it as a bad line, and the accounting self-check must pass.
  std::string In =
      goodRequest(1) + "\n{\"id\": 2, \"source\": \"PROGRAM CU";
  CliResult R = runFlattend("--workers=1", In);
  EXPECT_EQ(R.ExitCode, 0)
      << "a truncated record is a per-request error, not an accounting "
         "inconsistency; output:\n"
      << R.Output;
  EXPECT_NE(R.Output.find("truncated (EOF mid-record)"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"outcome\":\"served\""), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"outcome\":\"compile-error\""),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"bad_lines\":1"), std::string::npos)
      << R.Output;
}

TEST(FlattendCli, UnterminatedCompleteFinalLineIsServed) {
  // Missing only the final newline: the record itself is whole, so it
  // must be served like any other - no truncation diagnostic.
  CliResult R = runFlattend("--workers=1", goodRequest(1));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"outcome\":\"served\""), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("truncated"), std::string::npos) << R.Output;
}

TEST(FlattendCli, EngineFlagSelectsBackendAndIsEchoed) {
  for (const char *Eng : {"tree", "bytecode", "native"}) {
    CliResult R = runFlattend(
        std::string("--workers=1 --engine=") + Eng, goodRequest(1) + "\n");
    EXPECT_EQ(R.ExitCode, 0) << Eng << ":\n" << R.Output;
    EXPECT_NE(R.Output.find("\"outcome\":\"served\""), std::string::npos)
        << Eng << ":\n" << R.Output;
    EXPECT_NE(R.Output.find(std::string("\"engine\":\"") + Eng + "\""),
              std::string::npos)
        << Eng << ":\n" << R.Output;
  }
  // Names outside the list, including the removed hostsimd, are usage
  // errors whose text prints exactly the accepted names.
  for (const char *Eng : {"warp", "hostsimd"}) {
    CliResult R = runFlattend(std::string("--engine=") + Eng, "");
    EXPECT_EQ(R.ExitCode, 2) << Eng << ":\n" << R.Output;
    EXPECT_NE(R.Output.find("--engine expects tree|bytecode|native, got"),
              std::string::npos)
        << R.Output;
    EXPECT_NE(R.Output.find("  --engine=tree|bytecode|native\n"),
              std::string::npos)
        << R.Output;
  }
}

/// A request whose program has the DOALL/DO nest the adaptive layer
/// profiles; trips come from the L array.
std::string nestRequest(int Id, const std::string &LValues) {
  return "{\"id\": " + std::to_string(Id) +
         ", \"source\": \"PROGRAM WIDE\\nINTEGER K\\n"
         "DISTRIBUTED INTEGER L(8)\\nDISTRIBUTED INTEGER X(8, 64)\\n"
         "INTEGER i\\nINTEGER j\\nBEGIN\\n  DOALL i = 1, K\\n"
         "    DO j = 1, L(i)\\n      X(i, j) = i * j\\n    ENDDO\\n"
         "  ENDDO\\nEND\\n\", \"ints\": {\"K\": 8}, "
         "\"int_arrays\": {\"L\": [" +
         LValues + "]}, \"lanes\": 4, \"fuel\": 100000}";
}

TEST(FlattendCli, AdaptiveModeDecidesAndTagsReplies) {
  // Repeated probe runs accumulate the trip profile; once the decision
  // fires, replies carry the chosen strategy and a positive epoch, and
  // the summary counts the decision. Without --adaptive every reply
  // stays tagged "static".
  std::string In;
  for (int I = 1; I <= 12; ++I)
    In += nestRequest(I, "6,6,6,6,6,6,6,6") + "\n";

  CliResult Adaptive = runFlattend(
      "--workers=1 --adaptive --adaptive-min-samples=4", In);
  EXPECT_EQ(Adaptive.ExitCode, 0) << Adaptive.Output;
  EXPECT_EQ(Adaptive.Output.find("\"strategy\":\"static\""),
            std::string::npos)
      << "adaptive replies must be tagged with a real strategy:\n"
      << Adaptive.Output;
  EXPECT_NE(Adaptive.Output.find("\"strategy\":\"unflattened\""),
            std::string::npos)
      << Adaptive.Output;
  EXPECT_NE(Adaptive.Output.find("\"strategy_epoch\":1"),
            std::string::npos)
      << "a decision must bump the epoch:\n"
      << Adaptive.Output;
  EXPECT_NE(Adaptive.Output.find("\"adaptive\":true"), std::string::npos)
      << Adaptive.Output;
  EXPECT_EQ(Adaptive.Output.find("\"adaptive_decisions\":0"),
            std::string::npos)
      << "the summary must count the decision:\n"
      << Adaptive.Output;

  CliResult Static = runFlattend("--workers=1", nestRequest(1, "6,6,6,6,6,6,6,6") + "\n");
  EXPECT_EQ(Static.ExitCode, 0) << Static.Output;
  EXPECT_NE(Static.Output.find("\"strategy\":\"static\""),
            std::string::npos)
      << Static.Output;
}

TEST(FlattendCli, ExceptionBarrierExitsFourWithDiagnostic) {
  CliResult R = runFlattend("--test-throw", "");
  EXPECT_EQ(R.ExitCode, 4) << R.Output;
  EXPECT_NE(R.Output.find("flattend: internal error:"), std::string::npos)
      << R.Output;
}

TEST(FlattendCli, HealthCheckReportsOkAndExitsZero) {
  for (const char *Eng : {"bytecode", "native"}) {
    CliResult R =
        runFlattend(std::string("--health --engine=") + Eng, "");
    EXPECT_EQ(R.ExitCode, 0) << Eng << ":\n" << R.Output;
    EXPECT_NE(R.Output.find("\"health\":\"ok\""), std::string::npos)
        << Eng << ":\n" << R.Output;
    EXPECT_NE(R.Output.find(std::string("\"engine\":\"") + Eng + "\""),
              std::string::npos)
        << Eng << ":\n" << R.Output;
  }
}

TEST(FlattendCli, HealthCheckFailsWhenTheConfigurationCannotServe) {
  // --max-fuel=1 caps the probe's own fuel at 1: it traps, which means
  // this configuration cannot serve real programs - unhealthy, exit 1.
  CliResult R = runFlattend("--health --max-fuel=1", "");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("\"health\":\"bad\""), std::string::npos)
      << R.Output;
}

/// Launches flattend with \p Args (split on spaces) with pipes on stdin
/// and stdout; popen cannot deliver signals, so the drain test needs
/// the raw pid.
struct FlattendProcess {
  pid_t Pid = -1;
  int In = -1;  ///< write end of the child's stdin
  int Out = -1; ///< read end of the child's stdout

  static FlattendProcess launch(const std::vector<std::string> &Args) {
    FlattendProcess P;
    int InPipe[2], OutPipe[2];
    if (pipe(InPipe) != 0 || pipe(OutPipe) != 0)
      return P;
    pid_t Pid = fork();
    if (Pid == 0) {
      dup2(InPipe[0], STDIN_FILENO);
      dup2(OutPipe[1], STDOUT_FILENO);
      close(InPipe[0]);
      close(InPipe[1]);
      close(OutPipe[0]);
      close(OutPipe[1]);
      std::vector<char *> Argv;
      static std::string Bin = FLATTEND_BIN;
      Argv.push_back(Bin.data());
      std::vector<std::string> Copy = Args;
      for (std::string &A : Copy)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      execv(Bin.c_str(), Argv.data());
      _exit(127);
    }
    close(InPipe[0]);
    close(OutPipe[1]);
    P.Pid = Pid;
    P.In = InPipe[1];
    P.Out = OutPipe[0];
    return P;
  }

  void write(const std::string &S) const {
    ssize_t N = ::write(In, S.data(), S.size());
    (void)N;
  }

  /// Reads the child's stdout to EOF, then reaps it.
  int finish(std::string &Output) {
    std::array<char, 4096> Buf;
    ssize_t N;
    while ((N = ::read(Out, Buf.data(), Buf.size())) > 0)
      Output.append(Buf.data(), (size_t)N);
    close(Out);
    int Status = 0;
    waitpid(Pid, &Status, 0);
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }
};

TEST(FlattendCli, SigtermDrainsGracefullyAndAccountingBalances) {
  // The lifecycle contract under SIGTERM: a daemon mid-stream with a
  // stalled backlog must stop reading, resolve every request it
  // admitted (finish or shed with the draining status), print every
  // reply plus a drained summary, and exit 0 with balanced accounting.
  FlattendProcess P = FlattendProcess::launch(
      {"--workers=1", "--fault-worker-stall-micros=50000",
       "--drain-deadline-ms=100"});
  ASSERT_GT(P.Pid, 0);

  constexpr int N = 8;
  for (int I = 1; I <= N; ++I)
    P.write(goodRequest(I) + "\n");
  // Leave stdin OPEN: the signal must interrupt the blocking read, not
  // ride in behind an EOF. Give the daemon time to admit the backlog
  // and start the (stalled) first request.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(kill(P.Pid, SIGTERM), 0);

  std::string Output;
  int Exit = P.finish(Output);
  close(P.In);

  EXPECT_EQ(Exit, 0) << "a graceful drain is a success, not a crash:\n"
                     << Output;
  EXPECT_NE(Output.find("\"drained\":true"), std::string::npos) << Output;
  EXPECT_NE(Output.find("\"summary\":true"), std::string::npos) << Output;
  // Every admitted request resolved: count reply lines by their ids.
  int Replies = 0, Served = 0, DrainingSheds = 0;
  size_t Pos = 0;
  while ((Pos = Output.find("\"outcome\":", Pos)) != std::string::npos) {
    ++Replies;
    Pos += 10;
  }
  Pos = 0;
  while ((Pos = Output.find("\"outcome\":\"served\"", Pos)) !=
         std::string::npos) {
    ++Served;
    ++Pos;
  }
  Pos = 0;
  while ((Pos = Output.find("\"draining\":true", Pos)) !=
         std::string::npos) {
    ++DrainingSheds;
    ++Pos;
  }
  EXPECT_EQ(Replies, N) << "every submitted request must get a reply:\n"
                        << Output;
  EXPECT_GE(Served, 1) << Output;
  // 8 x 50ms of stalled work against a 100ms drain deadline: the sweep
  // must shed at least one queued request with the draining status.
  EXPECT_GE(DrainingSheds, 1) << Output;
  EXPECT_EQ(Served + DrainingSheds, N)
      << "drain outcomes must partition the backlog:\n"
      << Output;
  // The summary's own self-check ran (exit 0 already proves it, but
  // pin the counters the test depends on).
  EXPECT_NE(Output.find("\"drain_sheds\":" + std::to_string(DrainingSheds)),
            std::string::npos)
      << Output;
}

} // namespace
