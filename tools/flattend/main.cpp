//===- tools/flattend/main.cpp - Flattening-service daemon -----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// flattend: the compile-once/run-many face of the simdflat pipeline.
/// Reads one JSON request per line from stdin (docs/SERVING.md), pushes
/// each through the serve::Server (bounded weighted-fair admission
/// queue, per-tenant quotas, compiled-program cache, circuit breaker,
/// per-request budgets), and writes one JSON reply per line to stdout in
/// submission order. At end of input it prints a summary line with the
/// server counters and self-checks the accounting invariant served +
/// trapped + shed + compile-errors == submitted, globally and per
/// tenant.
///
/// Lifecycle: SIGINT/SIGTERM stop the input loop and drain gracefully -
/// already-admitted requests finish (or shed with a structured draining
/// status when --drain-deadline-ms passes first), every reply is
/// written, the summary reports drained=true, and the exit code stays 0.
/// --health runs an in-process self-check (compile + execute a builtin
/// probe under the configured engine) and exits 0/1 without reading
/// stdin.
///
/// Examples:
///   flattend < requests.jsonl
///   flattend --workers=4 --queue-capacity=8 --max-fuel=1000000
///            --telemetry=serve.log < requests.jsonl   (one line)
///   flattend --fault-compile-failures=2 --fault-evict-mid-flight
///            < requests.jsonl   (fault drill: must still add up)
///   flattend --health --engine=native
///
/// Exit codes: 0 success, 1 unhealthy (--health only), 2 bad command
/// line, 4 internal error (the exception barrier fired), 5 accounting
/// inconsistency.
///
//===----------------------------------------------------------------------===//

#include "serve/ServeJson.h"
#include "serve/Server.h"
#include "support/Cli.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

using namespace simdflat;

namespace {

/// Set by the SIGINT/SIGTERM handler; the input loop polls it and read()
/// is interrupted (no SA_RESTART), so a signal mid-block turns into a
/// graceful drain instead of a killed process.
volatile std::sig_atomic_t GSignal = 0;

extern "C" void onDrainSignal(int Sig) { GSignal = Sig; }

void installDrainHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onDrainSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // deliberately no SA_RESTART: read() must wake
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

struct CliOptions {
  serve::ServerOptions Server;
  std::string TelemetryPath;
  /// Hard bound on the graceful drain after SIGINT/SIGTERM: queued
  /// requests still unpicked when it passes are shed (draining status).
  int64_t DrainDeadlineMs = 5000;
  bool Health = false;
  bool TestThrow = false;
};

/// Parses the command line into \p Opts; returns the exit code when the
/// daemon should not start.
std::optional<int> parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  serve::ServerOptions &S = Opts.Server;
  cli::Command Cmd{
      "flattend",
      "[options] < requests.jsonl > replies.jsonl",
      {cli::integer("--workers", "N", 1, S.Workers,
                    "worker threads (default 2)"),
       cli::integer("--queue-capacity", "N", 1, S.QueueCapacity,
                    "admission queue bound (default 16)"),
       cli::integer("--cache-capacity", "N", 1, S.CacheCapacity,
                    "compiled programs kept (default 64)"),
       cli::integer("--cache-bytes", "N", 0, S.CacheMaxBytes,
                    "compiled-program byte budget (default 0: unmetered)"),
       cli::integer("--cache-tenant-bytes", "N", 0, S.CacheTenantMaxBytes,
                    "per-tenant cache occupancy cap in bytes (default 0: "
                    "unmetered)"),
       cli::integer("--max-lanes", "N", 1, S.MaxLanes,
                    "lane bound per request (default 64)"),
       cli::integer("--max-fuel", "N", 0, S.MaxFuel,
                    "require 0 < fuel <= N per request (default 0: fuel "
                    "optional)"),
       cli::integer("--tenant-rate", "N", 0, S.DefaultQuota.RatePerSec,
                    "request tokens per second for every tenant (default "
                    "0: unmetered)"),
       cli::integer("--tenant-burst", "N", 1, S.DefaultQuota.Burst,
                    "request token bucket capacity (default 8)"),
       cli::integer("--tenant-max-in-flight", "N", 0,
                    S.DefaultQuota.MaxInFlight,
                    "admitted-but-unresolved requests per tenant (default "
                    "0: unmetered)"),
       cli::integer("--tenant-max-queued", "N", 0, S.DefaultQuota.MaxQueued,
                    "queue share per tenant (default 0: bounded only by "
                    "--queue-capacity)"),
       cli::integer("--tenant-fuel-rate", "N", 0, S.DefaultQuota.FuelPerSec,
                    "fuel tokens per second per tenant (default 0: "
                    "unmetered)"),
       cli::integer("--compile-retries", "N", 0, S.CompileRetries,
                    "retries after a failed compile (default 2)"),
       cli::integer("--retry-after-ms", "N", 0, S.RetryAfterMs,
                    "base retry hint on shed replies (default 5; scaled by "
                    "queue depth or quota refill time)"),
       cli::integer("--breaker-cooldown-micros", "N", 0,
                    S.Breaker.CooldownMicros,
                    "re-probe an open breaker after N us (default 0: "
                    "count-driven only)"),
       cli::integer("--drain-deadline-ms", "N", 0, Opts.DrainDeadlineMs,
                    "hard bound on the SIGINT/SIGTERM graceful drain "
                    "(default 5000)"),
       cli::flag("--adaptive", S.Adaptive,
                 "profile-guided strategy selection: probe runs observe "
                 "each program's trip distribution, the Sec. 6 cost model "
                 "picks unflattened/flattened/coalesced, and drift "
                 "triggers respecialization"),
       cli::integer("--adaptive-min-samples", "N", 1, S.AdaptiveMinSamples,
                    "trip samples before the first decision (default 8)"),
       cli::integer("--adaptive-probe-every", "N", 0, S.AdaptiveProbeEvery,
                    "post-decision probe cadence (default 8; 0 disables "
                    "drift tracking)"),
       cli::integer(
           "--adaptive-drift-percent", "N", 0,
           [&S](int64_t N) { S.AdaptiveDriftThreshold = N / 100.0; },
           "re-decide when the probe window's total-variation distance "
           "from the decision snapshot exceeds N% (default 25)"),
       cli::integer("--adaptive-window", "N", 0, S.AdaptiveWindow,
                    "keep only the last N probe runs when measuring drift, "
                    "so transient spikes age out (default 0: accumulate "
                    "every probe since the last decision)"),
       cli::layout(S.Layout, "lane layout (default cyclic)"),
       cli::engine(S.Eng, "execution engine (default bytecode; native "
                          "JIT-compiles schedules to host loops and "
                          "degrades to bytecode without a toolchain)"),
       cli::text("--telemetry", "PATH", Opts.TelemetryPath,
                 "append one accounting record per reply"),
       cli::flag("--health", Opts.Health,
                 "self-check (compile + run a probe program), print one "
                 "status line, exit 0 healthy / 1 unhealthy"),
       cli::integer("--fault-compile-failures", "N", 0,
                    S.Faults.CompileFailures,
                    "fault drill: fail the first N compile attempts of "
                    "every primary pipeline"),
       cli::flag("--fault-evict-mid-flight", S.Faults.EvictMidFlight,
                 "fault drill: evict each program while its request "
                 "still runs"),
       cli::integer("--fault-worker-stall-micros", "N", 0,
                    S.Faults.WorkerStallMicros,
                    "fault drill: stall workers N us per request"),
       cli::integer("--fault-inflate-cost-bytes", "N", 0,
                    S.Faults.InflateCostBytes,
                    "fault drill: pretend every cached program costs N "
                    "bytes"),
       // Undocumented (no help text): fires the exception barrier (CI and
       // the CLI test assert the structured-diagnostic + exit-4 contract).
       cli::flag("--test-throw", Opts.TestThrow, "")},
      {},
      "exit codes: 0 success, 1 unhealthy (--health), 2 bad command\n"
      "line, 4 internal error, 5 accounting inconsistency\n"};
  return cli::parse(Cmd, Argc, Argv);
}

/// --health: compile and execute a builtin probe program in-process
/// under the configured engine/layout, verify the reply and the
/// accounting, print one status line. The fault drills are deliberately
/// NOT inherited - health answers "can this configuration serve", not
/// "do the drills still fail".
int healthCheck(const CliOptions &Opts) {
  serve::ServerOptions SO = Opts.Server;
  SO.Workers = 1;
  SO.Faults = serve::FaultPlan{};
  serve::ServerStats Stats;
  serve::Reply Rep;
  {
    serve::Server Server(SO);
    serve::Request R;
    R.Id = 1;
    R.Tenant = "health";
    R.Source = "PROGRAM HEALTH\n"
               "INTEGER K\n"
               "DISTRIBUTED INTEGER L(4)\n"
               "DISTRIBUTED INTEGER X(4, 3)\n"
               "INTEGER i\n"
               "INTEGER j\n"
               "BEGIN\n"
               "  DOALL i = 1, K\n"
               "    DO j = 1, L(i)\n"
               "      X(i, j) = i * j\n"
               "    ENDDO\n"
               "  ENDDO\n"
               "END\n";
    R.Ints = {{"K", 4}};
    R.IntArrays = {{"L", {3, 1, 2, 1}}};
    R.Lanes = std::min<int64_t>(4, SO.MaxLanes);
    R.Fuel = SO.MaxFuel > 0 ? std::min<int64_t>(100000, SO.MaxFuel) : 100000;
    R.DeadlineMs = 10'000;
    Rep = Server.submit(std::move(R)).get();
    Stats = Server.stats();
  }

  bool Healthy = Rep.Out == serve::Outcome::Served && Stats.consistent() &&
                 Stats.tenantsConsistent() && Rep.Tele.FuelSpent > 0;
  json::Value Status = json::Value::object();
  Status.set("health", Healthy ? "ok" : "bad");
  Status.set("engine", interp::engineName(SO.Eng));
  Status.set("outcome", serve::outcomeName(Rep.Out));
  Status.set("fuel_spent", Rep.Tele.FuelSpent);
  Status.set("consistent", Stats.consistent() && Stats.tenantsConsistent());
  if (!Rep.Error.empty())
    Status.set("error", Rep.Error);
  std::fputs((serve::toLine(Status) + "\n").c_str(), stdout);
  std::fflush(stdout);
  return Healthy ? 0 : 1;
}

/// EINTR-aware JSON-lines reader over fd 0. std::getline would restart
/// transparently around the drain signals, so the daemon reads raw and
/// splits lines itself; the truncated-record semantics of the stream
/// version are preserved (EOF mid-record and I/O-error mid-record are
/// distinguishable).
class LineReader {
public:
  struct Line {
    std::string Text;
    /// Final line arrived without its newline (EOF mid-record).
    bool Unterminated = false;
    /// The record was cut off by a read error, not by EOF.
    bool IoError = false;
  };

  /// False at end of input (EOF, I/O error with nothing buffered, or a
  /// drain signal).
  bool next(Line &Out) {
    for (;;) {
      if (GSignal)
        return false; // drain: stop consuming input immediately
      size_t Nl = Buf.find('\n', Pos);
      if (Nl != std::string::npos) {
        Out.Text = Buf.substr(Pos, Nl - Pos);
        Out.Unterminated = false;
        Out.IoError = false;
        Pos = Nl + 1;
        return true;
      }
      if (Done) {
        if (Pos < Buf.size()) {
          // Trailing partial record.
          Out.Text = Buf.substr(Pos);
          Out.Unterminated = true;
          Out.IoError = HadError;
          Pos = Buf.size();
          return true;
        }
        return false;
      }
      if (Pos > 0) {
        Buf.erase(0, Pos);
        Pos = 0;
      }
      char Tmp[1 << 16];
      ssize_t N = ::read(STDIN_FILENO, Tmp, sizeof(Tmp));
      if (N > 0) {
        Buf.append(Tmp, (size_t)N);
      } else if (N == 0) {
        Done = true;
      } else if (errno == EINTR) {
        continue; // the top of the loop checks GSignal
      } else {
        Done = true;
        HadError = true;
      }
    }
  }

private:
  std::string Buf;
  size_t Pos = 0;
  bool Done = false;
  bool HadError = false;
};

int realMain(int Argc, char **Argv) {
  CliOptions Opts;
  if (std::optional<int> Exit = parseArgs(Argc, Argv, Opts))
    return *Exit;
  if (Opts.TestThrow)
    throw std::runtime_error("--test-throw requested");
  if (Opts.Health)
    return healthCheck(Opts);

  installDrainHandlers();

  std::ofstream Telemetry;
  if (!Opts.TelemetryPath.empty()) {
    Telemetry.open(Opts.TelemetryPath, std::ios::app);
    if (!Telemetry) {
      std::fprintf(stderr, "flattend: cannot open '%s'\n",
                   Opts.TelemetryPath.c_str());
      return 2;
    }
  }

  serve::Server Server(Opts.Server);

  // Submit every line as it arrives (so the admission queue sees real
  // pressure), remembering futures in submission order; bad JSON never
  // reaches the server and is answered inline.
  struct Pending {
    std::future<serve::Reply> F;
    std::optional<serve::Reply> Immediate;
  };
  std::vector<Pending> Replies;
  int64_t BadLines = 0;
  LineReader Reader;
  LineReader::Line Line;
  uint64_t LineNo = 0;
  while (Reader.next(Line)) {
    ++LineNo;
    if (Line.IoError) {
      // A read error can leave a partial record: it still gets a
      // structured per-request reply - silently dropping it would
      // desync a caller matching replies to requests by line, and
      // miscounting it would trip the exit-5 self-check below.
      ++BadLines;
      serve::Reply Rep;
      Rep.Id = LineNo;
      Rep.Out = serve::Outcome::CompileError;
      Rep.Error = "request line " + std::to_string(LineNo) +
                  " truncated by a stream I/O error after " +
                  std::to_string(Line.Text.size()) + " bytes";
      Pending P;
      P.Immediate = std::move(Rep);
      Replies.push_back(std::move(P));
      continue;
    }
    if (Line.Text.find_first_not_of(" \t\r") == std::string::npos) {
      --LineNo; // blank lines are skipped and unnumbered, as before
      continue;
    }
    // An unterminated final line may have been cut off mid-write (EOF
    // mid-record). If it still parses as a complete request it is
    // accepted; if not, the reply says "truncated", not "bad JSON".
    auto Parsed = json::Value::parse(Line.Text);
    Pending P;
    if (!Parsed) {
      ++BadLines;
      serve::Reply Rep;
      Rep.Id = LineNo;
      Rep.Out = serve::Outcome::CompileError;
      Rep.Error =
          Line.Unterminated
              ? "request line " + std::to_string(LineNo) +
                    " truncated (EOF mid-record): " +
                    Parsed.error().render()
              : "request line " + std::to_string(LineNo) +
                    " is not valid JSON: " + Parsed.error().render();
      P.Immediate = std::move(Rep);
    } else {
      auto Req = serve::parseRequest(*Parsed);
      if (!Req) {
        ++BadLines;
        serve::Reply Rep;
        Rep.Id = LineNo;
        Rep.Out = serve::Outcome::CompileError;
        Rep.Error =
            "request line " + std::to_string(LineNo) + ": " + Req.error();
        P.Immediate = std::move(Rep);
      } else {
        P.F = Server.submit(std::move(*Req));
      }
    }
    Replies.push_back(std::move(P));
  }

  // Graceful drain on SIGINT/SIGTERM: admission closes, everything
  // already admitted finishes (queued requests still unpicked at the
  // hard deadline shed with the draining status), and every future
  // below is ready once drain() returns.
  bool Drained = false;
  bool DrainClean = true;
  if (GSignal) {
    Drained = true;
    DrainClean = Server.drain(Opts.DrainDeadlineMs);
  }

  int64_t Answered = 0;
  for (Pending &P : Replies) {
    serve::Reply Rep =
        P.Immediate ? std::move(*P.Immediate) : P.F.get();
    ++Answered;
    std::fputs((serve::toLine(serve::toJson(Rep)) + "\n").c_str(), stdout);
    std::fflush(stdout);
    if (Telemetry.is_open())
      Telemetry << serve::toLine(serve::telemetryJson(Rep)) << "\n";
  }
  if (Telemetry.is_open())
    Telemetry.flush();

  // Summary + self-check: the four outcome buckets must partition the
  // submitted count (globally and per tenant), and every input line
  // must have been answered.
  serve::ServerStats Stats = Server.stats();
  json::Value Summary = json::Value::object();
  Summary.set("summary", true);
  Summary.set("engine", interp::engineName(Opts.Server.Eng));
  Summary.set("adaptive", Opts.Server.Adaptive);
  Summary.set("lines", (int64_t)Replies.size());
  Summary.set("bad_lines", BadLines);
  Summary.set("answered", Answered);
  Summary.set("drained", Drained);
  if (Drained)
    Summary.set("drain_clean", DrainClean);
  Summary.set("stats", serve::toJson(Stats));
  std::fputs((serve::toLine(Summary) + "\n").c_str(), stdout);
  std::fflush(stdout);

  bool Consistent = Stats.consistent() && Stats.tenantsConsistent() &&
                    Answered == (int64_t)Replies.size() &&
                    Stats.Submitted + BadLines == (int64_t)Replies.size();
  if (!Consistent) {
    std::fprintf(stderr, "flattend: accounting inconsistency: %s\n",
                 serve::toLine(serve::toJson(Stats)).c_str());
    return 5;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Top-level exception barrier: an escaped exception is a structured
  // one-line diagnostic and a distinct exit code, never std::terminate.
  try {
    return realMain(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "flattend: internal error: %s\n", E.what());
    return 4;
  } catch (...) {
    std::fprintf(stderr, "flattend: internal error: unknown exception\n");
    return 4;
  }
}
