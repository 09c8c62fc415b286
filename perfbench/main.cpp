//===- perfbench/main.cpp - simdflat end-to-end benchmark -----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// simdbench: drives serve::Server the way flattend's per-line path does
/// (request line -> json parse -> parseRequest -> Server::submit -> reply
/// ready -> toLine(toJson(reply))), without the stdio, under one of three
/// workloads (Requests.h). Every reply is checked against a reference
/// built during set-up. The last stdout line is one JSON object:
///
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
///
/// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
/// traced run (--trace 1). See README.md for the metric -> layer ->
/// workload map.
///
/// Exit codes: 0 correct; 1 a reply or a run-level check was wrong (the
/// result line is still printed); 2 usage or set-up error (no result).
///
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Layers.h"
#include "Requests.h"
#include "Trace.h"

#include "codegen/JitCache.h"
#include "exec/Engine.h"
#include "serve/ServeJson.h"
#include "serve/Server.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>

using namespace simdbench;
using namespace simdflat;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
  /// Directory for the results record and the trace (empty: none).
  std::string OutDir;
};

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--setup-only") {
      A.SetupOnly = true;
      continue;
    }
    if (I + 1 >= Argc) {
      Err = "missing value for " + K;
      return false;
    }
    std::string V = Argv[++I];
    try {
      if (K == "--workload")
        A.Workload = V;
      else if (K == "--seed")
        A.Seed = std::stoull(V);
      else if (K == "--seconds")
        A.Seconds = std::stoi(V);
      else if (K == "--trace")
        A.Trace = std::stoi(V) != 0;
      else if (K == "--out-dir")
        A.OutDir = V;
      else {
        Err = "unknown flag " + K;
        return false;
      }
    } catch (const std::exception &) {
      Err = "bad value '" + V + "' for " + K;
      return false;
    }
  }
  if (A.Workload.empty() || A.Seconds < 1 || A.Seconds > 600) {
    Err = "usage: simdbench --workload <name> [--seed N] [--seconds S] "
          "[--trace 0|1] [--out-dir DIR] [--setup-only]";
    return false;
  }
  return true;
}

/// One timed request.
struct Sample {
  uint64_t Seq = 0;
  const Item *It = nullptr;
  bool Traced = false;
  int64_t StartNs = 0;
  /// Start to reply line serialized.
  int64_t LatencyNs = 0;
  /// CPU the process used over the same interval (CpuClock), less what
  /// the calibration loop took while the reply was awaited (CalNs).
  int64_t CpuStartNs = 0, CpuNs = 0, CalNs = 0;
  /// CpuNs in ms, and in reference ms (Calibrate.h).
  double CpuMs = 0, RefMs = 0;
  /// Around Server::submit -> reply ready.
  int64_t SubmitNs = 0, ReadyNs = 0;
  int64_t EndNs = 0;
  int64_t WireNs = 0;
  /// From the reply's telemetry.
  int64_t QueueNs = 0, CompileNs = 0, RunNs = 0;
  bool CacheHit = false;
  /// Empty when the reply was right.
  std::string Failure;
  /// Traced requests only. Samples are kept small: their number grows
  /// with the window and shows in peak_rss_mb.
  std::unique_ptr<ProbeResult> Probe;
};

/// A request between submit and reply.
struct Pending {
  Sample S;
  int32_t Root = -1;
  /// Invalid when the request line itself was rejected (S.Failure says
  /// why).
  std::future<serve::Reply> F;
};

/// Request line -> json parse -> parseRequest -> (traced: layer probe)
/// -> Server::submit.
Pending beginRequest(serve::Server &Srv, interp::Engine Eng, const Item &I,
                     uint64_t Seq, TraceBuffer *TB, int64_t StartNs,
                     const CpuClock &Cpu) {
  Pending P;
  P.S.CpuStartNs = Cpu.nowNs();
  P.S.Seq = Seq;
  P.S.It = &I;
  P.S.Traced = TB != nullptr;
  P.S.StartNs = StartNs;
  if (TB)
    P.Root = TB->add("request", Seq, -1, StartNs, StartNs, I.Kernel);
  int64_t W0 = nowNs();
  int32_t WIn = TB ? TB->open("serve.wire_in", Seq, P.Root) : -1;
  auto V = json::Value::parse(I.Line);
  std::optional<serve::Request> Req;
  if (V) {
    auto R = serve::parseRequest(*V);
    if (R)
      Req = std::move(*R);
  }
  if (TB)
    TB->close(WIn);
  P.S.WireNs = nowNs() - W0;
  if (!Req) {
    P.S.Failure = "request line rejected by parseRequest";
    return P;
  }
  if (TB)
    P.S.Probe = std::make_unique<ProbeResult>(
        probeLayers(*TB, Seq, P.Root, *Req, I, Eng));
  P.S.SubmitNs = nowNs();
  P.F = Srv.submit(std::move(*Req));
  return P;
}

/// Reply ready -> toLine(toJson(reply)); then the (untimed) check.
Sample finishRequest(Pending &P, TraceBuffer *TB, interp::Engine Eng,
                     const CpuClock &Cpu, Calibrator &Cal) {
  Sample &S = P.S;
  if (!P.F.valid()) {
    S.EndNs = nowNs();
    S.CpuNs = Cpu.nowNs() - S.CpuStartNs;
    S.LatencyNs = S.EndNs - S.StartNs;
    if (TB)
      TB->close(P.Root);
    return std::move(S);
  }
  serve::Reply Rep = Cal.await(P.F, S.CalNs);
  S.ReadyNs = nowNs();
  if (TB) {
    int32_t Sub =
        TB->add("serve.submit", S.Seq, P.Root, S.SubmitNs, S.ReadyNs);
    // Queue, compile and run from the reply's telemetry: queue from the
    // submit, run ending at the ready time, compile just before it.
    const serve::Telemetry &T = Rep.Tele;
    TB->add("serve.queue", S.Seq, Sub, S.SubmitNs, S.SubmitNs + T.QueueNanos);
    int64_t RunLo = S.ReadyNs - T.RunNanos;
    TB->add("serve.run", S.Seq, Sub, RunLo, S.ReadyNs);
    TB->add("serve.compile", S.Seq, Sub, RunLo - T.CompileNanos, RunLo);
  }
  int64_t W0 = nowNs();
  int32_t WOut = TB ? TB->open("serve.wire_out", S.Seq, P.Root) : -1;
  std::string Line = serve::toLine(serve::toJson(Rep));
  if (TB)
    TB->close(WOut);
  S.EndNs = nowNs();
  S.CpuNs = Cpu.nowNs() - S.CpuStartNs - S.CalNs;
  S.WireNs += S.EndNs - W0;
  if (TB)
    TB->close(P.Root);
  S.LatencyNs = S.EndNs - S.StartNs;
  S.QueueNs = Rep.Tele.QueueNanos;
  S.CompileNs = Rep.Tele.CompileNanos;
  S.RunNs = Rep.Tele.RunNanos;
  S.CacheHit = Rep.Tele.CacheHit;
  S.Failure =
      Line.empty() ? "empty reply line" : checkReply(*S.It, Rep, Eng);
  return std::move(S);
}

double pct(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

json::Value metaJson(const Args &A) {
  json::Value M = json::Value::object();
  M.set("workload", A.Workload);
  M.set("seed", static_cast<int64_t>(A.Seed));
  M.set("seconds", static_cast<int64_t>(A.Seconds));
  M.set("trace", A.Trace);
  M.set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  M.set("build_type", SIMDBENCH_BUILD_TYPE);
  const char *Cc = std::getenv("SIMDFLAT_JIT_CC");
  M.set("jit_compiler", Cc ? Cc : SIMDBENCH_CXX);
  M.set("jit_compiler_version", SIMDBENCH_CXX_VERSION);
  M.set("jit_available", codegen::jitAvailable());
  M.set("host_simd_arch", exec::hostSimdArch());
  return M;
}

/// Sends \p Items along the per-line path as fast as it takes them:
/// every request line is parsed and submitted before the first reply is
/// taken; replies are taken and serialized in order. Checks every reply.
bool submitAll(serve::Server &Srv, const Workload &W,
               const std::vector<const Item *> &Items, std::string &Err) {
  std::vector<std::future<serve::Reply>> Fs;
  for (const Item *I : Items) {
    auto V = json::Value::parse(I->Line);
    if (!V) {
      Err = "set-up request line is not JSON";
      return false;
    }
    auto R = serve::parseRequest(*V);
    if (!R) {
      Err = "set-up request rejected: " + R.error();
      return false;
    }
    Fs.push_back(Srv.submit(std::move(*R)));
  }
  for (size_t K = 0; K < Fs.size(); ++K) {
    serve::Reply Rep = Fs[K].get();
    if (serve::toLine(serve::toJson(Rep)).empty()) {
      Err = "empty reply line in set-up";
      return false;
    }
    std::string Why = checkReply(*Items[K], Rep, W.Eng);
    if (!Why.empty()) {
      Err = "set-up request " + Items[K]->Kernel + ": " + Why;
      return false;
    }
  }
  return true;
}

/// Builds the workload's inputs and references, starts the server and
/// runs the warm-up. \p Submitted counts the requests set-up sent.
bool setUp(const Args &A, Workload &W, std::unique_ptr<serve::Server> &Srv,
           int64_t &Submitted, std::string &Err) {
  if (!makeWorkload(A.Workload, A.Seed, A.Seconds, W, Err))
    return false;
  if (W.Eng == interp::Engine::Native && !codegen::jitAvailable()) {
    Err = W.Name + " needs the native codegen tier, and no JIT compiler "
                   "is available";
    return false;
  }
  serve::ServerOptions SO;
  SO.Workers = W.Workers;
  SO.QueueCapacity = W.QueueCapacity;
  SO.CacheCapacity = W.CacheCapacity;
  SO.Eng = W.Eng;
  Srv = std::make_unique<serve::Server>(SO);
  std::vector<const Item *> Warm;
  for (const Item &I : W.Warmup)
    Warm.push_back(&I);
  if (!submitAll(*Srv, W, Warm, Err))
    return false;
  Submitted = static_cast<int64_t>(Warm.size());
  return true;
}

/// The median over the window's slices of \p Stat applied to each
/// slice's samples (NaN: the slice has none to measure). A slow spell
/// shorter than half the window then moves the result little.
template <typename F>
double sliceMedian(const std::vector<std::vector<const Sample *>> &Slices,
                   F Stat) {
  std::vector<double> V;
  for (const auto &Sl : Slices) {
    double X = Sl.empty() ? std::nan("") : Stat(Sl);
    if (!std::isnan(X))
      V.push_back(X);
  }
  return pct(V, 0.5);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err)) {
    std::fprintf(stderr, "simdbench: %s\n", Err.c_str());
    return 2;
  }

  // ---- Set-up: inputs and references, the server, warm-up. ----------
  // Timed once per process; run.py takes the median over processes.
  Workload W;
  std::unique_ptr<serve::Server> Srv;
  int64_t SetupSubmitted = 0;
  // setup_s is the set-up's CPU time, host compiles included, in
  // reference seconds: scaled by the calibration loop's speed just
  // before and after set-up (Calibrate.h). The wall time and the plain
  // CPU time are printed beside it.
  double CalBeforeNs = calibrationMedianNs(9);
  int64_t T0 = nowNs();
  int64_t Cpu0 = CpuClock::processNs();
  if (!setUp(A, W, Srv, SetupSubmitted, Err)) {
    std::fprintf(stderr, "simdbench: %s\n", Err.c_str());
    return 2;
  }
  double SetupWallS = static_cast<double>(nowNs() - T0) / 1e9;
  // The server's workers are running now, so the clock sees them all.
  const CpuClock Cpu;
  double SetupCpuS = static_cast<double>(Cpu.nowNs() - Cpu0) / 1e9;
  double SetupCalNs = (CalBeforeNs + calibrationMedianNs(9)) / 2;
  double SetupS = SetupCpuS * RefCalibrationNs / SetupCalNs;
  if (A.SetupOnly) {
    json::Value O = json::Value::object();
    O.set("setup_s", SetupS);
    O.set("setup_cpu_s", SetupCpuS);
    O.set("setup_wall_s", SetupWallS);
    std::printf("%s\n", serve::toLine(O).c_str());
    return 0;
  }
  json::Value Meta = metaJson(A);
  std::printf("meta %s\n", serve::toLine(Meta).c_str());

  // ---- The timed window. ----------------------------------------------
  codegen::JitStats JitAtStart = codegen::jitStats();
  const int64_t StartNs = nowNs();
  const int64_t EndNs = StartNs + int64_t(A.Seconds) * 1'000'000'000;
  TraceBuffer Buf;
  std::vector<Sample> Samples;
  Calibrator Cal(CalibrateEveryNs);

  // One client: the next request starts when the previous reply line is
  // ready, so the process's CPU time over a request is that request's.
  for (uint64_t Seq = 0;; ++Seq) {
    // A cold run is its whole pool; the others stop at the window.
    if (W.Cold ? Seq >= W.Pool.size() : nowNs() >= EndNs)
      break;
    const Item &I = W.Pool[W.Order[Seq % W.Order.size()]];
    // Traced and untraced rounds alternate.
    TraceBuffer *TB = A.Trace && (Seq / W.RoundLen) % 2 == 1 ? &Buf : nullptr;
    Cal.tick();
    Pending P = beginRequest(*Srv, W.Eng, I, Seq, TB, nowNs(), Cpu);
    Samples.push_back(finishRequest(P, TB, W.Eng, Cpu, Cal));
  }
  codegen::JitStats JitAtEnd = codegen::jitStats();
  serve::ServerStats Stats = Srv->stats();
  // The CPU clock reads the threads that existed after set-up.
  bool SameThreads = Cpu.sameThreads();
  Srv.reset();

  // ---- Correctness: every reply, then the run-level checks. ----------
  int64_t Attempted = static_cast<int64_t>(Samples.size());
  int64_t Failed = 0;
  std::vector<std::string> Problems;
  for (const Sample &S : Samples)
    if (!S.Failure.empty()) {
      ++Failed;
      if (Problems.size() < 8)
        Problems.push_back("request " + std::to_string(S.Seq) + " (" +
                           S.It->Kernel + "): " + S.Failure);
    }
  auto Require = [&](bool Ok, const std::string &What) {
    if (!Ok)
      Problems.push_back("run check failed: " + What);
  };
  Require(Attempted >= 1, "no request completed");
  Require(Stats.consistent(), "ServerStats::consistent()");
  Require(Stats.tenantsConsistent(), "ServerStats::tenantsConsistent()");
  Require(Stats.Submitted == SetupSubmitted + Attempted,
          "submitted == replies received");
  Require(Stats.NativeFallbacks == 0, "serve.native_fallbacks == 0");
  Require(SameThreads, "no thread started or ended in the window");
  Require(JitAtEnd.DiskHits == 0, "codegen.jit_disk_hits == 0");
  Require(JitAtEnd.Failures == 0, "codegen.jit_failures == 0");
  // Set-up compiles each warm-up program natively, and nothing else.
  int64_t SetupCompiles = W.Eng == interp::Engine::Native
                              ? static_cast<int64_t>(W.Warmup.size())
                              : 0;
  Require(JitAtStart.Compiles == SetupCompiles,
          "codegen.jit_compiles in set-up == " +
              std::to_string(SetupCompiles) + " (got " +
              std::to_string(JitAtStart.Compiles) + ")");
  if (W.Cold)
    Require(JitAtEnd.Compiles == Attempted,
            "codegen.jit_compiles == distinct programs (" +
                std::to_string(JitAtEnd.Compiles) + " vs " +
                std::to_string(Attempted) + ")");
  else
    Require(JitAtEnd.Compiles == JitAtStart.Compiles,
            "codegen.jit_compiles == 0 inside the timed window");
  bool Correct = Problems.empty();

  // ---- End-to-end metrics. ---------------------------------------------
  // Untraced samples, by the slice of the window they started in. A cold
  // run is too few requests to slice.
  const int64_t SliceNs = W.Cold ? EndNs - StartNs + 1 : 1'000'000'000;
  std::vector<std::vector<const Sample *>> Slices;
  std::vector<double> Lat, LatTraced;
  int64_t LastEnd = StartNs;
  for (const Sample &S : Samples) {
    double Ms = static_cast<double>(S.LatencyNs) / 1e6;
    (S.Traced ? LatTraced : Lat).push_back(Ms);
    LastEnd = std::max(LastEnd, S.EndNs);
    if (S.Traced)
      continue;
    size_t Sl = static_cast<size_t>(
        std::clamp<int64_t>((S.StartNs - StartNs) / SliceNs, 0,
                            (EndNs - StartNs - 1) / SliceNs));
    if (Slices.size() <= Sl)
      Slices.resize(Sl + 1);
    Slices[Sl].push_back(&S);
  }
  double WindowS = static_cast<double>(LastEnd - StartNs) / 1e9;
  // Gated times are CPU times (CpuClock) in reference ms: each
  // request's CPU time is scaled by the calibration loop's speed around
  // it (Calibrate.h). One client keeps one request in flight, so the
  // process's CPU over a request is that request's, and neither steal
  // time nor a wait for a core counts. They are means, as a cold run
  // holds only a few programs of each kernel. README.md says why the
  // wall-clock figures and the percentiles, printed beside them, are
  // not gated.
  for (Sample &S : Samples) {
    S.CpuMs = static_cast<double>(S.CpuNs) / 1e6;
    S.RefMs = S.CpuMs * RefCalibrationNs /
              Cal.medianNs(S.StartNs - CalibrateAroundNs,
                           S.EndNs + CalibrateAroundNs);
  }
  auto Mean = [](double Sample::*Field, const char *Kernel) {
    return [=](const std::vector<const Sample *> &Sl) {
      double Sum = 0, N = 0;
      for (const Sample *S : Sl)
        if (!Kernel || S->It->Kernel == Kernel) {
          Sum += S->*Field;
          N += 1;
        }
      return N ? Sum / N : std::nan("");
    };
  };
  auto Pct = [](int64_t Sample::*Field, double Q, const char *Kernel) {
    return [=](const std::vector<const Sample *> &Sl) {
      std::vector<double> V;
      for (const Sample *S : Sl)
        if (!Kernel || S->It->Kernel == Kernel)
          V.push_back(static_cast<double>(S->*Field) / 1e6);
      return pct(V, Q);
    };
  };
  auto PerSec = [&](const std::vector<const Sample *> &Sl) {
    double Ok = 0;
    for (const Sample *S : Sl)
      Ok += S->Failure.empty() ? 1 : 0;
    // A cold run's one slice is the whole run.
    double Secs = W.Cold ? WindowS : static_cast<double>(SliceNs) / 1e9;
    return Ok / Secs;
  };
  std::vector<Metric> E2E = {
      {"setup_s", SetupS, "s"},
      {"reply_ref_ms", sliceMedian(Slices, Mean(&Sample::RefMs, nullptr)),
       "ms"},
  };
  for (const char *K : ReportedKernels)
    E2E.push_back({std::string("kernel_ref_ms.") + K,
                   sliceMedian(Slices, Mean(&Sample::RefMs, K)), "ms"});
  E2E.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  std::vector<Metric> Ungated = {
      {"setup_cpu_s", SetupCpuS, "s"},
      {"setup_wall_s", SetupWallS, "s"},
      {"calibration_us", Cal.medianNs(StartNs, INT64_MAX) / 1e3, "us"},
      {"reply_cpu_ms", sliceMedian(Slices, Mean(&Sample::CpuMs, nullptr)),
       "ms"},
      {"req_per_s", sliceMedian(Slices, PerSec), "1/s"},
      {"reply_ms_p50",
       sliceMedian(Slices, Pct(&Sample::LatencyNs, 0.5, nullptr)), "ms"},
      {"reply_ms_p99", pct(Lat, 0.99), "ms"},
  };
  for (const char *K : ReportedKernels)
    Ungated.push_back({std::string("kernel_ms_p50.") + K,
                       sliceMedian(Slices, Pct(&Sample::LatencyNs, 0.5, K)),
                       "ms"});

  // ---- Per-layer metrics (traced run). ---------------------------------
  std::vector<Metric> Layer;
  std::map<std::string, double> LayerShare;
  if (A.Trace) {
    auto Us = [](int64_t Ns) { return static_cast<double>(Ns) / 1e3; };
    std::vector<double> Parse, Key, Pipe, IrB, Low, CodeLen, Emit, EmitB,
        Jit, SoB, Wire, Queue, Compile, Run, Overhead;
    std::map<std::string, std::vector<double>> RunMs, Instr, Cyc, Util;
    for (const Sample &S : Samples) {
      if (!S.Traced) {
        Queue.push_back(Us(S.QueueNs));
        Compile.push_back(Us(S.CompileNs));
        Run.push_back(Us(S.RunNs));
        Overhead.push_back(Us(S.ReadyNs - S.SubmitNs - S.QueueNs -
                              S.CompileNs - S.RunNs));
        continue;
      }
      Wire.push_back(Us(S.WireNs));
      if (!S.Probe)
        continue;
      const ProbeResult &P = *S.Probe;
      if (P.ParseNs)
        Parse.push_back(Us(*P.ParseNs));
      if (P.KeyNs)
        Key.push_back(Us(*P.KeyNs));
      // The server runs the pipeline and lowering only on a cache miss.
      if (!S.CacheHit && P.PipelineNs) {
        Pipe.push_back(Us(*P.PipelineNs));
        IrB.push_back(static_cast<double>(P.IrBytes));
      }
      if (!S.CacheHit && P.LowerNs) {
        Low.push_back(Us(*P.LowerNs));
        CodeLen.push_back(static_cast<double>(P.CodeLen));
      }
      if (P.EmitNs) {
        Emit.push_back(Us(*P.EmitNs));
        EmitB.push_back(static_cast<double>(P.EmitBytes));
      }
      if (P.JitNs && P.JitMiss) {
        Jit.push_back(static_cast<double>(*P.JitNs) / 1e6);
        SoB.push_back(static_cast<double>(P.SoBytes));
      }
      if (P.RunNs && P.RunServed) {
        const std::string &K = S.It->Kernel;
        RunMs[K].push_back(static_cast<double>(*P.RunNs) / 1e6);
        Instr[K].push_back(static_cast<double>(P.Stats.Instructions));
        Cyc[K].push_back(P.Stats.Cycles);
        Util[K].push_back(P.Stats.workUtilization());
      }
    }
    Layer = {
        {"codegen.jit_ms", pct(Jit, 0.5), "ms"},
        {"codegen.emit_us", pct(Emit, 0.5), "us"},
        {"codegen.emit_bytes", pct(EmitB, 0.5), "bytes"},
        {"codegen.so_bytes", pct(SoB, 0.5), "bytes"},
        {"codegen.jit_compiles", double(JitAtEnd.Compiles), "count"},
        {"codegen.jit_disk_hits", double(JitAtEnd.DiskHits), "count"},
        {"codegen.jit_failures", double(JitAtEnd.Failures), "count"},
    };
    for (const char *K : ReportedKernels) {
      std::string N = K;
      Layer.push_back({"interp.run_ms." + N, pct(RunMs[N], 0.5), "ms"});
      Layer.push_back(
          {"interp.instructions." + N, pct(Instr[N], 0.5), "count"});
      Layer.push_back({"interp.cycles." + N, pct(Cyc[N], 0.5), "cycles"});
      Layer.push_back(
          {"interp.work_utilization." + N, pct(Util[N], 0.5), "ratio"});
    }
    int64_t Lookups = Stats.CacheHits + Stats.CacheMisses;
    double LatP50 = pct(Lat, 0.5);
    std::vector<Metric> Rest = {
        {"frontend.parse_us", pct(Parse, 0.5), "us"},
        {"transform.canonical_key_us", pct(Key, 0.5), "us"},
        {"transform.pipeline_us", pct(Pipe, 0.5), "us"},
        {"transform.ir_bytes", pct(IrB, 0.5), "bytes"},
        {"exec.lower_us", pct(Low, 0.5), "us"},
        {"exec.code_len", pct(CodeLen, 0.5), "count"},
        {"serve.wire_us", pct(Wire, 0.5), "us"},
        {"serve.queue_us_p50", pct(Queue, 0.5), "us"},
        {"serve.queue_us_p99", pct(Queue, 0.99), "us"},
        {"serve.compile_us_p50", pct(Compile, 0.5), "us"},
        {"serve.run_us_p50", pct(Run, 0.5), "us"},
        {"serve.overhead_us_p50", pct(Overhead, 0.5), "us"},
        {"serve.cache_hit_ratio",
         Lookups ? double(Stats.CacheHits) / double(Lookups) : 0.0, "ratio"},
        {"serve.cache_evictions", double(Stats.CacheEvictions), "count"},
        {"serve.shed", double(Stats.Shed), "count"},
        {"serve.native_fallbacks", double(Stats.NativeFallbacks), "count"},
        {"bench.trace_overhead_ratio",
         LatP50 > 0 ? pct(LatTraced, 0.5) / LatP50 : 0.0, "ratio"},
    };
    Layer.insert(Layer.end(), Rest.begin(), Rest.end());

    // Self time per layer, summed over traced requests, as a share of
    // the traced requests' total time.
    Buf.computeSelfTimes();
    std::map<std::string, int64_t> Totals = selfTimeByName(Buf);
    int64_t RootNs = 0;
    for (const Span &S : Buf.spans())
      if (S.Parent < 0)
        RootNs += S.durNs();
    for (const auto &[Name, SelfNs] : Totals)
      LayerShare[Name] = RootNs ? double(SelfNs) / double(RootNs) : 0.0;
    if (!A.OutDir.empty()) {
      std::string Path = A.OutDir + "/trace-" + W.Name + "-seed" +
                         std::to_string(A.Seed) + ".jsonl";
      if (!writeTrace(Path, Buf))
        std::fprintf(stderr, "simdbench: cannot write %s\n", Path.c_str());
    }
  }

  // ---- Report. ---------------------------------------------------------
  const std::vector<Metric> &Shown = A.Trace ? Layer : E2E;
  std::printf("workload %s  seed %llu  %lld requests in %.2f s  "
              "failed_ratio %.6f\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              static_cast<long long>(Attempted), WindowS,
              Attempted ? double(Failed) / double(Attempted) : 0.0);
  for (const Metric &M : Shown)
    std::printf("  %-34s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (A.Trace) {
    std::printf("  self time by span, share of traced request time:\n");
    for (const auto &[Name, Share] : LayerShare)
      std::printf("    %-30s %6.1f%%\n", Name.c_str(), 100.0 * Share);
  }
  for (const Metric &M : Ungated)
    std::printf("  %-34s %16.6f %s (not gated)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const std::string &P : Problems)
    std::printf("FAIL %s\n", P.c_str());

  json::Value Metrics = json::Value::object();
  for (const Metric &M : Shown) {
    json::Value V = json::Value::object();
    V.set("value", M.Value);
    V.set("unit", M.Unit);
    Metrics.set(M.Name, std::move(V));
  }
  if (!A.OutDir.empty()) {
    json::Value Rec = json::Value::object();
    Rec.set("meta", Meta);
    Rec.set("correct", Correct);
    Rec.set("attempted", Attempted);
    Rec.set("failed", Failed);
    json::Value All = json::Value::object();
    for (const std::vector<Metric> *L : {&E2E, &Ungated, &Layer})
      for (const Metric &M : *L)
        All.set(M.Name, M.Value);
    Rec.set("metrics", std::move(All));
    json::Value Share = json::Value::object();
    for (const auto &[Name, V] : LayerShare)
      Share.set(Name, V);
    Rec.set("self_time_share", std::move(Share));
    std::string Path = A.OutDir + "/" + W.Name + "-seed" +
                       std::to_string(A.Seed) + "-trace" +
                       (A.Trace ? "1" : "0") + ".json";
    if (!json::writeFile(Path, Rec))
      std::fprintf(stderr, "simdbench: cannot write %s\n", Path.c_str());
  }
  json::Value Out = json::Value::object();
  Out.set("correct", Correct);
  Out.set("attempted", Attempted);
  Out.set("failed", Failed);
  Out.set("metrics", std::move(Metrics));
  std::printf("%s\n", serve::toLine(Out).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
