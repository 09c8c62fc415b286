//===- serve/Server.h - Fault-tolerant serving core ------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-once/run-many serving core behind flattend. A Server
/// owns a worker thread pool fed by a bounded, weighted-fair admission
/// queue, the shared ProgramCache (byte-budgeted LRU + single-flight),
/// a per-program-hash CircuitBreaker, and a TenantRegistry enforcing
/// per-tenant quotas. Every submitted Request resolves to exactly one
/// structured Reply - the server never crashes, hangs, or drops a
/// request on the floor:
///
///  * Admission: a full queue sheds immediately with a depth-scaled
///    retry-after hint (reject, never block); over-budget requests shed
///    at submit time; tenant quotas (request rate, in-flight, fuel
///    rate, queue share) shed with a refill-time hint before the
///    request touches the shared queue.
///  * Fairness: the queue is a per-tenant stride-scheduled FairQueue,
///    so a tenant flooding the server cannot starve another tenant's
///    queued requests.
///  * Budgets: fuel bounds simulated work, the end-to-end deadline is
///    enforced in the queue (shed), through compilation (shed) and
///    inside the dispatch loop (DeadlineExpired trap); queue timeouts
///    shed before any work is spent.
///  * Failure containment: program faults are Trapped replies; compile
///    failures retry with exponential backoff, trip the breaker, and
///    degrade to the unflattened fallback; a worker-side exception
///    becomes a CompileError reply, not a dead thread.
///  * Lifecycle: beginDrain() stops admission (submissions shed with a
///    structured draining status) while queued and executing requests
///    finish; drain() waits for full resolution, shedding whatever is
///    still *queued* when the hard deadline passes. The destructor
///    remains an abrupt stop (workers shed the queue and exit).
///  * FaultPlan wires the campaign's faults (injected compile failure,
///    mid-flight eviction, worker stall, inflated cache costs) into all
///    of the above.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SERVE_SERVER_H
#define SIMDFLAT_SERVE_SERVER_H

#include "analysis/Profitability.h"
#include "interp/RunStats.h"
#include "machine/Machine.h"
#include "serve/CircuitBreaker.h"
#include "serve/FairQueue.h"
#include "serve/ProgramCache.h"
#include "serve/Serve.h"
#include "serve/TenantRegistry.h"

#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <thread>
#include <vector>

namespace simdflat {
namespace serve {

struct ServerOptions {
  /// Worker threads executing requests.
  int Workers = 2;
  /// Bounded admission queue; submissions beyond it shed.
  size_t QueueCapacity = 16;
  /// Compiled programs kept resident (LRU beyond this).
  size_t CacheCapacity = 64;
  /// Compiled-program byte budget (ProgramCache::Options::MaxBytes;
  /// 0 = unmetered).
  size_t CacheMaxBytes = 0;
  /// Per-tenant cache occupancy cap in bytes (0 = unmetered).
  size_t CacheTenantMaxBytes = 0;
  /// Admission bound on Request::Lanes.
  int64_t MaxLanes = 64;
  /// When > 0, every request must carry 0 < Fuel <= MaxFuel or it is
  /// shed at submit: the serving limit that stops one request from
  /// consuming unbounded simulator time.
  int64_t MaxFuel = 0;
  /// Admission bound on source size (hostile-input guard).
  size_t MaxSourceBytes = 1u << 20;
  /// Compile attempts beyond the first before giving up on a
  /// transiently failing compile.
  int CompileRetries = 2;
  /// Exponential backoff between compile retries: base * 2^(try-1),
  /// capped. Kept in microseconds so tests stay fast.
  int64_t BackoffBaseMicros = 200;
  int64_t BackoffCapMicros = 20'000;
  /// Base retry hint attached to load-shed replies. Congestion sheds
  /// scale it by queue depth (base * (1 + depth/workers)); quota sheds
  /// use the bucket refill time when it is larger.
  int64_t RetryAfterMs = 5;
  /// Quota applied to every tenant without an explicit override. The
  /// default is fully unmetered (single-tenant back-compat).
  TenantQuota DefaultQuota;
  /// Named per-tenant quota overrides.
  std::map<std::string, TenantQuota> TenantQuotas;
  /// Virtual-time clock for the quota buckets (null: steady_clock).
  /// Tests freeze or step it for deterministic admission sequences.
  ClockFn QuotaClock;
  /// Lane layout every compiled program uses.
  machine::Layout Layout = machine::Layout::Cyclic;
  /// Execution engine every request runs under (flattend --engine).
  /// Tagged into each reply's telemetry. Tree is allowed (the oracle
  /// engine serves correctly, just slowly); Native serves JIT-compiled
  /// host loops and degrades to bytecode without a toolchain.
  interp::Engine Eng = interp::Engine::Bytecode;
  /// Profile-guided adaptive strategy selection. Off: every primary
  /// compile is the static flattened pipeline (bit-identical legacy
  /// behaviour). On: the server runs an explore/exploit split per
  /// distinct program. Probe requests compile under the *unflattened*
  /// strategy, whose inner serial loop records one trip sample per
  /// source row - the exact distribution the Sec. 6 cost model
  /// consumes (a transformed variant's own loops report its schedule,
  /// not the source trips, which would blind the feedback loop). Every
  /// request is a probe until the dominant nest has AdaptiveMinSamples;
  /// then the server picks the cheapest strategy (unflattened /
  /// flattened / coalesced) and non-probe requests compile under it -
  /// a new canonical key through the same single-flight cache, with
  /// every AdaptiveProbeEvery-th request still probing. When the
  /// probed distribution drifts past AdaptiveDriftThreshold
  /// (total-variation distance against the decision-time snapshot),
  /// the choice is recomputed; a changed choice is a respecialization.
  /// Requires a bytecode-family engine (the tree engine reports no
  /// trip histograms, so adaptive mode never leaves the probe phase
  /// under it).
  bool Adaptive = false;
  /// Dominant-nest probe samples required before the first decision
  /// and before each drift evaluation window counts.
  int64_t AdaptiveMinSamples = 8;
  /// Total-variation distance (0..1) between the post-decision probe
  /// window and the decision snapshot beyond which the server
  /// re-decides.
  double AdaptiveDriftThreshold = 0.25;
  /// Recency window for drift detection (flattend --adaptive-window).
  /// 0 (the default) keeps the legacy behaviour: probe observations
  /// accumulate from the last decision onward, so a drift that has
  /// long since receded still weighs on the comparison. N > 0 keeps
  /// only the N most recent probe runs in a ring; the drift
  /// total-variation test sees just their merged histogram, so the
  /// server re-decides on what the workload looks like *now* and a
  /// transient spike ages out instead of poisoning the window forever.
  /// AdaptiveMinSamples still gates each evaluation, so N must admit
  /// at least that many dominant-nest samples for drift to ever fire.
  int64_t AdaptiveWindow = 0;
  /// After a decision, probe (and profile) every Nth request; the rest
  /// exploit the decided strategy. 0 freezes the choice: no probes, no
  /// drift detection, until the server restarts. Irrelevant while the
  /// decided strategy is Unflattened (every serve is then a probe).
  int64_t AdaptiveProbeEvery = 8;
  /// Static bounds handed to the coalescing transform when the
  /// adaptive layer selects Strategy::Coalesced (see
  /// transform::StrategyPolicy).
  int64_t AdaptiveCoalesceMaxOuter = 64;
  int64_t AdaptiveCoalesceMaxTotal = 4096;
  CircuitBreaker::Options Breaker;
  FaultPlan Faults;
};

class Server {
public:
  explicit Server(ServerOptions O = {});
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Admits \p R. Never blocks: a full queue, an exhausted tenant
  /// quota, a draining or stopping server, or an over-budget request
  /// resolves the future immediately with a Shed reply. The future
  /// always becomes ready.
  std::future<Reply> submit(Request R);

  /// Stops admission: every later submit() sheds with a structured
  /// draining status while already-admitted requests keep executing.
  /// Idempotent.
  void beginDrain();
  /// beginDrain(), then waits for every admitted request to resolve.
  /// When \p HardDeadlineMs elapses first (0 = wait forever), requests
  /// still *queued* are shed (draining status) and the wait continues
  /// for the ones already executing - those are bounded by their own
  /// fuel/deadline budgets. Returns true when everything resolved
  /// without a deadline sweep.
  bool drain(int64_t HardDeadlineMs);
  /// Admission is closed (beginDrain was called).
  bool draining() const;

  /// Snapshot of the counters (cache/breaker/tenant numbers merged in).
  ServerStats stats() const;
  /// Per-tenant counter snapshot (also embedded in stats()).
  std::map<std::string, TenantStats> tenantStats() const;

  /// Requests currently queued (not yet picked up by a worker).
  size_t queueDepth() const;
  /// Admitted requests not yet resolved (queued + executing).
  size_t inFlight() const;

  /// The shared program cache (tests observe size/stats).
  const ProgramCache &cache() const { return Cache; }
  /// The breaker (tests observe per-key state).
  const CircuitBreaker &breaker() const { return Breaker; }
  /// The tenant registry (tests observe quotas and per-tenant state).
  const TenantRegistry &tenants() const { return Tenants; }

  const ServerOptions &options() const { return Opts; }

private:
  struct Job {
    Request Req;
    /// Normalized tenant (never empty).
    std::string Tenant;
    std::promise<Reply> Done;
    std::chrono::steady_clock::time_point Enqueued;
    /// Absolute end-to-end deadline (Request::DeadlineMs).
    std::optional<std::chrono::steady_clock::time_point> Deadline;
    /// Absolute queue-residency bound (Request::QueueTimeoutMs).
    std::optional<std::chrono::steady_clock::time_point> QueueDeadline;
  };

  /// Per-program adaptive state, keyed by the *base* canonical key (the
  /// strategy-free key, so every strategy variant of a program shares
  /// one profile).
  struct AdaptiveState {
    /// Probe-observed per-nest trip stats since the last decision (the
    /// drift evaluation window; cleared at each decision). With
    /// ServerOptions::AdaptiveWindow > 0 this is rebuilt from Ring on
    /// every probe instead of accumulating forever.
    std::vector<interp::NestTripStats> Window;
    /// The most recent probe runs' per-nest trip stats, newest last;
    /// bounded by ServerOptions::AdaptiveWindow (unused when 0).
    std::deque<std::vector<interp::NestTripStats>> Ring;
    /// Dominant-nest histogram the current policy was decided on.
    interp::TripHistogram Snapshot;
    /// Current policy; nullopt until the first decision (every request
    /// probes meanwhile).
    std::optional<transform::StrategyPolicy> Policy;
    /// Decision count for this program (telemetry StrategyEpoch).
    int64_t Epoch = 0;
    /// Exploit serves since the last probe (AdaptiveProbeEvery cadence).
    int64_t SinceProbe = 0;
  };

  /// What one adaptive request should do: the policy to compile under,
  /// the epoch to tag into telemetry, and whether this run's observed
  /// trips feed the profile.
  struct AdaptiveRoute {
    transform::StrategyPolicy Policy;
    int64_t Epoch = 0;
    bool Probe = false;
  };

  void workerLoop();
  /// Everything after dequeue; returns the reply (outcome counted).
  Reply process(Job &J);
  /// Routes one request through the explore/exploit split for
  /// \p BaseKey (bumps the probe cadence counter).
  AdaptiveRoute adaptiveRoute(uint64_t BaseKey);
  /// Folds one probe run's observed trip histograms into the profile
  /// and decides / re-decides the strategy when warranted.
  void recordObservedTrips(uint64_t BaseKey,
                           const std::vector<interp::NestTripStats> &Nests,
                           int64_t Lanes);
  /// Builds (and counts) a Shed reply. \p Admitted routes the tenant
  /// count to ShedInService vs ShedAtAdmission.
  Reply shed(const Job &J, std::string Why, int64_t RetryAfterMs,
             bool Admitted);
  Reply shedRequest(const Request &R, const std::string &Tenant,
                    std::string Why, int64_t RetryAfterMs, bool Admitted,
                    bool Draining = false);
  /// Builds (and counts) a CompileError reply.
  Reply compileError(const Job &J, std::string Why);
  void countOutcome(Outcome O, const std::string &Tenant, bool Admitted);
  /// Resolves an *admitted* job: fulfills the promise, releases the
  /// tenant's in-flight slot, and signals the drain waiters.
  void resolveJob(Job &J, Reply Rep);
  /// Congestion retry hint: base scaled by queue depth per worker.
  int64_t scaledRetryMs(size_t Depth) const;

  ServerOptions Opts;
  ProgramCache Cache;
  CircuitBreaker Breaker;
  TenantRegistry Tenants;

  mutable std::mutex QueueM;
  std::condition_variable QueueCv;
  FairQueue<Job> Queue;
  bool Stopping = false;
  bool Draining = false;
  /// Admitted-but-unresolved jobs (queued + executing); drain waits on
  /// it reaching zero.
  size_t Unresolved = 0;
  std::condition_variable DrainCv;

  mutable std::mutex StatsM;
  ServerStats Stats;

  mutable std::mutex AdaptiveM;
  std::map<uint64_t, AdaptiveState> AdaptiveStates;

  std::vector<std::thread> Workers;
};

} // namespace serve
} // namespace simdflat

#endif // SIMDFLAT_SERVE_SERVER_H
