//===- serve/Serve.h - Serving-core request/reply types --------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of the flattening service: one Request in, exactly one
/// structured Reply out, always. A reply's outcome is one of four
/// buckets - Served (ran to completion), Trapped (the *program* faulted
/// with a structured interp::Trap, including fuel and deadline
/// exhaustion mid-run), Shed (the *server* declined: queue full, queue
/// timeout, over-budget request, shutdown), CompileError (the program
/// itself is unusable: parse failure, pipeline failure with no fallback,
/// bad runtime inputs) - and the accounting invariant
///
///   Served + Trapped + Shed + CompileErrors == Submitted
///
/// holds at every instant the queue is drained. Every request belongs
/// to a tenant (defaulting to "default"), and the same conservation law
/// holds per tenant, split at the admission boundary (TenantStats):
///
///   Admitted == Served + Trapped + CompileErrors + ShedInService
///
/// FaultPlan is the serving-layer counterpart of the fuzz campaign's
/// fault knobs: the campaign uses it to hammer the cache, the workers
/// and the breaker the same way it hammers the executors.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SERVE_SERVE_H
#define SIMDFLAT_SERVE_SERVE_H

#include "interp/Trap.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace simdflat {
namespace serve {

/// The four reply buckets. Every submitted request lands in exactly one.
enum class Outcome {
  /// Ran to completion; results and telemetry attached.
  Served,
  /// The program faulted mid-run with a structured trap (out-of-bounds,
  /// fuel exhausted, deadline expired, ...). Reply::T holds it.
  Trapped,
  /// The server declined to execute: admission queue full, queue
  /// timeout, deadline expired before execution, over-budget request,
  /// or shutdown. Reply::RetryAfterMs hints when to retry (0: never).
  Shed,
  /// The program or its inputs are unusable: parse failure, pipeline
  /// failure with no fallback, undeclared/mis-sized runtime inputs.
  CompileError,
};

/// Stable lowercase name ("served", "trapped", "shed", "compile-error").
const char *outcomeName(Outcome O);

/// Parses an outcome name; false if \p Name matches none.
bool outcomeFromName(const std::string &Name, Outcome &Out);

/// The tenant a request lands on when it names none.
inline const char *defaultTenant() { return "default"; }

/// One tenant's quota envelope. Zero-valued knobs are unmetered, so the
/// default quota admits everything (back-compatible single-tenant
/// behaviour). Enforced by serve::TenantRegistry.
struct TenantQuota {
  /// Request tokens refilled per second (0 = unmetered rate).
  double RatePerSec = 0;
  /// Request bucket capacity: the burst admitted from a full bucket.
  int64_t Burst = 8;
  /// Admitted-but-unresolved requests allowed at once (0 = unmetered).
  int64_t MaxInFlight = 0;
  /// Fuel tokens refilled per second (0 = fuel unmetered). A metered
  /// tenant must declare Request::Fuel > 0 or admission refuses.
  double FuelPerSec = 0;
  /// Fuel bucket capacity (0: one second's refill, i.e. FuelPerSec).
  int64_t FuelBurst = 0;
  /// Entries this tenant may hold in the admission queue at once
  /// (0 = bounded only by the global queue capacity), so one hot tenant
  /// cannot monopolize the shared queue.
  int64_t MaxQueued = 0;
  /// Weighted-fair dequeue share (see FairQueue).
  int Weight = 1;
};

/// Per-tenant outcome counters. Sheds are split at the admission
/// boundary so "admitted = served + shed + trapped (+ compile-error)"
/// is checkable per tenant.
struct TenantStats {
  int64_t Submitted = 0;
  /// Entered the admission queue (passed budgets, quotas and capacity).
  int64_t Admitted = 0;
  int64_t Served = 0;
  int64_t Trapped = 0;
  int64_t CompileErrors = 0;
  /// Refused before entering the queue: quota, budget envelope, queue
  /// capacity, draining, shutdown.
  int64_t ShedAtAdmission = 0;
  /// Shed after admission: queue timeout, deadline-before-execution,
  /// drain-deadline sweep, shutdown sweep.
  int64_t ShedInService = 0;

  int64_t shed() const { return ShedAtAdmission + ShedInService; }
  /// Both per-tenant conservation laws (true whenever no request of
  /// this tenant is in flight).
  bool consistent() const {
    return Served + Trapped + CompileErrors + ShedAtAdmission +
                   ShedInService ==
               Submitted &&
           Served + Trapped + CompileErrors + ShedInService == Admitted;
  }
};

/// One serving request: a mini-Fortran program plus runtime inputs and
/// its budget envelope (fuel, end-to-end deadline, queue timeout).
struct Request {
  /// Caller-chosen id echoed in the reply (replies complete out of
  /// submission order).
  uint64_t Id = 0;
  /// Tenant the request is accounted to (quotas, fair dequeue, cache
  /// occupancy). Empty maps to defaultTenant().
  std::string Tenant;
  /// Program source (the flattenc mini-Fortran dialect).
  std::string Source;

  /// \name Runtime inputs, validated against the program's declarations
  /// before seeding (a typo or size mismatch is a CompileError reply,
  /// never a crash).
  /// @{
  std::map<std::string, int64_t> Ints;
  std::map<std::string, std::vector<int64_t>> IntArrays;
  std::map<std::string, std::vector<double>> RealArrays;
  /// @}

  /// \name Budget envelope.
  /// @{
  /// Simulator lanes (1..ServerOptions::MaxLanes).
  int64_t Lanes = 4;
  /// Instruction budget (0 = unlimited; shed when the server enforces
  /// ServerOptions::MaxFuel).
  int64_t Fuel = 0;
  /// End-to-end wall-clock budget from submission, in milliseconds
  /// (0 = none). Expiry before execution sheds; expiry mid-run traps
  /// with DeadlineExpired.
  int64_t DeadlineMs = 0;
  /// Maximum time the request may sit in the admission queue (0 = no
  /// limit beyond DeadlineMs).
  int64_t QueueTimeoutMs = 0;
  /// @}

  /// Forwarded to the pipeline as AssumeInnerMinOneTrip.
  bool MinOne = false;
  /// Include final integer-array contents in the reply.
  bool WantArrays = false;
};

/// Per-request accounting record, engine-tagged; serialized by
/// telemetryJson for the service log.
struct Telemetry {
  /// Time from submission to a worker picking the request up.
  int64_t QueueNanos = 0;
  /// Time compiling (0 on a cache hit that did not wait).
  int64_t CompileNanos = 0;
  /// Time executing.
  int64_t RunNanos = 0;
  /// The compiled program came out of the cache.
  bool CacheHit = false;
  /// Joined another request's in-flight compile of the same program.
  bool CoalescedCompile = false;
  /// Served from the unflattened fallback (circuit breaker open, or
  /// primary pipeline failed for this request).
  bool Fallback = false;
  /// Compile attempts this request paid for (retries included; 0 on a
  /// hit).
  int CompileAttempts = 0;
  /// Instructions the run charged (the fuel actually spent; 0 when the
  /// run trapped or never started).
  int64_t FuelSpent = 0;
  /// Simulated machine cycles the run took (the cost-model currency:
  /// one SIMD step is one cycle regardless of how many lanes it
  /// occupies, unlike FuelSpent which bills per-lane work). 0 when the
  /// run trapped or never started.
  double CyclesSpent = 0.0;
  /// Loop strategy the primary pipeline compiled under: "unflattened",
  /// "flattened" or "coalesced" once the adaptive layer has decided;
  /// "static" while adaptive selection is off or still warming up.
  std::string Strategy = "static";
  /// Strategy decision epoch for this program: 0 before the first
  /// profile-guided decision, then incremented on every decision
  /// (initial choice and each drift-triggered respecialization).
  int64_t StrategyEpoch = 0;
  /// Execution engine that actually ran the request ("tree" /
  /// "bytecode" / "native"). Usually ServerOptions::Eng, but a request
  /// routed to Engine::Native reports "bytecode" when the native tier
  /// degraded (no toolchain, emitter refusal, or a failed host
  /// compile) - the tag comes from the interpreter's EngineUsed, never
  /// assumed.
  std::string Engine = "bytecode";
  /// Tenant the request was accounted to (normalized; never empty in a
  /// reply).
  std::string Tenant = "default";
};

/// One structured reply. Exactly one is produced per submitted request,
/// whatever happens.
struct Reply {
  uint64_t Id = 0;
  Outcome Out = Outcome::Shed;
  /// Shed reason or compile-error rendering (empty when Served).
  std::string Error;
  /// The structured trap when Out == Trapped.
  std::optional<interp::Trap> T;
  /// Retry hint for Shed replies, milliseconds (0: retrying is
  /// pointless - over-budget or shutdown). Scaled by queue depth for
  /// congestion sheds and by bucket refill time for quota sheds, so
  /// clients back off proportionally to the actual pressure.
  int64_t RetryAfterMs = 0;
  /// The request was shed because the server is draining (graceful
  /// shutdown): this instance will not take work again, but a retry
  /// against a peer is reasonable.
  bool Draining = false;
  /// Final integer arrays of the original program (Request::WantArrays).
  std::map<std::string, std::vector<int64_t>> IntArrays;
  Telemetry Tele;
};

/// Fault-injection hooks for the serving layer, mirroring
/// fuzz::FaultKind for the executors. All knobs default off; the serve
/// campaign and tests/serve turn them on one at a time.
struct FaultPlan {
  /// Fail the first N compile attempts of every *primary* (flattened)
  /// pipeline run with a transient error. The unflattened fallback is
  /// never injected, so the circuit breaker's quarantine path stays
  /// exercisable: the injected stage is the flattener.
  int CompileFailures = 0;
  /// Evict the compiled program from the cache immediately after every
  /// lookup, while the request that fetched it is still running - the
  /// shared_ptr handoff must keep the program alive.
  bool EvictMidFlight = false;
  /// Stall each worker this long before processing a request (drives
  /// queue timeouts and saturation deterministically in tests).
  int64_t WorkerStallMicros = 0;
  /// Pretend every published cache entry costs this many bytes
  /// (ProgramCache::Options::CostOverrideBytes): drives byte-budget and
  /// tenant-occupancy eviction deterministically regardless of real
  /// program sizes.
  size_t InflateCostBytes = 0;
};

/// Monotonic counters; snapshot via Server::stats(). The four outcome
/// counters partition Submitted once the queue drains.
struct ServerStats {
  int64_t Submitted = 0;
  int64_t Served = 0;
  int64_t Trapped = 0;
  int64_t Shed = 0;
  int64_t CompileErrors = 0;

  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;
  int64_t CacheEvictions = 0;
  /// Cache evictions forced by the byte budget (subset of
  /// CacheEvictions).
  int64_t CacheByteEvictions = 0;
  /// Cache evictions forced by a tenant occupancy cap (subset).
  int64_t CacheTenantEvictions = 0;
  /// Estimated compiled-program bytes resident right now.
  int64_t CacheBytesResident = 0;
  /// Requests that joined an in-flight compile (single-flight).
  int64_t CompilesCoalesced = 0;
  /// Compile attempts beyond each request's first (backoff retries).
  int64_t CompileRetries = 0;
  int64_t BreakerOpens = 0;
  /// Requests served from the unflattened fallback.
  int64_t FallbackServes = 0;
  /// Sheds caused by a tenant quota refusing admission (subset of
  /// Shed).
  int64_t QuotaSheds = 0;
  /// Sheds caused by the drain lifecycle - submissions refused while
  /// draining plus queued requests swept at the drain deadline (subset
  /// of Shed).
  int64_t DrainSheds = 0;
  /// Profile-guided strategy decisions made (initial choices plus
  /// drift-triggered re-decisions). 0 unless ServerOptions::Adaptive.
  int64_t AdaptiveDecisions = 0;
  /// Drift-triggered re-decisions that changed the chosen strategy:
  /// the next request for that program recompiles under the new
  /// canonical key (subset of AdaptiveDecisions).
  int64_t Respecializations = 0;
  /// Requests routed to Engine::Native that executed under bytecode
  /// instead because the native tier's host compile failed or no
  /// toolchain is available. The native analogue of FallbackServes:
  /// the request is still Served, one tier down.
  int64_t NativeFallbacks = 0;

  /// Per-tenant counter snapshot (tenants that submitted at least
  /// once).
  std::map<std::string, TenantStats> Tenants;

  /// All four buckets sum back to Submitted (true whenever no request
  /// is in flight).
  bool consistent() const {
    return Served + Trapped + Shed + CompileErrors == Submitted;
  }
  /// Every tenant's conservation laws hold too.
  bool tenantsConsistent() const {
    for (const auto &[Name, T] : Tenants) {
      (void)Name;
      if (!T.consistent())
        return false;
    }
    return true;
  }
  int64_t answered() const {
    return Served + Trapped + Shed + CompileErrors;
  }
};

} // namespace serve
} // namespace simdflat

#endif // SIMDFLAT_SERVE_SERVE_H
