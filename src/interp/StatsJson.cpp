//===- interp/StatsJson.cpp - RunStats/Trace <-> JSON ----------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/StatsJson.h"

using namespace simdflat;
using namespace simdflat::interp;

json::Value interp::toJson(const RunStats &S) {
  json::Value V = json::Value::object();
  V.set("work_steps", S.WorkSteps);
  V.set("instructions", S.Instructions);
  V.set("work_active_lanes", S.WorkActiveLanes);
  V.set("work_total_lanes", S.WorkTotalLanes);
  V.set("comm_accesses", S.CommAccesses);
  V.set("cycles", S.Cycles);
  V.set("seconds", S.Seconds);
  V.set("work_utilization", S.workUtilization());
  // Versioned telemetry block: per-nest trip histograms, present only
  // when the run recorded any. Log2 buckets are emitted sparsely (most
  // of the 60 are empty); the version gates the bucketization scheme,
  // so a reader never mixes buckets laid out under different rules.
  if (!S.TripNests.empty()) {
    json::Value TH = json::Value::object();
    TH.set("version", static_cast<int64_t>(TripHistogram::Version));
    json::Value Nests = json::Value::array();
    for (const NestTripStats &N : S.TripNests) {
      json::Value NV = json::Value::object();
      NV.set("name", N.Name);
      NV.set("depth", N.Depth);
      NV.set("samples", N.Hist.Samples);
      NV.set("sum", N.Hist.Sum);
      NV.set("max", N.Hist.Max);
      json::Value Exact = json::Value::array();
      for (int64_t C : N.Hist.Exact)
        Exact.push(C);
      NV.set("exact", std::move(Exact));
      json::Value Log2 = json::Value::object();
      for (size_t B = 0; B < N.Hist.Log2.size(); ++B)
        if (N.Hist.Log2[B] != 0)
          Log2.set(std::to_string(B), N.Hist.Log2[B]);
      NV.set("log2", std::move(Log2));
      Nests.push(std::move(NV));
    }
    TH.set("nests", std::move(Nests));
    V.set("trip_histogram", std::move(TH));
  }
  return V;
}

json::Value interp::toJson(const RunStats &S, Engine E) {
  json::Value V = toJson(S);
  V.set("engine", engineName(E));
  return V;
}

namespace {

/// Reads an optional member of \p V into \p Out with type checking.
/// Returns false (setting \p Err) on a type mismatch; absence is fine.
bool readInt(const json::Value &V, const char *Key, int64_t &Out,
             json::JsonError &Err) {
  const json::Value *M = V.get(Key);
  if (!M)
    return true;
  if (!M->isInt()) {
    Err = {std::string("expected integer for '") + Key + "'", 0};
    return false;
  }
  Out = M->asInt();
  return true;
}

bool readDouble(const json::Value &V, const char *Key, double &Out,
                json::JsonError &Err) {
  const json::Value *M = V.get(Key);
  if (!M)
    return true;
  if (!M->isNumber()) {
    Err = {std::string("expected number for '") + Key + "'", 0};
    return false;
  }
  Out = M->asDouble();
  return true;
}

/// Parses the versioned trip_histogram block into \p S.TripNests.
/// Absence is fine; a present block must carry the exact version this
/// build writes (the bucketization scheme is not self-describing) and
/// internally consistent histograms.
bool readTripHistogram(const json::Value &V, RunStats &S,
                       json::JsonError &Err) {
  const json::Value *TH = V.get("trip_histogram");
  if (!TH)
    return true;
  if (!TH->isObject()) {
    Err = {"expected object for 'trip_histogram'", 0};
    return false;
  }
  const json::Value *Ver = TH->get("version");
  if (!Ver || !Ver->isInt() || Ver->asInt() != TripHistogram::Version) {
    Err = {"unsupported trip_histogram version (this reader understands "
           "version " +
               std::to_string(TripHistogram::Version) + ")",
           0};
    return false;
  }
  const json::Value *Nests = TH->get("nests");
  if (!Nests || !Nests->isArray()) {
    Err = {"expected array for 'trip_histogram.nests'", 0};
    return false;
  }
  for (size_t NI = 0; NI < Nests->size(); ++NI) {
    const json::Value &NV = Nests->at(NI);
    if (!NV.isObject()) {
      Err = {"expected object for a trip_histogram nest", 0};
      return false;
    }
    NestTripStats N;
    const json::Value *Name = NV.get("name");
    if (!Name || !Name->isString()) {
      Err = {"expected string for nest 'name'", 0};
      return false;
    }
    N.Name = Name->asString();
    if (!readInt(NV, "depth", N.Depth, Err) ||
        !readInt(NV, "samples", N.Hist.Samples, Err) ||
        !readInt(NV, "sum", N.Hist.Sum, Err) ||
        !readInt(NV, "max", N.Hist.Max, Err))
      return false;
    if (const json::Value *Exact = NV.get("exact")) {
      if (!Exact->isArray() ||
          Exact->size() != static_cast<size_t>(TripHistogram::NumExact)) {
        Err = {"expected " + std::to_string(TripHistogram::NumExact) +
                   "-element array for nest 'exact'",
               0};
        return false;
      }
      for (size_t I = 0; I < static_cast<size_t>(TripHistogram::NumExact);
           ++I) {
        const json::Value &C = Exact->at(I);
        if (!C.isInt()) {
          Err = {"expected integer counts in nest 'exact'", 0};
          return false;
        }
        N.Hist.Exact[I] = C.asInt();
      }
    }
    if (const json::Value *Log2 = NV.get("log2")) {
      if (!Log2->isObject()) {
        Err = {"expected object for nest 'log2'", 0};
        return false;
      }
      for (const auto &[Key, C] : Log2->members()) {
        long B = 0;
        bool Digits = !Key.empty() && Key.size() <= 2;
        for (char Ch : Key) {
          if (Ch < '0' || Ch > '9') {
            Digits = false;
            break;
          }
          B = B * 10 + (Ch - '0');
        }
        if (!Digits || B >= static_cast<long>(TripHistogram::NumLog2) ||
            !C.isInt()) {
          Err = {"bad log2 bucket '" + Key + "' in trip_histogram", 0};
          return false;
        }
        N.Hist.Log2[static_cast<size_t>(B)] = C.asInt();
      }
    }
    if (!N.Hist.consistent()) {
      Err = {"trip_histogram nest '" + N.Name +
                 "' is inconsistent (bucket counts do not sum to "
                 "samples, or a count is negative)",
             0};
      return false;
    }
    S.TripNests.push_back(std::move(N));
  }
  return true;
}

} // namespace

Expected<RunStats, json::JsonError>
interp::runStatsFromJson(const json::Value &V) {
  if (!V.isObject())
    return json::JsonError{"RunStats must be a JSON object", 0};
  RunStats S;
  json::JsonError Err;
  if (!readInt(V, "work_steps", S.WorkSteps, Err) ||
      !readInt(V, "instructions", S.Instructions, Err) ||
      !readInt(V, "work_active_lanes", S.WorkActiveLanes, Err) ||
      !readInt(V, "work_total_lanes", S.WorkTotalLanes, Err) ||
      !readInt(V, "comm_accesses", S.CommAccesses, Err) ||
      !readDouble(V, "cycles", S.Cycles, Err) ||
      !readDouble(V, "seconds", S.Seconds, Err) ||
      !readTripHistogram(V, S, Err))
    return Err;
  // Padded-tail hardening: a record claiming more active lane slots
  // than total lane slots (or negative counts) would round-trip into a
  // >100% utilization. No engine can produce one - padded lanes charge
  // the total but are never active - so such a record is corrupt.
  if (!S.laneAccountingConsistent())
    return json::JsonError{
        "work_active_lanes exceeds work_total_lanes (or a lane count "
        "is negative): padded lanes are idle, never active",
        0};
  return S;
}

json::Value interp::toJson(const Trace &T) {
  json::Value V = json::Value::object();
  json::Value Watch = json::Value::array();
  for (const std::string &W : T.Watch)
    Watch.push(W);
  V.set("watch", std::move(Watch));
  V.set("lanes", T.Lanes);
  json::Value Steps = json::Value::array();
  for (const Trace::Step &S : T.Steps) {
    json::Value Step = json::Value::object();
    json::Value Values = json::Value::array();
    for (int64_t X : S.Values)
      Values.push(X);
    json::Value Active = json::Value::array();
    for (uint8_t A : S.Active)
      Active.push(A != 0);
    Step.set("values", std::move(Values));
    Step.set("active", std::move(Active));
    Steps.push(std::move(Step));
  }
  V.set("steps", std::move(Steps));
  return V;
}
