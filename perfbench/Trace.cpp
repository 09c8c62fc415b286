//===- perfbench/Trace.cpp ------------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "serve/ServeJson.h"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace simdbench;

namespace {
const Clock::time_point Origin = Clock::now();
} // namespace

int64_t simdbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

namespace {
std::vector<int> processTids() {
  std::vector<int> Tids;
  std::error_code EC;
  for (const auto &E :
       std::filesystem::directory_iterator("/proc/self/task", EC))
    Tids.push_back(std::stoi(E.path().filename().string()));
  std::sort(Tids.begin(), Tids.end());
  return Tids;
}

int64_t childrenNs() {
  struct rusage U {};
  getrusage(RUSAGE_CHILDREN, &U);
  auto Ns = [](const timeval &T) {
    return int64_t(T.tv_sec) * 1'000'000'000 + int64_t(T.tv_usec) * 1000;
  };
  return Ns(U.ru_utime) + Ns(U.ru_stime);
}

int64_t clockNs(clockid_t C) {
  timespec T{};
  if (clock_gettime(C, &T) != 0)
    return 0;
  return int64_t(T.tv_sec) * 1'000'000'000 + int64_t(T.tv_nsec);
}
} // namespace

CpuClock::CpuClock() : Tids(processTids()) {
  // A thread's CPU clock id, as glibc's pthread_getcpuclockid builds it:
  // the negated tid, a per-thread bit and the scheduler clock. The
  // server's threads have no pthread_t the benchmark can reach.
  for (int Tid : Tids)
    Clocks.push_back(
        static_cast<clockid_t>((~static_cast<unsigned>(Tid) << 3) | 4 | 2));
}

int64_t CpuClock::nowNs() const {
  int64_t Ns = childrenNs();
  for (clockid_t C : Clocks)
    Ns += clockNs(C);
  return Ns;
}

bool CpuClock::sameThreads() const { return processTids() == Tids; }

int64_t CpuClock::processNs() {
  return clockNs(CLOCK_PROCESS_CPUTIME_ID) + childrenNs();
}

int32_t TraceBuffer::open(const char *Name, uint64_t Req, int32_t Parent) {
  int64_t T = nowNs();
  return add(Name, Req, Parent, T, T);
}

int64_t TraceBuffer::close(int32_t Idx) {
  int64_t T = nowNs();
  Span &S = Spans[size_t(Idx)];
  S.EndNs = T;
  return S.durNs();
}

int32_t TraceBuffer::add(const char *Name, uint64_t Req, int32_t Parent,
                         int64_t StartNs, int64_t EndNs, std::string Detail) {
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = std::max(StartNs, EndNs);
  S.Parent = Parent;
  S.Req = Req;
  S.Detail = std::move(Detail);
  Spans.push_back(std::move(S));
  return static_cast<int32_t>(Spans.size() - 1);
}

void TraceBuffer::computeSelfTimes() {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[size_t(S.Parent)].emplace_back(S.StartNs, S.EndNs);
  for (size_t I = 0; I < Spans.size(); ++I) {
    Span &S = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    // Length of the union of the children's intervals, clipped to S.
    int64_t Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, S.StartNs);
      Hi = std::min(Hi, S.EndNs);
      if (Hi <= Lo)
        continue;
      if (Lo > CurHi) {
        if (CurHi > CurLo)
          Covered += CurHi - CurLo;
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    if (CurHi > CurLo)
      Covered += CurHi - CurLo;
    S.SelfNs = S.durNs() - Covered;
  }
}

bool simdbench::writeTrace(const std::string &Path, const TraceBuffer &B) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  const std::vector<Span> &Spans = B.spans();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    simdflat::json::Value O = simdflat::json::Value::object();
    O.set("req", static_cast<int64_t>(S.Req));
    O.set("id", static_cast<int64_t>(I));
    O.set("parent", static_cast<int64_t>(S.Parent));
    O.set("name", S.Name);
    O.set("start_ns", S.StartNs);
    O.set("end_ns", S.EndNs);
    O.set("self_ns", S.SelfNs);
    if (!S.Detail.empty())
      O.set("detail", S.Detail);
    Out << simdflat::serve::toLine(O) << "\n";
  }
  return static_cast<bool>(Out.flush());
}

std::map<std::string, int64_t>
simdbench::selfTimeByName(const TraceBuffer &B) {
  std::map<std::string, int64_t> Out;
  for (const Span &S : B.spans())
    Out[S.Name] += S.SelfNs;
  return Out;
}
