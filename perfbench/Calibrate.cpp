//===- perfbench/Calibrate.cpp --------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"

#include <algorithm>
#include <cmath>
#include <ctime>

using namespace simdbench;

namespace {

int64_t threadCpuNs() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return int64_t(T.tv_sec) * 1'000'000'000 + int64_t(T.tv_nsec);
}

/// Random opcodes, built at run time so the loop cannot be folded. Each
/// run takes the next OpsPerRun of them, so the branch predictor cannot
/// learn the sequence from one run to the next and every run costs the
/// same whether runs come back to back or 20 ms apart.
constexpr size_t OpsPerRun = 8192;
constexpr size_t ProgramOps = OpsPerRun * 128;

const std::vector<uint8_t> &program() {
  static const std::vector<uint8_t> Code = [] {
    std::vector<uint8_t> C(ProgramOps);
    uint64_t X = 1234567;
    for (uint8_t &Op : C) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Op = static_cast<uint8_t>(X % 6);
    }
    return C;
  }();
  return Code;
}

volatile int64_t Sink;
size_t NextRun = 0;

double median(std::vector<double> V) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

} // namespace

int64_t simdbench::calibrationNs() {
  const uint8_t *Ops = program().data() + NextRun * OpsPerRun;
  NextRun = (NextRun + 1) % (ProgramOps / OpsPerRun);
  int64_t R[4] = {1, 2, 3, 4};
  int64_t T0 = threadCpuNs();
  // An interpreter's shape: one unpredictable indirect branch per
  // operation and a dependency chain through four registers.
  for (size_t I = 0; I < OpsPerRun; ++I) {
    switch (Ops[I]) {
    case 0:
      R[0] += R[1];
      break;
    case 1:
      R[1] ^= R[2] << 1;
      break;
    case 2:
      R[2] -= R[3];
      break;
    case 3:
      R[3] = R[0] * 3;
      break;
    case 4:
      if (R[0] & 1)
        ++R[1];
      break;
    default:
      R[2] += R[0] >> 2;
      break;
    }
  }
  int64_t T1 = threadCpuNs();
  Sink = R[0] + R[1] + R[2] + R[3];
  return T1 - T0;
}

double simdbench::calibrationMedianNs(int Reps) {
  std::vector<double> V;
  for (int I = 0; I < Reps; ++I)
    V.push_back(static_cast<double>(calibrationNs()));
  return median(std::move(V));
}

int64_t Calibrator::tick() {
  int64_t Now = nowNs();
  if (Now < NextNs)
    return 0;
  int64_t Ns = calibrationNs();
  Points.push_back({Now, Ns});
  NextNs = Now + EveryNs;
  return Ns;
}

double Calibrator::medianNs(int64_t LoNs, int64_t HiNs) const {
  // Points are in time order.
  auto ByTime = [](const Point &P, int64_t T) { return P.AtNs < T; };
  auto Lo = std::lower_bound(Points.begin(), Points.end(), LoNs, ByTime);
  auto Hi = std::lower_bound(Lo, Points.end(), HiNs, ByTime);
  std::vector<double> V;
  for (auto It = Lo; It != Hi; ++It)
    V.push_back(static_cast<double>(It->Ns));
  return median(std::move(V));
}
