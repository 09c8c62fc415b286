//===- exec/SimdKernels.h - Dense per-lane loops ---------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense per-lane arithmetic loops of the SIMD evaluation core:
/// plain scalar-per-lane loops over the lane vectors, bit-identical to
/// the tree walker's per-lane evaluation.
///
/// Only trap-free dense math lives here. Anything that collects faulting
/// lane sets (integer divide, gather/scatter bounds checks), calls out
/// (externs), or reduces in lane order (SUM must accumulate left to
/// right for FP bit-identity) stays inline in the Core dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_EXEC_SIMDKERNELS_H
#define SIMDFLAT_EXEC_SIMDKERNELS_H

#include "exec/Bytecode.h"
#include "support/Error.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace simdflat {
namespace exec {
namespace kern {

inline void negI(int64_t *O, const int64_t *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = -A[L];
}
inline void negR(double *O, const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = -A[L];
}
inline void notI(int64_t *O, const int64_t *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = !A[L];
}
inline void logicOp(bool IsAnd, int64_t *O, const int64_t *A,
                    const int64_t *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = IsAnd ? (A[L] && B[L]) : (A[L] || B[L]);
}
inline void cmpRR(Opcode Op, int64_t *O, const double *A, const double *B,
                  size_t N) {
  switch (Op) {
  case Opcode::CmpEq:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] == B[L];
    break;
  case Opcode::CmpNe:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] != B[L];
    break;
  case Opcode::CmpLt:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] < B[L];
    break;
  case Opcode::CmpLe:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] <= B[L];
    break;
  case Opcode::CmpGt:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] > B[L];
    break;
  case Opcode::CmpGe:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] >= B[L];
    break;
  default:
    SIMDFLAT_UNREACHABLE("not a comparison");
  }
}
inline void addI(int64_t *O, const int64_t *A, const int64_t *B,
                 size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] + B[L];
}
inline void subI(int64_t *O, const int64_t *A, const int64_t *B,
                 size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] - B[L];
}
inline void mulI(int64_t *O, const int64_t *A, const int64_t *B,
                 size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] * B[L];
}
inline void addR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] + B[L];
}
inline void subR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] - B[L];
}
inline void mulR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] * B[L];
}
/// The guarded divide: a zero divisor yields 0.0 (active-lane zero
/// divisors do not trap on the real path; the language defines the
/// quotient away instead).
inline void divR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = B[L] == 0.0 ? 0.0 : A[L] / B[L];
}
inline void minmaxI(bool IsMax, int64_t *O, const int64_t *A,
                    const int64_t *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = IsMax ? std::max(A[L], B[L]) : std::min(A[L], B[L]);
}
inline void minmaxR(bool IsMax, double *O, const double *A,
                    const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = IsMax ? std::max(A[L], B[L]) : std::min(A[L], B[L]);
}
inline void absI(int64_t *O, const int64_t *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = std::llabs(A[L]);
}
inline void absR(double *O, const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = std::fabs(A[L]);
}
/// True when any lane is strictly negative (NaN lanes are not). The
/// sqrt fast path uses this to skip the trap-collecting sweep.
inline bool anyNegative(const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    if (A[L] < 0.0)
      return true;
  return false;
}
/// Plain sqrt over every lane; only called once anyNegative said no
/// lane traps (so no lane needs the negative-input guard).
inline void sqrtR(double *O, const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = std::sqrt(A[L]);
}
/// Masked commit: lanes with a zero mask byte keep their old value.
inline void maskedStoreI(int64_t *Dst, const int64_t *Src,
                         const uint8_t *M, size_t N) {
  for (size_t L = 0; L < N; ++L)
    if (M[L])
      Dst[L] = Src[L];
}
inline void maskedStoreR(double *Dst, const double *Src, const uint8_t *M,
                         size_t N) {
  for (size_t L = 0; L < N; ++L)
    if (M[L])
      Dst[L] = Src[L];
}

} // namespace kern
} // namespace exec
} // namespace simdflat

#endif // SIMDFLAT_EXEC_SIMDKERNELS_H
