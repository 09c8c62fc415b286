//===- support/Cli.cpp - Command-line value parsing ------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

#include <cerrno>
#include <cstdlib>

using namespace simdflat;

bool cli::parseInt(const std::string &S, int64_t &Out) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (End != S.c_str() + S.size() || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool cli::optionValue(const std::string &A, std::string &Out) {
  size_t Eq = A.find('=');
  if (Eq == std::string::npos)
    return false;
  Out = A.substr(Eq + 1);
  return true;
}
