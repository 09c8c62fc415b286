//===- support/Cli.h - Command-line value parsing --------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option-value helpers every simdflat command-line tool shares.
/// Each tool keeps its own usage text and error reporting.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SUPPORT_CLI_H
#define SIMDFLAT_SUPPORT_CLI_H

#include <cstdint>
#include <string>

namespace simdflat {
namespace cli {

/// Strict base-10 integer parse of all of \p S; rejects empty strings,
/// trailing junk, and out-of-range values.
bool parseInt(const std::string &S, int64_t &Out);

/// Value of a `--opt=value` argument; fails (rather than returning the
/// whole argument) when the '=' is missing.
bool optionValue(const std::string &A, std::string &Out);

} // namespace cli
} // namespace simdflat

#endif // SIMDFLAT_SUPPORT_CLI_H
