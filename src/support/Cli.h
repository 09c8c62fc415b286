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
#include <string_view>

namespace simdflat {
namespace cli {

/// Strict base-10 integer parse of all of \p S; rejects empty strings,
/// trailing junk, and out-of-range values.
bool parseInt(const std::string &S, int64_t &Out);

/// Matches the argument \p A against the option \p Name (e.g.
/// "--lanes"): true, with the text after the '=' in \p Out, exactly
/// when \p A is `Name=value`. A longer flag that merely starts with
/// \p Name ("--lanesfoo=2") or a bare "--lanes" does not match, so it
/// falls through to the tool's unknown-option error.
bool optionValue(const std::string &A, std::string_view Name,
                 std::string &Out);

} // namespace cli
} // namespace simdflat

#endif // SIMDFLAT_SUPPORT_CLI_H
