//===- support/Cli.h - Declarative command-line options --------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one command-line parser every simdflat front end uses. A tool
/// declares its options as a table of rows - name, value placeholder,
/// help text and an apply callback - and cli::parse matches argv
/// against it while cli::usage renders the help from the same rows, so
/// a flag's spelling, checks, error text and help line live in one
/// place. Only the tool's cross-option rules stay in the tool.
///
/// Conventions every table inherits:
///   - a value option matches only as `--name=value`, so a longer
///     spelling ("--lanesfoo=2") or the bare name is an unknown option;
///   - `--help`/`-h` prints the usage to stdout and exits 0;
///   - any error prints `<tool>: <message>` and the usage to stderr and
///     exits 2.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SUPPORT_CLI_H
#define SIMDFLAT_SUPPORT_CLI_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace simdflat {
namespace interp {
enum class Engine;
} // namespace interp
namespace machine {
enum class Layout;
} // namespace machine

namespace cli {

/// Strict base-10 integer parse of all of \p S; rejects empty strings,
/// trailing junk, and out-of-range values.
bool parseInt(const std::string &S, int64_t &Out);

/// Matches the argument \p A against the option \p Name (e.g.
/// "--lanes"): true, with the text after the '=' in \p Out, exactly
/// when \p A is `Name=value`.
bool optionValue(const std::string &A, std::string_view Name,
                 std::string &Out);

/// One row of a front end's option table.
struct Option {
  /// How the row takes its value.
  enum class Takes {
    Nothing, ///< a bare flag: `--name`
    Joined,  ///< `--name=value`
    NextArg, ///< `--name value`: the following argument
  };
  std::string Name;
  /// Value placeholder in the usage ("N", "PATH", "a|b"); empty for a
  /// flag.
  std::string Meta;
  /// Empty hides the row from the usage (test hooks).
  std::string Help;
  Takes Kind = Takes::Nothing;
  /// Consumes the value ("" for a flag). Returns "" on success, else the
  /// error message, which the parser prefixes with the tool name.
  std::function<std::string(const std::string &)> Apply;
};

/// A front end's whole command line.
struct Command {
  std::string Tool;
  /// What follows "usage: <Tool> " on the first usage line.
  std::string Synopsis;
  std::vector<Option> Options;
  /// Usage names of the positional arguments; exactly this many are
  /// required.
  std::vector<std::string> Positionals;
  /// Printed verbatim after the option list (the exit codes).
  std::string Footer;
};

/// `--name`, setting \p Out.
Option flag(std::string Name, bool &Out, std::string Help);

/// `--name=N` with N >= \p Min.
Option integer(std::string Name, std::string Meta, int64_t Min,
               std::function<void(int64_t)> Set, std::string Help);
template <class T, class = std::enable_if_t<std::is_arithmetic_v<T>>>
Option integer(std::string Name, std::string Meta, int64_t Min, T &Out,
               std::string Help) {
  return integer(
      std::move(Name), std::move(Meta), Min,
      [&Out](int64_t N) { Out = static_cast<T>(N); }, std::move(Help));
}

/// `--name=V` with V one of \p Names; the usage shows them joined by
/// '|'.
Option choice(std::string Name, std::vector<std::string> Names,
              std::function<void(const std::string &)> Set,
              std::string Help);

/// `--name=V`, checked by \p Set (which returns the error message or
/// "").
Option value(std::string Name, std::string Meta,
             std::function<std::string(const std::string &)> Set,
             std::string Help);

/// `--name=V` with V non-empty.
Option text(std::string Name, std::string Meta, std::string &Out,
            std::string Help);

/// `--name V`: the next argument, checked by \p Set (which returns the
/// error message or "").
Option nextArg(std::string Name, std::string Meta,
               std::function<std::string(const std::string &)> Set,
               std::string Help);

/// The shared `--engine=tree|bytecode|native` row (names from
/// interp::EngineNames).
Option engine(interp::Engine &Out, std::string Help);

/// The shared `--layout=cyclic|block` row.
Option layout(machine::Layout &Out, std::string Help);

/// The usage text: synopsis, one entry per visible row, footer.
std::string usage(const Command &C);

/// Prints `<tool>: <Msg>` and the usage to stderr; returns 2.
int fail(const Command &C, const std::string &Msg);

/// Parses argv[1..Argc) against \p C, filling \p Positionals (when
/// non-null) with the positional arguments. Returns std::nullopt when
/// the tool should run, otherwise the exit code it should return: 0
/// after --help, 2 after an error (both already printed).
std::optional<int> parse(const Command &C, int Argc, char **Argv,
                         std::vector<std::string> *Positionals = nullptr);

} // namespace cli
} // namespace simdflat

#endif // SIMDFLAT_SUPPORT_CLI_H
