//===- support/Cli.cpp - Declarative command-line options ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

// Header-only: the engine name table and the Layout enum.
#include "interp/RunStats.h"
#include "machine/Machine.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace simdflat;
using namespace simdflat::cli;

namespace {

/// Column where help text starts, and the width it wraps at.
constexpr size_t HelpColumn = 27;
constexpr size_t Width = 78;

std::string joined(const std::vector<std::string> &Items, const char *Sep) {
  std::string Out;
  for (const std::string &S : Items)
    Out += (Out.empty() ? "" : Sep) + S;
  return Out;
}

/// The ", got '--name=V'" tail of a value row's error message.
std::string got(const std::string &Name, const std::string &V) {
  return ", got '" + Name + "=" + V + "'";
}

} // namespace

bool cli::parseInt(const std::string &S, int64_t &Out) {
  // strtoll would skip leading whitespace.
  if (S.empty() || std::isspace(static_cast<unsigned char>(S[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (End != S.c_str() + S.size() || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool cli::optionValue(const std::string &A, std::string_view Name,
                      std::string &Out) {
  if (A.size() <= Name.size() || A.compare(0, Name.size(), Name) != 0 ||
      A[Name.size()] != '=')
    return false;
  Out = A.substr(Name.size() + 1);
  return true;
}

Option cli::flag(std::string Name, bool &Out, std::string Help) {
  return {std::move(Name), "", std::move(Help), Option::Takes::Nothing,
          [&Out](const std::string &) {
            Out = true;
            return std::string();
          }};
}

Option cli::integer(std::string Name, std::string Meta, int64_t Min,
                    std::function<void(int64_t)> Set, std::string Help) {
  std::string Want = Min == 0   ? "a non-negative integer"
                     : Min == 1 ? "a positive integer"
                                : "an integer >= " + std::to_string(Min);
  auto Apply = [Name, Want, Min,
                Set = std::move(Set)](const std::string &V) -> std::string {
    int64_t N = 0;
    if (!parseInt(V, N) || N < Min)
      return Name + " expects " + Want + got(Name, V);
    Set(N);
    return "";
  };
  return value(std::move(Name), std::move(Meta), std::move(Apply),
               std::move(Help));
}

Option cli::choice(std::string Name, std::vector<std::string> Names,
                   std::function<void(const std::string &)> Set,
                   std::string Help) {
  std::string List = joined(Names, "|");
  auto Apply = [Name, List, Names = std::move(Names),
                Set = std::move(Set)](const std::string &V) {
    for (const std::string &N : Names)
      if (V == N) {
        Set(V);
        return std::string();
      }
    return Name + " expects " + List + got(Name, V);
  };
  return value(std::move(Name), List, std::move(Apply), std::move(Help));
}

Option cli::value(std::string Name, std::string Meta,
                  std::function<std::string(const std::string &)> Set,
                  std::string Help) {
  return {std::move(Name), std::move(Meta), std::move(Help),
          Option::Takes::Joined, std::move(Set)};
}

Option cli::text(std::string Name, std::string Meta, std::string &Out,
                 std::string Help) {
  auto Apply = [Name, &Out](const std::string &V) -> std::string {
    if (V.empty())
      return Name + " expects a non-empty value" + got(Name, V);
    Out = V;
    return "";
  };
  return value(std::move(Name), std::move(Meta), std::move(Apply),
               std::move(Help));
}

Option cli::nextArg(std::string Name, std::string Meta,
                    std::function<std::string(const std::string &)> Set,
                    std::string Help) {
  return {std::move(Name), std::move(Meta), std::move(Help),
          Option::Takes::NextArg, std::move(Set)};
}

Option cli::engine(interp::Engine &Out, std::string Help) {
  std::vector<std::string> Names;
  for (const interp::EngineNameEntry &N : interp::EngineNames)
    Names.push_back(N.Name);
  return choice(
      "--engine", std::move(Names),
      [&Out](const std::string &V) { interp::engineFromName(V, Out); },
      std::move(Help));
}

Option cli::layout(machine::Layout &Out, std::string Help) {
  return choice(
      "--layout", {"cyclic", "block"},
      [&Out](const std::string &V) {
        Out = V == "block" ? machine::Layout::Block : machine::Layout::Cyclic;
      },
      std::move(Help));
}

std::string cli::usage(const Command &C) {
  std::string Out = "usage: " + C.Tool + " " + C.Synopsis + "\n";
  for (const Option &O : C.Options) {
    if (O.Help.empty())
      continue;
    std::string Line = "  " + O.Name;
    if (!O.Meta.empty())
      Line += (O.Kind == Option::Takes::NextArg ? " " : "=") + O.Meta;
    if (Line.size() >= HelpColumn) {
      Out += Line + "\n";
      Line.clear();
    }
    // Greedy word wrap of the help text into the help column.
    Line.resize(HelpColumn, ' ');
    std::istringstream Words(O.Help);
    std::string W;
    for (bool First = true; Words >> W; First = false) {
      if (!First && Line.size() + 1 + W.size() > Width) {
        Out += Line + "\n";
        Line.assign(HelpColumn, ' ');
        First = true;
      }
      Line += (First ? "" : " ") + W;
    }
    Out += Line + "\n";
  }
  return Out + C.Footer;
}

int cli::fail(const Command &C, const std::string &Msg) {
  std::fprintf(stderr, "%s: %s\n%s", C.Tool.c_str(), Msg.c_str(),
               usage(C).c_str());
  return 2;
}

std::optional<int> cli::parse(const Command &C, int Argc, char **Argv,
                              std::vector<std::string> *Positionals) {
  std::vector<std::string> Pos;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--help" || A == "-h") {
      std::fputs(usage(C).c_str(), stdout);
      return 0;
    }
    const Option *Hit = nullptr;
    std::string V;
    for (const Option &O : C.Options)
      if (O.Kind == Option::Takes::Joined ? optionValue(A, O.Name, V)
                                          : A == O.Name) {
        Hit = &O;
        break;
      }
    if (!Hit) {
      if (!A.empty() && A[0] == '-')
        return fail(C, "unknown option '" + A + "'");
      Pos.push_back(A);
      continue;
    }
    if (Hit->Kind == Option::Takes::NextArg) {
      if (I + 1 >= Argc)
        return fail(C, Hit->Name + " expects a " + Hit->Meta + " argument");
      V = Argv[++I];
    }
    if (std::string Err = Hit->Apply(V); !Err.empty())
      return fail(C, Err);
  }
  if (Pos.size() < C.Positionals.size())
    return fail(C, "expected " + joined(C.Positionals, " "));
  if (Pos.size() > C.Positionals.size())
    return fail(C, "unexpected argument '" + Pos[C.Positionals.size()] +
                       "'");
  if (Positionals)
    *Positionals = std::move(Pos);
  return std::nullopt;
}
