//===- codegen/JitCache.cpp -----------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/JitCache.h"

#include "codegen/JitConfig.h"

#include <cstdlib>
#include <map>
#include <mutex>

#if SIMDFLAT_JIT_ENABLED
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <dlfcn.h>
#include <unistd.h>
#endif

using namespace simdflat;
using namespace simdflat::codegen;

uint64_t codegen::sourceKey(const std::string &Source) {
  // FNV-1a 64.
  uint64_t H = 14695981039346656037ULL;
  for (unsigned char C : Source) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

namespace {

struct CacheEntry {
  bool Done = false;
  bool Building = false;
  SfNativeRunFn Fn = nullptr; ///< Null once Done => cached failure.
};

struct Cache {
  std::mutex Mu;
#if SIMDFLAT_JIT_ENABLED
  std::condition_variable Cv;
#endif
  std::map<uint64_t, CacheEntry> Entries;
  JitStats Stats;
};

Cache &cache() {
  static Cache C;
  return C;
}

#if SIMDFLAT_JIT_ENABLED

std::string compilerPath() {
  if (const char *Env = std::getenv("SIMDFLAT_JIT_CC"))
    return Env;
  return SIMDFLAT_JIT_COMPILER;
}

std::filesystem::path artifactDir() {
  if (const char *Env = std::getenv("SIMDFLAT_JIT_DIR"))
    return Env;
  return std::filesystem::temp_directory_path() / "simdflat-jit";
}

/// Builds + loads one artifact outside any lock. Returns null on any
/// failure; updates only local *Out counters (caller folds them in
/// under the lock).
SfNativeRunFn buildOne(const std::string &Source, uint64_t Key,
                       bool &WasCompile, int64_t &Bytes) {
  std::error_code EC;
  std::filesystem::path Dir = artifactDir();
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return nullptr;

  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx",
                static_cast<unsigned long long>(Key));
  std::filesystem::path So = Dir / (std::string(Name) + ".so");
  std::filesystem::path Cpp = Dir / (std::string(Name) + ".cpp");
  std::filesystem::path Log = Dir / (std::string(Name) + ".log");

  if (!std::filesystem::exists(So, EC)) {
    // Write the source via temp + rename so a concurrent process never
    // compiles a half-written file.
    std::filesystem::path Tmp =
        Dir / (std::string(Name) + ".cpp.tmp" +
               std::to_string(static_cast<long>(::getpid())));
    {
      std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
      if (!Out)
        return nullptr;
      Out << Source;
      if (!Out.flush())
        return nullptr;
    }
    std::filesystem::rename(Tmp, Cpp, EC);
    if (EC) {
      std::filesystem::remove(Tmp, EC);
      return nullptr;
    }

    // -ffp-contract=off: the emitted loops must not fuse a mul+add that
    // the bytecode engine executes as two rounded instructions, or the
    // differential oracle loses FP bit-identity. -march=native is safe
    // for a JIT (artifacts never leave the host that compiled them) and
    // lets the per-lane loops vectorize; -fno-math-errno frees sqrt to
    // inline (the emitted code pre-sweeps negative operands exactly
    // like the interpreter, so errno was already dead). Both keep every
    // operation individually IEEE-rounded. -w: generated code has
    // unused labels/locals by construction.
    std::filesystem::path SoTmp = Dir / (std::string(Name) + ".so.tmp");
    std::ostringstream Cmd;
    Cmd << "\"" << compilerPath() << "\""
        << " -std=c++20 -O3 -march=native -fno-math-errno -fPIC -shared"
        << " -ffp-contract=off -w"
        << " -o \"" << SoTmp.string() << "\" \"" << Cpp.string() << "\""
        << " 2> \"" << Log.string() << "\"";
    if (std::system(Cmd.str().c_str()) != 0) {
      std::filesystem::remove(SoTmp, EC);
      return nullptr;
    }
    std::filesystem::rename(SoTmp, So, EC);
    if (EC)
      return nullptr;
    WasCompile = true;
    Bytes = static_cast<int64_t>(std::filesystem::file_size(So, EC));
  }

  void *Handle = ::dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle)
    return nullptr;
  // Never dlclosed - see the header comment.
  void *Sym = ::dlsym(Handle, SfNativeEntryName);
  return reinterpret_cast<SfNativeRunFn>(Sym);
}

#endif // SIMDFLAT_JIT_ENABLED

} // namespace

bool codegen::jitAvailable() {
#if SIMDFLAT_JIT_ENABLED
  return !compilerPath().empty();
#else
  return false;
#endif
}

SfNativeRunFn codegen::getOrCompile(const std::string &Source) {
#if SIMDFLAT_JIT_ENABLED
  if (!jitAvailable() || Source.empty())
    return nullptr;
  uint64_t Key = sourceKey(Source);
  Cache &C = cache();

  {
    std::unique_lock<std::mutex> Lk(C.Mu);
    CacheEntry &E = C.Entries[Key];
    // Single-flight: exactly one thread builds; the rest wait for the
    // verdict (success or cached failure) instead of re-compiling.
    while (E.Building)
      C.Cv.wait(Lk);
    if (E.Done) {
      C.Stats.Hits += 1;
      return E.Fn;
    }
    E.Building = true;
  }

  bool WasCompile = false;
  int64_t Bytes = 0;
  SfNativeRunFn Fn = buildOne(Source, Key, WasCompile, Bytes);

  {
    std::unique_lock<std::mutex> Lk(C.Mu);
    CacheEntry &E = C.Entries[Key];
    E.Building = false;
    E.Done = true;
    E.Fn = Fn;
    if (!Fn)
      C.Stats.Failures += 1;
    else if (WasCompile) {
      C.Stats.Compiles += 1;
      C.Stats.ArtifactBytes += Bytes;
    } else
      C.Stats.DiskHits += 1;
    C.Cv.notify_all();
  }
  return Fn;
#else
  (void)Source;
  return nullptr;
#endif
}

JitStats codegen::jitStats() {
  Cache &C = cache();
  std::lock_guard<std::mutex> Lk(C.Mu);
  return C.Stats;
}
