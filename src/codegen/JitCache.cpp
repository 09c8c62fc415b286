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
#include <string_view>

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

namespace {

constexpr uint64_t FnvBasis = 14695981039346656037ULL;

/// Continues an FNV-1a 64 hash \p H over \p S.
uint64_t fnv1a(uint64_t H, std::string_view S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

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

// -ffp-contract=off: the emitted loops must not fuse a mul+add that the
// bytecode engine executes as two rounded instructions, or the
// differential oracle loses FP bit-identity. -march=native is safe for
// a JIT (artifacts never leave the host that compiled them) and lets
// the per-lane loops vectorize; -fno-math-errno frees sqrt to inline
// (the emitted code pre-sweeps negative operands exactly like the
// interpreter, so errno was already dead). Both keep every operation
// individually IEEE-rounded. -w: generated code has unused
// labels/locals by construction.
constexpr const char *JitFlags = "-std=c++20 -O3 -march=native "
                                 "-fno-math-errno -fPIC -shared "
                                 "-ffp-contract=off -w";

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

/// The cache key: FNV-1a over the compiler path, the flags and the
/// source, so an artifact is never reused across toolchains or compile
/// commands.
uint64_t artifactKey(const std::string &Cc, const std::string &Source) {
  uint64_t H = fnv1a(FnvBasis, Cc);
  H = fnv1a(H, std::string_view("\0", 1));
  H = fnv1a(H, JitFlags);
  H = fnv1a(H, std::string_view("\0", 1));
  return fnv1a(H, Source);
}

/// True when \p Path holds exactly \p Source.
bool fileHolds(const std::filesystem::path &Path, const std::string &Source) {
  std::error_code EC;
  if (std::filesystem::file_size(Path, EC) != Source.size() || EC)
    return false;
  std::ifstream In(Path, std::ios::binary);
  std::string Text(Source.size(), '\0');
  return In.read(Text.data(), static_cast<std::streamsize>(Text.size())) &&
         Text == Source;
}

/// What buildOne did, folded into JitStats by the caller under the lock.
struct BuildOutcome {
  bool WasCompile = false;
  bool WasStale = false;
  int64_t Bytes = 0;
};

/// Builds + loads one artifact outside any lock. Returns null on any
/// failure.
SfNativeRunFn buildOne(const std::string &Cc, const std::string &Source,
                       uint64_t Key, BuildOutcome &Out) {
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
  // Everything a compile writes before its final rename carries the pid:
  // two processes building the same key into one directory must never
  // share a temp object or a log.
  const std::string Pid = std::to_string(static_cast<long>(::getpid()));
  std::filesystem::path Log = Dir / (std::string(Name) + "." + Pid + ".log");

  // A present module is reused only when the source beside it is this
  // source: the file name is a 64-bit hash, and a stale or damaged
  // artifact must cost a recompile, never a wrong module.
  bool Present = std::filesystem::exists(So, EC);
  Out.WasStale = Present && !fileHolds(Cpp, Source);
  if (!Present || Out.WasStale) {
    // Write the source via temp + rename so a concurrent process never
    // compiles a half-written file.
    std::filesystem::path Tmp = Dir / (std::string(Name) + ".cpp.tmp" + Pid);
    {
      std::ofstream File(Tmp, std::ios::binary | std::ios::trunc);
      if (!File)
        return nullptr;
      File << Source;
      if (!File.flush())
        return nullptr;
    }
    std::filesystem::rename(Tmp, Cpp, EC);
    if (EC) {
      std::filesystem::remove(Tmp, EC);
      return nullptr;
    }

    std::filesystem::path SoTmp = Dir / (std::string(Name) + ".so.tmp" + Pid);
    std::ostringstream Cmd;
    Cmd << "\"" << Cc << "\" " << JitFlags << " -o \"" << SoTmp.string()
        << "\" \"" << Cpp.string() << "\" 2> \"" << Log.string() << "\"";
    if (std::system(Cmd.str().c_str()) != 0) {
      // The log stays behind: it holds the compiler's diagnostics.
      std::filesystem::remove(SoTmp, EC);
      return nullptr;
    }
    std::filesystem::remove(Log, EC);
    std::filesystem::rename(SoTmp, So, EC);
    if (EC) {
      std::filesystem::remove(SoTmp, EC);
      return nullptr;
    }
    Out.WasCompile = true;
    Out.Bytes = static_cast<int64_t>(std::filesystem::file_size(So, EC));
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

uint64_t codegen::sourceKey(const std::string &Source) {
  return fnv1a(FnvBasis, Source);
}

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
  const std::string Cc = compilerPath();
  uint64_t Key = artifactKey(Cc, Source);
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

  BuildOutcome Out;
  SfNativeRunFn Fn = buildOne(Cc, Source, Key, Out);

  {
    std::unique_lock<std::mutex> Lk(C.Mu);
    CacheEntry &E = C.Entries[Key];
    E.Building = false;
    E.Done = true;
    E.Fn = Fn;
    C.Stats.StaleArtifacts += Out.WasStale;
    if (!Fn)
      C.Stats.Failures += 1;
    else if (Out.WasCompile) {
      C.Stats.Compiles += 1;
      C.Stats.ArtifactBytes += Out.Bytes;
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
