//===- codegen/CppEmitter.cpp ---------------------------------*- C++ -*-===//
//
// Every emitted handler is a transcription of the SIMD policy of
// exec/EngineCore.h's Core<IsSimd>::run(): same charges in the
// same order, same trap kinds / messages / faulting lane sets, same
// in-lane-order reductions (FP bit-identity), same masked commits.
// Deviations allowed: scratch-only effects the interpreter never
// observes (e.g. which coercion buffer holds an operand).
//
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"

#include "codegen/NativeAbi.h"
#include "exec/Bytecode.h"
#include "interp/Trap.h"
#include "ir/Program.h"
#include "machine/Machine.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::codegen;
using namespace simdflat::exec;

namespace {

/// Escapes \p S as the body of a C++ string literal (octal escapes for
/// anything outside plain printable ASCII, so a following character can
/// never extend an escape).
std::string escapeString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C >= 0x20 && C < 0x7F) {
      Out += static_cast<char>(C);
    } else {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\%03o", C);
      Out += Buf;
    }
  }
  return Out;
}

/// Bit-exact C++ literal for \p V: hexfloat for finite values, a
/// bit-pattern reinterpretation for NaN/Inf (pool values are normally
/// finite; this keeps pathological constants exact anyway).
std::string realLiteral(double V) {
  if (V == V && V <= 1.7976931348623157e308 && V >= -1.7976931348623157e308) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%a", V);
    return Buf;
  }
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "sfBits(0x%016" PRIx64 "ULL)", Bits);
  return Buf;
}

/// C++ literal for \p V with an LL suffix. INT64_MIN has no literal
/// (its magnitude overflows long long), so it is spelled as an
/// expression.
std::string intLiteral(int64_t V) {
  if (V == INT64_MIN)
    return "(-__INT64_MAX__ - 1)";
  return std::to_string(V) + "LL";
}

/// Static per-slot facts baked into the generated code.
struct SlotFacts {
  std::string Name;
  bool IsArray = false;
  bool IsReal = false;
  int Kind = 0; ///< ir::ScalarKind as int (0=Int, 1=Real, 2=Bool).
  bool Distributed = false;
  /// Stored values: 1 (control scalar), LANES (replicated scalar) or
  /// numElements() (array) - mirrors interp::DataStore.
  int64_t Width = 0;
  std::vector<int64_t> Dims;
};

int trapCode(interp::TrapKind K) { return static_cast<int>(K); }
int costCode(CostKind K) { return static_cast<int>(K); }

class Emitter {
public:
  Emitter(const Program &EP, const ir::Program &IRP,
          const machine::MachineConfig &Machine)
      : EP(EP), IRP(IRP), Machine(Machine), Lanes(Machine.Gran),
        Cyclic(Machine.DataLayout == machine::Layout::Cyclic) {}

  std::string emit();

private:
  const Program &EP;
  const ir::Program &IRP;
  const machine::MachineConfig &Machine;
  int64_t Lanes;
  bool Cyclic;
  std::vector<SlotFacts> Slots;
  std::string Out;
  bool Failed = false;

  void ln(const std::string &S) {
    Out += S;
    Out += '\n';
  }
  static std::string i2s(int64_t V) { return std::to_string(V); }

  /// "Rg[3]" for register operands.
  static std::string reg(int32_t R) { return "Rg[" + i2s(R) + "]"; }
  /// "SfMsgs[2]" with a bounds check at emit time.
  std::string msg(int32_t M) {
    if (M < 0 || static_cast<size_t>(M) >= EP.Msgs.size()) {
      Failed = true;
      return "\"\"";
    }
    return "SfMsgs[" + i2s(M) + "]";
  }
  std::string costExpr(CostKind K) {
    return "Costs[" + i2s(costCode(K)) + "]";
  }

  bool collectSlots();
  void prologue(int64_t MaskLevels, int32_t MaxArgs);
  void emitInstr(size_t PC, const Instr &I);
  /// Emits the "compute Flat/InB from index registers" block shared by
  /// Gather and StArr; reads per-lane loop variable L.
  void emitFlatten(const SlotFacts &S, const int32_t *Ops, int32_t N);
};

bool Emitter::collectSlots() {
  Slots.reserve(EP.SlotNames.size());
  for (const std::string &Name : EP.SlotNames) {
    const ir::VarDecl *D = IRP.lookupVar(Name);
    if (!D)
      return false;
    SlotFacts F;
    F.Name = Name;
    F.IsArray = D->isArray();
    F.IsReal = D->Kind == ir::ScalarKind::Real;
    F.Kind = static_cast<int>(D->Kind);
    F.Distributed = D->Distribution == ir::Dist::Distributed;
    F.Dims = D->Dims;
    if (F.IsArray)
      F.Width = D->numElements();
    else
      F.Width = D->Distribution == ir::Dist::Replicated ? Lanes : 1;
    Slots.push_back(std::move(F));
  }
  return true;
}

void Emitter::prologue(int64_t MaskLevels, int32_t MaxArgs) {
  size_t MsgMax = 0;
  for (const std::string &M : EP.Msgs)
    MsgMax = std::max(MsgMax, M.size());
  ln("// Generated by simdflat codegen::CppEmitter - do not edit.");
  ln("// program '" + escapeString(EP.ProgName) + "', lanes " + i2s(Lanes) +
     ", layout " + (Cyclic ? "cyclic" : "block") + ".");
  // No #include: parsing the standard headers was a fixed cost of about
  // 0.3 s in every host compile. The prelude declares the few library
  // pieces the code uses, from compiler-predefined macros and builtins
  // (GCC and Clang both provide them).
  ln("typedef __INT8_TYPE__ int8_t;");
  ln("typedef __INT32_TYPE__ int32_t;");
  ln("typedef __INT64_TYPE__ int64_t;");
  ln("typedef __UINT8_TYPE__ uint8_t;");
  ln("typedef __UINT32_TYPE__ uint32_t;");
  ln("typedef __UINT64_TYPE__ uint64_t;");
  ln("typedef __SIZE_TYPE__ size_t;");
  ln("extern \"C\" void *calloc(size_t, size_t);");
  ln("extern \"C\" void free(void *);");
  ln("");
  // Textual copy of the NativeAbi.h structs; the entry point verifies
  // AbiVersion + sizeof before touching anything else.
  ln("struct SfSlot { int64_t *I; double *R; int64_t Width; };");
  ln("struct SfContext {");
  ln("  int32_t AbiVersion; uint32_t StructBytes; void *Host;");
  ln("  SfSlot *Slots; double Costs[10]; int64_t Fuel;");
  ln("  int64_t MaxLoopIterations; int32_t HasDeadline; int32_t "
     "HasExterns;");
  ln("  double Cycles; int64_t Instructions; int64_t CommAccesses;");
  ln("  double *CalleeCosts; uint8_t *CalleeBound; uint8_t *CalleeWork;");
  ln("  uint8_t *SlotWork;");
  ln("  void (*Trap)(void *, int32_t, int32_t, const char *, const "
     "int64_t *, int64_t);");
  ln("  int32_t (*DeadlineExpired)(void *, int64_t);");
  ln("  void (*TripRec)(void *, int32_t, int64_t);");
  ln("  void (*WorkStep)(void *, const uint8_t *);");
  ln("  void (*CallLane)(void *, int32_t, int64_t, int32_t, int32_t, "
     "const int8_t *, const int64_t *, const double *, int64_t *, "
     "double *);");
  ln("};");
  ln("");
  ln("#define SF_PROG \"" + escapeString(EP.ProgName) + "\"");
  ln("static constexpr int64_t SF_LANES = " + i2s(Lanes) + ";");
  ln("static constexpr int64_t SF_NUMREGS = " + i2s(EP.NumRegs) + ";");
  ln("static constexpr int64_t SF_NUMCTL = " + i2s(EP.NumCtl) + ";");
  ln("static constexpr int64_t SF_LEVELS = " + i2s(MaskLevels) + ";");
  ln("static constexpr int32_t SF_MAXARGS = " + i2s(MaxArgs) + ";");
  ln("static constexpr int64_t SF_MSGMAX = " +
     i2s(static_cast<int64_t>(MsgMax)) + ";");
  ln("");
  ln("static inline double sfBits(uint64_t B) {");
  ln("  double V; __builtin_memcpy(&V, &B, sizeof(V)); return V;");
  ln("}");
  // std::max / std::min, operand order included (it decides which
  // operand a NaN or a signed zero comes from).
  ln("template <class T> static inline T sfMax(T A, T B) "
     "{ return A < B ? B : A; }");
  ln("template <class T> static inline T sfMin(T A, T B) "
     "{ return B < A ? B : A; }");
  // Trap-detail builders: copy with the terminator, return the end.
  ln("static inline char *sfPut(char *P, const char *S) {");
  ln("  while ((*P = *S)) { ++P; ++S; }");
  ln("  return P;");
  ln("}");
  ln("static inline char *sfPutI(char *P, int64_t V) {");
  ln("  char T[20]; int N = 0;");
  ln("  uint64_t U = V < 0 ? 0 - (uint64_t)V : (uint64_t)V;");
  ln("  do { T[N++] = (char)('0' + U % 10); U /= 10; } while (U);");
  ln("  if (V < 0) *P++ = '-';");
  ln("  while (N) *P++ = T[--N];");
  ln("  *P = 0;");
  ln("  return P;");
  ln("}");
  ln("");
  // Constant pools. Emit one dummy entry when empty so the arrays stay
  // well-formed; nothing indexes past the real contents.
  {
    std::string S = "static const int64_t SfIntPool[] = {";
    for (int64_t V : EP.IntPool) {
      S += intLiteral(V);
      S += ", ";
    }
    S += "0};";
    ln(S);
  }
  {
    std::string S = "static const double SfRealPool[] = {";
    for (double V : EP.RealPool)
      S += realLiteral(V) + ", ";
    S += "0.0};";
    ln(S);
  }
  {
    std::string S = "static const char *const SfMsgs[] = {";
    for (const std::string &M : EP.Msgs) {
      // Appended piecewise: GCC 12's -O2 -Werror=restrict misfires on
      // the `"lit" + std::string&&` concatenation chain here.
      S += '"';
      S += escapeString(M);
      S += "\", ";
    }
    S += "\"\"};";
    ln(S);
  }
  ln("");
  ln("struct SfReg { int8_t K; int64_t I[SF_LANES]; double R[SF_LANES]; "
     "};");
  // Per-run scratch in one zeroed heap block (the interpreter's fresh
  // VecVals are all-zero too): the register file plus the two coercion
  // registers, control slots, the mask levels (MaskCur[d] is the
  // composed mask at depth d, MaskCond[d] the condition that produced
  // it; flipTop needs both), faulting-lane collection, scatter flats,
  // mask conditions and extern call marshalling. The heap, not the
  // stack: the lane count has no upper bound.
  ln("struct SfScratch {");
  ln("  SfReg Rg[SF_NUMREGS + 2];");
  ln("  int64_t Ctl[SF_NUMCTL + 1];");
  ln("  uint8_t MaskCur[SF_LEVELS * SF_LANES];");
  ln("  uint8_t MaskCond[SF_LEVELS * SF_LANES];");
  ln("  int64_t BadL[SF_LANES];");
  ln("  int64_t Flats[SF_LANES];");
  ln("  uint8_t CondM[SF_LANES];");
  ln("  int8_t ArgK[SF_MAXARGS];");
  ln("  int64_t ArgI[SF_MAXARGS];");
  ln("  double ArgR[SF_MAXARGS];");
  ln("};");
  // Frees the block on return and when a trap unwinds the frame.
  ln("struct SfScratchOwner {");
  ln("  SfScratch *P;");
  ln("  explicit SfScratchOwner(SfScratch *P) : P(P) {}");
  ln("  SfScratchOwner(const SfScratchOwner &) = delete;");
  ln("  SfScratchOwner &operator=(const SfScratchOwner &) = delete;");
  ln("  ~SfScratchOwner() { free(P); }");
  ln("};");
  ln("");
  ln("extern \"C\" int32_t simdflat_native_run(SfContext *Ctx) {");
  ln("  if (Ctx->AbiVersion != " + i2s(SfNativeAbiVersion) +
     " || Ctx->StructBytes != (uint32_t)sizeof(SfContext))");
  ln("    return 1;");
  ln("  SfScratch *Sc = (SfScratch *)calloc(1, sizeof(SfScratch));");
  ln("  if (!Sc)");
  ln("    return 2;");
  ln("  SfScratchOwner ScOwner(Sc);");
  ln("  SfSlot *SL = Ctx->Slots;");
  ln("  const double *Costs = Ctx->Costs;");
  ln("  const int64_t Fuel = Ctx->Fuel;");
  ln("  const int64_t MaxLoopIters = Ctx->MaxLoopIterations;");
  ln("  const bool HasDeadline = Ctx->HasDeadline != 0;");
  ln("  double Cycles = Ctx->Cycles;");
  ln("  int64_t Instructions = Ctx->Instructions;");
  ln("  int64_t Comm = Ctx->CommAccesses;");
  ln("  int64_t LoopIterations = 0;");
  ln("  SfReg *Rg = Sc->Rg;");
  ln("  SfReg &TA = Rg[SF_NUMREGS];");
  ln("  SfReg &TB = Rg[SF_NUMREGS + 1];");
  ln("  (void)TA; (void)TB;");
  ln("  int64_t *Ctl = Sc->Ctl; (void)Ctl;");
  ln("  uint8_t *MaskCur = Sc->MaskCur;");
  ln("  uint8_t *MaskCond = Sc->MaskCond; (void)MaskCond;");
  ln("  for (int64_t L = 0; L < SF_LANES; ++L) MaskCur[L] = 1;");
  ln("  int64_t MD = 0;");
  ln("  uint8_t *CM = MaskCur;");
  ln("  int64_t *BadL = Sc->BadL; (void)BadL;");
  ln("  int64_t NBad = 0; (void)NBad;");
  ln("  int64_t *Flats = Sc->Flats; (void)Flats;");
  ln("  uint8_t *CondM = Sc->CondM; (void)CondM;");
  ln("  int8_t *ArgK = Sc->ArgK; (void)ArgK;");
  ln("  int64_t *ArgI = Sc->ArgI; (void)ArgI;");
  ln("  double *ArgR = Sc->ArgR; (void)ArgR;");
  ln("");
  ln("  auto sfSync = [&]() {");
  ln("    Ctx->Cycles = Cycles;");
  ln("    Ctx->Instructions = Instructions;");
  ln("    Ctx->CommAccesses = Comm;");
  ln("  };");
  // Trap never returns: the host callback throws through this frame
  // (the module is compiled with unwind tables like everything else);
  // abort is a belt for a misbehaving host.
  ln("  auto sfTrap = [&](int32_t Kind, int32_t Loc, const char *Detail,");
  ln("                    const int64_t *Lns, int64_t N) {");
  ln("    sfSync();");
  ln("    Ctx->Trap(Ctx->Host, Kind, Loc, Detail, Lns, N);");
  ln("    __builtin_abort();");
  ln("  };");
  // Detail buffers: the fixed text plus an int64 fit in 128 bytes.
  ln("  auto sfCharge = [&](double C, int32_t Loc) {");
  ln("    Cycles += C;");
  ln("    Instructions += 1;");
  ln("    if (Fuel > 0 && Instructions > Fuel) {");
  ln("      char D[sizeof(SF_PROG) + 128];");
  ln("      char *P = sfPutI(sfPut(D, \"fuel budget of \"), Fuel);");
  ln("      sfPut(P, \" instructions exhausted in '\" SF_PROG \"'\");");
  ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::FuelExhausted)) +
     ", Loc, D, nullptr, 0);");
  ln("    }");
  ln("    if (HasDeadline && Instructions % 64 == 1) {");
  ln("      sfSync();");
  ln("      if (Ctx->DeadlineExpired(Ctx->Host, Instructions))");
  ln("        sfTrap(" + i2s(trapCode(interp::TrapKind::DeadlineExpired)) +
     ", Loc, \"wall-clock deadline expired in '\" SF_PROG \"'\", "
     "nullptr, 0);");
  ln("    }");
  ln("  };");
  ln("  auto sfLoopIter = [&](int32_t Loc) {");
  ln("    if (++LoopIterations > MaxLoopIters) {");
  ln("      char D[sizeof(SF_PROG) + 128];");
  ln("      char *P = sfPutI(sfPut(D, \"loop iteration limit of \"), "
     "MaxLoopIters);");
  ln("      sfPut(P, \" exceeded in '\" SF_PROG \"' "
     "(non-terminating transform?)\");");
  ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::FuelExhausted)) +
     ", Loc, D, nullptr, 0);");
  ln("    }");
  ln("    sfCharge(" + costExpr(CostKind::LoopOverhead) + ", Loc);");
  ln("  };");
  ln("  auto sfUniform = [&](const SfReg &V, const char *What, int32_t "
     "Loc) -> int64_t {");
  ln("    int64_t First = V.I[0];");
  ln("    NBad = 0;");
  ln("    for (int64_t L = 0; L < SF_LANES; ++L)");
  ln("      if (V.I[L] != First) BadL[NBad++] = L;");
  ln("    if (NBad) {");
  ln("      char D[SF_MSGMAX + 128];");
  ln("      sfPut(sfPut(D, What), \" is not control-uniform across lanes; "
     "lane-varying control flow needs WHERE / WHILE ANY(...)\");");
  ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::NonUniformControl)) +
     ", Loc, D, BadL, NBad);");
  ln("    }");
  ln("    return First;");
  ln("  };");
  // readVec transcriptions: lowering guarantees only Int<->Real and
  // matching-kind reads, so two helpers cover every coercion site.
  ln("  auto sfToReal = [&](const SfReg &V, SfReg &Tmp) -> const SfReg & "
     "{");
  ln("    if (V.K == 1) return V;");
  ln("    Tmp.K = 1;");
  ln("    for (int64_t L = 0; L < SF_LANES; ++L) Tmp.R[L] = "
     "(double)V.I[L];");
  ln("    return Tmp;");
  ln("  };");
  ln("  auto sfToKind = [&](const SfReg &V, int8_t K, SfReg &Tmp) -> "
     "const SfReg & {");
  ln("    if (V.K == K) return V;");
  ln("    Tmp.K = K;");
  ln("    if (K == 1) {");
  ln("      for (int64_t L = 0; L < SF_LANES; ++L) Tmp.R[L] = "
     "(double)V.I[L];");
  ln("    } else {");
  ln("      for (int64_t L = 0; L < SF_LANES; ++L) Tmp.I[L] = "
     "(int64_t)V.R[L];");
  ln("    }");
  ln("    return Tmp;");
  ln("  };");
  ln("  auto sfLayers = [](int64_t E) -> int64_t {");
  ln("    return E <= 0 ? 1 : (E + SF_LANES - 1) / SF_LANES;");
  ln("  };");
  if (Cyclic)
    ln("  auto sfLaneOf = [&](int64_t Index, int64_t) -> int64_t {"
       " return (Index - 1) % SF_LANES; };");
  else
    ln("  auto sfLaneOf = [&](int64_t Index, int64_t Extent) -> int64_t {"
       " return (Index - 1) / sfLayers(Extent); };");
  ln("  (void)sfLaneOf; (void)sfLayers;");
  ln("  auto sfPush = [&](const uint8_t *Cond) {");
  ln("    uint8_t *Par = MaskCur + (size_t)(MD * SF_LANES);");
  ln("    uint8_t *Nxt = Par + SF_LANES;");
  ln("    uint8_t *Cnd = MaskCond + (size_t)((MD + 1) * SF_LANES);");
  ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
  ln("      Cnd[L] = Cond[L];");
  ln("      Nxt[L] = (uint8_t)(Par[L] & Cond[L]);");
  ln("    }");
  ln("    ++MD;");
  ln("    CM = Nxt;");
  ln("  };");
  ln("  auto sfFlip = [&]() {");
  ln("    uint8_t *Par = MaskCur + (size_t)((MD - 1) * SF_LANES);");
  ln("    uint8_t *Cnd = MaskCond + (size_t)(MD * SF_LANES);");
  ln("    for (int64_t L = 0; L < SF_LANES; ++L)");
  ln("      CM[L] = (uint8_t)(Par[L] & !Cnd[L]);");
  ln("  };");
  ln("  auto sfPop = [&]() {");
  ln("    --MD;");
  ln("    CM = MaskCur + (size_t)(MD * SF_LANES);");
  ln("  };");
  ln("  (void)sfPush; (void)sfFlip; (void)sfPop; (void)sfUniform;");
  ln("  (void)sfToReal; (void)sfToKind; (void)sfLoopIter;");
  ln("");
}

void Emitter::emitFlatten(const SlotFacts &S, const int32_t *Ops,
                          int32_t N) {
  // Transcribes the per-lane dim loop with its early break; a partial
  // Flat after an out-of-bounds dim is never read.
  ln("      int64_t Flat = 0; bool InB = true;");
  ln("      do {");
  for (int32_t Dim = 0; Dim < N; ++Dim) {
    int64_t Extent = Dim < static_cast<int32_t>(S.Dims.size())
                         ? S.Dims[static_cast<size_t>(Dim)]
                         : 0;
    ln("        { int64_t IdxV = " + reg(Ops[1 + Dim]) + ".I[L];");
    ln("          if (IdxV < 1 || IdxV > " + i2s(Extent) +
       ") { InB = false; break; }");
    ln("          Flat = Flat * " + i2s(Extent) + " + (IdxV - 1); }");
  }
  ln("      } while (0);");
}

void Emitter::emitInstr(size_t PC, const Instr &I) {
  std::string Loc = i2s(I.Loc);
  ln("L" + i2s(PC) + ": ;");
  ln("  {");
  switch (I.Op) {
  case Opcode::LdInt:
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 0;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = SfIntPool[" +
       i2s(I.B) + "];");
    break;
  case Opcode::LdReal:
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 1;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] = SfRealPool[" +
       i2s(I.B) + "];");
    break;
  case Opcode::LdBool:
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 2;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = " +
       i2s(I.B != 0 ? 1 : 0) + ";");
    break;
  case Opcode::LdVar: {
    const SlotFacts &S = Slots[static_cast<size_t>(I.B)];
    if (S.IsArray) {
      ln("    sfTrap(" + i2s(trapCode(interp::TrapKind::InvalidProgram)) +
         ", " + Loc + ", \"whole-array reference to '" +
         escapeString(S.Name) + "' outside a reduction\", nullptr, 0);");
      break;
    }
    ln("    SfReg &O = " + reg(I.A) + "; O.K = " + i2s(S.Kind) + ";");
    std::string Payload = S.IsReal ? "R" : "I";
    std::string Src = "SL[" + i2s(I.B) + "]." + Payload;
    if (S.Width == 1)
      ln("    for (int64_t L = 0; L < SF_LANES; ++L) O." + Payload +
         "[L] = " + Src + "[0];");
    else
      ln("    for (int64_t L = 0; L < SF_LANES; ++L) O." + Payload +
         "[L] = " + Src + "[L];");
    break;
  }
  case Opcode::Gather: {
    const SlotFacts &S = Slots[static_cast<size_t>(I.B)];
    const int32_t *Ops = &EP.Extra[static_cast<size_t>(I.C)];
    int32_t N = Ops[0];
    std::string Payload = S.IsReal ? "R" : "I";
    std::string Store = "SL[" + i2s(I.B) + "]." + Payload;
    ln("    sfCharge(" + costExpr(CostKind::GatherOp) + ", " + Loc + ");");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = " + i2s(S.Kind) + ";");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O." + Payload +
       "[L] = " + (S.IsReal ? "0.0" : "0") + ";");
    ln("    NBad = 0;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    emitFlatten(S, Ops, N);
    ln("      if (!InB) {");
    ln("        if (CM[L]) BadL[NBad++] = L;");
    ln("        continue; // idle lane gathers garbage; leave 0");
    ln("      }");
    if (S.Distributed && !S.Dims.empty()) {
      ln("      if (CM[L]) {");
      ln("        int64_t Dim0 = " + reg(Ops[1]) + ".I[L];");
      ln("        if (sfLaneOf(Dim0, " + i2s(S.Dims[0]) +
         ") != L) Comm += 1;");
      ln("      }");
    }
    ln("      O." + Payload + "[L] = " + Store + "[Flat];");
    ln("    }");
    ln("    if (NBad)");
    ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::OutOfBounds)) +
       ", " + Loc + ", \"active lane(s) read out of bounds from '" +
       escapeString(S.Name) + "'\", BadL, NBad);");
    break;
  }
  case Opcode::StVar: {
    const SlotFacts &S = Slots[static_cast<size_t>(I.A)];
    std::string Payload = S.IsReal ? "R" : "I";
    std::string Store = "SL[" + i2s(I.A) + "]." + Payload;
    ln("    const SfReg &C = sfToKind(" + reg(I.B) + ", " + i2s(S.Kind) +
       ", TA);");
    ln("    sfCharge(" + costExpr(CostKind::MoveOp) + ", " + Loc + ");");
    if (S.Width == 1) {
      // Control variable: value must be uniform over active lanes.
      ln("    int64_t FirstActive = -1;");
      ln("    for (int64_t L = 0; L < SF_LANES; ++L)");
      ln("      if (CM[L]) { FirstActive = L; break; }");
      ln("    if (FirstActive >= 0) {");
      ln("      NBad = 0;");
      ln("      auto Val = C." + Payload + "[FirstActive];");
      ln("      for (int64_t L = FirstActive; L < SF_LANES; ++L)");
      ln("        if (CM[L] && C." + Payload + "[L] != Val) BadL[NBad++] "
         "= L;");
      ln("      if (!NBad) " + Store + "[0] = Val;");
      ln("      if (NBad)");
      ln("        sfTrap(" +
         i2s(trapCode(interp::TrapKind::NonUniformControl)) + ", " + Loc +
         ", \"lane-varying store to control variable '" +
         escapeString(S.Name) + "'\", BadL, NBad);");
      ln("    }");
    } else {
      // Masked commit: idle lanes keep their old value (the blend).
      ln("    for (int64_t L = 0; L < SF_LANES; ++L)");
      ln("      if (CM[L]) " + Store + "[L] = C." + Payload + "[L];");
    }
    ln("    if (Ctx->SlotWork[" + i2s(I.A) + "]) { sfSync(); "
       "Ctx->WorkStep(Ctx->Host, CM); }");
    break;
  }
  case Opcode::StArr: {
    const SlotFacts &S = Slots[static_cast<size_t>(I.A)];
    const int32_t *Ops = &EP.Extra[static_cast<size_t>(I.C)];
    int32_t N = Ops[0];
    std::string Payload = S.IsReal ? "R" : "I";
    std::string Store = "SL[" + i2s(I.A) + "]." + Payload;
    ln("    const SfReg &C = sfToKind(" + reg(I.B) + ", " + i2s(S.Kind) +
       ", TA);");
    ln("    sfCharge(" + costExpr(CostKind::ScatterOp) + ", " + Loc +
       ");");
    // Validate every active lane before committing any store: a scatter
    // with a faulting lane must not half-commit.
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) Flats[L] = -1;");
    ln("    NBad = 0;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("      if (!CM[L]) continue;");
    emitFlatten(S, Ops, N);
    ln("      if (!InB) { BadL[NBad++] = L; continue; }");
    ln("      Flats[L] = Flat;");
    ln("    }");
    ln("    if (NBad)");
    ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::OutOfBounds)) +
       ", " + Loc + ", \"active lane(s) write out of bounds to '" +
       escapeString(S.Name) + "'\", BadL, NBad);");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("      if (!CM[L]) continue;");
    if (S.Distributed && !S.Dims.empty()) {
      ln("      { int64_t Dim0 = " + reg(Ops[1]) + ".I[L];");
      ln("        if (sfLaneOf(Dim0, " + i2s(S.Dims[0]) +
         ") != L) Comm += 1; }");
    }
    ln("      " + Store + "[Flats[L]] = C." + Payload + "[L];");
    ln("    }");
    ln("    if (Ctx->SlotWork[" + i2s(I.A) + "]) { sfSync(); "
       "Ctx->WorkStep(Ctx->Host, CM); }");
    break;
  }
  case Opcode::SetIdx:
    ln("    SfSlot &S = SL[" + i2s(I.A) + "];");
    ln("    for (int64_t K2 = 0; K2 < S.Width; ++K2) S.I[K2] = Ctl[" +
       i2s(I.B) + "];");
    break;
  case Opcode::Neg:
    ln("    const SfReg &V = " + reg(I.B) + ";");
    ln("    sfCharge(V.K == 1 ? " + costExpr(CostKind::RealOp) + " : " +
       costExpr(CostKind::IntOp) + ", " + Loc + ");");
    ln("    SfReg &O = " + reg(I.A) + ";");
    ln("    if (V.K == 1) {");
    ln("      O.K = 1;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] = -V.R[L];");
    ln("    } else {");
    ln("      O.K = V.K;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = -V.I[L];");
    ln("    }");
    break;
  case Opcode::NotOp:
    ln("    sfCharge(" + costExpr(CostKind::LogicOp) + ", " + Loc + ");");
    ln("    const SfReg &V = " + reg(I.B) + ";");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = V.K;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = !V.I[L];");
    break;
  case Opcode::AndOp:
  case Opcode::OrOp: {
    const char *Op = I.Op == Opcode::AndOp ? "&&" : "||";
    ln("    sfCharge(" + costExpr(CostKind::LogicOp) + ", " + Loc + ");");
    ln("    const SfReg &Lh = " + reg(I.B) + ", &Rh = " + reg(I.C) + ";");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 2;");
    ln(std::string("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = "
                   "Lh.I[L] ") +
       Op + " Rh.I[L];");
    break;
  }
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe: {
    const char *Op = I.Op == Opcode::CmpEq   ? "=="
                     : I.Op == Opcode::CmpNe ? "!="
                     : I.Op == Opcode::CmpLt ? "<"
                     : I.Op == Opcode::CmpLe ? "<="
                     : I.Op == Opcode::CmpGt ? ">"
                                             : ">=";
    ln("    sfCharge(" + costExpr(CostKind::CmpOp) + ", " + Loc + ");");
    // Comparisons evaluate through double on every lane (the tree
    // walker's rule, int operands included).
    ln("    const SfReg &Lh = sfToReal(" + reg(I.B) + ", TA);");
    ln("    const SfReg &Rh = sfToReal(" + reg(I.C) + ", TB);");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 2;");
    ln(std::string("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = "
                   "Lh.R[L] ") +
       Op + " Rh.R[L];");
    break;
  }
  case Opcode::AddI:
  case Opcode::SubI:
  case Opcode::MulI: {
    const char *Op = I.Op == Opcode::AddI   ? "+"
                     : I.Op == Opcode::SubI ? "-"
                                            : "*";
    ln("    sfCharge(" + costExpr(CostKind::IntOp) + ", " + Loc + ");");
    ln("    const SfReg &Lh = " + reg(I.B) + ", &Rh = " + reg(I.C) + ";");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 0;");
    ln(std::string("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = "
                   "Lh.I[L] ") +
       Op + " Rh.I[L];");
    break;
  }
  case Opcode::DivI:
  case Opcode::ModI: {
    bool IsMod = I.Op == Opcode::ModI;
    ln("    sfCharge(" + costExpr(CostKind::IntOp) + ", " + Loc + ");");
    ln("    const SfReg &Lh = " + reg(I.B) + ", &Rh = " + reg(I.C) + ";");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 0;");
    ln("    NBad = 0;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("      int64_t RV = Rh.I[L];");
    // Division by zero on an idle lane is a don't-care; active lanes
    // dividing by zero trap.
    ln("      if (RV == 0) {");
    ln("        if (CM[L]) BadL[NBad++] = L;");
    ln("        O.I[L] = 0;");
    ln("      } else {");
    ln(std::string("        O.I[L] = Lh.I[L] ") + (IsMod ? "%" : "/") +
       " RV;");
    ln("      }");
    ln("    }");
    ln("    if (NBad)");
    ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::DivByZero)) +
       ", " + Loc + ", \"" + (IsMod ? "MOD" : "division") +
       " by zero on active lane(s)\", BadL, NBad);");
    break;
  }
  case Opcode::AddR:
  case Opcode::SubR:
  case Opcode::MulR:
  case Opcode::DivR: {
    ln("    sfCharge(" + costExpr(CostKind::RealOp) + ", " + Loc + ");");
    ln("    const SfReg &Lh = sfToReal(" + reg(I.B) + ", TA);");
    ln("    const SfReg &Rh = sfToReal(" + reg(I.C) + ", TB);");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 1;");
    if (I.Op == Opcode::DivR)
      // The guarded divide: a zero divisor yields 0.0 (tree behavior).
      ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] = "
         "Rh.R[L] == 0.0 ? 0.0 : Lh.R[L] / Rh.R[L];");
    else {
      const char *Op = I.Op == Opcode::AddR   ? "+"
                       : I.Op == Opcode::SubR ? "-"
                                              : "*";
      ln(std::string("    for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] "
                     "= Lh.R[L] ") +
         Op + " Rh.R[L];");
    }
    break;
  }
  case Opcode::MaxMin: {
    bool IsMax = (I.D & 1) != 0;
    int K = I.D >> 1;
    bool Real = K == 1;
    std::string Fn = IsMax ? "sfMax" : "sfMin";
    ln("    const SfReg &Lh = sfToKind(" + reg(I.B) + ", " + i2s(K) +
       ", TA);");
    ln("    const SfReg &Rh = sfToKind(" + reg(I.C) + ", " + i2s(K) +
       ", TB);");
    ln("    sfCharge(" +
       costExpr(Real ? CostKind::RealOp : CostKind::IntOp) + ", " + Loc +
       ");");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = " + i2s(K) + ";");
    std::string P = Real ? "R" : "I";
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O." + P + "[L] = " +
       Fn + "(Lh." + P + "[L], Rh." + P + "[L]);");
    break;
  }
  case Opcode::AbsOp:
    ln("    const SfReg &V = " + reg(I.B) + ";");
    ln("    sfCharge(V.K == 1 ? " + costExpr(CostKind::RealOp) + " : " +
       costExpr(CostKind::IntOp) + ", " + Loc + ");");
    ln("    SfReg &O = " + reg(I.A) + ";");
    ln("    if (V.K == 1) {");
    ln("      O.K = 1;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] = "
       "__builtin_fabs(V.R[L]);");
    ln("    } else {");
    ln("      O.K = V.K;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = "
       "__builtin_llabs(V.I[L]);");
    ln("    }");
    break;
  case Opcode::SqrtOp:
    ln("    sfCharge(" + costExpr(CostKind::RealOp) + ", " + Loc + ");");
    ln("    const SfReg &V = " + reg(I.B) + ";");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 1;");
    ln("    bool AnyNeg = false;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L)");
    ln("      if (V.R[L] < 0.0) AnyNeg = true;");
    ln("    if (AnyNeg) {");
    // Idle negative lanes produce the defined-away 0.0 without
    // trapping; active ones collect into the fault set.
    ln("      NBad = 0;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("        if (V.R[L] < 0.0 && CM[L]) BadL[NBad++] = L;");
    ln("        O.R[L] = V.R[L] < 0.0 ? 0.0 : __builtin_sqrt(V.R[L]);");
    ln("      }");
    ln("      if (NBad)");
    ln("        sfTrap(" + i2s(trapCode(interp::TrapKind::DomainError)) +
       ", " + Loc +
       ", \"SQRT of a negative on active lane(s)\", BadL, NBad);");
    ln("    } else {");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] = "
       "__builtin_sqrt(V.R[L]);");
    ln("    }");
    break;
  case Opcode::LaneIdx:
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 0;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = L + 1;");
    break;
  case Opcode::NumLanesOp:
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 0;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = SF_LANES;");
    break;
  case Opcode::AnyAll: {
    bool IsAll = I.D != 0;
    ln("    sfCharge(" + costExpr(CostKind::ReduceOp) + ", " + Loc +
       ");");
    ln("    const SfReg &V = " + reg(I.B) + ";");
    ln("    bool Acc = " + std::string(IsAll ? "true" : "false") + ";");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("      if (!CM[L]) continue;");
    ln("      bool B = V.I[L] != 0;");
    ln(std::string("      Acc = ") +
       (IsAll ? "Acc && B" : "Acc || B") + ";");
    ln("    }");
    ln("    SfReg &O = " + reg(I.A) + "; O.K = 2;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = Acc ? 1 : "
       "0;");
    break;
  }
  case Opcode::LaneRed: {
    bool IsMax = I.D == 0, IsMin = I.D == 1;
    ln("    sfCharge(" + costExpr(CostKind::ReduceOp) + ", " + Loc +
       ");");
    ln("    const SfReg &V = " + reg(I.B) + ";");
    if (IsMax || IsMin) {
      ln("    { int64_t NAct = 0;");
      ln("      for (int64_t L = 0; L < SF_LANES; ++L) NAct += CM[L] != "
         "0;");
      ln("      if (NAct == 0)");
      ln("        sfTrap(" + i2s(trapCode(interp::TrapKind::DomainError)) +
         ", " + Loc + ", \"" + (IsMax ? "MAXRED" : "MINRED") +
         " with no active lanes\", nullptr, 0); }");
    }
    std::string CombR = IsMax   ? "Acc = sfMax(Acc, V.R[L]);"
                        : IsMin ? "Acc = sfMin(Acc, V.R[L]);"
                                : "Acc = Acc + V.R[L];";
    std::string CombI = IsMax   ? "Acc = sfMax(Acc, V.I[L]);"
                        : IsMin ? "Acc = sfMin(Acc, V.I[L]);"
                                : "Acc = Acc + V.I[L];";
    std::string InitR = IsMax   ? "-__builtin_inf()"
                        : IsMin ? "__builtin_inf()"
                                : "0.0";
    std::string InitI = IsMax   ? "(-__INT64_MAX__ - 1)"
                        : IsMin ? "__INT64_MAX__"
                                : "0";
    ln("    SfReg &O = " + reg(I.A) + ";");
    // Masked, in lane order: SUM must accumulate left to right for FP
    // bit-identity across engines.
    ln("    if (V.K == 1) {");
    ln("      double Acc = " + InitR + ";");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L)");
    ln("        if (CM[L]) { " + CombR + " }");
    ln("      O.K = 1;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] = Acc;");
    ln("    } else {");
    ln("      int64_t Acc = " + InitI + ";");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L)");
    ln("        if (CM[L]) { " + CombI + " }");
    ln("      O.K = 0;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = Acc;");
    ln("    }");
    break;
  }
  case Opcode::ArrRed: {
    const SlotFacts &S = Slots[static_cast<size_t>(I.B)];
    bool IsSum = I.D == 1;
    int64_t Layers = Machine.layersFor(S.Width);
    ln("    sfCharge(" + costExpr(CostKind::ReduceOp) + " * " +
       i2s(Layers) + ".0, " + Loc + ");");
    ln("    SfReg &O = " + reg(I.A) + ";");
    if (S.IsReal) {
      ln(std::string("    double Acc = ") +
         (IsSum ? "0.0" : "-__builtin_inf()") + ";");
      ln("    for (int64_t K2 = 0; K2 < " + i2s(S.Width) + "; ++K2) {");
      ln("      double X = SL[" + i2s(I.B) + "].R[K2];");
      ln(std::string("      Acc = ") +
         (IsSum ? "Acc + X" : "sfMax(Acc, X)") + ";");
      ln("    }");
      ln("    O.K = 1;");
      ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.R[L] = Acc;");
    } else {
      ln(std::string("    int64_t Acc = ") +
         (IsSum ? "0" : "(-__INT64_MAX__ - 1)") + ";");
      ln("    for (int64_t K2 = 0; K2 < " + i2s(S.Width) + "; ++K2) {");
      ln("      int64_t X = SL[" + i2s(I.B) + "].I[K2];");
      ln(std::string("      Acc = ") +
         (IsSum ? "Acc + X" : "sfMax(Acc, X)") + ";");
      ln("    }");
      ln("    O.K = 0;");
      ln("    for (int64_t L = 0; L < SF_LANES; ++L) O.I[L] = Acc;");
    }
    break;
  }
  case Opcode::CallCheck: {
    std::string Callee =
        escapeString(EP.Callees[static_cast<size_t>(I.B)]);
    ln("    if (!Ctx->HasExterns)");
    ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::ExternFailure)) +
       ", " + Loc + ", \"no extern registry for call to '" + Callee +
       "'\", nullptr, 0);");
    ln("    if (!Ctx->CalleeBound[" + i2s(I.B) + "])");
    ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::ExternFailure)) +
       ", " + Loc + ", \"unbound extern '" + Callee + "'\", nullptr, "
       "0);");
    break;
  }
  case Opcode::CallOp: {
    const int32_t *Ops = &EP.Extra[static_cast<size_t>(I.C)];
    int32_t N = Ops[0];
    int RetKind = I.D;
    bool RetReal = RetKind == 1;
    ln("    sfCharge(Ctx->CalleeCosts[" + i2s(I.B) + "], " + Loc + ");");
    ln("    if (Ctx->CalleeWork[" + i2s(I.B) + "]) { sfSync(); "
       "Ctx->WorkStep(Ctx->Host, CM); }");
    // Result register never aliases the argument registers; a
    // result-less call statement writes the discarded TA scratch.
    ln("    SfReg &O = " + (I.A >= 0 ? reg(I.A) : std::string("TA")) +
       ";");
    ln("    O.K = " + i2s(RetKind) + ";");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) O." +
       std::string(RetReal ? "R[L] = 0.0" : "I[L] = 0") + ";");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("      if (!CM[L]) continue;");
    for (int32_t A = 0; A < N; ++A) {
      std::string R = reg(Ops[1 + A]);
      ln("      ArgK[" + i2s(A) + "] = " + R + ".K;");
      ln("      ArgI[" + i2s(A) + "] = " + R + ".I[L];");
      ln("      ArgR[" + i2s(A) + "] = " + R + ".R[L];");
    }
    ln("      int64_t RetI = 0; double RetR = 0.0;");
    ln("      sfSync();");
    ln("      Ctx->CallLane(Ctx->Host, " + i2s(I.B) + ", L, " + Loc +
       ", " + i2s(N) + ", ArgK, ArgI, ArgR, &RetI, &RetR);");
    if (RetReal)
      ln("      O.R[L] = RetR;");
    else
      ln("      O.I[L] = RetI;");
    ln("    }");
    break;
  }
  case Opcode::Jmp:
    ln("    goto L" + i2s(I.D) + ";");
    break;
  case Opcode::UBrFalse:
    ln("    if (sfUniform(" + reg(I.A) + ", " + msg(I.B) + ", " + Loc +
       ") == 0)");
    ln("      goto L" + i2s(I.D) + ";");
    break;
  case Opcode::ChargeOp:
    ln("    sfCharge(Costs[" + i2s(I.A) + "], " + Loc + ");");
    break;
  case Opcode::LoopIter:
    ln("    sfLoopIter(" + Loc + ");");
    break;
  case Opcode::TrapMsg:
    ln("    sfTrap(" + i2s(I.A) + ", " + Loc + ", " + msg(I.B) +
       ", nullptr, 0);");
    break;
  case Opcode::Halt:
    ln("    sfSync();");
    ln("    return 0;");
    break;
  case Opcode::CtlFromReg:
    ln("    Ctl[" + i2s(I.A) + "] = sfUniform(" + reg(I.B) + ", " +
       msg(I.C) + ", " + Loc + ");");
    break;
  case Opcode::CtlImm:
    ln("    Ctl[" + i2s(I.A) + "] = SfIntPool[" + i2s(I.B) + "];");
    break;
  case Opcode::CheckStep:
    ln("    if (Ctl[" + i2s(I.A) + "] == 0)");
    ln("      sfTrap(" + i2s(trapCode(interp::TrapKind::InvalidProgram)) +
       ", " + Loc + ", " + msg(I.B) + ", nullptr, 0);");
    break;
  case Opcode::CtlInc:
    ln("    Ctl[" + i2s(I.A) + "] += 1;");
    break;
  case Opcode::TripRec:
    ln("    Ctx->TripRec(Ctx->Host, " + i2s(I.B) + ", Ctl[" + i2s(I.A) +
       "]);");
    break;
  case Opcode::DoTest:
    ln("    if (!(Ctl[" + i2s(I.A + 2) + "] > 0 ? Ctl[" + i2s(I.A) +
       "] <= Ctl[" + i2s(I.A + 1) + "] : Ctl[" + i2s(I.A) + "] >= Ctl[" +
       i2s(I.A + 1) + "]))");
    ln("      goto L" + i2s(I.D) + ";");
    break;
  case Opcode::DoStep:
    ln("    Ctl[" + i2s(I.A) + "] += Ctl[" + i2s(I.A + 2) + "];");
    break;
  case Opcode::FaBegin: {
    const SlotFacts &S = Slots[static_cast<size_t>(I.A)];
    if (S.Width != Lanes) {
      ln("    sfTrap(" + i2s(trapCode(interp::TrapKind::InvalidProgram)) +
         ", " + Loc + ", \"FORALL index '" + escapeString(S.Name) +
         "' must be a replicated variable\", nullptr, 0);");
      break;
    }
    ln("    if (Ctl[" + i2s(I.B + 1) + "] < Ctl[" + i2s(I.B) + "])");
    ln("      goto L" + i2s(I.D) + ";");
    ln("    Ctl[" + i2s(I.B + 2) + "] = 0;");
    ln("    Ctl[" + i2s(I.B + 3) + "] = sfLayers(Ctl[" + i2s(I.B + 1) +
       "]);");
    break;
  }
  case Opcode::FaLayerTest:
    ln("    if (Ctl[" + i2s(I.A + 2) + "] >= Ctl[" + i2s(I.A + 3) + "])");
    ln("      goto L" + i2s(I.D) + ";");
    break;
  case Opcode::FaLayerMask: {
    ln("    int64_t Layer = Ctl[" + i2s(I.B + 2) + "];");
    ln("    int64_t Lo = Ctl[" + i2s(I.B) + "], Hi = Ctl[" +
       i2s(I.B + 1) + "];");
    ln("    int64_t Chunk = Ctl[" + i2s(I.B + 3) + "]; (void)Chunk;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    if (Cyclic)
      ln("      int64_t E = Layer * SF_LANES + L + 1;");
    else
      ln("      int64_t E = L * Chunk + Layer + 1;");
    ln("      SL[" + i2s(I.A) + "].I[L] = E;");
    ln("      CondM[L] = (E >= Lo && E <= Hi) ? 1 : 0;");
    ln("    }");
    ln("    sfCharge(" + costExpr(CostKind::LogicOp) + ", " + Loc + ");");
    ln("    sfPush(CondM);");
    break;
  }
  case Opcode::WherePush:
    ln("    const SfReg &V = " + reg(I.A) + ";");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) CondM[L] = V.I[L] != "
       "0 ? 1 : 0;");
    ln("    sfCharge(" + costExpr(CostKind::LogicOp) + ", " + Loc + ");");
    ln("    sfPush(CondM);");
    break;
  case Opcode::WhereFlip:
    ln("    sfCharge(" + costExpr(CostKind::LogicOp) + ", " + Loc + ");");
    ln("    sfFlip();");
    break;
  case Opcode::MaskPop:
    ln("    sfPop();");
    break;
  default:
    // Scalar-only opcodes (BrFalse, DoBegin, DoEnd, FaTest) never
    // appear in Mode::Simd lowerings; seeing one means the program is
    // not emittable.
    Failed = true;
    break;
  }
  ln("  }");
}

std::string Emitter::emit() {
  if (EP.M != Mode::Simd || Lanes < 1)
    return {};
  if (!collectSlots())
    return {};
  // Mask levels: the base level plus one per lexical push site (each
  // site pops before it re-enters, so lexical count bounds dynamic
  // depth), plus slack.
  int64_t Pushes = 0;
  int32_t MaxArgs = 1;
  for (const Instr &I : EP.Code) {
    if (I.Op == Opcode::WherePush || I.Op == Opcode::FaLayerMask)
      ++Pushes;
    if (I.Op == Opcode::CallOp)
      MaxArgs = std::max(MaxArgs, EP.Extra[static_cast<size_t>(I.C)]);
  }
  prologue(Pushes + 2, MaxArgs);
  for (size_t PC = 0; PC < EP.Code.size(); ++PC) {
    emitInstr(PC, EP.Code[PC]);
    if (Failed)
      return {};
  }
  // Unreachable tail (every path returns through Halt or a trap).
  ln("  return 0;");
  ln("}");
  return std::move(Out);
}

} // namespace

std::string codegen::emitCpp(const Program &EP, const ir::Program &IRP,
                             const machine::MachineConfig &Machine) {
  return Emitter(EP, IRP, Machine).emit();
}
