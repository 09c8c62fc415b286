//===- perfbench/Requests.cpp ---------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Requests.h"

#include "interp/SimdInterp.h"
#include "interp/Store.h"
#include "ir/Printer.h"
#include "serve/ServeJson.h"
#include "support/Random.h"
#include "transform/Pipeline.h"
#include "workloads/Mandelbrot.h"
#include "workloads/PaperKernels.h"
#include "workloads/RegionGrow.h"
#include "workloads/SpMV.h"
#include "workloads/TripCounts.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

using namespace simdbench;
using namespace simdflat;

namespace {

struct Inputs {
  std::map<std::string, int64_t> Ints;
  std::map<std::string, std::vector<int64_t>> IntArrays;
  std::map<std::string, std::vector<double>> RealArrays;
};

/// The request fields a generated request sets.
struct Shape {
  std::string Source;
  int64_t Lanes = 4;
  bool MinOne = false;
  bool WantArrays = false;
};

std::string requestLine(uint64_t Id, const Shape &S, const Inputs &In) {
  json::Value O = json::Value::object();
  O.set("id", static_cast<int64_t>(Id));
  O.set("source", S.Source);
  json::Value Ints = json::Value::object();
  for (const auto &[Name, V] : In.Ints)
    Ints.set(Name, V);
  O.set("ints", std::move(Ints));
  json::Value IA = json::Value::object();
  for (const auto &[Name, Vals] : In.IntArrays) {
    json::Value A = json::Value::array();
    for (int64_t V : Vals)
      A.push(V);
    IA.set(Name, std::move(A));
  }
  O.set("int_arrays", std::move(IA));
  json::Value RA = json::Value::object();
  for (const auto &[Name, Vals] : In.RealArrays) {
    json::Value A = json::Value::array();
    for (double V : Vals)
      A.push(V);
    RA.set(Name, std::move(A));
  }
  O.set("real_arrays", std::move(RA));
  O.set("lanes", S.Lanes);
  O.set("min_one", S.MinOne);
  O.set("want_arrays", S.WantArrays);
  return serve::toLine(O);
}

/// The machine serve::Server builds for a request of \p Lanes lanes.
machine::MachineConfig serverMachine(int64_t Lanes) {
  machine::MachineConfig M;
  M.Name = "flattend";
  M.Processors = Lanes;
  M.Gran = Lanes;
  M.DataLayout = machine::Layout::Cyclic;
  return M;
}

/// A tree-engine run: the independent reference engine.
struct TreeRun {
  std::optional<interp::Trap> T;
  interp::RunStats Stats;
  /// Int arrays the source program declares (what want_arrays returns).
  std::map<std::string, std::vector<int64_t>> IntArrays;
  std::vector<double> Y;
};

bool treeRun(const ir::Program &Src, bool Flatten, bool MinOne, int64_t Lanes,
             const Inputs &In, const char *RealOut, TreeRun &Out,
             std::string &Err) {
  transform::PipelineOptions PO;
  PO.Flatten = Flatten;
  PO.AssumeInnerMinOneTrip = MinOne;
  auto C = transform::compileForSimdExec(Src, PO);
  if (!C) {
    Err = "reference pipeline: " + C.error().render();
    return false;
  }
  interp::RunOptions RO;
  RO.Eng = interp::Engine::Tree;
  interp::SimdInterp I(C->Prog, serverMachine(Lanes), nullptr, RO);
  I.setCompiled(C->Code);
  interp::DataStore &S = I.store();
  for (const auto &[Name, V] : In.Ints)
    S.setInt(Name, V);
  for (const auto &[Name, V] : In.IntArrays)
    S.setIntArray(Name, V);
  for (const auto &[Name, V] : In.RealArrays)
    S.setRealArray(Name, V);
  auto R = I.run();
  if (!R) {
    Out.T = R.error();
    return true;
  }
  Out.Stats = R->Stats;
  for (const ir::VarDecl &D : Src.vars())
    if (D.isArray() && D.Kind == ir::ScalarKind::Int &&
        C->Prog.lookupVar(D.Name))
      Out.IntArrays.emplace(D.Name, S.getIntArray(D.Name));
  if (RealOut)
    Out.Y = S.getRealArray(RealOut);
  return true;
}

/// Renames the program so its canonical key (the printed program) is
/// unique to \p Name.
std::string renamed(std::string Src, const std::string &Name) {
  size_t Eol = Src.find('\n');
  return "PROGRAM " + Name + Src.substr(Eol);
}

// ---- Mandelbrot --------------------------------------------------------

struct MandelKernel {
  workloads::MandelbrotSpec Spec;
  std::string Source;
  int64_t Lanes = 64;
};

/// The printer renders real literals with %g, so the viewport is chosen
/// with dyadic steps of at most six significant digits: the program the
/// server parses then computes exactly what mandelbrotIterations does.
MandelKernel mandelKernel(int64_t W, int64_t H, int64_t Shift, int64_t Lanes,
                          const std::string &Name) {
  MandelKernel K;
  K.Spec.Width = W;
  K.Spec.Height = H;
  K.Spec.XMin = -2.0 - 0.125 * static_cast<double>(Shift);
  K.Spec.XMax = K.Spec.XMin + 2.5;
  K.Spec.YMin = -1.125;
  K.Spec.YMax = 1.125;
  K.Source = ir::printProgram(workloads::mandelbrotF77(K.Spec));
  if (!Name.empty())
    K.Source = renamed(K.Source, Name);
  K.Lanes = Lanes;
  return K;
}

Item mandelItem(uint64_t Id, const MandelKernel &K, int64_t MaxIter) {
  workloads::MandelbrotSpec Spec = K.Spec;
  Spec.MaxIter = MaxIter;
  Inputs In;
  In.Ints["maxIter"] = MaxIter;
  Item I;
  I.Id = Id;
  I.Kernel = "mandelbrot";
  I.WorkTarget = "tmp";
  I.Line = requestLine(Id, {K.Source, K.Lanes, true, true}, In);
  I.Want.IntArrays["IT"] = workloads::mandelbrotIterations(Spec);
  return I;
}

// ---- Region growing ----------------------------------------------------

struct RegionKernel {
  int64_t Image = 64;
  int64_t Regions = 16;
  std::string Source;
  int64_t Lanes = 16;
};

RegionKernel regionKernel(int64_t Image, int64_t Regions, int64_t Lanes,
                          const std::string &Name) {
  RegionKernel K;
  K.Image = Image;
  K.Regions = Regions;
  K.Source = ir::printProgram(workloads::regionGrowF77(Regions, 0));
  if (!Name.empty())
    K.Source = renamed(K.Source, Name);
  K.Lanes = Lanes;
  return K;
}

Item regionItem(uint64_t Id, const RegionKernel &K, uint64_t DataSeed) {
  workloads::RegionGrowSpec Spec;
  Spec.Width = Spec.Height = K.Image;
  Spec.NumRegions = K.Regions;
  Spec.Seed = DataSeed;
  std::vector<int64_t> Sizes = workloads::regionSizes(Spec);
  Inputs In;
  In.Ints["nRegions"] = K.Regions;
  In.IntArrays["SIZE"] = Sizes;
  std::vector<int64_t> Grown;
  for (int64_t S : Sizes)
    Grown.push_back(S * (S + 1) / 2);
  Item I;
  I.Id = Id;
  I.Kernel = "region_grow";
  I.WorkTarget = "GROWN";
  I.Line = requestLine(Id, {K.Source, K.Lanes, true, true}, In);
  I.Want.IntArrays["SIZE"] = std::move(Sizes);
  I.Want.IntArrays["GROWN"] = std::move(Grown);
  return I;
}

// ---- SpMV ----------------------------------------------------------------

struct SpmvKernel {
  int64_t Rows = 64;
  int64_t MeanNnz = 8;
  int64_t MaxNnz = 0;
  ir::Program Prog;
  std::string Source;
  int64_t Lanes = 64;
};

SpmvKernel spmvKernel(int64_t Rows, int64_t MeanNnz, int64_t Lanes,
                      const std::string &Name) {
  // Power-law rows average about MeanNnz entries; leave room for a
  // heavier draw (heavier matrices are redrawn, see spmvItem).
  int64_t MaxNnz = Rows * MeanNnz * 5 / 4;
  ir::Program P = workloads::spmvF77(Rows, MaxNnz);
  std::string Source = ir::printProgram(P);
  if (!Name.empty())
    Source = renamed(Source, Name);
  return {Rows, MeanNnz, MaxNnz, std::move(P), std::move(Source), Lanes};
}

bool spmvItem(uint64_t Id, const SpmvKernel &K, uint64_t DataSeed, Item &I,
              std::string &Err) {
  workloads::CsrMatrix A;
  for (uint64_t Try = 0;; ++Try) {
    workloads::SpMVSpec Spec;
    Spec.Rows = Spec.Cols = K.Rows;
    Spec.MeanRowNnz = K.MeanNnz;
    Spec.Seed = DataSeed * 131 + Try;
    A = workloads::makeSparseMatrix(Spec);
    if (A.nnz() <= K.MaxNnz)
      break;
  }
  // Values on a 1/64 grid keep the request line short; the structure,
  // which sets the run's cost, is the generator's.
  for (double &V : A.Val)
    V = std::round(V * 64.0) / 64.0;
  Rng R(DataSeed ^ 0x5eed);
  std::vector<double> X(static_cast<size_t>(K.Rows));
  for (double &V : X)
    V = static_cast<double>(R.uniformInt(-64, 64)) / 16.0;
  Inputs In;
  In.Ints["nRows"] = K.Rows;
  In.IntArrays["rowPtr"] = A.RowPtr;
  std::vector<int64_t> Col = A.Col;
  Col.resize(static_cast<size_t>(K.MaxNnz), 1);
  std::vector<double> Val = A.Val;
  Val.resize(static_cast<size_t>(K.MaxNnz), 0.0);
  In.IntArrays["col"] = std::move(Col);
  In.RealArrays["val"] = std::move(Val);
  In.RealArrays["x"] = X;

  TreeRun Ref;
  if (!treeRun(K.Prog, /*Flatten=*/true, /*MinOne=*/true, K.Lanes, In, "y",
               Ref, Err))
    return false;
  if (Ref.T) {
    Err = "spmv reference trapped: " + Ref.T->render();
    return false;
  }
  std::vector<double> Want = A.multiply(X);
  for (size_t Row = 0; Row < Want.size(); ++Row)
    if (std::abs(Ref.Y[Row] - Want[Row]) > 1e-9 * (1 + std::abs(Want[Row]))) {
      Err = "spmv reference: tree engine disagrees with CsrMatrix::multiply";
      return false;
    }
  I.Id = Id;
  I.Kernel = "spmv";
  I.WorkTarget = "y";
  I.Line = requestLine(Id, {K.Source, K.Lanes, true, false}, In);
  I.Want.Fuel = Ref.Stats.Instructions;
  I.Want.Cycles = Ref.Stats.Cycles;
  return true;
}

// ---- The Fig. 1 nest -----------------------------------------------------

struct Fig1Kernel {
  int64_t K = 8;
  int64_t M = 4;
  ir::Program Prog;
  std::string Source;
};

Fig1Kernel fig1Kernel(int64_t K, int64_t M, workloads::LoopForm Inner,
                      const std::string &Name) {
  workloads::ExampleSpec Spec;
  Spec.K = K;
  Spec.L.assign(static_cast<size_t>(K), 1);
  Spec.L[0] = M;
  ir::Program P = workloads::makeExample(Spec, Inner);
  std::string Source = renamed(ir::printProgram(P), Name);
  return {K, M, std::move(P), std::move(Source)};
}

/// One Fig. 1 request; the expected reply is a tree-engine run of the
/// unflattened program.
bool fig1Item(uint64_t Id, const Fig1Kernel &F, std::vector<int64_t> Trips,
              int64_t Lanes, Item &I, std::string &Err) {
  Inputs In;
  In.Ints["K"] = F.K;
  In.IntArrays["L"] = std::move(Trips);
  TreeRun Ref;
  if (!treeRun(F.Prog, /*Flatten=*/false, /*MinOne=*/false, Lanes, In,
               nullptr, Ref, Err))
    return false;
  I.Id = Id;
  I.Kernel = "fig1";
  I.WorkTarget = "X";
  I.Line = requestLine(Id, {F.Source, Lanes, false, true}, In);
  if (Ref.T) {
    I.Want.Out = serve::Outcome::Trapped;
    I.Want.Trap = Ref.T->Kind;
  } else {
    I.Want.IntArrays = std::move(Ref.IntArrays);
  }
  return true;
}

std::vector<int64_t> fig1Trips(Rng &R, int64_t K, int64_t M) {
  workloads::TripDist D =
      workloads::AllTripDists[R.uniformInt(0, 4)];
  int64_t Mean = std::max<int64_t>(1, M / 3);
  std::vector<int64_t> T =
      workloads::generateTripCounts(D, K, Mean, R.next());
  for (int64_t &V : T)
    V = std::clamp<int64_t>(V, 1, M);
  return T;
}

const workloads::LoopForm InnerForms[] = {workloads::LoopForm::Do,
                                          workloads::LoopForm::While,
                                          workloads::LoopForm::GotoLoop};

// ---- Workloads -------------------------------------------------------------

/// cold_native: a seeded family of the paper's nests, each request a
/// program (and so an emitted translation unit) the process has never
/// seen. Runs are kept tiny so the host compile dominates.
bool makeCold(uint64_t Seed, int Seconds, Workload &W, std::string &Err) {
  W.Eng = interp::Engine::Native;
  W.Cold = true;
  W.RoundLen = 4;
  W.Workers = 1;
  W.QueueCapacity = 4;
  Rng R(Seed);
  const int64_t LaneChoices[] = {8, 16, 32, 64};
  // (kind, lanes, extents...): the programs of one run are distinct.
  std::set<std::tuple<int, int64_t, int64_t, int64_t, int64_t>> Seen;
  // Whole rounds of the four kinds, one per 4 s of window (a round is
  // four host compiles, 6 to 14 s of CPU), so every run holds the same
  // kinds at the same lane counts, and each kernel's mean is over
  // several compiles.
  size_t N = 4 * static_cast<size_t>(std::max(1, Seconds / 4));
  for (size_t Idx = 0; Idx < N; ++Idx) {
    int Kind = static_cast<int>(Idx % 4);
    // Lanes cycle by round, so every run compiles each kind at the same
    // lane counts (they change what the host compiler unrolls, and so its
    // time); the seed varies the extents.
    int64_t Lanes = LaneChoices[(Idx / 4 + static_cast<size_t>(Kind)) % 4];
    int64_t X = 0, Y = 0, Z = 0;
    do {
      switch (Kind) {
      case 0: // Mandelbrot: 16..64 x 8..32 grid, viewport shift
        X = int64_t(16) << R.uniformInt(0, 2);
        Y = int64_t(8) << R.uniformInt(0, 2);
        Z = R.uniformInt(0, 7);
        break;
      case 1: // region growing: region count
        X = R.uniformInt(8, 96);
        break;
      case 2: // SpMV: rows
        X = 16 * R.uniformInt(2, 24);
        break;
      default: // Fig. 1: K x M
        X = R.uniformInt(4, 48);
        Y = R.uniformInt(3, 12);
        break;
      }
    } while (!Seen.insert({Kind, Lanes, X, Y, Z}).second);
    std::string Name = "COLD" + std::to_string(Idx);
    Item I;
    switch (Kind) {
    case 0:
      I = mandelItem(Idx, mandelKernel(X, Y, Z, Lanes, Name),
                     R.uniformInt(16, 48));
      break;
    case 1:
      I = regionItem(Idx, regionKernel(64, X, Lanes, Name), R.next());
      break;
    case 2:
      if (!spmvItem(Idx, spmvKernel(X, 4, Lanes, Name), R.next(), I, Err))
        return false;
      break;
    default: {
      Fig1Kernel F = fig1Kernel(X, Y, InnerForms[R.uniformInt(0, 2)], Name);
      if (!fig1Item(Idx, F, fig1Trips(R, X, Y), Lanes, I, Err))
        return false;
      break;
    }
    }
    W.Pool.push_back(std::move(I));
    W.Order.push_back(static_cast<uint32_t>(Idx));
  }
  return true;
}

/// warm_native / warm_bytecode: the three paper kernels at fixed sizes,
/// warmed during set-up; every timed request carries fresh seeded
/// inputs (Mandelbrot maxIter, region sizes, a power-law CSR matrix and
/// x), so the run is most of each reply.
bool makeWarm(uint64_t Seed, Workload &W, std::string &Err) {
  // One client: a second one doubles throughput but makes the wire's
  // share of each reply depend on how the two clients interleave. The
  // second worker only halves the set-up's three host compiles.
  W.Workers = 2;
  W.QueueCapacity = 8;
  Rng R(Seed);
  MandelKernel MK = mandelKernel(32, 24, 0, 64, "");
  RegionKernel RK = regionKernel(256, 128, 64, "");
  SpmvKernel SK = spmvKernel(512, 12, 16, "");
  const size_t PerKernel = 24;
  uint64_t Id = 0;
  for (size_t P = 0; P < PerKernel; ++P) {
    // maxIter is drawn stratified over [64, 192), so every pool spans
    // the same range of run lengths.
    int64_t MaxIter = 64 + static_cast<int64_t>(
                               (static_cast<double>(P) + R.uniformReal()) *
                               128.0 / static_cast<double>(PerKernel));
    W.Pool.push_back(mandelItem(Id++, MK, MaxIter));
    W.Pool.push_back(regionItem(Id++, RK, R.next()));
    Item S;
    if (!spmvItem(Id++, SK, R.next(), S, Err))
      return false;
    W.Pool.push_back(std::move(S));
  }
  // One request per kernel warms the cache and the JIT.
  for (size_t K = 0; K < 3; ++K)
    W.Warmup.push_back(W.Pool[K]);
  // The kernels take turns; which input each request carries is seeded.
  for (size_t I = 0; I < 16384; ++I)
    W.Order.push_back(static_cast<uint32_t>(
        I % 3 + 3 * static_cast<size_t>(
                        R.uniformInt(0, static_cast<int64_t>(PerKernel) - 1))));
  return true;
}

} // namespace

bool simdbench::makeWorkload(const std::string &Name, uint64_t Seed,
                             int Seconds, Workload &W, std::string &Err) {
  W.Name = Name;
  if (Name == "cold_native")
    return makeCold(Seed, Seconds, W, Err);
  if (Name == "warm_native" || Name == "warm_bytecode") {
    W.Eng = Name == "warm_native" ? interp::Engine::Native
                                  : interp::Engine::Bytecode;
    return makeWarm(Seed, W, Err);
  }
  Err = "unknown workload '" + Name + "'";
  return false;
}

std::string simdbench::checkReply(const Item &I, const serve::Reply &R,
                                  interp::Engine Eng) {
  if (R.Id != I.Id)
    return "reply id " + std::to_string(R.Id) + " for request " +
           std::to_string(I.Id);
  if (R.Out != I.Want.Out)
    return std::string("outcome ") + serve::outcomeName(R.Out) +
           ", expected " + serve::outcomeName(I.Want.Out) +
           (R.Error.empty() ? "" : ": " + R.Error);
  if (R.Out == serve::Outcome::Served &&
      R.Tele.Engine != interp::engineName(Eng))
    return "ran on " + R.Tele.Engine + ", expected " +
           interp::engineName(Eng);
  if (I.Want.Trap && (!R.T || R.T->Kind != *I.Want.Trap))
    return std::string("trap kind differs, expected ") +
           interp::trapKindName(*I.Want.Trap);
  for (const auto &[Name, Vals] : I.Want.IntArrays) {
    auto It = R.IntArrays.find(Name);
    if (It == R.IntArrays.end())
      return "reply lacks array " + Name;
    if (It->second != Vals)
      return "array " + Name + " differs from the reference";
  }
  if (I.Want.Fuel >= 0 && R.Tele.FuelSpent != I.Want.Fuel)
    return "fuel " + std::to_string(R.Tele.FuelSpent) + ", reference " +
           std::to_string(I.Want.Fuel);
  if (I.Want.Cycles >= 0 && R.Tele.CyclesSpent != I.Want.Cycles)
    return "cycles differ from the reference";
  return "";
}
