//===- tests/bench/BenchReporterTest.cpp -----------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace simdflat;
using namespace simdflat::bench;

namespace {

/// Builds an argv the reporter can consume (it keeps pointers into the
/// strings, so they must outlive the reporter).
struct Argv {
  std::vector<std::string> Store;
  std::vector<char *> Ptrs;
  explicit Argv(std::initializer_list<const char *> Args) {
    for (const char *A : Args)
      Store.emplace_back(A);
    for (std::string &S : Store)
      Ptrs.push_back(S.data());
  }
  int argc() { return static_cast<int>(Ptrs.size()); }
  char **argv() { return Ptrs.data(); }
};

TEST(BenchReporter, ParsesOwnFlags) {
  Argv A({"bench", "--smoke", "--engine=tree", "--json=/dev/null"});
  BenchReporter Rep("t", A.argc(), A.argv());
  EXPECT_TRUE(Rep.smoke());
  EXPECT_EQ(Rep.engine(), interp::Engine::Tree);
}

TEST(BenchReporter, UnknownFlagExitsTwo) {
  // Nothing is handed back to the bench any more: a stray flag, a known
  // flag with a suffix, or a bad value is a usage error, never a silent
  // full-grid run.
  for (const char *Bad : {"--benchmark_filter=x", "--smokey",
                          "--engine_typo=native", "--jsonx=/dev/null",
                          "--engine=warp", "--json="}) {
    EXPECT_EXIT(
        {
          Argv A({"bench", "--smoke", Bad});
          BenchReporter Rep("t", A.argc(), A.argv());
        },
        testing::ExitedWithCode(2), "")
        << Bad;
  }
}

TEST(BenchReporter, SmokeSchemaDocument) {
  Argv A({"bench", "--smoke"});
  BenchReporter Rep("mybench", A.argc(), A.argv());
  Rep.meta("grid", int64_t{64});
  Rep.meta("kernel", "EXAMPLE");
  Rep.record("case1", "steps", 100.0, "steps");
  Rep.record("case1", "utilization", 0.75, "frac", /*Gate=*/true,
             Direction::HigherIsBetter);
  Rep.record("case1", "wall_seconds", 0.01, "s", /*Gate=*/false);
  Rep.setPassed(true);

  json::Value Doc = Rep.toJson();
  EXPECT_EQ(Doc.get("schema")->asString(), "simdflat-bench-v1");
  EXPECT_EQ(Doc.get("bench")->asString(), "mybench");
  EXPECT_TRUE(Doc.get("smoke")->asBool());
  EXPECT_TRUE(Doc.get("passed")->asBool());
  EXPECT_EQ(Doc.get("meta")->get("grid")->asInt(), 64);
  EXPECT_EQ(Doc.get("meta")->get("kernel")->asString(), "EXAMPLE");
  ASSERT_EQ(Doc.get("metrics")->size(), 3u);
  const json::Value &M0 = Doc.get("metrics")->at(0);
  EXPECT_EQ(M0.get("case")->asString(), "case1");
  EXPECT_EQ(M0.get("metric")->asString(), "steps");
  EXPECT_DOUBLE_EQ(M0.get("value")->asDouble(), 100.0);
  EXPECT_TRUE(M0.get("gate")->asBool());
  EXPECT_EQ(M0.get("better")->asString(), "lower");
  const json::Value &M1 = Doc.get("metrics")->at(1);
  EXPECT_EQ(M1.get("better")->asString(), "higher");
  const json::Value &M2 = Doc.get("metrics")->at(2);
  EXPECT_FALSE(M2.get("gate")->asBool());
  // The dumped text parses back.
  EXPECT_TRUE(json::Value::parse(Doc.dump(2)).ok());
}

TEST(BenchReporter, RecordRunStatsExpandsStandardSet) {
  Argv A({"bench"});
  BenchReporter Rep("t", A.argc(), A.argv());
  interp::RunStats S;
  S.WorkSteps = 10;
  S.WorkActiveLanes = 30;
  S.WorkTotalLanes = 40;
  Rep.recordRunStats("c", S);
  bool SawSteps = false, SawUtil = false;
  for (const BenchMetric &M : Rep.metrics()) {
    if (M.Metric == "work_steps") {
      SawSteps = true;
      EXPECT_DOUBLE_EQ(M.Value, 10.0);
      EXPECT_TRUE(M.Gate);
      EXPECT_EQ(M.Better, Direction::LowerIsBetter);
    }
    if (M.Metric == "work_utilization") {
      SawUtil = true;
      EXPECT_DOUBLE_EQ(M.Value, 0.75);
      EXPECT_EQ(M.Better, Direction::HigherIsBetter);
    }
  }
  EXPECT_TRUE(SawSteps);
  EXPECT_TRUE(SawUtil);
}

TEST(BenchReporter, FinishWritesFileAndPropagatesExitCode) {
  std::string Path = testing::TempDir() + "/simdflat_benchrep_test.json";
  Argv A({"bench", std::string("--json=" + Path).c_str()});
  BenchReporter Rep("t", A.argc(), A.argv());
  Rep.record("c", "m", 1.0);
  EXPECT_EQ(Rep.finish(0), 0);
  auto Doc = json::parseFile(Path);
  ASSERT_TRUE(Doc.ok()) << Doc.error().render();
  EXPECT_EQ(Doc->get("bench")->asString(), "t");
  // total_wall_seconds rides along ungated.
  bool SawWall = false;
  for (size_t I = 0; I < Doc->get("metrics")->size(); ++I) {
    const json::Value &M = Doc->get("metrics")->at(I);
    if (M.get("metric")->asString() == "total_wall_seconds") {
      SawWall = true;
      EXPECT_FALSE(M.get("gate")->asBool());
    }
  }
  EXPECT_TRUE(SawWall);
  std::remove(Path.c_str());
}

TEST(BenchReporter, FinishFailureExitCodeClearsPassed) {
  Argv A({"bench"});
  BenchReporter Rep("t", A.argc(), A.argv());
  EXPECT_EQ(Rep.finish(1), 1);
  EXPECT_FALSE(Rep.toJson().get("passed")->asBool());
}

TEST(BenchReporter, TimeMedianSmokeClampsRepeats) {
  Argv A({"bench", "--smoke"});
  BenchReporter Rep("t", A.argc(), A.argv());
  int Calls = 0;
  double Sec = Rep.timeSecondsMedian([&] { ++Calls; }, /*Warmup=*/3,
                                     /*Repeats=*/9);
  // Smoke mode: at most one warmup plus exactly one timed call.
  EXPECT_EQ(Calls, 2);
  EXPECT_GE(Sec, 0.0);
}

} // namespace
