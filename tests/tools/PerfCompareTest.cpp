//===- tests/tools/PerfCompareTest.cpp -------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/perf_compare/PerfCompare.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace simdflat;
using namespace simdflat::perfcompare;

namespace {

/// A minimal simdflat-bench-v1 document with one metric per entry of
/// \p Metrics: (case, metric, value, gate, lowerIsBetter).
struct Spec {
  const char *Case;
  const char *Metric;
  double Value;
  bool Gate = true;
  bool Lower = true;
};

json::Value makeDoc(std::initializer_list<Spec> Metrics) {
  json::Value Doc = json::Value::object();
  Doc.set("schema", "simdflat-bench-v1");
  Doc.set("bench", "unit");
  json::Value Arr = json::Value::array();
  for (const Spec &S : Metrics) {
    json::Value M = json::Value::object();
    M.set("case", S.Case);
    M.set("metric", S.Metric);
    M.set("value", S.Value);
    M.set("gate", S.Gate);
    M.set("better", S.Lower ? "lower" : "higher");
    Arr.push(std::move(M));
  }
  Doc.set("metrics", std::move(Arr));
  return Doc;
}

TEST(PerfCompare, IdenticalRunsPass) {
  json::Value Doc = makeDoc({{"a", "steps", 100.0}});
  auto R = compareBenchJson(Doc, Doc);
  ASSERT_TRUE(R.ok()) << R.error().render();
  EXPECT_TRUE(R->ok());
  EXPECT_EQ(R->regressionCount(), 0);
  ASSERT_EQ(R->Deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(R->Deltas[0].RelDelta, 0.0);
}

TEST(PerfCompare, RegressionBeyondThresholdFails) {
  auto R = compareBenchJson(makeDoc({{"a", "steps", 100.0}}),
                            makeDoc({{"a", "steps", 120.0}}));
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->regressionCount(), 1);
  EXPECT_TRUE(R->Deltas[0].Regressed);
  EXPECT_NEAR(R->Deltas[0].RelDelta, 0.2, 1e-12);
}

TEST(PerfCompare, WithinThresholdPasses) {
  auto R = compareBenchJson(makeDoc({{"a", "steps", 100.0}}),
                            makeDoc({{"a", "steps", 109.0}}));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->ok());
  EXPECT_FALSE(R->Deltas[0].Regressed);
  EXPECT_FALSE(R->Deltas[0].Improved);
}

TEST(PerfCompare, ImprovementNeverFails) {
  auto R = compareBenchJson(makeDoc({{"a", "steps", 100.0}}),
                            makeDoc({{"a", "steps", 50.0}}));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->ok());
  EXPECT_TRUE(R->Deltas[0].Improved);
}

TEST(PerfCompare, HigherIsBetterDirectionFlips) {
  // Utilization dropping 20% is a regression...
  auto R = compareBenchJson(
      makeDoc({{"a", "utilization", 0.9, true, false}}),
      makeDoc({{"a", "utilization", 0.7, true, false}}));
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R->ok());
  // ...and rising 20% is an improvement.
  auto R2 = compareBenchJson(
      makeDoc({{"a", "utilization", 0.7, true, false}}),
      makeDoc({{"a", "utilization", 0.9, true, false}}));
  ASSERT_TRUE(R2.ok());
  EXPECT_TRUE(R2->ok());
  EXPECT_TRUE(R2->Deltas[0].Improved);
}

TEST(PerfCompare, UngatedMetricsNeverRegress) {
  auto R = compareBenchJson(
      makeDoc({{"a", "wall_seconds", 1.0, false}}),
      makeDoc({{"a", "wall_seconds", 10.0, false}}));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->ok());
  EXPECT_FALSE(R->Deltas[0].Regressed);
}

TEST(PerfCompare, TripHistogramCountersAreInformational) {
  // A workload re-seed can shift the trip profile arbitrarily; the
  // histogram counters must never fail the gate, even when a producer
  // (old bench binary, hand-edited baseline) marked them gated.
  auto R = compareBenchJson(
      makeDoc({{"a", "trip_hist_samples", 64.0, /*Gate=*/true},
               {"a", "trip_hist_mean", 6.0, /*Gate=*/true},
               {"a", "trip_hist_exact_6", 64.0, /*Gate=*/true},
               {"a", "work_steps", 100.0}}),
      makeDoc({{"a", "trip_hist_samples", 640.0, /*Gate=*/true},
               {"a", "trip_hist_mean", 60.0, /*Gate=*/true},
               {"a", "trip_hist_exact_6", 0.0, /*Gate=*/true},
               {"a", "work_steps", 100.0}}));
  ASSERT_TRUE(R.ok()) << R.error().render();
  EXPECT_TRUE(R->ok());
  EXPECT_EQ(R->regressionCount(), 0);
  for (const MetricDelta &D : R->Deltas)
    EXPECT_FALSE(D.Regressed) << D.Case << "/" << D.Metric;
  // And a dropped histogram counter is not a "gated metric dropped"
  // warning either: the gate flag was stripped on both sides.
  auto R2 = compareBenchJson(
      makeDoc({{"a", "trip_hist_log2_2", 8.0, /*Gate=*/true},
               {"a", "work_steps", 100.0}}),
      makeDoc({{"a", "work_steps", 100.0}}));
  ASSERT_TRUE(R2.ok());
  EXPECT_TRUE(R2->MissingInNew.empty());
}

TEST(PerfCompare, CustomThreshold) {
  CompareOptions Opts;
  Opts.Threshold = 0.5;
  auto R = compareBenchJson(makeDoc({{"a", "steps", 100.0}}),
                            makeDoc({{"a", "steps", 140.0}}), Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->ok());
}

TEST(PerfCompare, ZeroBaselineBreach) {
  // 0 -> nonzero on a lower-is-better gate must regress even though the
  // ratio is undefined.
  auto R = compareBenchJson(makeDoc({{"a", "steps", 0.0}}),
                            makeDoc({{"a", "steps", 5.0}}));
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R->ok());
  // 0 -> 0 is clean.
  auto R2 = compareBenchJson(makeDoc({{"a", "steps", 0.0}}),
                             makeDoc({{"a", "steps", 0.0}}));
  ASSERT_TRUE(R2.ok());
  EXPECT_TRUE(R2->ok());
}

TEST(PerfCompare, MissingMetricsReported) {
  auto R = compareBenchJson(
      makeDoc({{"a", "steps", 1.0}, {"b", "steps", 2.0}}),
      makeDoc({{"a", "steps", 1.0}, {"c", "steps", 3.0}}));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->ok()); // warnings, not failures
  ASSERT_EQ(R->MissingInNew.size(), 1u);
  EXPECT_EQ(R->MissingInNew[0], "b/steps");
  ASSERT_EQ(R->MissingInBase.size(), 1u);
  EXPECT_EQ(R->MissingInBase[0], "c/steps");
}

TEST(PerfCompare, NewCounterFamilyInTheNewRunIsInformational) {
  // The exact shape of a PR that teaches an existing bench new
  // counters: the new run records a gated family (fairness/*) the
  // baseline has never heard of. The unknown metrics must surface as
  // notes - never compared, never regressed - while the shared metric
  // stays gated, so landing new counters and their baseline update in
  // one PR keeps the gate green in both orders.
  auto R = compareBenchJson(
      makeDoc({{"cache", "served", 16.0}}),
      makeDoc({{"cache", "served", 16.0},
               {"fairness", "victim_shed", 0.0},
               {"fairness", "hot_shed", 76.0, true, false}}));
  ASSERT_TRUE(R.ok()) << R.error().render();
  EXPECT_TRUE(R->ok()) << "a new counter family tripped the gate";
  EXPECT_EQ(R->regressionCount(), 0);
  ASSERT_EQ(R->Deltas.size(), 1u) << "only the shared metric compares";
  EXPECT_EQ(R->Deltas[0].Metric, "served");
  ASSERT_EQ(R->MissingInBase.size(), 2u);
  EXPECT_EQ(R->MissingInBase[0], "fairness/hot_shed");
  EXPECT_EQ(R->MissingInBase[1], "fairness/victim_shed");
  std::string Text = R->render({});
  EXPECT_NE(Text.find("new metric with no baseline"), std::string::npos);
  EXPECT_NE(Text.find("OK"), std::string::npos);
}

TEST(PerfCompare, SchemaAndNameValidation) {
  json::Value NoSchema = json::Value::object();
  NoSchema.set("metrics", json::Value::array());
  EXPECT_FALSE(compareBenchJson(NoSchema, NoSchema).ok());

  json::Value Other = makeDoc({});
  Other.set("bench", "different");
  EXPECT_FALSE(compareBenchJson(makeDoc({}), Other).ok());
}

/// Stamps meta.engine = \p Eng onto a copy of \p Doc.
json::Value withEngine(json::Value Doc, const char *Eng) {
  json::Value Meta = json::Value::object();
  Meta.set("engine", Eng);
  Doc.set("meta", std::move(Meta));
  return Doc;
}

TEST(PerfCompare, EngineTagMatrixRefusesAnyCrossEngineDiff) {
  // The cross-engine refusal is generic over the tag value: every
  // off-diagonal pair of the three-engine matrix refuses (a native
  // baseline diffs only against a native run), every diagonal pair
  // compares normally.
  const char *Tags[] = {"tree", "bytecode", "native"};
  for (const char *BaseEng : Tags) {
    for (const char *NewEng : Tags) {
      auto R = compareBenchJson(
          withEngine(makeDoc({{"a", "steps", 100.0}}), BaseEng),
          withEngine(makeDoc({{"a", "steps", 100.0}}), NewEng));
      if (std::string(BaseEng) == NewEng) {
        ASSERT_TRUE(R.ok()) << BaseEng << " vs " << NewEng << ": "
                            << R.error().render();
        EXPECT_TRUE(R->ok());
      } else {
        ASSERT_FALSE(R.ok()) << BaseEng << " vs " << NewEng
                             << " must refuse";
        EXPECT_NE(R.error().render().find(BaseEng), std::string::npos);
        EXPECT_NE(R.error().render().find(NewEng), std::string::npos);
      }
    }
  }
}

TEST(PerfCompare, UntaggedDocumentComparesWithAnyEngine) {
  // Seed baselines predate the engine tag; they stay comparable against
  // every engine rather than bricking the gate.
  for (const char *Eng : {"tree", "bytecode", "native"}) {
    auto Tagged = withEngine(makeDoc({{"a", "steps", 100.0}}), Eng);
    auto Plain = makeDoc({{"a", "steps", 100.0}});
    EXPECT_TRUE(compareBenchJson(Plain, Tagged).ok()) << Eng;
    EXPECT_TRUE(compareBenchJson(Tagged, Plain).ok()) << Eng;
  }
}

TEST(PerfCompare, RenderMentionsVerdict) {
  auto R = compareBenchJson(makeDoc({{"a", "steps", 100.0}}),
                            makeDoc({{"a", "steps", 200.0}}));
  ASSERT_TRUE(R.ok());
  std::string Text = R->render({});
  EXPECT_NE(Text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(Text.find("FAIL"), std::string::npos);
}

TEST(PerfCompare, FileApiRejectsMissingFile) {
  EXPECT_FALSE(
      compareBenchFiles("/nonexistent/a.json", "/nonexistent/b.json")
          .ok());
}

/// Two fresh sibling directories under the test temp dir, wiped on
/// construction so reruns start clean.
struct DirPair {
  std::filesystem::path Base, New;
  explicit DirPair(const std::string &Tag) {
    std::filesystem::path Root =
        std::filesystem::path(testing::TempDir()) / ("perfcmp_" + Tag);
    std::filesystem::remove_all(Root);
    Base = Root / "base";
    New = Root / "new";
    std::filesystem::create_directories(Base);
    std::filesystem::create_directories(New);
  }
  void writeBench(const std::filesystem::path &Dir,
                  const std::string &File, const char *Bench,
                  double Steps) {
    json::Value Doc = makeDoc({{"a", "steps", Steps}});
    Doc.set("bench", Bench);
    ASSERT_TRUE(json::writeFile((Dir / File).string(), Doc));
  }
};

TEST(PerfCompare, DirCompareGatesCommonBenches) {
  DirPair D("gate");
  D.writeBench(D.Base, "BENCH_x.json", "x", 100.0);
  D.writeBench(D.New, "BENCH_x.json", "x", 150.0);
  auto R = compareBenchDirs(D.Base.string(), D.New.string());
  ASSERT_TRUE(R.ok()) << R.error().render();
  EXPECT_FALSE(R->ok()); // a real regression still fails
  ASSERT_EQ(R->Compared.size(), 1u);
  EXPECT_EQ(R->Compared[0].first, "BENCH_x.json");
  EXPECT_EQ(R->regressionCount(), 1);
}

TEST(PerfCompare, DirCompareAddedAndRemovedAreInformational) {
  // A bench introduced (or renamed - one removal plus one addition) in
  // the same PR must keep the gate green.
  DirPair D("addrm");
  D.writeBench(D.Base, "BENCH_same.json", "same", 10.0);
  D.writeBench(D.New, "BENCH_same.json", "same", 10.0);
  D.writeBench(D.Base, "BENCH_old.json", "old", 5.0);
  D.writeBench(D.New, "BENCH_fresh.json", "fresh", 7.0);
  auto R = compareBenchDirs(D.Base.string(), D.New.string());
  ASSERT_TRUE(R.ok()) << R.error().render();
  EXPECT_TRUE(R->ok());
  ASSERT_EQ(R->OnlyInBase.size(), 1u);
  EXPECT_EQ(R->OnlyInBase[0], "BENCH_old.json");
  ASSERT_EQ(R->OnlyInNew.size(), 1u);
  EXPECT_EQ(R->OnlyInNew[0], "BENCH_fresh.json");
  EXPECT_EQ(R->Compared.size(), 1u);
  std::string Text = R->render({});
  EXPECT_NE(Text.find("bench added"), std::string::npos);
  EXPECT_NE(Text.find("bench removed"), std::string::npos);
  EXPECT_NE(Text.find("OK"), std::string::npos);
}

TEST(PerfCompare, DirCompareNewBenchFamilyDoesNotTripTheGate) {
  // The exact shape of landing a serving benchmark: the PR adds
  // BENCH_serve.json with no baseline counterpart. The new family must
  // be reported as informational while existing families stay gated.
  DirPair D("newfam");
  D.writeBench(D.Base, "BENCH_example.json", "example", 100.0);
  D.writeBench(D.New, "BENCH_example.json", "example", 100.0);
  D.writeBench(D.New, "BENCH_serve.json", "serve", 1234.0);
  auto R = compareBenchDirs(D.Base.string(), D.New.string());
  ASSERT_TRUE(R.ok()) << R.error().render();
  EXPECT_TRUE(R->ok()) << "a brand-new bench family tripped the gate";
  EXPECT_EQ(R->regressionCount(), 0);
  ASSERT_EQ(R->OnlyInNew.size(), 1u);
  EXPECT_EQ(R->OnlyInNew[0], "BENCH_serve.json");
  EXPECT_TRUE(R->OnlyInBase.empty());
  std::string Text = R->render({});
  EXPECT_NE(Text.find("bench added"), std::string::npos);
  EXPECT_NE(Text.find("OK"), std::string::npos);
}

TEST(PerfCompare, DirCompareRenameInPlaceIsInformational) {
  // Same filename, different embedded bench name: comparing the old
  // metrics against the new bench's would be meaningless, so the pair
  // is reported as renamed instead of erroring.
  DirPair D("rename");
  D.writeBench(D.Base, "BENCH_k.json", "kernel_v1", 10.0);
  D.writeBench(D.New, "BENCH_k.json", "kernel_v2", 99.0);
  auto R = compareBenchDirs(D.Base.string(), D.New.string());
  ASSERT_TRUE(R.ok()) << R.error().render();
  EXPECT_TRUE(R->ok());
  EXPECT_TRUE(R->Compared.empty());
  ASSERT_EQ(R->Renamed.size(), 1u);
  EXPECT_NE(R->Renamed[0].find("kernel_v1"), std::string::npos);
  EXPECT_NE(R->Renamed[0].find("kernel_v2"), std::string::npos);
  EXPECT_NE(R->render({}).find("renamed"), std::string::npos);
}

TEST(PerfCompare, DirCompareMalformedFileIsStillAnError) {
  DirPair D("bad");
  D.writeBench(D.Base, "BENCH_x.json", "x", 1.0);
  std::ofstream((D.New / "BENCH_x.json").string()) << "{not json";
  EXPECT_FALSE(
      compareBenchDirs(D.Base.string(), D.New.string()).ok());
  EXPECT_FALSE(compareBenchDirs("/nonexistent/base", D.New.string())
                   .ok());
}

} // namespace
