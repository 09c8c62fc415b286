//===- tests/interp/StatsJsonTest.cpp --------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/StatsJson.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::interp;

namespace {

TEST(StatsJson, RunStatsRoundTrip) {
  RunStats S;
  S.WorkSteps = 12;
  S.Instructions = 345;
  S.WorkActiveLanes = 20;
  S.WorkTotalLanes = 24;
  S.CommAccesses = 7;
  S.Cycles = 901.5;
  S.Seconds = 0.09015;
  json::Value V = toJson(S);
  // Serialized through text and back, every counter survives.
  auto Parsed = json::Value::parse(V.dump(2));
  ASSERT_TRUE(Parsed.ok());
  auto Back = runStatsFromJson(*Parsed);
  ASSERT_TRUE(Back.ok()) << Back.error().render();
  EXPECT_EQ(Back->WorkSteps, 12);
  EXPECT_EQ(Back->Instructions, 345);
  EXPECT_EQ(Back->WorkActiveLanes, 20);
  EXPECT_EQ(Back->WorkTotalLanes, 24);
  EXPECT_EQ(Back->CommAccesses, 7);
  EXPECT_DOUBLE_EQ(Back->Cycles, 901.5);
  EXPECT_DOUBLE_EQ(Back->Seconds, 0.09015);
  EXPECT_DOUBLE_EQ(Back->workUtilization(), S.workUtilization());
}

TEST(StatsJson, TripHistogramRoundTrip) {
  RunStats S;
  S.WorkSteps = 1;
  NestTripStats N;
  N.Name = "L0 do i";
  N.Depth = 0;
  N.Hist.record(0);
  N.Hist.record(3);
  N.Hist.record(3);
  N.Hist.record(500);
  S.TripNests.push_back(N);
  json::Value V = toJson(S);
  auto Parsed = json::Value::parse(V.dump(2));
  ASSERT_TRUE(Parsed.ok());
  auto Back = runStatsFromJson(*Parsed);
  ASSERT_TRUE(Back.ok()) << Back.error().render();
  ASSERT_EQ(Back->TripNests.size(), 1u);
  const NestTripStats &B = Back->TripNests[0];
  EXPECT_EQ(B.Name, "L0 do i");
  EXPECT_EQ(B.Depth, 0);
  EXPECT_EQ(B.Hist.Exact, N.Hist.Exact);
  EXPECT_EQ(B.Hist.Log2, N.Hist.Log2);
  EXPECT_EQ(B.Hist.Samples, 4);
  EXPECT_EQ(B.Hist.Sum, 506);
  EXPECT_EQ(B.Hist.Max, 500);
}

TEST(StatsJson, TripHistogramAbsentMeansNoNests) {
  auto V = json::Value::parse("{\"work_steps\": 3}");
  ASSERT_TRUE(V.ok());
  auto S = runStatsFromJson(*V);
  ASSERT_TRUE(S.ok());
  EXPECT_TRUE(S->TripNests.empty());
}

TEST(StatsJson, TripHistogramRejectsWrongVersion) {
  // The bucketization scheme is not self-describing, so a reader must
  // refuse blocks written under any other version rather than
  // misinterpret the buckets.
  auto V = json::Value::parse(
      "{\"trip_histogram\": {\"version\": 999, \"nests\": []}}");
  ASSERT_TRUE(V.ok());
  auto S = runStatsFromJson(*V);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().Message.find("version"), std::string::npos);
}

TEST(StatsJson, TripHistogramRejectsInconsistentCounts) {
  auto V = json::Value::parse(
      "{\"trip_histogram\": {\"version\": 1, \"nests\": ["
      "{\"name\": \"L0\", \"depth\": 0, \"samples\": 7,"
      " \"exact\": [1,0,0,0,0,0,0,0], \"log2\": {}}]}}");
  ASSERT_TRUE(V.ok());
  auto S = runStatsFromJson(*V);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().Message.find("inconsistent"), std::string::npos);
}

TEST(StatsJson, TripHistogramRejectsBadLog2Bucket) {
  auto V = json::Value::parse(
      "{\"trip_histogram\": {\"version\": 1, \"nests\": ["
      "{\"name\": \"L0\", \"depth\": 0, \"samples\": 1,"
      " \"log2\": {\"99\": 1}}]}}");
  ASSERT_TRUE(V.ok());
  auto S = runStatsFromJson(*V);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().Message.find("log2"), std::string::npos);
}

TEST(StatsJson, RunStatsMissingFieldsKeepDefaults) {
  auto V = json::Value::parse("{\"work_steps\": 3}");
  ASSERT_TRUE(V.ok());
  auto S = runStatsFromJson(*V);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S->WorkSteps, 3);
  EXPECT_EQ(S->Instructions, 0);
  EXPECT_DOUBLE_EQ(S->Cycles, 0.0);
}

TEST(StatsJson, RunStatsRejectsInconsistentLaneAccounting) {
  // Padded-tail regression: a record claiming more active lane slots
  // than total slots would deserialize into a >100% utilization (the
  // padded lanes are idle, never active). Reject it, and negatives too.
  auto Over = json::Value::parse(
      "{\"work_active_lanes\": 9, \"work_total_lanes\": 8}");
  ASSERT_TRUE(Over.ok());
  auto S = runStatsFromJson(*Over);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().render().find("work_active_lanes"),
            std::string::npos);

  auto Neg = json::Value::parse(
      "{\"work_active_lanes\": -1, \"work_total_lanes\": 0}");
  ASSERT_TRUE(Neg.ok());
  EXPECT_FALSE(runStatsFromJson(*Neg).ok());

  // The padded-tail shape itself (active < total, N=6 on width 4 =
  // 6/8) round-trips fine.
  auto Ok = json::Value::parse(
      "{\"work_steps\": 2, \"work_active_lanes\": 6, "
      "\"work_total_lanes\": 8}");
  ASSERT_TRUE(Ok.ok());
  auto SOk = runStatsFromJson(*Ok);
  ASSERT_TRUE(SOk.ok()) << SOk.error().render();
  EXPECT_DOUBLE_EQ(SOk->workUtilization(), 0.75);
  EXPECT_TRUE(SOk->laneAccountingConsistent());
}

TEST(StatsJson, RunStatsRejectsWrongTypes) {
  auto V = json::Value::parse("{\"work_steps\": \"three\"}");
  ASSERT_TRUE(V.ok());
  EXPECT_FALSE(runStatsFromJson(*V).ok());
  EXPECT_FALSE(runStatsFromJson(json::Value(int64_t{1})).ok());
}

TEST(StatsJson, TraceSerializes) {
  Trace T;
  T.Watch = {"i", "j"};
  T.Lanes = 2;
  Trace::Step Step;
  Step.Values = {1, 2, 3, 4};
  Step.Active = {1, 0};
  T.Steps.push_back(Step);
  json::Value V = toJson(T);
  ASSERT_NE(V.get("steps"), nullptr);
  ASSERT_EQ(V.get("steps")->size(), 1u);
  const json::Value &S0 = V.get("steps")->at(0);
  ASSERT_NE(S0.get("active"), nullptr);
  EXPECT_TRUE(S0.get("active")->at(0).asBool());
  EXPECT_FALSE(S0.get("active")->at(1).asBool());
}

} // namespace
