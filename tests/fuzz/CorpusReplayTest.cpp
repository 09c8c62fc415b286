//===- tests/fuzz/CorpusReplayTest.cpp -------------------------*- C++ -*-===//
//
// Replays every checked-in corpus case through the full differential
// oracle, which runs every variant under the tree and bytecode engines
// (the native leg is flattenfuzz --native's job). Each file pins the
// loop form, inputs, and reference verdict of one previously generated
// case; a divergence or verdict change here is a regression in a
// transform or executor, not in the fuzzer.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Oracle.h"

#include "interp/Trap.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::fuzz;

namespace {

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Out;
  for (const auto &E :
       std::filesystem::directory_iterator(SIMDFLAT_FUZZ_CORPUS_DIR))
    if (E.path().extension() == ".json")
      Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(FuzzCorpus, HasCheckedInCases) {
  EXPECT_GE(corpusFiles().size(), 5u);
}

TEST(FuzzCorpus, EveryCaseReplaysClean) {
  for (const std::string &Path : corpusFiles()) {
    Expected<FuzzCase, CorpusError> C = readCase(Path);
    ASSERT_TRUE(C) << Path << ": " << C.error().Message;
    OracleResult R = runOracle(*C);
    EXPECT_FALSE(R.Diverged) << Path << ":\n" << R.report();

    const VariantOutcome &Ref = R.reference();
    switch (C->Expect) {
    case ExpectedVerdict::Any:
      break;
    case ExpectedVerdict::Complete:
      EXPECT_FALSE(Ref.T.has_value())
          << Path << ": expected completion, got " << Ref.T->render();
      break;
    case ExpectedVerdict::Trap:
      ASSERT_TRUE(Ref.T.has_value()) << Path << ": expected a trap";
      EXPECT_EQ(interp::trapKindName(Ref.T->Kind), C->ExpectTrapKind)
          << Path;
      break;
    }
  }
}

TEST(FuzzCorpus, RenderParseRoundTrips) {
  for (const std::string &Path : corpusFiles()) {
    Expected<FuzzCase, CorpusError> C = readCase(Path);
    ASSERT_TRUE(C) << Path << ": " << C.error().Message;
    Expected<FuzzCase, CorpusError> Again = parseCase(renderCase(*C));
    ASSERT_TRUE(Again) << Path << ": " << Again.error().Message;
    EXPECT_EQ(ir::printProgram(Again->Prog), ir::printProgram(C->Prog))
        << Path;
    EXPECT_EQ(Again->Ints, C->Ints) << Path;
    EXPECT_EQ(Again->IntArrays, C->IntArrays) << Path;
    EXPECT_EQ(Again->Fuel, C->Fuel) << Path;
    EXPECT_EQ(Again->ExternTrapArg, C->ExternTrapArg) << Path;
    EXPECT_EQ(Again->MinOne, C->MinOne) << Path;
    EXPECT_EQ(Again->Expect, C->Expect) << Path;
  }
}

TEST(FuzzCorpus, RejectsWrongFormatTag) {
  json::Value Doc = json::Value::object();
  Doc.set("format", "not-a-corpus-file");
  Expected<FuzzCase, CorpusError> C = parseCase(Doc);
  ASSERT_FALSE(C);
  EXPECT_NE(C.error().Message.find("format"), std::string::npos);
}

} // namespace
