//===- tests/profile_test.cpp - Profile collection tests -----------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "profile/Profile.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace specpre;

TEST(Profile, LoopFrequencies) {
  Function F = parseFunctionOrDie(R"(
    func sum(n) {
    entry:
      i = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      i = i + 1
      jmp h
    exit:
      ret i
    }
  )");
  Profile P;
  ExecOptions EO;
  EO.CollectProfile = &P;
  interpret(F, {10}, EO);
  EXPECT_EQ(P.blockFreq(0), 1u);  // entry
  EXPECT_EQ(P.blockFreq(1), 11u); // header: 10 iterations + exit test
  EXPECT_EQ(P.blockFreq(2), 10u); // body
  EXPECT_EQ(P.blockFreq(3), 1u);  // exit
  EXPECT_EQ(P.edgeFreq(2, 1), 10u);
  EXPECT_EQ(P.edgeFreq(1, 3), 1u);
  EXPECT_TRUE(P.HasEdgeFreqs);
  std::string Error;
  EXPECT_TRUE(P.verifyConservation(F, Error)) << Error;
}

TEST(Profile, ConservationOnRandomPrograms) {
  for (uint64_t Seed = 200; Seed <= 215; ++Seed) {
    GeneratorConfig Cfg0;
    Function F = generateProgram(Seed, Cfg0);
    Profile P;
    ExecOptions EO;
    EO.CollectProfile = &P;
    std::vector<int64_t> Args(F.Params.size(), static_cast<int64_t>(Seed));
    ExecResult R = interpret(F, Args, EO);
    ASSERT_FALSE(R.TimedOut) << "seed " << Seed;
    std::string Error;
    ASSERT_TRUE(P.verifyConservation(F, Error))
        << "seed " << Seed << ": " << Error;
  }
}

TEST(Profile, NodeOnlyDegradation) {
  Profile P;
  P.reset(3, true);
  P.BlockFreq = {10, 6, 4};
  P.EdgeFreq[{0, 1}] = 6;
  P.EdgeFreq[{0, 2}] = 4;
  Profile N = P.withoutEdgeFreqs();
  EXPECT_FALSE(N.HasEdgeFreqs);
  EXPECT_TRUE(N.EdgeFreq.empty());
  EXPECT_EQ(N.blockFreq(0), 10u);
}

TEST(Profile, EstimatedEdgeFrequenciesSplitUniformly) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p, a, b
    a:
      ret 1
    b:
      ret 2
    }
  )");
  Profile P;
  P.reset(3, false);
  P.BlockFreq = {9, 7, 2};
  Profile E = P.withEstimatedEdgeFreqs(F);
  EXPECT_TRUE(E.HasEdgeFreqs);
  // 9 split across two successors: 5 and 4.
  EXPECT_EQ(E.edgeFreq(0, 1) + E.edgeFreq(0, 2), 9u);
  EXPECT_LE(E.edgeFreq(0, 1), 5u);
}

TEST(Profile, TrainRefInputsDiverge) {
  // Different inputs produce different block frequencies somewhere —
  // the premise of the FDO mismatch discussion in the paper.
  GeneratorConfig Cfg0;
  Function F = generateProgram(777, Cfg0);
  Profile A, B;
  ExecOptions EO;
  EO.CollectProfile = &A;
  interpret(F, std::vector<int64_t>(F.Params.size(), 100), EO);
  EO.CollectProfile = &B;
  interpret(F, std::vector<int64_t>(F.Params.size(), 10457), EO);
  EXPECT_NE(A.BlockFreq, B.BlockFreq);
}

TEST(Profile, SerializeRoundTrip) {
  Profile P;
  P.reset(4, true);
  P.BlockFreq = {1, 20, 300, 4000};
  P.EdgeFreq[{0, 1}] = 20;
  P.EdgeFreq[{1, 2}] = 300;
  std::string Text = serializeProfile(P);
  Profile Q;
  std::string Error;
  ASSERT_TRUE(parseProfile(Text, Q, Error)) << Error;
  EXPECT_EQ(Q.BlockFreq, P.BlockFreq);
  EXPECT_EQ(Q.EdgeFreq, P.EdgeFreq);
  EXPECT_TRUE(Q.HasEdgeFreqs);
}

TEST(Profile, SerializeNodeOnlyRoundTrip) {
  Profile P;
  P.reset(2, false);
  P.BlockFreq = {7, 9};
  Profile Q;
  std::string Error;
  ASSERT_TRUE(parseProfile(serializeProfile(P), Q, Error)) << Error;
  EXPECT_FALSE(Q.HasEdgeFreqs);
  EXPECT_EQ(Q.BlockFreq, P.BlockFreq);
}

TEST(Profile, ParseRejectsGarbage) {
  Profile Q;
  std::string Error;
  EXPECT_FALSE(parseProfile("not a profile", Q, Error));
  EXPECT_FALSE(parseProfile("specpre-profile v1\nblock x y\n", Q, Error));
  EXPECT_FALSE(parseProfile("specpre-profile v1\nwidget 1 2\n", Q, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Profile, CollectedProfileSurvivesRoundTrip) {
  GeneratorConfig Cfg0;
  Function F = generateProgram(4321, Cfg0);
  Profile P;
  ExecOptions EO;
  EO.CollectProfile = &P;
  interpret(F, std::vector<int64_t>(F.Params.size(), 5), EO);
  Profile Q;
  std::string Error;
  ASSERT_TRUE(parseProfile(serializeProfile(P), Q, Error)) << Error;
  EXPECT_EQ(Q.BlockFreq, P.BlockFreq);
  ASSERT_TRUE(Q.verifyConservation(F, Error)) << Error;
}
