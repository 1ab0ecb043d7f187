//===- tests/golden_test.cpp - Golden snapshots of optimized IR -----------------===//
//
// Pins the printed optimized IR of a small, representative program set
// under all five PRE legs (SSAPRE, SSAPREsp, MC-SSAPRE, MC-PRE, LOSPRE)
// against checked-in snapshots in tests/golden/. Any change to placement,
// finalize, code motion or the printer shows up as a readable IR diff in
// the failure message instead of a distant oracle violation.
//
// Subjects: the two example programs (profiles trained by interpreting
// with fixed arguments) and the two corpus reproducers (profiles loaded
// from their sibling .prof files — capacity-overflow's near-2^62
// frequencies cannot be produced by a training run).
//
// Regenerating after an intentional change (see docs/TESTING.md):
//
//   SPECPRE_UPDATE_GOLDENS=1 ./tests/golden_test
//   ./tests/golden_test --update-goldens      (equivalent)
//
// then review the snapshot diff like any other code change.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace specpre;

#ifndef SPECPRE_GOLDEN_DIR
#error "SPECPRE_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef SPECPRE_EXAMPLES_DIR
#error "SPECPRE_EXAMPLES_DIR must point at examples/programs"
#endif
#ifndef SPECPRE_CORPUS_DIR
#error "SPECPRE_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

bool GUpdateGoldens = false;

struct Subject {
  std::string Stem;   ///< snapshot file stem
  std::string IrPath; ///< program source
  /// Training arguments; empty = load the sibling .prof instead.
  std::vector<int64_t> TrainArgs;
};

std::vector<Subject> subjects() {
  const std::string Ex = SPECPRE_EXAMPLES_DIR, Co = SPECPRE_CORPUS_DIR;
  return {
      {"loop", Ex + "/loop.spre", {3, 4, 64}},
      {"diamond", Ex + "/diamond.spre", {3, 4, 64}},
      {"critical-edge-weight", Co + "/critical-edge-weight.ir", {}},
      {"capacity-overflow", Co + "/capacity-overflow.ir", {}},
  };
}

struct Leg {
  const char *Name;
  PreStrategy Strategy;
};

const Leg Legs[] = {
    {"ssapre", PreStrategy::SsaPre},
    {"ssapresp", PreStrategy::SsaPreSpec},
    {"mcssapre", PreStrategy::McSsaPre},
    {"mcpre", PreStrategy::McPre},
    {"lospre", PreStrategy::Lospre},
};

std::string slurp(const std::string &Path, bool &Ok) {
  std::ifstream In(Path, std::ios::binary);
  Ok = static_cast<bool>(In);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return std::move(Buf).str();
}

/// Parses, prepares and profiles one subject. The profile is collected
/// *after* prepareFunction (training case) or stored against that
/// numbering (corpus case), matching the tool pipeline.
Function loadSubject(const Subject &S, Profile &Prof) {
  bool Ok = false;
  std::string Text = slurp(S.IrPath, Ok);
  EXPECT_TRUE(Ok) << "cannot read " << S.IrPath;
  std::string Error;
  std::optional<Module> M = parseModule(Text, Error);
  EXPECT_TRUE(M.has_value()) << S.IrPath << ": " << Error;
  Function F = std::move(M->Functions.front());
  prepareFunction(F);

  if (!S.TrainArgs.empty()) {
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    ExecResult R = interpret(F, S.TrainArgs, EO);
    EXPECT_FALSE(R.Trapped || R.TimedOut) << S.Stem << ": training failed";
  } else {
    std::string ProfPath = S.IrPath.substr(0, S.IrPath.rfind('.')) + ".prof";
    std::string ProfText = slurp(ProfPath, Ok);
    EXPECT_TRUE(Ok) << "cannot read " << ProfPath;
    EXPECT_TRUE(parseProfile(ProfText, Prof, Error)) << ProfPath << ": "
                                                     << Error;
  }
  Prof.BlockFreq.resize(F.numBlocks(), 0);
  return F;
}

std::string compileLeg(const Function &Prepared, const Profile &Prof,
                       PreStrategy Strategy) {
  Profile NodeOnly = Prof.withoutEdgeFreqs();
  PreOptions PO;
  PO.Strategy = Strategy;
  // Same slice the tool feeds each leg: MC-PRE sees edge frequencies,
  // everything else at most node frequencies.
  PO.Prof = Strategy == PreStrategy::McPre ? &Prof : &NodeOnly;
  CompileOutcomeRecord Outcome;
  Function Opt = compileWithFallback(Prepared, PO, &Outcome);
  EXPECT_FALSE(Outcome.degraded())
      << Prepared.Name << " degraded under " << strategyName(Strategy)
      << ": " << Outcome.Cause << " (" << Outcome.Message << ")";
  return printFunction(Opt);
}

void checkGolden(const std::string &Stem, const std::string &LegName,
                 const std::string &Actual) {
  std::string Path =
      std::string(SPECPRE_GOLDEN_DIR) + "/" + Stem + "." + LegName +
      ".golden";
  if (GUpdateGoldens || std::getenv("SPECPRE_UPDATE_GOLDENS")) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  bool Ok = false;
  std::string Expected = slurp(Path, Ok);
  ASSERT_TRUE(Ok) << "missing snapshot " << Path
                  << " — regenerate with SPECPRE_UPDATE_GOLDENS=1 "
                     "(docs/TESTING.md)";
  EXPECT_EQ(Expected, Actual)
      << "snapshot " << Path << " disagrees; if the change is intentional, "
         "regenerate with SPECPRE_UPDATE_GOLDENS=1 and review the diff";
}

} // namespace

TEST(Golden, AllProgramsAllLegs) {
  for (const Subject &S : subjects()) {
    Profile Prof;
    Function Prepared = loadSubject(S, Prof);
    if (::testing::Test::HasFailure())
      break;
    for (const Leg &L : Legs)
      checkGolden(S.Stem, L.Name, compileLeg(Prepared, Prof, L.Strategy));
  }
}

/// The snapshots must also be reachable through the fault-isolated
/// ladder walk, compileWithFallback — same printed IR, no degradations.
/// Every specpre-opt and daemon compile takes that path, one function per
/// thread at any --jobs, so the goldens pin the tools' output too.
TEST(Golden, SerialFallbackMatchesDirectCompile) {
  for (const Subject &S : subjects()) {
    Profile Prof;
    Function Prepared = loadSubject(S, Prof);
    if (::testing::Test::HasFailure())
      break;
    Profile NodeOnly = Prof.withoutEdgeFreqs();
    for (const Leg &L : Legs) {
      PreOptions PO;
      PO.Strategy = L.Strategy;
      PO.Prof = L.Strategy == PreStrategy::McPre ? &Prof : &NodeOnly;
      Function Direct = compileWithPre(Prepared, PO);
      EXPECT_EQ(printFunction(Direct),
                compileLeg(Prepared, Prof, L.Strategy))
          << S.Stem << "/" << L.Name
          << ": compileWithFallback diverged from compileWithPre";
    }
  }
}

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--update-goldens")
      GUpdateGoldens = true;
  ::testing::InitGoogleTest(&Argc, Argv);
  return RUN_ALL_TESTS();
}
