//===- tests/malformed_input_test.cpp - Hostile-input hardening -----------------===//
//
// Every file in tests/corpus/malformed/ is a syntactically or
// structurally broken input. The contract under test: the parsers
// reject each one with a located diagnostic ("line N" / "line N, col M")
// and never crash, hang, or allocate unboundedly.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "profile/Profile.h"
#include "workload/FuzzOracles.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace specpre;

namespace {

std::string slurp(const std::string &Name) {
  std::ifstream In(std::string(SPECPRE_MALFORMED_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "missing corpus file " << Name;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

struct IrCase {
  const char *File;
  const char *ExpectInError;
};

struct ProfCase {
  const char *File;
  const char *ExpectInError;
};

TEST(MalformedInput, IrFilesAreRejectedWithLocation) {
  const IrCase Cases[] = {
      {"truncated.ir", "expected"},
      {"overflow-literal.ir", "out of range"},
      {"unknown-label.ir", "nowhere"},
      {"duplicate-label.ir", "duplicate block label"},
      {"bad-token.ir", "expected"},
      {"phi-unknown-pred.ir", "nowhere"},
  };
  for (const IrCase &C : Cases) {
    std::string Text = slurp(C.File);
    std::string Error;
    std::optional<Module> M = parseModule(Text, Error);
    EXPECT_FALSE(M.has_value()) << C.File << " unexpectedly parsed";
    EXPECT_NE(Error.find("line "), std::string::npos)
        << C.File << ": diagnostic lacks a line number: " << Error;
    EXPECT_NE(Error.find("col "), std::string::npos)
        << C.File << ": diagnostic lacks a column: " << Error;
    EXPECT_NE(Error.find(C.ExpectInError), std::string::npos)
        << C.File << ": diagnostic '" << Error << "' does not mention '"
        << C.ExpectInError << "'";
  }
}

TEST(MalformedInput, ProfileFilesAreRejected) {
  const ProfCase Cases[] = {
      {"bad-header.prof", "header"},
      {"bad-block.prof", "malformed block line"},
      {"huge-block-id.prof", "exceeds the limit"},
      {"bad-kind.prof", "unknown record kind"},
      {"huge-edge-id.prof", "exceeds the limit"},
      {"negative-block-id.prof", "malformed block line"},
  };
  for (const ProfCase &C : Cases) {
    std::string Text = slurp(C.File);
    Profile P;
    std::string Error;
    EXPECT_FALSE(parseProfile(Text, P, Error))
        << C.File << " unexpectedly parsed";
    EXPECT_NE(Error.find("line "), std::string::npos)
        << C.File << ": diagnostic lacks a line number: " << Error;
    EXPECT_NE(Error.find(C.ExpectInError), std::string::npos)
        << C.File << ": diagnostic '" << Error << "' does not mention '"
        << C.ExpectInError << "'";
  }
}

TEST(MalformedInput, DiagnosticsCarryTheRightLine) {
  std::string Error;
  EXPECT_FALSE(parseModule("func f(a) {\nentry:\n  x = @\n}", Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;

  Error.clear();
  Profile P;
  EXPECT_FALSE(
      parseProfile("specpre-profile v1\nblock 0 1\nwidget 2 3\n", P, Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
}

TEST(MalformedInput, OverlongLiteralDoesNotThrow) {
  // Pre-hardening this was an uncaught std::out_of_range from std::stoll.
  std::string Error;
  EXPECT_FALSE(parseModule(
      "func f(a) {\nentry:\n  x = 18446744073709551617 + a\n  ret x\n}",
      Error));
  EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;
  // The largest int64 still parses.
  Error.clear();
  EXPECT_TRUE(parseModule(
      "func f(a) {\nentry:\n  x = 9223372036854775807 + a\n  ret x\n}",
      Error).has_value()) << Error;
}

TEST(MalformedInput, DeepExpressionNestingIsRejectedNotOverflowed) {
  // 100,000 nested parentheses (200 KB): a recursive-descent parser
  // without a depth bound overflows its stack long before the end.
  const unsigned Depth = 100000;
  std::string Text = "func f(a) {\nentry:\n  x = " +
                     std::string(Depth, '(') + "a" +
                     std::string(Depth, ')') + "\n  ret x\n}\n";
  std::string Error;
  EXPECT_FALSE(parseModule(Text, Error).has_value());
  // Refused at the first parenthesis past the limit: line 3, whose
  // first '(' sits in column 7.
  EXPECT_NE(Error.find("line 3, col " + std::to_string(7 + MaxExprNesting) +
                       ": expression nested too deeply"),
            std::string::npos)
      << Error;

  // Unary minus and min/max calls nest too.
  std::string Minus;
  for (unsigned I = 0; I != Depth; ++I)
    Minus += "-(";
  Error.clear();
  EXPECT_FALSE(parseModule("func f(a) {\nentry:\n  x = " + Minus + "a" +
                               std::string(Depth, ')') + "\n  ret x\n}\n",
                           Error)
                   .has_value());
  EXPECT_NE(Error.find("expression nested too deeply"), std::string::npos)
      << Error;

  // The limit itself still parses.
  Error.clear();
  EXPECT_TRUE(parseModule("func f(a) {\nentry:\n  x = " +
                              std::string(MaxExprNesting, '(') + "a" +
                              std::string(MaxExprNesting, ')') +
                              "\n  ret x\n}\n",
                          Error)
                  .has_value())
      << Error;
}

TEST(MalformedInput, NetworkDirectivesWithBadIntegersAreDiagnosed) {
  // Pre-hardening, replaying a network-mode reproducer whose cap (or any
  // other numeric directive) had been mutated to junk aborted the whole
  // tool with an uncaught std::invalid_argument from a bare std::stoll.
  // The contract now: a corpus-oracle failure naming the line and value.
  std::optional<OracleFailure> F = replayCorpusFile(
      std::string(SPECPRE_MALFORMED_DIR) + "/network-cap-junk.ir");
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Oracle, "corpus");
  EXPECT_NE(F->Message.find("bad integer 'junk'"), std::string::npos)
      << F->Message;
  EXPECT_NE(F->Message.find("line "), std::string::npos) << F->Message;
}

TEST(MalformedInput, NetworkDirectivesWithOverflowAreDiagnosed) {
  // 20 digits overflow int64 (and the node count must also fit in int);
  // both used to throw std::out_of_range before the checked parsers.
  std::optional<OracleFailure> F = replayCorpusFile(
      std::string(SPECPRE_MALFORMED_DIR) + "/network-overflow-nodes.ir");
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Oracle, "corpus");
  EXPECT_NE(F->Message.find("bad integer"), std::string::npos) << F->Message;
  EXPECT_NE(F->Message.find("nodes"), std::string::npos) << F->Message;
}

TEST(MalformedInput, WellFormedNetworkDirectivesStillReplay) {
  // The hardening must not reject what the fuzzer actually writes: a
  // reproducer in formatNetworkReproducer's own format replays clean
  // (no oracle failure — the case itself is a healthy network).
  std::string Dir = ::testing::TempDir();
  std::string Path = Dir + "/replay-ok-network.ir";
  {
    std::ofstream Out(Path);
    Out << "// specpre-fuzz reproducer\n"
           "// mode: network\n"
           "// nodes: 3\n"
           "// source: 0\n"
           "// sink: 2\n"
           "// edge: 0 1 inf\n"
           "// edge: 1 2 5\n";
  }
  std::optional<OracleFailure> F = replayCorpusFile(Path);
  EXPECT_FALSE(F.has_value()) << F->Oracle << ": " << F->Message;
}

TEST(MalformedInput, HugeBlockIdDoesNotAllocate) {
  // Caps, not crashes: a 10^11 block id must fail fast instead of
  // resizing BlockFreq to ~800 GB.
  Profile P;
  std::string Error;
  EXPECT_FALSE(
      parseProfile("specpre-profile v1\nblock 99999999999 1\n", P, Error));
  EXPECT_TRUE(P.BlockFreq.size() < (1u << 21)) << P.BlockFreq.size();
}

} // namespace
