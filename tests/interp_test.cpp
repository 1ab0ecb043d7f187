//===- tests/interp_test.cpp - Interpreter tests --------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <string>

using namespace specpre;

TEST(Interp, StraightLineArithmetic) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a * b + 2
      ret x
    }
  )");
  ExecResult R = interpret(F, {3, 4});
  EXPECT_EQ(R.ReturnValue, 14);
  EXPECT_FALSE(R.Trapped);
  EXPECT_EQ(R.DynamicComputations, 2u); // mul and add
}

TEST(Interp, BranchesAndPrints) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p > 0, pos, neg
    pos:
      print 1
      jmp done
    neg:
      print 2
      jmp done
    done:
      ret p
    }
  )");
  ExecResult Pos = interpret(F, {5});
  EXPECT_EQ(Pos.Output, (std::vector<int64_t>{1}));
  ExecResult Neg = interpret(F, {-5});
  EXPECT_EQ(Neg.Output, (std::vector<int64_t>{2}));
  EXPECT_FALSE(Pos.sameObservableBehavior(Neg));
}

TEST(Interp, LoopComputesSum) {
  Function F = parseFunctionOrDie(R"(
    func sum(n) {
    entry:
      i = 0
      s = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      s = s + i
      i = i + 1
      jmp h
    exit:
      ret s
    }
  )");
  EXPECT_EQ(interpret(F, {5}).ReturnValue, 10);
  EXPECT_EQ(interpret(F, {0}).ReturnValue, 0);
  EXPECT_EQ(interpret(F, {100}).ReturnValue, 4950);
}

TEST(Interp, SsaPhiSemantics) {
  Function F = parseFunctionOrDie(R"(
    func sum(n) {
    entry:
      i = 0
      s = 0
      jmp h
    h:
      t = i < n
      br t, body, exit
    body:
      s = s + i
      i = i + 1
      jmp h
    exit:
      ret s
    }
  )");
  Function S = F;
  constructSsa(S);
  for (int64_t N : {0, 1, 5, 33})
    EXPECT_EQ(interpret(S, {N}).ReturnValue, interpret(F, {N}).ReturnValue);
}

TEST(Interp, ParallelPhiSwap) {
  // Classic swap via parallel phis: a,b = b,a each iteration.
  Function F = parseFunctionOrDie(R"(
    func swap(n) {
    entry:
      jmp h
    h:
      a#1 = phi [entry: 1] [body: b#1]
      b#1 = phi [entry: 2] [body: a#1]
      i#1 = phi [entry: 0] [body: i#2]
      t#1 = i#1 < n#1
      br t#1, body, exit
    body:
      i#2 = i#1 + 1
      jmp h
    exit:
      u#1 = a#1 * 10
      r#1 = u#1 + b#1
      ret r#1
    }
  )");
  // After an even number of swaps a=1,b=2; odd a=2,b=1.
  EXPECT_EQ(interpret(F, {0}).ReturnValue, 12);
  EXPECT_EQ(interpret(F, {1}).ReturnValue, 21);
  EXPECT_EQ(interpret(F, {2}).ReturnValue, 12);
}

TEST(Interp, DivisionTrap) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a / b
      ret x
    }
  )");
  EXPECT_EQ(interpret(F, {12, 4}).ReturnValue, 3);
  ExecResult R = interpret(F, {12, 0});
  EXPECT_TRUE(R.Trapped);
}

TEST(Interp, TimeoutOnInfiniteLoop) {
  Function F = parseFunctionOrDie(R"(
    func f(a) {
    entry:
      jmp spin
    spin:
      a = a + 1
      jmp spin
    }
  )");
  ExecOptions EO;
  EO.MaxSteps = 1000;
  ExecResult R = interpret(F, {0}, EO);
  EXPECT_TRUE(R.TimedOut);
}

TEST(Interp, CostModelAccounting) {
  Function F = parseFunctionOrDie(R"(
    func f(a) {
    entry:
      x = a * a
      y = x + 1
      ret y
    }
  )");
  ExecOptions EO;
  EO.Costs = CostModel::standard();
  ExecResult R = interpret(F, {3});
  // mul=4, add=1, ret=1.
  EXPECT_EQ(R.Cycles, 6u);

  EO.Costs = CostModel::computationsOnly();
  ExecResult R2 = interpret(F, {3}, EO);
  EXPECT_EQ(R2.Cycles, 2u);
  EXPECT_EQ(R2.Cycles, R2.DynamicComputations);
}

TEST(Interp, NonSsaUndefinedReadsAreZero) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p, use, def
    use:
      y = x + 5
      ret y
    def:
      x = 1
      ret x
    }
  )");
  // Along `use`, x was never assigned: deterministic 0.
  EXPECT_EQ(interpret(F, {1}).ReturnValue, 5);
  EXPECT_EQ(interpret(F, {0}).ReturnValue, 1);
}

//===----------------------------------------------------------------------===//
// Pinned numbers. Every expected value below was produced by the
// per-statement interpreter that preceded the flat loop, so these cases
// hold the current loop to its results, counters and profiles exactly.
//===----------------------------------------------------------------------===//

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Appends \p Item to the space-separated list \p S.
void appendItem(std::string &S, const std::string &Item) {
  if (!S.empty())
    S += ' ';
  S += Item;
}

std::string joined(const std::vector<int64_t> &Values) {
  std::string S;
  for (int64_t V : Values)
    appendItem(S, std::to_string(V));
  return S;
}

std::string blockCounts(const Profile &P) {
  std::string S;
  for (uint64_t F : P.BlockFreq)
    appendItem(S, std::to_string(F));
  return S;
}

std::string edgeCounts(const Profile &P) {
  std::string S;
  for (const auto &[E, F] : P.EdgeFreq)
    appendItem(S, std::to_string(E.first) + ">" + std::to_string(E.second) +
                      ":" + std::to_string(F));
  return S;
}

/// A cost model that gives every statement kind its own non-zero cost,
/// so a miscounted Φ, copy or terminator shows in the cycles.
CostModel distinctCosts() {
  CostModel CM = CostModel::standard();
  CM.CopyCost = 5;
  CM.PhiCost = 7;
  CM.BranchCost = 11;
  CM.JumpCost = 13;
  CM.RetCost = 17;
  CM.PrintCost = 19;
  return CM;
}

/// One run of a small function at a step cap, every observable pinned.
struct CapRow {
  uint64_t Cap;
  bool TimedOut, Trapped;
  int64_t Ret;
  uint64_t Steps, Cycles, Computations;
  const char *Output, *Blocks, *Edges;
};

void checkCapRows(const Function &F, const std::vector<int64_t> &Args,
                  const std::vector<CapRow> &Rows) {
  for (const CapRow &Row : Rows) {
    SCOPED_TRACE("cap " + std::to_string(Row.Cap));
    Profile P;
    ExecOptions EO;
    EO.Costs = distinctCosts();
    EO.MaxSteps = Row.Cap;
    EO.CollectProfile = &P;
    ExecResult R = interpret(F, Args, EO);
    EXPECT_EQ(R.TimedOut, Row.TimedOut);
    EXPECT_EQ(R.Trapped, Row.Trapped);
    EXPECT_EQ(R.ReturnValue, Row.Ret);
    EXPECT_EQ(R.StepsExecuted, Row.Steps);
    EXPECT_EQ(R.Cycles, Row.Cycles);
    EXPECT_EQ(R.DynamicComputations, Row.Computations);
    EXPECT_EQ(joined(R.Output), Row.Output);
    EXPECT_EQ(blockCounts(P), Row.Blocks);
    EXPECT_EQ(edgeCounts(P), Row.Edges);
    // The same run without a profile must not change any count.
    EO.CollectProfile = nullptr;
    ExecResult Bare = interpret(F, Args, EO);
    EXPECT_EQ(Bare.StepsExecuted, R.StepsExecuted);
    EXPECT_EQ(Bare.Cycles, R.Cycles);
    EXPECT_EQ(Bare.DynamicComputations, R.DynamicComputations);
  }
}

} // namespace

TEST(InterpPins, SpecSuiteRunsMatchPinnedCounts) {
  // Per program: the training run on the prepared function (return
  // value, steps, computations, cycles, FNV-1a of the serialized
  // profile), the reference run on the same function, and the reference
  // run of the MC-SSAPRE output, which has Φs.
  struct Pin {
    const char *Name;
    int64_t TrainRet;
    uint64_t TrainSteps, TrainComputations, TrainCycles, ProfileHash;
    int64_t RefRet;
    uint64_t RefSteps, RefComputations, RefCycles;
    uint64_t McSteps, McComputations, McCycles;
  };
  const Pin Pins[] = {
      {"perlbench", 4177608229802505986, 14934, 11028, 20829, 0xd8ef6b2ddbf94fd9ull, 4177608229802505986, 14934, 11028, 20829, 29326, 9962, 18331},
      {"bzip2", -4446139201690702688, 59986, 46140, 107948, 0xfde8912b677dd61aull, -7024259211266902957, 61402, 47365, 115947, 115225, 39193, 105029},
      {"gcc", 5414546544332144099, 21282, 15036, 30543, 0x4e6b06c045e426f5ull, -7111808165097255504, 20899, 14886, 29636, 38625, 12024, 26159},
      {"mcf", -4118484849345042616, 17007, 13620, 30606, 0x3513511cfa51cfa5ull, -4118484849345042616, 17007, 13620, 30606, 33216, 11605, 28249},
      {"gobmk", -5863865432541924998, 936322, 728559, 2095719, 0xe3addd84b2192c7full, 5646328371589749453, 954984, 743481, 2145718, 1797608, 632426, 2033647},
      {"hmmer", -6343036479502136944, 37138, 27883, 71628, 0xd4a6861d7d691ae9ull, 8773458672854742448, 38977, 29146, 77206, 71480, 25063, 70873},
      {"sjeng", 7966968886022747459, 180988, 144513, 254561, 0xbbd3be63e8a7f8beull, 7966968886022747459, 180988, 144513, 254561, 313875, 109276, 204691},
      {"libquantum", 4960861086573018780, 20330, 14976, 27699, 0x28062b22925e0f5dull, -5885113219624589841, 26088, 18949, 35334, 55053, 16871, 32273},
      {"h264ref", -1900259093100717498, 139467, 110878, 293219, 0x3790f8ccfe4dbf8eull, -3492419817195253772, 140120, 111316, 294333, 261010, 95213, 259411},
      {"omnetpp", 2536858621276762907, 362575, 270696, 668885, 0xa6881097c51af4e2ull, 2536858621276762907, 362575, 270696, 668885, 704935, 220102, 559127},
      {"astar", 923313308414484831, 46296, 36906, 108133, 0xa373996030eae223ull, -1515430718188269850, 47830, 37931, 110174, 86189, 32582, 100459},
      {"xalancbmk", -1914482998240915183, 491378, 355792, 964456, 0x004e14e2040f851eull, 430814584672776393, 482085, 349284, 945696, 953542, 305900, 872710},
      {"bwaves", 3057952068207594806, 259738, 203292, 318328, 0x51cd50d7031dc409ull, 3057952068207594806, 259738, 203292, 318328, 541150, 155340, 257769},
      {"gamess", -2094882710879546364, 7376084, 5871380, 8589596, 0x668f50b728172e34ull, -924422329128854220, 7344608, 5844748, 8546597, 12144151, 4645922, 7097487},
      {"milc", 2193668456382197689, 2371240, 1519231, 2999155, 0xaaa55ad56803978eull, 5260334388874325702, 2352884, 1505389, 2974290, 3602417, 994841, 1942354},
      {"zeusmp", 6883597522131743861, 171611, 132996, 222822, 0x601eef09c688a56eull, -7771659343854833487, 169278, 131018, 219274, 294074, 107815, 189946},
      {"gromacs", -5373731081560652222, 54117, 40207, 68738, 0xc828664083b6936bull, -5373731081560652222, 54117, 40207, 68738, 112962, 35306, 60919},
      {"cactusADM", -517125160591658001, 811033, 615504, 999051, 0xd4d0553288dd36dcull, -620818895603756567, 778502, 590675, 960316, 1330631, 533128, 872301},
      {"leslie3d", -6486638749953146373, 42134, 34038, 63638, 0x0e104151ce749c33ull, -7169505487042737509, 52311, 42306, 79632, 85537, 36314, 73216},
      {"namd", -6975670288368677175, 760906, 583212, 988576, 0xc0b17ae9242f6b64ull, -7121148137120598414, 794721, 607636, 1034858, 1302522, 524330, 874268},
      {"dealII", -3518651212414014506, 1197256, 1000091, 1755358, 0x3908c43daf22b16eull, -3518651212414014506, 1197256, 1000091, 1755358, 2242341, 918678, 1633417},
      {"soplex", -3746864550914287625, 3543274, 2874039, 4324623, 0xb29cbce79bdcdcf8ull, -2297056825539724726, 3522712, 2861437, 4304511, 5916971, 2419327, 3698202},
      {"povray", -8147150737748155621, 9042977, 7148845, 11850397, 0xfa5ae138405a2f93ull, -6632098637834272677, 8915383, 7048942, 11683434, 14120146, 5629817, 9888739},
      {"calculix", 7357700453343293460, 6388004, 4662392, 7185395, 0x7921b108a192993full, -52079261470050203, 6088609, 4443245, 6848287, 10830353, 3437761, 5626653},
      {"GemsFDTD", 984601197808185663, 11233965, 9048913, 15098807, 0xe4439455639cabaaull, 984601197808185663, 11233965, 9048913, 15098807, 16707199, 7296047, 12275992},
      {"tonto", 2238788074382154858, 17286770, 12919177, 22606922, 0x9a2780fe16bce117ull, 4644934771592411226, 17404081, 13006627, 22761080, 27676258, 10293387, 17849110},
      {"lbm", 4573818095914067571, 2342946, 1741397, 2781188, 0x9ca07ad60395092cull, -4142647697647087000, 2338858, 1737917, 2775949, 3502464, 1385364, 2388666},
      {"wrf", -7028303174009250826, 3963638, 3256097, 5918205, 0x42fc9f7c13c0c6baull, -8484154635935919249, 3943454, 3234886, 5870408, 6475190, 2656272, 4407890},
      {"sphinx3", -1068283901565445402, 5481589, 4204838, 6219762, 0x0571234616fb302cull, -1068283901565445402, 5481589, 4204838, 6219762, 9632359, 3315906, 5102770},
  };
  std::vector<BenchmarkSpec> Suite = fullCpu2006Suite();
  ASSERT_EQ(Suite.size(), std::size(Pins));
  for (size_t I = 0; I != Suite.size(); ++I) {
    const BenchmarkSpec &Spec = Suite[I];
    const Pin &Want = Pins[I];
    SCOPED_TRACE(Spec.Name);
    ASSERT_EQ(Spec.Name, Want.Name);
    Function Prepared = Spec.buildProgram();
    prepareFunction(Prepared);

    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    ExecResult Train = interpret(Prepared, Spec.TrainArgs, EO);
    EXPECT_EQ(Train.ReturnValue, Want.TrainRet);
    EXPECT_EQ(Train.StepsExecuted, Want.TrainSteps);
    EXPECT_EQ(Train.DynamicComputations, Want.TrainComputations);
    EXPECT_EQ(Train.Cycles, Want.TrainCycles);
    EXPECT_EQ(fnv1a(serializeProfile(Prof)), Want.ProfileHash);

    ExecResult Ref = interpret(Prepared, Spec.RefArgs);
    EXPECT_EQ(Ref.ReturnValue, Want.RefRet);
    EXPECT_EQ(Ref.StepsExecuted, Want.RefSteps);
    EXPECT_EQ(Ref.DynamicComputations, Want.RefComputations);
    EXPECT_EQ(Ref.Cycles, Want.RefCycles);

    PreOptions PO;
    PO.Strategy = PreStrategy::McSsaPre;
    PO.Prof = &Prof;
    Function Opt = compileWithPre(Prepared, PO);
    ExecResult Mc = interpret(Opt, Spec.RefArgs);
    EXPECT_EQ(Mc.ReturnValue, Want.RefRet);
    EXPECT_EQ(Mc.StepsExecuted, Want.McSteps);
    EXPECT_EQ(Mc.DynamicComputations, Want.McComputations);
    EXPECT_EQ(Mc.Cycles, Want.McCycles);
  }
}

TEST(InterpPins, TimeoutAtTheCapAroundPhiBlocks) {
  // Block h starts with two Φs. They count as steps without a cap check;
  // the cap is checked before each non-Φ statement. So a cap that falls
  // among h's Φs (3-5, 11-13, 19-21) times out at h's first non-Φ
  // statement, past MaxSteps + 1; every other cap stops at exactly
  // MaxSteps + 1. The block that was executing is counted in the profile.
  Function F = parseFunctionOrDie(R"(
    func f(n) {
    entry:
      s#1 = 0
      i#1 = 0
      jmp h
    h:
      s#2 = phi [entry: s#1] [body: s#3]
      i#2 = phi [entry: i#1] [body: i#3]
      t#1 = i#2 < n#1
      br t#1, body, exit
    body:
      m#1 = i#2 * 3
      s#3 = s#2 + m#1
      i#3 = i#2 + 1
      jmp h
    exit:
      ret s#2
    }
  )");
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  checkCapRows(F, {2}, {
      {0, true, false, 0, 1, 0, 0, "", "1 0 0 0", ""},
      {2, true, false, 0, 3, 10, 0, "", "1 0 0 0", ""},
      {3, true, false, 0, 6, 37, 0, "", "1 1 0 0", "0>1:1"},
      {4, true, false, 0, 6, 37, 0, "", "1 1 0 0", "0>1:1"},
      {5, true, false, 0, 6, 37, 0, "", "1 1 0 0", "0>1:1"},
      {6, true, false, 0, 7, 38, 1, "", "1 1 0 0", "0>1:1"},
      {7, true, false, 0, 8, 49, 1, "", "1 1 1 0", "0>1:1 1>2:1"},
      {10, true, false, 0, 11, 55, 4, "", "1 1 1 0", "0>1:1 1>2:1"},
      {11, true, false, 0, 14, 82, 4, "", "1 2 1 0", "0>1:1 1>2:1 2>1:1"},
      {12, true, false, 0, 14, 82, 4, "", "1 2 1 0", "0>1:1 1>2:1 2>1:1"},
      {13, true, false, 0, 14, 82, 4, "", "1 2 1 0", "0>1:1 1>2:1 2>1:1"},
      {14, true, false, 0, 15, 83, 5, "", "1 2 1 0", "0>1:1 1>2:1 2>1:1"},
      {15, true, false, 0, 16, 94, 5, "", "1 2 2 0", "0>1:1 1>2:2 2>1:1"},
      {18, true, false, 0, 19, 100, 8, "", "1 2 2 0", "0>1:1 1>2:2 2>1:1"},
      {19, true, false, 0, 22, 127, 8, "", "1 3 2 0", "0>1:1 1>2:2 2>1:2"},
      {21, true, false, 0, 22, 127, 8, "", "1 3 2 0", "0>1:1 1>2:2 2>1:2"},
      {22, true, false, 0, 23, 128, 9, "", "1 3 2 0", "0>1:1 1>2:2 2>1:2"},
      {23, true, false, 0, 24, 139, 9, "", "1 3 2 1", "0>1:1 1>2:2 1>3:1 2>1:2"},
      {24, false, false, 3, 24, 156, 9, "", "1 3 2 1", "0>1:1 1>2:2 1>3:1 2>1:2"},
      {100, false, false, 3, 24, 156, 9, "", "1 3 2 1", "0>1:1 1>2:2 1>3:1 2>1:2"},
  });
}

TEST(InterpPins, TrapInTheMiddleOfABlock) {
  // The third pass through h divides by zero, after two computations of
  // the block and before two more: the trap counts the division and
  // everything before it, nothing after. Cap 21 times out at the
  // division instead; caps 22 and 25 trap on the per-statement path,
  // 26 and 100 with the whole block under the cap.
  Function F = parseFunctionOrDie(R"(
    func f(n) {
    entry:
      i#1 = 0
      jmp h
    h:
      i#2 = phi [entry: i#1] [h: i#3]
      a#1 = i#2 * 5
      d#1 = n#1 - i#2
      q#1 = a#1 / d#1
      i#3 = i#2 + 1
      print q#1
      c#1 = i#3 < 10
      br c#1, h, out
    out:
      ret i#3
    }
  )");
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  checkCapRows(F, {2}, {
      {0, true, false, 0, 1, 0, 0, "", "1 0 0", ""},
      {2, true, false, 0, 4, 25, 0, "", "1 1 0", "0>1:1"},
      {4, true, false, 0, 5, 29, 1, "", "1 1 0", "0>1:1"},
      {7, true, false, 0, 8, 56, 4, "", "1 1 0", "0>1:1"},
      {8, true, false, 0, 9, 75, 4, "0", "1 1 0", "0>1:1"},
      {10, true, false, 0, 12, 94, 5, "0", "1 2 0", "0>1:1 1>1:1"},
      {16, true, false, 0, 17, 144, 9, "0 5", "1 2 0", "0>1:1 1>1:1"},
      {18, true, false, 0, 20, 163, 10, "0 5", "1 3 0", "0>1:1 1>1:2"},
      {20, true, false, 0, 21, 167, 11, "0 5", "1 3 0", "0>1:1 1>1:2"},
      {21, true, false, 0, 22, 168, 12, "0 5", "1 3 0", "0>1:1 1>1:2"},
      {22, false, true, 0, 22, 193, 13, "0 5", "1 3 0", "0>1:1 1>1:2"},
      {25, false, true, 0, 22, 193, 13, "0 5", "1 3 0", "0>1:1 1>1:2"},
      {26, false, true, 0, 22, 193, 13, "0 5", "1 3 0", "0>1:1 1>1:2"},
      {100, false, true, 0, 22, 193, 13, "0 5", "1 3 0", "0>1:1 1>1:2"},
  });
}

TEST(InterpPins, BranchWithOneTargetCountsOneEdge) {
  // `br p, mid, mid` leaves h along either arm, but both arms are the
  // edge h -> mid: its one EdgeFreq key carries every traversal.
  Function F = parseFunctionOrDie(R"(
    func f(n) {
    entry:
      i = 0
      jmp h
    h:
      i = i + 1
      c = i < n
      p = i & 1
      br p, mid, mid
    mid:
      br c, h, out
    out:
      ret i
    }
  )");
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  checkCapRows(F, {5}, {
      {0, true, false, 0, 1, 0, 0, "", "1 0 0 0", ""},
      {6, true, false, 0, 7, 32, 3, "", "1 1 1 0", "0>1:1 1>2:1"},
      {7, true, false, 0, 8, 43, 3, "", "1 2 1 0", "0>1:1 1>2:1 2>1:1"},
      {11, true, false, 0, 12, 57, 6, "", "1 2 2 0", "0>1:1 1>2:2 2>1:1"},
      {12, true, false, 0, 13, 68, 6, "", "1 3 2 0", "0>1:1 1>2:2 2>1:2"},
      {27, true, false, 0, 28, 143, 15, "", "1 5 5 1", "0>1:1 1>2:5 2>1:4 2>3:1"},
      {28, false, false, 5, 28, 160, 15, "", "1 5 5 1", "0>1:1 1>2:5 2>1:4 2>3:1"},
      {100, false, false, 5, 28, 160, 15, "", "1 5 5 1", "0>1:1 1>2:5 2>1:4 2>3:1"},
  });
}
