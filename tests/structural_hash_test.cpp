//===- tests/structural_hash_test.cpp - Pinned IR content digests ---------------===//
//
// Audits ir/StructuralHash.h, the foundation of the compilation cache's
// content addressing (docs/CACHING.md). Two kinds of checks:
//
//  * **pinned digests** — the exact hex digests of the running-example
//    miniature (tests/running_example_test.cpp), of its cache keys and
//    of its training key are hard-coded below. Any change to the walk
//    order, the mixer, the lane seeds or the key composition fails here
//    *by design*: such a change silently invalidates every existing
//    cache directory, and the pin forces that to be a reviewed decision
//    (bump the constants, note it in docs/CACHING.md) rather than an
//    accident.
//
//  * **sensitivity/insensitivity properties** — every single-token edit
//    of the IR must change the digest, while content-free differences
//    (dead variable-table entries left behind by the parser) must not.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/StructuralHash.h"
#include "pre/CachedCompile.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"
#include "ssa/SsaConstruction.h"

#include <gtest/gtest.h>

using namespace specpre;

namespace {

/// The running-example miniature, verbatim from running_example_test.cpp
/// (the paper's 18-block example distilled to the properties it states).
/// Kept as a literal here on purpose: this file pins bytes, so its input
/// must be frozen text, not a helper another test might evolve.
const char *MiniText = R"(
  func mini(a, b, p, q, r, s2) {
  entry:
    br p, p1, p2
  p1:
    x1 = a + b
    print x1
    jmp j1
  p2:
    print 0
    jmp j1
  j1:
    br q, u, skip
  u:
    x2 = a + b
    print x2
    jmp j2
  skip:
    jmp j2
  j2:
    br r, kill, qq
  kill:
    a = a + 0
    jmp j3
  qq:
    jmp j3
  j3:
    br s2, v, w
  v:
    x3 = a + b
    print x3
    jmp out
  w:
    jmp out
  out:
    ret a
  }
)";

Function makeMini() {
  Function F = parseFunctionOrDie(MiniText);
  prepareFunction(F);
  return F;
}

Profile makeMiniProfile(const Function &F) {
  Profile Prof;
  Prof.reset(F.numBlocks(), false);
  auto Freq = [&](const std::string &Label, uint64_t N) {
    for (unsigned B = 0; B != F.numBlocks(); ++B)
      if (F.Blocks[B].Label == Label)
        Prof.BlockFreq[B] = N;
  };
  Freq("entry", 20);
  Freq("p2", 20);
  Freq("j1", 20);
  Freq("u", 10);
  Freq("skip", 10);
  Freq("j2", 20);
  Freq("qq", 20);
  Freq("j3", 20);
  Freq("v", 18);
  Freq("w", 2);
  Freq("out", 20);
  return Prof;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pinned digests
//===----------------------------------------------------------------------===//

// If one of these four pins fails and the change to hashing or key
// composition was intentional, every existing --cache-dir is invalidated:
// update the constants AND mention the format break in docs/CACHING.md.
TEST(StructuralHash, PinnedRunningExampleDigests) {
  Function F = makeMini();
  EXPECT_EQ(structuralHash(F).toHex(), "5649454875a00c44c48d6da1b4f7d676");

  Function Ssa = F;
  constructSsa(Ssa);
  EXPECT_EQ(structuralHash(Ssa).toHex(), "09af3905b13193ba2b79f35918e39a4a");
}

TEST(StructuralHash, PinnedCacheKeys) {
  Function F = makeMini();
  Profile Prof = makeMiniProfile(F);
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &NodeOnly;
  EXPECT_EQ(compileCacheKey(F, PO).toHex(), "15242fd34cac37708f280e8d3d4491e0");

  PO.Strategy = PreStrategy::McPre;
  PO.Prof = &Prof;
  EXPECT_EQ(compileCacheKey(F, PO).toHex(), "c84eb4307d7c0663ec4fa4ed9ae58b62");
}

TEST(StructuralHash, PinnedTrainingKey) {
  // The training memo's address of the running example (tag
  // specpre-train-key-v1, default step budget and cost model).
  EXPECT_EQ(trainingCacheKey(makeMini(), {3, 4, 1, 0, 1, 1}, ExecOptions())
                .toHex(),
            "897ba5c3dcdf22ad644ec94c8550dbb0");
}

TEST(StructuralHash, HexFormatIsHiThenLo) {
  Hash128 H;
  H.Hi = 0x0123456789abcdefULL;
  H.Lo = 0xfedcba9876543210ULL;
  EXPECT_EQ(H.toHex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Hash128{}.toHex(), std::string(32, '0'));
}

//===----------------------------------------------------------------------===//
// Sensitivity / insensitivity
//===----------------------------------------------------------------------===//

TEST(StructuralHash, DeadVarTableEntriesDoNotPerturb) {
  Function F = makeMini();
  Function G = F;
  // A parser temporary that was retargeted away: present in the table,
  // referenced nowhere. The two functions print identically, so they
  // must hash identically.
  G.makeFreshVar("t$");
  G.makeFreshVar("t$");
  EXPECT_EQ(structuralHash(F), structuralHash(G));
}

TEST(StructuralHash, EverySingleTokenEditChangesTheDigest) {
  const Function Base = makeMini();
  const Hash128 H0 = structuralHash(Base);

  struct Edit {
    const char *What;
    void (*Apply)(Function &);
  };
  const Edit Edits[] = {
      {"function name", [](Function &F) { F.Name += "x"; }},
      {"SSA flag", [](Function &F) { F.IsSSA = !F.IsSSA; }},
      {"block label", [](Function &F) { F.Blocks[3].Label += "x"; }},
      {"constant operand",
       [](Function &F) {
         for (BasicBlock &BB : F.Blocks)
           for (Stmt &S : BB.Stmts)
             if (S.Kind == StmtKind::Compute && S.Src1.isConst()) {
               ++S.Src1.Value;
               return;
             }
       }},
      {"opcode",
       [](Function &F) {
         for (BasicBlock &BB : F.Blocks)
           for (Stmt &S : BB.Stmts)
             if (S.Kind == StmtKind::Compute) {
               S.Op = Opcode::Sub;
               return;
             }
       }},
      {"variable name (all uses)",
       [](Function &F) { F.VarNames[F.findVar("x1")] = "x1x"; }},
      {"branch target",
       [](Function &F) {
         Stmt &T = F.Blocks[0].terminator();
         std::swap(T.TrueTarget, T.FalseTarget);
       }},
      {"statement order",
       [](Function &F) {
         for (BasicBlock &BB : F.Blocks)
           if (BB.Stmts.size() >= 3) {
             std::swap(BB.Stmts[0], BB.Stmts[1]);
             return;
           }
       }},
      {"dropped parameter", [](Function &F) { F.Params.pop_back(); }},
  };

  for (const Edit &E : Edits) {
    Function F = Base;
    E.Apply(F);
    EXPECT_NE(structuralHash(F), H0) << "edit not detected: " << E.What;
  }
}

TEST(StructuralHash, StringHashingIsLengthPrefixed) {
  // "ab" + "c" vs "a" + "bc" must differ even though the concatenated
  // bytes are identical.
  HashBuilder A;
  A.addString("ab");
  A.addString("c");
  HashBuilder B;
  B.addString("a");
  B.addString("bc");
  EXPECT_NE(A.digest(), B.digest());
}
