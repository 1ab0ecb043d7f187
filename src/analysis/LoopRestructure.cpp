//===- analysis/LoopRestructure.cpp - while -> do-while ---------------------===//

#include "analysis/LoopRestructure.h"

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "analysis/Loops.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace specpre;

namespace {

/// What restructuring reads of one natural loop: its header and its
/// blocks.
struct LoopShape {
  BlockId Header = InvalidBlock;
  size_t Size = 0;
  std::vector<bool> Contains; ///< Indexed by BlockId; may be short.

  bool contains(BlockId B) const {
    return B >= 0 && static_cast<size_t>(B) < Contains.size() && Contains[B];
  }
};

/// The loops and predecessor lists of a function under restructuring,
/// built once and updated per guard to what rebuilding the Cfg, the
/// DomTree and the LoopInfo would give.
class LoopForest {
public:
  explicit LoopForest(const Function &F) {
    Cfg C(F);
    DomTree DT = DomTree::buildDominators(C);
    LoopInfo LI(C, DT);
    for (const Loop &L : LI.loops())
      Loops.push_back(LoopShape{L.Header, L.Blocks.size(), L.Contains});
    for (unsigned B = 0; B != C.numBlocks(); ++B)
      Preds.push_back(C.preds(static_cast<BlockId>(B)));
  }

  /// In LoopInfo order: size descending, header ascending.
  const std::vector<LoopShape> &loops() const { return Loops; }
  const std::vector<BlockId> &preds(BlockId B) const { return Preds[B]; }

  /// Records that \p Guard, a clone of loop \p LI's header H with the same
  /// successors, took over H's entry edges (from \p EntryPreds), and that
  /// \p Body is H's in-loop successor.
  ///
  /// Every path into the loop now runs Guard -> Body, so Body dominates
  /// the loop's blocks and H's edges from inside no longer close a cycle
  /// at H: the loop keeps its blocks and is re-headed at Body, merging
  /// with a loop already headed there (whose blocks it contains). The
  /// guard joins exactly the loops that strictly enclose the guarded
  /// one, which are the other loops containing H. No other back edge,
  /// and no other loop, changes.
  void noteGuard(unsigned LI, BlockId Guard, BlockId Body,
                 const std::vector<BlockId> &EntryPreds,
                 const std::vector<BlockId> &GuardSuccs) {
    BlockId H = Loops[LI].Header;
    std::vector<BlockId> &HeaderPreds = Preds[H];
    std::erase_if(HeaderPreds,
                  [&](BlockId P) { return !Loops[LI].contains(P); });
    Preds.push_back(EntryPreds);
    for (BlockId S : GuardSuccs)
      Preds[S].push_back(Guard);

    for (LoopShape &M : Loops) {
      if (M.Header == H || !M.contains(H))
        continue;
      if (M.Contains.size() <= static_cast<size_t>(Guard))
        M.Contains.resize(Guard + 1, false);
      M.Contains[Guard] = true;
      ++M.Size;
    }
    auto Merged = std::find_if(
        Loops.begin(), Loops.end(),
        [&](const LoopShape &M) { return M.Header == Body; });
    Loops[LI].Header = Body;
    if (Merged != Loops.end())
      Loops.erase(Merged);
    std::sort(Loops.begin(), Loops.end(),
              [](const LoopShape &A, const LoopShape &B) {
                if (A.Size != B.Size)
                  return A.Size > B.Size;
                return A.Header < B.Header;
              });
  }

private:
  std::vector<LoopShape> Loops;
  std::vector<std::vector<BlockId>> Preds;
};

/// Applies one round of restructuring to the first eligible loop of
/// \p Forest, in LoopInfo order, and updates \p Forest. Returns true if a
/// loop was transformed. \p DoneHeaders records headers already
/// processed, so that rotated loops whose exit test walks around a
/// multi-exit cycle are each guarded at most once per block.
bool restructureOneLoop(Function &F, LoopForest &Forest,
                        std::set<BlockId> &DoneHeaders) {
  for (unsigned LI = 0; LI != Forest.loops().size(); ++LI) {
    const LoopShape &L = Forest.loops()[LI];
    BlockId H = L.Header;
    if (DoneHeaders.count(H))
      continue;
    const BasicBlock &Header = F.Blocks[H];
    const Stmt &T = Header.terminator();
    if (T.Kind != StmtKind::Branch)
      continue;
    // A "while" shape: the header test has exactly one in-loop successor
    // and one exit successor.
    bool TrueInLoop = L.contains(T.TrueTarget);
    bool FalseInLoop = L.contains(T.FalseTarget);
    if (TrueInLoop == FalseInLoop)
      continue;
    BlockId Body = TrueInLoop ? T.TrueTarget : T.FalseTarget;
    if (Body == H)
      continue; // self-loop on the test block; already bottom-tested

    // Entry predecessors are those outside the loop. The function entry
    // block can never be a loop header (it has no predecessors).
    std::vector<BlockId> EntryPreds;
    for (BlockId P : Forest.preds(H))
      if (!L.contains(P))
        EntryPreds.push_back(P);
    if (EntryPreds.empty())
      continue;

    // Already bottom-tested? If the header is also a latch the loop is a
    // do-while; the shape check above (Body != H) covers the 1-block
    // case, and a multi-block bottom-tested loop has its test in the
    // latch, not the header, so the header terminator check fails there.

    // Clone the header (the entry test). Pre-SSA form has no phis, so a
    // plain statement copy is a faithful clone.
    assert(!F.IsSSA && "restructureWhileLoops requires non-SSA form");
    BlockId Guard = F.addBlock(Header.Label + ".guard");
    F.Blocks[Guard].Stmts = F.Blocks[H].Stmts;

    // Redirect every entry edge to the guard.
    for (BlockId P : EntryPreds) {
      Stmt &PT = F.Blocks[P].terminator();
      switch (PT.Kind) {
      case StmtKind::Branch:
        if (PT.TrueTarget == H)
          PT.TrueTarget = Guard;
        if (PT.FalseTarget == H)
          PT.FalseTarget = Guard;
        break;
      case StmtKind::Jump:
        if (PT.TrueTarget == H)
          PT.TrueTarget = Guard;
        break;
      default:
        SPECPRE_UNREACHABLE("predecessor without branch terminator");
      }
    }
    std::vector<BlockId> GuardSuccs;
    F.Blocks[Guard].appendSuccessors(GuardSuccs);
    Forest.noteGuard(LI, Guard, Body, EntryPreds, GuardSuccs);
    DoneHeaders.insert(H);
    return true;
  }
  return false;
}

} // namespace

unsigned specpre::restructureWhileLoops(Function &F) {
  assert(!F.IsSSA && "restructuring operates on pre-SSA form");
  unsigned NumRestructured = 0;
  // Each block is guarded at most once, so this terminates after at most
  // the original block count of transformations.
  std::set<BlockId> DoneHeaders;
  LoopForest Forest(F);
  while (restructureOneLoop(F, Forest, DoneHeaders))
    ++NumRestructured;
  return NumRestructured;
}
