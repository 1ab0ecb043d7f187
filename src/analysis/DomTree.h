//===- analysis/DomTree.h - Dominator and post-dominator trees -*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator-tree construction using the Cooper-Harvey-Kennedy iterative
/// algorithm ("A Simple, Fast Dominance Algorithm"). The same engine
/// builds post-dominator trees by running on the reverse CFG with a
/// virtual exit node.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_ANALYSIS_DOMTREE_H
#define SPECPRE_ANALYSIS_DOMTREE_H

#include "analysis/Cfg.h"
#include "ir/Ir.h"

#include <vector>

namespace specpre {

/// Dominator tree over the blocks of one function. For the post-dominator
/// variant, a virtual exit (id == numBlocks()) is the root.
class DomTree {
public:
  /// Builds the (forward) dominator tree of \p C.
  static DomTree buildDominators(const Cfg &C);

  /// Builds the post-dominator tree of \p C. All Ret blocks are joined
  /// into a virtual exit node whose id is `C.numBlocks()`. Blocks that
  /// cannot reach any Ret have no post-dominator information
  /// (hasInfo() == false).
  static DomTree buildPostDominators(const Cfg &C);

  /// Immediate dominator of \p B; InvalidBlock for the root or nodes
  /// without info.
  BlockId idom(BlockId B) const { return Idom[B]; }

  /// True if dominance information exists for \p B (reachable from the
  /// root in the direction of the analysis).
  bool hasInfo(BlockId B) const { return B == Root || Idom[B] != InvalidBlock; }

  /// True if \p A dominates \p B (reflexive). Constant time via DFS
  /// intervals.
  bool dominates(BlockId A, BlockId B) const {
    return DfsIn[A] <= DfsIn[B] && DfsOut[B] <= DfsOut[A];
  }

  /// True if \p A strictly dominates \p B.
  bool properlyDominates(BlockId A, BlockId B) const {
    return A != B && dominates(A, B);
  }

  const std::vector<BlockId> &children(BlockId B) const { return Kids[B]; }

  BlockId root() const { return Root; }
  unsigned numNodes() const { return static_cast<unsigned>(Idom.size()); }

  /// Nodes in dominator-tree preorder (root first).
  const std::vector<BlockId> &preorder() const { return Preorder; }

  /// Increases along preorder(): A precedes B there exactly when
  /// preorderKey(A) < preorderKey(B). Nodes with info only.
  int preorderKey(BlockId B) const { return DfsIn[B]; }

  /// Sorts \p Nodes, all with info, into preorder and drops duplicates.
  void sortInPreorder(std::vector<BlockId> &Nodes) const;

  /// Walks \p Nodes, a preorder-sorted list of nodes with info, as the
  /// forest they induce, on an explicit stack: a deep tree (a long chain
  /// of blocks) costs heap, not call stack. \p Enter(B) runs for each node
  /// in order and returns a token, typically the marks of the stacks it
  /// pushes to; \p Exit(B, Token) runs once B's listed descendants are
  /// done, typically to pop back to those marks. Enter(B) therefore sees
  /// exactly what the listed dominators of B pushed.
  template <typename EnterFn, typename ExitFn>
  void walk(const std::vector<BlockId> &Nodes, EnterFn &&Enter,
            ExitFn &&Exit) const {
    struct Open {
      BlockId B;
      int Out; ///< DfsOut[B]: a later node with a smaller DfsIn is inside.
      decltype(Enter(Root)) T;
    };
    std::vector<Open> Path;
    for (BlockId B : Nodes) {
      while (!Path.empty() && Path.back().Out < DfsIn[B]) {
        Exit(Path.back().B, Path.back().T);
        Path.pop_back();
      }
      Path.push_back(Open{B, DfsOut[B], Enter(B)});
    }
    for (; !Path.empty(); Path.pop_back())
      Exit(Path.back().B, Path.back().T);
  }

  /// The walk over the whole tree, from the root.
  template <typename EnterFn, typename ExitFn>
  void walk(EnterFn &&Enter, ExitFn &&Exit) const {
    walk(Preorder, Enter, Exit);
  }

private:
  DomTree() = default;

  /// Runs CHK on an abstract graph given in reverse postorder.
  void compute(unsigned NumNodes, BlockId RootNode,
               const std::vector<std::vector<BlockId>> &Preds,
               const std::vector<BlockId> &Rpo);
  void buildTree();

  BlockId Root = InvalidBlock;
  std::vector<BlockId> Idom;
  std::vector<std::vector<BlockId>> Kids;
  std::vector<int> DfsIn, DfsOut;
  std::vector<BlockId> Preorder;
};

} // namespace specpre

#endif // SPECPRE_ANALYSIS_DOMTREE_H
