//===- analysis/DomTree.cpp - Dominator and post-dominator trees -----------===//

#include "analysis/DomTree.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cstdint>

using namespace specpre;

void DomTree::compute(unsigned NumNodes, BlockId RootNode,
                      const std::vector<std::vector<BlockId>> &Preds,
                      const std::vector<BlockId> &Rpo) {
  Root = RootNode;
  Idom.assign(NumNodes, InvalidBlock);

  std::vector<int> RpoIndex(NumNodes, -1);
  for (unsigned I = 0; I != Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = static_cast<int>(I);

  auto Intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  Idom[Root] = Root;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Rpo) {
      if (B == Root)
        continue;
      BlockId NewIdom = InvalidBlock;
      for (BlockId P : Preds[B]) {
        if (Idom[P] == InvalidBlock)
          continue; // not yet processed / unreachable
        NewIdom = NewIdom == InvalidBlock ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != InvalidBlock && Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
  Idom[Root] = InvalidBlock; // root has no immediate dominator
  buildTree();
}

void DomTree::buildTree() {
  unsigned N = static_cast<unsigned>(Idom.size());
  Kids.assign(N, {});
  for (unsigned B = 0; B != N; ++B)
    if (Idom[B] != InvalidBlock)
      Kids[Idom[B]].push_back(static_cast<BlockId>(B));

  DfsIn.assign(N, 0);
  DfsOut.assign(N, -1); // nodes without info: empty interval
  Preorder.clear();
  int Clock = 1;
  std::vector<std::pair<BlockId, unsigned>> Stack{{Root, 0}};
  DfsIn[Root] = Clock++;
  Preorder.push_back(Root);
  while (!Stack.empty()) {
    auto &[B, NextIdx] = Stack.back();
    if (NextIdx < Kids[B].size()) {
      BlockId C = Kids[B][NextIdx++];
      DfsIn[C] = Clock++;
      Preorder.push_back(C);
      Stack.emplace_back(C, 0);
    } else {
      DfsOut[B] = Clock++;
      Stack.pop_back();
    }
  }
  // Nodes never visited (no dominance info) keep DfsIn=0 > DfsOut=-1, so
  // dominates() is false for them in both directions except self... guard:
  for (unsigned B = 0; B != N; ++B) {
    if (static_cast<BlockId>(B) != Root && Idom[B] == InvalidBlock) {
      DfsIn[B] = 0;
      DfsOut[B] = -1;
    }
  }
}

void DomTree::sortInPreorder(std::vector<BlockId> &Nodes) const {
  // Sorting the keys beside the ids compares adjacent words, not DfsIn
  // entries scattered over the whole tree.
  std::vector<uint64_t> Keyed;
  Keyed.reserve(Nodes.size());
  for (BlockId B : Nodes)
    Keyed.push_back(static_cast<uint64_t>(DfsIn[B]) << 32 |
                    static_cast<uint32_t>(B));
  std::sort(Keyed.begin(), Keyed.end());
  Keyed.erase(std::unique(Keyed.begin(), Keyed.end()), Keyed.end());
  Nodes.clear();
  for (uint64_t K : Keyed)
    Nodes.push_back(static_cast<BlockId>(static_cast<uint32_t>(K)));
}

DomTree DomTree::buildDominators(const Cfg &C) {
  unsigned N = C.numBlocks();
  std::vector<std::vector<BlockId>> Preds(N);
  for (unsigned B = 0; B != N; ++B)
    Preds[B] = C.preds(static_cast<BlockId>(B));
  DomTree T;
  T.compute(N, /*RootNode=*/0, Preds, C.reversePostOrder());
  return T;
}

DomTree DomTree::buildPostDominators(const Cfg &C) {
  // Reverse graph with a virtual exit node N that all Ret blocks feed.
  unsigned N = C.numBlocks();
  unsigned Total = N + 1;
  BlockId VirtualExit = static_cast<BlockId>(N);

  // Reverse-graph predecessor lists == forward successor lists; exit
  // blocks (no successors) additionally get the virtual exit as a
  // reverse-graph predecessor, since in the forward graph they feed it.
  std::vector<std::vector<BlockId>> RevPreds(Total);
  for (unsigned B = 0; B != N; ++B) {
    RevPreds[B] = C.succs(static_cast<BlockId>(B));
    if (C.succs(static_cast<BlockId>(B)).empty() &&
        C.isReachable(static_cast<BlockId>(B)))
      RevPreds[B].push_back(VirtualExit);
  }

  // Reverse postorder on the reverse graph: DFS from the virtual exit
  // following forward-predecessor edges.
  std::vector<bool> Visited(Total, false);
  std::vector<BlockId> PostOrder;
  std::vector<std::pair<BlockId, unsigned>> Stack{{VirtualExit, 0}};
  Visited[VirtualExit] = true;
  auto RevSuccs = [&](BlockId B) -> std::vector<BlockId> {
    if (B == VirtualExit) {
      std::vector<BlockId> Exits;
      for (unsigned X = 0; X != N; ++X)
        if (C.succs(static_cast<BlockId>(X)).empty() &&
            C.isReachable(static_cast<BlockId>(X)))
          Exits.push_back(static_cast<BlockId>(X));
      return Exits;
    }
    return C.preds(B);
  };
  std::vector<std::vector<BlockId>> RevSuccCache(Total);
  for (unsigned B = 0; B != Total; ++B)
    RevSuccCache[B] = RevSuccs(static_cast<BlockId>(B));
  while (!Stack.empty()) {
    auto &[B, NextIdx] = Stack.back();
    if (NextIdx < RevSuccCache[B].size()) {
      BlockId S = RevSuccCache[B][NextIdx++];
      if (!Visited[S]) {
        Visited[S] = true;
        Stack.emplace_back(S, 0);
      }
    } else {
      PostOrder.push_back(B);
      Stack.pop_back();
    }
  }
  std::vector<BlockId> Rpo(PostOrder.rbegin(), PostOrder.rend());

  DomTree T;
  T.compute(Total, VirtualExit, RevPreds, Rpo);
  return T;
}
