//===- analysis/DominanceFrontier.cpp - DF and iterated DF -----------------===//

#include "analysis/DominanceFrontier.h"

#include <algorithm>

using namespace specpre;

DominanceFrontier::DominanceFrontier(const Cfg &C, const DomTree &DT) {
  unsigned N = C.numBlocks();
  Df.assign(N, {});
  ReachedBy.assign(N, 0);
  // Cytron et al.: for each join block X, walk each predecessor's idom
  // chain up to (but excluding) idom(X), adding X to every frontier.
  for (unsigned X = 0; X != N; ++X) {
    BlockId B = static_cast<BlockId>(X);
    if (!C.isReachable(B) || C.preds(B).size() < 2)
      continue;
    for (BlockId P : C.preds(B)) {
      if (!DT.hasInfo(P))
        continue;
      BlockId Runner = P;
      while (Runner != DT.idom(B)) {
        Df[Runner].push_back(B);
        Runner = DT.idom(Runner);
        if (Runner == InvalidBlock)
          break; // predecessor not dominated by idom(B): shouldn't happen
      }
    }
  }
  for (std::vector<BlockId> &F : Df) {
    std::sort(F.begin(), F.end());
    F.erase(std::unique(F.begin(), F.end()), F.end());
  }
}

std::vector<BlockId> DominanceFrontier::iterated(
    const std::vector<BlockId> &Seeds) const {
  const unsigned Call = ++Calls;
  std::vector<BlockId> Work(Seeds.begin(), Seeds.end());
  std::vector<BlockId> Result;
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    for (BlockId D : Df[B]) {
      if (ReachedBy[D] == Call)
        continue;
      ReachedBy[D] = Call;
      Result.push_back(D);
      Work.push_back(D);
    }
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}
