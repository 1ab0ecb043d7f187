//===- pre/ExprKey.cpp - Lexical expression identification ------------------===//

#include "pre/ExprKey.h"

#include <unordered_map>

using namespace specpre;

std::string ExprKey::toString(const Function &F) const {
  auto Side = [&](const OperandKey &K) {
    return K.IsConst ? std::to_string(K.Const) : F.varName(K.Var);
  };
  return Side(L) + " " + opcodeSpelling(Op) + " " + Side(R);
}

namespace {

struct ExprKeyHash {
  size_t operator()(const ExprKey &K) const {
    uint64_t H = static_cast<uint64_t>(K.Op);
    for (const OperandKey *O : {&K.L, &K.R}) {
      uint64_t Side = O->IsConst ? static_cast<uint64_t>(O->Const) * 2 + 1
                                 : static_cast<uint64_t>(O->Var) * 2;
      H = (H ^ Side) * 0x9e3779b97f4a7c15ull;
      H ^= H >> 29;
    }
    return static_cast<size_t>(H);
  }
};

} // namespace

std::vector<ExprKey> specpre::collectCandidateExprs(
    const Function &F, std::vector<std::vector<BlockId>> *OccurrenceBlocks) {
  std::vector<ExprKey> Keys;
  std::unordered_map<ExprKey, unsigned, ExprKeyHash> Index;
  if (OccurrenceBlocks)
    OccurrenceBlocks->clear();
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    for (const Stmt &S : F.Blocks[B].Stmts) {
      if (S.Kind != StmtKind::Compute)
        continue;
      if (S.Src0.isConst() && S.Src1.isConst())
        continue; // constant folding territory
      ExprKey K;
      K.Op = S.Op;
      K.L = OperandKey::of(S.Src0);
      K.R = OperandKey::of(S.Src1);
      auto [It, New] = Index.try_emplace(K, static_cast<unsigned>(Keys.size()));
      if (New)
        Keys.push_back(K);
      if (!OccurrenceBlocks)
        continue;
      if (New)
        OccurrenceBlocks->emplace_back();
      std::vector<BlockId> &Blocks = (*OccurrenceBlocks)[It->second];
      if (Blocks.empty() || Blocks.back() != static_cast<BlockId>(B))
        Blocks.push_back(static_cast<BlockId>(B));
    }
  }
  return Keys;
}
