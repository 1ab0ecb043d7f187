//===- profile/Profile.cpp - Execution profiles ------------------------------===//

#include "profile/Profile.h"

#include "analysis/Cfg.h"

#include <sstream>

using namespace specpre;

void Profile::reset(unsigned NumBlocks, bool WithEdges) {
  BlockFreq.assign(NumBlocks, 0);
  EdgeFreq.clear();
  HasEdgeFreqs = WithEdges;
}

uint64_t Profile::edgeFreq(BlockId From, BlockId To) const {
  auto It = EdgeFreq.find({From, To});
  return It == EdgeFreq.end() ? 0 : It->second;
}

Profile Profile::withoutEdgeFreqs() const {
  Profile P = *this;
  P.EdgeFreq.clear();
  P.HasEdgeFreqs = false;
  return P;
}

Profile Profile::withEstimatedEdgeFreqs(const Function &F) const {
  Profile P = *this;
  P.EdgeFreq.clear();
  P.HasEdgeFreqs = true;
  Cfg C(F);
  for (unsigned B = 0; B != C.numBlocks(); ++B) {
    const std::vector<BlockId> &Succs = C.succs(static_cast<BlockId>(B));
    if (Succs.empty())
      continue;
    uint64_t Freq = blockFreq(static_cast<BlockId>(B));
    uint64_t Share = Freq / Succs.size();
    uint64_t Rem = Freq % Succs.size();
    for (unsigned I = 0; I != Succs.size(); ++I)
      P.EdgeFreq[{static_cast<BlockId>(B), Succs[I]}] =
          Share + (I < Rem ? 1 : 0);
  }
  return P;
}

bool Profile::verifyConservation(const Function &F, std::string &Error) const {
  if (!HasEdgeFreqs) {
    Error = "profile has no edge frequencies";
    return false;
  }
  Cfg C(F);
  for (unsigned B = 0; B != C.numBlocks(); ++B) {
    BlockId Id = static_cast<BlockId>(B);
    if (!C.isReachable(Id))
      continue;
    if (Id != 0) {
      uint64_t In = 0;
      for (BlockId P : C.preds(Id))
        In += edgeFreq(P, Id);
      if (In != blockFreq(Id)) {
        Error = "incoming flow mismatch at block '" + F.Blocks[B].Label +
                "': in=" + std::to_string(In) +
                " freq=" + std::to_string(blockFreq(Id));
        return false;
      }
    }
    if (!C.succs(Id).empty()) {
      uint64_t Out = 0;
      for (BlockId S : C.succs(Id))
        Out += edgeFreq(Id, S);
      if (Out != blockFreq(Id)) {
        Error = "outgoing flow mismatch at block '" + F.Blocks[B].Label +
                "': out=" + std::to_string(Out) +
                " freq=" + std::to_string(blockFreq(Id));
        return false;
      }
    }
  }
  return true;
}

std::string specpre::serializeProfile(const Profile &P) {
  std::string Out = "specpre-profile v1\n";
  for (unsigned B = 0; B != P.BlockFreq.size(); ++B)
    Out += "block " + std::to_string(B) + " " +
           std::to_string(P.BlockFreq[B]) + "\n";
  if (P.HasEdgeFreqs)
    for (const auto &[Edge, Freq] : P.EdgeFreq)
      Out += "edge " + std::to_string(Edge.first) + " " +
             std::to_string(Edge.second) + " " + std::to_string(Freq) +
             "\n";
  return Out;
}

bool specpre::parseProfile(const std::string &Text, Profile &Out,
                           std::string &Error) {
  // Hostile inputs must not allocate unboundedly: `block 99999999999 1`
  // would otherwise resize BlockFreq to tens of gigabytes.
  constexpr long long MaxBlockId = 1 << 20;
  std::istringstream In(Text);
  std::string LineText;
  unsigned LineNo = 1;
  auto lineError = [&](const std::string &Message) {
    Error = "line " + std::to_string(LineNo) + ": " + Message;
    return false;
  };
  if (!std::getline(In, LineText) || LineText != "specpre-profile v1")
    return lineError("missing or unsupported profile header");
  Out.BlockFreq.clear();
  Out.EdgeFreq.clear();
  Out.HasEdgeFreqs = false;
  while (std::getline(In, LineText)) {
    ++LineNo;
    std::istringstream Ln(LineText);
    std::string Kind;
    if (!(Ln >> Kind))
      continue; // blank line
    if (Kind == "block") {
      long long Id;
      unsigned long long Freq;
      if (!(Ln >> Id >> Freq) || Id < 0)
        return lineError("malformed block line '" + LineText + "'");
      if (Id > MaxBlockId)
        return lineError("block id " + std::to_string(Id) +
                         " exceeds the limit of " +
                         std::to_string(MaxBlockId));
      if (Out.BlockFreq.size() <= static_cast<size_t>(Id))
        Out.BlockFreq.resize(static_cast<size_t>(Id) + 1, 0);
      Out.BlockFreq[static_cast<size_t>(Id)] = Freq;
    } else if (Kind == "edge") {
      long long From, To;
      unsigned long long Freq;
      if (!(Ln >> From >> To >> Freq) || From < 0 || To < 0)
        return lineError("malformed edge line '" + LineText + "'");
      if (From > MaxBlockId || To > MaxBlockId)
        return lineError("edge block id exceeds the limit of " +
                         std::to_string(MaxBlockId));
      Out.EdgeFreq[{static_cast<BlockId>(From), static_cast<BlockId>(To)}] =
          Freq;
      Out.HasEdgeFreqs = true;
    } else {
      return lineError("unknown record kind '" + Kind + "'");
    }
  }
  return true;
}
