//===- mincut/FlowNetwork.cpp - Flow network representation -----------------===//

#include "mincut/FlowNetwork.h"

#include "support/Diagnostics.h"

#include <cassert>

using namespace specpre;

int FlowNetwork::addEdge(int From, int To, int64_t Cap, int UserTag) {
  assert(From >= 0 && From < numNodes() && To >= 0 && To < numNodes() &&
         "edge endpoints out of range");
  assert(Cap >= 0 && "negative capacity");
  // Growing a frozen network discards the CSR (and any flow in it); the
  // next freeze() rebuilds from the original-edge records.
  Frozen = false;
  OrigEdge E;
  E.From = From;
  E.To = To;
  E.Tag = UserTag;
  E.Cap = Cap;
  Orig.push_back(E);
  return static_cast<int>(Orig.size()) - 1;
}

void FlowNetwork::freeze() {
  if (Frozen)
    return;
  const size_t N = static_cast<size_t>(NumNodes_);
  const size_t M = Orig.size();

  // Counting sort of the 2M residual slots by their source node.
  Start.assign(N + 1, 0);
  for (const OrigEdge &E : Orig) {
    ++Start[static_cast<size_t>(E.From) + 1]; // forward slot
    ++Start[static_cast<size_t>(E.To) + 1];   // reverse slot
  }
  for (size_t I = 0; I != N; ++I)
    Start[I + 1] += Start[I];

  Csr.assign(2 * M, Edge());
  FwdSlot.assign(M, 0);
  // Fill[] tracks the next free slot per node.
  Fill.assign(Start.begin(), Start.end() - 1);

  for (size_t E = 0; E != M; ++E) {
    const OrigEdge &O = Orig[E];
    uint32_t F = Fill[static_cast<size_t>(O.From)]++;
    uint32_t R = Fill[static_cast<size_t>(O.To)]++;
    Edge &Fwd = Csr[F];
    Fwd.To = O.To;
    Fwd.Cap = O.Cap;
    Fwd.RevIndex = static_cast<int>(R - Start[static_cast<size_t>(O.To)]);
    Fwd.IsForward = true;
    Fwd.UserTag = O.Tag;
    Edge &Rev = Csr[R];
    Rev.To = O.From;
    Rev.Cap = 0;
    Rev.RevIndex = static_cast<int>(F - Start[static_cast<size_t>(O.From)]);
    Rev.IsForward = false;
    Rev.UserTag = -1;
    FwdSlot[E] = F;
  }
  Frozen = true;
}

int64_t FlowNetwork::edgeFlow(int EdgeId) const {
  assert(Frozen && "edgeFlow requires a frozen network");
  return Orig[static_cast<size_t>(EdgeId)].Cap -
         Csr[FwdSlot[static_cast<size_t>(EdgeId)]].Cap;
}

void FlowNetwork::clear() {
  NumNodes_ = 0;
  Frozen = false;
  Orig.clear();
  Csr.clear();
  Start.clear();
  FwdSlot.clear();
}

void FlowNetwork::resetFlow() {
  if (!Frozen)
    return; // Nothing solved yet; capacities are pristine.
  for (size_t E = 0; E != Orig.size(); ++E) {
    Edge &Fwd = Csr[FwdSlot[E]];
    Edge &Rev = Csr[Start[static_cast<size_t>(Fwd.To)] +
                    static_cast<size_t>(Fwd.RevIndex)];
    Fwd.Cap = Orig[E].Cap;
    Rev.Cap = 0;
  }
}
