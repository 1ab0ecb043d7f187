//===- mincut/FlowNetwork.h - Flow network representation ------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A directed flow network with residual edges, shared by the max-flow
/// algorithms and the min-cut extraction. Parallel edges are allowed
/// (MC-SSAPRE's EFG can have several bottom-operand edges from the
/// artificial source into the same phi).
///
/// The network is built incrementally (addNode/addEdge append to flat
/// per-edge arrays with no per-node allocation) and then frozen into a
/// compressed sparse row (CSR) layout: one contiguous Edge array ordered
/// by source node plus an offset table, so the solvers' inner loops walk
/// adjacent memory instead of chasing a vector-of-vectors. freeze() is
/// idempotent and is invoked by the solvers; adding an edge to a frozen
/// network unfreezes it (losing any flow) and the next freeze rebuilds.
///
/// clear() empties a network and keeps its storage, so a caller that
/// reuses one network per candidate expression (the PRE legs do) makes
/// no heap allocation once the vectors have grown to the largest
/// network seen.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_MINCUT_FLOWNETWORK_H
#define SPECPRE_MINCUT_FLOWNETWORK_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace specpre {

/// Capacity value treated as unremovable (edges to the artificial sink).
/// Large enough that no sum of real frequencies reaches it, small enough
/// that summing a few infinities cannot overflow int64.
constexpr int64_t InfiniteCapacity = int64_t(1) << 60;

/// Largest capacity a finite (cuttable) edge may carry. Finite edge
/// weights are saturated here so that no profile frequency — however
/// large or however scaled by a cut objective — can alias the infinite
/// (uncuttable) edges above. The cap sits 2^20 below InfiniteCapacity
/// because a minimum cut compares *sums* of finite capacities against
/// single infinite edges: as long as a network has fewer than 2^20
/// finite edges, every all-finite cut stays strictly cheaper than any
/// cut crossing an infinite edge. (Real profile frequencies are far
/// smaller — the interpreter's step budget alone caps them near 2^26 —
/// so saturation only ever engages on synthetic stress profiles.)
constexpr int64_t MaxFiniteCapacity = (int64_t(1) << 40) - 1;

/// Weight of a finite flow edge under a blended objective:
/// `Freq * SpeedWeight + SizeWeight`, computed without overflow and
/// saturated at MaxFiniteCapacity. Every weight derived from a profile
/// frequency must go through this so finite edges stay strictly below
/// InfiniteCapacity.
inline int64_t saturatedEdgeWeight(uint64_t Freq, uint64_t SpeedWeight,
                                   uint64_t SizeWeight) {
  const uint64_t Cap = static_cast<uint64_t>(MaxFiniteCapacity);
  if (SizeWeight >= Cap)
    return MaxFiniteCapacity;
  if (SpeedWeight != 0 && Freq > (Cap - SizeWeight) / SpeedWeight)
    return MaxFiniteCapacity;
  return static_cast<int64_t>(Freq * SpeedWeight + SizeWeight);
}

/// CSR flow network with implicit residual (reverse) edges.
class FlowNetwork {
public:
  struct Edge {
    int To = -1;
    int64_t Cap = 0;   ///< Remaining capacity (residual).
    int RevIndex = -1; ///< Index of the reverse edge within edgesFrom(To).
    bool IsForward = false; ///< True for original edges, false for residuals.
    int UserTag = -1;       ///< Caller-defined id for original edges.
  };

  /// Contiguous slice of a node's residual edges in the CSR array.
  template <typename E> class EdgeSpan {
  public:
    EdgeSpan(E *B, E *End) : B(B), E_(End) {}
    E *begin() const { return B; }
    E *end() const { return E_; }
    size_t size() const { return static_cast<size_t>(E_ - B); }
    bool empty() const { return B == E_; }
    E &operator[](size_t I) const { return B[I]; }

  private:
    E *B;
    E *E_;
  };
  using EdgeRange = EdgeSpan<Edge>;
  using ConstEdgeRange = EdgeSpan<const Edge>;

  explicit FlowNetwork(int NumNodes = 0) : NumNodes_(NumNodes) {}

  int addNode() {
    assert(!Frozen && "addNode on a frozen network");
    return NumNodes_++;
  }

  int numNodes() const { return NumNodes_; }

  /// Adds a directed edge From->To with capacity \p Cap and an optional
  /// caller tag (used to map cut edges back to FRG edges). Returns an
  /// opaque id usable with edgeFlow().
  int addEdge(int From, int To, int64_t Cap, int UserTag = -1);

  /// Builds the CSR layout; idempotent. Solvers call this on entry, so
  /// callers only need it when walking edgesFrom() on a never-solved
  /// network.
  void freeze();
  bool isFrozen() const { return Frozen; }

  ConstEdgeRange edgesFrom(int Node) const {
    assert(Frozen && "edgesFrom requires a frozen network");
    return {Csr.data() + Start[static_cast<size_t>(Node)],
            Csr.data() + Start[static_cast<size_t>(Node) + 1]};
  }
  EdgeRange edgesFrom(int Node) {
    assert(Frozen && "edgesFrom requires a frozen network");
    return {Csr.data() + Start[static_cast<size_t>(Node)],
            Csr.data() + Start[static_cast<size_t>(Node) + 1]};
  }

  /// The reverse (residual partner) of a CSR edge, given the node it
  /// leaves from. Equivalent to edgesFrom(E.To)[E.RevIndex].
  Edge &reverseOf(const Edge &E) {
    return Csr[Start[static_cast<size_t>(E.To)] +
               static_cast<size_t>(E.RevIndex)];
  }

  /// Raw CSR access for the solvers' inner loops: edge slots of node N
  /// are csrEdges()[csrStart(N) .. csrStart(N+1)).
  size_t csrStart(int Node) const {
    return Start[static_cast<size_t>(Node)];
  }
  Edge *csrEdges() { return Csr.data(); }
  const Edge *csrEdges() const { return Csr.data(); }

  /// Flow currently pushed through the original edge with id \p EdgeId
  /// (== capacity consumed on the forward edge).
  int64_t edgeFlow(int EdgeId) const;

  /// Original capacity of the edge with id \p EdgeId.
  int64_t edgeCapacity(int EdgeId) const {
    return Orig[static_cast<size_t>(EdgeId)].Cap;
  }

  /// Endpoints and tag of the original edge with id \p EdgeId. Valid
  /// frozen or not.
  int edgeFrom(int EdgeId) const {
    return Orig[static_cast<size_t>(EdgeId)].From;
  }
  int edgeTo(int EdgeId) const {
    return Orig[static_cast<size_t>(EdgeId)].To;
  }
  int edgeTag(int EdgeId) const {
    return Orig[static_cast<size_t>(EdgeId)].Tag;
  }

  int numOriginalEdges() const { return static_cast<int>(Orig.size()); }

  /// Resets all flow to zero (restores residual capacities).
  void resetFlow();

  /// Empties the network (no nodes, no edges, unfrozen) and keeps the
  /// storage of its arrays for the next build.
  void clear();

private:
  struct OrigEdge {
    int From;
    int To;
    int Tag;
    int64_t Cap;
  };

  int NumNodes_ = 0;
  bool Frozen = false;
  std::vector<OrigEdge> Orig;    ///< One record per addEdge call.
  std::vector<Edge> Csr;         ///< 2 * Orig.size() residual edge slots.
  std::vector<uint32_t> Start;   ///< numNodes+1 CSR offsets.
  std::vector<uint32_t> FwdSlot; ///< Original edge id -> forward CSR slot.
  std::vector<uint32_t> Fill;    ///< freeze()'s next free slot per node.
};

} // namespace specpre

#endif // SPECPRE_MINCUT_FLOWNETWORK_H
