//===- pre/Frg.h - Factored redundancy graph -------------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The factored redundancy graph (FRG): the SSA form of the hypothetical
/// temporary h carrying the candidate expression's value (Kennedy et al.,
/// TOPLAS 1999; paper Section 3.1.1). It is built by the first two steps
/// shared between SSAPRE and MC-SSAPRE:
///
///  1. Phi-Insertion — expression Φs are placed at the iterated dominance
///     frontier of the real occurrences and at blocks containing variable
///     phis of the expression's operands.
///  2. Rename        — occurrences are assigned redundancy classes via a
///     preorder dominator-tree walk; MC-SSAPRE additionally marks real
///     occurrences dominated by same-version real occurrences as
///     rg_excluded (paper Section 3.1.3).
///
/// Both steps are sparse: FrgSites holds the facts they need about the
/// whole function, computed once per function, and each candidate's steps
/// visit only its occurrence blocks, its Φ blocks and their predecessors.
///
/// Everything downstream (DownSafety/WillBeAvail for SSAPRE; data flow,
/// graph reduction, EFG and min-cut for MC-SSAPRE; the shared Finalize
/// and CodeMotion) consumes this structure.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_FRG_H
#define SPECPRE_PRE_FRG_H

#include "analysis/Cfg.h"
#include "analysis/DominanceFrontier.h"
#include "analysis/DomTree.h"
#include "ir/Ir.h"
#include "pre/ExprKey.h"

#include <string>
#include <utility>
#include <vector>

namespace specpre {

/// Reference to an occurrence node in the FRG.
struct OccRef {
  enum class Kind : uint8_t { None, Real, Phi };
  Kind K = Kind::None;
  int Index = -1;

  static OccRef none() { return OccRef{}; }
  static OccRef real(int I) { return OccRef{Kind::Real, I}; }
  static OccRef phi(int I) { return OccRef{Kind::Phi, I}; }

  bool isNone() const { return K == Kind::None; }
  bool isReal() const { return K == Kind::Real; }
  bool isPhi() const { return K == Kind::Phi; }

  bool operator==(const OccRef &) const = default;
};

/// A real occurrence: a Compute statement of the candidate expression.
struct RealOcc {
  BlockId Block = InvalidBlock;
  unsigned StmtIdx = 0;

  int LVer = 0, RVer = 0; ///< SSA versions of the var operands (0 = const).

  int Class = -1;   ///< Redundancy class.
  OccRef Def;       ///< Class-defining occurrence; self when none() is set
                    ///< ... i.e. none() means this occurrence opened the
                    ///< class (it is non-redundant).
  bool RgExcluded = false; ///< MC-SSAPRE: dominated by a same-version real.

  // ---- Finalize outputs ----
  bool Reload = false;   ///< Replaced by a use of the PRE temporary.
  bool Save = false;     ///< Computed value saved into the temporary.
  int TempDefIndex = -1; ///< Reload: index into FinalizePlan::TempDefs.
};

/// One operand of an expression Φ, keyed by predecessor block.
struct PhiOperand {
  BlockId Pred = InvalidBlock;
  int Class = -1;           ///< -1 encodes ⊥ (bottom).
  OccRef Def;               ///< Class-defining occurrence (when not ⊥).
  bool HasRealUse = false;  ///< Version carried here crossed a real occ.

  /// Versions of the expression's variable operands at the end of Pred —
  /// the versions an insertion at this operand would compute with.
  int LVerAtPredEnd = 0, RVerAtPredEnd = 0;

  /// ⊥ operand at which insertion is impossible: an expression operand
  /// is undefined at the end of Pred, or the join's variable phi
  /// substitutes a different variable (or a constant) along this edge,
  /// so no lexical insertion can produce the merged value. Such operands
  /// appear in the flow network with infinite weight.
  bool InsertBlocked = false;

  bool Insert = false; ///< Final decision: insert at the end of Pred.

  bool isBottom() const { return Class < 0; }
};

/// An expression Φ: a merge point of the hypothetical temporary h.
struct PhiOcc {
  BlockId Block = InvalidBlock;
  int Class = -1;
  std::vector<PhiOperand> Operands; ///< Aligned with Cfg preds of Block.

  /// Versions of the variable operands current at the Φ (block entry,
  /// after variable phis) — used by Rename to match real occurrences.
  int LVerAtEntry = 0, RVerAtEntry = 0;

  // ---- SSAPRE attributes (safe placement; Kennedy et al.) ----
  bool DownSafe = false;
  bool SpeculativeDownSafe = false; ///< SSAPREsp loop speculation.
  bool CanBeAvail = true;
  bool Later = true;

  // ---- MC-SSAPRE attributes (paper steps 3-4) ----
  bool FullyAvail = true;
  bool PartAnt = false;
  bool InReducedGraph = false;

  // ---- Shared result (paper step 8 / SSAPRE WillBeAvail) ----
  bool WillBeAvail = false;
};

/// The facts about one function that the FRGs of its candidates read,
/// built in one pass over the function: the dominance frontier, the
/// candidates and the blocks each occurs in, and per variable its phi
/// blocks and its defining blocks in dominator-tree preorder.
///
/// The facts stay valid while the per-candidate loop rewrites the
/// function. A code motion only adds definitions of its fresh temp and
/// turns its own candidate's computations into copies with the same
/// destination and version, so no candidate's occurrence blocks and no
/// variable definition move. Statement indices do shift, which is why
/// the FRG rescans its occurrence blocks in the current function.
class FrgSites {
public:
  /// Facts for every candidate of \p F, in collectCandidateExprs order.
  /// \p F must be in SSA form; \p C and \p DT must be current for it.
  FrgSites(const Function &F, const Cfg &C, const DomTree &DT);

  /// Facts for the one candidate \p E.
  FrgSites(const Function &F, const Cfg &C, const DomTree &DT,
           const ExprKey &E);

  const Cfg &cfg() const { return C; }
  const DomTree &domTree() const { return DT; }
  const std::vector<ExprKey> &candidates() const { return Candidates; }

  /// The reachable blocks candidate \p EI occurs in, ascending.
  const std::vector<BlockId> &occurrenceBlocks(unsigned EI) const {
    return OccurrenceBlocks[EI];
  }

  /// The reachable blocks with a phi of \p V.
  const std::vector<BlockId> &phiBlocks(VarId V) const {
    return Vars[V].PhiBlocks;
  }

  /// The version of \p V after the phis of block \p B, where B's
  /// expression Φ sits, and at the end of B: the version of its nearest
  /// dominating definition. A parameter is version 1 from the entry on;
  /// 0 means undefined, and so does InvalidVar (a constant operand).
  int versionAfterPhis(VarId V, BlockId B) const;
  int versionAtEnd(VarId V, BlockId B) const;

  /// True if a phi of \p V at \p Join takes anything but a version of V
  /// along the edge from \p Pred (hand-written or copy-propagated SSA).
  bool substitutes(VarId V, BlockId Join, BlockId Pred) const;

  /// The iterated dominance frontier of \p Seeds (sorted).
  std::vector<BlockId> iteratedFrontier(
      const std::vector<BlockId> &Seeds) const {
    return DF.iterated(Seeds);
  }

private:
  /// A reachable block that defines a variable.
  struct DefSite {
    BlockId Block = InvalidBlock;
    int Key = 0;        ///< DT.preorderKey(Block).
    int PhiVersion = 0; ///< Version B's last phi of the variable defines.
    int EndVersion = 0; ///< Version live at the block's end.
    int Parent = -1;    ///< Nearest strictly dominating DefSite, or -1.
  };

  struct VarSites {
    bool IsParam = false;
    std::vector<BlockId> PhiBlocks;
    std::vector<DefSite> Defs; ///< In dominator-tree preorder.
    /// (join, predecessor) edges along which a phi of the variable takes
    /// something else, ascending.
    std::vector<std::pair<BlockId, BlockId>> Substituted;
  };

  void collectVarSites(const Function &F);
  /// Index into VS.Defs of the nearest definition dominating \p B (B
  /// included), or -1.
  int nearestDef(const VarSites &VS, BlockId B) const;

  const Cfg &C;
  const DomTree &DT;
  DominanceFrontier DF;
  std::vector<ExprKey> Candidates;
  std::vector<std::vector<BlockId>> OccurrenceBlocks;
  std::vector<VarSites> Vars;
};

/// The FRG for one candidate expression in one function.
class Frg {
public:
  /// Builds the FRG (steps 1 and 2) of candidate \p Candidate of
  /// \p Sites, against \p F as earlier candidates' code motions left it.
  /// \p F must be in SSA form with critical edges split.
  Frg(const Function &F, const FrgSites &Sites, unsigned Candidate);

  /// Builds the FRG of \p E through a FrgSites for \p E alone; \p C and
  /// \p DT must be current for \p F.
  Frg(const Function &F, const Cfg &C, const DomTree &DT, const ExprKey &E);

  const ExprKey &expr() const { return E; }
  const Function &function() const { return F; }
  const Cfg &cfg() const { return C; }
  const DomTree &domTree() const { return DT; }

  std::vector<RealOcc> &reals() { return Reals; }
  const std::vector<RealOcc> &reals() const { return Reals; }
  std::vector<PhiOcc> &phis() { return Phis; }
  const std::vector<PhiOcc> &phis() const { return Phis; }

  /// Index into phis() of the Φ at block \p B, or -1.
  int phiAt(BlockId B) const;

  /// The index range [first, second) of reals() in block \p B (reals()
  /// is ordered by block, then statement).
  std::pair<unsigned, unsigned> realsIn(BlockId B) const;

  int numClasses() const { return NumClasses; }

  /// Class-defining occurrence of \p Class (a Φ, or a real occurrence
  /// that opened the class).
  OccRef classDef(int Class) const { return ClassDefs[Class]; }

  /// Allocates a fresh redundancy class defined by \p Def. Only the
  /// construction steps (Rename) call this.
  int allocateClass(OccRef Def) {
    ClassDefs.push_back(Def);
    return NumClasses++;
  }

  /// Returns phis()[Ref.Index] for a Phi ref (asserts otherwise).
  const PhiOcc &phiOf(OccRef Ref) const;
  PhiOcc &phiOf(OccRef Ref);

  /// Debug rendering of the whole graph.
  std::string dump() const;

private:
  friend class FrgBuilder;

  const Function &F;
  const Cfg &C;
  const DomTree &DT;
  ExprKey E;

  std::vector<RealOcc> Reals;
  std::vector<PhiOcc> Phis; ///< Ordered by block.
  std::vector<OccRef> ClassDefs;
  int NumClasses = 0;
};

} // namespace specpre

#endif // SPECPRE_PRE_FRG_H
