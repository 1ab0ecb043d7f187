//===- interp/Interpreter.cpp - IR interpreter -------------------------------===//
//
// The function is lowered once per call into one flat statement array over
// value slots, then run by one loop:
//
//  * Every operand is a slot. Constants live in preloaded slots; a
//    never-assigned non-SSA variable reads the constant-0 slot; a read of
//    a never-defined SSA value turns its statement into a fatal one, which
//    aborts only if executed.
//  * A computation dispatches once: its opcode is its statement code, and
//    the inline evalOpcode folds to the one operation in each case.
//  * Φs are edge copies. Each block has two successor edges, and each edge
//    holds the target's Φ copies for that predecessor, applied in parallel
//    when the edge is taken.
//  * A block whose steps all fit under MaxSteps adds its steps, cycles and
//    computations at once; a trap then takes back the statements after the
//    trapping one. Otherwise the block runs checked, one statement at a
//    time. One template on `Checked` holds the statement body for both.
//  * Block and edge counts go in flat arrays and become a Profile on exit.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "support/Diagnostics.h"

#include <sstream>
#include <unordered_map>

using namespace specpre;

std::string ExecResult::describe() const {
  std::ostringstream OS;
  if (Trapped)
    OS << "trapped";
  else if (TimedOut)
    OS << "timed out";
  else
    OS << "ret " << ReturnValue;
  OS << ", prints [";
  for (size_t I = 0; I != Output.size(); ++I)
    OS << (I ? " " : "") << Output[I];
  OS << "], " << DynamicComputations << " dynamic computations, " << Cycles
     << " cycles";
  return OS.str();
}

bool ExecResult::sameObservableBehavior(const ExecResult &O) const {
  if (Trapped != O.Trapped || TimedOut != O.TimedOut)
    return false;
  if (Output != O.Output)
    return false;
  if (!Trapped && !TimedOut && ReturnValue != O.ReturnValue)
    return false;
  return true;
}

namespace {

/// Statement codes of the flat program. A computation's code is its
/// Opcode, so the codes below start after the last opcode.
enum : uint8_t {
  CodeCopy = NumOpcodes,
  CodePrint,
  CodeJump,
  CodeBranch,
  CodeRet,
  CodeFatal,   ///< Aborts with FatalMessages[A] when executed.
  CodeFellOff, ///< Ends a block that has no terminator; not a step.
  NumCodes
};

/// Why a statement or an edge must abort if it is ever executed.
enum FatalKind : uint8_t {
  NoFatal,
  NeverDefinedRead,
  MissingPhiArg,
  PhiAfterNonPhi,
};

const char *const FatalMessages[] = {
    "",
    "interpreter: read of never-defined SSA value",
    "interpreter: phi has no argument for predecessor",
    "interpreter: phi after non-phi statement",
};

/// One flat statement. Operands and destinations are slot indices; a
/// Jump's or Branch's Dst is the index of its first successor edge.
struct Inst {
  uint8_t Code = CodeFatal;
  uint32_t Dst = 0, A = 0, B = 0;
};

struct FlatBlock {
  uint32_t First = 0, End = 0; ///< Its non-Φ statements in Insts.
  uint32_t NumPhis = 0;
  /// Totals of the whole block, Φs and terminator included.
  uint64_t Steps = 0, Cycles = 0, Computations = 0;
};

/// A successor edge: the target and the target's Φ copies for it.
struct FlatEdge {
  BlockId Target = InvalidBlock;
  uint32_t CopyBegin = 0, CopyEnd = 0;
  FatalKind Fatal = NoFatal; ///< The first Φ of the target that cannot run.
};

struct Copy {
  uint32_t Dst, Src;
};

/// The function lowered to flat, slot-addressed form.
class FlatFunction {
public:
  FlatFunction(const Function &F, const CostModel &CM);

  std::vector<Inst> Insts;
  std::vector<FlatBlock> Blocks;
  std::vector<FlatEdge> Edges; ///< Two per block: [2B] true/jump, [2B+1].
  std::vector<Copy> Copies;
  std::vector<int64_t> Init;       ///< Initial slot values (constants).
  std::vector<uint32_t> ParamSlots; ///< Per parameter: its (P,1), (P,0).
  uint64_t CostOf[NumCodes] = {};
  uint64_t PhiCost = 0;

private:
  static uint64_t key(VarId V, int Version) {
    return static_cast<uint64_t>(static_cast<uint32_t>(V)) << 32 |
           static_cast<uint32_t>(Version);
  }
  uint32_t slotFor(VarId V, int Version);
  uint32_t constSlot(int64_t Value);
  /// The slot \p O reads, or NoSlot for a never-defined SSA value.
  uint32_t readSlot(const Operand &O);
  Inst lower(const Stmt &S, uint32_t B);
  void lowerEdge(const Function &F, BlockId From, unsigned Succ,
                 BlockId Target);

  static constexpr uint32_t NoSlot = ~0u;
  std::unordered_map<uint64_t, uint32_t> VarSlots;
  std::unordered_map<int64_t, uint32_t> ConstSlots;
};

uint32_t FlatFunction::slotFor(VarId V, int Version) {
  auto [It, Inserted] =
      VarSlots.emplace(key(V, Version), static_cast<uint32_t>(Init.size()));
  if (Inserted)
    Init.push_back(0);
  return It->second;
}

uint32_t FlatFunction::constSlot(int64_t Value) {
  auto [It, Inserted] =
      ConstSlots.emplace(Value, static_cast<uint32_t>(Init.size()));
  if (Inserted)
    Init.push_back(Value);
  return It->second;
}

uint32_t FlatFunction::readSlot(const Operand &O) {
  if (O.isConst())
    return constSlot(O.Value);
  auto It = VarSlots.find(key(O.Var, O.Version));
  if (It != VarSlots.end())
    return It->second;
  // Never assigned: a non-SSA read is a deterministic 0 (registers hold
  // *some* value there; see the MC-PRE speculation discussion in
  // DESIGN.md), an SSA read a compiler bug.
  return O.Version == 0 ? constSlot(0) : NoSlot;
}

Inst FlatFunction::lower(const Stmt &S, uint32_t B) {
  Inst I;
  switch (S.Kind) {
  case StmtKind::Copy:
    I = {CodeCopy, slotFor(S.Dest, S.DestVersion), readSlot(S.Src0)};
    break;
  case StmtKind::Compute:
    I = {static_cast<uint8_t>(S.Op), slotFor(S.Dest, S.DestVersion),
         readSlot(S.Src0), readSlot(S.Src1)};
    break;
  case StmtKind::Print:
    I = {CodePrint, 0, readSlot(S.Src0)};
    break;
  case StmtKind::Jump:
    I = {CodeJump, 2 * B};
    break;
  case StmtKind::Branch:
    I = {CodeBranch, 2 * B, readSlot(S.Src0)};
    break;
  case StmtKind::Ret:
    I = {CodeRet, 0, readSlot(S.Src0)};
    break;
  case StmtKind::Phi:
    return Inst{CodeFatal, 0, PhiAfterNonPhi};
  }
  if (I.A == NoSlot || I.B == NoSlot)
    return Inst{CodeFatal, 0, NeverDefinedRead};
  return I;
}

void FlatFunction::lowerEdge(const Function &F, BlockId From, unsigned Succ,
                             BlockId Target) {
  assert(Target >= 0 && Target < static_cast<BlockId>(F.numBlocks()) &&
         "branch to a block that does not exist");
  uint32_t Idx = 2 * static_cast<uint32_t>(From) + Succ;
  FlatEdge &E = Edges[Idx];
  E.Target = Target;
  E.CopyBegin = static_cast<uint32_t>(Copies.size());
  for (const Stmt &S : F.Blocks[Target].Stmts) {
    if (S.Kind != StmtKind::Phi)
      break;
    // Where several arguments name this predecessor, the last one wins.
    const PhiArg *Arg = nullptr;
    for (const PhiArg &A : S.PhiArgs)
      if (A.Pred == From)
        Arg = &A;
    uint32_t Src = Arg ? readSlot(Arg->Val) : NoSlot;
    if (Src == NoSlot) {
      if (E.Fatal == NoFatal)
        E.Fatal = Arg ? NeverDefinedRead : MissingPhiArg;
      continue;
    }
    Copies.push_back({slotFor(S.Dest, S.DestVersion), Src});
  }
  E.CopyEnd = static_cast<uint32_t>(Copies.size());
}

FlatFunction::FlatFunction(const Function &F, const CostModel &CM) {
  for (unsigned Op = 0; Op != NumOpcodes; ++Op)
    CostOf[Op] = CM.computeCost(static_cast<Opcode>(Op));
  CostOf[CodeCopy] = CM.CopyCost;
  CostOf[CodePrint] = CM.PrintCost;
  CostOf[CodeJump] = CM.JumpCost;
  CostOf[CodeBranch] = CM.BranchCost;
  CostOf[CodeRet] = CM.RetCost;
  PhiCost = CM.PhiCost;

  // Variable slots first: parameters, then every definition.
  for (VarId P : F.Params) {
    ParamSlots.push_back(slotFor(P, 1));
    ParamSlots.push_back(slotFor(P, 0));
  }
  for (const BasicBlock &BB : F.Blocks)
    for (const Stmt &S : BB.Stmts)
      if (S.definesValue())
        slotFor(S.Dest, S.DestVersion);

  unsigned N = F.numBlocks();
  Blocks.resize(N);
  Edges.resize(2 * static_cast<size_t>(N));
  for (uint32_t B = 0; B != N; ++B) {
    const std::vector<Stmt> &Stmts = F.Blocks[B].Stmts;
    FlatBlock &FB = Blocks[B];
    FB.NumPhis = F.Blocks[B].firstNonPhiIdx();
    FB.First = static_cast<uint32_t>(Insts.size());
    FB.Steps = FB.NumPhis;
    FB.Cycles = FB.NumPhis * PhiCost;
    bool Terminated = false;
    for (size_t K = FB.NumPhis; K != Stmts.size() && !Terminated; ++K) {
      const Stmt &S = Stmts[K];
      Inst I = lower(S, B);
      Insts.push_back(I);
      ++FB.Steps;
      FB.Cycles += CostOf[I.Code];
      FB.Computations += I.Code < NumOpcodes;
      // Statements after the first terminator never run.
      Terminated = S.isTerminator();
      if (I.Code == CodeJump || I.Code == CodeBranch)
        lowerEdge(F, static_cast<BlockId>(B), 0, S.TrueTarget);
      if (I.Code == CodeBranch)
        lowerEdge(F, static_cast<BlockId>(B), 1, S.FalseTarget);
    }
    if (!Terminated)
      Insts.push_back(Inst{CodeFellOff});
    FB.End = static_cast<uint32_t>(Insts.size());
  }
}

enum class Exit : uint8_t { Edge, Return, Trap, Timeout };

/// The state of one run.
struct Machine {
  const FlatFunction &P;
  int64_t *V;
  std::vector<int64_t> &Output;
  uint64_t MaxSteps;
  uint64_t Steps = 0, Cycles = 0, Computations = 0;
  uint32_t Edge = 0; ///< Exit::Edge: the edge taken.
  uint32_t At = 0;   ///< Exit::Trap: the trapping statement.
  int64_t Ret = 0;   ///< Exit::Return: the value returned.

  /// Runs the block whose first non-Φ statement is \p K, up to its exit.
  /// Unchecked, the caller has already accounted for the whole block;
  /// checked, every statement counts itself after the cap check.
  template <bool Checked>
  [[gnu::always_inline]] inline Exit run(uint32_t K);
};

template <bool Checked> Exit Machine::run(uint32_t K) {
  for (;; ++K) {
    const Inst &I = P.Insts[K];
    if constexpr (Checked) {
      if (I.Code != CodeFellOff && ++Steps > MaxSteps)
        return Exit::Timeout;
      Cycles += P.CostOf[I.Code];
    }
    switch (I.Code) {
#define SPECPRE_COMPUTE(OP)                                                    \
  case static_cast<uint8_t>(Opcode::OP): {                                     \
    bool Faulted = false;                                                      \
    int64_t R = evalOpcode(Opcode::OP, V[I.A], V[I.B], Faulted);               \
    if constexpr (Checked)                                                     \
      ++Computations;                                                          \
    if (Faulted) {                                                             \
      At = K;                                                                  \
      return Exit::Trap;                                                       \
    }                                                                          \
    V[I.Dst] = R;                                                              \
    break;                                                                     \
  }
      SPECPRE_COMPUTE(Add)
      SPECPRE_COMPUTE(Sub)
      SPECPRE_COMPUTE(Mul)
      SPECPRE_COMPUTE(Div)
      SPECPRE_COMPUTE(Mod)
      SPECPRE_COMPUTE(And)
      SPECPRE_COMPUTE(Or)
      SPECPRE_COMPUTE(Xor)
      SPECPRE_COMPUTE(Shl)
      SPECPRE_COMPUTE(Shr)
      SPECPRE_COMPUTE(Min)
      SPECPRE_COMPUTE(Max)
      SPECPRE_COMPUTE(CmpEq)
      SPECPRE_COMPUTE(CmpNe)
      SPECPRE_COMPUTE(CmpLt)
      SPECPRE_COMPUTE(CmpLe)
      SPECPRE_COMPUTE(CmpGt)
      SPECPRE_COMPUTE(CmpGe)
#undef SPECPRE_COMPUTE
    case CodeCopy:
      V[I.Dst] = V[I.A];
      break;
    case CodePrint:
      Output.push_back(V[I.A]);
      break;
    case CodeJump:
      Edge = I.Dst;
      return Exit::Edge;
    case CodeBranch:
      Edge = V[I.A] != 0 ? I.Dst : I.Dst + 1;
      return Exit::Edge;
    case CodeRet:
      Ret = V[I.A];
      return Exit::Return;
    case CodeFatal:
      reportFatalError(FatalMessages[I.A]);
    case CodeFellOff:
      reportFatalError("interpreter: fell off the end of a block");
    default:
      SPECPRE_UNREACHABLE("bad statement code");
    }
  }
}

} // namespace

ExecResult specpre::interpret(const Function &F,
                              const std::vector<int64_t> &Args,
                              const ExecOptions &Opts) {
  if (Args.size() != F.Params.size())
    reportFatalError("interpret: argument count mismatch for '" + F.Name +
                     "'");
  ExecResult Res;
  FlatFunction P(F, Opts.Costs);
  std::vector<int64_t> Values = P.Init;
  for (size_t I = 0; I != Args.size(); ++I) {
    Values[P.ParamSlots[2 * I]] = Args[I];
    Values[P.ParamSlots[2 * I + 1]] = Args[I];
  }
  if (P.Blocks[0].NumPhis != 0)
    reportFatalError("interpreter: phi in entry block");

  std::vector<uint64_t> EdgeCount(P.Edges.size(), 0);
  std::vector<int64_t> Staged;
  Machine M{P, Values.data(), Res.Output, Opts.MaxSteps};
  BlockId Cur = 0;
  Exit E;
  for (;;) {
    const FlatBlock &B = P.Blocks[Cur];
    if (B.Steps <= M.MaxSteps - M.Steps) {
      M.Steps += B.Steps;
      M.Cycles += B.Cycles;
      M.Computations += B.Computations;
      E = M.run<false>(B.First);
      if (E == Exit::Trap) {
        // Take back what the block would have run after the trap.
        for (uint32_t K = M.At + 1; K != B.End; ++K) {
          uint8_t Code = P.Insts[K].Code;
          M.Steps -= Code != CodeFellOff;
          M.Cycles -= P.CostOf[Code];
          M.Computations -= Code < NumOpcodes;
        }
      }
    } else {
      // Φs count as steps without a cap check.
      M.Steps += B.NumPhis;
      M.Cycles += B.NumPhis * P.PhiCost;
      E = M.run<true>(B.First);
    }
    if (E != Exit::Edge)
      break;
    ++EdgeCount[M.Edge];
    const FlatEdge &Ed = P.Edges[M.Edge];
    if (Ed.Fatal != NoFatal)
      reportFatalError(FatalMessages[Ed.Fatal]);
    // The copies read the predecessor's values, then all write.
    Staged.clear();
    for (uint32_t C = Ed.CopyBegin; C != Ed.CopyEnd; ++C)
      Staged.push_back(Values[P.Copies[C].Src]);
    for (uint32_t C = Ed.CopyBegin; C != Ed.CopyEnd; ++C)
      Values[P.Copies[C].Dst] = Staged[C - Ed.CopyBegin];
    Cur = Ed.Target;
  }

  Res.ReturnValue = E == Exit::Return ? M.Ret : 0;
  Res.Trapped = E == Exit::Trap;
  Res.TimedOut = E == Exit::Timeout;
  Res.StepsExecuted = M.Steps;
  Res.Cycles = M.Cycles;
  Res.DynamicComputations = M.Computations;
  if (Profile *Prof = Opts.CollectProfile) {
    // Every block entry but the first is the end of a taken edge. `br c,
    // L, L` has two edge slots but one edge: their counts add up.
    Prof->reset(F.numBlocks(), /*WithEdges=*/true);
    Prof->BlockFreq[0] = 1;
    for (size_t I = 0; I != EdgeCount.size(); ++I) {
      if (EdgeCount[I] == 0)
        continue;
      BlockId Target = P.Edges[I].Target;
      Prof->BlockFreq[Target] += EdgeCount[I];
      Prof->EdgeFreq[{static_cast<BlockId>(I / 2), Target}] += EdgeCount[I];
    }
  }
  return Res;
}
