//===- ir/Parser.cpp - Textual IR parser -----------------------------------===//

#include "ir/Parser.h"

#include "support/Diagnostics.h"

#include <cctype>
#include <cstdint>
#include <map>
#include <vector>

using namespace specpre;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokKind {
  Ident,
  Number,
  Punct, // one of ( ) { } [ ] , : = # and operator spellings
  Error, // malformed lexeme; Text holds the diagnostic
  Eof,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;
  int64_t Value = 0;
  unsigned Line = 0;
  unsigned Col = 0;
};

class Lexer {
public:
  Lexer(std::string_view Text) : Text(Text) {}

  Token next() {
    skipWhitespaceAndComments();
    unsigned TokLine = Line;
    unsigned TokCol = static_cast<unsigned>(Pos - LineStart) + 1;
    Token T;
    if (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
        T = lexIdent();
      else if (std::isdigit(static_cast<unsigned char>(C)))
        T = lexNumber();
      else
        T = lexPunct();
    }
    T.Line = TokLine;
    T.Col = TokCol;
    return T;
  }

private:
  void skipWhitespaceAndComments() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
        LineStart = Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
      } else {
        return;
      }
    }
  }

  Token lexIdent() {
    Token T;
    T.Kind = TokKind::Ident;
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '.' || Text[Pos] == '$'))
      ++Pos;
    T.Text = std::string(Text.substr(Start, Pos - Start));
    return T;
  }

  Token lexNumber() {
    Token T;
    T.Kind = TokKind::Number;
    size_t Start = Pos;
    bool Overflow = false;
    int64_t V = 0;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
      int64_t D = Text[Pos] - '0';
      if (V > (INT64_MAX - D) / 10)
        Overflow = true;
      else
        V = V * 10 + D;
      ++Pos;
    }
    T.Text = std::string(Text.substr(Start, Pos - Start));
    if (Overflow) {
      T.Kind = TokKind::Error;
      T.Text = "integer literal '" + T.Text + "' out of range";
    } else {
      T.Value = V;
    }
    return T;
  }

  Token lexPunct() {
    Token T;
    T.Kind = TokKind::Punct;
    // Two-character operators first.
    static const char *TwoChar[] = {"==", "!=", "<=", ">=", "<<", ">>"};
    if (Pos + 1 < Text.size()) {
      std::string Two = std::string(Text.substr(Pos, 2));
      for (const char *Op : TwoChar) {
        if (Two == Op) {
          T.Text = Two;
          Pos += 2;
          return T;
        }
      }
    }
    T.Text = std::string(1, Text[Pos]);
    ++Pos;
    return T;
  }

  std::string_view Text;
  size_t Pos = 0;
  size_t LineStart = 0;
  unsigned Line = 1;
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

/// A statement with unresolved (string) control-flow targets, produced
/// while the set of block labels is still being discovered.
struct PendingStmt {
  Stmt S;
  std::string TrueLabel, FalseLabel;      // Branch/Jump.
  std::vector<std::string> PhiPredLabels; // Phi, aligned with S.PhiArgs.
  unsigned Line = 0;
};

struct PendingBlock {
  std::string Label;
  std::vector<PendingStmt> Stmts;
};

class Parser {
public:
  Parser(std::string_view Text) : Lex(Text) { advance(); }

  std::optional<Module> parseModule(std::string &Error) {
    Module M;
    while (Tok.Kind != TokKind::Eof) {
      std::optional<Function> F = parseFunction();
      if (!F) {
        Error = Err;
        return std::nullopt;
      }
      M.Functions.push_back(std::move(*F));
    }
    return M;
  }

private:
  void advance() {
    Tok = Lex.next();
    // A malformed lexeme carries its own diagnostic; record it now so the
    // inevitable downstream mismatch reports the root cause.
    if (Tok.Kind == TokKind::Error)
      fail(Tok.Text);
  }

  bool fail(const std::string &Message) {
    if (Err.empty())
      Err = "line " + std::to_string(Tok.Line) + ", col " +
            std::to_string(Tok.Col) + ": " + Message;
    return false;
  }

  bool expectPunct(const std::string &P) {
    if (Tok.Kind == TokKind::Punct && Tok.Text == P) {
      advance();
      return true;
    }
    return fail("expected '" + P + "', found '" + Tok.Text + "'");
  }

  bool isPunct(const std::string &P) const {
    return Tok.Kind == TokKind::Punct && Tok.Text == P;
  }

  bool isIdent(const std::string &S) const {
    return Tok.Kind == TokKind::Ident && Tok.Text == S;
  }

  bool parseIdent(std::string &Out) {
    if (Tok.Kind != TokKind::Ident)
      return fail("expected identifier, found '" + Tok.Text + "'");
    Out = Tok.Text;
    advance();
    return true;
  }

  std::optional<Function> parseFunction();

  /// Parses statements until the next `label:` or `}`. On success,
  /// \p NextLabel holds the upcoming label, or is empty when the function
  /// body ended with `}` (which is left unconsumed).
  bool parseBlockBody(PendingBlock &PB, std::string &NextLabel);

  /// Parses one keyword statement (br/jmp/ret/print).
  bool parseKeywordStatement(PendingBlock &PB);

  /// Parses the right-hand side of `Dest = ...` (phi or expression).
  bool parseAssignmentRhs(PendingBlock &PB, VarId Dest, int DestVersion);

  bool parsePhi(PendingBlock &PB, VarId Dest, int DestVersion);

  /// Parses an optional `#version` suffix.
  bool parseOptionalVersion(int &Version);

  /// Parses `name` or `name#version` into a variable Operand.
  bool parseVarRef(Operand &Out);

  /// Parses an atom: number, -number, variable ref, parenthesized
  /// expression, or min/max call.
  bool parseAtom(PendingBlock &PB, Operand &Out);

  /// Precedence-climbing expression parser; flattens nested operations
  /// into fresh temporaries appended to \p PB.
  bool parseExpr(PendingBlock &PB, int MinPrec, Operand &Out);

  /// If the current token is a binary operator, returns its precedence
  /// (higher binds tighter) and opcode; otherwise returns -1.
  int currentBinop(Opcode &Op) const;

  /// Emits `Temp = L Op R` into \p PB and returns the temp as an operand.
  Operand materialize(PendingBlock &PB, Opcode Op, Operand L, Operand R);

  /// Runs \p Parse one expression nesting level deeper (a parenthesis,
  /// unary minus or min/max call, each of which recurses once). Input
  /// nested deeper than MaxExprNesting is refused at the current token
  /// before the recursion can exhaust the stack.
  template <class Fn> bool nested(Fn &&Parse) {
    if (Depth == MaxExprNesting)
      return fail("expression nested too deeply");
    ++Depth;
    bool Ok = Parse();
    --Depth;
    return Ok;
  }

  bool resolveFunction(Function &F, std::vector<PendingBlock> &Pending,
                       std::string &Error);

  Lexer Lex;
  Token Tok;
  std::string Err;
  Function *CurF = nullptr;
  /// The temp most recently created by materialize(). The assignment
  /// parser retargets a just-materialized top-level Compute onto the
  /// assignment's destination; tracking the temp by id (not by its "t$"
  /// name prefix) keeps a source program's own t$-named variables safe
  /// from that peephole.
  VarId LastMaterialized = InvalidVar;
  /// Current expression nesting depth (see nested()).
  unsigned Depth = 0;
};

int Parser::currentBinop(Opcode &Op) const {
  if (Tok.Kind != TokKind::Punct)
    return -1;
  const std::string &T = Tok.Text;
  if (T == "|") {
    Op = Opcode::Or;
    return 1;
  }
  if (T == "^") {
    Op = Opcode::Xor;
    return 2;
  }
  if (T == "&") {
    Op = Opcode::And;
    return 3;
  }
  if (T == "==") {
    Op = Opcode::CmpEq;
    return 4;
  }
  if (T == "!=") {
    Op = Opcode::CmpNe;
    return 4;
  }
  if (T == "<") {
    Op = Opcode::CmpLt;
    return 5;
  }
  if (T == "<=") {
    Op = Opcode::CmpLe;
    return 5;
  }
  if (T == ">") {
    Op = Opcode::CmpGt;
    return 5;
  }
  if (T == ">=") {
    Op = Opcode::CmpGe;
    return 5;
  }
  if (T == "<<") {
    Op = Opcode::Shl;
    return 6;
  }
  if (T == ">>") {
    Op = Opcode::Shr;
    return 6;
  }
  if (T == "+") {
    Op = Opcode::Add;
    return 7;
  }
  if (T == "-") {
    Op = Opcode::Sub;
    return 7;
  }
  if (T == "*") {
    Op = Opcode::Mul;
    return 8;
  }
  if (T == "/") {
    Op = Opcode::Div;
    return 8;
  }
  if (T == "%") {
    Op = Opcode::Mod;
    return 8;
  }
  return -1;
}

Operand Parser::materialize(PendingBlock &PB, Opcode Op, Operand L,
                            Operand R) {
  VarId Temp = CurF->makeFreshVar("t$");
  PendingStmt PS;
  PS.S = Stmt::makeCompute(Temp, Op, L, R);
  PS.Line = Tok.Line;
  PB.Stmts.push_back(std::move(PS));
  LastMaterialized = Temp;
  return Operand::makeVar(Temp);
}

bool Parser::parseOptionalVersion(int &Version) {
  Version = 0;
  if (!isPunct("#"))
    return true;
  advance();
  if (Tok.Kind != TokKind::Number)
    return fail("expected version number after '#'");
  Version = static_cast<int>(Tok.Value);
  advance();
  return true;
}

bool Parser::parseVarRef(Operand &Out) {
  std::string Name;
  if (!parseIdent(Name))
    return false;
  int Version;
  if (!parseOptionalVersion(Version))
    return false;
  Out = Operand::makeVar(CurF->getOrAddVar(Name), Version);
  return true;
}

bool Parser::parseAtom(PendingBlock &PB, Operand &Out) {
  if (Tok.Kind == TokKind::Number) {
    Out = Operand::makeConst(Tok.Value);
    advance();
    return true;
  }
  if (isPunct("-")) {
    advance();
    if (Tok.Kind == TokKind::Number) {
      Out = Operand::makeConst(-Tok.Value);
      advance();
      return true;
    }
    // Unary minus on a general atom: materialize `0 - atom`.
    Operand Inner;
    if (!nested([&] { return parseAtom(PB, Inner); }))
      return false;
    Out = materialize(PB, Opcode::Sub, Operand::makeConst(0), Inner);
    return true;
  }
  if (isPunct("(")) {
    return nested([&] {
      advance();
      return parseExpr(PB, 0, Out) && expectPunct(")");
    });
  }
  if (isIdent("min") || isIdent("max")) {
    Opcode Op = isIdent("min") ? Opcode::Min : Opcode::Max;
    Operand L, R;
    if (!nested([&] {
          advance();
          return expectPunct("(") && parseExpr(PB, 0, L) &&
                 expectPunct(",") && parseExpr(PB, 0, R) && expectPunct(")");
        }))
      return false;
    Out = materialize(PB, Op, L, R);
    return true;
  }
  if (Tok.Kind == TokKind::Ident)
    return parseVarRef(Out);
  return fail("expected expression atom, found '" + Tok.Text + "'");
}

bool Parser::parseExpr(PendingBlock &PB, int MinPrec, Operand &Out) {
  Operand Lhs;
  if (!parseAtom(PB, Lhs))
    return false;
  for (;;) {
    Opcode Op;
    int Prec = currentBinop(Op);
    if (Prec < 0 || Prec < MinPrec)
      break;
    advance();
    Operand Rhs;
    if (!parseExpr(PB, Prec + 1, Rhs))
      return false;
    Lhs = materialize(PB, Op, Lhs, Rhs);
  }
  Out = Lhs;
  return true;
}

bool Parser::parsePhi(PendingBlock &PB, VarId Dest, int DestVersion) {
  PendingStmt PS;
  PS.Line = Tok.Line;
  std::vector<PhiArg> Args;
  while (isPunct("[")) {
    advance();
    std::string PredLabel;
    if (!parseIdent(PredLabel) || !expectPunct(":"))
      return false;
    Operand Val;
    if (Tok.Kind == TokKind::Number) {
      Val = Operand::makeConst(Tok.Value);
      advance();
    } else if (isPunct("-")) {
      advance();
      if (Tok.Kind != TokKind::Number)
        return fail("expected number after '-' in phi argument");
      Val = Operand::makeConst(-Tok.Value);
      advance();
    } else if (!parseVarRef(Val)) {
      return false;
    }
    if (!expectPunct("]"))
      return false;
    PhiArg A;
    A.Pred = InvalidBlock; // resolved later via PhiPredLabels
    A.Val = Val;
    Args.push_back(A);
    PS.PhiPredLabels.push_back(PredLabel);
  }
  if (Args.empty())
    return fail("phi requires at least one [pred: value] argument");
  PS.S = Stmt::makePhi(Dest, std::move(Args), DestVersion);
  PB.Stmts.push_back(std::move(PS));
  return true;
}

bool Parser::parseAssignmentRhs(PendingBlock &PB, VarId Dest,
                                int DestVersion) {
  if (isIdent("phi")) {
    advance();
    return parsePhi(PB, Dest, DestVersion);
  }
  unsigned Line = Tok.Line;
  Operand Val;
  if (!parseExpr(PB, 0, Val))
    return false;
  // If the expression parser just materialized a temp for the top-level
  // operation, retarget that Compute to the destination instead of adding
  // a Copy — keeps parsed code in the canonical three-address shape.
  if (Val.isVar() && Val.Var == LastMaterialized && !PB.Stmts.empty() &&
      PB.Stmts.back().S.Kind == StmtKind::Compute &&
      PB.Stmts.back().S.Dest == Val.Var) {
    PB.Stmts.back().S.Dest = Dest;
    PB.Stmts.back().S.DestVersion = DestVersion;
    return true;
  }
  PendingStmt PS;
  PS.Line = Line;
  PS.S = Stmt::makeCopy(Dest, Val, DestVersion);
  PB.Stmts.push_back(std::move(PS));
  return true;
}

bool Parser::parseKeywordStatement(PendingBlock &PB) {
  if (isIdent("br")) {
    advance();
    Operand Cond;
    if (!parseExpr(PB, 0, Cond) || !expectPunct(","))
      return false;
    PendingStmt PS;
    PS.Line = Tok.Line;
    if (!parseIdent(PS.TrueLabel) || !expectPunct(",") ||
        !parseIdent(PS.FalseLabel))
      return false;
    PS.S = Stmt::makeBranch(Cond, InvalidBlock, InvalidBlock);
    PB.Stmts.push_back(std::move(PS));
    return true;
  }
  if (isIdent("jmp")) {
    advance();
    PendingStmt PS;
    PS.Line = Tok.Line;
    if (!parseIdent(PS.TrueLabel))
      return false;
    PS.S = Stmt::makeJump(InvalidBlock);
    PB.Stmts.push_back(std::move(PS));
    return true;
  }
  if (isIdent("ret")) {
    advance();
    Operand V;
    if (!parseExpr(PB, 0, V))
      return false;
    PendingStmt PS;
    PS.Line = Tok.Line;
    PS.S = Stmt::makeRet(V);
    PB.Stmts.push_back(std::move(PS));
    return true;
  }
  if (isIdent("print")) {
    advance();
    Operand V;
    if (!parseExpr(PB, 0, V))
      return false;
    PendingStmt PS;
    PS.Line = Tok.Line;
    PS.S = Stmt::makePrint(V);
    PB.Stmts.push_back(std::move(PS));
    return true;
  }
  return fail("expected a statement, found '" + Tok.Text + "'");
}

bool Parser::parseBlockBody(PendingBlock &PB, std::string &NextLabel) {
  NextLabel.clear();
  for (;;) {
    if (isPunct("}"))
      return true;
    if (Tok.Kind == TokKind::Eof)
      return fail("unexpected end of input inside function body");
    if (Tok.Kind == TokKind::Ident && !isIdent("br") && !isIdent("jmp") &&
        !isIdent("ret") && !isIdent("print")) {
      // Either `label:` or `var[#v] = ...`; disambiguate after consuming
      // the identifier.
      std::string Name = Tok.Text;
      advance();
      if (isPunct(":")) {
        advance();
        NextLabel = Name;
        return true;
      }
      int Version;
      if (!parseOptionalVersion(Version) || !expectPunct("="))
        return false;
      if (!parseAssignmentRhs(PB, CurF->getOrAddVar(Name), Version))
        return false;
      continue;
    }
    if (!parseKeywordStatement(PB))
      return false;
  }
}

std::optional<Function> Parser::parseFunction() {
  if (!isIdent("func")) {
    fail("expected 'func'");
    return std::nullopt;
  }
  advance();
  Function F;
  CurF = &F;
  if (!parseIdent(F.Name))
    return std::nullopt;
  if (!expectPunct("("))
    return std::nullopt;
  while (!isPunct(")")) {
    std::string PName;
    if (!parseIdent(PName))
      return std::nullopt;
    F.Params.push_back(F.getOrAddVar(PName));
    if (isPunct(","))
      advance();
    else
      break;
  }
  if (!expectPunct(")") || !expectPunct("{"))
    return std::nullopt;

  // The body must start with a label.
  if (Tok.Kind != TokKind::Ident) {
    fail("expected block label");
    return std::nullopt;
  }
  std::string Label = Tok.Text;
  advance();
  if (!expectPunct(":"))
    return std::nullopt;

  std::vector<PendingBlock> Pending;
  for (;;) {
    PendingBlock PB;
    PB.Label = Label;
    std::string NextLabel;
    if (!parseBlockBody(PB, NextLabel))
      return std::nullopt;
    Pending.push_back(std::move(PB));
    if (NextLabel.empty())
      break; // saw '}'
    Label = NextLabel;
  }
  if (!expectPunct("}"))
    return std::nullopt;

  std::string Error;
  if (!resolveFunction(F, Pending, Error)) {
    fail(Error);
    return std::nullopt;
  }
  CurF = nullptr;
  return F;
}

bool Parser::resolveFunction(Function &F, std::vector<PendingBlock> &Pending,
                             std::string &Error) {
  std::map<std::string, BlockId> LabelIds;
  for (PendingBlock &PB : Pending) {
    if (LabelIds.count(PB.Label)) {
      Error = "duplicate block label '" + PB.Label + "'";
      return false;
    }
    LabelIds[PB.Label] = F.addBlock(PB.Label);
  }
  auto Resolve = [&](const std::string &L, BlockId &Out) {
    auto It = LabelIds.find(L);
    if (It == LabelIds.end()) {
      Error = "reference to unknown block label '" + L + "'";
      return false;
    }
    Out = It->second;
    return true;
  };
  bool AnyVersion = false;
  for (unsigned BI = 0; BI != Pending.size(); ++BI) {
    BasicBlock &BB = F.Blocks[BI];
    for (PendingStmt &PS : Pending[BI].Stmts) {
      Stmt S = std::move(PS.S);
      if (S.Kind == StmtKind::Branch) {
        if (!Resolve(PS.TrueLabel, S.TrueTarget) ||
            !Resolve(PS.FalseLabel, S.FalseTarget))
          return false;
      } else if (S.Kind == StmtKind::Jump) {
        if (!Resolve(PS.TrueLabel, S.TrueTarget))
          return false;
      } else if (S.Kind == StmtKind::Phi) {
        for (unsigned AI = 0; AI != S.PhiArgs.size(); ++AI)
          if (!Resolve(PS.PhiPredLabels[AI], S.PhiArgs[AI].Pred))
            return false;
      }
      if (S.definesValue() && S.DestVersion > 0)
        AnyVersion = true;
      BB.Stmts.push_back(std::move(S));
    }
  }
  F.IsSSA = AnyVersion;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

std::optional<Module> specpre::parseModule(std::string_view Text,
                                           std::string &Error) {
  Parser P(Text);
  return P.parseModule(Error);
}

Function specpre::parseFunctionOrDie(std::string_view Text) {
  std::string Error;
  std::optional<Module> M = parseModule(Text, Error);
  if (!M || M->Functions.empty())
    reportFatalError("parse failed: " +
                     (Error.empty() ? "no functions" : Error));
  return std::move(M->Functions.front());
}
