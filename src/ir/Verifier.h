//===- ir/Verifier.h - IR well-formedness checks ---------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and SSA well-formedness verification, linear in the
/// function apart from a logarithmic definition lookup. Once the block
/// shapes and branch targets check out, predecessors and reachability
/// come from one analysis/Cfg and dominance from one analysis/DomTree
/// (an interval test per cross-block use); analysis_test cross-checks
/// DomTree against the naive remove-the-node oracle.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_IR_VERIFIER_H
#define SPECPRE_IR_VERIFIER_H

#include "ir/Ir.h"

#include <string>

namespace specpre {

/// Checks structural invariants (terminators, phi placement, target and
/// operand validity, phi/pred agreement, entry has no predecessors) and,
/// when F.IsSSA, SSA invariants (unique versioned defs, defs dominate
/// uses). Returns true when well-formed; otherwise false with a message in
/// \p Error.
bool verifyFunction(const Function &F, std::string &Error);

/// Verifies and aborts with the message on failure. For tests/examples.
void verifyFunctionOrDie(const Function &F, const std::string &Context);

} // namespace specpre

#endif // SPECPRE_IR_VERIFIER_H
