//===- ir/Parser.h - Textual IR parser -------------------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the textual IR. Example:
///
/// \code
///   func f(a, b) {
///   entry:
///     x = a + b * 2      // nested expressions are flattened into temps
///     br x > 0, then, done
///   then:
///     print x
///     jmp done
///   done:
///     ret x
///   }
/// \endcode
///
/// SSA versions are written with a '#' suffix (x#2); phis are written
/// `x = phi [pred1: a] [pred2: 3]`. Nested expressions are flattened into
/// fresh temporaries so that every Compute statement is a first-order
/// binary expression, exactly the candidate shape SSAPRE expects.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_IR_PARSER_H
#define SPECPRE_IR_PARSER_H

#include "ir/Ir.h"

#include <optional>
#include <string>
#include <string_view>

namespace specpre {

/// The deepest expression nesting the parser accepts: each parenthesis,
/// unary minus on a non-literal and min/max call is one level. Deeper
/// input fails with a located "expression nested too deeply" diagnostic
/// instead of recursing until the stack overflows.
constexpr unsigned MaxExprNesting = 1000;

/// Parses a whole module. On failure returns std::nullopt and stores a
/// human-readable message (with line number) in \p Error.
std::optional<Module> parseModule(std::string_view Text, std::string &Error);

/// Parses a module that must contain at least one function and returns the
/// first one. Aborts on parse failure — intended for tests and examples
/// whose inputs are string literals.
Function parseFunctionOrDie(std::string_view Text);

} // namespace specpre

#endif // SPECPRE_IR_PARSER_H
