//===- pre/FrgInternal.h - FRG-internal interfaces -------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interfaces private to the FRG construction translation units.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_FRGINTERNAL_H
#define SPECPRE_PRE_FRGINTERNAL_H

#include "pre/Frg.h"

namespace specpre {
namespace detail {

/// Step 2 of SSAPRE/MC-SSAPRE: assigns redundancy classes to all
/// occurrences, fills Φ operands (class, has_real_use, versions at the
/// predecessor ends) and marks rg_excluded real occurrences, reading
/// operand versions from \p Sites. Defined in FrgRename.cpp.
void renameFrg(Frg &G, const FrgSites &Sites);

} // namespace detail
} // namespace specpre

#endif // SPECPRE_PRE_FRGINTERNAL_H
