//===- profile/Profile.h - Execution profiles ------------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-frequency profiles. MC-SSAPRE only needs node (block)
/// frequencies — one of the paper's stated advantages over MC-PRE, which
/// needs edge frequencies (Sections 1 and 4). We collect both so the two
/// algorithms can be compared on equal footing, and so the
/// node-vs-edge-profile ablation can degrade a profile to node-only.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PROFILE_PROFILE_H
#define SPECPRE_PROFILE_PROFILE_H

#include "ir/Ir.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specpre {

/// Node and (optionally) edge execution frequencies for one function.
struct Profile {
  std::vector<uint64_t> BlockFreq;
  std::map<std::pair<BlockId, BlockId>, uint64_t> EdgeFreq;
  bool HasEdgeFreqs = false;

  /// Prepares the profile for collection over a function with
  /// \p NumBlocks blocks.
  void reset(unsigned NumBlocks, bool WithEdges);

  uint64_t blockFreq(BlockId B) const {
    return B < static_cast<BlockId>(BlockFreq.size()) ? BlockFreq[B] : 0;
  }

  uint64_t edgeFreq(BlockId From, BlockId To) const;

  /// Returns a copy with the edge frequencies dropped — what a cheaper
  /// node-only instrumentation would have produced.
  Profile withoutEdgeFreqs() const;

  /// Derives edge frequencies from node frequencies alone: a block's
  /// frequency is split across its successors (uniformly). This is the
  /// kind of estimation an edge-profile consumer must fall back to when
  /// only node profiles were collected, and is what the
  /// node-vs-edge-profile ablation feeds MC-PRE.
  Profile withEstimatedEdgeFreqs(const Function &F) const;

  /// Checks flow conservation on \p F: for every block except the entry,
  /// the block frequency equals the sum of incoming edge frequencies, and
  /// except for exit blocks, the sum of outgoing edge frequencies.
  /// Only meaningful when HasEdgeFreqs. Returns true if consistent.
  bool verifyConservation(const Function &F, std::string &Error) const;
};

/// Serializes a profile to a line-oriented text format (stable across
/// versions: `block <id> <freq>` and `edge <from> <to> <freq>` lines),
/// as an FDO build would persist between the training and optimizing
/// compiles.
std::string serializeProfile(const Profile &P);

/// Parses the format produced by serializeProfile. Returns false with a
/// message in \p Error on malformed input.
bool parseProfile(const std::string &Text, Profile &Out, std::string &Error);

} // namespace specpre

#endif // SPECPRE_PROFILE_PROFILE_H
