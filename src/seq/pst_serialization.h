// The legacy text format of released PST models (post-processing of the
// private output, like spatial/serialization.h).  It is read, never
// written: release::LoadMethod loads v1 files through LoadPstModelStream,
// and tests/golden/pst_privtree.v1.txt pins the format.  Format:
//
//   privtree-pst v1
//   alphabet <A>
//   nodes <count>
//   <parent> <h_0> ... <h_A>          (per node, id order; parent -1 for
//                                      the root; children are implied by
//                                      parent links + creation order)
//
// Children of a node are the β = A+1 consecutive nodes that name it as
// parent, in prepended-symbol order — the same invariant PstModel::
// SplitNode produces.
#ifndef PRIVTREE_SEQ_PST_SERIALIZATION_H_
#define PRIVTREE_SEQ_PST_SERIALIZATION_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "dp/status.h"
#include "seq/pst.h"

namespace privtree {

/// The v1 magic line; release/serialization.cc's compat shim recognizes it
/// so legacy files load through release::LoadMethod as a "pst_privtree"
/// method (with unknown, i.e. zero, ε).
inline constexpr std::string_view kPstV1Magic = "privtree-pst v1";

/// Parses a v1 model from an open stream (`name` labels errors).
Result<PstModel> LoadPstModelStream(std::istream& in,
                                    const std::string& name);

}  // namespace privtree

#endif  // PRIVTREE_SEQ_PST_SERIALIZATION_H_
