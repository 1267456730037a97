// Serialization of released spatial synopses: the box record every
// spatial payload shares, and the legacy v1 text format (read-only):
//
//      privtree-histogram v1
//      dim <d>
//      nodes <count>
//      <parent> <noisy_count> <lo_1> <hi_1> ... <lo_d> <hi_d>   (per node,
//                                                               id order)
//
// v1 files keep loading forever: release::LoadMethod recognizes the v1
// magic line and routes through LoadSpatialHistogramText (the compat
// shim); tests/golden/privtree.v1.txt pins the format.  The v2 and v3
// tree bodies of the synopsis envelope live with the flat tree they
// decode into, in release/tree_codec.h.
//
// Morton metadata is intentionally not persisted in any format: a loaded
// synopsis can answer queries but is decoupled from the (sensitive) source
// data.
#ifndef PRIVTREE_SPATIAL_SERIALIZATION_H_
#define PRIVTREE_SPATIAL_SERIALIZATION_H_

#include <iosfwd>
#include <string>

#include "core/byteio.h"
#include "dp/status.h"
#include "spatial/spatial_histogram.h"

namespace privtree {

/// Parses the legacy v1 text format from an open stream; `name` labels
/// errors (e.g. "<v1 synopsis>").  The envelope compat shim calls it.
Result<SpatialHistogram> LoadSpatialHistogramText(std::istream& in,
                                                  const std::string& name);

/// Appends a box as dim() (lo, hi) pairs; the dimension is carried by the
/// enclosing record.
void WriteBox(ByteWriter& out, const Box& box);

/// Reads one (lo, hi) bound pair; returns false (with `*error` set) on
/// truncation, a non-finite bound or lo > hi.
bool ReadBounds(ByteReader& in, double* lo, double* hi, std::string* error);

/// Reads a `dim`-dimensional box, validated as ReadBounds does.
bool ReadBox(ByteReader& in, std::size_t dim, Box* out, std::string* error);

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_SERIALIZATION_H_
