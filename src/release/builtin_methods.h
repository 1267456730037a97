// Registration of the built-in release backends.
//
// Each backend adapts one existing builder from hist/ or spatial/ — the
// free functions and classes there remain the concrete implementations;
// the adapters only parse options, thread the PrivacyBudget, and forward
// queries.  Registered names and their option keys:
//
//   privtree    dims_per_split, tree_budget_fraction, max_depth
//   simpletree  dims_per_split, height, theta
//   ug          cell_scale, c0
//   ag          alpha, c1, c2, cell_scale            (2-d data only)
//   kdtree      height, split_budget_fraction
//   dawa        target_total_cells, partition_budget_fraction,
//               measure_branching
//   hierarchy   height, target_leaf_resolution, constrained_inference
//   wavelet     target_total_cells
//
// RegisterBuiltinMethods also registers the two sequence-kind backends
// (pst_privtree, ngram) via release/sequence_methods.h.
#ifndef PRIVTREE_RELEASE_BUILTIN_METHODS_H_
#define PRIVTREE_RELEASE_BUILTIN_METHODS_H_

#include <memory>

#include "release/options.h"
#include "release/registry.h"
#include "spatial/spatial_histogram.h"

namespace privtree::release {

/// Registers all built-in backends into `registry` — the eight spatial
/// ones plus the two sequence-kind ones (release/sequence_methods.h).
/// Called once by GlobalMethodRegistry(); call it directly only on private
/// registries (e.g. in tests).  Every entry registers both a factory and a
/// loader, so all backends round-trip through release/serialization.h.
void RegisterBuiltinMethods(MethodRegistry& registry);

/// Wraps an already-released PrivTree histogram as a fitted "privtree"
/// method.  Used by the legacy v1 text-format compat shim, where the file
/// records no ε — pass 0 when the budget is unknown.  `hist` must be
/// non-empty.
std::unique_ptr<Method> WrapSpatialHistogram(SpatialHistogram hist,
                                             double epsilon_spent);

/// String-bag → native option-struct translations for the tree-backed
/// methods, shared between the registry adapters and callers that need
/// the concrete builders directly (e.g. privtree_cli's serialization
/// path), so both surfaces honor exactly the same keys.
PrivTreeHistogramOptions ParsePrivTreeHistogramOptions(
    const MethodOptions& options);
SimpleTreeHistogramOptions ParseSimpleTreeHistogramOptions(
    const MethodOptions& options);

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_BUILTIN_METHODS_H_
