// The dataset abstraction of the release layer: one tagged, non-owning view
// over every sensitive-input shape the registry's methods can fit — spatial
// point sets with a declared domain (the paper's Sections 3 and 6.1) and
// symbol-sequence datasets (Sections 4–5).  Threading a Dataset instead of
// a (PointSet, Box) pair through ReleaseSession, the serving cache, the
// ParallelRunner and the AsyncEngine is what lets the PST and n-gram
// builders live behind the same `release::Method` interface as the eight
// spatial backends.
//
// A Dataset is a cheap value: it stores a pointer to the caller's data
// (which must outlive every use, exactly as the previous `const PointSet&`
// contracts required), for spatial data a copy of the declared domain box,
// and a pointer to one index slot that every copy shares.
//
// The index slot holds what the tree builders count with, built the first
// time a fit asks for it and then read by every later or concurrent fit
// through any copy: the MortonIndex of (points, domain) for privtree and
// simpletree (16 bytes per point), and the PstOccurrences layout of the
// last l⊤ fitted for pst_privtree and ngram (2 bytes per padded symbol).
// A fit with another l⊤ builds its own layout and swaps it in; fits still
// running keep theirs through shared_ptr, so the slot retains at most one
// layout however a client cycles l⊤.  The slot dies with the last copy of
// its Dataset, so a serving tenant keeps its indexes for as long as its
// engine lives.  The process-wide gauge `dataset.index_bytes` counts the
// bytes every live slot retains.
//
// Fingerprints are *domain-separated by kind*: the digest mixes a per-kind
// tag on top of the content words, so a sequence dataset and a spatial
// dataset can
// never collide on a SynopsisCache key or a spill-file name even if their
// raw content words coincide (UntaggedContentDigest exists to let tests
// demonstrate exactly that collision).
#ifndef PRIVTREE_RELEASE_DATASET_H_
#define PRIVTREE_RELEASE_DATASET_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "seq/sequence.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {
class MortonIndex;     // spatial/morton_index.h
class PstOccurrences;  // seq/pst_occurrences.h
}  // namespace privtree

namespace privtree::release {

/// Which input shape a dataset (or a registered method) works over.
enum class DatasetKind : std::uint8_t {
  kSpatial = 0,   ///< PointSet over a declared Box domain.
  kSequence = 1,  ///< SequenceDataset over a finite alphabet.
};

/// Human-readable kind name ("spatial" / "sequence") for diagnostics.
std::string_view DatasetKindName(DatasetKind kind);

/// A tagged non-owning view of one sensitive dataset.
class Dataset {
 public:
  /// Spatial view; `points` must outlive the Dataset.  The domain is
  /// declared by the caller — deriving it from the data would leak.
  Dataset(const PointSet& points, Box domain);

  /// Sequence view; `sequences` must outlive the Dataset.
  explicit Dataset(const SequenceDataset& sequences);

  DatasetKind kind() const { return kind_; }
  bool is_spatial() const { return kind_ == DatasetKind::kSpatial; }
  bool is_sequence() const { return kind_ == DatasetKind::kSequence; }

  /// Spatial accessors; abort unless is_spatial().
  const PointSet& points() const;
  const Box& domain() const;

  /// Sequence accessor; aborts unless is_sequence().
  const SequenceDataset& sequences() const;

  /// The Morton index of (points, domain), built by the first caller on
  /// any copy; it lives as long as the last copy.  Aborts unless
  /// is_spatial().
  const MortonIndex& morton_index() const;

  /// The sequences laid out at length cap `l_top`: the slot's layout when
  /// it has that l⊤, else a new one that replaces it.  Aborts unless
  /// is_sequence().
  std::shared_ptr<const PstOccurrences> occurrences(std::size_t l_top) const;

  /// Records in the dataset (points or sequences).
  std::size_t size() const;

  /// The method-facing dimensionality: the spatial dim, or the sequence
  /// alphabet size (what sequence-method metadata reports as `dim`).
  std::size_t dim() const;

  /// Order-sensitive 64-bit digest of (content, kind): the content digest
  /// (dim/size/coordinates/bounds for spatial data,
  /// alphabet/size/lengths/symbols for sequences) finalized with a per-kind
  /// tag.  Equal content under different kinds therefore always yields
  /// different fingerprints; within a kind collisions are astronomically
  /// unlikely (the cache trades that risk for never storing the data).
  std::uint64_t Fingerprint() const;

  /// The same digest *without* the kind tag — the value a naive scheme
  /// would have used as a cache key.  Exposed so tests can construct a
  /// cross-kind content collision and verify Fingerprint() separates it;
  /// never use this as a key.
  std::uint64_t UntaggedContentDigest() const;

 private:
  DatasetKind kind_;
  const PointSet* points_ = nullptr;
  Box domain_;  // Meaningful for spatial datasets only.
  const SequenceDataset* sequences_ = nullptr;
  struct IndexSlot;
  std::shared_ptr<IndexSlot> index_;  // Shared by every copy.
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_DATASET_H_
