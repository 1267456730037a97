// Sequence datasets over a finite alphabet (Section 4.1).
//
// A sequence s = $ x1 x2 ... xl &: the symbols xi come from the alphabet
// I = {0, ..., alphabet_size-1}; $ (sequence start) and & (sequence end) are
// structural markers.  Truncation at the public length cap l⊤ (paper
// footnote 2 / Section 4.2) removes & from over-long sequences, making them
// open-ended.
#ifndef PRIVTREE_SEQ_SEQUENCE_H_
#define PRIVTREE_SEQ_SEQUENCE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace privtree {

/// A symbol of the alphabet I; values in [0, alphabet_size).
using Symbol = std::uint16_t;

/// Largest alphabet accepted anywhere in the pipeline — dataset loaders,
/// the persisted-synopsis `dim` bound, PST/n-gram restores, and the CLI /
/// server `seq:<alphabet>` parsers all enforce this one constant, so the
/// load-time, serve-time and parse-time bounds cannot drift apart.
inline constexpr std::size_t kMaxAlphabetSize = 4096;

/// A dataset of symbol sequences.
class SequenceDataset {
 public:
  /// Creates an empty dataset over an alphabet of the given size (>= 1).
  explicit SequenceDataset(std::size_t alphabet_size);

  std::size_t alphabet_size() const { return alphabet_size_; }
  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// Appends a sequence; `has_end` is false for open-ended (truncated)
  /// sequences that lost their & marker.
  void Add(std::span<const Symbol> symbols, bool has_end = true);

  /// The symbols x1..xl of sequence i (excluding $ and &).
  std::span<const Symbol> sequence(std::size_t i) const;

  /// Whether sequence i terminates with & (false after truncation).
  bool has_end(std::size_t i) const { return has_end_[i]; }

  /// Number of symbols of sequence i (excluding $ and &).
  std::size_t length(std::size_t i) const;

  /// The paper's sequence length: symbols plus the & marker when present.
  std::size_t LengthWithEnd(std::size_t i) const;

  /// Mean of length(i) over the dataset.
  double AverageLength() const;

  /// Histogram of length(i); index j counts sequences with j symbols.
  std::vector<std::size_t> LengthHistogram() const;

  /// Returns a copy where every sequence with LengthWithEnd > l_top keeps
  /// only its first l_top symbols and becomes open-ended (Section 4.2).
  SequenceDataset Truncate(std::size_t l_top) const;

 private:
  std::size_t alphabet_size_;
  std::vector<Symbol> symbols_;        // All sequences, concatenated.
  std::vector<std::size_t> offsets_;   // size()+1 offsets into symbols_.
  std::vector<bool> has_end_;
};

}  // namespace privtree

#endif  // PRIVTREE_SEQ_SEQUENCE_H_
