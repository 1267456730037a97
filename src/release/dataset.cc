#include "release/dataset.h"

#include <utility>

#include "core/byteio.h"
#include "core/sync.h"
#include "dp/check.h"
#include "obs/metrics.h"
#include "seq/pst_occurrences.h"
#include "spatial/morton_index.h"

namespace privtree::release {

namespace {

// The shared fingerprint mixer (core/byteio.h); word-at-a-time keeps the
// whole-dataset hash to a few ops per coordinate/symbol.
constexpr auto MixWord = MixFingerprintWord;
constexpr auto MixDouble = MixFingerprintDouble;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Per-kind domain-separation tags (arbitrary distinct constants).
constexpr std::uint64_t kKindTag[] = {0x53504154'49414C00ULL,   // spatial
                                      0x53455155'454E4345ULL};  // sequence

/// Bytes of the fit indexes every live Dataset slot retains.
obs::Gauge& IndexBytesGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("dataset.index_bytes");
  return g;
}

}  // namespace

/// The fit indexes of one dataset, shared by all copies of its Dataset.
/// Built under `mu`, so concurrent first fits build each index once.
struct Dataset::IndexSlot {
  IndexSlot() { IndexBytesGauge(); }  // Listed in the stats from the start.
  ~IndexSlot() {
    MutexLock lk(mu);
    if (morton) IndexBytesGauge().Sub(morton->MemoryBytes());
    if (layout) IndexBytesGauge().Sub(layout->MemoryBytes());
  }

  Mutex mu;
  std::unique_ptr<const MortonIndex> morton GUARDED_BY(mu);
  std::shared_ptr<const PstOccurrences> layout GUARDED_BY(mu);
};

std::string_view DatasetKindName(DatasetKind kind) {
  return kind == DatasetKind::kSpatial ? "spatial" : "sequence";
}

Dataset::Dataset(const PointSet& points, Box domain)
    : kind_(DatasetKind::kSpatial),
      points_(&points),
      domain_(std::move(domain)),
      index_(std::make_shared<IndexSlot>()) {
  PRIVTREE_CHECK_EQ(points.dim(), domain_.dim());
}

Dataset::Dataset(const SequenceDataset& sequences)
    : kind_(DatasetKind::kSequence),
      sequences_(&sequences),
      index_(std::make_shared<IndexSlot>()) {
  PRIVTREE_CHECK_GE(sequences.alphabet_size(), 1u);
}

const PointSet& Dataset::points() const {
  PRIVTREE_CHECK(is_spatial());
  return *points_;
}

const Box& Dataset::domain() const {
  PRIVTREE_CHECK(is_spatial());
  return domain_;
}

const SequenceDataset& Dataset::sequences() const {
  PRIVTREE_CHECK(is_sequence());
  return *sequences_;
}

const MortonIndex& Dataset::morton_index() const {
  PRIVTREE_CHECK(is_spatial());
  MutexLock lk(index_->mu);
  if (!index_->morton) {
    index_->morton = std::make_unique<const MortonIndex>(*points_, domain_);
    IndexBytesGauge().Add(index_->morton->MemoryBytes());
  }
  return *index_->morton;  // Never replaced, so it outlives the lock.
}

std::shared_ptr<const PstOccurrences> Dataset::occurrences(
    std::size_t l_top) const {
  PRIVTREE_CHECK(is_sequence());
  MutexLock lk(index_->mu);
  std::shared_ptr<const PstOccurrences>& layout = index_->layout;
  if (!layout || layout->l_top() != l_top) {
    // Release the old layout before building the new one; fits still
    // reading it hold their own reference.
    if (layout) IndexBytesGauge().Sub(layout->MemoryBytes());
    layout.reset();
    layout = std::make_shared<const PstOccurrences>(*sequences_, l_top);
    IndexBytesGauge().Add(layout->MemoryBytes());
  }
  return layout;
}

std::size_t Dataset::size() const {
  return is_spatial() ? points_->size() : sequences_->size();
}

std::size_t Dataset::dim() const {
  return is_spatial() ? points_->dim() : sequences_->alphabet_size();
}

std::uint64_t Dataset::UntaggedContentDigest() const {
  std::uint64_t hash = kFnvBasis;
  if (is_spatial()) {
    hash = MixWord(hash, points_->dim());
    hash = MixWord(hash, points_->size());
    for (const double c : points_->coords()) hash = MixDouble(hash, c);
    for (std::size_t j = 0; j < domain_.dim(); ++j) {
      hash = MixDouble(hash, domain_.lo(j));
      hash = MixDouble(hash, domain_.hi(j));
    }
    return hash;
  }
  const SequenceDataset& data = *sequences_;
  hash = MixWord(hash, data.alphabet_size());
  hash = MixWord(hash, data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    hash = MixWord(hash, (static_cast<std::uint64_t>(data.length(i)) << 1) |
                             (data.has_end(i) ? 1 : 0));
    for (const Symbol s : data.sequence(i)) hash = MixWord(hash, s);
  }
  return hash;
}

std::uint64_t Dataset::Fingerprint() const {
  // The kind tag is mixed on top of the content digest, so equal content
  // words under different kinds can never produce equal fingerprints.
  return MixWord(UntaggedContentDigest(),
                 kKindTag[static_cast<std::size_t>(kind_)]);
}

}  // namespace privtree::release
