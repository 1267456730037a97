#include "spatial/morton_index.h"

#include <algorithm>
#include <array>
#include <utility>

#include "dp/check.h"

namespace privtree {
namespace {

constexpr int LevelsPerDim(std::size_t dim) {
  // Ceiling at 63 so per-dimension integer coordinates fit in uint64.
  return std::min(MortonIndex::kTotalBits / static_cast<int>(dim), 63);
}

// kSpread[d - 1][b] holds bit i of byte b at bit i·d: one byte of a
// coordinate spread to the key's stride d.  8·d ≤ 64 bits, so a row fits.
constexpr auto kSpread = [] {
  std::array<std::array<std::uint64_t, 256>, MortonIndex::kMaxDim> table{};
  for (std::size_t d = 1; d <= MortonIndex::kMaxDim; ++d) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      for (std::size_t i = 0; i < 8; ++i) {
        table[d - 1][b] |= ((b >> i) & 1u) << (i * d);
      }
    }
  }
  return table;
}();

// The key of one D-dimensional point.  Bit b of dimension j's integer
// coordinate lands at key bit b·D + (D-1-j), which is the level-major,
// dimension-minor order of the header.  The key is built one coordinate
// byte at a time: byte k of every dimension fills key bits [8kD, 8(k+1)D),
// which may straddle the two 64-bit halves.
template <int D>
MortonKey InterleaveKey(const double* point, const double* root_lo,
                        const double* inv_width) {
  constexpr int kLevels = LevelsPerDim(D);
  constexpr double kCells = static_cast<double>(std::uint64_t{1} << kLevels);
  constexpr std::uint64_t kMaxCoord = (std::uint64_t{1} << kLevels) - 1;
  std::uint64_t coord[D];
  for (int j = 0; j < D; ++j) {
    const double normalized =
        std::clamp((point[j] - root_lo[j]) * inv_width[j], 0.0, 1.0);
    const double scaled = normalized * kCells;
    // Integer-side clamp: `cells - 1` is not representable as a double at
    // 63 bits, so a floating-point clamp would let coord reach 2^L and set
    // a bit the interleaving never reads.
    std::uint64_t c = static_cast<std::uint64_t>(scaled);
    if (scaled >= kCells || c > kMaxCoord) c = kMaxCoord;
    coord[j] = c;
  }
  const auto& spread = kSpread[D - 1];
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (int k = 0; k < (kLevels + 7) / 8; ++k) {
    std::uint64_t chunk = 0;
    for (int j = 0; j < D; ++j) {
      chunk |= spread[(coord[j] >> (8 * k)) & 0xffu] << (D - 1 - j);
    }
    const int shift = 8 * k * D;
    if (shift >= 64) {
      hi |= chunk << (shift - 64);
    } else {
      lo |= chunk << shift;
      if (shift > 0) hi |= chunk >> (64 - shift);
    }
  }
  return (static_cast<MortonKey>(hi) << 64) | lo;
}

template <int D>
void FillKeys(std::span<const double> coords, const double* root_lo,
              const double* inv_width, MortonKey* out) {
  const std::size_t n = coords.size() / D;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = InterleaveKey<D>(coords.data() + i * D, root_lo, inv_width);
  }
}

using FillKeysFn = void (*)(std::span<const double>, const double*,
                            const double*, MortonKey*);
constexpr FillKeysFn kFillKeys[MortonIndex::kMaxDim] = {
    FillKeys<1>, FillKeys<2>, FillKeys<3>, FillKeys<4>,
    FillKeys<5>, FillKeys<6>, FillKeys<7>, FillKeys<8>};

// Buckets at most this long are left to std::sort.
constexpr std::size_t kRadixCutoff = 64;

// Byte `byte` (0 = least significant) of a key.
unsigned Digit(MortonKey key, int byte) {
  const std::uint64_t word = byte >= 8 ? static_cast<std::uint64_t>(key >> 64)
                                       : static_cast<std::uint64_t>(key);
  return static_cast<unsigned>(word >> (8 * (byte & 7))) & 0xffu;
}

// In-place MSD radix sort (American flag sort) of keys that agree above
// byte `byte`: one pass buckets them on that byte, then each bucket is
// sorted on the byte below.
void RadixSort(MortonKey* keys, std::size_t n, int byte) {
  while (n > kRadixCutoff) {
    std::size_t start[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++start[Digit(keys[i], byte)];
    if (start[Digit(keys[0], byte)] == n) {
      // One bucket: this byte is a shared prefix.
      if (byte == 0) return;
      --byte;
      continue;
    }
    // start[b] becomes bucket b's first slot, end[b] its one-past-last.
    std::size_t end[256];
    std::size_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const std::size_t count = start[b];
      start[b] = offset;
      offset += count;
      end[b] = offset;
    }
    // Cycle each misplaced key to the next free slot of its bucket;
    // start[b] advances until it meets end[b].
    for (unsigned b = 0; b < 256; ++b) {
      while (start[b] < end[b]) {
        MortonKey key = keys[start[b]];
        for (unsigned digit = Digit(key, byte); digit != b;
             digit = Digit(key, byte)) {
          std::swap(key, keys[start[digit]++]);
        }
        keys[start[b]++] = key;
      }
    }
    if (byte == 0) return;
    std::size_t first = 0;
    for (int b = 0; b < 256; ++b) {
      if (end[b] - first > 1) {
        RadixSort(keys + first, end[b] - first, byte - 1);
      }
      first = end[b];
    }
    return;
  }
  std::sort(keys, keys + n);
}

}  // namespace

MortonIndex::MortonIndex(const PointSet& points, const Box& root)
    : dim_(points.dim()),
      levels_per_dim_(LevelsPerDim(dim_)),
      max_prefix_bits_(levels_per_dim_ * static_cast<int>(dim_)),
      root_lo_(root.lo()) {
  PRIVTREE_CHECK_EQ(root.dim(), dim_);
  PRIVTREE_CHECK_LE(dim_, kMaxDim);
  inv_width_.resize(dim_);
  for (std::size_t j = 0; j < dim_; ++j) {
    const double width = root.Width(j);
    PRIVTREE_CHECK_GT(width, 0.0);
    inv_width_[j] = 1.0 / width;
  }
  keys_.resize(points.size());
  if (keys_.empty()) return;
  kFillKeys[dim_ - 1](points.coords(), root_lo_.data(), inv_width_.data(),
                      keys_.data());
  RadixSort(keys_.data(), keys_.size(), (max_prefix_bits_ - 1) / 8);
}

MortonKey MortonIndex::KeyOf(std::span<const double> point) const {
  PRIVTREE_CHECK_EQ(point.size(), dim_);
  MortonKey key = 0;
  kFillKeys[dim_ - 1](point, root_lo_.data(), inv_width_.data(), &key);
  return key;
}

std::size_t MortonIndex::LowerBound(MortonKey prefix, int bits,
                                    std::size_t begin, std::size_t end) const {
  PRIVTREE_CHECK_GT(bits, 0);
  PRIVTREE_CHECK_LE(bits, max_prefix_bits_);
  PRIVTREE_CHECK_LE(begin, end);
  PRIVTREE_CHECK_LE(end, keys_.size());
  const MortonKey first = prefix << (max_prefix_bits_ - bits);
  return static_cast<std::size_t>(
      std::lower_bound(keys_.begin() + begin, keys_.begin() + end, first) -
      keys_.begin());
}

}  // namespace privtree
