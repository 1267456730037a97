// The universal synopsis on-disk format: every registered release::Method
// persists through one versioned, self-describing binary envelope, so
// `privtree_cli build`/`query` and the SynopsisCache spill tier work for
// all backends, not just the spatial tree.
//
// ── Format spec (v3) ───────────────────────────────────────────────────────
//
// A synopsis file is a fixed header followed by a checksummed body.  All
// integers are little-endian; doubles are IEEE-754 binary64 bit patterns
// (so released values round-trip bit for bit).
//
//   offset  size  field
//   0       8     magic "PRIVTSYN"
//   8       4     u32 format version (currently 3; v1 is the legacy text
//                 format of spatial/serialization.h)
//   12      8     u64 body size in bytes
//   20      8     u64 body checksum (core/byteio.h ByteChecksum)
//   28      8     u64 header checksum (ByteChecksum of bytes [0, 28); v3+
//                 only) — lets the spill tier's warm-restart scan verify a
//                 file header-only, without reading the body
//   36      ...   body (exactly `body size` bytes; nothing may follow)
//
// v2 files have no header checksum (the body starts at offset 28) and
// carry the raw per-backend payloads documented below; they keep loading
// forever through the same LoadMethod entry point.  v3 bodies share the
// envelope fields but compress the structured payload sections with the
// core/codec.h primitives (delta + bit-packed tree topology, 2-bit
// box-bound codes against the parent, group-varint quantized counts — see
// spatial/serialization.h for the compressed tree body and the per-backend
// notes below).  Released doubles are stored verbatim unless the method
// opted into `count_quantum`, so loading stays bit-for-bit lossless.
//
//   body:
//     str   method name          (u32 length + bytes; a registry name)
//     str   options text         (canonical "k1=v1,k2=v2", sorted keys —
//                                 exactly what the method was created with)
//     u64   dim                  (dimensionality of the fitted domain;
//                                 sequence methods record the alphabet
//                                 size here)
//     f64   epsilon spent        (total ε consumed by Fit)
//     u64   synopsis size        (released nodes / cells, as Metadata())
//     i32   height               (decomposition height, as Metadata())
//     ...   per-backend payload  (the rest of the body)
//
// Per-backend payloads (v2 form; the → notes give the v3 compressed form):
//   privtree, simpletree   spatial tree body (spatial/serialization.h):
//                          u64 node count, then per node in id order
//                          {i32 parent, f64 count, f64 lo_j/hi_j × dim}
//                          → v3: compressed tree body (packed parents,
//                          root box + 2-bit bound codes, counts section)
//   kdtree                 the same body over plain boxes (v2 and v3)
//   ug, dawa, wavelet      grid body (hist/grid_codec.h): domain box,
//                          u64 cells per dim, f64 counts row-major
//                          (unchanged in v3 — noisy doubles don't pack)
//   ag                     v2: i64 m1, domain box, f64 level-1 counts
//                          (m1²), then m1² grid bodies (the level-2
//                          sub-grids, post-constrained-inference)
//                          → v3: i64 m1, domain box, f64 level-1 counts,
//                          group-varint per-cell granularities (2 per
//                          cell), then the concatenated raw sub-grid
//                          counts — sub-grid boxes are recomputed from the
//                          level-1 cell geometry, which is deterministic
//   hierarchy              domain box, i32 height, i64 branching,
//                          u32 consistent flag (0/1), then per level
//                          1..height-1 the flat f64 counts (sizes derived
//                          from branching; post-inference; unchanged in v3)
//   pst_privtree           u64 node count, then per node in id order
//                          {i32 parent, f64 hist × (alphabet+1)}; children
//                          are implied by parent links + creation order
//                          (the SplitNode sibling-group invariant)
//                          → v3: u64 node count, packed parents
//                          (core/codec.h PackDeltaI32), then the f64
//                          histograms in id order
//   ngram                  u64 node count, then per node in id order
//                          {i32 parent, f64 noisy count} under the same
//                          sibling-group invariant
//                          → v3: u64 node count, packed parents, then the
//                          f64 noisy counts in id order
//
// Loading re-derives every piece of derived state (prefix-sum lattices,
// summed-area tables, tree depths) deterministically from the released
// values, so a loaded synopsis answers Query/QueryBatch bit-for-bit
// identically to the in-memory fit, and Metadata() reports identical
// accounting.  Any corruption — truncation, bit flips, a wrong magic, an
// unknown method, trailing bytes — surfaces as a clean Status error.
#ifndef PRIVTREE_RELEASE_SERIALIZATION_H_
#define PRIVTREE_RELEASE_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "dp/status.h"
#include "release/method.h"
#include "release/registry.h"

namespace privtree::release {

inline constexpr std::string_view kSynopsisMagic = "PRIVTSYN";
inline constexpr std::uint32_t kSynopsisFormatVersion = 3;

/// Writes the v3 envelope header + body for a fitted method; backends call
/// this from their Save overrides with the v3 payload they encoded.  Older
/// versions are read, never written (tests/golden holds frozen v1/v2
/// files).
Status WriteSynopsis(std::ostream& out, const MethodMetadata& metadata,
                     std::string_view options_text, std::string_view payload);

/// Reads one serialized synopsis from `in` (the whole remaining stream) and
/// reconstructs the fitted method through `registry`'s loader for the
/// recorded method name.  v1 text files — the legacy spatial tree format
/// and the legacy `privtree-pst v1` sequence format — are recognized by
/// their magic lines and loaded through compat shims as a "privtree" /
/// "pst_privtree" method with unknown (zero) ε.  Every malformed input
/// yields a Status error, never a crash or a partial synopsis.
Result<std::unique_ptr<Method>> LoadMethod(std::istream& in,
                                           const MethodRegistry& registry);

/// As above, against the global registry.
Result<std::unique_ptr<Method>> LoadMethod(std::istream& in);

/// File-path convenience wrappers (binary mode, whole-file).  `durable`
/// fsyncs the file before returning — the crash-safety contract the spill
/// tier's temp-write + atomic-rename discipline needs (a rename can outlive
/// an unsynced write in a crash, leaving a torn file under the final name).
Status SaveMethodToFile(const Method& method, const std::string& path,
                        bool durable = false);
Result<std::unique_ptr<Method>> LoadMethodFromFile(const std::string& path);

/// Cheap integrity probe of a synopsis file — no payload decode, no
/// registry lookup.  For v3 files this is header-only: magic, version,
/// header checksum, and declared body size vs the file's actual size, all
/// from one small read (the body checksum is deferred to LoadMethod, which
/// verifies it on first access).  v2 files, which carry no header
/// checksum, fall back to the legacy full read + body checksum; legacy v1
/// text files pass on magic alone.  OK means "worth loading"; any
/// structural corruption (truncation, a torn tail, a damaged header, zero
/// length) yields the reason.  The spill tier's warm-restart scan
/// quarantines files this rejects.  `bytes_scanned`, when non-null, is
/// incremented by the number of file bytes actually read — the startup-cost
/// stat the cache surfaces.
Status ProbeSynopsisFile(const std::string& path,
                         std::uint64_t* bytes_scanned = nullptr);

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_SERIALIZATION_H_
