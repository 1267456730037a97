// Compile-time SIMD dispatch for the batch-query kernels.
//
// The ISA is selected here with `#if`, never at runtime.  The 2-d grid
// kernel (hist/grid_kernels.cc) is written three times — AVX2 (4 queries
// per step), SSE2 (2 queries) and plain scalar.  The tree sweep
// (release/tree_batch.cc) has one child classifier whose loop takes 4
// children per AVX2 step and 2 per SSE2 step, and finishes the remaining
// children, or all of them without a vector ISA, in scalar code; its
// partial-leaf arithmetic is scalar everywhere.  Every path is bit-for-bit
// identical to the scalar one (pinned by tests/release/kernel_parity_test.cc),
// so a build's answers do not depend on which ISA it was compiled for.
//
// x86-64 always has SSE2, so default builds take the 2-wide path; AVX2
// engages only when the compiler is told to target it (-mavx2 or
// -march=native).  FMA intrinsics are never used — a fused multiply-add
// rounds once where the scalar code rounds twice, which would break the
// bit-for-bit contract (the top-level CMakeLists additionally pins
// -ffp-contract=off so the *compiler* cannot fuse behind our back on FMA
// targets).
#ifndef PRIVTREE_CORE_SIMD_H_
#define PRIVTREE_CORE_SIMD_H_

#if defined(__AVX2__)
#define PRIVTREE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define PRIVTREE_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace privtree {

/// Name of the vector ISA the kernels were compiled for ("avx2", "sse2"
/// or "scalar"); servebench records it in each run's host block.
inline const char* SimdKernelName() {
#if defined(PRIVTREE_SIMD_AVX2)
  return "avx2";
#elif defined(PRIVTREE_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

}  // namespace privtree

#endif  // PRIVTREE_CORE_SIMD_H_
