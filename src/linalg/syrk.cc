#include "src/linalg/syrk.h"

#include <algorithm>
#include <cstring>

#include "src/common/kernel_align.h"
#include "src/common/thread_pool.h"

namespace keystone {
namespace syrk {

namespace {

// The register tile: c[r * ldc + s] -= a[kTile * k + r] * b[kTile * k + s]
// for r, s < kTile and k ascending. Eight 2-double accumulators plus the
// two b vectors fit the baseline x86-64's 16 SSE registers. Each product is
// rounded and then subtracted (the baseline target has no FMA to contract
// into), so an entry sees exactly the operations of the scalar loop.
KS_KERNEL_ALIGN void SubtractTile(size_t depth, const double* a,
                                  const double* b, double* c, size_t ldc) {
  static_assert(kTile == 4, "four rows of two 2-double vectors");
  typedef double V __attribute__((vector_size(16)));
  V c00, c01, c10, c11, c20, c21, c30, c31;
  std::memcpy(&c00, c, sizeof(V));
  std::memcpy(&c01, c + 2, sizeof(V));
  std::memcpy(&c10, c + ldc, sizeof(V));
  std::memcpy(&c11, c + ldc + 2, sizeof(V));
  std::memcpy(&c20, c + 2 * ldc, sizeof(V));
  std::memcpy(&c21, c + 2 * ldc + 2, sizeof(V));
  std::memcpy(&c30, c + 3 * ldc, sizeof(V));
  std::memcpy(&c31, c + 3 * ldc + 2, sizeof(V));
  for (size_t k = 0; k < depth; ++k, a += kTile, b += kTile) {
    V b0, b1;
    std::memcpy(&b0, b, sizeof(V));
    std::memcpy(&b1, b + 2, sizeof(V));
    c00 -= a[0] * b0;
    c01 -= a[0] * b1;
    c10 -= a[1] * b0;
    c11 -= a[1] * b1;
    c20 -= a[2] * b0;
    c21 -= a[2] * b1;
    c30 -= a[3] * b0;
    c31 -= a[3] * b1;
  }
  std::memcpy(c, &c00, sizeof(V));
  std::memcpy(c + 2, &c01, sizeof(V));
  std::memcpy(c + ldc, &c10, sizeof(V));
  std::memcpy(c + ldc + 2, &c11, sizeof(V));
  std::memcpy(c + 2 * ldc, &c20, sizeof(V));
  std::memcpy(c + 2 * ldc + 2, &c21, sizeof(V));
  std::memcpy(c + 3 * ldc, &c30, sizeof(V));
  std::memcpy(c + 3 * ldc + 2, &c31, sizeof(V));
}

}  // namespace

KS_KERNEL_ALIGN void SubtractLower(const double* packed, size_t depth,
                                   size_t rows, size_t chunk, double* c,
                                   size_t ldc) {
  const size_t first = chunk * kChunkRows;
  const size_t last = std::min(first + kChunkRows, rows);
  for (size_t i0 = first; i0 < last; i0 += kTile) {
    const double* a = packed + i0 * depth;
    for (size_t j0 = 0; j0 <= i0; j0 += kTile) {
      const double* b = packed + j0 * depth;
      double* tile = c + i0 * ldc + j0;
      if (j0 < i0 && i0 + kTile <= rows) {
        SubtractTile(depth, a, b, tile, ldc);
        continue;
      }
      // A diagonal or bottom-edge tile: update a copy and store back only
      // the entries on or below the diagonal and above `rows`.
      double t[kTile * kTile] = {};
      const size_t tile_rows = std::min(kTile, rows - i0);
      for (size_t r = 0; r < tile_rows; ++r) {
        const size_t cols = std::min(kTile, i0 + r - j0 + 1);
        std::copy(tile + r * ldc, tile + r * ldc + cols, t + r * kTile);
      }
      SubtractTile(depth, a, b, t, kTile);
      for (size_t r = 0; r < tile_rows; ++r) {
        const size_t cols = std::min(kTile, i0 + r - j0 + 1);
        std::copy(t + r * kTile, t + r * kTile + cols, tile + r * ldc);
      }
    }
  }
}

void ForEachChunk(ThreadPool* pool, size_t rows,
                  const std::function<void(size_t)>& fn) {
  const size_t chunks = (rows + kChunkRows - 1) / kChunkRows;
  if (pool == nullptr) {
    for (size_t chunk = 0; chunk < chunks; ++chunk) fn(chunk);
    return;
  }
  pool->ParallelFor(chunks, fn);
}

}  // namespace syrk
}  // namespace keystone
