#ifndef KEYSTONE_LINALG_SYRK_H_
#define KEYSTONE_LINALG_SYRK_H_

#include <cstddef>
#include <functional>

namespace keystone {

class ThreadPool;

/// The symmetric rank-k update shared by the blocked Cholesky (qr.cc) and
/// the dense Gram (gemm.cc), internal to src/linalg. Both subtract products
/// of packed rows from the lower triangle of a row-major C, one product at a
/// time in ascending k, starting from C's current values: the order the
/// unblocked kernels used, so every entry keeps their exact floating-point
/// result.
namespace syrk {

/// Rows per micro-panel: the register tile is kTile x kTile doubles.
inline constexpr size_t kTile = 4;
/// Rows per parallel task. Fixed, so the work each task does, and hence
/// every result, is the same for any pool size.
inline constexpr size_t kChunkRows = 32;

/// A packed operand holds `rows` rows of `depth` values in micro-panels of
/// kTile rows: element (i, k) sits at PackedOffset(i, depth) + kTile * k.
/// Rows past `rows` in the last micro-panel are padding; they only ever
/// reach entries the update discards.
inline size_t PackedSize(size_t rows, size_t depth) {
  return (rows + kTile - 1) / kTile * kTile * depth;
}
inline size_t PackedOffset(size_t i, size_t depth) {
  return i / kTile * kTile * depth + i % kTile;
}

/// For the rows i of `chunk` (below `rows`) and every j <= i:
///   c[i * ldc + j] -= p(i, k) * p(j, k)   for k = 0, 1, ..., depth - 1,
/// where p is the packed operand. Writes nothing above the diagonal or past
/// `rows`.
void SubtractLower(const double* packed, size_t depth, size_t rows,
                   size_t chunk, double* c, size_t ldc);

/// Runs fn(chunk) for each of the kChunkRows-row chunks covering `rows`
/// rows: inline in ascending order when `pool` is null, else spread over
/// the pool.
void ForEachChunk(ThreadPool* pool, size_t rows,
                  const std::function<void(size_t)>& fn);

}  // namespace syrk
}  // namespace keystone

#endif  // KEYSTONE_LINALG_SYRK_H_
