#ifndef KEYSTONE_LINALG_GEMM_H_
#define KEYSTONE_LINALG_GEMM_H_

#include "src/linalg/matrix.h"

namespace keystone {

class ThreadPool;

/// Dense matrix multiply: returns A * B.
/// Cost: O(A.rows * A.cols * B.cols) flops, organized i-k-j in cache blocks
/// so the inner loop streams contiguous rows of B (no register tiling).
Matrix Gemm(const Matrix& a, const Matrix& b);

/// Returns A^T * B without materializing the transpose.
Matrix GemmTransA(const Matrix& a, const Matrix& b);

/// Returns A * B^T without materializing the transpose.
Matrix GemmTransB(const Matrix& a, const Matrix& b);

/// C += A * B (shapes must already agree).
void GemmAccumulate(const Matrix& a, const Matrix& b, Matrix* c);

/// Returns the Gram matrix A^T * A: a packed, register-tiled symmetric
/// rank-k update over blocks of 256 records. Each entry sums a(r, i) *
/// a(r, j) over records r in ascending order, so for finite inputs the
/// result is bit-identical to that plain loop. `pool` spreads fixed 32-row
/// chunks of the output over its threads: nullptr runs serially and any
/// pool gives the same bits.
Matrix Gram(const Matrix& a, ThreadPool* pool = nullptr);

}  // namespace keystone

#endif  // KEYSTONE_LINALG_GEMM_H_
