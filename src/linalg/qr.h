#ifndef KEYSTONE_LINALG_QR_H_
#define KEYSTONE_LINALG_QR_H_

#include "src/linalg/matrix.h"

namespace keystone {

class ThreadPool;

/// Result of a reduced QR factorization A = Q * R with A (n x d, n >= d),
/// Q (n x d) orthonormal columns and R (d x d) upper triangular.
struct QrResult {
  Matrix q;
  Matrix r;
};

/// Householder QR factorization (reduced form). Requires rows >= cols.
/// Cost: O(n d^2) flops.
QrResult HouseholderQr(const Matrix& a);

/// Solves R x = b for upper-triangular R via back substitution. b may have
/// multiple columns.
Matrix BackSubstitute(const Matrix& r, const Matrix& b);

/// Solves L x = b for lower-triangular L via forward substitution.
Matrix ForwardSubstitute(const Matrix& l, const Matrix& b);

/// Least-squares solve min_X ||A X - B||_F via Householder QR.
/// A is n x d (n >= d), B is n x k; returns the d x k solution.
Matrix LeastSquaresQr(const Matrix& a, const Matrix& b);

/// Cholesky factorization of a symmetric positive-definite matrix: fills
/// lower-triangular L with L L^T = A + jitter * I, reading only A's lower
/// triangle, and returns false at the first non-positive pivot (SolveSpd
/// retries with a larger jitter). Blocked in 64-column panels over a packed,
/// register-tiled trailing update; every entry receives its products in
/// ascending order, so for finite inputs L is bit-identical to the
/// column-by-column algorithm. `pool` spreads fixed 32-row chunks of each
/// panel solve and trailing update over its threads: nullptr runs serially
/// and any pool gives the same bits.
bool Cholesky(const Matrix& a, Matrix* l, double jitter = 0.0,
              ThreadPool* pool = nullptr);

/// Solves the SPD system A x = b via Cholesky, retrying with a growing
/// jitter while the factorization fails. B may have multiple columns.
/// `pool` as for Cholesky.
Matrix SolveSpd(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr);

}  // namespace keystone

#endif  // KEYSTONE_LINALG_QR_H_
