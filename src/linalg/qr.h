#ifndef KEYSTONE_LINALG_QR_H_
#define KEYSTONE_LINALG_QR_H_

#include "src/linalg/matrix.h"

namespace keystone {

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

/// Cholesky factorization of a symmetric positive-definite matrix: returns
/// lower-triangular L with A = L L^T. Adds `jitter` * I if needed for
/// numerical stability (returns false only if factorization fails outright).
bool Cholesky(const Matrix& a, Matrix* l, double jitter = 0.0);

/// Solves the SPD system A x = b via Cholesky. B may have multiple columns.
Matrix SolveSpd(const Matrix& a, const Matrix& b);

}  // namespace keystone

#endif  // KEYSTONE_LINALG_QR_H_
