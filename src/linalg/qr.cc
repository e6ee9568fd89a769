#include "src/linalg/qr.h"

#include <cmath>
#include <vector>

#include "src/common/check.h"
#include "src/common/kernel_align.h"
#include "src/linalg/gemm.h"

namespace keystone {

QrResult HouseholderQr(const Matrix& a) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  KS_CHECK_GE(n, d);

  // Work on a copy; accumulate Householder vectors in-place below the
  // diagonal, R above it.
  Matrix work = a;
  std::vector<double> betas(d, 0.0);

  for (size_t k = 0; k < d; ++k) {
    // Compute the Householder reflector for column k, rows k..n-1.
    double norm_sq = 0.0;
    for (size_t i = k; i < n; ++i) norm_sq += work(i, k) * work(i, k);
    const double norm = std::sqrt(norm_sq);
    if (norm == 0.0) {
      betas[k] = 0.0;
      continue;
    }
    const double alpha = work(k, k) >= 0 ? -norm : norm;
    // v = x - alpha * e1; normalize so v[0] = 1.
    const double v0 = work(k, k) - alpha;
    if (v0 == 0.0) {
      betas[k] = 0.0;
      work(k, k) = alpha;
      continue;
    }
    for (size_t i = k + 1; i < n; ++i) work(i, k) /= v0;
    // beta = 2 / (v^T v) with v = (1, work(k+1..n-1, k)).
    double vtv = 1.0;
    for (size_t i = k + 1; i < n; ++i) vtv += work(i, k) * work(i, k);
    betas[k] = 2.0 / vtv;
    work(k, k) = alpha;

    // Apply the reflector to the trailing columns: A := (I - beta v v^T) A.
    for (size_t j = k + 1; j < d; ++j) {
      double dot = work(k, j);
      for (size_t i = k + 1; i < n; ++i) dot += work(i, k) * work(i, j);
      const double scale = betas[k] * dot;
      work(k, j) -= scale;
      for (size_t i = k + 1; i < n; ++i) work(i, j) -= scale * work(i, k);
    }
  }

  // Extract R.
  QrResult result;
  result.r = Matrix(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) result.r(i, j) = work(i, j);
  }

  // Form Q by applying reflectors to the identity (reduced: first d columns).
  result.q = Matrix(n, d);
  for (size_t j = 0; j < d; ++j) result.q(j, j) = 1.0;
  for (size_t k = d; k-- > 0;) {
    if (betas[k] == 0.0) continue;
    for (size_t j = 0; j < d; ++j) {
      double dot = result.q(k, j);
      for (size_t i = k + 1; i < n; ++i) dot += work(i, k) * result.q(i, j);
      const double scale = betas[k] * dot;
      result.q(k, j) -= scale;
      for (size_t i = k + 1; i < n; ++i) {
        result.q(i, j) -= scale * work(i, k);
      }
    }
  }
  return result;
}

KS_KERNEL_ALIGN Matrix BackSubstitute(const Matrix& r, const Matrix& b) {
  const size_t d = r.rows();
  KS_CHECK_EQ(r.cols(), d);
  KS_CHECK_EQ(b.rows(), d);
  Matrix x(d, b.cols());
  for (size_t col = 0; col < b.cols(); ++col) {
    for (size_t i = d; i-- > 0;) {
      double sum = b(i, col);
      for (size_t j = i + 1; j < d; ++j) sum -= r(i, j) * x(j, col);
      const double diag = r(i, i);
      x(i, col) = diag != 0.0 ? sum / diag : 0.0;
    }
  }
  return x;
}

KS_KERNEL_ALIGN Matrix ForwardSubstitute(const Matrix& l, const Matrix& b) {
  const size_t d = l.rows();
  KS_CHECK_EQ(l.cols(), d);
  KS_CHECK_EQ(b.rows(), d);
  Matrix x(d, b.cols());
  for (size_t col = 0; col < b.cols(); ++col) {
    for (size_t i = 0; i < d; ++i) {
      double sum = b(i, col);
      for (size_t j = 0; j < i; ++j) sum -= l(i, j) * x(j, col);
      const double diag = l(i, i);
      x(i, col) = diag != 0.0 ? sum / diag : 0.0;
    }
  }
  return x;
}

Matrix LeastSquaresQr(const Matrix& a, const Matrix& b) {
  KS_CHECK_EQ(a.rows(), b.rows());
  QrResult qr = HouseholderQr(a);
  const Matrix qtb = GemmTransA(qr.q, b);
  return BackSubstitute(qr.r, qtb);
}

KS_KERNEL_ALIGN bool Cholesky(const Matrix& a, Matrix* l, double jitter) {
  const size_t n = a.rows();
  KS_CHECK_EQ(a.cols(), n);
  *l = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (size_t k = 0; k < j; ++k) diag -= (*l)(j, k) * (*l)(j, k);
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    (*l)(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= (*l)(i, k) * (*l)(j, k);
      (*l)(i, j) = sum / ljj;
    }
  }
  return true;
}

KS_KERNEL_ALIGN Matrix SolveSpd(const Matrix& a, const Matrix& b) {
  Matrix l;
  double jitter = 0.0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    if (Cholesky(a, &l, jitter)) {
      const Matrix y = ForwardSubstitute(l, b);
      return BackSubstitute(l.Transposed(), y);
    }
    jitter = jitter == 0.0 ? 1e-10 * (1.0 + a.MaxAbs()) : jitter * 100.0;
  }
  KS_CHECK(false) << "SolveSpd: matrix is not positive definite";
  return Matrix();
}

}  // namespace keystone
