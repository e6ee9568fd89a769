#include "src/linalg/gemm.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/kernel_align.h"

namespace keystone {

namespace {
// Block sizes sized for a typical 32 KB L1 / 256 KB L2.
constexpr size_t kBlockI = 64;
constexpr size_t kBlockK = 64;
constexpr size_t kBlockJ = 256;
}  // namespace

KS_KERNEL_ALIGN void GemmAccumulate(const Matrix& a, const Matrix& b,
                                    Matrix* c) {
  KS_CHECK_EQ(a.cols(), b.rows());
  KS_CHECK_EQ(c->rows(), a.rows());
  KS_CHECK_EQ(c->cols(), b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  for (size_t ib = 0; ib < m; ib += kBlockI) {
    const size_t imax = std::min(ib + kBlockI, m);
    for (size_t kb = 0; kb < k; kb += kBlockK) {
      const size_t kmax = std::min(kb + kBlockK, k);
      for (size_t jb = 0; jb < n; jb += kBlockJ) {
        const size_t jmax = std::min(jb + kBlockJ, n);
        for (size_t i = ib; i < imax; ++i) {
          const double* arow = a.RowPtr(i);
          double* crow = c->RowPtr(i);
          for (size_t kk = kb; kk < kmax; ++kk) {
            const double aik = arow[kk];
            if (aik == 0.0) continue;
            const double* brow = b.RowPtr(kk);
            for (size_t j = jb; j < jmax; ++j) {
              crow[j] += aik * brow[j];
            }
          }
        }
      }
    }
  }
}

KS_KERNEL_ALIGN Matrix Gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  GemmAccumulate(a, b, &c);
  return c;
}

KS_KERNEL_ALIGN Matrix GemmTransA(const Matrix& a, const Matrix& b) {
  KS_CHECK_EQ(a.rows(), b.rows());
  const size_t m = a.cols();
  const size_t n = b.cols();
  const size_t k = a.rows();
  Matrix c(m, n);
  // (A^T B)_{ij} = sum_r A_{ri} B_{rj}: stream over rows of A and B.
  for (size_t r = 0; r < k; ++r) {
    const double* arow = a.RowPtr(r);
    const double* brow = b.RowPtr(r);
    for (size_t i = 0; i < m; ++i) {
      const double ari = arow[i];
      if (ari == 0.0) continue;
      double* crow = c.RowPtr(i);
      for (size_t j = 0; j < n; ++j) crow[j] += ari * brow[j];
    }
  }
  return c;
}

KS_KERNEL_ALIGN Matrix GemmTransB(const Matrix& a, const Matrix& b) {
  KS_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows();
  const size_t n = b.rows();
  const size_t k = a.cols();
  Matrix c(m, n);
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (size_t j = 0; j < n; ++j) {
      const double* brow = b.RowPtr(j);
      double sum = 0.0;
      for (size_t kk = 0; kk < k; ++kk) sum += arow[kk] * brow[kk];
      crow[j] = sum;
    }
  }
  return c;
}

KS_KERNEL_ALIGN Matrix Gram(const Matrix& a) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  Matrix g(d, d);
  for (size_t r = 0; r < n; ++r) {
    const double* row = a.RowPtr(r);
    for (size_t i = 0; i < d; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      double* grow = g.RowPtr(i);
      // Upper triangle only.
      for (size_t j = i; j < d; ++j) grow[j] += ri * row[j];
    }
  }
  // Mirror to the lower triangle.
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

}  // namespace keystone
