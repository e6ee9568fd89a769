#include "src/linalg/gemm.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/common/kernel_align.h"
#include "src/linalg/syrk.h"

namespace keystone {

namespace {
// Block sizes sized for a typical 32 KB L1 / 256 KB L2.
constexpr size_t kBlockI = 64;
constexpr size_t kBlockK = 64;
constexpr size_t kBlockJ = 256;
// Records per packed block of the Gram.
constexpr size_t kGramBlock = 256;
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

KS_KERNEL_ALIGN Matrix Gram(const Matrix& a, ThreadPool* pool) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  // Each entry G(i, j) adds a(r, i) * a(r, j) for records r in ascending
  // order, as a row-streaming loop does. The shared SYRK kernel subtracts,
  // so the lower triangle accumulates -G instead: rounding is symmetric, so
  // (-s) - p is exactly -(s + p). Records are packed and applied kGramBlock
  // at a time, each block reloading the tiles from g.
  Matrix g(d, d);
  std::vector<double> packed(syrk::PackedSize(d, std::min(n, kGramBlock)));
  for (size_t r0 = 0; r0 < n; r0 += kGramBlock) {
    const size_t depth = std::min(kGramBlock, n - r0);
    for (size_t k = 0; k < depth; ++k) {
      const double* row = a.RowPtr(r0 + k);
      for (size_t i = 0; i < d; ++i) {
        packed[syrk::PackedOffset(i, depth) + syrk::kTile * k] = row[i];
      }
    }
    syrk::ForEachChunk(pool, d, [&](size_t chunk) {
      syrk::SubtractLower(packed.data(), depth, d, chunk, g.data(), d);
    });
  }
  // Negate and mirror. 0.0 - x rather than -x: an entry that summed to
  // zero is +0.0 either way, and the streaming loop's sum is never -0.0.
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      const double v = 0.0 - g(i, j);
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

}  // namespace keystone
