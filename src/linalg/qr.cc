#include "src/linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/common/kernel_align.h"
#include "src/linalg/gemm.h"
#include "src/linalg/syrk.h"

namespace keystone {

namespace {

// Columns per Cholesky panel.
constexpr size_t kPanel = 64;

// Solves a packed micro-panel of kTile rows against a diagonal block:
// p[kTile * k + r] is row r's x_k, and diag_t[k * nb + j] = L(j, k) for
// j >= k within the block. Row r's x_j takes x_k * L(j, k) for k
// ascending, then its division by L(j, j): the column-by-column
// algorithm's operations, in its order, for four rows at once.
KS_KERNEL_ALIGN void SolvePanelTile(size_t nb, const double* diag_t,
                                    double* p) {
  static_assert(syrk::kTile == 4, "two 2-double vectors per packed row");
  typedef double V __attribute__((vector_size(16)));
  for (size_t k = 0; k < nb; ++k) {
    const double* dk = diag_t + k * nb;
    V x0, x1;
    std::memcpy(&x0, p + syrk::kTile * k, sizeof(V));
    std::memcpy(&x1, p + syrk::kTile * k + 2, sizeof(V));
    x0 /= dk[k];
    x1 /= dk[k];
    std::memcpy(p + syrk::kTile * k, &x0, sizeof(V));
    std::memcpy(p + syrk::kTile * k + 2, &x1, sizeof(V));
    for (size_t j = k + 1; j < nb; ++j) {
      double* pj = p + syrk::kTile * j;
      V y0, y1;
      std::memcpy(&y0, pj, sizeof(V));
      std::memcpy(&y1, pj + 2, sizeof(V));
      y0 -= x0 * dk[j];
      y1 -= x1 * dk[j];
      std::memcpy(pj, &y0, sizeof(V));
      std::memcpy(pj + 2, &y1, sizeof(V));
    }
  }
}

}  // namespace

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

KS_KERNEL_ALIGN bool Cholesky(const Matrix& a, Matrix* l, double jitter,
                              ThreadPool* pool) {
  const size_t n = a.rows();
  KS_CHECK_EQ(a.cols(), n);
  // Right-looking, kPanel columns at a time, in place on the lower triangle
  // of A + jitter I. Entry (i, j) receives its products L(i, k) L(j, k) one
  // at a time in ascending k, earlier panels' through the trailing updates
  // and its own panel's in the diagonal block or the panel solve, then the
  // square root or the division: the operations of the column-by-column
  // loop, in its order.
  Matrix& m = *l;
  m = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    std::copy(a.RowPtr(i), a.RowPtr(i) + i, m.RowPtr(i));
    m(i, i) = a(i, i) + jitter;
  }
  std::vector<double> diag_t(kPanel * kPanel);
  std::vector<double> packed(syrk::PackedSize(n, std::min(n, kPanel)));
  for (size_t k0 = 0; k0 < n; k0 += kPanel) {
    const size_t nb = std::min(kPanel, n - k0);
    // Diagonal block, column by column.
    for (size_t j = k0; j < k0 + nb; ++j) {
      double* lj = m.RowPtr(j);
      double diag = lj[j];
      for (size_t k = k0; k < j; ++k) diag -= lj[k] * lj[k];
      if (diag <= 0.0) return false;
      const double ljj = std::sqrt(diag);
      lj[j] = ljj;
      for (size_t i = j + 1; i < k0 + nb; ++i) {
        double* li = m.RowPtr(i);
        double sum = li[j];
        for (size_t k = k0; k < j; ++k) sum -= li[k] * lj[k];
        li[j] = sum / ljj;
      }
    }
    const size_t t0 = k0 + nb;
    if (t0 == n) break;
    const size_t rows = n - t0;
    // diag_t(k, j) = L(k0 + j, k0 + k) for j >= k: the block transposed,
    // so the panel solve reads it contiguously.
    for (size_t k = 0; k < nb; ++k) {
      for (size_t j = k; j < nb; ++j) diag_t[k * nb + j] = m(k0 + j, k0 + k);
    }
    // Panel solve of the rows below, a packed micro-panel at a time; the
    // packed panel is then the trailing update's operand.
    syrk::ForEachChunk(pool, rows, [&](size_t chunk) {
      const size_t first = chunk * syrk::kChunkRows;
      const size_t last = std::min(first + syrk::kChunkRows, rows);
      for (size_t i0 = first; i0 < last; i0 += syrk::kTile) {
        const size_t tile_rows = std::min(syrk::kTile, rows - i0);
        double* p = packed.data() + syrk::PackedOffset(i0, nb);
        if (tile_rows < syrk::kTile) std::fill(p, p + syrk::kTile * nb, 0.0);
        for (size_t r = 0; r < tile_rows; ++r) {
          const double* x = m.RowPtr(t0 + i0 + r) + k0;
          for (size_t k = 0; k < nb; ++k) p[syrk::kTile * k + r] = x[k];
        }
        SolvePanelTile(nb, diag_t.data(), p);
        for (size_t r = 0; r < tile_rows; ++r) {
          double* x = m.RowPtr(t0 + i0 + r) + k0;
          for (size_t k = 0; k < nb; ++k) x[k] = p[syrk::kTile * k + r];
        }
      }
    });
    syrk::ForEachChunk(pool, rows, [&](size_t chunk) {
      syrk::SubtractLower(packed.data(), nb, rows, chunk, m.RowPtr(t0) + t0,
                          n);
    });
  }
  return true;
}

KS_KERNEL_ALIGN Matrix SolveSpd(const Matrix& a, const Matrix& b,
                                ThreadPool* pool) {
  Matrix l;
  double jitter = 0.0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    if (Cholesky(a, &l, jitter, pool)) {
      // The transposed copy stays on purpose. Reading L's columns in place
      // instead was measured to raise perfbench's peak RSS by a quarter:
      // without this allocation, the freed factor and Gram leave a glibc
      // thread arena's top just under its dynamic trim threshold, so
      // every arena that ran a solve keeps them resident.
      const Matrix y = ForwardSubstitute(l, b);
      return BackSubstitute(l.Transposed(), y);
    }
    jitter = jitter == 0.0 ? 1e-10 * (1.0 + a.MaxAbs()) : jitter * 100.0;
  }
  KS_CHECK(false) << "SolveSpd: matrix is not positive definite";
  return Matrix();
}

}  // namespace keystone
