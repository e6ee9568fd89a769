#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/linalg/eigen.h"
#include "src/linalg/fft.h"
#include "src/linalg/gemm.h"
#include "src/linalg/matrix.h"
#include "src/linalg/qr.h"
#include "src/linalg/sparse.h"
#include "src/linalg/svd.h"
#include "src/linalg/vector_ops.h"

namespace keystone {
namespace {

Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      c(i, j) = sum;
    }
  }
  return c;
}

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(3);
  Matrix m = Matrix::GaussianRandom(17, 33, &rng);
  EXPECT_TRUE(m.Transposed().Transposed().ApproxEquals(m, 0.0));
}

TEST(MatrixTest, RowColSlice) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix rows = m.RowSlice(1, 3);
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_DOUBLE_EQ(rows(0, 0), 4.0);
  Matrix cols = m.ColSlice(1, 2);
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_DOUBLE_EQ(cols(2, 0), 8.0);
}

TEST(MatrixTest, VStackHStack) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}};
  Matrix v = Matrix::VStack({a, b});
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_DOUBLE_EQ(v(2, 1), 6.0);

  Matrix c = {{7}, {8}};
  Matrix h = Matrix::HStack({a, c});
  EXPECT_EQ(h.cols(), 3u);
  EXPECT_DOUBLE_EQ(h(1, 2), 8.0);
}

TEST(MatrixTest, ArithmeticOps) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{4, 3}, {2, 1}};
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(MatrixTest, ColMeansAndCentering) {
  Matrix m = {{1, 10}, {3, 30}};
  const auto means = m.ColMeans();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 20.0);
  m.SubtractRowVector(means);
  EXPECT_DOUBLE_EQ(m(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 10.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m = {{3, 4}};
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(GemmTest, MatchesNaive) {
  Rng rng(5);
  for (auto [m, k, n] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {3, 4, 5}, {17, 31, 9}, {64, 64, 64}, {100, 7, 65}}) {
    Matrix a = Matrix::GaussianRandom(m, k, &rng);
    Matrix b = Matrix::GaussianRandom(k, n, &rng);
    EXPECT_TRUE(Gemm(a, b).ApproxEquals(NaiveMultiply(a, b), 1e-9))
        << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(GemmTest, TransAMatchesExplicitTranspose) {
  Rng rng(6);
  Matrix a = Matrix::GaussianRandom(20, 11, &rng);
  Matrix b = Matrix::GaussianRandom(20, 13, &rng);
  EXPECT_TRUE(GemmTransA(a, b).ApproxEquals(
      NaiveMultiply(a.Transposed(), b), 1e-9));
}

TEST(GemmTest, TransBMatchesExplicitTranspose) {
  Rng rng(7);
  Matrix a = Matrix::GaussianRandom(12, 21, &rng);
  Matrix b = Matrix::GaussianRandom(9, 21, &rng);
  EXPECT_TRUE(GemmTransB(a, b).ApproxEquals(
      NaiveMultiply(a, b.Transposed()), 1e-9));
}

TEST(GemmTest, GramIsSymmetricAndCorrect) {
  Rng rng(8);
  Matrix a = Matrix::GaussianRandom(30, 10, &rng);
  Matrix g = Gram(a);
  EXPECT_TRUE(g.ApproxEquals(NaiveMultiply(a.Transposed(), a), 1e-9));
  EXPECT_TRUE(g.ApproxEquals(g.Transposed(), 0.0));
}

TEST(MatVecTest, MatchesGemm) {
  Rng rng(9);
  Matrix a = Matrix::GaussianRandom(14, 6, &rng);
  std::vector<double> x(6);
  for (auto& v : x) v = rng.NextGaussian();
  const auto y = MatVec(a, x);
  for (size_t i = 0; i < a.rows(); ++i) {
    double expect = 0;
    for (size_t j = 0; j < a.cols(); ++j) expect += a(i, j) * x[j];
    EXPECT_NEAR(y[i], expect, 1e-12);
  }
}

TEST(QrTest, ReconstructsInput) {
  Rng rng(10);
  Matrix a = Matrix::GaussianRandom(25, 8, &rng);
  QrResult qr = HouseholderQr(a);
  EXPECT_TRUE(Gemm(qr.q, qr.r).ApproxEquals(a, 1e-9));
}

TEST(QrTest, QHasOrthonormalColumns) {
  Rng rng(11);
  Matrix a = Matrix::GaussianRandom(40, 12, &rng);
  QrResult qr = HouseholderQr(a);
  Matrix qtq = GemmTransA(qr.q, qr.q);
  EXPECT_TRUE(qtq.ApproxEquals(Matrix::Identity(12), 1e-9));
}

TEST(QrTest, RIsUpperTriangular) {
  Rng rng(12);
  Matrix a = Matrix::GaussianRandom(10, 10, &rng);
  QrResult qr = HouseholderQr(a);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(qr.r(i, j), 0.0, 1e-12);
    }
  }
}

TEST(QrTest, LeastSquaresRecoversExactSolution) {
  Rng rng(13);
  Matrix a = Matrix::GaussianRandom(50, 10, &rng);
  Matrix x_true = Matrix::GaussianRandom(10, 3, &rng);
  Matrix b = Gemm(a, x_true);
  Matrix x = LeastSquaresQr(a, b);
  EXPECT_TRUE(x.ApproxEquals(x_true, 1e-8));
}

TEST(QrTest, LeastSquaresMinimizesResidual) {
  Rng rng(14);
  Matrix a = Matrix::GaussianRandom(60, 5, &rng);
  Matrix b = Matrix::GaussianRandom(60, 1, &rng);
  Matrix x = LeastSquaresQr(a, b);
  // At the minimum, the residual must be orthogonal to the column space.
  Matrix residual = Gemm(a, x) - b;
  Matrix at_r = GemmTransA(a, residual);
  EXPECT_LT(at_r.MaxAbs(), 1e-9);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  Rng rng(15);
  Matrix a = Matrix::GaussianRandom(20, 8, &rng);
  Matrix spd = Gram(a);  // SPD with prob 1.
  Matrix l;
  ASSERT_TRUE(Cholesky(spd, &l));
  EXPECT_TRUE(GemmTransB(l, l).ApproxEquals(spd, 1e-8));
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix indef = {{1, 0}, {0, -1}};
  Matrix l;
  EXPECT_FALSE(Cholesky(indef, &l));
}

TEST(SolveSpdTest, SolvesSystem) {
  Rng rng(16);
  Matrix a = Matrix::GaussianRandom(30, 6, &rng);
  Matrix spd = Gram(a);
  Matrix x_true = Matrix::GaussianRandom(6, 2, &rng);
  Matrix b = Gemm(spd, x_true);
  Matrix x = SolveSpd(spd, b);
  EXPECT_TRUE(x.ApproxEquals(x_true, 1e-6));
}

// --- Blocked kernels against the unblocked ones they replaced --------------
//
// The blocked Cholesky, SolveSpd and Gram must reproduce these copies of
// the unblocked kernels bit for bit, with no pool and with pools of any
// size.

bool ReferenceCholesky(const Matrix& a, Matrix* l, double jitter) {
  const size_t n = a.rows();
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

Matrix ReferenceSolveSpd(const Matrix& a, const Matrix& b) {
  Matrix l;
  double jitter = 0.0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    if (ReferenceCholesky(a, &l, jitter)) {
      const Matrix y = ForwardSubstitute(l, b);
      return BackSubstitute(l.Transposed(), y);
    }
    jitter = jitter == 0.0 ? 1e-10 * (1.0 + a.MaxAbs()) : jitter * 100.0;
  }
  ADD_FAILURE() << "not positive definite";
  return Matrix();
}

Matrix ReferenceGram(const Matrix& a) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  Matrix g(d, d);
  for (size_t r = 0; r < n; ++r) {
    const double* row = a.RowPtr(r);
    for (size_t i = 0; i < d; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      double* grow = g.RowPtr(i);
      for (size_t j = i; j < d; ++j) grow[j] += ri * row[j];
    }
  }
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

bool SameBits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

// Runs fn with no pool, then with pools of 1, 2 and 4 threads.
void ForEachPool(const std::function<void(ThreadPool*)>& fn) {
  {
    SCOPED_TRACE("no pool");
    fn(nullptr);
  }
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + "-thread pool");
    ThreadPool pool(threads);
    fn(&pool);
  }
}

// A well-conditioned n x n SPD matrix: the Gram of a taller Gaussian design.
Matrix SpdMatrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  return ReferenceGram(Matrix::GaussianRandom(n + 8, n, &rng));
}

const size_t kBlockedSizes[] = {0, 1, 2, 63, 64, 65, 127, 128, 129, 300};

TEST(BlockedKernelTest, CholeskyMatchesUnblockedBitForBit) {
  for (size_t n : kBlockedSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Matrix spd = SpdMatrix(n, 100 + n);
    for (double jitter : {0.0, 0.25}) {
      Matrix want;
      ASSERT_TRUE(ReferenceCholesky(spd, &want, jitter));
      ForEachPool([&](ThreadPool* pool) {
        Matrix got;
        ASSERT_TRUE(Cholesky(spd, &got, jitter, pool));
        EXPECT_TRUE(SameBits(got, want));
      });
    }
  }
}

TEST(BlockedKernelTest, SolveSpdMatchesUnblockedBitForBit) {
  for (size_t n : kBlockedSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Matrix spd = SpdMatrix(n, 200 + n);
    for (size_t k : {1, 3}) {
      Rng rng(300 + n + k);
      const Matrix b = Matrix::GaussianRandom(n, k, &rng);
      const Matrix want = ReferenceSolveSpd(spd, b);
      ForEachPool([&](ThreadPool* pool) {
        EXPECT_TRUE(SameBits(SolveSpd(spd, b, pool), want)) << "k=" << k;
      });
    }
  }
}

TEST(BlockedKernelTest, CholeskyFailsAtALaterPanelsPivot) {
  // Leading 70 x 70 block SPD, pivot 70 (in the second 64-column panel)
  // negative: the first failing pivot is past the first panel.
  Matrix a = SpdMatrix(130, 7);
  a(70, 70) = -1.0;
  Matrix l;
  ASSERT_FALSE(ReferenceCholesky(a, &l, 0.0));
  ForEachPool([&](ThreadPool* pool) {
    Matrix got;
    EXPECT_FALSE(Cholesky(a, &got, 0.0, pool));
  });
}

TEST(BlockedKernelTest, RankDeficientSolveRetriesAndMatches) {
  // A 200 x 200 Gram of rank 10 fails without jitter, so SolveSpd takes its
  // jitter retry; the retried factor must still match.
  Rng rng(9);
  const Matrix gram = ReferenceGram(Matrix::GaussianRandom(10, 200, &rng));
  Matrix l;
  ASSERT_FALSE(ReferenceCholesky(gram, &l, 0.0));
  const Matrix b = Matrix::GaussianRandom(200, 2, &rng);
  const Matrix want = ReferenceSolveSpd(gram, b);
  ForEachPool([&](ThreadPool* pool) {
    EXPECT_TRUE(SameBits(SolveSpd(gram, b, pool), want));
  });
}

TEST(BlockedKernelTest, GramMatchesRowStreamingBitForBit) {
  // (n, d): n = 0, n < d, d not a multiple of 4, n past one 256-record
  // block, and d past several 32-row chunks.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 5}, {1, 1}, {3, 7}, {40, 129}, {257, 65}, {300, 130}, {513, 67},
      {600, 64}};
  for (const auto& [n, d] : shapes) {
    SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d));
    Rng rng(400 + n + d);
    Matrix a = Matrix::GaussianRandom(n, d, &rng);
    // Exact zeros, which the row-streaming loop skips: a zero row and a
    // scattering of zero entries.
    if (n > 2) {
      for (size_t j = 0; j < d; ++j) a(n / 2, j) = 0.0;
      for (size_t r = 0; r < n; r += 3) a(r, (r * 7) % d) = 0.0;
    }
    const Matrix want = ReferenceGram(a);
    ForEachPool([&](ThreadPool* pool) {
      EXPECT_TRUE(SameBits(Gram(a, pool), want));
    });
  }
}

TEST(EigenTest, DiagonalMatrix) {
  Matrix d = {{3, 0, 0}, {0, 1, 0}, {0, 0, 2}};
  auto eig = SymmetricEigen(d);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
}

TEST(EigenTest, ReconstructsSymmetricMatrix) {
  Rng rng(17);
  Matrix a = Matrix::GaussianRandom(15, 15, &rng);
  Matrix sym = a + a.Transposed();
  auto eig = SymmetricEigen(sym);
  // Reconstruct V diag(lambda) V^T.
  Matrix vd = eig.vectors;
  for (size_t j = 0; j < 15; ++j) {
    for (size_t i = 0; i < 15; ++i) vd(i, j) *= eig.values[j];
  }
  Matrix recon = GemmTransB(vd, eig.vectors);
  EXPECT_TRUE(recon.ApproxEquals(sym, 1e-8));
}

TEST(EigenTest, EigenvectorsOrthonormal) {
  Rng rng(18);
  Matrix a = Matrix::GaussianRandom(12, 12, &rng);
  Matrix sym = a + a.Transposed();
  auto eig = SymmetricEigen(sym);
  Matrix vtv = GemmTransA(eig.vectors, eig.vectors);
  EXPECT_TRUE(vtv.ApproxEquals(Matrix::Identity(12), 1e-9));
}

TEST(SvdTest, ReconstructsTallMatrix) {
  Rng rng(19);
  Matrix a = Matrix::GaussianRandom(30, 10, &rng);
  auto svd = ExactSvd(a);
  EXPECT_TRUE(SvdReconstruct(svd).ApproxEquals(a, 1e-7));
}

TEST(SvdTest, ReconstructsWideMatrix) {
  Rng rng(20);
  Matrix a = Matrix::GaussianRandom(8, 25, &rng);
  auto svd = ExactSvd(a);
  EXPECT_TRUE(SvdReconstruct(svd).ApproxEquals(a, 1e-7));
}

TEST(SvdTest, SingularValuesSortedDescending) {
  Rng rng(21);
  Matrix a = Matrix::GaussianRandom(20, 12, &rng);
  auto svd = ExactSvd(a);
  for (size_t i = 1; i < svd.singular_values.size(); ++i) {
    EXPECT_GE(svd.singular_values[i - 1], svd.singular_values[i]);
  }
}

TEST(SvdTest, TruncatedMatchesExactOnLowRankInput) {
  Rng rng(22);
  // Construct an exactly rank-4 matrix.
  Matrix u = Matrix::GaussianRandom(40, 4, &rng);
  Matrix v = Matrix::GaussianRandom(4, 30, &rng);
  Matrix a = Gemm(u, v);
  auto tsvd = TruncatedSvd(a, 4, &rng);
  EXPECT_TRUE(SvdReconstruct(tsvd).ApproxEquals(a, 1e-6));
}

TEST(SvdTest, TruncatedTopSingularValuesAccurate) {
  Rng rng(23);
  Matrix a = Matrix::GaussianRandom(60, 40, &rng);
  auto exact = ExactSvd(a);
  auto tsvd = TruncatedSvd(a, 5, &rng, /*power_iters=*/4);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(tsvd.singular_values[i], exact.singular_values[i],
                0.02 * exact.singular_values[0]);
  }
}

TEST(SparseTest, FromRowsAndDensity) {
  SparseVector r0;
  r0.Push(1, 2.0);
  r0.Push(3, 4.0);
  SparseVector r1;
  r1.Push(0, 1.0);
  SparseMatrix m = SparseMatrix::FromRows({r0, r1}, 5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.Density(), 0.3);
}

TEST(SparseTest, SortAndMergeCombinesDuplicates) {
  SparseVector v;
  v.Push(3, 1.0);
  v.Push(1, 2.0);
  v.Push(3, 5.0);
  v.SortAndMerge();
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.indices[0], 1u);
  EXPECT_DOUBLE_EQ(v.values[1], 6.0);
}

TEST(SparseTest, MatVecMatchesDense) {
  Rng rng(24);
  Matrix dense = Matrix::GaussianRandom(10, 8, &rng);
  // Sparsify.
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j < dense.cols(); ++j) {
      if (rng.NextDouble() < 0.7) dense(i, j) = 0.0;
    }
  }
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> x(8);
  for (auto& v : x) v = rng.NextGaussian();
  const auto y_sparse = sparse.MatVec(x);
  const auto y_dense = MatVec(dense, x);
  for (size_t i = 0; i < y_sparse.size(); ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
  }
}

TEST(SparseTest, MatTVecMatchesDense) {
  Rng rng(25);
  Matrix dense = Matrix::GaussianRandom(12, 6, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> x(12);
  for (auto& v : x) v = rng.NextGaussian();
  const auto y_sparse = sparse.MatTVec(x);
  const auto y_dense = MatTVec(dense, x);
  for (size_t i = 0; i < y_sparse.size(); ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
  }
}

TEST(SparseTest, MatMulMatchesDense) {
  Rng rng(26);
  Matrix dense = Matrix::GaussianRandom(9, 7, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Matrix b = Matrix::GaussianRandom(7, 4, &rng);
  EXPECT_TRUE(sparse.MatMul(b).ApproxEquals(Gemm(dense, b), 1e-10));
}

TEST(SparseTest, TransMatMulMatchesDense) {
  Rng rng(27);
  Matrix dense = Matrix::GaussianRandom(9, 7, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Matrix b = Matrix::GaussianRandom(9, 3, &rng);
  EXPECT_TRUE(sparse.TransMatMul(b).ApproxEquals(
      GemmTransA(dense, b), 1e-10));
}

TEST(SparseTest, RowSliceAndToDense) {
  Matrix dense = {{1, 0, 2}, {0, 3, 0}, {4, 0, 5}};
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  SparseMatrix sliced = sparse.RowSlice(1, 3);
  EXPECT_TRUE(sliced.ToDense().ApproxEquals(dense.RowSlice(1, 3), 0.0));
}

TEST(FftTest, ForwardInverseRoundTrip) {
  Rng rng(28);
  std::vector<Complex> data(64);
  for (auto& v : data) v = Complex(rng.NextGaussian(), rng.NextGaussian());
  auto original = data;
  Fft(&data);
  InverseFft(&data);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(FftTest, MatchesNaiveDft) {
  Rng rng(29);
  std::vector<Complex> data(16);
  for (auto& v : data) v = Complex(rng.NextGaussian(), 0.0);
  auto fft = data;
  Fft(&fft);
  const size_t n = data.size();
  for (size_t k = 0; k < n; ++k) {
    Complex expect(0, 0);
    for (size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * M_PI * k * j / n;
      expect += data[j] * Complex(std::cos(angle), std::sin(angle));
    }
    EXPECT_NEAR(fft[k].real(), expect.real(), 1e-9);
    EXPECT_NEAR(fft[k].imag(), expect.imag(), 1e-9);
  }
}

TEST(FftTest, ArbitraryLengthMatchesNaiveDft) {
  Rng rng(30);
  for (size_t n : {5u, 12u, 17u, 100u}) {
    std::vector<Complex> data(n);
    for (auto& v : data) v = Complex(rng.NextGaussian(), rng.NextGaussian());
    auto fft = FftArbitrary(data);
    for (size_t k = 0; k < n; ++k) {
      Complex expect(0, 0);
      for (size_t j = 0; j < n; ++j) {
        const double angle = -2.0 * M_PI * k * j / n;
        expect += data[j] * Complex(std::cos(angle), std::sin(angle));
      }
      EXPECT_NEAR(fft[k].real(), expect.real(), 1e-8) << "n=" << n;
      EXPECT_NEAR(fft[k].imag(), expect.imag(), 1e-8) << "n=" << n;
    }
  }
}

TEST(FftTest, ArbitraryRoundTrip) {
  Rng rng(31);
  std::vector<Complex> data(37);
  for (auto& v : data) v = Complex(rng.NextGaussian(), rng.NextGaussian());
  auto back = InverseFftArbitrary(FftArbitrary(data));
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(back[i].real(), data[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), data[i].imag(), 1e-9);
  }
}

TEST(FftTest, ConvolveMatchesNaive) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5};
  const auto c = FftConvolve(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(c[0], 4.0, 1e-10);
  EXPECT_NEAR(c[1], 13.0, 1e-10);
  EXPECT_NEAR(c[2], 22.0, 1e-10);
  EXPECT_NEAR(c[3], 15.0, 1e-10);
}

TEST(FftTest, Convolve2dValidMatchesDirect) {
  Rng rng(32);
  Matrix image = Matrix::GaussianRandom(20, 18, &rng);
  Matrix filter = Matrix::GaussianRandom(5, 3, &rng);
  Matrix fft_out = FftConvolve2dValid(image, filter);
  ASSERT_EQ(fft_out.rows(), 16u);
  ASSERT_EQ(fft_out.cols(), 16u);
  for (size_t i = 0; i < fft_out.rows(); ++i) {
    for (size_t j = 0; j < fft_out.cols(); ++j) {
      double expect = 0.0;
      for (size_t p = 0; p < filter.rows(); ++p) {
        for (size_t q = 0; q < filter.cols(); ++q) {
          expect += image(i + p, j + q) * filter(p, q);
        }
      }
      EXPECT_NEAR(fft_out(i, j), expect, 1e-9);
    }
  }
}

TEST(VectorOpsTest, Basics) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
  Axpy(2.0, a, &b);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_EQ(ArgMax({1.0, 9.0, 3.0}), 1u);
}

}  // namespace
}  // namespace keystone
