// Parameterized property sweeps over the numeric substrate and the solver
// family: invariants that must hold across shapes, seeds and sparsity.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/common/rng.h"
#include "src/core/exec_context.h"
#include "src/linalg/eigen.h"
#include "src/linalg/fft.h"
#include "src/linalg/gemm.h"
#include "src/linalg/qr.h"
#include "src/linalg/svd.h"
#include "src/ops/convolution.h"
#include "src/solvers/solver_costs.h"
#include "src/solvers/solvers.h"

namespace keystone {
namespace {

// --- QR across shapes -------------------------------------------------------

class QrShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(QrShapeTest, FactorizationInvariants) {
  const auto [n, d, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::GaussianRandom(n, d, &rng);
  const QrResult qr = HouseholderQr(a);
  // A = QR.
  EXPECT_TRUE(Gemm(qr.q, qr.r).ApproxEquals(a, 1e-8));
  // Q^T Q = I.
  EXPECT_TRUE(
      GemmTransA(qr.q, qr.q).ApproxEquals(Matrix::Identity(d), 1e-8));
  // R upper triangular.
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(qr.r(i, j), 0.0, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapeTest,
    ::testing::Values(std::tuple{4u, 4u, 1u}, std::tuple{16u, 7u, 2u},
                      std::tuple{50u, 50u, 3u}, std::tuple{100u, 20u, 4u},
                      std::tuple{33u, 32u, 5u}, std::tuple{8u, 1u, 6u}));

// --- SVD across shapes ------------------------------------------------------

class SvdShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(SvdShapeTest, ReconstructionAndOrthogonality) {
  const auto [n, d, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::GaussianRandom(n, d, &rng);
  const SvdResult svd = ExactSvd(a);
  EXPECT_TRUE(SvdReconstruct(svd).ApproxEquals(a, 1e-6));
  for (size_t i = 1; i < svd.singular_values.size(); ++i) {
    EXPECT_GE(svd.singular_values[i - 1], svd.singular_values[i] - 1e-12);
  }
  // Singular values are non-negative.
  for (double s : svd.singular_values) EXPECT_GE(s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeTest,
    ::testing::Values(std::tuple{10u, 10u, 11u}, std::tuple{25u, 8u, 12u},
                      std::tuple{8u, 25u, 13u}, std::tuple{40u, 3u, 14u},
                      std::tuple{3u, 40u, 15u}));

// --- Symmetric eigensolver across sizes --------------------------------------

class EigenSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenSizeTest, TraceAndReconstruction) {
  const size_t n = GetParam();
  Rng rng(21 + n);
  Matrix a = Matrix::GaussianRandom(n, n, &rng);
  Matrix sym = a + a.Transposed();
  const auto eig = SymmetricEigen(sym);
  // Trace preserved: sum of eigenvalues == trace.
  double trace = 0.0;
  double eig_sum = 0.0;
  for (size_t i = 0; i < n; ++i) trace += sym(i, i);
  for (double v : eig.values) eig_sum += v;
  EXPECT_NEAR(trace, eig_sum, 1e-8 * (1.0 + std::fabs(trace)));
  // Frobenius norm preserved (sum of squared eigenvalues).
  double fro_sq = 0.0;
  for (double v : eig.values) fro_sq += v * v;
  const double expected = sym.FrobeniusNorm();
  EXPECT_NEAR(std::sqrt(fro_sq), expected, 1e-8 * (1.0 + expected));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeTest,
                         ::testing::Values(1, 2, 3, 5, 9, 17, 33));

// --- FFT round trips across lengths -----------------------------------------

class FftLengthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FftLengthTest, RoundTripAndParseval) {
  const size_t n = GetParam();
  Rng rng(31 + n);
  std::vector<Complex> data(n);
  for (auto& v : data) v = Complex(rng.NextGaussian(), rng.NextGaussian());
  const auto freq = FftArbitrary(data);
  const auto back = InverseFftArbitrary(freq);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), data[i].real(), 1e-8);
    EXPECT_NEAR(back[i].imag(), data[i].imag(), 1e-8);
    time_energy += std::norm(data[i]);
    freq_energy += std::norm(freq[i]);
  }
  // Parseval: sum |X_k|^2 = n * sum |x_i|^2.
  EXPECT_NEAR(freq_energy, n * time_energy, 1e-6 * freq_energy);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 31, 60,
                                           64, 100, 128));

// --- Solver equivalence across problem shapes --------------------------------

struct SolverCase {
  size_t n;
  size_t d;
  size_t k;
  uint64_t seed;
};

class SolverEquivalenceTest : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverEquivalenceTest, AllDenseSolversAgreeOnNoiselessData) {
  const SolverCase c = GetParam();
  Rng rng(c.seed);
  Matrix x_true = Matrix::GaussianRandom(c.d, c.k, &rng);
  std::vector<DenseVec> rows(c.n);
  std::vector<DenseVec> labels(c.n);
  for (size_t i = 0; i < c.n; ++i) {
    rows[i].resize(c.d);
    for (auto& v : rows[i]) v = rng.NextGaussian();
    labels[i].resize(c.k);
    for (size_t cc = 0; cc < c.k; ++cc) {
      double y = 0;
      for (size_t j = 0; j < c.d; ++j) y += rows[i][j] * x_true(j, cc);
      labels[i][cc] = y;
    }
  }
  auto data = MakeDataset(std::move(rows), 4);
  auto label_ds = MakeDataset(std::move(labels), 4);

  LinearSolverConfig config;
  config.num_classes = static_cast<int>(c.k);
  config.l2_reg = 1e-9;
  config.lbfgs_iterations = 250;
  config.block_size = std::max<size_t>(4, c.d / 3);
  config.block_epochs = 20;
  ExecContext ctx(ClusterResourceDescriptor::R3_4xlarge(4));

  auto weights = [&](auto&& solver) {
    auto model = solver.Fit(*data, *label_ds, &ctx).model;
    return dynamic_cast<LinearMapModel*>(model.get())->weights();
  };
  EXPECT_LT((weights(LocalExactSolver(config)) - x_true).MaxAbs(), 1e-4);
  EXPECT_LT((weights(DistributedExactSolver(config)) - x_true).MaxAbs(),
            1e-4);
  EXPECT_LT((weights(DenseLbfgsSolver(config)) - x_true).MaxAbs(), 5e-3);
  EXPECT_LT((weights(DenseBlockSolver(config)) - x_true).MaxAbs(), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Problems, SolverEquivalenceTest,
    ::testing::Values(SolverCase{120, 8, 1, 1}, SolverCase{200, 15, 3, 2},
                      SolverCase{400, 30, 2, 3}, SolverCase{150, 5, 6, 4}));

// --- Convolution strategy agreement across sizes -----------------------------

struct ConvCase {
  size_t image;
  size_t filter;
  size_t channels;
  size_t banks;
  uint64_t seed;
};

class ConvAgreementTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvAgreementTest, BlasAndFftAgree) {
  const ConvCase c = GetParam();
  Rng rng(c.seed);
  FilterBank bank = FilterBank::Random(c.banks, c.filter, c.channels, &rng);
  Image img(c.image, c.image, c.channels);
  for (auto& v : img.data) v = rng.NextGaussian();
  const Image blas = Convolver(bank, ConvolutionStrategy::kBlas).Apply(img);
  const Image fft = Convolver(bank, ConvolutionStrategy::kFft).Apply(img);
  ASSERT_EQ(blas.data.size(), fft.data.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < blas.data.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(blas.data[i] - fft.data[i]));
  }
  EXPECT_LT(max_diff, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvAgreementTest,
    ::testing::Values(ConvCase{8, 2, 1, 1, 1}, ConvCase{16, 3, 3, 4, 2},
                      ConvCase{20, 7, 2, 3, 3}, ConvCase{9, 9, 1, 2, 4},
                      ConvCase{24, 5, 4, 2, 5}));

// --- Cost-model monotonicity -------------------------------------------------

class CostMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(CostMonotonicityTest, MoreWorkersNeverIncreaseComputeTime) {
  const int w = GetParam();
  const auto a = solver_costs::Lbfgs(1e6, 4096, 10, 4096, 50, w);
  const auto b = solver_costs::Lbfgs(1e6, 4096, 10, 4096, 50, 2 * w);
  EXPECT_GE(a.flops, b.flops);
  EXPECT_GE(a.bytes, b.bytes);
  // Coordination does not shrink with more workers.
  EXPECT_LE(a.network, b.network + 1e-9);

  const auto c = solver_costs::DistributedExact(1e6, 2048, 10, 2048, w);
  const auto d = solver_costs::DistributedExact(1e6, 2048, 10, 2048, 2 * w);
  EXPECT_GE(c.flops, d.flops);
  EXPECT_LE(c.rounds, d.rounds + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Workers, CostMonotonicityTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace keystone
