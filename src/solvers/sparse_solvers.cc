#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/kernel_align.h"
#include "src/linalg/gemm.h"
#include "src/linalg/qr.h"
#include "src/solvers/lbfgs.h"
#include "src/solvers/objectives.h"
#include "src/solvers/solver_costs.h"
#include "src/solvers/solver_util.h"
#include "src/solvers/solvers.h"

namespace keystone {

namespace {

// Guard against accidentally materializing a huge dense Gram matrix in a
// test process: beyond this dimension the exact sparse solve would need
// more memory than any single node has (the paper's crash regime).
constexpr size_t kMaxDenseGramDim = 20000;

}  // namespace

// --- SparseLbfgsSolver ------------------------------------------------------

Fitted<Transformer<SparseVector, DenseVec>> SparseLbfgsSolver::Fit(
    const DistDataset<SparseVector>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const size_t d = SparseFeatureDim(data);
  const SparseMatrix a = AssembleSparse(data, d);
  const Matrix b = AssembleLabels(labels);
  KS_CHECK_EQ(a.rows(), b.rows());
  const size_t k = b.cols();
  internal_solvers::SparseDesign design{&a};

  LbfgsOptions options;
  options.max_iterations = config_.lbfgs_iterations;
  const double lambda = config_.l2_reg;
  const bool logistic = config_.loss == LinearSolverConfig::Loss::kLogistic;

  LbfgsResult result = MinimizeLbfgs(
      [&](const std::vector<double>& x, std::vector<double>* grad) {
        return logistic
                   ? internal_solvers::LogisticObjective(design, b, lambda, d,
                                                         k, x, grad)
                   : internal_solvers::LeastSquaresObjective(design, b, lambda,
                                                             d, k, x, grad);
      },
      std::vector<double>(d * k, 0.0), options);

  Matrix x(d, k);
  std::copy(result.x.begin(), result.x.end(), x.data());
  const double avg_nnz =
      static_cast<double>(a.nnz()) / std::max<size_t>(1, a.rows());
  return {std::make_shared<SparseLinearMapModel>(std::move(x), DenseVec{}),
          solver_costs::Lbfgs(a.rows(), d, k, avg_nnz, result.gradient_evals,
                              ctx->resources().num_nodes)};
}

CostProfile SparseLbfgsSolver::EstimateCost(const DataStats& in,
                                            int workers) const {
  return solver_costs::Lbfgs(in.num_records, in.dim, config_.num_classes,
                             in.avg_nnz, config_.lbfgs_iterations, workers);
}

double SparseLbfgsSolver::ScratchMemoryBytes(const DataStats& in,
                                             int workers) const {
  return solver_costs::LbfgsScratch(in.num_records, in.dim,
                                    config_.num_classes, in.avg_nnz, workers);
}

// --- SparseExactSolver ------------------------------------------------------

std::optional<CostProfile> SparseExactSolver::FitCost(
    const DistDataset<SparseVector>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  (void)ctx;
  const DesignShape shape = SparseDesignShape(data, labels);
  KS_CHECK_LE(shape.d, kMaxDenseGramDim)
      << "SparseExactSolver: dense " << shape.d << "x" << shape.d
      << " Gram matrix exceeds node memory (the paper's crash case)";
  return solver_costs::LocalExact(shape.n, shape.d, shape.k, shape.s);
}

// Aligned: the CSR Gram accumulation below is the fit's hot loop.
KS_KERNEL_ALIGN Fitted<Transformer<SparseVector, DenseVec>>
SparseExactSolver::Fit(const DistDataset<SparseVector>& data,
                       const DistDataset<DenseVec>& labels,
                       ExecContext* ctx) const {
  const CostProfile cost = *FitCost(data, labels, ctx);
  const size_t d = SparseFeatureDim(data);
  const SparseMatrix a = AssembleSparse(data, d);
  const Matrix b = AssembleLabels(labels);

  // Dense Gram accumulation from CSR rows.
  Matrix gram(d, d);
  for (size_t i = 0; i < a.rows(); ++i) {
    const auto [begin, end] = a.RowRange(i);
    for (size_t p = begin; p < end; ++p) {
      const uint32_t cp = a.indices()[p];
      const double vp = a.values()[p];
      double* grow = gram.RowPtr(cp);
      for (size_t q = begin; q < end; ++q) {
        grow[a.indices()[q]] += vp * a.values()[q];
      }
    }
  }
  const double ridge = std::max(config_.l2_reg, 1e-10);
  for (size_t i = 0; i < d; ++i) gram(i, i) += ridge;
  Matrix x = SolveSpd(gram, a.TransMatMul(b));
  return {std::make_shared<SparseLinearMapModel>(std::move(x), DenseVec{}),
          cost};
}

CostProfile SparseExactSolver::EstimateCost(const DataStats& in,
                                            int workers) const {
  // Distributed TSQR over densified partitions: quadratic compute in d.
  const double w = std::max(1, workers);
  const double n = in.num_records;
  const double d = in.dim;
  const double k = config_.num_classes;
  CostProfile cost;
  cost.flops = 2.0 * n * d * (d + k) / w + d * d * d / 3.0;
  cost.bytes = 4.0 * n * d / w + 8.0 * (d * d + d * k);
  cost.network = 8.0 * d * (d + k);
  cost.rounds = 2.0 + std::log2(std::max(2, workers));
  return cost;
}

double SparseExactSolver::ScratchMemoryBytes(const DataStats& in,
                                             int workers) const {
  // Densified single-precision partition copy plus the d x d factor.
  const double w = std::max(1, workers);
  return 4.0 * in.num_records * in.dim / w + 8.0 * in.dim * in.dim;
}

// --- SparseBlockSolver ------------------------------------------------------

std::optional<CostProfile> SparseBlockSolver::FitCost(
    const DistDataset<SparseVector>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const DesignShape shape = SparseDesignShape(data, labels);
  return solver_costs::Block(shape.n, shape.d, shape.k, shape.s,
                             std::min(config_.block_size, shape.d),
                             config_.block_epochs, ctx->resources().num_nodes);
}

Fitted<Transformer<SparseVector, DenseVec>> SparseBlockSolver::Fit(
    const DistDataset<SparseVector>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const CostProfile cost = *FitCost(data, labels, ctx);
  const size_t d = SparseFeatureDim(data);
  const SparseMatrix a = AssembleSparse(data, d);
  const Matrix b = AssembleLabels(labels);
  const size_t n = a.rows();
  const size_t k = b.cols();
  const size_t block = std::min(config_.block_size, d);
  const double ridge = std::max(config_.l2_reg, 1e-10);

  Matrix x(d, k);
  Matrix residual = b;
  for (int epoch = 0; epoch < config_.block_epochs; ++epoch) {
    for (size_t c0 = 0; c0 < d; c0 += block) {
      const size_t c1 = std::min(c0 + block, d);
      const size_t width = c1 - c0;
      // Densify the block's columns — the step that throws away sparsity.
      Matrix a_j(n, width);
      for (size_t i = 0; i < n; ++i) {
        const auto [begin, end] = a.RowRange(i);
        for (size_t p = begin; p < end; ++p) {
          const uint32_t col = a.indices()[p];
          if (col >= c0 && col < c1) a_j(i, col - c0) = a.values()[p];
        }
      }
      const Matrix x_j = x.RowSlice(c0, c1);
      Matrix target = residual + Gemm(a_j, x_j);
      Matrix gram = Gram(a_j);
      for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += ridge;
      Matrix x_j_new = SolveSpd(gram, GemmTransA(a_j, target));
      residual = target - Gemm(a_j, x_j_new);
      for (size_t r = 0; r < width; ++r) {
        for (size_t c = 0; c < k; ++c) x(c0 + r, c) = x_j_new(r, c);
      }
    }
  }
  return {std::make_shared<SparseLinearMapModel>(std::move(x), DenseVec{}),
          cost};
}

CostProfile SparseBlockSolver::EstimateCost(const DataStats& in,
                                            int workers) const {
  return solver_costs::Block(in.num_records, in.dim, config_.num_classes,
                             in.avg_nnz,
                             std::min<size_t>(config_.block_size, in.dim),
                             config_.block_epochs, workers);
}

double SparseBlockSolver::ScratchMemoryBytes(const DataStats& in,
                                             int workers) const {
  return solver_costs::BlockScratch(in.num_records, in.dim,
                                    config_.num_classes,
                                    std::min<size_t>(config_.block_size,
                                                     in.dim),
                                    workers);
}

// --- Logical sparse solver --------------------------------------------------

std::shared_ptr<OptimizableEstimator> MakeSparseLinearSolver(
    const LinearSolverConfig& config) {
  std::vector<std::shared_ptr<EstimatorBase>> options = {
      std::make_shared<SparseLbfgsSolver>(config),
      std::make_shared<SparseExactSolver>(config),
      std::make_shared<SparseBlockSolver>(config),
  };
  return std::make_shared<OptimizableEstimator>("LinearSolver",
                                                std::move(options));
}

}  // namespace keystone
