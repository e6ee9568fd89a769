#include <algorithm>
#include <cmath>

#include "src/common/check.h"
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

auto SparseLbfgsSolver::Fit(const Data& data, const Labels& labels,
                            ExecContext* ctx) const -> Model {
  const size_t d = SparseFeatureDim(data);
  const SparseMatrix a = AssembleSparse(data, d);
  const Matrix b = AssembleLabels(labels);
  const internal_solvers::SparseDesign design{&a};
  internal_solvers::LbfgsFit fit =
      internal_solvers::FitLbfgs(design, b, config_);
  return {std::make_shared<SparseLinearMapModel>(std::move(fit.x), DenseVec{}),
          solver_costs::Lbfgs(a.rows(), d, b.cols(), design.avg_nnz(),
                              fit.gradient_evals, ctx->resources().num_nodes)};
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

std::optional<CostProfile> SparseExactSolver::FitCost(const Data& data,
                                                      const Labels& labels,
                                                      ExecContext* ctx) const {
  (void)ctx;
  const DesignShape shape = SparseDesignShape(data, labels);
  KS_CHECK_LE(shape.d, kMaxDenseGramDim)
      << "SparseExactSolver: dense " << shape.d << "x" << shape.d
      << " Gram matrix exceeds node memory (the paper's crash case)";
  return solver_costs::LocalExact(shape.n, shape.d, shape.k, shape.s);
}

auto SparseExactSolver::Fit(const Data& data, const Labels& labels,
                            ExecContext* ctx) const -> Model {
  const CostProfile cost = *FitCost(data, labels, ctx);
  const SparseMatrix a = AssembleSparse(data, SparseFeatureDim(data));
  const Matrix b = AssembleLabels(labels);
  Matrix x =
      RidgeSolve(a.Gram(), a.TransMatMul(b), config_.l2_reg, ctx->pool());
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

std::optional<CostProfile> SparseBlockSolver::FitCost(const Data& data,
                                                      const Labels& labels,
                                                      ExecContext* ctx) const {
  const DesignShape shape = SparseDesignShape(data, labels);
  return solver_costs::Block(shape.n, shape.d, shape.k, shape.s,
                             std::min(config_.block_size, shape.d),
                             config_.block_epochs, ctx->resources().num_nodes);
}

auto SparseBlockSolver::Fit(const Data& data, const Labels& labels,
                            ExecContext* ctx) const -> Model {
  const CostProfile cost = *FitCost(data, labels, ctx);
  const size_t d = SparseFeatureDim(data);
  const SparseMatrix a = AssembleSparse(data, d);
  // Densify each block's columns — the step that throws away sparsity.
  Matrix x = internal_solvers::FitBlocks(
      d, AssembleLabels(labels), config_, [&a](size_t c0, size_t c1) {
        Matrix a_j(a.rows(), c1 - c0);
        for (size_t i = 0; i < a.rows(); ++i) {
          const auto [begin, end] = a.RowRange(i);
          for (size_t p = begin; p < end; ++p) {
            const uint32_t col = a.indices()[p];
            if (col >= c0 && col < c1) a_j(i, col - c0) = a.values()[p];
          }
        }
        return a_j;
      });
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
