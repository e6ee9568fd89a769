#include <algorithm>

#include "src/common/check.h"
#include "src/linalg/gemm.h"
#include "src/solvers/objectives.h"
#include "src/solvers/solver_costs.h"
#include "src/solvers/solver_util.h"
#include "src/solvers/solvers.h"

namespace keystone {

namespace {

// Solves min ||A X - B|| + lambda ||X|| exactly: normal equations when
// n >= d, min-norm dual when n < d (needed for sample-size fits).
Matrix ExactLeastSquares(const Matrix& a, const Matrix& b, double lambda,
                         ThreadPool* pool) {
  if (a.rows() >= a.cols()) {
    return RidgeSolve(Gram(a, pool), GemmTransA(a, b), lambda, pool);
  }
  // X = A^T (A A^T + ridge I)^{-1} B.
  return GemmTransA(a, RidgeSolve(GemmTransB(a, a), b, lambda, pool));
}

}  // namespace

// --- LocalExactSolver -------------------------------------------------------

std::optional<CostProfile> LocalExactSolver::FitCost(const Data& data,
                                                     const Labels& labels,
                                                     ExecContext* ctx) const {
  (void)ctx;
  const DesignShape shape = DenseDesignShape(data, labels);
  return solver_costs::LocalExact(shape.n, shape.d, shape.k, shape.s);
}

auto LocalExactSolver::Fit(const Data& data, const Labels& labels,
                           ExecContext* ctx) const -> Model {
  const CostProfile cost = *FitCost(data, labels, ctx);
  Matrix x = ExactLeastSquares(AssembleDense(data), AssembleLabels(labels),
                               config_.l2_reg, ctx->pool());
  return {std::make_shared<LinearMapModel>(std::move(x), DenseVec{}), cost};
}

CostProfile LocalExactSolver::EstimateCost(const DataStats& in,
                                           int workers) const {
  (void)workers;  // Single-node operator.
  return solver_costs::LocalExact(in.num_records, in.dim, config_.num_classes,
                                  in.dim);
}

double LocalExactSolver::ScratchMemoryBytes(const DataStats& in,
                                            int workers) const {
  (void)workers;
  return solver_costs::LocalExactScratch(in.num_records, in.dim,
                                         config_.num_classes, in.dim);
}

// --- DistributedExactSolver -------------------------------------------------

std::optional<CostProfile> DistributedExactSolver::FitCost(
    const Data& data, const Labels& labels, ExecContext* ctx) const {
  const DesignShape shape = DenseDesignShape(data, labels);
  KS_CHECK_GT(shape.d, 0u);
  return solver_costs::DistributedExact(shape.n, shape.d, shape.k, shape.s,
                                        ctx->resources().num_nodes);
}

auto DistributedExactSolver::Fit(const Data& data, const Labels& labels,
                                 ExecContext* ctx) const -> Model {
  const CostProfile cost = *FitCost(data, labels, ctx);
  // Per-partition partial Gram + A^T B, then aggregate — the real kernel
  // mirrors the distributed algorithm's structure.
  const Matrix b = AssembleLabels(labels);
  size_t d = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) d = std::max(d, rec.size());
  }
  const size_t k = b.cols();

  Matrix gram(d, d);
  Matrix atb(d, k);
  size_t row = 0;
  for (const auto& part : data.partitions()) {
    // Partition-local accumulation.
    Matrix a_part(part.size(), d);
    for (size_t i = 0; i < part.size(); ++i) {
      std::copy(part[i].begin(), part[i].end(), a_part.RowPtr(i));
    }
    const Matrix b_part = b.RowSlice(row, row + part.size());
    row += part.size();
    gram += Gram(a_part, ctx->pool());
    GemmAccumulate(a_part.Transposed(), b_part, &atb);
  }
  Matrix x = RidgeSolve(std::move(gram), atb, config_.l2_reg, ctx->pool());
  return {std::make_shared<LinearMapModel>(std::move(x), DenseVec{}), cost};
}

CostProfile DistributedExactSolver::EstimateCost(const DataStats& in,
                                                 int workers) const {
  return solver_costs::DistributedExact(in.num_records, in.dim,
                                        config_.num_classes, in.dim, workers);
}

double DistributedExactSolver::ScratchMemoryBytes(const DataStats& in,
                                                  int workers) const {
  return solver_costs::DistributedExactScratch(
      in.num_records, in.dim, config_.num_classes, in.dim, workers);
}

// --- DenseLbfgsSolver -------------------------------------------------------

auto DenseLbfgsSolver::Fit(const Data& data, const Labels& labels,
                           ExecContext* ctx) const -> Model {
  const Matrix a = AssembleDense(data);
  const Matrix b = AssembleLabels(labels);
  internal_solvers::LbfgsFit fit =
      internal_solvers::FitLbfgs(internal_solvers::DenseDesign{&a}, b, config_);
  return {std::make_shared<LinearMapModel>(std::move(fit.x), DenseVec{}),
          solver_costs::Lbfgs(a.rows(), a.cols(), b.cols(), a.cols(),
                              fit.gradient_evals, ctx->resources().num_nodes)};
}

CostProfile DenseLbfgsSolver::EstimateCost(const DataStats& in,
                                           int workers) const {
  return solver_costs::Lbfgs(in.num_records, in.dim, config_.num_classes,
                             in.dim, config_.lbfgs_iterations, workers);
}

double DenseLbfgsSolver::ScratchMemoryBytes(const DataStats& in,
                                            int workers) const {
  return solver_costs::LbfgsScratch(in.num_records, in.dim,
                                    config_.num_classes, in.dim, workers);
}

// --- DenseBlockSolver -------------------------------------------------------

std::optional<CostProfile> DenseBlockSolver::FitCost(const Data& data,
                                                     const Labels& labels,
                                                     ExecContext* ctx) const {
  const DesignShape shape = DenseDesignShape(data, labels);
  return solver_costs::Block(shape.n, shape.d, shape.k, shape.s,
                             std::min(config_.block_size, shape.d),
                             config_.block_epochs, ctx->resources().num_nodes);
}

auto DenseBlockSolver::Fit(const Data& data, const Labels& labels,
                           ExecContext* ctx) const -> Model {
  const CostProfile cost = *FitCost(data, labels, ctx);
  const Matrix a = AssembleDense(data);
  Matrix x = internal_solvers::FitBlocks(
      a.cols(), AssembleLabels(labels), config_,
      [&a](size_t c0, size_t c1) { return a.ColSlice(c0, c1); });
  return {std::make_shared<LinearMapModel>(std::move(x), DenseVec{}), cost};
}

CostProfile DenseBlockSolver::EstimateCost(const DataStats& in,
                                           int workers) const {
  return solver_costs::Block(in.num_records, in.dim, config_.num_classes,
                             in.dim,
                             std::min<size_t>(config_.block_size, in.dim),
                             config_.block_epochs, workers);
}

double DenseBlockSolver::ScratchMemoryBytes(const DataStats& in,
                                            int workers) const {
  return solver_costs::BlockScratch(in.num_records, in.dim,
                                    config_.num_classes,
                                    std::min<size_t>(config_.block_size,
                                                     in.dim),
                                    workers);
}

// --- Logical dense solver ---------------------------------------------------

std::shared_ptr<OptimizableEstimator> MakeDenseLinearSolver(
    const LinearSolverConfig& config) {
  std::vector<std::shared_ptr<EstimatorBase>> options = {
      std::make_shared<DenseLbfgsSolver>(config),
      std::make_shared<DistributedExactSolver>(config),
      std::make_shared<LocalExactSolver>(config),
      std::make_shared<DenseBlockSolver>(config),
  };
  return std::make_shared<OptimizableEstimator>("LinearSolver",
                                                std::move(options));
}

}  // namespace keystone
