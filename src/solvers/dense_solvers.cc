#include <algorithm>

#include "src/common/check.h"
#include "src/linalg/gemm.h"
#include "src/linalg/qr.h"
#include "src/solvers/lbfgs.h"
#include "src/solvers/objectives.h"
#include "src/solvers/solver_costs.h"
#include "src/solvers/solver_util.h"
#include "src/solvers/solvers.h"

namespace keystone {

namespace {

// Solves min ||A X - B|| + lambda ||X|| exactly: normal equations when
// n >= d, min-norm dual when n < d (needed for sample-size fits).
Matrix ExactLeastSquares(const Matrix& a, const Matrix& b, double lambda) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  const double ridge = std::max(lambda, 1e-10);
  if (n >= d) {
    Matrix gram = Gram(a);
    for (size_t i = 0; i < d; ++i) gram(i, i) += ridge;
    return SolveSpd(gram, GemmTransA(a, b));
  }
  // X = A^T (A A^T + ridge I)^{-1} B.
  Matrix outer = GemmTransB(a, a);
  for (size_t i = 0; i < n; ++i) outer(i, i) += ridge;
  const Matrix y = SolveSpd(outer, b);
  return GemmTransA(a, y);
}

}  // namespace

// --- LocalExactSolver -------------------------------------------------------

std::optional<CostProfile> LocalExactSolver::FitCost(
    const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  (void)ctx;
  const DesignShape shape = DenseDesignShape(data, labels);
  return solver_costs::LocalExact(shape.n, shape.d, shape.k, shape.s);
}

Fitted<Transformer<DenseVec, DenseVec>> LocalExactSolver::Fit(
    const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const CostProfile cost = *FitCost(data, labels, ctx);
  Matrix x = ExactLeastSquares(AssembleDense(data), AssembleLabels(labels),
                               config_.l2_reg);
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
    const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const DesignShape shape = DenseDesignShape(data, labels);
  KS_CHECK_GT(shape.d, 0u);
  return solver_costs::DistributedExact(shape.n, shape.d, shape.k, shape.s,
                                        ctx->resources().num_nodes);
}

Fitted<Transformer<DenseVec, DenseVec>> DistributedExactSolver::Fit(
    const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
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
    gram += Gram(a_part);
    GemmAccumulate(a_part.Transposed(), b_part, &atb);
  }
  const double ridge = std::max(config_.l2_reg, 1e-10);
  for (size_t i = 0; i < d; ++i) gram(i, i) += ridge;
  Matrix x = SolveSpd(gram, atb);
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

Fitted<Transformer<DenseVec, DenseVec>> DenseLbfgsSolver::Fit(
    const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const Matrix a = AssembleDense(data);
  const Matrix b = AssembleLabels(labels);
  const size_t d = a.cols();
  const size_t k = b.cols();
  internal_solvers::DenseDesign design{&a};

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
  return {std::make_shared<LinearMapModel>(std::move(x), DenseVec{}),
          solver_costs::Lbfgs(a.rows(), d, k, d, result.gradient_evals,
                              ctx->resources().num_nodes)};
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

std::optional<CostProfile> DenseBlockSolver::FitCost(
    const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const DesignShape shape = DenseDesignShape(data, labels);
  return solver_costs::Block(shape.n, shape.d, shape.k, shape.s,
                             std::min(config_.block_size, shape.d),
                             config_.block_epochs, ctx->resources().num_nodes);
}

Fitted<Transformer<DenseVec, DenseVec>> DenseBlockSolver::Fit(
    const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
    ExecContext* ctx) const {
  const CostProfile cost = *FitCost(data, labels, ctx);
  const Matrix a = AssembleDense(data);
  const Matrix b = AssembleLabels(labels);
  const size_t d = a.cols();
  const size_t k = b.cols();
  const size_t block = std::min(config_.block_size, d);
  const double ridge = std::max(config_.l2_reg, 1e-10);

  Matrix x(d, k);
  Matrix residual = b;  // B - A X with X = 0.
  for (int epoch = 0; epoch < config_.block_epochs; ++epoch) {
    for (size_t c0 = 0; c0 < d; c0 += block) {
      const size_t c1 = std::min(c0 + block, d);
      const Matrix a_j = a.ColSlice(c0, c1);
      const Matrix x_j = x.RowSlice(c0, c1);
      // Target including this block's current contribution.
      Matrix target = residual + Gemm(a_j, x_j);
      Matrix gram = Gram(a_j);
      for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += ridge;
      Matrix x_j_new = SolveSpd(gram, GemmTransA(a_j, target));
      residual = target - Gemm(a_j, x_j_new);
      for (size_t r = 0; r < x_j_new.rows(); ++r) {
        for (size_t c = 0; c < k; ++c) x(c0 + r, c) = x_j_new(r, c);
      }
    }
  }
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
