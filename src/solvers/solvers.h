#ifndef KEYSTONE_SOLVERS_SOLVERS_H_
#define KEYSTONE_SOLVERS_SOLVERS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/core/operator.h"
#include "src/linalg/sparse.h"
#include "src/solvers/linear_model.h"

namespace keystone {

using DenseVec = std::vector<double>;

/// Hyperparameters shared by the linear solver family. `num_classes` is the
/// label dimension k (the one-hot width for classification).
struct LinearSolverConfig {
  int num_classes = 2;
  double l2_reg = 1e-6;
  int lbfgs_iterations = 50;
  int block_epochs = 3;
  size_t block_size = 2048;

  /// Loss minimized by the gradient solvers.
  enum class Loss { kLeastSquares, kLogistic } loss = Loss::kLeastSquares;
};

/// Signature of everything in the config that changes a fitted model, used
/// as every solver's ParamSignature so two grid-search variants of one
/// solver class never share a lineage fingerprint.
inline std::string SolverParamSignature(const LinearSolverConfig& c) {
  return "k=" + std::to_string(c.num_classes) + ",l2=" + ParamNumber(c.l2_reg) +
         ",lbfgs=" + std::to_string(c.lbfgs_iterations) +
         ",epochs=" + std::to_string(c.block_epochs) +
         ",block=" + std::to_string(c.block_size) +
         (c.loss == LinearSolverConfig::Loss::kLogistic ? ",logistic"
                                                        : ",lsq");
}

/// The shell every physical linear solver shares: its config, parameter
/// signature and k-column label and model shapes. Each solver below declares
/// only what its algorithm changes; the algorithms themselves are written
/// once over the DenseDesign/SparseDesign layouts (objectives.h).
template <typename In>
class LinearSolverBase : public LabelEstimator<In, DenseVec, DenseVec> {
 public:
  using Data = DistDataset<In>;
  using Labels = DistDataset<DenseVec>;
  using Model = Fitted<Transformer<In, DenseVec>>;

  explicit LinearSolverBase(const LinearSolverConfig& config)
      : config_(config) {}

  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }
  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 protected:
  LinearSolverConfig config_;
};

// ---------------------------------------------------------------------------
// Dense physical solvers (features are std::vector<double>).
// ---------------------------------------------------------------------------

/// Exact least-squares solve on a single node: gathers the dataset to the
/// driver and solves the normal equations (min-norm dual form when n < d).
class LocalExactSolver : public LinearSolverBase<DenseVec> {
 public:
  using LinearSolverBase::LinearSolverBase;
  std::string Name() const override { return "LocalExactSolver"; }
  Model Fit(const Data& data, const Labels& labels,
            ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const Data& data, const Labels& labels,
                                     ExecContext* ctx) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
};

/// Communication-avoiding distributed exact solve: per-partition Gram
/// matrices are tree-aggregated and the d x d system solved on the driver
/// (the paper's "Dist. QR" row of Table 1).
class DistributedExactSolver : public LinearSolverBase<DenseVec> {
 public:
  using LinearSolverBase::LinearSolverBase;
  std::string Name() const override { return "DistributedExactSolver"; }
  Model Fit(const Data& data, const Labels& labels,
            ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const Data& data, const Labels& labels,
                                     ExecContext* ctx) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
};

/// Dense L-BFGS solver (least squares or logistic loss).
class DenseLbfgsSolver : public LinearSolverBase<DenseVec> {
 public:
  using LinearSolverBase::LinearSolverBase;
  std::string Name() const override { return "DenseLbfgsSolver"; }
  Model Fit(const Data& data, const Labels& labels,
            ExecContext* ctx) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.lbfgs_iterations; }
};

/// Dense block coordinate (Gauss-Seidel) solver: features are partitioned
/// into blocks of `block_size`; each epoch solves every block's normal
/// equations against the current residual.
class DenseBlockSolver : public LinearSolverBase<DenseVec> {
 public:
  using LinearSolverBase::LinearSolverBase;
  std::string Name() const override { return "DenseBlockSolver"; }
  Model Fit(const Data& data, const Labels& labels,
            ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const Data& data, const Labels& labels,
                                     ExecContext* ctx) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.block_epochs; }
};

// ---------------------------------------------------------------------------
// Sparse physical solvers (features are SparseVector).
// ---------------------------------------------------------------------------

/// Sparse L-BFGS: gradients via CSR products, cost scales with nnz.
class SparseLbfgsSolver : public LinearSolverBase<SparseVector> {
 public:
  using LinearSolverBase::LinearSolverBase;
  std::string Name() const override { return "SparseLbfgsSolver"; }
  Model Fit(const Data& data, const Labels& labels,
            ExecContext* ctx) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.lbfgs_iterations; }
};

/// Exact solve over sparse features. Like the Spark implementation the
/// paper measured, the factorization stage materializes a dense
/// (single-precision) copy of each partition, so per-node memory grows
/// linearly in n*d/w and the solver crashes beyond a few thousand features
/// on a 65M-example corpus — the paper's Figure 6 crash regime.
class SparseExactSolver : public LinearSolverBase<SparseVector> {
 public:
  using LinearSolverBase::LinearSolverBase;
  std::string Name() const override { return "SparseExactSolver"; }
  Model Fit(const Data& data, const Labels& labels,
            ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const Data& data, const Labels& labels,
                                     ExecContext* ctx) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
};

/// Block coordinate solver over sparse features. Each block is densified
/// for the local solve, losing the sparsity advantage — the reason it is
/// 26-260x slower than L-BFGS on text features (paper §3).
class SparseBlockSolver : public LinearSolverBase<SparseVector> {
 public:
  using LinearSolverBase::LinearSolverBase;
  std::string Name() const override { return "SparseBlockSolver"; }
  Model Fit(const Data& data, const Labels& labels,
            ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const Data& data, const Labels& labels,
                                     ExecContext* ctx) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.block_epochs; }
};

// ---------------------------------------------------------------------------
// Logical (Optimizable) solvers.
// ---------------------------------------------------------------------------

/// The logical LinearSolver over dense features: an Optimizable estimator
/// whose options are {DistributedExact, LocalExact, L-BFGS, Block}.
std::shared_ptr<OptimizableEstimator> MakeDenseLinearSolver(
    const LinearSolverConfig& config);

/// The logical LinearSolver over sparse features:
/// {L-BFGS, Exact, Block}.
std::shared_ptr<OptimizableEstimator> MakeSparseLinearSolver(
    const LinearSolverConfig& config);

}  // namespace keystone

#endif  // KEYSTONE_SOLVERS_SOLVERS_H_
