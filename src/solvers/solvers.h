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

// ---------------------------------------------------------------------------
// Dense physical solvers (features are std::vector<double>).
// ---------------------------------------------------------------------------

/// Exact least-squares solve on a single node: gathers the dataset to the
/// driver and solves the normal equations (min-norm dual form when n < d).
class LocalExactSolver : public LabelEstimator<DenseVec, DenseVec, DenseVec> {
 public:
  explicit LocalExactSolver(const LinearSolverConfig& config)
      : config_(config) {}

  std::string Name() const override { return "LocalExactSolver"; }
  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }

  Fitted<Transformer<DenseVec, DenseVec>> Fit(
      const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
      ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const DistDataset<DenseVec>& data,
                                     const DistDataset<DenseVec>& labels,
                                     ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;

  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 private:
  LinearSolverConfig config_;
};

/// Communication-avoiding distributed exact solve: per-partition Gram
/// matrices are tree-aggregated and the d x d system solved on the driver
/// (the paper's "Dist. QR" row of Table 1).
class DistributedExactSolver
    : public LabelEstimator<DenseVec, DenseVec, DenseVec> {
 public:
  explicit DistributedExactSolver(const LinearSolverConfig& config)
      : config_(config) {}

  std::string Name() const override { return "DistributedExactSolver"; }
  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }

  Fitted<Transformer<DenseVec, DenseVec>> Fit(
      const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
      ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const DistDataset<DenseVec>& data,
                                     const DistDataset<DenseVec>& labels,
                                     ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;

  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 private:
  LinearSolverConfig config_;
};

/// Dense L-BFGS solver (least squares or logistic loss).
class DenseLbfgsSolver : public LabelEstimator<DenseVec, DenseVec, DenseVec> {
 public:
  explicit DenseLbfgsSolver(const LinearSolverConfig& config)
      : config_(config) {}

  std::string Name() const override { return "DenseLbfgsSolver"; }
  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }

  Fitted<Transformer<DenseVec, DenseVec>> Fit(
      const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
      ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.lbfgs_iterations; }

  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 private:
  LinearSolverConfig config_;
};

/// Dense block coordinate (Gauss-Seidel) solver: features are partitioned
/// into blocks of `block_size`; each epoch solves every block's normal
/// equations against the current residual.
class DenseBlockSolver : public LabelEstimator<DenseVec, DenseVec, DenseVec> {
 public:
  explicit DenseBlockSolver(const LinearSolverConfig& config)
      : config_(config) {}

  std::string Name() const override { return "DenseBlockSolver"; }
  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }

  Fitted<Transformer<DenseVec, DenseVec>> Fit(
      const DistDataset<DenseVec>& data, const DistDataset<DenseVec>& labels,
      ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const DistDataset<DenseVec>& data,
                                     const DistDataset<DenseVec>& labels,
                                     ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.block_epochs; }

  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 private:
  LinearSolverConfig config_;
};

// ---------------------------------------------------------------------------
// Sparse physical solvers (features are SparseVector).
// ---------------------------------------------------------------------------

/// Sparse L-BFGS: gradients via CSR products, cost scales with nnz.
class SparseLbfgsSolver
    : public LabelEstimator<SparseVector, DenseVec, DenseVec> {
 public:
  explicit SparseLbfgsSolver(const LinearSolverConfig& config)
      : config_(config) {}

  std::string Name() const override { return "SparseLbfgsSolver"; }
  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }

  Fitted<Transformer<SparseVector, DenseVec>> Fit(
      const DistDataset<SparseVector>& data,
      const DistDataset<DenseVec>& labels, ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.lbfgs_iterations; }

  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 private:
  LinearSolverConfig config_;
};

/// Exact solve over sparse features. Like the Spark implementation the
/// paper measured, the factorization stage materializes a dense
/// (single-precision) copy of each partition, so per-node memory grows
/// linearly in n*d/w and the solver crashes beyond a few thousand features
/// on a 65M-example corpus — the paper's Figure 6 crash regime.
class SparseExactSolver
    : public LabelEstimator<SparseVector, DenseVec, DenseVec> {
 public:
  explicit SparseExactSolver(const LinearSolverConfig& config)
      : config_(config) {}

  std::string Name() const override { return "SparseExactSolver"; }
  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }

  Fitted<Transformer<SparseVector, DenseVec>> Fit(
      const DistDataset<SparseVector>& data,
      const DistDataset<DenseVec>& labels, ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const DistDataset<SparseVector>& data,
                                     const DistDataset<DenseVec>& labels,
                                     ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;

  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 private:
  LinearSolverConfig config_;
};

/// Block coordinate solver over sparse features. Each block is densified
/// for the local solve, losing the sparsity advantage — the reason it is
/// 26-260x slower than L-BFGS on text features (paper §3).
class SparseBlockSolver
    : public LabelEstimator<SparseVector, DenseVec, DenseVec> {
 public:
  explicit SparseBlockSolver(const LinearSolverConfig& config)
      : config_(config) {}

  std::string Name() const override { return "SparseBlockSolver"; }
  std::string ParamSignature() const override {
    return SolverParamSignature(config_);
  }

  Fitted<Transformer<SparseVector, DenseVec>> Fit(
      const DistDataset<SparseVector>& data,
      const DistDataset<DenseVec>& labels, ExecContext* ctx) const override;
  std::optional<CostProfile> FitCost(const DistDataset<SparseVector>& data,
                                     const DistDataset<DenseVec>& labels,
                                     ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;
  int Weight() const override { return config_.block_epochs; }

  ValueShape LabelShapeRequirement() const override {
    return ValueShape::Vector(config_.num_classes);
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Vector(config_.num_classes);
  }

 private:
  LinearSolverConfig config_;
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
