#ifndef KEYSTONE_OPS_PCA_H_
#define KEYSTONE_OPS_PCA_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/operator.h"
#include "src/linalg/matrix.h"

namespace keystone {

/// Fitted PCA projection: rows are centered then projected onto the top-k
/// principal directions. Works on per-image descriptor matrices (each row a
/// descriptor).
class PcaModel : public Transformer<Matrix, Matrix> {
 public:
  PcaModel(std::vector<double> mean, Matrix components)
      : mean_(std::move(mean)), components_(std::move(components)) {}

  std::string Name() const override { return "PCA.Model"; }
  Matrix Apply(const Matrix& rows) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;

  /// Input rows must match the fitted descriptor dimension d; the output
  /// keeps the row count and projects each row to k components.
  ValueShape InputShapeRequirement() const override {
    return ValueShape::MatrixOf(ValueShape::kUnknownDim,
                                static_cast<int64_t>(components_.rows()));
  }
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::MatrixOf(in.d0,
                                static_cast<int64_t>(components_.cols()));
  }

  /// d x k projection matrix (the paper's P).
  const Matrix& components() const { return components_; }

 private:
  std::vector<double> mean_;
  Matrix components_;  // d x k
};

/// Physical PCA algorithm and placement (paper Table 2's four variants).
enum class PcaAlgorithm { kExactSvd, kTruncatedSvd };
enum class PcaPlacement { kLocal, kDistributed };

/// One physical PCA implementation. The estimator consumes a dataset of
/// descriptor matrices (rows stacked across records) and produces a
/// PcaModel projecting onto the top `k` principal components.
class PcaEstimator : public Estimator<Matrix, Matrix> {
 public:
  PcaEstimator(size_t k, PcaAlgorithm algorithm, PcaPlacement placement,
               uint64_t seed = 17);

  std::string Name() const override;
  /// Algorithm and placement already live in Name(); only k and the seed
  /// remain to distinguish two variants of one physical operator.
  std::string ParamSignature() const override {
    return "k=" + std::to_string(k_) + ",seed=" + std::to_string(seed_);
  }

  Fitted<Transformer<Matrix, Matrix>> Fit(
      const DistDataset<Matrix>& data, ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  double ScratchMemoryBytes(const DataStats& in, int workers) const override;

  /// Fit keeps min(k, d) components, so the model is at most as wide as
  /// its input rows; k stands in while the input width is unknown.
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    const int64_t k = static_cast<int64_t>(k_);
    return ValueShape::MatrixOf(data_in.d0,
                                data_in.d1 == ValueShape::kUnknownDim
                                    ? k
                                    : std::min(k, data_in.d1));
  }
  EffectClass Effect() const override {
    return EffectClass::kSeededDeterministic;
  }

  PcaAlgorithm algorithm() const { return algorithm_; }
  PcaPlacement placement() const { return placement_; }

 private:
  size_t k_;
  PcaAlgorithm algorithm_;
  PcaPlacement placement_;
  uint64_t seed_;
};

/// The logical PCA operator: Optimizable over the four physical variants.
std::shared_ptr<OptimizableEstimator> MakePcaEstimator(size_t k,
                                                       uint64_t seed = 17);

/// Cost formulas shared by the estimator and the Table 2 bench. `rows` is
/// the total number of descriptor rows n, `d` the descriptor dimension.
namespace pca_costs {
CostProfile Cost(PcaAlgorithm algorithm, PcaPlacement placement, double rows,
                 double d, double k, int workers);
double Scratch(PcaAlgorithm algorithm, PcaPlacement placement, double rows,
               double d, double k, int workers);
}  // namespace pca_costs

}  // namespace keystone

#endif  // KEYSTONE_OPS_PCA_H_
