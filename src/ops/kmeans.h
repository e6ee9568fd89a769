#ifndef KEYSTONE_OPS_KMEANS_H_
#define KEYSTONE_OPS_KMEANS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/operator.h"
#include "src/linalg/matrix.h"

namespace keystone {

/// K-means estimator over per-image patch matrices (the CIFAR pipeline's
/// feature dictionary, after Coates & Ng 2012). The fitted model maps each
/// patch row to K soft activations using the "triangle" encoding
/// max(0, mu - dist_k), one output row per patch.
class KMeansEstimator : public Estimator<Matrix, Matrix> {
 public:
  KMeansEstimator(size_t k, int iterations = 10, uint64_t seed = 31)
      : k_(k), iterations_(iterations), seed_(seed) {}

  std::string Name() const override { return "KMeans"; }
  std::string ParamSignature() const override {
    return "k=" + std::to_string(k_) +
           ",iters=" + std::to_string(iterations_) +
           ",seed=" + std::to_string(seed_);
  }

  Fitted<Transformer<Matrix, Matrix>> Fit(
      const DistDataset<Matrix>& data, ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  int Weight() const override { return iterations_; }

  /// One activation row per patch row, K soft assignments wide.
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    return ValueShape::MatrixOf(data_in.d0, static_cast<int64_t>(k_));
  }
  EffectClass Effect() const override {
    return EffectClass::kSeededDeterministic;
  }

 private:
  size_t k_;
  int iterations_;
  uint64_t seed_;
};

/// The fitted soft-assignment encoder.
class KMeansModel : public Transformer<Matrix, Matrix> {
 public:
  explicit KMeansModel(Matrix centers) : centers_(std::move(centers)) {}

  std::string Name() const override { return "KMeans.Model"; }
  Matrix Apply(const Matrix& patches) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;

  ValueShape InputShapeRequirement() const override {
    return ValueShape::MatrixOf(ValueShape::kUnknownDim,
                                static_cast<int64_t>(centers_.cols()));
  }
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::MatrixOf(in.d0, static_cast<int64_t>(centers_.rows()));
  }

  const Matrix& centers() const { return centers_; }

 private:
  Matrix centers_;  // K x d
};

/// Plain Lloyd's algorithm (k-means++ init). Exposed for tests.
Matrix FitKMeans(const Matrix& rows, size_t k, int iterations, uint64_t seed);

}  // namespace keystone

#endif  // KEYSTONE_OPS_KMEANS_H_
