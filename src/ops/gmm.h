#ifndef KEYSTONE_OPS_GMM_H_
#define KEYSTONE_OPS_GMM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/operator.h"
#include "src/linalg/matrix.h"

namespace keystone {

class ThreadPool;

/// Diagonal-covariance Gaussian mixture parameters.
struct GmmParams {
  Matrix means;      // K x d
  Matrix variances;  // K x d
  std::vector<double> weights;

  size_t num_components() const { return means.rows(); }
  size_t dim() const { return means.cols(); }
};

/// Fits a diagonal GMM with EM (k-means++ initialization) and produces a
/// Fisher-vector encoder (paper Figure 5's GMM -> FisherVector step). The
/// encoder maps a descriptor matrix to a K*(2d+1) vector of weight, mean
/// and variance gradients with power + L2 normalization (the full improved
/// Fisher vector of [Sanchez et al. 13]).
class GmmFisherEstimator : public Estimator<Matrix, std::vector<double>> {
 public:
  GmmFisherEstimator(size_t components, int em_iterations = 10,
                     uint64_t seed = 23)
      : components_(components), em_iterations_(em_iterations), seed_(seed) {}

  std::string Name() const override { return "GMM"; }
  std::string ParamSignature() const override {
    return "k=" + std::to_string(components_) +
           ",em=" + std::to_string(em_iterations_) +
           ",seed=" + std::to_string(seed_);
  }

  Fitted<Transformer<Matrix, std::vector<double>>> Fit(
      const DistDataset<Matrix>& data, ExecContext* ctx) const override;

  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  int Weight() const override { return em_iterations_; }

  /// Fisher encoding of K components over d-dim descriptors: K*(2d+1).
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    if (data_in.d1 == ValueShape::kUnknownDim) return ValueShape::Vector();
    return ValueShape::Vector(static_cast<int64_t>(components_) *
                              (2 * data_in.d1 + 1));
  }
  EffectClass Effect() const override {
    return EffectClass::kSeededDeterministic;
  }

 private:
  size_t components_;
  int em_iterations_;
  uint64_t seed_;
};

/// The fitted Fisher-vector encoder.
class FisherVectorModel : public Transformer<Matrix, std::vector<double>> {
 public:
  explicit FisherVectorModel(GmmParams params);

  std::string Name() const override { return "FisherVector"; }
  std::vector<double> Apply(const Matrix& descriptors) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;

  ValueShape InputShapeRequirement() const override {
    return ValueShape::MatrixOf(ValueShape::kUnknownDim,
                                static_cast<int64_t>(params_.dim()));
  }
  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return ValueShape::Vector(static_cast<int64_t>(output_dim()));
  }

  const GmmParams& params() const { return params_; }
  size_t output_dim() const {
    return params_.num_components() * (2 * params_.dim() + 1);
  }

 private:
  GmmParams params_;
  // Per-component terms no descriptor changes, computed once: log(w_c),
  // log(2 pi var_cj) and sqrt(var_cj).
  std::vector<double> log_weight_;
  Matrix log_norm_;
  Matrix sigma_;
};

/// Fits a diagonal GMM by EM (k-means++ seeding, `em_iterations` E/M
/// rounds). Exposed separately for tests and benches. With a `pool` the
/// E step runs in fixed 256-row chunks and the M step one task per
/// component on its ParallelFor; nullptr runs serially. Every sum keeps the
/// serial order, so any pool size returns the same bits, and the call is
/// safe from inside a task on `pool` (as when a plan branch fits it).
GmmParams FitGmm(const Matrix& rows, size_t components, int em_iterations,
                 uint64_t seed, ThreadPool* pool = nullptr);

}  // namespace keystone

#endif  // KEYSTONE_OPS_GMM_H_
