#include "src/solvers/linear_model.h"

#include "src/common/check.h"
#include "src/common/kernel_align.h"
#include "src/linalg/gemm.h"

namespace keystone {

LinearMapModel::LinearMapModel(Matrix weights, std::vector<double> intercept)
    : weights_(std::move(weights)), intercept_(std::move(intercept)) {
  if (intercept_.empty()) intercept_.assign(weights_.cols(), 0.0);
  KS_CHECK_EQ(intercept_.size(), weights_.cols());
}

// Aligned, as is SparseLinearMapModel::Apply: both run once per record on
// the apply and serving paths.
KS_KERNEL_ALIGN std::vector<double> LinearMapModel::Apply(
    const std::vector<double>& x) const {
  KS_CHECK_EQ(x.size(), weights_.rows());
  std::vector<double> out = intercept_;
  for (size_t j = 0; j < x.size(); ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* wrow = weights_.RowPtr(j);
    for (size_t c = 0; c < out.size(); ++c) out[c] += xj * wrow[c];
  }
  return out;
}

CostProfile LinearMapModel::EstimateCost(const DataStats& in,
                                         int workers) const {
  CostProfile cost;
  const double n = static_cast<double>(in.num_records);
  const double k = static_cast<double>(weights_.cols());
  cost.flops = 2.0 * n * in.avg_nnz * k / std::max(1, workers);
  cost.bytes = in.TotalBytes() / std::max(1, workers);
  return cost;
}

SparseLinearMapModel::SparseLinearMapModel(Matrix weights,
                                           std::vector<double> intercept)
    : weights_(std::move(weights)), intercept_(std::move(intercept)) {
  if (intercept_.empty()) intercept_.assign(weights_.cols(), 0.0);
  KS_CHECK_EQ(intercept_.size(), weights_.cols());
}

KS_KERNEL_ALIGN std::vector<double> SparseLinearMapModel::Apply(
    const SparseVector& x) const {
  std::vector<double> out = intercept_;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t j = x.indices[i];
    KS_CHECK_LT(j, weights_.rows());
    const double xj = x.values[i];
    const double* wrow = weights_.RowPtr(j);
    for (size_t c = 0; c < out.size(); ++c) out[c] += xj * wrow[c];
  }
  return out;
}

CostProfile SparseLinearMapModel::EstimateCost(const DataStats& in,
                                               int workers) const {
  CostProfile cost;
  const double n = static_cast<double>(in.num_records);
  const double k = static_cast<double>(weights_.cols());
  cost.flops = 2.0 * n * in.avg_nnz * k / std::max(1, workers);
  cost.bytes = in.TotalBytes() / std::max(1, workers);
  return cost;
}

double LeastSquaresLoss(const Matrix& a, const Matrix& x, const Matrix& b) {
  const Matrix residual = Gemm(a, x) - b;
  const double f = residual.FrobeniusNorm();
  return f * f / static_cast<double>(a.rows());
}

}  // namespace keystone
