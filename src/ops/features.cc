#include "src/ops/features.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/linalg/vector_ops.h"

namespace keystone {

CosineRandomFeatures::CosineRandomFeatures(size_t input_dim,
                                           size_t output_dim, double gamma,
                                           uint64_t seed)
    : gamma_(gamma), seed_(seed) {
  Rng rng(seed);
  w_ = Matrix(output_dim, input_dim);
  for (size_t i = 0; i < output_dim; ++i) {
    for (size_t j = 0; j < input_dim; ++j) {
      w_(i, j) = gamma * rng.NextGaussian();
    }
  }
  b_.resize(output_dim);
  for (auto& v : b_) v = rng.Uniform(0.0, 2.0 * M_PI);
}

std::vector<double> CosineRandomFeatures::Apply(
    const std::vector<double>& x) const {
  KS_CHECK_EQ(x.size(), w_.cols());
  std::vector<double> out(w_.rows());
  const double scale = std::sqrt(2.0 / static_cast<double>(w_.rows()));
  for (size_t i = 0; i < w_.rows(); ++i) {
    const double* row = w_.RowPtr(i);
    double z = b_[i];
    for (size_t j = 0; j < x.size(); ++j) z += row[j] * x[j];
    out[i] = scale * std::cos(z);
  }
  return out;
}

CostProfile CosineRandomFeatures::EstimateCost(const DataStats& in,
                                               int workers) const {
  CostProfile cost;
  cost.flops = 2.0 * in.num_records * w_.rows() * w_.cols() /
               std::max(1, workers);
  cost.bytes = (in.TotalBytes() + 8.0 * in.num_records * w_.rows()) /
               std::max(1, workers);
  return cost;
}

std::vector<double> L2Normalizer::Apply(const std::vector<double>& x) const {
  const double norm = Norm2(x);
  std::vector<double> out = x;
  if (norm > 1e-12) {
    for (auto& v : out) v /= norm;
  }
  return out;
}

std::vector<double> SignedPowerNormalizer::Apply(
    const std::vector<double>& x) const {
  std::vector<double> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = (x[i] >= 0 ? 1.0 : -1.0) * std::pow(std::fabs(x[i]), alpha_);
  }
  return out;
}

namespace {

/// The fitted standardization transform.
class StandardScalerModel : public Transformer<std::vector<double>,
                                               std::vector<double>> {
 public:
  StandardScalerModel(std::vector<double> mean, std::vector<double> inv_std)
      : mean_(std::move(mean)), inv_std_(std::move(inv_std)) {}

  std::string Name() const override { return "StandardScaler.Model"; }

  std::vector<double> Apply(const std::vector<double>& x) const override {
    KS_CHECK_EQ(x.size(), mean_.size());
    std::vector<double> out(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      out[i] = (x[i] - mean_[i]) * inv_std_[i];
    }
    return out;
  }

  ValueShape InputShapeRequirement() const override {
    return ValueShape::Vector(static_cast<int64_t>(mean_.size()));
  }
  ValueShape TransferShape(const ValueShape& in) const override { return in; }

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace

Fitted<Transformer<std::vector<double>, std::vector<double>>>
StandardScaler::Fit(const DistDataset<std::vector<double>>& data,
                    ExecContext* ctx) const {
  (void)ctx;
  size_t dim = 0;
  size_t n = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) {
      dim = std::max(dim, rec.size());
      ++n;
    }
  }
  KS_CHECK_GT(n, 0u);
  std::vector<double> mean(dim, 0.0);
  std::vector<double> sq(dim, 0.0);
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) {
      for (size_t j = 0; j < rec.size(); ++j) {
        mean[j] += rec[j];
        sq[j] += rec[j] * rec[j];
      }
    }
  }
  std::vector<double> inv_std(dim);
  for (size_t j = 0; j < dim; ++j) {
    mean[j] /= n;
    const double var = std::max(0.0, sq[j] / n - mean[j] * mean[j]);
    inv_std[j] = 1.0 / std::sqrt(var + 1e-8);
  }
  return {std::make_shared<StandardScalerModel>(std::move(mean),
                                                std::move(inv_std)),
          std::nullopt};
}

std::vector<double> OneHotEncoder::Apply(const int& label) const {
  KS_CHECK_GE(label, 0);
  KS_CHECK_LT(label, num_classes_);
  std::vector<double> out(num_classes_, 0.0);
  out[label] = 1.0;
  return out;
}

int ArgMaxClassifier::Apply(const std::vector<double>& scores) const {
  return static_cast<int>(ArgMax(scores));
}

std::vector<int> TopKClassifier::Apply(
    const std::vector<double>& scores) const {
  const size_t k = std::min<size_t>(k_, scores.size());
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int a, int b) { return scores[a] > scores[b]; });
  order.resize(k);
  return order;
}

}  // namespace keystone
