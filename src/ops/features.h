#ifndef KEYSTONE_OPS_FEATURES_H_
#define KEYSTONE_OPS_FEATURES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/core/operator.h"
#include "src/linalg/matrix.h"

namespace keystone {

/// Random cosine features approximating an RBF kernel (Rahimi & Recht 2007):
/// z(x) = sqrt(2/D) cos(W x + b) with W ~ N(0, gamma^2), b ~ U[0, 2pi].
/// The TIMIT kernel-SVM pipeline gathers several of these blocks.
class CosineRandomFeatures : public Transformer<std::vector<double>,
                                                std::vector<double>> {
 public:
  CosineRandomFeatures(size_t input_dim, size_t output_dim, double gamma,
                       uint64_t seed);

  std::string Name() const override { return "RandomFeatures"; }
  std::string ParamSignature() const override {
    return std::to_string(input_dim()) + "x" + std::to_string(output_dim()) +
           ",g=" + ParamNumber(gamma_) + ",seed=" + std::to_string(seed_);
  }
  std::vector<double> Apply(const std::vector<double>& x) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;

  ValueShape InputShapeRequirement() const override {
    return ValueShape::Vector(static_cast<int64_t>(input_dim()));
  }
  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return ValueShape::Vector(static_cast<int64_t>(output_dim()));
  }
  EffectClass Effect() const override {
    return EffectClass::kSeededDeterministic;
  }

  size_t input_dim() const { return w_.cols(); }
  size_t output_dim() const { return w_.rows(); }

 private:
  Matrix w_;  // D x d
  std::vector<double> b_;
  double gamma_;
  uint64_t seed_;
};

/// L2 normalization of feature vectors.
class L2Normalizer : public Transformer<std::vector<double>,
                                        std::vector<double>> {
 public:
  std::string Name() const override { return "Normalize"; }
  std::vector<double> Apply(const std::vector<double>& x) const override;
  ValueShape TransferShape(const ValueShape& in) const override { return in; }
};

/// Signed power ("root") normalization x -> sign(x) |x|^alpha, part of the
/// improved Fisher-vector recipe.
class SignedPowerNormalizer : public Transformer<std::vector<double>,
                                                 std::vector<double>> {
 public:
  explicit SignedPowerNormalizer(double alpha = 0.5) : alpha_(alpha) {}
  std::string Name() const override { return "PowerNorm"; }
  std::string ParamSignature() const override { return ParamNumber(alpha_); }
  std::vector<double> Apply(const std::vector<double>& x) const override;
  ValueShape TransferShape(const ValueShape& in) const override { return in; }

 private:
  double alpha_;
};

/// Standardization estimator: the model subtracts the feature means and
/// divides by standard deviations computed on the training data.
class StandardScaler : public Estimator<std::vector<double>,
                                        std::vector<double>> {
 public:
  std::string Name() const override { return "StandardScaler"; }

  Fitted<Transformer<std::vector<double>, std::vector<double>>> Fit(
      const DistDataset<std::vector<double>>& data,
      ExecContext* ctx) const override;

  /// Standardization preserves the feature dimension.
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    return data_in;
  }
};

/// One-hot label encoding: class id -> k-dimensional indicator.
class OneHotEncoder : public Transformer<int, std::vector<double>> {
 public:
  explicit OneHotEncoder(int num_classes) : num_classes_(num_classes) {}
  std::string Name() const override { return "OneHot"; }
  std::string ParamSignature() const override {
    return std::to_string(num_classes_);
  }
  std::vector<double> Apply(const int& label) const override;
  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return ValueShape::Vector(num_classes_);
  }

 private:
  int num_classes_;
};

/// Picks the argmax class from a score vector.
class ArgMaxClassifier : public Transformer<std::vector<double>, int> {
 public:
  std::string Name() const override { return "MaxClassifier"; }
  int Apply(const std::vector<double>& scores) const override;
  /// Score dimension = number of classes the emitted id is drawn from.
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::Labels(in.d0);
  }
};

/// Emits the k highest-scoring class ids, best first (the paper's "Top 5
/// Classifier" node in Figure 5).
class TopKClassifier : public Transformer<std::vector<double>,
                                          std::vector<int>> {
 public:
  explicit TopKClassifier(int k) : k_(k) {}
  std::string Name() const override { return "TopKClassifier"; }
  std::string ParamSignature() const override { return std::to_string(k_); }
  std::vector<int> Apply(const std::vector<double>& scores) const override;
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::Labels(in.d0);
  }

 private:
  int k_;
};

}  // namespace keystone

#endif  // KEYSTONE_OPS_FEATURES_H_
