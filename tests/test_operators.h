#ifndef KEYSTONE_TESTS_TEST_OPERATORS_H_
#define KEYSTONE_TESTS_TEST_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/core/operator.h"

namespace keystone {
namespace testing_ops {

/// x + constant.
class AddConst : public Transformer<double, double> {
 public:
  explicit AddConst(double c) : c_(c) {}
  std::string Name() const override { return "AddConst"; }
  std::string ParamSignature() const override { return ParamNumber(c_); }
  double Apply(const double& x) const override { return x + c_; }

 private:
  double c_;
};

/// x * constant.
class Scale : public Transformer<double, double> {
 public:
  explicit Scale(double c) : c_(c) {}
  std::string Name() const override { return "Scale"; }
  std::string ParamSignature() const override { return ParamNumber(c_); }
  double Apply(const double& x) const override { return x * c_; }

 private:
  double c_;
};

/// Model: subtracts a fixed mean.
class SubtractValue : public Transformer<double, double> {
 public:
  explicit SubtractValue(double v) : v_(v) {}
  std::string Name() const override { return "SubtractValue"; }
  std::string ParamSignature() const override { return ParamNumber(v_); }
  double Apply(const double& x) const override { return x - v_; }
  double value() const { return v_; }

 private:
  double v_;
};

/// Unsupervised estimator computing the dataset mean; its model centers
/// records. Optionally iterative (weight > 1) for materialization tests.
class MeanCenterer : public Estimator<double, double> {
 public:
  explicit MeanCenterer(int weight = 1) : weight_(weight) {}
  std::string Name() const override { return "MeanCenterer"; }
  std::string ParamSignature() const override {
    return std::to_string(weight_);
  }
  int Weight() const override { return weight_; }

  Fitted<Transformer<double, double>> Fit(
      const DistDataset<double>& data, ExecContext* ctx) const override {
    (void)ctx;
    double sum = 0.0;
    size_t count = 0;
    for (const auto& part : data.partitions()) {
      for (double v : part) {
        sum += v;
        ++count;
      }
    }
    return {std::make_shared<SubtractValue>(count > 0 ? sum / count : 0.0),
            std::nullopt};
  }

 private:
  int weight_;
};

/// Supervised estimator: model adds mean(labels) - mean(data).
class OffsetEstimator : public LabelEstimator<double, double, double> {
 public:
  std::string Name() const override { return "OffsetEstimator"; }

  Fitted<Transformer<double, double>> Fit(
      const DistDataset<double>& data, const DistDataset<double>& labels,
      ExecContext* ctx) const override {
    (void)ctx;
    auto mean = [](const DistDataset<double>& ds) {
      double sum = 0.0;
      size_t count = 0;
      for (const auto& part : ds.partitions()) {
        for (double v : part) {
          sum += v;
          ++count;
        }
      }
      return count > 0 ? sum / count : 0.0;
    };
    return {std::make_shared<AddConst>(mean(labels) - mean(data)),
            std::nullopt};
  }
};

/// Estimator with a fixed a-priori cost model and a fixed kernel-reported
/// actual cost, so predicted-vs-observed plumbing is fully controllable.
/// Its model still depends on its data: it centers records like
/// MeanCenterer's.
class ReportingEstimator : public Estimator<double, double> {
 public:
  ReportingEstimator(std::string name, CostProfile predicted,
                     CostProfile observed)
      : name_(std::move(name)), predicted_(predicted), observed_(observed) {}

  std::string Name() const override { return name_; }

  CostProfile EstimateCost(const DataStats& in, int workers) const override {
    (void)in;
    (void)workers;
    return predicted_;
  }

  Fitted<Transformer<double, double>> Fit(
      const DistDataset<double>& data, ExecContext* ctx) const override {
    return {MeanCenterer().Fit(data, ctx).model, observed_};
  }

 private:
  std::string name_;
  CostProfile predicted_;
  CostProfile observed_;
};

/// Dense map with declared fixed input/output dimensions, for the dataflow
/// shape-inference tests: requires vector[in_dim], emits vector[out_dim].
class FixedDimMap
    : public Transformer<std::vector<double>, std::vector<double>> {
 public:
  FixedDimMap(int64_t in_dim, int64_t out_dim)
      : in_dim_(in_dim), out_dim_(out_dim) {}
  std::string Name() const override { return "FixedDimMap"; }
  std::string ParamSignature() const override {
    return std::to_string(in_dim_) + "x" + std::to_string(out_dim_);
  }

  std::vector<double> Apply(const std::vector<double>& x) const override {
    return std::vector<double>(static_cast<size_t>(out_dim_),
                               x.empty() ? 0.0 : x[0]);
  }

  ValueShape InputShapeRequirement() const override {
    return ValueShape::Vector(in_dim_);
  }
  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return ValueShape::Vector(out_dim_);
  }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
};

/// A transformer that mutates internal state across records — the effect
/// class the branch-parallel and serving-path rules must flag.
class StatefulCounter : public Transformer<double, double> {
 public:
  std::string Name() const override { return "StatefulCounter"; }
  double Apply(const double& x) const override { return x + (seen_++); }
  EffectClass Effect() const override { return EffectClass::kStateful; }

 private:
  mutable double seen_ = 0.0;
};

}  // namespace testing_ops
}  // namespace keystone

#endif  // KEYSTONE_TESTS_TEST_OPERATORS_H_
