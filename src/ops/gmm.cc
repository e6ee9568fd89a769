#include "src/ops/gmm.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace keystone {

namespace {

constexpr double kVarianceFloor = 1e-6;

// k-means++ style seeding: first center uniform, rest proportional to
// squared distance from the nearest chosen center.
Matrix SeedCenters(const Matrix& rows, size_t k, Rng* rng) {
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  Matrix centers(k, d);
  std::vector<double> dist_sq(n, 0.0);

  size_t first = rng->NextIndex(n);
  std::copy(rows.RowPtr(first), rows.RowPtr(first) + d, centers.RowPtr(0));
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double diff = rows(i, j) - centers(0, j);
      s += diff * diff;
    }
    dist_sq[i] = s;
  }
  for (size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (double v : dist_sq) total += v;
    size_t chosen = 0;
    if (total > 0) {
      double target = rng->NextDouble() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= dist_sq[i];
        if (target <= 0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng->NextIndex(n);
    }
    std::copy(rows.RowPtr(chosen), rows.RowPtr(chosen) + d,
              centers.RowPtr(c));
    for (size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = rows(i, j) - centers(c, j);
        s += diff * diff;
      }
      dist_sq[i] = std::min(dist_sq[i], s);
    }
  }
  return centers;
}

// Stacks all descriptor matrices of a dataset into one matrix.
Matrix StackRows(const DistDataset<Matrix>& data) {
  size_t dim = 0;
  size_t total = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& m : part) {
      dim = std::max(dim, m.cols());
      total += m.rows();
    }
  }
  KS_CHECK_GT(dim, 0u);
  Matrix stacked(total, dim);
  size_t row = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& m : part) {
      KS_CHECK_EQ(m.cols(), dim);
      std::copy(m.data(), m.data() + m.size(), stacked.RowPtr(row));
      row += m.rows();
    }
  }
  return stacked;
}

}  // namespace

GmmParams FitGmm(const Matrix& rows, size_t components, int em_iterations,
                 uint64_t seed) {
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  KS_CHECK_GT(n, 0u);
  const size_t k = std::min(components, n);
  Rng rng(seed);

  GmmParams params;
  params.means = SeedCenters(rows, k, &rng);
  params.variances = Matrix(k, d, 0.1);
  params.weights.assign(k, 1.0 / k);

  Matrix resp(n, k);
  for (int iter = 0; iter < em_iterations; ++iter) {
    // E step: responsibilities via log-space softmax over components.
    for (size_t i = 0; i < n; ++i) {
      double max_log = -1e300;
      for (size_t c = 0; c < k; ++c) {
        double log_p = std::log(std::max(params.weights[c], 1e-12));
        for (size_t j = 0; j < d; ++j) {
          const double var = params.variances(c, j);
          const double diff = rows(i, j) - params.means(c, j);
          log_p -= 0.5 * (std::log(2.0 * M_PI * var) + diff * diff / var);
        }
        resp(i, c) = log_p;
        max_log = std::max(max_log, log_p);
      }
      double z = 0.0;
      for (size_t c = 0; c < k; ++c) {
        resp(i, c) = std::exp(resp(i, c) - max_log);
        z += resp(i, c);
      }
      for (size_t c = 0; c < k; ++c) resp(i, c) /= z;
    }
    // M step.
    for (size_t c = 0; c < k; ++c) {
      double nk = 0.0;
      for (size_t i = 0; i < n; ++i) nk += resp(i, c);
      nk = std::max(nk, 1e-10);
      for (size_t j = 0; j < d; ++j) {
        double mean = 0.0;
        for (size_t i = 0; i < n; ++i) mean += resp(i, c) * rows(i, j);
        mean /= nk;
        double var = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double diff = rows(i, j) - mean;
          var += resp(i, c) * diff * diff;
        }
        params.means(c, j) = mean;
        params.variances(c, j) = std::max(var / nk, kVarianceFloor);
      }
      params.weights[c] = nk / n;
    }
  }
  return params;
}

Fitted<Transformer<Matrix, std::vector<double>>> GmmFisherEstimator::Fit(
    const DistDataset<Matrix>& data, ExecContext* ctx) const {
  const Matrix rows = StackRows(data);
  GmmParams params = FitGmm(rows, components_, em_iterations_, seed_);

  CostProfile cost;
  const double n = static_cast<double>(rows.rows());
  const double d = static_cast<double>(rows.cols());
  const double k = static_cast<double>(params.num_components());
  const int w = ctx->resources().num_nodes;
  cost.flops = em_iterations_ * 8.0 * n * d * k / std::max(1, w);
  cost.bytes = em_iterations_ * 8.0 * n * d / std::max(1, w);
  cost.network = em_iterations_ * 8.0 * 2.0 * k * d;
  cost.rounds = 2.0 * em_iterations_;
  return {std::make_shared<FisherVectorModel>(std::move(params)), cost};
}

CostProfile GmmFisherEstimator::EstimateCost(const DataStats& in,
                                             int workers) const {
  CostProfile cost;
  const double total_rows =
      in.num_records * in.bytes_per_record /
      (8.0 * std::max<size_t>(1, in.dim));
  const double d = static_cast<double>(in.dim);
  const double k = static_cast<double>(components_);
  cost.flops = em_iterations_ * 8.0 * total_rows * d * k /
               std::max(1, workers);
  cost.bytes = em_iterations_ * 8.0 * total_rows * d / std::max(1, workers);
  cost.network = em_iterations_ * 8.0 * 2.0 * k * d;
  cost.rounds = 2.0 * em_iterations_;
  return cost;
}

std::vector<double> FisherVectorModel::Apply(const Matrix& descriptors) const {
  const size_t k = params_.num_components();
  const size_t d = params_.dim();
  KS_CHECK_EQ(descriptors.cols(), d);
  const size_t n = descriptors.rows();
  // Layout: [mean gradients (k*d) | variance gradients (k*d) |
  //          weight gradients (k)].
  std::vector<double> fv(2 * k * d + k, 0.0);
  if (n == 0) return fv;

  std::vector<double> log_p(k);
  std::vector<double> occupancy(k, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* x = descriptors.RowPtr(i);
    double max_log = -1e300;
    for (size_t c = 0; c < k; ++c) {
      double lp = std::log(std::max(params_.weights[c], 1e-12));
      for (size_t j = 0; j < d; ++j) {
        const double var = params_.variances(c, j);
        const double diff = x[j] - params_.means(c, j);
        lp -= 0.5 * (std::log(2.0 * M_PI * var) + diff * diff / var);
      }
      log_p[c] = lp;
      max_log = std::max(max_log, lp);
    }
    double z = 0.0;
    for (size_t c = 0; c < k; ++c) z += std::exp(log_p[c] - max_log);
    for (size_t c = 0; c < k; ++c) {
      const double gamma = std::exp(log_p[c] - max_log) / z;
      occupancy[c] += gamma;
      if (gamma < 1e-8) continue;
      double* mean_grad = fv.data() + c * d;
      double* var_grad = fv.data() + (k + c) * d;
      for (size_t j = 0; j < d; ++j) {
        const double sigma = std::sqrt(params_.variances(c, j));
        const double u = (x[j] - params_.means(c, j)) / sigma;
        mean_grad[j] += gamma * u;
        var_grad[j] += gamma * (u * u - 1.0);
      }
    }
  }

  // Scale by 1/(n sqrt(w_c)) and apply power + L2 normalization. The weight
  // block is the occupancy gradient (gamma_c - w_c)/sqrt(w_c).
  for (size_t c = 0; c < k; ++c) {
    const double w_c = std::max(params_.weights[c], 1e-12);
    const double scale = 1.0 / (n * std::sqrt(w_c));
    for (size_t j = 0; j < d; ++j) {
      fv[c * d + j] *= scale;
      fv[(k + c) * d + j] *= scale / std::sqrt(2.0);
    }
    fv[2 * k * d + c] = (occupancy[c] / n - w_c) / std::sqrt(w_c);
  }
  double norm = 0.0;
  for (auto& v : fv) {
    v = (v >= 0 ? 1.0 : -1.0) * std::sqrt(std::fabs(v));
    norm += v * v;
  }
  norm = std::sqrt(norm);
  if (norm > 1e-12) {
    for (auto& v : fv) v /= norm;
  }
  return fv;
}

CostProfile FisherVectorModel::EstimateCost(const DataStats& in,
                                            int workers) const {
  CostProfile cost;
  const double total_rows =
      in.num_records * in.bytes_per_record /
      (8.0 * std::max<size_t>(1, in.dim));
  cost.flops = 10.0 * total_rows * params_.dim() * params_.num_components() /
               std::max(1, workers);
  cost.bytes = in.TotalBytes() / std::max(1, workers);
  return cost;
}

}  // namespace keystone
