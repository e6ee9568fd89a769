#include "src/ops/gmm.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/check.h"
#include "src/common/kernel_align.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace keystone {

namespace {

constexpr double kVarianceFloor = 1e-6;
// Rows per E-step task: fixed, so the split never depends on the pool.
constexpr size_t kEStepRows = 256;

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

// Runs fn(i) for i in [0, n): in order without a pool, else on its
// ParallelFor. Each i writes its own outputs, so the split changes no bits.
void ForEach(ThreadPool* pool, size_t n,
             const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, fn);
}

// The descriptor-independent terms of each component's log density:
// log_weight[c] = log(max(w_c, 1e-12)) and log_norm(c, j) = log(2 pi var_cj).
void ComponentLogTerms(const GmmParams& params,
                       std::vector<double>* log_weight, Matrix* log_norm) {
  const size_t k = params.num_components();
  const size_t d = params.dim();
  log_weight->resize(k);
  *log_norm = Matrix(k, d);
  for (size_t c = 0; c < k; ++c) {
    (*log_weight)[c] = std::log(std::max(params.weights[c], 1e-12));
    for (size_t j = 0; j < d; ++j) {
      (*log_norm)(c, j) = std::log(2.0 * M_PI * params.variances(c, j));
    }
  }
}

// Writes the posterior p(c | x) of every component into gamma: a softmax
// over log(w_c) + log N(x | mean_c, var_c), taken against the largest.
inline void Posterior(const GmmParams& params,
                      const std::vector<double>& log_weight,
                      const Matrix& log_norm, const double* x,
                      double* gamma) {
  const size_t k = params.num_components();
  double max_log = -1e300;
  for (size_t c = 0; c < k; ++c) {
    const double* mean = params.means.RowPtr(c);
    const double* var = params.variances.RowPtr(c);
    const double* norm = log_norm.RowPtr(c);
    double lp = log_weight[c];
    for (size_t j = 0; j < params.dim(); ++j) {
      const double diff = x[j] - mean[j];
      lp -= 0.5 * (norm[j] + diff * diff / var[j]);
    }
    gamma[c] = lp;
    max_log = std::max(max_log, lp);
  }
  double z = 0.0;
  for (size_t c = 0; c < k; ++c) {
    gamma[c] = std::exp(gamma[c] - max_log);
    z += gamma[c];
  }
  for (size_t c = 0; c < k; ++c) gamma[c] /= z;
}

// E step over rows [begin, end). Out of line, so KS_KERNEL_ALIGN holds.
KS_KERNEL_ALIGN __attribute__((noinline)) void EStepRows(
    const Matrix& rows, const GmmParams& params,
    const std::vector<double>& log_weight, const Matrix& log_norm,
    size_t begin, size_t end, Matrix* resp) {
  for (size_t i = begin; i < end; ++i) {
    Posterior(params, log_weight, log_norm, rows.RowPtr(i), resp->RowPtr(i));
  }
}

// M step for component c. Every sum runs over rows in ascending order: the
// occupancy and means in one pass, then the variances about those means.
// The sums stay in this task's own buffers until the end, since the
// components' rows of `params` share cache lines.
KS_KERNEL_ALIGN __attribute__((noinline)) void MStepComponent(
    const Matrix& rows, const Matrix& resp, size_t c, GmmParams* params) {
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  std::vector<double> mean(d, 0.0);
  std::vector<double> var(d, 0.0);
  double nk = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double r = resp(i, c);
    const double* x = rows.RowPtr(i);
    nk += r;
    for (size_t j = 0; j < d; ++j) mean[j] += r * x[j];
  }
  nk = std::max(nk, 1e-10);
  for (size_t j = 0; j < d; ++j) mean[j] /= nk;
  for (size_t i = 0; i < n; ++i) {
    const double r = resp(i, c);
    const double* x = rows.RowPtr(i);
    for (size_t j = 0; j < d; ++j) {
      const double diff = x[j] - mean[j];
      var[j] += r * diff * diff;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    params->means(c, j) = mean[j];
    params->variances(c, j) = std::max(var[j] / nk, kVarianceFloor);
  }
  params->weights[c] = nk / n;
}

}  // namespace

GmmParams FitGmm(const Matrix& rows, size_t components, int em_iterations,
                 uint64_t seed, ThreadPool* pool) {
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
  std::vector<double> log_weight;
  Matrix log_norm;
  for (int iter = 0; iter < em_iterations; ++iter) {
    ComponentLogTerms(params, &log_weight, &log_norm);
    ForEach(pool, (n + kEStepRows - 1) / kEStepRows, [&](size_t chunk) {
      EStepRows(rows, params, log_weight, log_norm, chunk * kEStepRows,
                std::min(n, (chunk + 1) * kEStepRows), &resp);
    });
    ForEach(pool, k, [&](size_t c) { MStepComponent(rows, resp, c, &params); });
  }
  return params;
}

Fitted<Transformer<Matrix, std::vector<double>>> GmmFisherEstimator::Fit(
    const DistDataset<Matrix>& data, ExecContext* ctx) const {
  const Matrix rows = StackRows(data);
  GmmParams params =
      FitGmm(rows, components_, em_iterations_, seed_, ctx->pool());

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

FisherVectorModel::FisherVectorModel(GmmParams params)
    : params_(std::move(params)),
      sigma_(params_.num_components(), params_.dim()) {
  ComponentLogTerms(params_, &log_weight_, &log_norm_);
  for (size_t i = 0; i < sigma_.size(); ++i) {
    sigma_.data()[i] = std::sqrt(params_.variances.data()[i]);
  }
}

KS_KERNEL_ALIGN std::vector<double> FisherVectorModel::Apply(
    const Matrix& descriptors) const {
  const size_t k = params_.num_components();
  const size_t d = params_.dim();
  KS_CHECK_EQ(descriptors.cols(), d);
  const size_t n = descriptors.rows();
  // Layout: [mean gradients (k*d) | variance gradients (k*d) |
  //          weight gradients (k)].
  std::vector<double> fv(2 * k * d + k, 0.0);
  if (n == 0) return fv;

  std::vector<double> gamma(k);
  std::vector<double> occupancy(k, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* x = descriptors.RowPtr(i);
    Posterior(params_, log_weight_, log_norm_, x, gamma.data());
    for (size_t c = 0; c < k; ++c) {
      const double g = gamma[c];
      occupancy[c] += g;
      if (g < 1e-8) continue;
      const double* mean = params_.means.RowPtr(c);
      const double* sigma = sigma_.RowPtr(c);
      double* mean_grad = fv.data() + c * d;
      double* var_grad = fv.data() + (k + c) * d;
      for (size_t j = 0; j < d; ++j) {
        const double u = (x[j] - mean[j]) / sigma[j];
        mean_grad[j] += g * u;
        var_grad[j] += g * (u * u - 1.0);
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
