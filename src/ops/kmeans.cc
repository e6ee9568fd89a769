#include "src/ops/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace keystone {

namespace {

size_t NearestCenter(const double* x, const Matrix& centers, size_t d,
                     double* dist_out) {
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centers.rows(); ++c) {
    const double* mu = centers.RowPtr(c);
    double dist = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double diff = x[j] - mu[j];
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  if (dist_out != nullptr) *dist_out = best_dist;
  return best;
}

}  // namespace

Matrix FitKMeans(const Matrix& rows, size_t k, int iterations,
                 uint64_t seed) {
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  KS_CHECK_GT(n, 0u);
  k = std::min(k, n);
  Rng rng(seed);

  // Random distinct-ish initialization.
  Matrix centers(k, d);
  for (size_t c = 0; c < k; ++c) {
    const size_t pick = rng.NextIndex(n);
    std::copy(rows.RowPtr(pick), rows.RowPtr(pick) + d, centers.RowPtr(c));
  }

  std::vector<size_t> assignment(n, 0);
  for (int iter = 0; iter < iterations; ++iter) {
    for (size_t i = 0; i < n; ++i) {
      assignment[i] = NearestCenter(rows.RowPtr(i), centers, d, nullptr);
    }
    Matrix sums(k, d);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = assignment[i];
      ++counts[c];
      double* dst = sums.RowPtr(c);
      const double* src = rows.RowPtr(i);
      for (size_t j = 0; j < d; ++j) dst[j] += src[j];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed empty clusters.
        const size_t pick = rng.NextIndex(n);
        std::copy(rows.RowPtr(pick), rows.RowPtr(pick) + d,
                  centers.RowPtr(c));
        continue;
      }
      for (size_t j = 0; j < d; ++j) {
        centers(c, j) = sums(c, j) / counts[c];
      }
    }
  }
  return centers;
}

Fitted<Transformer<Matrix, Matrix>> KMeansEstimator::Fit(
    const DistDataset<Matrix>& data, ExecContext* ctx) const {
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
      std::copy(m.data(), m.data() + m.size(), stacked.RowPtr(row));
      row += m.rows();
    }
  }
  Matrix centers = FitKMeans(stacked, k_, iterations_, seed_);

  CostProfile cost;
  const int w = ctx->resources().num_nodes;
  cost.flops = iterations_ * 3.0 * total * dim * k_ / std::max(1, w);
  cost.bytes = iterations_ * 8.0 * total * dim / std::max(1, w);
  cost.network = iterations_ * 8.0 * k_ * dim;
  cost.rounds = 2.0 * iterations_;
  return {std::make_shared<KMeansModel>(std::move(centers)), cost};
}

CostProfile KMeansEstimator::EstimateCost(const DataStats& in,
                                          int workers) const {
  CostProfile cost;
  const double total_rows =
      in.num_records * in.bytes_per_record /
      (8.0 * std::max<size_t>(1, in.dim));
  cost.flops = iterations_ * 3.0 * total_rows * in.dim * k_ /
               std::max(1, workers);
  cost.bytes = iterations_ * 8.0 * total_rows * in.dim /
               std::max(1, workers);
  cost.network = iterations_ * 8.0 * k_ * in.dim;
  cost.rounds = 2.0 * iterations_;
  return cost;
}

Matrix KMeansModel::Apply(const Matrix& patches) const {
  const size_t n = patches.rows();
  const size_t k = centers_.rows();
  const size_t d = centers_.cols();
  KS_CHECK_EQ(patches.cols(), d);
  Matrix out(n, k);
  std::vector<double> dists(k);
  for (size_t i = 0; i < n; ++i) {
    const double* x = patches.RowPtr(i);
    double mean_dist = 0.0;
    for (size_t c = 0; c < k; ++c) {
      const double* mu = centers_.RowPtr(c);
      double dist = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = x[j] - mu[j];
        dist += diff * diff;
      }
      dists[c] = std::sqrt(dist);
      mean_dist += dists[c];
    }
    mean_dist /= k;
    // Triangle activation (Coates & Ng).
    for (size_t c = 0; c < k; ++c) {
      out(i, c) = std::max(0.0, mean_dist - dists[c]);
    }
  }
  return out;
}

CostProfile KMeansModel::EstimateCost(const DataStats& in,
                                      int workers) const {
  CostProfile cost;
  const double total_rows =
      in.num_records * in.bytes_per_record /
      (8.0 * std::max<size_t>(1, in.dim));
  cost.flops = 3.0 * total_rows * centers_.cols() * centers_.rows() /
               std::max(1, workers);
  cost.bytes = in.TotalBytes() / std::max(1, workers);
  return cost;
}

}  // namespace keystone
