#include "src/ops/pca.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/linalg/eigen.h"
#include "src/linalg/gemm.h"
#include "src/linalg/svd.h"

namespace keystone {

namespace pca_costs {

CostProfile Cost(PcaAlgorithm algorithm, PcaPlacement placement, double rows,
                 double d, double k, int workers) {
  const double w = placement == PcaPlacement::kDistributed
                       ? std::max(1, workers)
                       : 1.0;
  const double probes = std::min(d, k + 8.0);
  CostProfile cost;
  if (algorithm == PcaAlgorithm::kExactSvd) {
    // Covariance accumulation + dense eigensolve of the d x d system.
    cost.flops = 2.0 * rows * d * d / w + 11.0 * d * d * d;
    cost.bytes = 8.0 * (rows * d / w + d * d);
  } else {
    // Randomized range finder with q = 2 power iterations: 6 passes of
    // n x d by d x probes products, plus the small factorization.
    cost.flops = 6.0 * 2.0 * rows * d * probes / w +
                 11.0 * probes * probes * probes + 2.0 * d * probes * probes;
    cost.bytes = 8.0 * (6.0 * rows * d / w + d * probes);
  }
  if (placement == PcaPlacement::kDistributed) {
    if (algorithm == PcaAlgorithm::kExactSvd) {
      cost.network = 8.0 * d * d;  // Tree-aggregated covariance.
      cost.rounds = 2.0 + std::log2(std::max(2, workers));
    } else {
      cost.network = 6.0 * 8.0 * d * probes;  // Per-pass sketches.
      cost.rounds = 12.0;
    }
  } else {
    cost.network = 8.0 * rows * d;  // Gather the dataset to the driver.
    cost.rounds = 1.0;
  }
  return cost;
}

double Scratch(PcaAlgorithm algorithm, PcaPlacement placement, double rows,
               double d, double k, int workers) {
  const double w = placement == PcaPlacement::kDistributed
                       ? std::max(1, workers)
                       : 1.0;
  const double probes = std::min(d, k + 8.0);
  double scratch = 8.0 * rows * d / w;
  scratch += algorithm == PcaAlgorithm::kExactSvd ? 8.0 * d * d
                                                  : 8.0 * d * probes;
  if (placement == PcaPlacement::kLocal) {
    // Collecting to the driver pays serialization + managed-heap overhead
    // on top of the raw array (the reason local variants die at n = 1e6,
    // d = 4096 in Table 2 despite the raw data being only ~32 GB).
    scratch *= 4.0;
  }
  return scratch;
}

}  // namespace pca_costs

Matrix PcaModel::Apply(const Matrix& rows) const {
  Matrix centered = rows;
  centered.SubtractRowVector(mean_);
  return Gemm(centered, components_);
}

CostProfile PcaModel::EstimateCost(const DataStats& in, int workers) const {
  CostProfile cost;
  const double total_rows =
      in.num_records * in.bytes_per_record / (8.0 * std::max<size_t>(1,
                                                                     in.dim));
  cost.flops = 2.0 * total_rows * components_.rows() * components_.cols() /
               std::max(1, workers);
  cost.bytes = in.TotalBytes() / std::max(1, workers);
  return cost;
}

PcaEstimator::PcaEstimator(size_t k, PcaAlgorithm algorithm,
                           PcaPlacement placement, uint64_t seed)
    : k_(k), algorithm_(algorithm), placement_(placement), seed_(seed) {}

std::string PcaEstimator::Name() const {
  std::string name = placement_ == PcaPlacement::kDistributed ? "Dist" :
                                                                "Local";
  name += algorithm_ == PcaAlgorithm::kExactSvd ? "SVD" : "TSVD";
  return "PCA." + name;
}

Fitted<Transformer<Matrix, Matrix>> PcaEstimator::Fit(
    const DistDataset<Matrix>& data, ExecContext* ctx) const {
  // Stack all descriptor rows.
  size_t dim = 0;
  size_t total_rows = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& m : part) {
      dim = std::max(dim, m.cols());
      total_rows += m.rows();
    }
  }
  KS_CHECK_GT(dim, 0u);
  Matrix stacked(total_rows, dim);
  size_t row = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& m : part) {
      KS_CHECK_EQ(m.cols(), dim) << "ragged descriptors in PCA input";
      std::copy(m.data(), m.data() + m.size(), stacked.RowPtr(row));
      row += m.rows();
    }
  }

  std::vector<double> mean = stacked.ColMeans();
  stacked.SubtractRowVector(mean);
  const size_t k = std::min(k_, dim);

  Matrix components(dim, k);
  if (algorithm_ == PcaAlgorithm::kExactSvd) {
    Matrix cov = Gram(stacked);
    const SymmetricEigenResult eig = SymmetricEigen(cov);
    for (size_t j = 0; j < k; ++j) {
      for (size_t i = 0; i < dim; ++i) components(i, j) = eig.vectors(i, j);
    }
  } else {
    Rng rng(seed_);
    const SvdResult svd = TruncatedSvd(stacked, k, &rng);
    components = svd.v;
  }

  return {std::make_shared<PcaModel>(std::move(mean), std::move(components)),
          pca_costs::Cost(algorithm_, placement_,
                          static_cast<double>(total_rows),
                          static_cast<double>(dim), static_cast<double>(k),
                          ctx->resources().num_nodes)};
}

namespace {
double TotalRows(const DataStats& in) {
  return in.num_records * in.bytes_per_record /
         (8.0 * std::max<size_t>(1, in.dim));
}
}  // namespace

CostProfile PcaEstimator::EstimateCost(const DataStats& in,
                                       int workers) const {
  return pca_costs::Cost(algorithm_, placement_, TotalRows(in),
                         static_cast<double>(in.dim),
                         static_cast<double>(k_), workers);
}

double PcaEstimator::ScratchMemoryBytes(const DataStats& in,
                                        int workers) const {
  return pca_costs::Scratch(algorithm_, placement_, TotalRows(in),
                            static_cast<double>(in.dim),
                            static_cast<double>(k_), workers);
}

std::shared_ptr<OptimizableEstimator> MakePcaEstimator(size_t k,
                                                       uint64_t seed) {
  std::vector<std::shared_ptr<EstimatorBase>> options = {
      std::make_shared<PcaEstimator>(k, PcaAlgorithm::kExactSvd,
                                     PcaPlacement::kDistributed, seed),
      std::make_shared<PcaEstimator>(k, PcaAlgorithm::kTruncatedSvd,
                                     PcaPlacement::kDistributed, seed),
      std::make_shared<PcaEstimator>(k, PcaAlgorithm::kExactSvd,
                                     PcaPlacement::kLocal, seed),
      std::make_shared<PcaEstimator>(k, PcaAlgorithm::kTruncatedSvd,
                                     PcaPlacement::kLocal, seed),
  };
  return std::make_shared<OptimizableEstimator>("PCA", std::move(options));
}

}  // namespace keystone
