#include "src/solvers/solver_util.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/linalg/qr.h"

namespace keystone {

namespace {

/// Record count and width of a dense dataset: at least one record, none
/// ragged.
std::pair<size_t, size_t> DenseRowsCols(
    const DistDataset<std::vector<double>>& data) {
  const size_t n = data.NumRecords();
  KS_CHECK_GT(n, 0u);
  size_t d = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) d = std::max(d, rec.size());
  }
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) {
      KS_CHECK_EQ(rec.size(), d) << "ragged dense feature vectors";
    }
  }
  return {n, d};
}

}  // namespace

Matrix AssembleDense(const DistDataset<std::vector<double>>& data) {
  const auto [n, d] = DenseRowsCols(data);
  Matrix out(n, d);
  size_t row = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) {
      std::copy(rec.begin(), rec.end(), out.RowPtr(row));
      ++row;
    }
  }
  return out;
}

size_t SparseFeatureDim(const DistDataset<SparseVector>& data) {
  size_t d = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) {
      d = std::max(d, rec.dim != 0 ? rec.dim
                                   : (rec.indices.empty()
                                          ? 0
                                          : rec.indices.back() + 1));
    }
  }
  return d;
}

SparseMatrix AssembleSparse(const DistDataset<SparseVector>& data,
                            size_t dim) {
  std::vector<SparseVector> rows;
  rows.reserve(data.NumRecords());
  size_t max_dim = dim;
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) {
      max_dim = std::max(max_dim, rec.dim);
      rows.push_back(rec);
    }
  }
  return SparseMatrix::FromRows(rows, max_dim);
}

Matrix OneHotLabels(const std::vector<int>& labels, int num_classes) {
  Matrix out(labels.size(), num_classes);
  for (size_t i = 0; i < labels.size(); ++i) {
    KS_CHECK_GE(labels[i], 0);
    KS_CHECK_LT(labels[i], num_classes);
    out(i, labels[i]) = 1.0;
  }
  return out;
}

Matrix AssembleLabels(const DistDataset<std::vector<double>>& labels) {
  return AssembleDense(labels);
}

Matrix RidgeSolve(Matrix gram, const Matrix& rhs, double l2,
                  ThreadPool* pool) {
  const double ridge = std::max(l2, 1e-10);
  for (size_t i = 0; i < gram.rows(); ++i) gram(i, i) += ridge;
  return SolveSpd(gram, rhs, pool);
}

DesignShape DenseDesignShape(const DistDataset<std::vector<double>>& data,
                             const DistDataset<std::vector<double>>& labels) {
  DesignShape shape;
  std::tie(shape.n, shape.d) = DenseRowsCols(data);
  size_t label_rows = 0;
  std::tie(label_rows, shape.k) = DenseRowsCols(labels);
  KS_CHECK_EQ(shape.n, label_rows);
  shape.s = static_cast<double>(shape.d);
  return shape;
}

DesignShape SparseDesignShape(const DistDataset<SparseVector>& data,
                              const DistDataset<std::vector<double>>& labels) {
  DesignShape shape;
  shape.n = data.NumRecords();
  shape.d = SparseFeatureDim(data);
  size_t nnz = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& rec : part) {
      for (uint32_t index : rec.indices) KS_CHECK_LT(index, shape.d);
      nnz += rec.nnz();
    }
  }
  size_t label_rows = 0;
  std::tie(label_rows, shape.k) = DenseRowsCols(labels);
  KS_CHECK_EQ(shape.n, label_rows);
  shape.s = static_cast<double>(nnz) / std::max<size_t>(1, shape.n);
  return shape;
}

}  // namespace keystone
