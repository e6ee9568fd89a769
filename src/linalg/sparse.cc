#include "src/linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"
#include "src/common/kernel_align.h"

namespace keystone {

void SparseVector::SortAndMerge() {
  const size_t n = indices.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [this](size_t a, size_t b) { return indices[a] < indices[b]; });
  std::vector<uint32_t> new_indices;
  std::vector<double> new_values;
  new_indices.reserve(n);
  new_values.reserve(n);
  for (size_t pos : order) {
    if (!new_indices.empty() && new_indices.back() == indices[pos]) {
      new_values.back() += values[pos];
    } else {
      new_indices.push_back(indices[pos]);
      new_values.push_back(values[pos]);
    }
  }
  indices = std::move(new_indices);
  values = std::move(new_values);
}

double SparseVector::Dot(const std::vector<double>& dense) const {
  double sum = 0.0;
  for (size_t i = 0; i < indices.size(); ++i) {
    sum += values[i] * dense[indices[i]];
  }
  return sum;
}

double SparseVector::Norm() const {
  double sum = 0.0;
  for (double v : values) sum += v * v;
  return std::sqrt(sum);
}

SparseMatrix SparseMatrix::FromRows(const std::vector<SparseVector>& rows,
                                    size_t cols) {
  SparseMatrix m;
  m.cols_ = cols;
  size_t total = 0;
  for (const auto& r : rows) total += r.nnz();
  m.col_indices_.reserve(total);
  m.values_.reserve(total);
  m.row_offsets_.reserve(rows.size() + 1);
  for (const auto& r : rows) {
    for (size_t i = 0; i < r.nnz(); ++i) {
      KS_CHECK_LT(r.indices[i], cols);
      m.col_indices_.push_back(r.indices[i]);
      m.values_.push_back(r.values[i]);
    }
    m.row_offsets_.push_back(m.col_indices_.size());
  }
  return m;
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense, double tol) {
  SparseMatrix m;
  m.cols_ = dense.cols();
  for (size_t i = 0; i < dense.rows(); ++i) {
    const double* row = dense.RowPtr(i);
    for (size_t j = 0; j < dense.cols(); ++j) {
      if (std::fabs(row[j]) > tol) {
        m.col_indices_.push_back(static_cast<uint32_t>(j));
        m.values_.push_back(row[j]);
      }
    }
    m.row_offsets_.push_back(m.col_indices_.size());
  }
  return m;
}

double SparseMatrix::Density() const {
  const size_t total = rows() * cols();
  return total == 0 ? 0.0 : static_cast<double>(nnz()) / total;
}

std::vector<double> SparseMatrix::MatVec(const std::vector<double>& x) const {
  KS_CHECK_EQ(x.size(), cols_);
  std::vector<double> y(rows(), 0.0);
  for (size_t i = 0; i < rows(); ++i) {
    double sum = 0.0;
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      sum += values_[p] * x[col_indices_[p]];
    }
    y[i] = sum;
  }
  return y;
}

std::vector<double> SparseMatrix::MatTVec(const std::vector<double>& x) const {
  KS_CHECK_EQ(x.size(), rows());
  std::vector<double> y(cols_, 0.0);
  for (size_t i = 0; i < rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      y[col_indices_[p]] += values_[p] * xi;
    }
  }
  return y;
}

Matrix SparseMatrix::MatMul(const Matrix& b) const {
  KS_CHECK_EQ(b.rows(), cols_);
  Matrix c(rows(), b.cols());
  for (size_t i = 0; i < rows(); ++i) {
    double* crow = c.RowPtr(i);
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      const double v = values_[p];
      const double* brow = b.RowPtr(col_indices_[p]);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += v * brow[j];
    }
  }
  return c;
}

Matrix SparseMatrix::TransMatMul(const Matrix& b) const {
  KS_CHECK_EQ(b.rows(), rows());
  Matrix c(cols_, b.cols());
  for (size_t i = 0; i < rows(); ++i) {
    const double* brow = b.RowPtr(i);
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      const double v = values_[p];
      double* crow = c.RowPtr(col_indices_[p]);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += v * brow[j];
    }
  }
  return c;
}

// Aligned: an exact sparse fit spends its time in this loop and the
// Cholesky that follows.
KS_KERNEL_ALIGN Matrix SparseMatrix::Gram() const {
  Matrix gram(cols_, cols_);
  for (size_t i = 0; i < rows(); ++i) {
    const size_t begin = row_offsets_[i];
    const size_t end = row_offsets_[i + 1];
    for (size_t p = begin; p < end; ++p) {
      const uint32_t cp = col_indices_[p];
      const double vp = values_[p];
      double* grow = gram.RowPtr(cp);
      for (size_t q = begin; q < end; ++q) {
        grow[col_indices_[q]] += vp * values_[q];
      }
    }
  }
  return gram;
}

double SparseMatrix::RowDot(size_t i, const std::vector<double>& x) const {
  KS_CHECK_LT(i, rows());
  double sum = 0.0;
  for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
    sum += values_[p] * x[col_indices_[p]];
  }
  return sum;
}

Matrix SparseMatrix::ToDense() const {
  Matrix m(rows(), cols_);
  for (size_t i = 0; i < rows(); ++i) {
    double* row = m.RowPtr(i);
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      row[col_indices_[p]] = values_[p];
    }
  }
  return m;
}

SparseMatrix SparseMatrix::RowSlice(size_t begin, size_t end) const {
  KS_CHECK_LE(begin, end);
  KS_CHECK_LE(end, rows());
  SparseMatrix out;
  out.cols_ = cols_;
  const size_t p0 = row_offsets_[begin];
  const size_t p1 = row_offsets_[end];
  out.col_indices_.assign(col_indices_.begin() + p0, col_indices_.begin() + p1);
  out.values_.assign(values_.begin() + p0, values_.begin() + p1);
  out.row_offsets_.clear();
  for (size_t i = begin; i <= end; ++i) {
    out.row_offsets_.push_back(row_offsets_[i] - p0);
  }
  return out;
}

size_t SparseMatrix::MemoryBytes() const {
  return values_.size() * (sizeof(double) + sizeof(uint32_t)) +
         row_offsets_.size() * sizeof(size_t);
}

}  // namespace keystone
