#ifndef KEYSTONE_LINALG_SPARSE_H_
#define KEYSTONE_LINALG_SPARSE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/linalg/matrix.h"

namespace keystone {

/// A single sparse vector as (index, value) pairs sorted by index. Text
/// featurizers emit these; SparseMatrix::FromRows assembles them.
struct SparseVector {
  std::vector<uint32_t> indices;
  std::vector<double> values;
  size_t dim = 0;

  size_t nnz() const { return indices.size(); }

  /// Adds `value` at `index` (caller keeps indices sorted or calls Sort()).
  void Push(uint32_t index, double value) {
    indices.push_back(index);
    values.push_back(value);
  }

  /// Sorts entries by index and merges duplicates (summing values).
  void SortAndMerge();

  /// Dot product with a dense vector of length >= dim.
  double Dot(const std::vector<double>& dense) const;

  /// L2 norm.
  double Norm() const;
};

/// Compressed sparse row matrix. Rows are examples, columns features. Used
/// by the sparse solvers (L-BFGS on text features) and text featurization.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from per-row sparse vectors; `cols` fixes the feature dimension.
  static SparseMatrix FromRows(const std::vector<SparseVector>& rows,
                               size_t cols);

  /// Converts a dense matrix, keeping entries with |v| > tol.
  static SparseMatrix FromDense(const Matrix& dense, double tol = 0.0);

  size_t rows() const { return row_offsets_.empty() ? 0 : row_offsets_.size() - 1; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// Fraction of entries that are non-zero.
  double Density() const;

  /// Row i as (begin, end) half-open range into indices()/values().
  std::pair<size_t, size_t> RowRange(size_t i) const {
    return {row_offsets_[i], row_offsets_[i + 1]};
  }

  const std::vector<uint32_t>& indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A * x. x has length cols().
  std::vector<double> MatVec(const std::vector<double>& x) const;

  /// y = A^T * x. x has length rows().
  std::vector<double> MatTVec(const std::vector<double>& x) const;

  /// Dense product A * B where B is cols() x k dense. Returns rows() x k.
  Matrix MatMul(const Matrix& b) const;

  /// Dense product A^T * B where B is rows() x k dense. Returns cols() x k.
  Matrix TransMatMul(const Matrix& b) const;

  /// Dense Gram matrix A^T A (cols() x cols()), accumulated from the CSR
  /// rows: the exact sparse solver's normal-equations kernel.
  Matrix Gram() const;

  /// Row i dot a dense vector.
  double RowDot(size_t i, const std::vector<double>& x) const;

  /// Returns a dense copy (small matrices / tests only).
  Matrix ToDense() const;

  /// Returns the submatrix with rows [begin, end).
  SparseMatrix RowSlice(size_t begin, size_t end) const;

  /// Approximate bytes of storage (for cost models and cache accounting).
  size_t MemoryBytes() const;

 private:
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_{0};
  std::vector<uint32_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace keystone

#endif  // KEYSTONE_LINALG_SPARSE_H_
