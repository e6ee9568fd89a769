#ifndef KEYSTONE_SOLVERS_OBJECTIVES_H_
#define KEYSTONE_SOLVERS_OBJECTIVES_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.h"
#include "src/linalg/gemm.h"
#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"
#include "src/solvers/lbfgs.h"
#include "src/solvers/solver_util.h"
#include "src/solvers/solvers.h"

namespace keystone {
namespace internal_solvers {

/// Adapters giving dense and sparse design matrices one interface, so each
/// solver algorithm below (and each baseline in src/baselines) is written
/// once and runs on either layout. `ForEachEntry(i, fn)` calls
/// fn(column, value) along row i in column order: the dense adapter visits
/// the non-zeros, the sparse one every stored entry.
struct DenseDesign {
  const Matrix* a;
  Matrix Times(const Matrix& x) const { return Gemm(*a, x); }
  Matrix TransTimes(const Matrix& r) const { return GemmTransA(*a, r); }
  size_t rows() const { return a->rows(); }
  size_t cols() const { return a->cols(); }
  /// Non-zeros per row as the cost models read a dense design: d.
  double avg_nnz() const { return static_cast<double>(a->cols()); }
  template <typename Fn>
  void ForEachEntry(size_t i, const Fn& fn) const {
    const double* row = a->RowPtr(i);
    for (size_t j = 0; j < a->cols(); ++j) {
      if (row[j] != 0.0) fn(j, row[j]);
    }
  }
};

struct SparseDesign {
  const SparseMatrix* a;
  Matrix Times(const Matrix& x) const { return a->MatMul(x); }
  Matrix TransTimes(const Matrix& r) const { return a->TransMatMul(r); }
  size_t rows() const { return a->rows(); }
  size_t cols() const { return a->cols(); }
  double avg_nnz() const {
    return static_cast<double>(a->nnz()) / std::max<size_t>(1, a->rows());
  }
  template <typename Fn>
  void ForEachEntry(size_t i, const Fn& fn) const {
    const auto [begin, end] = a->RowRange(i);
    for (size_t p = begin; p < end; ++p) fn(a->indices()[p], a->values()[p]);
  }
};

/// Least-squares objective over the flattened d x k weight matrix:
///   f(X) = ||A X - B||_F^2 / (2n) + (lambda/2) ||X||_F^2.
/// Fills `grad` and returns f.
template <typename Design>
double LeastSquaresObjective(const Design& design, const Matrix& b,
                             double lambda, size_t d, size_t k,
                             const std::vector<double>& x_flat,
                             std::vector<double>* grad) {
  const double n = static_cast<double>(design.rows());
  Matrix x(d, k);
  std::copy(x_flat.begin(), x_flat.end(), x.data());

  Matrix residual = design.Times(x) - b;  // n x k
  const double fro = residual.FrobeniusNorm();
  double f = fro * fro / (2.0 * n);

  Matrix g = design.TransTimes(residual);  // d x k
  g *= 1.0 / n;
  grad->assign(x_flat.size(), 0.0);
  for (size_t i = 0; i < x_flat.size(); ++i) {
    (*grad)[i] = g.data()[i] + lambda * x_flat[i];
    f += 0.5 * lambda * x_flat[i] * x_flat[i];
  }
  return f;
}

/// Multinomial logistic (softmax cross-entropy) objective with one-hot
/// labels B:
///   f(X) = -(1/n) sum_i log softmax(A_i X)_{y_i} + (lambda/2)||X||_F^2.
template <typename Design>
double LogisticObjective(const Design& design, const Matrix& b, double lambda,
                         size_t d, size_t k,
                         const std::vector<double>& x_flat,
                         std::vector<double>* grad) {
  const double n = static_cast<double>(design.rows());
  Matrix x(d, k);
  std::copy(x_flat.begin(), x_flat.end(), x.data());

  Matrix scores = design.Times(x);  // n x k
  double f = 0.0;
  // Convert scores to (P - B) in place, accumulating the loss.
  for (size_t i = 0; i < scores.rows(); ++i) {
    double* row = scores.RowPtr(i);
    double max_score = row[0];
    for (size_t c = 1; c < k; ++c) max_score = std::max(max_score, row[c]);
    double z = 0.0;
    for (size_t c = 0; c < k; ++c) z += std::exp(row[c] - max_score);
    const double log_z = std::log(z) + max_score;
    for (size_t c = 0; c < k; ++c) {
      const double p = std::exp(row[c] - log_z);
      f -= b(i, c) * (row[c] - log_z);
      row[c] = p - b(i, c);
    }
  }
  f /= n;

  Matrix g = design.TransTimes(scores);
  g *= 1.0 / n;
  grad->assign(x_flat.size(), 0.0);
  for (size_t i = 0; i < x_flat.size(); ++i) {
    (*grad)[i] = g.data()[i] + lambda * x_flat[i];
    f += 0.5 * lambda * x_flat[i] * x_flat[i];
  }
  return f;
}

/// The d x k weights L-BFGS reaches from X = 0 on the config's loss, and
/// the data passes (function + gradient evaluations) it took.
struct LbfgsFit {
  Matrix x;
  int gradient_evals = 0;
};

/// The L-BFGS linear solver on either layout.
template <typename Design>
LbfgsFit FitLbfgs(const Design& design, const Matrix& b,
                  const LinearSolverConfig& config) {
  KS_CHECK_EQ(design.rows(), b.rows());
  const size_t d = design.cols();
  const size_t k = b.cols();
  LbfgsOptions options;
  options.max_iterations = config.lbfgs_iterations;
  const double lambda = config.l2_reg;
  const bool logistic = config.loss == LinearSolverConfig::Loss::kLogistic;

  LbfgsResult result = MinimizeLbfgs(
      [&](const std::vector<double>& x, std::vector<double>* grad) {
        return logistic
                   ? LogisticObjective(design, b, lambda, d, k, x, grad)
                   : LeastSquaresObjective(design, b, lambda, d, k, x, grad);
      },
      std::vector<double>(d * k, 0.0), options);

  LbfgsFit fit{Matrix(d, k), result.gradient_evals};
  std::copy(result.x.begin(), result.x.end(), fit.x.data());
  return fit;
}

/// The block coordinate (Gauss-Seidel) solver on either layout: each epoch
/// solves every column block's ridge normal equations against the current
/// residual. `column_block(c0, c1)` returns design columns [c0, c1) as a
/// dense n x (c1 - c0) matrix.
template <typename ColumnBlock>
Matrix FitBlocks(size_t d, const Matrix& b, const LinearSolverConfig& config,
                 const ColumnBlock& column_block) {
  const size_t k = b.cols();
  const size_t block = std::min(config.block_size, d);
  Matrix x(d, k);
  Matrix residual = b;  // B - A X with X = 0.
  for (int epoch = 0; epoch < config.block_epochs; ++epoch) {
    for (size_t c0 = 0; c0 < d; c0 += block) {
      const size_t c1 = std::min(c0 + block, d);
      const Matrix a_j = column_block(c0, c1);
      // Target including this block's current contribution.
      const Matrix target = residual + Gemm(a_j, x.RowSlice(c0, c1));
      const Matrix x_j =
          RidgeSolve(Gram(a_j), GemmTransA(a_j, target), config.l2_reg);
      residual = target - Gemm(a_j, x_j);
      for (size_t r = 0; r < x_j.rows(); ++r) {
        for (size_t c = 0; c < k; ++c) x(c0 + r, c) = x_j(r, c);
      }
    }
  }
  return x;
}

}  // namespace internal_solvers
}  // namespace keystone

#endif  // KEYSTONE_SOLVERS_OBJECTIVES_H_
