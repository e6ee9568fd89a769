#ifndef KEYSTONE_SOLVERS_SOLVER_UTIL_H_
#define KEYSTONE_SOLVERS_SOLVER_UTIL_H_

#include <vector>

#include "src/data/dist_dataset.h"
#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"

namespace keystone {

class ThreadPool;

/// Stacks a dataset of dense feature vectors into an n x d matrix.
Matrix AssembleDense(const DistDataset<std::vector<double>>& data);

/// Feature dimension of a sparse dataset: the largest record dim, or last
/// index + 1 for records without one.
size_t SparseFeatureDim(const DistDataset<SparseVector>& data);

/// Stacks a dataset of sparse feature vectors into a CSR matrix. `dim`
/// overrides the feature dimension (0 = max of record dims).
SparseMatrix AssembleSparse(const DistDataset<SparseVector>& data,
                            size_t dim = 0);

/// One-hot encodes integer class labels into an n x num_classes matrix with
/// +1 for the class and 0 elsewhere.
Matrix OneHotLabels(const std::vector<int>& labels, int num_classes);

/// Stacks a dataset of dense label vectors into an n x k matrix.
Matrix AssembleLabels(const DistDataset<std::vector<double>>& labels);

/// Solves the ridge system (gram + max(l2, 1e-10) I) X = rhs by Cholesky:
/// the one SPD solve behind every exact and block linear solver. `pool` is
/// SolveSpd's: nullptr runs serially and any pool gives the same bits.
Matrix RidgeSolve(Matrix gram, const Matrix& rhs, double l2,
                  ThreadPool* pool = nullptr);

/// A training set's shape as the solver cost models read it (see
/// solver_costs.h): n examples, d features, k label columns and s average
/// non-zeros per example.
struct DesignShape {
  size_t n = 0;
  size_t d = 0;
  size_t k = 0;
  double s = 0.0;
};

/// Shape of dense features and labels (s == d), checked as AssembleDense
/// and AssembleLabels check them, plus one label row per example.
DesignShape DenseDesignShape(const DistDataset<std::vector<double>>& data,
                             const DistDataset<std::vector<double>>& labels);

/// Shape of sparse features and labels with d = SparseFeatureDim(data),
/// checked as AssembleSparse(data, d) and AssembleLabels check them (every
/// index below d), plus one label row per example.
DesignShape SparseDesignShape(const DistDataset<SparseVector>& data,
                              const DistDataset<std::vector<double>>& labels);

}  // namespace keystone

#endif  // KEYSTONE_SOLVERS_SOLVER_UTIL_H_
