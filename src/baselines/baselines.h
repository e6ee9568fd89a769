#ifndef KEYSTONE_BASELINES_BASELINES_H_
#define KEYSTONE_BASELINES_BASELINES_H_

#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"
#include "src/sim/resources.h"

namespace keystone {
namespace baselines {

/// Comparator systems for §5.2 (Figure 8, Table 6), implemented as the
/// algorithms those systems run, with virtual-time accounting on the same
/// cluster model KeystoneML uses. See DESIGN.md for the substitution notes.

/// Result of one baseline solve.
struct BaselineSolveResult {
  Matrix weights;
  double virtual_seconds = 0.0;
  double train_loss = 0.0;  // mean squared loss
};

/// Vowpal-Wabbit-like: online normalized LMS (SGD whose step is scaled by
/// each example's squared norm), `passes` passes over the data,
/// allreduce-style model averaging between passes. One-size-fits-all: never
/// switches algorithms.
BaselineSolveResult VwLikeSolve(const SparseMatrix& a, const Matrix& b,
                                int passes,
                                const ClusterResourceDescriptor& resources);
BaselineSolveResult VwLikeSolveDense(
    const Matrix& a, const Matrix& b, int passes,
    const ClusterResourceDescriptor& resources);

/// Cluster cost of VwLikeSolve on n examples with d features, k label
/// columns and s non-zeros per example, spread over `workers` nodes.
CostProfile VwLikeCost(double n, double d, double k, double s, int passes,
                       int workers);

/// SystemML-like: conjugate gradient on the normal equations (the linear
/// algebra plan SystemML compiles for least squares), preceded by a data
/// conversion stage (the paper notes SystemML must convert data into its
/// internal format before solving).
BaselineSolveResult SystemMlLikeSolve(
    const SparseMatrix& a, const Matrix& b, int iterations,
    const ClusterResourceDescriptor& resources);
BaselineSolveResult SystemMlLikeSolveDense(
    const Matrix& a, const Matrix& b, int iterations,
    const ClusterResourceDescriptor& resources);

/// Cluster cost of SystemMlLikeSolve (arguments as for VwLikeCost): the
/// conversion stage plus `iterations` CG steps run as generic block-matrix
/// operators.
CostProfile SystemMlLikeCost(double n, double d, double k, double s,
                             int iterations, int workers);

/// TensorFlow-like distributed minibatch-SGD scaling model for the CIFAR
/// time-to-84%-accuracy comparison (Table 6). Calibrated to the published
/// single-machine time; strong scaling fixes the global batch at 128,
/// weak scaling uses 128 x machines (and, like the paper observed, fails
/// to converge for very large effective batches).
struct TfScalingResult {
  double minutes = 0.0;
  bool converged = true;
};

TfScalingResult SimulateTensorFlowCifar(int machines, bool weak_scaling);

}  // namespace baselines
}  // namespace keystone

#endif  // KEYSTONE_BASELINES_BASELINES_H_
