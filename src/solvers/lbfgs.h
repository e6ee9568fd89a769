#ifndef KEYSTONE_SOLVERS_LBFGS_H_
#define KEYSTONE_SOLVERS_LBFGS_H_

#include <functional>
#include <vector>

namespace keystone {

/// Configuration for the generic L-BFGS optimizer.
struct LbfgsOptions {
  int max_iterations = 50;
  int history = 10;          // memory m for the two-loop recursion
  double gradient_tol = 1e-6;
  double initial_step = 1.0;
  int max_line_search_steps = 20;
};

/// Result of an L-BFGS run.
struct LbfgsResult {
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;       // outer iterations taken
  int gradient_evals = 0;   // data passes (function+gradient evaluations)
  bool converged = false;
};

/// Objective callback: fills `gradient` (same size as x) and returns f(x).
using LbfgsObjective = std::function<double(const std::vector<double>& x,
                                            std::vector<double>* gradient)>;

/// Minimizes f via limited-memory BFGS with a weak-Wolfe line search
/// (bisection on sufficient decrease plus curvature). This is the workhorse
/// behind the L-BFGS linear solver (objectives.h FitLbfgs) on either layout,
/// under least-squares or logistic loss.
LbfgsResult MinimizeLbfgs(const LbfgsObjective& objective,
                          std::vector<double> x0, const LbfgsOptions& options);

}  // namespace keystone

#endif  // KEYSTONE_SOLVERS_LBFGS_H_
