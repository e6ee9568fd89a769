// Reproduces Figure 6: linear solver runtime vs. number of features for a
// sparse text problem (Amazon-like) and a dense problem (TIMIT-like) on a
// 16-node c3.4xlarge cluster.
//
// Methodology: solvers execute for real at laptop scale to validate
// statistical equivalence (losses printed), and cluster runtimes are the
// simulator's virtual seconds for the paper-scale record counts, computed
// from the same cost models the optimizer uses with measured per-record
// statistics. Expected shape: on sparse data L-BFGS dominates and the exact
// solver becomes infeasible beyond a few thousand features; on dense data
// the exact solver wins until ~4k features, then the block solver.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/exec_context.h"
#include "src/solvers/solver_costs.h"
#include "src/solvers/solvers.h"
#include "src/workloads/datasets.h"

namespace keystone {
namespace {

void SparsePanel() {
  std::printf("\n-- Amazon (sparse text, n = 65M, ~100 nnz/example, k = 2) "
              "--\n");
  std::printf("%10s %14s %14s %14s\n", "features", "Exact(s)", "Block(s)",
              "LBFGS(s)");
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(16);
  const double node_mem = cluster.memory_per_node_gb * 1e9;
  const double n = 65e6;
  const double s = 100.0;  // avg non-zeros per example
  const double k = 2.0;
  LinearSolverConfig config;
  config.num_classes = 2;
  const SparseExactSolver exact_solver(config);
  for (double d : {1024.0, 2048.0, 4096.0, 8192.0, 16384.0}) {
    DataStats stats;
    stats.num_records = static_cast<size_t>(n);
    stats.dim = static_cast<size_t>(d);
    stats.avg_nnz = s;
    stats.bytes_per_record = s * 12.0;
    const bool exact_ok =
        exact_solver.ScratchMemoryBytes(stats, 16) < node_mem;
    const auto exact = exact_solver.EstimateCost(stats, 16);
    const auto block =
        solver_costs::Block(n, d, k, s, std::min(2048.0, d), 3, 16);
    const auto lbfgs = solver_costs::Lbfgs(n, d, k, s, 50, 16);
    if (exact_ok) {
      std::printf("%10.0f %14.1f %14.1f %14.1f\n", d,
                  cluster.SecondsFor(exact), cluster.SecondsFor(block),
                  cluster.SecondsFor(lbfgs));
    } else {
      std::printf("%10.0f %14s %14.1f %14.1f\n", d, "x (crash)",
                  cluster.SecondsFor(block), cluster.SecondsFor(lbfgs));
    }
  }
}

void DensePanel() {
  std::printf("\n-- TIMIT (dense, n = 2.25M, k = 147) --\n");
  std::printf("%10s %14s %14s %14s\n", "features", "Exact(s)", "Block(s)",
              "LBFGS(s)");
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(16);
  const double n = 2.25e6;
  const double k = 147.0;
  for (double d : {1024.0, 2048.0, 4096.0, 8192.0, 16384.0}) {
    const auto exact = solver_costs::DistributedExact(n, d, k, d, 16);
    const auto block =
        solver_costs::Block(n, d, k, d, std::min(2048.0, d), 3, 16);
    const auto lbfgs = solver_costs::Lbfgs(n, d, k, d, 50, 16);
    std::printf("%10.0f %14.1f %14.1f %14.1f\n", d,
                cluster.SecondsFor(exact), cluster.SecondsFor(block),
                cluster.SecondsFor(lbfgs));
  }
}

void CorrectnessCrossCheck() {
  std::printf("\n-- Correctness cross-check (real execution, laptop scale) "
              "--\n");
  using workloads::DenseClasses;
  auto corpus = DenseClasses(1200, 0, 256, 4, 4.0, 77);
  LinearSolverConfig config;
  config.num_classes = 4;
  config.lbfgs_iterations = 60;
  config.block_size = 64;
  config.block_epochs = 8;
  ExecContext ctx(ClusterResourceDescriptor::C3_4xlarge(16));

  auto loss_of = [&](const Fitted<Transformer<DenseVec, DenseVec>>& fitted) {
    double loss = 0.0;
    size_t i = 0;
    const auto labels = corpus.train_labels->Collect();
    for (const auto& rec : corpus.train->Collect()) {
      const auto pred = fitted.model->Apply(rec);
      for (size_t c = 0; c < pred.size(); ++c) {
        const double diff = pred[c] - labels[i][c];
        loss += diff * diff;
      }
      ++i;
    }
    return loss / i;
  };

  const DistributedExactSolver exact(config);
  const DenseLbfgsSolver lbfgs(config);
  const DenseBlockSolver block(config);
  std::printf("  exact solver train loss: %.6f\n",
              loss_of(exact.Fit(*corpus.train, *corpus.train_labels, &ctx)));
  std::printf("  lbfgs solver train loss: %.6f\n",
              loss_of(lbfgs.Fit(*corpus.train, *corpus.train_labels, &ctx)));
  std::printf("  block solver train loss: %.6f\n",
              loss_of(block.Fit(*corpus.train, *corpus.train_labels, &ctx)));
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) {
  keystone::bench::ObsSession obs("fig6_solvers", argc, argv);
  keystone::bench::Banner(
      "Figure 6: solver runtime vs. feature count",
      "Paper: L-BFGS 5-260x faster on sparse text; exact crashes >4k sparse\n"
      "features; dense crossover exact -> block beyond ~4-8k features.");
  keystone::SparsePanel();
  keystone::DensePanel();
  keystone::CorrectnessCrossCheck();
  return 0;
}
