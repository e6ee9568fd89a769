// Reproduces the cost-model evaluation of §3: how often does the optimizer,
// choosing from sample-derived statistics, pick the physical operator that
// is empirically fastest?
//
// The paper reports 90% correct for linear solvers and 84% for PCA, with
// wrong choices confined to near-ties. Here "empirical" time combines the
// virtual cluster time of each option's *actual* execution (real iteration
// counts, real sparsity) with its measured single-core wall-clock, so real
// kernel constants the cost model does not capture can flip the ranking —
// the same information asymmetry the real system has.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/core/exec_context.h"
#include "src/linalg/gemm.h"
#include "src/ops/pca.h"
#include "src/optimizer/operator_optimizer.h"
#include "src/solvers/solvers.h"
#include "src/workloads/datasets.h"

namespace keystone {
namespace {

struct Tally {
  int correct = 0;
  int total = 0;
  int near_tie_misses = 0;  // wrong but within 30% of the best
};

void SolverStudy(Tally* tally) {
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(8);
  std::printf("\n-- Linear solvers --\n");
  std::printf("%8s %8s %6s  %-24s %-24s %s\n", "n", "d", "k", "chosen",
              "empirical best", "ok?");
  for (size_t n : {3000, 9000}) {
    for (size_t d : {64, 256, 768}) {
      for (int k : {2, 8}) {
        auto corpus = workloads::DenseClasses(n, 0, d, k, 3.0,
                                              1000 + n + d + k);
        LinearSolverConfig config;
        config.num_classes = k;
        config.lbfgs_iterations = 40;
        config.block_size = std::min<size_t>(256, d);
        config.block_epochs = 3;
        auto logical = MakeDenseLinearSolver(config);

        // Optimizer view: stats from a sample, scaled up.
        const auto sample = corpus.train->SamplePrefix(1024);
        const DataStats sample_stats =
            sample->ComputeStats().ScaledTo(corpus.train->NumRecords());
        const auto choice = ChooseOption(*logical, sample_stats, cluster);

        // Empirical view: run every feasible option for real.
        int best = -1;
        double best_seconds = 1e300;
        std::vector<double> seconds(logical->options().size(), -1.0);
        for (size_t i = 0; i < logical->options().size(); ++i) {
          const auto& option = logical->options()[i];
          if (option->ScratchMemoryBytes(sample_stats, cluster.num_nodes) >
              cluster.memory_per_node_gb * 1e9) {
            continue;
          }
          ExecContext ctx(cluster);
          Timer timer;
          const auto actual =
              option->FitAny(corpus.train, corpus.train_labels, &ctx).cost;
          const double wall = timer.ElapsedSeconds();
          // Empirical time: model-accounted cluster time plus the measured
          // local kernel time (captures constants the model omits).
          seconds[i] = cluster.SecondsFor(actual.value()) + wall;
          if (seconds[i] < best_seconds) {
            best_seconds = seconds[i];
            best = static_cast<int>(i);
          }
        }
        const bool ok = choice.option_index == best;
        ++tally->total;
        if (ok) {
          ++tally->correct;
        } else if (seconds[choice.option_index] > 0 &&
                   seconds[choice.option_index] < 1.3 * best_seconds) {
          ++tally->near_tie_misses;
        }
        std::printf("%8zu %8zu %6d  %-24s %-24s %s\n", n, d, k,
                    logical->options()[choice.option_index]->Name().c_str(),
                    best >= 0 ? logical->options()[best]->Name().c_str()
                              : "?",
                    ok ? "yes" : "NO");
      }
    }
  }
}

void PcaStudy(Tally* tally) {
  const auto cluster = ClusterResourceDescriptor::R3_4xlarge(8);
  Rng rng(99);
  std::printf("\n-- PCA --\n");
  std::printf("%8s %8s %6s  %-24s %-24s %s\n", "rows", "d", "k", "chosen",
              "empirical best", "ok?");
  for (size_t rows_per_record : {20, 60}) {
    for (size_t d : {24, 96}) {
      for (size_t k : {2, 8, 16}) {
        std::vector<Matrix> records;
        for (int r = 0; r < 40; ++r) {
          records.push_back(
              Matrix::GaussianRandom(rows_per_record, d, &rng));
        }
        auto data = MakeDataset(std::move(records), 4);
        auto logical = MakePcaEstimator(k);

        const auto sample = data->SamplePrefix(16);
        const DataStats sample_stats =
            sample->ComputeStats().ScaledTo(data->NumRecords());
        const auto choice = ChooseOption(*logical, sample_stats, cluster);

        int best = -1;
        double best_seconds = 1e300;
        std::vector<double> seconds(logical->options().size(), -1.0);
        for (size_t i = 0; i < logical->options().size(); ++i) {
          ExecContext ctx(cluster);
          Timer timer;
          const auto actual =
              logical->options()[i]->FitAny(data, nullptr, &ctx).cost;
          const double wall = timer.ElapsedSeconds();
          seconds[i] = cluster.SecondsFor(actual.value()) + wall;
          if (seconds[i] < best_seconds) {
            best_seconds = seconds[i];
            best = static_cast<int>(i);
          }
        }
        const bool ok = choice.option_index == best;
        ++tally->total;
        if (ok) {
          ++tally->correct;
        } else if (seconds[choice.option_index] > 0 &&
                   seconds[choice.option_index] < 1.3 * best_seconds) {
          ++tally->near_tie_misses;
        }
        std::printf("%8zu %8zu %6zu  %-24s %-24s %s\n",
                    rows_per_record * 40, d, k,
                    logical->options()[choice.option_index]->Name().c_str(),
                    logical->options()[best]->Name().c_str(),
                    ok ? "yes" : "NO");
      }
    }
  }
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) {
  keystone::bench::ObsSession obs("costmodel_accuracy", argc, argv);
  keystone::bench::Banner(
      "Cost model evaluation (Section 3)",
      "Paper: optimizer matches the empirical best 90% (solvers) / 84% (PCA);\n"
      "misses happen only when two operators are nearly tied.");
  keystone::Tally solver_tally;
  keystone::SolverStudy(&solver_tally);
  std::printf("\nSolver choice accuracy: %d/%d = %.0f%% (near-tie misses: "
              "%d)\n",
              solver_tally.correct, solver_tally.total,
              100.0 * solver_tally.correct / solver_tally.total,
              solver_tally.near_tie_misses);

  keystone::Tally pca_tally;
  keystone::PcaStudy(&pca_tally);
  std::printf("\nPCA choice accuracy: %d/%d = %.0f%% (near-tie misses: %d)\n",
              pca_tally.correct, pca_tally.total,
              100.0 * pca_tally.correct / pca_tally.total,
              pca_tally.near_tie_misses);
  return 0;
}
