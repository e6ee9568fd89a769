// Wall-clock effect of DAG-level branch parallelism in PlanRunner: fit the
// same Gather-heavy pipeline on a one-thread pool (every node on the
// calling thread, in id order) and then on a pool with one thread per
// hardware thread (branches handed to pool helpers). The pool only changes
// *when* node kernels run, never what is charged — the two runs must agree
// exactly on virtual time, while the parallel run should finish the real
// compute measurably faster on a multicore host.
//
// Usage: bench_parallel_runner [branches] [records] [iters]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/data/dist_dataset.h"

namespace keystone {
namespace {

/// Compute-bound per-record kernel: a loop-carried chaotic map, so the
/// optimizer cannot collapse the work.
class BusyMap : public Transformer<double, double> {
 public:
  BusyMap(int iters, double seed) : iters_(iters), seed_(seed) {}
  std::string Name() const override { return "BusyMap"; }
  double Apply(const double& x) const override {
    double v = x + seed_;
    for (int i = 0; i < iters_; ++i) v = 3.9 * v * (1.0 - v) * 0.25 + 0.37;
    return v;
  }

 private:
  int iters_;
  double seed_;
};

/// Minimal estimator so each branch has train-side work: the model
/// subtracts the training mean.
class MeanModel : public Transformer<double, double> {
 public:
  explicit MeanModel(double mean) : mean_(mean) {}
  std::string Name() const override { return "MeanModel"; }
  double Apply(const double& x) const override { return x - mean_; }

 private:
  double mean_;
};

class MeanEstimator : public Estimator<double, double> {
 public:
  std::string Name() const override { return "MeanEstimator"; }
  Fitted<Transformer<double, double>> Fit(
      const DistDataset<double>& data, ExecContext* ctx) const override {
    (void)ctx;
    double sum = 0.0;
    size_t count = 0;
    for (const auto& part : data.partitions()) {
      for (double v : part) {
        sum += v;
        ++count;
      }
    }
    return {std::make_shared<MeanModel>(count > 0 ? sum / count : 0.0),
            std::nullopt};
  }
};

struct RunStats {
  double wall_seconds = 0.0;
  double virtual_seconds = 0.0;
};

RunStats FitOnce(int branches, size_t records, int iters, size_t threads) {
  std::vector<double> values(records);
  for (size_t i = 0; i < records; ++i) {
    values[i] = 0.1 + 0.8 * static_cast<double>(i) / records;
  }
  // Single-partition data keeps each node's kernel serial, so the measured
  // effect is DAG-level branch dispatch, not within-node data parallelism.
  auto train = DistDataset<double>::Partitioned(std::move(values), 1);

  auto base = PipelineInput<double>();
  std::vector<Pipeline<double, double>> chains;
  for (int b = 0; b < branches; ++b) {
    chains.push_back(base.AndThen(std::make_shared<BusyMap>(iters, b * 0.01))
                         .AndThen(std::make_shared<BusyMap>(iters, b * 0.02))
                         .AndThen(std::make_shared<MeanEstimator>(), train));
  }
  auto pipe = Pipeline<double, double>::Gather(chains);

  ThreadPool pool(threads);
  PipelineExecutor executor(ClusterResourceDescriptor::R3_4xlarge(8),
                            OptimizationConfig::None());
  executor.context()->set_pool(&pool);
  Timer timer;
  executor.Fit(pipe);
  RunStats stats;
  stats.wall_seconds = timer.ElapsedSeconds();
  stats.virtual_seconds = executor.context()->ledger()->TotalSeconds();
  return stats;
}

int Run(int argc, char** argv) {
  const int branches = argc > 1 ? std::atoi(argv[1]) : 6;
  const size_t records =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 20000;
  const int iters = argc > 3 ? std::atoi(argv[3]) : 300;

  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("-- branch-parallel PlanRunner: %d branches, %zu records, "
              "%d iters/record, 1 vs %zu pool threads --\n",
              branches, records, iters, threads);
  const RunStats serial = FitOnce(branches, records, iters, 1);
  const RunStats parallel = FitOnce(branches, records, iters, threads);
  std::printf("  %-10s %12s %16s\n", "scheduler", "wall (s)", "virtual (s)");
  std::printf("  %-10s %12.3f %16.6f\n", "serial", serial.wall_seconds,
              serial.virtual_seconds);
  std::printf("  %-10s %12.3f %16.6f\n", "parallel", parallel.wall_seconds,
              parallel.virtual_seconds);
  std::printf("  wall-clock speedup: %.2fx\n",
              serial.wall_seconds / parallel.wall_seconds);

  if (serial.virtual_seconds != parallel.virtual_seconds) {
    std::printf("FAIL: charged virtual time diverged between schedulers\n");
    return 1;
  }
  std::printf("charged virtual time identical across schedulers\n");
  return 0;
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) {
  keystone::bench::ObsSession obs("parallel_runner", argc, argv);
  return keystone::Run(argc, argv);
}
