// Ablation (DESIGN.md §4.4): quality and planning cost of the greedy cache
// selection (the paper's Algorithm 1) against the exhaustive optimum (the
// stand-in for the ILP the paper rejected as too slow) and the baselines,
// over randomized pipeline DAGs.
//
// Expected: greedy within a few percent of optimal while planning orders of
// magnitude faster — the justification for Algorithm 1.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/core/pipeline_graph.h"
#include "src/optimizer/materialization.h"


namespace keystone {
namespace {

/// Minimal operators to populate graph nodes (the ablation only uses the
/// DAG topology plus NodeRuntimeInfo).
class NoopTransformer : public Transformer<double, double> {
 public:
  std::string Name() const override { return "Noop"; }
  double Apply(const double& x) const override { return x; }
};

class NoopEstimator : public Estimator<double, double> {
 public:
  explicit NoopEstimator(int weight) : weight_(weight) {}
  std::string Name() const override { return "NoopEstimator"; }
  int Weight() const override { return weight_; }
  Fitted<Transformer<double, double>> Fit(
      const DistDataset<double>& data, ExecContext* ctx) const override {
    (void)data;
    (void)ctx;
    return {std::make_shared<NoopTransformer>(), std::nullopt};
  }

 private:
  int weight_;
};

void Run() {
  Rng rng(4242);
  double greedy_vs_optimal_worst = 1.0;
  double greedy_vs_optimal_sum = 0.0;
  double greedy_plan_ms = 0.0;
  double optimal_plan_ms = 0.0;
  double lru_vs_optimal_sum = 0.0;
  double rule_vs_optimal_sum = 0.0;
  const int trials = 60;

  for (int trial = 0; trial < trials; ++trial) {
    auto graph = std::make_shared<PipelineGraph>();
    auto data = DistDataset<double>::Partitioned({1, 2}, 1);
    std::vector<int> ids = {graph->AddSource(data, "src")};
    const int transformers = 3 + static_cast<int>(rng.NextIndex(6));
    for (int i = 0; i < transformers; ++i) {
      ids.push_back(graph->AddTransformer(
          std::make_shared<NoopTransformer>(),
          ids[rng.NextIndex(ids.size())]));
    }
    std::vector<int> terminals;
    for (int e = 0; e < 2; ++e) {
      const int w = 5 + static_cast<int>(rng.NextIndex(60));
      terminals.push_back(graph->AddEstimator(
          std::make_shared<NoopEstimator>(w),
          ids[rng.NextIndex(ids.size())], -1));
    }

    MaterializationProblem problem;
    problem.graph = graph.get();
    problem.resources = ClusterResourceDescriptor::R3_4xlarge(16);
    problem.memory_budget_bytes = rng.Uniform(1e6, 4e7);
    problem.terminals = terminals;
    problem.info.resize(graph->size());
    for (int id = 0; id < graph->size(); ++id) {
      auto& info = problem.info[id];
      info.live = true;
      info.compute_seconds = rng.Uniform(0.05, 3.0);
      info.output_bytes = rng.Uniform(5e5, 2e7);
      info.weight = 1;
    }
    for (int t : terminals) {
      problem.info[t].weight = graph->node(t).estimator->Weight();
      problem.info[t].always_cached = true;
      problem.info[t].output_bytes = 64;
    }

    Timer greedy_timer;
    const auto greedy = GreedyCacheSelection(problem);
    greedy_plan_ms += greedy_timer.ElapsedMillis();

    Timer optimal_timer;
    const auto optimal = ExhaustiveCacheSelection(problem);
    optimal_plan_ms += optimal_timer.ElapsedMillis();

    const double t_greedy = EstimateRuntime(problem, greedy);
    const double t_optimal = EstimateRuntime(problem, optimal);
    const double t_lru = SimulateLruRuntime(problem,
                                            problem.memory_budget_bytes);
    const double t_rule = EstimateRuntime(
        problem, RuleBasedCacheSelection(problem));

    const double ratio = t_greedy / t_optimal;
    greedy_vs_optimal_sum += ratio;
    greedy_vs_optimal_worst = std::max(greedy_vs_optimal_worst, ratio);
    lru_vs_optimal_sum += t_lru / t_optimal;
    rule_vs_optimal_sum += t_rule / t_optimal;
  }

  std::printf("Over %d random pipeline DAGs (<= 11 nodes):\n", trials);
  std::printf("  greedy/optimal runtime ratio: mean %.3f, worst %.3f\n",
              greedy_vs_optimal_sum / trials, greedy_vs_optimal_worst);
  std::printf("  lru/optimal runtime ratio:    mean %.3f\n",
              lru_vs_optimal_sum / trials);
  std::printf("  rule/optimal runtime ratio:   mean %.3f\n",
              rule_vs_optimal_sum / trials);
  std::printf("  planning time: greedy %.2f ms total, exhaustive %.2f ms "
              "total (%.0fx)\n",
              greedy_plan_ms, optimal_plan_ms,
              optimal_plan_ms / std::max(greedy_plan_ms, 1e-6));
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) {
  keystone::bench::ObsSession obs("ablation_materialization", argc, argv);
  keystone::bench::Banner(
      "Ablation: greedy materialization vs. exhaustive optimum",
      "Algorithm 1 should be near-optimal at a fraction of the planning "
      "cost.");
  keystone::Run();
  return 0;
}
