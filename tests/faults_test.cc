#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/plan_validator.h"
#include "src/common/thread_pool.h"
#include "src/core/executor.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/data/dist_dataset.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "src/optimizer/materialization.h"
#include "src/sim/faults/fault_plan.h"
#include "src/sim/faults/recovery.h"
#include "src/sim/resources.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using faults::FaultDraw;
using faults::FaultEvent;
using faults::FaultInjectionConfig;
using faults::FaultOutcome;
using faults::FaultPlan;
using faults::RecoveryContext;
using faults::RetryPolicy;
using testing_ops::AddConst;
using testing_ops::MeanCenterer;
using testing_ops::Scale;

// ---------------------------------------------------------------------------
// FaultPlan: deterministic, schedule-independent draws.
// ---------------------------------------------------------------------------

FaultInjectionConfig ModerateFaults(uint64_t seed) {
  FaultInjectionConfig config;
  config.seed = seed;
  config.task_failure_rate = 0.3;
  config.executor_loss_rate = 0.1;
  config.straggler_rate = 0.2;
  return config;
}

bool SameDraw(const FaultDraw& a, const FaultDraw& b) {
  return a.fails == b.fails && a.executor_loss == b.executor_loss &&
         a.straggler == b.straggler && a.fail_fraction == b.fail_fraction;
}

TEST(FaultPlanTest, DrawIsAPureFunctionOfIdentity) {
  const FaultPlan plan(ModerateFaults(7));
  const FaultPlan clone(ModerateFaults(7));
  for (int node = 0; node < 32; ++node) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const FaultDraw a = plan.DrawFor(node, "fp", attempt);
      const FaultDraw b = plan.DrawFor(node, "fp", attempt);
      const FaultDraw c = clone.DrawFor(node, "fp", attempt);
      EXPECT_TRUE(SameDraw(a, b)) << "node " << node;
      EXPECT_TRUE(SameDraw(a, c)) << "node " << node;
    }
  }
  // Call order is irrelevant: interleaving other draws changes nothing.
  const FaultDraw before = plan.DrawFor(5, "fp", 0);
  for (int node = 31; node >= 0; --node) plan.DrawFor(node, "other", 2);
  EXPECT_TRUE(SameDraw(before, plan.DrawFor(5, "fp", 0)));
}

TEST(FaultPlanTest, SeedAndIdentityChangeTheDraws) {
  const FaultPlan a(ModerateFaults(1));
  const FaultPlan b(ModerateFaults(2));
  int differing = 0;
  for (int node = 0; node < 64; ++node) {
    if (!SameDraw(a.DrawFor(node, "fp", 0), b.DrawFor(node, "fp", 0))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0) << "different seeds must change the fault schedule";
  // Different fingerprints decorrelate too.
  differing = 0;
  for (int node = 0; node < 64; ++node) {
    if (!SameDraw(a.DrawFor(node, "fp", 0), a.DrawFor(node, "fq", 0))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlanTest, DisabledPlanNeverInjects) {
  FaultInjectionConfig config;
  config.seed = 99;  // Seed alone does not enable anything.
  const FaultPlan plan(config);
  EXPECT_FALSE(plan.Enabled());
  for (int node = 0; node < 16; ++node) {
    const FaultDraw draw = plan.DrawFor(node, "fp", 0);
    EXPECT_FALSE(draw.fails);
    EXPECT_FALSE(draw.executor_loss);
    EXPECT_FALSE(draw.straggler);
  }
}

TEST(FaultPlanTest, RatesPartitionOneUniformDraw) {
  FaultInjectionConfig config;
  config.seed = 3;
  config.task_failure_rate = 0.3;
  config.executor_loss_rate = 0.2;
  const FaultPlan plan(config);
  const int n = 4000;
  int fails = 0;
  int losses = 0;
  for (int node = 0; node < n; ++node) {
    const FaultDraw draw = plan.DrawFor(node, "fp", 0);
    // Executor loss is a kind of failure, never an independent event.
    if (draw.executor_loss) {
      EXPECT_TRUE(draw.fails);
    }
    if (draw.fails) {
      ++fails;
      EXPECT_GE(draw.fail_fraction, 0.1);
      EXPECT_LE(draw.fail_fraction, 0.9);
    }
    if (draw.executor_loss) ++losses;
  }
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(losses) / n, 0.2, 0.05);
}

TEST(RetryPolicyTest, BackoffGrowsExponentially) {
  RetryPolicy retry;  // base 0.1s, x2 per retry
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(0), 0.1);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(1), 0.2);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(2), 0.4);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(3), 0.8);
}

// ---------------------------------------------------------------------------
// Recovery pricing: stragglers, retries, cache vs lineage.
// ---------------------------------------------------------------------------

RecoveryContext StageContext() {
  RecoveryContext ctx;
  ctx.node_id = 1;
  ctx.fingerprint = "fp";
  ctx.base_seconds = 8.0;  // 8 equal tasks over 4 slots: two 4s waves.
  ctx.partitions = 8;
  ctx.slots = 4;
  return ctx;
}

TEST(StragglerTest, SpeculativeExecutionCapsTheSlowdown) {
  const RecoveryContext ctx = StageContext();
  FaultInjectionConfig config;
  config.straggler_multiplier = 4.0;
  config.speculative_execution = false;
  const double uncapped = faults::StragglerOverheadSeconds(ctx, config);
  config.speculative_execution = true;
  config.speculation_cap = 2.0;
  const double capped = faults::StragglerOverheadSeconds(ctx, config);
  EXPECT_GT(uncapped, 0.0);
  EXPECT_GT(capped, 0.0);
  EXPECT_LT(capped, uncapped);
  // One 16s task among 4s siblings stretches the 8s stage to 16s.
  EXPECT_DOUBLE_EQ(uncapped, 8.0);
}

TEST(StragglerTest, NoSlowdownMeansNoOverhead) {
  const RecoveryContext ctx = StageContext();
  FaultInjectionConfig config;
  config.straggler_multiplier = 1.0;
  config.speculative_execution = false;
  EXPECT_DOUBLE_EQ(faults::StragglerOverheadSeconds(ctx, config), 0.0);
  RecoveryContext idle = ctx;
  idle.base_seconds = 0.0;
  config.straggler_multiplier = 4.0;
  EXPECT_DOUBLE_EQ(faults::StragglerOverheadSeconds(idle, config), 0.0);
}

TEST(SimulateNodeFaultsTest, CertainFailureExhaustsRetriesAndTerminates) {
  FaultInjectionConfig config;
  config.seed = 5;
  config.task_failure_rate = 1.0;
  config.retry.max_retries = 2;
  const FaultPlan plan(config);
  RecoveryContext ctx = StageContext();
  ctx.lineage_recovery_seconds = 1.0;
  const FaultOutcome out = faults::SimulateNodeFaults(plan, ctx);
  // Two failed attempts, then the forced success.
  EXPECT_EQ(out.attempts, 3);
  EXPECT_TRUE(out.retries_exhausted);
  ASSERT_EQ(out.events.size(), 2u);
  for (const FaultEvent& event : out.events) {
    EXPECT_EQ(event.kind, FaultEvent::Kind::kTaskFailure);
    EXPECT_GT(event.wasted_seconds, 0.0);
    EXPECT_GT(event.backoff_seconds, 0.0);
    EXPECT_DOUBLE_EQ(event.recovery_seconds, 1.0);
  }
  EXPECT_GT(out.overhead_seconds, 0.0);
}

TEST(SimulateNodeFaultsTest, MaterializedInputsRecoverFromCache) {
  FaultInjectionConfig config;
  config.seed = 5;
  config.task_failure_rate = 1.0;
  config.retry.max_retries = 2;
  const FaultPlan plan(config);

  RecoveryContext cached = StageContext();
  cached.lineage_recovery_seconds = 0.01;  // cache read
  cached.full_lineage_seconds = 10.0;
  cached.inputs_materialized = true;
  RecoveryContext uncached = cached;
  uncached.lineage_recovery_seconds = 10.0;  // upstream recompute chain
  uncached.inputs_materialized = false;

  // Same (seed, node, fingerprint): identical fault schedule, so the only
  // difference is how each execution pays for input re-acquisition.
  const FaultOutcome from_cache = faults::SimulateNodeFaults(plan, cached);
  const FaultOutcome from_lineage = faults::SimulateNodeFaults(plan, uncached);
  ASSERT_EQ(from_cache.events.size(), from_lineage.events.size());
  for (const FaultEvent& event : from_cache.events) {
    EXPECT_TRUE(event.cache_recovery);
    EXPECT_DOUBLE_EQ(event.recovery_seconds, 0.01);
  }
  for (const FaultEvent& event : from_lineage.events) {
    EXPECT_FALSE(event.cache_recovery);
    EXPECT_DOUBLE_EQ(event.recovery_seconds, 10.0);
  }
  EXPECT_LT(from_cache.overhead_seconds, from_lineage.overhead_seconds);
}

TEST(SimulateNodeFaultsTest, ExecutorLossIgnoresTheCache) {
  FaultInjectionConfig config;
  config.seed = 5;
  config.executor_loss_rate = 1.0;
  config.retry.max_retries = 1;
  const FaultPlan plan(config);
  RecoveryContext ctx = StageContext();
  ctx.lineage_recovery_seconds = 0.01;
  ctx.full_lineage_seconds = 10.0;
  ctx.inputs_materialized = true;  // irrelevant: the cache died too
  const FaultOutcome out = faults::SimulateNodeFaults(plan, ctx);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].kind, FaultEvent::Kind::kExecutorLoss);
  EXPECT_FALSE(out.events[0].cache_recovery);
  EXPECT_DOUBLE_EQ(out.events[0].recovery_seconds, 10.0);
}

// ---------------------------------------------------------------------------
// Fault-config validation.
// ---------------------------------------------------------------------------

TEST(ValidateFaultConfigTest, AcceptsSaneConfigs) {
  EXPECT_TRUE(analysis::ValidateFaultConfig(FaultInjectionConfig()).ok());
  EXPECT_TRUE(analysis::ValidateFaultConfig(ModerateFaults(1)).ok());
}

TEST(ValidateFaultConfigTest, RejectsBrokenRatesAndPolicies) {
  FaultInjectionConfig config;
  config.task_failure_rate = 1.5;
  EXPECT_TRUE(analysis::ValidateFaultConfig(config)
                  .HasRule(analysis::rules::kFaultRate));

  config = FaultInjectionConfig();
  config.straggler_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(analysis::ValidateFaultConfig(config)
                  .HasRule(analysis::rules::kFaultRate));

  // The two failure kinds partition one uniform draw: rates must sum <= 1.
  config = FaultInjectionConfig();
  config.task_failure_rate = 0.7;
  config.executor_loss_rate = 0.6;
  EXPECT_TRUE(analysis::ValidateFaultConfig(config)
                  .HasRule(analysis::rules::kFaultRate));

  config = FaultInjectionConfig();
  config.retry.max_retries = -1;
  EXPECT_TRUE(analysis::ValidateFaultConfig(config)
                  .HasRule(analysis::rules::kFaultRetry));

  config = FaultInjectionConfig();
  config.retry.backoff_multiplier = 0.5;
  EXPECT_TRUE(analysis::ValidateFaultConfig(config)
                  .HasRule(analysis::rules::kFaultRetry));

  config = FaultInjectionConfig();
  config.straggler_multiplier = 0.5;
  EXPECT_TRUE(analysis::ValidateFaultConfig(config)
                  .HasRule(analysis::rules::kFaultStraggler));

  config = FaultInjectionConfig();
  config.speculation_cap = 0.0;
  EXPECT_TRUE(analysis::ValidateFaultConfig(config)
                  .HasRule(analysis::rules::kFaultStraggler));
}

// ---------------------------------------------------------------------------
// End-to-end: PlanRunner under a FaultPlan.
// ---------------------------------------------------------------------------

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

/// Same Gather-heavy shape as plan_runner_test: `branches` independent
/// featurization chains ending in estimators, zipped into one vector.
Pipeline<double, std::vector<double>> BranchyPipeline(int branches) {
  auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  auto base = PipelineInput<double>();
  std::vector<Pipeline<double, double>> chains;
  for (int i = 0; i < branches; ++i) {
    chains.push_back(base.AndThen(std::make_shared<Scale>(i + 1.0))
                         .AndThen(std::make_shared<AddConst>(i * 0.5))
                         .AndThen(std::make_shared<MeanCenterer>(), train));
  }
  return Pipeline<double, double>::Gather(chains);
}

struct FaultObservation {
  std::vector<double> output;
  std::vector<std::pair<std::string, double>> fit_breakdown;
  double recovery_stage_seconds = 0.0;
  double report_recovery_seconds = 0.0;
  std::string report_text;
  std::vector<std::string> spans;  // "name|kind|physical"
  std::string timeline_json;
  std::vector<obs::RecoveryDecision> recoveries;
  double faults_injected = 0.0;
  double task_failures = 0.0;
  double executor_losses = 0.0;
  double stragglers = 0.0;
};

FaultObservation FitAndObserve(const OptimizationConfig& config,
                               const FaultPlan* plan, size_t threads = 4) {
  auto pipe = BranchyPipeline(6);
  ThreadPool pool(threads);
  PipelineExecutor executor(TestCluster(), config);
  executor.context()->set_pool(&pool);
  obs::TraceRecorder recorder;
  obs::ResourceTimeline timeline;
  obs::MetricsRegistry metrics;
  executor.context()->set_tracer(&recorder);
  executor.context()->set_timeline(&timeline);
  executor.context()->set_metrics(&metrics);
  executor.context()->set_fault_plan(plan);
  PipelineReport report;
  auto fitted = executor.Fit(pipe, &report);
  FaultObservation obs;
  obs.fit_breakdown = executor.context()->ledger()->Breakdown();
  obs.recovery_stage_seconds =
      executor.context()->ledger()->StageSeconds("Recovery");
  obs.report_recovery_seconds = report.recovery_seconds;
  obs.output = fitted.ApplyOne(2.0, executor.context());
  obs.report_text = report.ToString();
  for (const auto& span : recorder.Spans()) {
    obs.spans.push_back(span.name + "|" + span.kind + "|" + span.physical);
  }
  obs.timeline_json = timeline.ToJson();
  if (fitted.impl().plan().decision_log != nullptr) {
    obs.recoveries = fitted.impl().plan().decision_log->Recoveries();
  }
  obs.faults_injected = metrics.GetCounter("faults.injected")->Value();
  obs.task_failures = metrics.GetCounter("faults.task_failures")->Value();
  obs.executor_losses = metrics.GetCounter("faults.executor_losses")->Value();
  obs.stragglers = metrics.GetCounter("faults.stragglers")->Value();
  return obs;
}

void ExpectSameObservation(const FaultObservation& a,
                           const FaultObservation& b) {
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.fit_breakdown, b.fit_breakdown);
  EXPECT_EQ(a.recovery_stage_seconds, b.recovery_stage_seconds);
  EXPECT_EQ(a.report_recovery_seconds, b.report_recovery_seconds);
  EXPECT_EQ(a.report_text, b.report_text);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.timeline_json, b.timeline_json);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].node_id, b.recoveries[i].node_id);
    EXPECT_EQ(a.recoveries[i].kind, b.recoveries[i].kind);
    EXPECT_EQ(a.recoveries[i].attempt, b.recoveries[i].attempt);
    EXPECT_EQ(a.recoveries[i].cache_recovery, b.recoveries[i].cache_recovery);
    EXPECT_EQ(a.recoveries[i].recovery_seconds,
              b.recoveries[i].recovery_seconds);
  }
}

FaultInjectionConfig IntegrationFaults(uint64_t seed) {
  FaultInjectionConfig config;
  config.seed = seed;
  config.task_failure_rate = 0.2;
  config.executor_loss_rate = 0.05;
  config.straggler_rate = 0.15;
  return config;
}

TEST(FaultInjectionTest, SameSeedReproducesTheRunExactly) {
  const FaultPlan plan(IntegrationFaults(42));
  const FaultObservation first =
      FitAndObserve(OptimizationConfig::Full(), &plan);
  const FaultObservation second =
      FitAndObserve(OptimizationConfig::Full(), &plan);
  EXPECT_GT(first.faults_injected, 0.0);
  ExpectSameObservation(first, second);
}

TEST(FaultInjectionTest, SerialAndParallelSchedulesAgreeUnderFaults) {
  const FaultPlan plan(IntegrationFaults(42));
  const FaultObservation off =
      FitAndObserve(OptimizationConfig::Full(), &plan, 1);
  const FaultObservation on =
      FitAndObserve(OptimizationConfig::Full(), &plan, 4);
  // Non-vacuous: this seed actually injects faults and charges recovery.
  EXPECT_GT(on.faults_injected, 0.0);
  EXPECT_GT(on.recovery_stage_seconds, 0.0);
  ExpectSameObservation(off, on);
}

TEST(FaultInjectionTest, FaultedRunChargesAndReportsRecovery) {
  const FaultPlan plan(IntegrationFaults(42));
  const FaultObservation obs =
      FitAndObserve(OptimizationConfig::Full(), &plan);
  // The ledger's Recovery stage is exactly the fit pass's per-node overhead
  // the report aggregates (the apply pass charges separately, after the
  // breakdown snapshot).
  EXPECT_NEAR(obs.recovery_stage_seconds, obs.report_recovery_seconds, 1e-9);
  EXPECT_NE(obs.report_text.find("recovery="), std::string::npos);
  // The per-kind counters partition the injected total.
  EXPECT_EQ(obs.faults_injected,
            obs.task_failures + obs.executor_losses + obs.stragglers);
  // Recovery surfaces in the timeline and as dedicated trace spans.
  EXPECT_NE(obs.timeline_json.find("\"recovery\""), std::string::npos);
  bool recovery_span = false;
  for (const std::string& span : obs.spans) {
    if (span.find("|recovery|") != std::string::npos) recovery_span = true;
  }
  EXPECT_TRUE(recovery_span);
}

TEST(FaultInjectionTest, ZeroRatePlanIsByteIdenticalToNoPlan) {
  FaultInjectionConfig config;
  config.seed = 42;  // Rates all zero: the plan must be inert.
  const FaultPlan plan(config);
  const FaultObservation without =
      FitAndObserve(OptimizationConfig::Full(), nullptr);
  const FaultObservation with =
      FitAndObserve(OptimizationConfig::Full(), &plan);
  ExpectSameObservation(without, with);
  EXPECT_EQ(with.faults_injected, 0.0);
  EXPECT_EQ(with.recovery_stage_seconds, 0.0);
  EXPECT_TRUE(with.recoveries.empty());
  // No fault leaves no trace anywhere: no Recovery ledger stage, no
  // recovery timeline track, no recovery annotation in the report.
  for (const auto& stage : with.fit_breakdown) {
    EXPECT_NE(stage.first, "Recovery");
  }
  EXPECT_EQ(with.timeline_json.find("\"recovery\""), std::string::npos);
  EXPECT_EQ(with.report_text.find("recovery="), std::string::npos);
}

TEST(FaultInjectionTest, CachedNodesRecoverFromCacheUncachedPayLineage) {
  // Under greedy materialization some nodes' direct inputs are cached and
  // some are not. With a high failure rate both recovery paths appear in
  // one run, and the decision log attributes each retry to its path.
  FaultInjectionConfig config;
  config.task_failure_rate = 0.45;
  bool found_cache = false;
  bool found_lineage = false;
  for (uint64_t seed = 1; seed <= 16 && !(found_cache && found_lineage);
       ++seed) {
    config.seed = seed;
    const FaultPlan plan(config);
    const FaultObservation obs =
        FitAndObserve(OptimizationConfig::Full(), &plan);
    for (const obs::RecoveryDecision& decision : obs.recoveries) {
      if (decision.kind != "task-failure") continue;
      if (decision.cache_recovery) {
        found_cache = true;
      } else if (decision.recovery_seconds > 0.0) {
        found_lineage = true;
      }
    }
  }
  EXPECT_TRUE(found_cache)
      << "no retry recovered from materialized inputs in 16 seeds";
  EXPECT_TRUE(found_lineage)
      << "no retry paid lineage recompute in 16 seeds";
}

TEST(FaultInjectionTest, MaterializedPlansPayLessRecoveryTime) {
  FaultInjectionConfig config;
  config.seed = 11;
  config.task_failure_rate = 0.35;
  const FaultPlan plan(config);
  OptimizationConfig uncached = OptimizationConfig::Full();
  uncached.cache_policy = CachePolicy::kNone;
  // Same graph, same lowering, same fault schedule (draws depend only on
  // node identity): the only difference is what recovery re-reads from
  // cache instead of recomputing.
  const FaultObservation none = FitAndObserve(uncached, &plan);
  const FaultObservation greedy =
      FitAndObserve(OptimizationConfig::Full(), &plan);
  EXPECT_GT(none.recovery_stage_seconds, 0.0);
  EXPECT_GT(greedy.recovery_stage_seconds, 0.0);
  EXPECT_LT(greedy.recovery_stage_seconds, none.recovery_stage_seconds);
}

TEST(FaultValidationDeathTest, InvalidFaultConfigAbortsTheFit) {
  // The executor starts the kernel pool's workers: re-exec the death-test
  // child rather than fork a threaded process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  FaultInjectionConfig config;
  config.task_failure_rate = 1.5;
  const FaultPlan plan(config);
  auto pipe = BranchyPipeline(2);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  executor.context()->set_fault_plan(&plan);
  EXPECT_DEATH(executor.Fit(pipe), "failed validation");
}

// ---------------------------------------------------------------------------
// Optimizer pricing: expected recompute under failures.
// ---------------------------------------------------------------------------

struct ChainProblem {
  std::shared_ptr<PipelineGraph> graph;
  MaterializationProblem problem;
};

/// Linear chain src -> T1 -> T2 -> Estimator(w=10), 1s per node.
ChainProblem MakeChain() {
  ChainProblem out;
  out.graph = std::make_shared<PipelineGraph>();
  auto data = DistDataset<double>::Partitioned({1, 2, 3, 4}, 2);
  int prev = out.graph->AddSource(data, "src");
  for (int i = 0; i < 2; ++i) {
    prev = out.graph->AddTransformer(std::make_shared<AddConst>(1.0), prev);
  }
  const int est = out.graph->AddEstimator(std::make_shared<MeanCenterer>(10),
                                          prev, -1);
  out.problem.graph = out.graph.get();
  out.problem.resources = ClusterResourceDescriptor::R3_4xlarge(4);
  out.problem.memory_budget_bytes = 1e12;
  out.problem.terminals = {est};
  out.problem.info.resize(out.graph->size());
  for (int id = 0; id < out.graph->size(); ++id) {
    auto& info = out.problem.info[id];
    info.compute_seconds = 1.0;
    info.output_bytes = 1e6;
    info.weight = 1;
    info.live = true;
  }
  auto& est_info = out.problem.info[est];
  est_info.weight = 10;
  est_info.always_cached = true;
  est_info.output_bytes = 64;
  return out;
}

TEST(ExpectedFaultRateTest, FailureRateAddsARecoverySurcharge) {
  ChainProblem chain = MakeChain();
  const std::vector<bool> none(chain.graph->size(), false);
  const double clean = EstimateRuntime(chain.problem, none);
  chain.problem.failure_rate = 0.2;
  const double faulty = EstimateRuntime(chain.problem, none);
  EXPECT_GT(faulty, clean);
}

TEST(ExpectedFaultRateTest, CachingShrinksTheRecoverySurcharge) {
  ChainProblem chain = MakeChain();
  const std::vector<bool> none(chain.graph->size(), false);
  std::vector<bool> cached(chain.graph->size(), false);
  cached[2] = true;  // The estimator's direct input.
  const double clean_none = EstimateRuntime(chain.problem, none);
  const double clean_cached = EstimateRuntime(chain.problem, cached);
  chain.problem.failure_rate = 0.2;
  const double faulty_none = EstimateRuntime(chain.problem, none);
  const double faulty_cached = EstimateRuntime(chain.problem, cached);
  // Caching shields the estimator's 10 passes from recomputing the chain on
  // every expected failure: the surcharge shrinks, so a failure-aware
  // optimizer values materialization more than a failure-free one.
  EXPECT_LT(faulty_cached - clean_cached, faulty_none - clean_none);
}

TEST(ExpectedFaultRateTest, CompileForwardsTheRateToThePlanningProblem) {
  OptimizationConfig config = OptimizationConfig::Full();
  config.expected_fault_rate = 0.05;
  auto pipe = BranchyPipeline(2);
  PipelineExecutor executor(TestCluster(), config);
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->materialized);
  EXPECT_DOUBLE_EQ(plan->planning_problem.failure_rate, 0.05);
}

}  // namespace
}  // namespace keystone
