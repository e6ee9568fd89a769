#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_pool.h"
#include "src/core/executor.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/core/pipeline_graph.h"
#include "src/data/dist_dataset.h"
#include "src/obs/profile_store.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using testing_ops::AddConst;
using testing_ops::MeanCenterer;
using testing_ops::OffsetEstimator;
using testing_ops::ReportingEstimator;
using testing_ops::Scale;

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

/// The cost branch `i`'s estimator returns from every fit. Distinct per
/// branch, so a cost charged to another branch's node is visible.
CostProfile BranchCost(int i) { return CostProfile(1e7 * (i + 1), 1e6 * i, 0); }

/// A Gather-heavy pipeline: `branches` independent featurization chains,
/// each ending in an estimator named "Branch<i>" that returns
/// BranchCost(i), zipped into one output vector. Exercises DAG-level
/// branch parallelism on both the train and runtime paths.
Pipeline<double, std::vector<double>> BranchyPipeline(int branches) {
  auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  auto base = PipelineInput<double>();
  std::vector<Pipeline<double, double>> chains;
  for (int i = 0; i < branches; ++i) {
    auto estimator = std::make_shared<ReportingEstimator>(
        "Branch" + std::to_string(i), CostProfile(1e6, 1e6, 0), BranchCost(i));
    chains.push_back(base.AndThen(std::make_shared<Scale>(i + 1.0))
                         .AndThen(std::make_shared<AddConst>(i * 0.5))
                         .AndThen(estimator, train));
  }
  return Pipeline<double, double>::Gather(chains);
}

struct FitObservation {
  std::vector<double> output;
  double fit_ledger_seconds = 0.0;
  double apply_ledger_seconds = 0.0;
  std::string report_text;
  std::vector<std::string> span_names;
  /// (node name, observed cost) of every estimator span, in trace order.
  std::vector<std::pair<std::string, std::optional<CostProfile>>>
      estimator_observed;
  std::string timeline_json;
};

/// Fits and applies BranchyPipeline(6) on a pool of `threads` threads. One
/// thread is the serial reference: every node runs on the calling thread in
/// id order.
FitObservation FitAndObserve(const OptimizationConfig& config,
                             size_t threads = 4) {
  auto pipe = BranchyPipeline(6);
  ThreadPool pool(threads);
  PipelineExecutor executor(TestCluster(), config);
  executor.context()->set_pool(&pool);
  obs::TraceRecorder recorder;
  obs::ResourceTimeline timeline;
  executor.context()->set_tracer(&recorder);
  executor.context()->set_timeline(&timeline);
  PipelineReport report;
  auto fitted = executor.Fit(pipe, &report);
  FitObservation obs;
  obs.fit_ledger_seconds = executor.context()->ledger()->TotalSeconds();
  obs.output = fitted.ApplyOne(2.0, executor.context());
  obs.apply_ledger_seconds =
      executor.context()->ledger()->TotalSeconds() - obs.fit_ledger_seconds;
  obs.report_text = report.ToString();
  for (const auto& span : recorder.Spans()) {
    obs.span_names.push_back(span.name);
    if (span.kind == NodeKindName(NodeKind::kEstimator)) {
      obs.estimator_observed.emplace_back(span.name, span.observed);
    }
  }
  obs.timeline_json = timeline.ToJson();
  return obs;
}

TEST(PlanRunnerTest, ParallelFitIsDeterministic) {
  const FitObservation first = FitAndObserve(OptimizationConfig::Full());
  const FitObservation second = FitAndObserve(OptimizationConfig::Full());
  // Bit-identical models, charged virtual time, plan report, and span order
  // across runs, regardless of the order the scheduler dispatched branches.
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(first.fit_ledger_seconds, second.fit_ledger_seconds);
  EXPECT_EQ(first.apply_ledger_seconds, second.apply_ledger_seconds);
  EXPECT_EQ(first.report_text, second.report_text);
  EXPECT_EQ(first.span_names, second.span_names);
}

TEST(PlanRunnerTest, SerialAndParallelExecutionAgree) {
  const FitObservation off = FitAndObserve(OptimizationConfig::Full(), 1);
  const FitObservation on = FitAndObserve(OptimizationConfig::Full(), 4);
  // Branch parallelism is a wall-clock optimization only: every observable
  // effect — fitted models, virtual-time charges, report, trace — matches
  // strictly serial execution exactly.
  EXPECT_EQ(off.output, on.output);
  EXPECT_EQ(off.fit_ledger_seconds, on.fit_ledger_seconds);
  EXPECT_EQ(off.apply_ledger_seconds, on.apply_ledger_seconds);
  EXPECT_EQ(off.report_text, on.report_text);
  EXPECT_EQ(off.span_names, on.span_names);
  // Each branch's model centers on its own training data: branch i maps
  // the records 1..8 to x * (i + 1) + i / 2, so input 2 comes out at
  // (2 - 4.5) * (i + 1).
  ASSERT_EQ(on.output.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(on.output[i], -2.5 * (i + 1)) << "branch " << i;
  }
  // Each branch's fit returns its own cost, and in both schedules every
  // estimator span observed exactly that cost (profile-small,
  // profile-large and train spans for all six branches): concurrent
  // branches never swap costs.
  for (const FitObservation* run : {&off, &on}) {
    EXPECT_EQ(run->estimator_observed.size(), 3u * 6u);
    for (const auto& [name, observed] : run->estimator_observed) {
      ASSERT_TRUE(observed.has_value()) << name;
      const CostProfile want = BranchCost(std::stoi(name.substr(6)));
      EXPECT_EQ(observed->flops, want.flops) << name;
      EXPECT_EQ(observed->bytes, want.bytes) << name;
    }
  }
}

TEST(PlanRunnerTest, ResourceTimelineBitIdenticalAcrossSchedulers) {
  // The timeline is built from per-node effects buffered by PlanRunner and
  // flushed in node-id order, so the one-thread and four-thread pools
  // must render byte-for-byte identical timelines: same intervals in the
  // same order, same cache counters, same high-water mark.
  const FitObservation off = FitAndObserve(OptimizationConfig::Full(), 1);
  const FitObservation on = FitAndObserve(OptimizationConfig::Full(), 4);
  EXPECT_FALSE(on.timeline_json.empty());
  EXPECT_NE(on.timeline_json.find("\"intervals\""), std::string::npos);
  EXPECT_EQ(off.timeline_json, on.timeline_json);
}

TEST(PlanRunnerTest, UnoptimizedConfigsAgreeAcrossSchedulers) {
  const FitObservation off = FitAndObserve(OptimizationConfig::None(), 1);
  const FitObservation on = FitAndObserve(OptimizationConfig::None(), 4);
  EXPECT_EQ(off.output, on.output);
  EXPECT_EQ(off.fit_ledger_seconds, on.fit_ledger_seconds);
  EXPECT_EQ(off.report_text, on.report_text);
}

/// Pure map that records the id of every thread that applies it.
class ThreadRecorder : public Transformer<double, double> {
 public:
  std::string Name() const override { return "ThreadRecorder"; }
  double Apply(const double& x) const override {
    MutexLock lock(&mu_);
    ids_.insert(std::this_thread::get_id());
    return x + 1.0;
  }
  std::set<std::thread::id> ids() const {
    MutexLock lock(&mu_);
    return ids_;
  }

 private:
  mutable Mutex mu_;
  mutable std::set<std::thread::id> ids_;
};

TEST(PlanRunnerTest, ChainRunsOnTheCallingThread) {
  // One source, one partition, one node after another: the calling thread
  // never has a second ready node to hand out or a second partition to
  // share, so a four-thread pool runs none of the fit or the apply.
  auto recorder = std::make_shared<ThreadRecorder>();
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(recorder)
                  .AndThen(std::make_shared<MeanCenterer>(),
                           Doubles({1, 2, 3, 4}, 1));
  ThreadPool pool(4);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  executor.context()->set_pool(&pool);
  auto fitted = executor.Fit(pipe);
  const auto out = fitted.Apply(Doubles({5, 6, 7}, 1), executor.context());
  EXPECT_EQ(out->NumRecords(), 3u);
  EXPECT_EQ(recorder->ids(),
            std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(pool.stats().tasks_submitted, 0u);

  // A one-thread pool is the serial run: even six independent branches
  // never reach the pool.
  ThreadPool one(1);
  PipelineExecutor serial(TestCluster(), OptimizationConfig::Full());
  serial.context()->set_pool(&one);
  const uint64_t before = one.stats().tasks_submitted;
  auto branchy = serial.Fit(BranchyPipeline(6));
  branchy.ApplyOne(2.0, serial.context());
  branchy.Apply(Doubles({1, 2, 3, 4, 5}, 4), serial.context());
  EXPECT_EQ(one.stats().tasks_submitted, before);
}

/// Supervised estimator whose reported fit cost follows from its input's
/// shape alone, like the exact solvers', and which counts its fits. No
/// FitCost override: the runner must fit it to learn that cost.
class CountingEstimator : public LabelEstimator<double, double, double> {
 public:
  std::string Name() const override { return "CountingEstimator"; }

  Fitted<Transformer<double, double>> Fit(
      const DistDataset<double>& data, const DistDataset<double>& labels,
      ExecContext* ctx) const override {
    ++fits_;
    return {OffsetEstimator().Fit(data, labels, ctx).model, ShapeCost(data)};
  }

  int fits() const { return fits_; }

 protected:
  static CostProfile ShapeCost(const DistDataset<double>& data) {
    const double n = static_cast<double>(data.NumRecords());
    return CostProfile(1e8 * n, 8e3 * n, 1e3 * n, 1.0);
  }

 private:
  mutable std::atomic<int> fits_{0};
};

/// The same estimator (same name, so the same fingerprints) with the
/// cost-only hook.
class CostedCountingEstimator : public CountingEstimator {
 public:
  std::optional<CostProfile> FitCost(const DistDataset<double>& data,
                                     const DistDataset<double>& labels,
                                     ExecContext* ctx) const override {
    (void)labels;
    (void)ctx;
    return ShapeCost(data);
  }
};

struct CountingRun {
  int fits = 0;
  std::vector<ProfileEntry> profiles;  // train nodes, in id order
  std::string plan_json;               // includes the decision log
  std::string decision_log_json;
  /// Spans of the counting estimator's node, in trace order.
  std::vector<obs::TraceSpan> spans;
  std::string chrome_trace;
  std::string plan_report;
};

/// Fits Scale(2) then `est` on 1200 labeled records, so the two sampling
/// passes see 512 and 1024 of them. With `consumed`, a MeanCenterer fit
/// downstream applies `est`'s model on the train path, so `est` is not
/// terminal.
CountingRun FitCounting(const std::shared_ptr<CountingEstimator>& est,
                        bool consumed) {
  std::vector<double> values(1200);
  std::vector<double> targets(1200);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 17);
    targets[i] = values[i] * 0.5 + 3.0;
  }
  auto train = Doubles(values, 4);
  auto labels = Doubles(targets, 4);
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(est, train, labels);
  if (consumed) pipe = pipe.AndThen(std::make_shared<MeanCenterer>(), train);
  obs::TraceRecorder recorder;
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  executor.context()->set_tracer(&recorder);
  const auto fitted = executor.Fit(pipe);
  const PhysicalPlan& plan = fitted.impl().plan();
  CountingRun run;
  run.fits = est->fits();
  for (const PlannedNode& pn : plan.nodes) {
    if (pn.train) run.profiles.push_back(pn.profile);
  }
  run.plan_json = plan.ToJson();
  run.decision_log_json = plan.decision_log->ToJson();
  for (const obs::TraceSpan& span : recorder.Spans()) {
    if (span.name == "CountingEstimator") run.spans.push_back(span);
  }
  run.chrome_trace = recorder.ChromeTraceJson();
  run.plan_report = recorder.PlanReport();
  return run;
}

void ExpectSameProfiles(const CountingRun& a, const CountingRun& b) {
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (size_t i = 0; i < a.profiles.size(); ++i) {
    EXPECT_EQ(a.profiles[i].seconds_small, b.profiles[i].seconds_small) << i;
    EXPECT_EQ(a.profiles[i].seconds_large, b.profiles[i].seconds_large) << i;
    EXPECT_EQ(a.profiles[i].records_small, b.profiles[i].records_small) << i;
    EXPECT_EQ(a.profiles[i].records_large, b.profiles[i].records_large) << i;
    EXPECT_EQ(a.profiles[i].bytes_per_record, b.profiles[i].bytes_per_record)
        << i;
    EXPECT_EQ(a.profiles[i].full_records, b.profiles[i].full_records) << i;
  }
}

TEST(PlanRunnerTest, TerminalEstimatorWithCostHookFitsOnlyInTrainPass) {
  const CountingRun costed =
      FitCounting(std::make_shared<CostedCountingEstimator>(), false);
  const CountingRun twin =
      FitCounting(std::make_shared<CountingEstimator>(), false);

  // Nothing reads the sample models, so the hook replaces both sampling
  // fits; the twin without it still fits in every pass.
  EXPECT_EQ(costed.fits, 1);
  EXPECT_EQ(twin.fits, 3);

  // The hook returns the cost the fit would report, so the optimizer sees
  // exactly what it saw before.
  ExpectSameProfiles(costed, twin);
  EXPECT_EQ(costed.plan_json, twin.plan_json);
  EXPECT_EQ(costed.decision_log_json, twin.decision_log_json);

  // Both sampling spans are flagged and observed the hook's cost; the
  // train span is a real fit.
  ASSERT_EQ(costed.spans.size(), 3u);
  ASSERT_EQ(twin.spans.size(), 3u);
  for (size_t i = 0; i < costed.spans.size(); ++i) {
    const obs::TraceSpan& span = costed.spans[i];
    EXPECT_EQ(span.fit_skipped, span.phase != obs::TracePhase::kTrain) << i;
    EXPECT_FALSE(twin.spans[i].fit_skipped) << i;
    ASSERT_TRUE(span.observed.has_value());
    ASSERT_TRUE(twin.spans[i].observed.has_value());
    EXPECT_EQ(span.observed->flops, twin.spans[i].observed->flops) << i;
    EXPECT_EQ(span.virtual_seconds, twin.spans[i].virtual_seconds) << i;
  }
  EXPECT_NE(costed.chrome_trace.find("\"fit_skipped\":true"),
            std::string::npos);
  EXPECT_NE(costed.plan_report.find("[fit skipped]"), std::string::npos);
  EXPECT_EQ(twin.chrome_trace.find("fit_skipped"), std::string::npos);
  EXPECT_EQ(twin.plan_report.find("[fit skipped]"), std::string::npos);
}

TEST(PlanRunnerTest, ConsumedEstimatorFitsInEveryPass) {
  // The downstream MeanCenterer's sampling fits read this estimator's
  // sample model, so the hook must not replace those fits.
  const CountingRun costed =
      FitCounting(std::make_shared<CostedCountingEstimator>(), true);
  const CountingRun twin =
      FitCounting(std::make_shared<CountingEstimator>(), true);
  EXPECT_EQ(costed.fits, 3);
  EXPECT_EQ(twin.fits, 3);
  ASSERT_EQ(costed.spans.size(), 3u);
  for (const obs::TraceSpan& span : costed.spans) {
    EXPECT_FALSE(span.fit_skipped);
  }
  EXPECT_EQ(costed.plan_json, twin.plan_json);
}

TEST(CompileTest, ExposesCompiledPlan) {
  auto pipe = BranchyPipeline(3);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->materialized);
  EXPECT_GT(plan->NumTrainNodes(), 0);
  EXPECT_GT(plan->NumRuntimeNodes(), 0);
  // Every node carries a structural fingerprint; both renderings print it.
  for (const PlannedNode& pn : plan->nodes) {
    if (pn.train || pn.runtime) {
      EXPECT_FALSE(pn.fingerprint.empty());
    }
  }
  EXPECT_NE(plan->ToString().find("PhysicalPlan{"), std::string::npos);
  EXPECT_NE(plan->ToJson().find("\"fingerprint\""), std::string::npos);
}

TEST(CompileTest, FitMatchesCompiledPlanDecisions) {
  auto pipe = BranchyPipeline(3);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  PipelineReport report;
  auto fitted = executor.Fit(pipe, &report);
  const PhysicalPlan& plan = fitted.impl().plan();
  EXPECT_EQ(report.cache_set, plan.cache_set);
  EXPECT_EQ(report.cse_eliminated, plan.cse_eliminated);
  for (const NodeExecutionRecord& record : report.nodes) {
    EXPECT_EQ(record.chosen_physical, plan.nodes[record.id].physical_name);
  }
}

TEST(FingerprintTest, StableUnderNodeRename) {
  auto pipe = BranchyPipeline(2);
  auto graph = std::make_shared<PipelineGraph>(*pipe.graph());
  const OptimizationConfig config = OptimizationConfig::Full();
  PhysicalPlan plan = LowerToPhysical(graph, pipe.source(), pipe.sink(),
                                      config, TestCluster());
  std::vector<std::string> before;
  for (const PlannedNode& pn : plan.nodes) before.push_back(pn.fingerprint);
  for (int id = 0; id < graph->size(); ++id) {
    graph->mutable_node(id)->name += " (renamed)";
  }
  RelowerPlan(&plan);
  for (const PlannedNode& pn : plan.nodes) {
    EXPECT_EQ(pn.fingerprint, before[pn.id]) << "node " << pn.id;
  }
}

TEST(FingerprintTest, StoredProfilesSurviveNodeRename) {
  // Profiles recorded under one naming must be reused after every node in
  // the pipeline is renamed: the store is keyed by structural fingerprint,
  // not display name.
  auto pipe = BranchyPipeline(2);
  obs::ProfileStore store;
  {
    PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
    executor.context()->set_profile_store(&store);
    executor.Fit(pipe);
  }
  for (int id = 0; id < pipe.graph()->size(); ++id) {
    pipe.graph()->mutable_node(id)->name += " v2";
  }
  OptimizationConfig reuse = OptimizationConfig::Full();
  reuse.reuse_stored_profiles = true;
  PipelineExecutor executor(TestCluster(), reuse);
  executor.context()->set_profile_store(&store);
  PipelineReport report;
  executor.Fit(pipe, &report);
  EXPECT_TRUE(report.profiles_from_store);
  EXPECT_EQ(report.optimize_seconds, 0.0);
}

}  // namespace
}  // namespace keystone
