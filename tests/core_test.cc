#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/executor.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/core/pipeline_graph.h"
#include "src/data/dist_dataset.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/optimizer/operator_optimizer.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using testing_ops::AddConst;
using testing_ops::MeanCenterer;
using testing_ops::OffsetEstimator;
using testing_ops::Scale;

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

TEST(DistDatasetTest, PartitioningAndCollect) {
  auto ds = Doubles({1, 2, 3, 4, 5}, 2);
  EXPECT_EQ(ds->NumRecords(), 5u);
  EXPECT_EQ(ds->NumPartitions(), 2u);
  const auto all = ds->Collect();
  EXPECT_EQ(all, (std::vector<double>{1, 2, 3, 4, 5}));
}

TEST(DistDatasetTest, SamplePrefix) {
  auto ds = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  auto sample = ds->SamplePrefix(3);
  EXPECT_EQ(sample->NumRecords(), 3u);
  auto typed = DistDataset<double>::Cast(sample);
  EXPECT_EQ(typed->Collect(), (std::vector<double>{1, 2, 3}));
}

TEST(DistDatasetTest, SampleCoveringTheDatasetIsTheDataset) {
  auto ds = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  EXPECT_EQ(ds->SamplePrefix(8), ds);
  EXPECT_EQ(ds->SamplePrefix(100), ds);
  // A scaled dataset: a copy of the same records at virtual scale 1.
  ds->set_virtual_scale(10.0);
  const auto scaled = ds->SamplePrefix(8);
  EXPECT_NE(scaled, ds);
  EXPECT_EQ(scaled->virtual_scale(), 1.0);
  EXPECT_EQ(DistDataset<double>::Cast(scaled)->partitions(), ds->partitions());
  // Layouts Partitioned would not give, one with an empty partition: copies
  // re-partitioned as Partitioned splits them.
  using Parts = std::vector<std::vector<double>>;
  const auto uneven =
      std::make_shared<DistDataset<double>>(Parts{{1, 2, 3}, {4}});
  const auto resplit = uneven->SamplePrefix(4);
  EXPECT_NE(resplit, uneven);
  EXPECT_EQ(DistDataset<double>::Cast(resplit)->partitions(),
            (Parts{{1, 2}, {3, 4}}));
  const auto gappy =
      std::make_shared<DistDataset<double>>(Parts{{1}, {}, {2}});
  EXPECT_EQ(DistDataset<double>::Cast(gappy->SamplePrefix(2))->partitions(),
            (Parts{{1}, {2}}));
  // A dataset no shared_ptr owns is copied.
  const DistDataset<double> unowned(Parts{{1, 2}});
  const auto copy = unowned.SamplePrefix(2);
  EXPECT_NE(copy.get(), &unowned);
  EXPECT_EQ(DistDataset<double>::Cast(copy)->partitions(),
            unowned.partitions());
}

TEST(DistDatasetTest, StatsForDenseVectors) {
  std::vector<std::vector<double>> recs = {{1, 0, 3}, {0, 0, 0}, {1, 1, 1}};
  auto ds = MakeDataset(std::move(recs), 2);
  const DataStats stats = ds->ComputeStats();
  EXPECT_EQ(stats.num_records, 3u);
  EXPECT_EQ(stats.dim, 3u);
  EXPECT_DOUBLE_EQ(stats.bytes_per_record, 24.0);
  EXPECT_NEAR(stats.avg_nnz, 5.0 / 3.0, 1e-12);
}

TEST(DistDatasetTest, CastChecksType) {
  auto ds = Doubles({1.0});
  AnyDataset any = ds;
  EXPECT_NO_FATAL_FAILURE(DistDataset<double>::Cast(any));
  EXPECT_DEATH(DistDataset<int>::Cast(any), "element type mismatch");
}

TEST(PipelineGraphTest, BuildAndDependencies) {
  PipelineGraph graph;
  const int ph = graph.AddPlaceholder("in");
  const int t1 = graph.AddTransformer(std::make_shared<AddConst>(1.0), ph);
  const int src = graph.AddSource(Doubles({1, 2}), "data");
  const int est = graph.AddEstimator(std::make_shared<MeanCenterer>(), src, -1);
  const int apply = graph.AddApplyModel(est, t1);
  EXPECT_EQ(graph.size(), 5);
  EXPECT_EQ(graph.Dependencies(apply), (std::vector<int>{t1, est}));
  EXPECT_EQ(graph.node(apply).kind, NodeKind::kApplyModel);
}

TEST(PipelineGraphTest, ReachabilityAndAncestors) {
  PipelineGraph graph;
  const int ph = graph.AddPlaceholder("in");
  const int t1 = graph.AddTransformer(std::make_shared<AddConst>(1.0), ph);
  const int src = graph.AddSource(Doubles({1, 2}), "data");
  const int t2 = graph.AddTransformer(std::make_shared<AddConst>(1.0), src);

  const auto from_ph = graph.ReachableFrom(ph);
  EXPECT_TRUE(from_ph[t1]);
  EXPECT_FALSE(from_ph[src]);
  EXPECT_FALSE(from_ph[t2]);

  const auto anc = graph.AncestorsOf(t2);
  EXPECT_TRUE(anc[src]);
  EXPECT_FALSE(anc[ph]);
}

TEST(PipelineGraphTest, CopyWithSubstitutionSharesIndependentNodes) {
  PipelineGraph graph;
  const int ph = graph.AddPlaceholder("in");
  auto op = std::make_shared<AddConst>(2.0);
  const int t1 = graph.AddTransformer(op, ph);
  const int src = graph.AddSource(Doubles({1, 2}), "data");

  const int copied = graph.CopyWithSubstitution(t1, ph, src);
  EXPECT_NE(copied, t1);
  // The copy reuses the same operator instance but reads from the source.
  EXPECT_EQ(graph.node(copied).transformer.get(), op.get());
  EXPECT_EQ(graph.node(copied).inputs[0], src);
  // Original untouched.
  EXPECT_EQ(graph.node(t1).inputs[0], ph);
}

TEST(PipelineGraphTest, CseMergesIdenticalChains) {
  PipelineGraph graph;
  const int src = graph.AddSource(Doubles({1, 2}), "data");
  auto op = std::make_shared<AddConst>(1.0);
  const int a = graph.AddTransformer(op, src);
  const int b = graph.AddTransformer(op, src);  // identical to a
  const int c = graph.AddTransformer(std::make_shared<AddConst>(1.0), src);

  std::vector<int> remap;
  const int eliminated = graph.EliminateCommonSubexpressions(&remap);
  EXPECT_EQ(eliminated, 1);
  EXPECT_EQ(remap[b], a);
  // Different operator instance: not merged even if logically similar.
  EXPECT_EQ(remap[c], c);
}

TEST(PipelineGraphTest, CseMergesTransitively) {
  PipelineGraph graph;
  const int src = graph.AddSource(Doubles({1, 2}), "data");
  auto op1 = std::make_shared<AddConst>(1.0);
  auto op2 = std::make_shared<Scale>(2.0);
  const int a1 = graph.AddTransformer(op1, src);
  const int a2 = graph.AddTransformer(op2, a1);
  const int b1 = graph.AddTransformer(op1, src);
  const int b2 = graph.AddTransformer(op2, b1);

  std::vector<int> remap;
  const int eliminated = graph.EliminateCommonSubexpressions(&remap);
  EXPECT_EQ(eliminated, 2);
  EXPECT_EQ(remap[b2], a2);
}

TEST(PipelineTest, AndThenChainsTransformers) {
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<AddConst>(3.0))
                  .AndThen(std::make_shared<Scale>(2.0));

  PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
  auto fitted = executor.Fit(pipe);
  EXPECT_DOUBLE_EQ(fitted.ApplyOne(1.0, executor.context()), 8.0);
  EXPECT_DOUBLE_EQ(fitted.ApplyOne(-3.0, executor.context()), 0.0);
}

TEST(PipelineTest, UnsupervisedEstimatorFitAndApply) {
  auto train = Doubles({10, 20, 30, 40});
  auto pipe = PipelineInput<double>().AndThen(
      std::make_shared<MeanCenterer>(), train);

  PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
  auto fitted = executor.Fit(pipe);
  // Mean of training data is 25.
  EXPECT_DOUBLE_EQ(fitted.ApplyOne(30.0, executor.context()), 5.0);
}

TEST(PipelineTest, EstimatorSeesPrefixAppliedToTrainData) {
  auto train = Doubles({10, 20, 30, 40});
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(), train);

  PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
  auto fitted = executor.Fit(pipe);
  // Prefix doubles the training data -> mean is 50; runtime input is also
  // doubled before centering: f(30) = 60 - 50 = 10.
  EXPECT_DOUBLE_EQ(fitted.ApplyOne(30.0, executor.context()), 10.0);
}

TEST(PipelineTest, SupervisedEstimator) {
  auto train = Doubles({1, 2, 3});
  auto labels = Doubles({11, 12, 13});
  auto pipe = PipelineInput<double>().AndThen(
      std::make_shared<OffsetEstimator>(), train, labels);

  PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
  auto fitted = executor.Fit(pipe);
  EXPECT_DOUBLE_EQ(fitted.ApplyOne(5.0, executor.context()), 15.0);
}

TEST(PipelineTest, GatherZipsBranches) {
  auto base = PipelineInput<double>();
  auto branch1 = base.AndThen(std::make_shared<AddConst>(1.0));
  auto branch2 = base.AndThen(std::make_shared<Scale>(10.0));
  auto gathered = Pipeline<double, double>::Gather({branch1, branch2});

  PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
  auto fitted = executor.Fit(gathered);
  const auto out = fitted.ApplyOne(2.0, executor.context());
  EXPECT_EQ(out, (std::vector<double>{3.0, 20.0}));
}

TEST(PipelineTest, ApplyOnDataset) {
  auto pipe =
      PipelineInput<double>().AndThen(std::make_shared<Scale>(3.0));
  PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
  auto fitted = executor.Fit(pipe);
  auto out = fitted.Apply(Doubles({1, 2, 3}), executor.context());
  EXPECT_EQ(out->Collect(), (std::vector<double>{3, 6, 9}));
}

TEST(ExecutorTest, ReportContainsTrainNodes) {
  auto train = Doubles({1, 2, 3, 4});
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(), train);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  PipelineReport report;
  executor.Fit(pipe, &report);
  // Train side: source, scale copy, estimator.
  ASSERT_EQ(report.nodes.size(), 3u);
  EXPECT_EQ(report.nodes[2].kind, NodeKind::kEstimator);
  EXPECT_GT(report.total_train_seconds, 0.0);
}

TEST(ExecutorTest, CseEliminatesSharedTrainingBranch) {
  // Two estimators fit on the same featurized training data: the prefix is
  // replicated twice at construction and must be merged by CSE.
  auto train = Doubles({1, 2, 3, 4});
  auto scale = std::make_shared<Scale>(2.0);
  auto pipe = PipelineInput<double>()
                  .AndThen(scale)
                  .AndThen(std::make_shared<MeanCenterer>(), train)
                  .AndThen(std::make_shared<MeanCenterer>(), train);

  PipelineReport with_cse;
  {
    PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
    executor.Fit(pipe, &with_cse);
  }
  EXPECT_GT(with_cse.cse_eliminated, 0);

  PipelineReport no_cse;
  {
    PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
    executor.Fit(pipe, &no_cse);
  }
  EXPECT_EQ(with_cse.nodes.size() + with_cse.cse_eliminated,
            no_cse.nodes.size());
}

TEST(ExecutorTest, FittedPipelineIdenticalAcrossOptimizationLevels) {
  auto train = Doubles({5, 6, 7, 8, 9, 10});
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(0.5))
                  .AndThen(std::make_shared<MeanCenterer>(), train);

  std::vector<OptimizationConfig> configs = {OptimizationConfig::None(),
                                             OptimizationConfig::PipeOnly(),
                                             OptimizationConfig::Full()};
  std::vector<double> outputs;
  for (const auto& cfg : configs) {
    PipelineExecutor executor(TestCluster(), cfg);
    auto fitted = executor.Fit(pipe);
    outputs.push_back(fitted.ApplyOne(12.0, executor.context()));
  }
  EXPECT_DOUBLE_EQ(outputs[0], outputs[1]);
  EXPECT_DOUBLE_EQ(outputs[0], outputs[2]);
}

TEST(ExecutorTest, IterativeEstimatorMakesCachingProfitable) {
  // A heavily iterative estimator over a transformed dataset: with greedy
  // materialization the featurized data is computed once; without caching
  // it is recomputed every pass.
  std::vector<double> values(2000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 0.01;
  auto train = Doubles(std::move(values), 8);
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(50), train);

  PipelineReport cached;
  {
    PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
    executor.Fit(pipe, &cached);
  }
  PipelineReport uncached;
  {
    PipelineExecutor executor(TestCluster(), OptimizationConfig::None());
    executor.Fit(pipe, &uncached);
  }
  EXPECT_LT(cached.total_train_seconds, uncached.total_train_seconds);
}

TEST(ExecutorTest, LedgerChargesStages) {
  auto train = Doubles({1, 2, 3, 4});
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(), train);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto fitted = executor.Fit(pipe);
  auto* ledger = executor.context()->ledger();
  EXPECT_GT(ledger->StageSeconds("Load"), 0.0);
  EXPECT_GT(ledger->StageSeconds("Solve"), 0.0);

  fitted.Apply(Doubles({9, 9}), executor.context());
  EXPECT_GT(ledger->StageSeconds("Eval"), 0.0);
}

TEST(RuntimeMaskTest, ModelEdgeNodesSplitAcrossFitAndApply) {
  // placeholder -> Scale -> apply-model, with a train branch replicating
  // Scale over the bound training source into the estimator. The masks
  // must split exactly at the model edge: the estimator and everything it
  // reads are train-only, the apply-model node and the streaming prefix
  // are runtime-only, and no node is both.
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(),
                           Doubles({1, 2, 3, 4}));
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  int train_transformers = 0, runtime_transformers = 0;
  for (const PlannedNode& pn : plan->nodes) {
    EXPECT_FALSE(pn.train && pn.runtime) << "node " << pn.id;
    switch (pn.kind) {
      case NodeKind::kEstimator:
        EXPECT_TRUE(pn.train);
        EXPECT_FALSE(pn.runtime);
        break;
      case NodeKind::kApplyModel:
        EXPECT_TRUE(pn.runtime);
        EXPECT_FALSE(pn.train);
        break;
      case NodeKind::kSource:
        EXPECT_FALSE(pn.runtime) << "bound sources cannot serve requests";
        break;
      case NodeKind::kPlaceholder:
        // The placeholder itself is neither mask: RunApply seeds it with
        // the request input directly.
        EXPECT_FALSE(pn.train);
        EXPECT_FALSE(pn.runtime);
        break;
      case NodeKind::kTransformer:
        if (pn.train) ++train_transformers;
        if (pn.runtime) ++runtime_transformers;
        break;
      default:
        break;
    }
  }
  // The Scale prefix exists on both sides of the model edge — as the
  // train-branch replica and as the runtime-path original.
  EXPECT_GE(train_transformers, 1);
  EXPECT_GE(runtime_transformers, 1);
  EXPECT_EQ(plan->NumRuntimeNodes(), 2);  // Scale + apply-model
}

TEST(RuntimeMaskTest, EntirelyTrainOnlyBranchNeverReachesRuntime) {
  // A pipeline whose sink IS the training branch product: fitting works,
  // but every estimator input stays off the runtime mask even when the
  // branch is deep.
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(3.0))
                  .AndThen(std::make_shared<AddConst>(1.0))
                  .AndThen(std::make_shared<MeanCenterer>(),
                           Doubles({2, 4, 6, 8, 10}));
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  for (const PlannedNode& pn : plan->nodes) {
    if (!pn.train) continue;
    // Train-only nodes may only feed other train-only nodes or the
    // estimator — never a runtime node (RunApply would hit a null dep).
    for (const PlannedNode& other : plan->nodes) {
      if (!other.runtime) continue;
      for (int dep : other.inputs) {
        EXPECT_NE(dep, pn.id)
            << "runtime node " << other.id << " depends on train-only "
            << pn.id;
      }
    }
  }
  // The deep train branch (source + 2 replicated transformers + estimator)
  // is strictly larger than the runtime path (original prefix + apply).
  EXPECT_GT(plan->NumTrainNodes(), plan->NumRuntimeNodes());
}

TEST(ExecContextTest, MakeRequestContextSharesEnvironmentNotLedger) {
  ExecContext ctx(TestCluster());
  obs::MetricsRegistry metrics;
  ctx.set_metrics(&metrics);
  ctx.ledger()->ChargeSeconds("Fit", 5.0);

  obs::TelemetryHub telemetry;
  ctx.set_telemetry(&telemetry);

  auto request_ctx = ctx.MakeRequestContext();
  // The request path emits nothing itself: no sink is carried over.
  EXPECT_EQ(request_ctx->tracer(), nullptr);
  EXPECT_EQ(request_ctx->metrics(), nullptr);
  EXPECT_EQ(request_ctx->profile_store(), nullptr);
  EXPECT_EQ(request_ctx->timeline(), nullptr);
  EXPECT_EQ(request_ctx->telemetry(), nullptr);
  EXPECT_EQ(request_ctx->pool(), ctx.pool());
  EXPECT_EQ(request_ctx->resources().num_nodes, ctx.resources().num_nodes);
  // Fresh per-run state: the parent's charges do not leak in, and the
  // request's charges do not leak back.
  EXPECT_DOUBLE_EQ(request_ctx->ledger()->TotalSeconds(), 0.0);
  request_ctx->ledger()->ChargeSeconds("Serve", 1.5);
  EXPECT_DOUBLE_EQ(ctx.ledger()->TotalSeconds(), 5.0);
}

/// Declared cost, scratch footprint and weight of a test physical option.
struct OptionSpec {
  std::string name;
  double flops = 0.0;
  double scratch_bytes = 0.0;
  int weight = 1;
};

/// `Op` with its name, cost model, scratch footprint and weight replaced
/// by `spec`, so the options of one logical operator differ on each.
template <typename Op>
class SpecOption : public Op {
 public:
  template <typename... Args>
  explicit SpecOption(OptionSpec spec, Args&&... args)
      : Op(std::forward<Args>(args)...), spec_(std::move(spec)) {}

  std::string Name() const override { return spec_.name; }
  CostProfile EstimateCost(const DataStats& in, int workers) const override {
    (void)in;
    (void)workers;
    return CostProfile(spec_.flops, 0, 0);
  }
  double ScratchMemoryBytes(const DataStats& in, int workers) const override {
    (void)in;
    (void)workers;
    return spec_.scratch_bytes;
  }
  int Weight() const override { return spec_.weight; }

 private:
  OptionSpec spec_;
};

TEST(PhysicalPlanTest, ChosenOptionRebindsEveryNodeSharingTheOperator) {
  // An optimizable transformer feeding an optimizable estimator. On the
  // test cluster (122 GB per node) every option fits, so the cheapest
  // wins; with 0.5 GB per node none does, and the smallest footprint wins.
  const std::vector<std::shared_ptr<TransformerBase>> scales = {
      std::make_shared<SpecOption<Scale>>(
          OptionSpec{"ScaleDefault", 1e10, 80e9, 1}, 2.0),
      std::make_shared<SpecOption<Scale>>(
          OptionSpec{"ScaleFast", 1e9, 100e9, 2}, 2.0),
      std::make_shared<SpecOption<Scale>>(
          OptionSpec{"ScaleLean", 1e12, 1e9, 3}, 2.0),
  };
  const std::vector<std::shared_ptr<EstimatorBase>> centerers = {
      std::make_shared<SpecOption<MeanCenterer>>(
          OptionSpec{"CenterSlow", 1e12, 2e9, 4}),
      std::make_shared<SpecOption<MeanCenterer>>(
          OptionSpec{"CenterFast", 1e9, 3e9, 5}),
  };
  auto scale = std::make_shared<OptimizableTransformer>("Scale", scales);
  auto center =
      std::make_shared<OptimizableEstimator>("Centerer", centerers);
  // The logical operators answer as they always have: the default option's
  // cost, no scratch of their own, and only the estimator forwards Weight.
  DataStats stats;
  stats.num_records = 1000;
  stats.dim = 1;
  EXPECT_EQ(scale->EstimateCost(stats, 4).flops, 1e10);
  EXPECT_EQ(scale->ScratchMemoryBytes(stats, 4), 0.0);
  EXPECT_EQ(scale->Weight(), 1);
  EXPECT_EQ(center->Weight(), 4);

  const auto pipe =
      PipelineInput<double>()
          .AndThenLogical<double>(scale)
          .AndThenLogicalEstimator<double>(
              center, Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4), nullptr);
  PhysicalPlan plan =
      LowerToPhysical(std::make_shared<PipelineGraph>(*pipe.graph()),
                      pipe.source(), pipe.sink(), OptimizationConfig::Full(),
                      TestCluster());
  std::vector<int> scale_nodes;
  int center_node = -1;
  for (const PlannedNode& pn : plan.nodes) {
    const OperatorBase* op = plan.graph->node(pn.id).op();
    if (op == scale.get()) scale_nodes.push_back(pn.id);
    if (op == center.get()) center_node = pn.id;
    if (op == nullptr) {
      EXPECT_EQ(plan.NumOptions(pn.id), 0) << "node " << pn.id;
    }
  }
  // The train copy and the runtime copy carry the one Scale instance.
  ASSERT_EQ(scale_nodes.size(), 2u);
  EXPECT_TRUE(plan.nodes[scale_nodes[0]].runtime);
  EXPECT_TRUE(plan.nodes[scale_nodes[1]].train);
  ASSERT_GE(center_node, 0);
  EXPECT_EQ(plan.NumOptions(scale_nodes[0]), 3);
  EXPECT_EQ(plan.NumOptions(center_node), 2);

  const auto expect_scale = [&](size_t option) {
    for (int id : scale_nodes) {
      const PlannedNode& pn = plan.nodes[id];
      EXPECT_TRUE(pn.optimizable) << "node " << id;
      EXPECT_EQ(pn.physical_name, scales[option]->Name()) << "node " << id;
      EXPECT_EQ(pn.weight, scales[option]->Weight()) << "node " << id;
      EXPECT_EQ(pn.physical_transformer, scales[option]) << "node " << id;
      EXPECT_EQ(pn.physical_estimator, nullptr) << "node " << id;
    }
  };
  const auto expect_center = [&](size_t option) {
    const PlannedNode& pn = plan.nodes[center_node];
    EXPECT_TRUE(pn.optimizable);
    EXPECT_EQ(pn.physical_name, centerers[option]->Name());
    EXPECT_EQ(pn.weight, centerers[option]->Weight());
    EXPECT_EQ(pn.physical_estimator, centerers[option]);
    EXPECT_EQ(pn.physical_transformer, nullptr);
  };
  // Lowering resolves the default options.
  expect_scale(0);
  expect_center(0);

  // Everything fits: the cheapest option of each kind wins.
  const PhysicalChoice fast = ChooseOption(*scale, stats, TestCluster());
  EXPECT_EQ(fast.option_index, 1);
  EXPECT_TRUE(fast.feasible);
  plan.SetChosenOption(scale_nodes[1], fast.option_index);
  expect_scale(1);
  expect_center(0);

  const PhysicalChoice fit = ChooseOption(*center, stats, TestCluster());
  EXPECT_EQ(fit.option_index, 1);
  plan.SetChosenOption(center_node, fit.option_index);
  expect_scale(1);
  expect_center(1);

  // Nothing fits: the smallest footprint wins, priced as it was scored.
  ClusterResourceDescriptor small = TestCluster();
  small.memory_per_node_gb = 0.5;
  const PhysicalChoice lean = ChooseOption(*scale, stats, small);
  EXPECT_EQ(lean.option_index, 2);
  EXPECT_FALSE(lean.feasible);
  for (const obs::OptionScore& score : lean.scored) {
    EXPECT_FALSE(score.feasible) << score.name;
  }
  EXPECT_EQ(lean.estimated_seconds, lean.scored[2].estimated_seconds);
  plan.SetChosenOption(scale_nodes[0], lean.option_index);
  expect_scale(2);
  expect_center(1);
}

}  // namespace
}  // namespace keystone
