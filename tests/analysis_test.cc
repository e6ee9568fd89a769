#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/plan_validator.h"
#include "src/analysis/shape_inference.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/core/pipeline_graph.h"
#include "src/data/dist_dataset.h"
#include "src/obs/metrics.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using analysis::Diagnostic;
using analysis::PlanValidationOptions;
using analysis::PlanValidator;
using analysis::Severity;
using analysis::ValidationReport;
using testing_ops::AddConst;
using testing_ops::MeanCenterer;
using testing_ops::Scale;

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values) {
  return DistDataset<double>::Partitioned(std::move(values), 2);
}

/// source -> AddConst -> Scale, the minimal well-formed training chain.
PipelineGraph CleanChain() {
  PipelineGraph graph;
  const int source = graph.AddSource(Doubles({1, 2, 3}), "Data");
  const int add = graph.AddTransformer(std::make_shared<AddConst>(1.0), source);
  graph.AddTransformer(std::make_shared<Scale>(2.0), add);
  return graph;
}

ValidationReport Validate(const PipelineGraph& graph,
                          PlanValidationOptions options = {}) {
  return PlanValidator(options).Validate(graph);
}

// --- Structural rules ------------------------------------------------------

TEST(PlanValidatorTest, CleanGraphHasNoDiagnostics) {
  PlanValidationOptions options;
  options.sink = 2;
  const ValidationReport report = Validate(CleanChain(), options);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(PlanValidatorTest, SourceWithInputsIsAnArityError) {
  PipelineGraph graph = CleanChain();
  graph.mutable_node(1)->kind = NodeKind::kSource;
  graph.mutable_node(1)->bound_data = Doubles({1});
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kAritySource));
  EXPECT_EQ(report.FindRule(analysis::rules::kAritySource)->severity,
            Severity::kError);
  EXPECT_EQ(report.FindRule(analysis::rules::kAritySource)->node, 1);
}

TEST(PlanValidatorTest, TransformerWithTwoInputsIsAnArityError) {
  PipelineGraph graph = CleanChain();
  graph.mutable_node(2)->inputs = {0, 1};
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kArityTransformer));
  EXPECT_FALSE(report.ok());
}

TEST(PlanValidatorTest, EstimatorWithThreeInputsIsAnArityError) {
  PipelineGraph graph = CleanChain();
  const int est = graph.AddEstimator(std::make_shared<MeanCenterer>(), 2, -1);
  graph.mutable_node(est)->inputs = {0, 1, 2};
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kArityEstimator));
}

TEST(PlanValidatorTest, EmptyGatherIsAnArityError) {
  PipelineGraph graph = CleanChain();
  const int gather =
      graph.AddGather(std::make_shared<AddConst>(0.0), {1, 2});
  graph.mutable_node(gather)->inputs = {};
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kArityGather));
}

TEST(PlanValidatorTest, DanglingEdgeIsReported) {
  PipelineGraph graph = CleanChain();
  graph.mutable_node(2)->inputs = {99};
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kEdgeOutOfRange));
  EXPECT_EQ(report.FindRule(analysis::rules::kEdgeOutOfRange)->node, 2);
}

TEST(PlanValidatorTest, ForwardEdgeBreaksTopologicalOrder) {
  PipelineGraph graph = CleanChain();
  graph.mutable_node(1)->inputs = {2};
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kEdgeForward));
  EXPECT_EQ(report.FindRule(analysis::rules::kEdgeForward)->severity,
            Severity::kError);
}

TEST(PlanValidatorTest, MissingPayloadIsReported) {
  PipelineGraph graph = CleanChain();
  graph.mutable_node(1)->transformer = nullptr;
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kPayloadMissing));
}

TEST(PlanValidatorTest, ApplyModelWithoutModelInput) {
  PipelineGraph graph = CleanChain();
  const int est = graph.AddEstimator(std::make_shared<MeanCenterer>(), 2, -1);
  const int apply = graph.AddApplyModel(est, 2);
  graph.mutable_node(apply)->model_input = -1;
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kModelMissing));
}

TEST(PlanValidatorTest, ApplyModelPointingAtNonEstimator) {
  PipelineGraph graph = CleanChain();
  const int est = graph.AddEstimator(std::make_shared<MeanCenterer>(), 2, -1);
  const int apply = graph.AddApplyModel(est, 2);
  graph.mutable_node(apply)->model_input = 1;  // a transformer
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kModelNotEstimator));
}

TEST(PlanValidatorTest, ModelInputOnTransformerIsReported) {
  PipelineGraph graph = CleanChain();
  const int est = graph.AddEstimator(std::make_shared<MeanCenterer>(), 1, -1);
  graph.mutable_node(2)->model_input = est;
  // The validator flags both the misuse and (because model edges come from
  // Dependencies) nothing else.
  ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kModelOnNonApply));
}

TEST(PlanValidatorTest, EstimatorOutputConsumedAsDataset) {
  PipelineGraph graph = CleanChain();
  const int est = graph.AddEstimator(std::make_shared<MeanCenterer>(), 2, -1);
  graph.AddTransformer(std::make_shared<AddConst>(1.0), est);
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kDatasetEstimatorOutput));
  EXPECT_EQ(
      report.FindRule(analysis::rules::kDatasetEstimatorOutput)->severity,
      Severity::kError);
}

// --- Whole-graph rules -----------------------------------------------------

TEST(PlanValidatorTest, UnreachableNodeIsAWarningOnly) {
  PipelineGraph graph = CleanChain();
  graph.AddTransformer(std::make_shared<AddConst>(5.0), 0);  // dead branch
  PlanValidationOptions options;
  options.sink = 2;
  const ValidationReport report = Validate(graph, options);
  ASSERT_TRUE(report.HasRule(analysis::rules::kUnreachable));
  EXPECT_EQ(report.FindRule(analysis::rules::kUnreachable)->severity,
            Severity::kWarning);
  EXPECT_EQ(report.FindRule(analysis::rules::kUnreachable)->node, 3);
  EXPECT_TRUE(report.ok());  // warnings are not fatal
}

TEST(PlanValidatorTest, UnreachableCanBeSuppressed) {
  PipelineGraph graph = CleanChain();
  graph.AddTransformer(std::make_shared<AddConst>(5.0), 0);
  PlanValidationOptions options;
  options.sink = 2;
  options.warn_unreachable = false;
  EXPECT_TRUE(Validate(graph, options).clean());
}

TEST(PlanValidatorTest, EstimatorOnPlaceholderPathIsReported) {
  PipelineGraph graph;
  const int input = graph.AddPlaceholder("Input");
  const int t = graph.AddTransformer(std::make_shared<AddConst>(1.0), input);
  graph.AddEstimator(std::make_shared<MeanCenterer>(), t, -1);
  const ValidationReport report = Validate(graph);
  ASSERT_TRUE(report.HasRule(analysis::rules::kPlaceholderTrainPath));
  EXPECT_EQ(report.FindRule(analysis::rules::kPlaceholderTrainPath)->node, 2);
}

TEST(PlanValidatorTest, DeclaredPlaceholderMustBeAPlaceholder) {
  PipelineGraph graph = CleanChain();
  PlanValidationOptions options;
  options.sink = 2;
  options.placeholder = 0;  // a source, not a placeholder
  const ValidationReport report = Validate(graph, options);
  ASSERT_TRUE(report.HasRule(analysis::rules::kPlaceholderInvalid));
}

TEST(PlanValidatorTest, SecondPlaceholderFeedingSinkIsUnbound) {
  PipelineGraph graph;
  const int a = graph.AddPlaceholder("A");
  const int b = graph.AddPlaceholder("B");
  graph.AddGather(std::make_shared<AddConst>(0.0), {a, b});
  PlanValidationOptions options;
  options.sink = 2;
  options.placeholder = a;
  const ValidationReport report = Validate(graph, options);
  ASSERT_TRUE(report.HasRule(analysis::rules::kPlaceholderUnbound));
  EXPECT_EQ(report.FindRule(analysis::rules::kPlaceholderUnbound)->node, b);
}

TEST(PlanValidatorTest, MissedCseIsAWarningWhenExpected) {
  PipelineGraph graph;
  const int source = graph.AddSource(Doubles({1, 2}), "Data");
  auto op = std::make_shared<AddConst>(1.0);
  const int t1 = graph.AddTransformer(op, source);
  const int t2 = graph.AddTransformer(op, source);  // identical twin
  graph.AddGather(std::make_shared<Scale>(1.0), {t1, t2});
  PlanValidationOptions options;
  options.sink = 3;
  options.expect_cse = true;
  const ValidationReport report = Validate(graph, options);
  ASSERT_TRUE(report.HasRule(analysis::rules::kMissedCse));
  EXPECT_EQ(report.FindRule(analysis::rules::kMissedCse)->severity,
            Severity::kWarning);

  // Dead duplicates left behind by a CSE pass do not count as missed.
  PipelineGraph optimized = graph;
  std::vector<int> remap;
  optimized.EliminateCommonSubexpressions(&remap);
  options.sink = remap[3];
  options.warn_unreachable = false;
  EXPECT_TRUE(Validate(optimized, options).clean());
}

TEST(PlanValidatorTest, StructuralErrorsSuppressTraversalRules) {
  PipelineGraph graph = CleanChain();
  graph.mutable_node(2)->inputs = {99};  // dangling: traversal unsafe
  PlanValidationOptions options;
  options.sink = 2;
  const ValidationReport report = Validate(graph, options);
  EXPECT_TRUE(report.HasRule(analysis::rules::kEdgeOutOfRange));
  EXPECT_FALSE(report.HasRule(analysis::rules::kUnreachable));
}

// --- Materialization-plan rules --------------------------------------------

MaterializationProblem SmallProblem(const PipelineGraph& graph) {
  MaterializationProblem problem;
  problem.graph = &graph;
  problem.resources = ClusterResourceDescriptor::R3_4xlarge(2);
  problem.memory_budget_bytes = 100.0;
  problem.info.resize(graph.size());
  for (auto& info : problem.info) {
    info.live = true;
    info.compute_seconds = 1.0;
    info.output_bytes = 80.0;
  }
  return problem;
}

TEST(PlanValidatorTest, CacheSetSizeMismatch) {
  const PipelineGraph graph = CleanChain();
  const MaterializationProblem problem = SmallProblem(graph);
  const ValidationReport report =
      PlanValidator().ValidatePlan(problem, std::vector<bool>(2, false));
  ASSERT_TRUE(report.HasRule(analysis::rules::kCacheSetSize));
}

TEST(PlanValidatorTest, CacheSetOverBudget) {
  const PipelineGraph graph = CleanChain();
  const MaterializationProblem problem = SmallProblem(graph);
  // Two live 80-byte nodes cached against a 100-byte budget.
  const ValidationReport report =
      PlanValidator().ValidatePlan(problem, {true, true, false});
  ASSERT_TRUE(report.HasRule(analysis::rules::kCacheOverBudget));
  EXPECT_FALSE(report.ok());
}

TEST(PlanValidatorTest, WithinBudgetIsClean) {
  const PipelineGraph graph = CleanChain();
  const MaterializationProblem problem = SmallProblem(graph);
  EXPECT_TRUE(
      PlanValidator().ValidatePlan(problem, {true, false, false}).clean());
}

TEST(PlanValidatorTest, CachedDeadNodeIsAWarning) {
  const PipelineGraph graph = CleanChain();
  MaterializationProblem problem = SmallProblem(graph);
  problem.info[1].live = false;
  const ValidationReport report =
      PlanValidator().ValidatePlan(problem, {false, true, false});
  ASSERT_TRUE(report.HasRule(analysis::rules::kCacheDeadNode));
  EXPECT_TRUE(report.ok());
}

TEST(PlanValidatorTest, CachedUncacheableNodeIsAnError) {
  const PipelineGraph graph = CleanChain();
  MaterializationProblem problem = SmallProblem(graph);
  problem.info[1].cacheable = false;
  const ValidationReport report =
      PlanValidator().ValidatePlan(problem, {false, true, false});
  ASSERT_TRUE(report.HasRule(analysis::rules::kCacheNotCacheable));
}

TEST(PlanValidatorTest, NonFiniteRuntimeInfoIsAnError) {
  const PipelineGraph graph = CleanChain();
  MaterializationProblem problem = SmallProblem(graph);
  problem.info[0].compute_seconds = std::nan("");
  problem.info[1].output_bytes = -1.0;
  problem.info[2].weight = 0;
  const ValidationReport report =
      PlanValidator().ValidatePlan(problem, {false, false, false});
  EXPECT_EQ(report.CountOf(Severity::kError), 3);
  EXPECT_TRUE(report.HasRule(analysis::rules::kCostInvalid));
}

TEST(CheckCostProfileTest, FlagsNegativeAndNaNFields) {
  CostProfile cost;
  cost.flops = std::nan("");
  cost.network = -5.0;
  ValidationReport report;
  analysis::CheckCostProfile(cost, 3, "TestOp", &report);
  EXPECT_EQ(report.CountOf(Severity::kError), 2);
  ASSERT_TRUE(report.HasRule(analysis::rules::kCostProfile));
  EXPECT_EQ(report.FindRule(analysis::rules::kCostProfile)->node, 3);

  ValidationReport clean;
  analysis::CheckCostProfile(CostProfile{}, 0, "TestOp", &clean);
  EXPECT_TRUE(clean.clean());
}

// --- Diagnostics plumbing --------------------------------------------------

TEST(DiagnosticsTest, ReportAggregatesAndPrints) {
  ValidationReport report;
  report.Add(Severity::kError, "rule.a", 1, "broken");
  report.Add(Severity::kWarning, "rule.b", -1, "suspicious");
  EXPECT_EQ(report.errors(), 1);
  EXPECT_EQ(report.warnings(), 1);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.ToString().find("error [rule.a] node 1: broken"),
            std::string::npos);

  ValidationReport other;
  other.Add(Severity::kInfo, "rule.c", 2, "fyi");
  report.Merge(std::move(other));
  EXPECT_EQ(static_cast<int>(report.diagnostics().size()), 3);
  EXPECT_TRUE(report.HasRule("rule.c"));
}

TEST(DiagnosticsTest, RecordDiagnosticsCountsIntoRegistry) {
  ValidationReport report;
  report.Add(Severity::kError, "rule.a", 1, "broken");
  report.Add(Severity::kWarning, "rule.b", -1, "suspicious");
  obs::MetricsRegistry registry;
  analysis::RecordDiagnostics(report, &registry);
  analysis::RecordDiagnostics(report, nullptr);  // no-op, must not crash
  EXPECT_EQ(registry.GetCounter("analysis.validations")->Value(), 1.0);
  EXPECT_EQ(registry.GetCounter("analysis.diagnostics.error")->Value(), 1.0);
  EXPECT_EQ(registry.GetCounter("analysis.diagnostics.warning")->Value(),
            1.0);
}

TEST(DiagnosticsTest, SortBySeverityOrdersErrorsFirstStably) {
  ValidationReport report;
  report.Add(Severity::kInfo, "rule.info-a", 1, "first info");
  report.Add(Severity::kWarning, "rule.warn", 2, "warn");
  report.Add(Severity::kError, "rule.err", 3, "err");
  report.Add(Severity::kInfo, "rule.info-b", 4, "second info");
  report.SortBySeverity();
  const auto& diags = report.diagnostics();
  ASSERT_EQ(diags.size(), 4u);
  EXPECT_EQ(diags[0].rule, "rule.err");
  EXPECT_EQ(diags[1].rule, "rule.warn");
  // Stable within a severity band: evaluation order preserved.
  EXPECT_EQ(diags[2].rule, "rule.info-a");
  EXPECT_EQ(diags[3].rule, "rule.info-b");
}

TEST(DiagnosticsTest, DeduplicateRemovesExactRepeats) {
  ValidationReport report;
  report.Add(Severity::kError, "rule.a", 1, "boom");
  report.Add(Severity::kError, "rule.a", 1, "boom");       // exact repeat
  report.Add(Severity::kError, "rule.a", 2, "boom");       // different node
  report.Add(Severity::kWarning, "rule.a", 1, "boom");     // diff severity
  EXPECT_EQ(report.Deduplicate(), 1);
  EXPECT_EQ(static_cast<int>(report.diagnostics().size()), 3);
}

TEST(DiagnosticsTest, RuleIdFormat) {
  // Stable ids: two or more lowercase dot-separated [a-z0-9_-] segments.
  EXPECT_TRUE(analysis::IsValidRuleId("shape.dim_mismatch"));
  EXPECT_TRUE(analysis::IsValidRuleId("arity.transformer"));
  EXPECT_TRUE(analysis::IsValidRuleId("effect.stateful_on_serving_path"));
  EXPECT_TRUE(analysis::IsValidRuleId("optimizer.missed-cse"));
  EXPECT_TRUE(analysis::IsValidRuleId("a.b.c0"));
  EXPECT_FALSE(analysis::IsValidRuleId(""));
  EXPECT_FALSE(analysis::IsValidRuleId("shape"));
  EXPECT_FALSE(analysis::IsValidRuleId("shape."));
  EXPECT_FALSE(analysis::IsValidRuleId(".dim"));
  EXPECT_FALSE(analysis::IsValidRuleId("shape..dim"));
  EXPECT_FALSE(analysis::IsValidRuleId("Shape.dim"));
  EXPECT_FALSE(analysis::IsValidRuleId("shape.DIM"));
  EXPECT_FALSE(analysis::IsValidRuleId("shape dim"));

  // The dataflow rule catalogue itself must stay well-formed.
  for (const char* rule :
       {analysis::rules::kShapeDimMismatch, analysis::rules::kShapeModelInput,
        analysis::rules::kShapeUnknown, analysis::rules::kCardContradiction,
        analysis::rules::kMemoryFootprint,
        analysis::rules::kEffectStatefulOnParallelPath,
        analysis::rules::kEffectStatefulOnServingPath,
        analysis::rules::kEffectTrainOnlyOnServingPath}) {
    EXPECT_TRUE(analysis::IsValidRuleId(rule)) << rule;
  }
}

TEST(DiagnosticsTest, FixitHintRendersAfterMessage) {
  ValidationReport report;
  report.Add(Severity::kError, "shape.dim_mismatch", 3,
             "input vector[8] does not satisfy vector[4]",
             "insert Reshape(vector[8]->vector[4]) before node 3");
  ASSERT_EQ(report.diagnostics().size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].ToString(),
            "error [shape.dim_mismatch] node 3: input vector[8] does not "
            "satisfy vector[4]; fixit: insert Reshape(vector[8]->vector[4]) "
            "before node 3");
  // Without a hint, no fixit suffix is rendered.
  ValidationReport plain;
  plain.Add(Severity::kWarning, "rule.b", -1, "suspicious");
  EXPECT_EQ(plain.diagnostics()[0].ToString(),
            "warning [rule.b]: suspicious");
}

TEST(DiagnosticsTest, SuppressionBaselineRoundTrip) {
  const std::string text =
      "# grandfathered violations\n"
      "\n"
      "voc memory.footprint\n"
      "amazon shape.dim_mismatch\n";
  const analysis::SuppressionBaseline baseline =
      analysis::SuppressionBaseline::Parse(text);
  EXPECT_EQ(baseline.size(), 2u);
  EXPECT_TRUE(baseline.IsSuppressed("amazon", "shape.dim_mismatch"));
  EXPECT_TRUE(baseline.IsSuppressed("voc", "memory.footprint"));
  EXPECT_FALSE(baseline.IsSuppressed("timit", "shape.dim_mismatch"));
  EXPECT_FALSE(baseline.IsSuppressed("amazon", "memory.footprint"));

  // Serialize -> Parse is the identity on the canonical form.
  const std::string canonical = baseline.Serialize();
  EXPECT_EQ(analysis::SuppressionBaseline::Parse(canonical).Serialize(),
            canonical);

  // Filter drops suppressed diagnostics for the matching scope only.
  ValidationReport report;
  report.Add(Severity::kError, "shape.dim_mismatch", 3, "boom");
  report.Add(Severity::kError, "card.contradiction", 4, "boom");
  const ValidationReport amazon = baseline.Filter("amazon", report);
  EXPECT_FALSE(amazon.HasRule("shape.dim_mismatch"));
  EXPECT_TRUE(amazon.HasRule("card.contradiction"));
  const ValidationReport timit = baseline.Filter("timit", report);
  EXPECT_TRUE(timit.HasRule("shape.dim_mismatch"));
  EXPECT_TRUE(timit.HasRule("card.contradiction"));
}

// --- Dataflow inference ----------------------------------------------------

std::shared_ptr<PhysicalPlan> CompileUnchecked(const PipelineGraph& graph,
                                               int placeholder, int sink) {
  OptimizationConfig config = OptimizationConfig::Full();
  config.validate_plans = false;  // deliberately ill-shaped plans compile
  PipelineExecutor executor(ClusterResourceDescriptor::R3_4xlarge(2), config);
  return executor.Compile(graph, placeholder, sink);
}

TEST(DataflowTest, DimMismatchProducesFixit) {
  PipelineGraph graph;
  const int ph = graph.AddPlaceholder("Input");
  const int a = graph.AddTransformer(
      std::make_shared<testing_ops::FixedDimMap>(8, 4), ph);
  const int b = graph.AddTransformer(
      std::make_shared<testing_ops::FixedDimMap>(6, 2), a);
  const auto plan = CompileUnchecked(graph, ph, b);
  const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
  const ValidationReport report = analysis::CheckDataflow(*plan, flow);
  ASSERT_TRUE(report.HasRule(analysis::rules::kShapeDimMismatch))
      << report.ToString();
  const Diagnostic* diag =
      report.FindRule(analysis::rules::kShapeDimMismatch);
  EXPECT_EQ(diag->severity, Severity::kError);
  EXPECT_NE(diag->fixit.find("Reshape(vector[4]->vector[6])"),
            std::string::npos)
      << diag->ToString();
  // The placeholder mirrors its consumer's declared requirement.
  EXPECT_EQ(flow.at(ph).shape.ToString(), "vector[8]");
}

TEST(DataflowTest, StatefulOnParallelAndServingPathsIsReported) {
  PipelineGraph graph;
  const int ph = graph.AddPlaceholder("Input");
  const int stateful = graph.AddTransformer(
      std::make_shared<testing_ops::StatefulCounter>(), ph);
  const int pure = graph.AddTransformer(std::make_shared<Scale>(2.0), ph);
  const int gather = graph.AddGather(
      std::make_shared<GatherTransformer<double>>(), {stateful, pure});
  const auto plan = CompileUnchecked(graph, ph, gather);
  const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
  const ValidationReport report = analysis::CheckDataflow(*plan, flow);
  ASSERT_TRUE(
      report.HasRule(analysis::rules::kEffectStatefulOnParallelPath))
      << report.ToString();
  const Diagnostic* parallel =
      report.FindRule(analysis::rules::kEffectStatefulOnParallelPath);
  EXPECT_EQ(parallel->severity, Severity::kError);
  EXPECT_EQ(parallel->node, stateful);
  EXPECT_FALSE(parallel->fixit.empty());
  // The same node sits on the serving path, so that rule fires too — and
  // only for the stateful branch, never the pure one.
  ASSERT_TRUE(report.HasRule(analysis::rules::kEffectStatefulOnServingPath));
  for (const Diagnostic& diag : report.diagnostics()) {
    EXPECT_NE(diag.node, pure) << diag.ToString();
  }
}

TEST(DataflowTest, CleanChainInfersConcreteShapesAndPureEffects) {
  PipelineGraph graph;
  const int ph = graph.AddPlaceholder("Input");
  const int a = graph.AddTransformer(
      std::make_shared<testing_ops::FixedDimMap>(8, 4), ph);
  const int b = graph.AddTransformer(
      std::make_shared<testing_ops::FixedDimMap>(4, 2), a);
  const auto plan = CompileUnchecked(graph, ph, b);
  const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
  EXPECT_TRUE(analysis::CheckDataflow(*plan, flow).ok());
  EXPECT_EQ(flow.at(a).shape.ToString(), "vector[4]");
  EXPECT_EQ(flow.at(b).shape.ToString(), "vector[2]");
  EXPECT_EQ(flow.at(b).effect, EffectClass::kPure);
}

// --- Executor integration --------------------------------------------------

TEST(ExecutorValidationTest, FitRejectsIllFormedPlan) {
  // The executor starts the kernel pool's workers; a forked death-test
  // child of a threaded process can block on a lock a worker held, so the
  // child re-runs the test from a fresh exec instead.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto pipe = PipelineInput<double>("Input")
                  .AndThen(std::make_shared<AddConst>(1.0))
                  .AndThen(std::make_shared<MeanCenterer>(), Doubles({1, 2}));
  // Corrupt the graph behind the typed facade: dangling edge on the sink.
  pipe.graph()->mutable_node(pipe.sink())->inputs = {999};
  PipelineExecutor executor(ClusterResourceDescriptor::R3_4xlarge(2),
                            OptimizationConfig::Full());
  EXPECT_DEATH(executor.Fit(pipe), "failed validation");
}

TEST(ExecutorValidationTest, FitRecordsValidationMetrics) {
  auto pipe = PipelineInput<double>("Input")
                  .AndThen(std::make_shared<AddConst>(1.0))
                  .AndThen(std::make_shared<MeanCenterer>(), Doubles({1, 2}));
  PipelineExecutor executor(ClusterResourceDescriptor::R3_4xlarge(2),
                            OptimizationConfig::Full());
  const double before = obs::MetricsRegistry::Global()
                            .GetCounter("analysis.validations")
                            ->Value();
  auto fitted = executor.Fit(pipe);
  const double after = obs::MetricsRegistry::Global()
                           .GetCounter("analysis.validations")
                           ->Value();
  // Pre-lowering validation of the submitted graph, the post-lowering
  // dataflow check, plus one validation after each of the five optimizer
  // passes (cse, profile-select, reuse, materialization, fusion).
  EXPECT_EQ(after - before, 7.0);
}

TEST(ExecutorValidationTest, ValidationCanBeDisabled) {
  auto pipe = PipelineInput<double>("Input")
                  .AndThen(std::make_shared<AddConst>(1.0))
                  .AndThen(std::make_shared<MeanCenterer>(), Doubles({1, 2}));
  OptimizationConfig config = OptimizationConfig::Full();
  config.validate_plans = false;
  PipelineExecutor executor(ClusterResourceDescriptor::R3_4xlarge(2), config);
  const double before = obs::MetricsRegistry::Global()
                            .GetCounter("analysis.validations")
                            ->Value();
  auto fitted = executor.Fit(pipe);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("analysis.validations")
                ->Value(),
            before);
}

// --- Shipped workloads lint clean ------------------------------------------

template <typename A, typename B>
void ExpectLintClean(const char* name, const Pipeline<A, B>& pipe) {
  PlanValidationOptions options;
  options.sink = pipe.sink();
  options.placeholder = pipe.source();
  const ValidationReport report =
      PlanValidator(options).Validate(*pipe.graph());
  EXPECT_TRUE(report.clean()) << name << ":\n" << report.ToString();
}

TEST(WorkloadLintTest, AllShippedPipelinesAreClean) {
  using namespace workloads;
  LinearSolverConfig solver;
  solver.num_classes = 2;
  const TextCorpus amazon = AmazonLike(32, 8, 10, 200, 7);
  ExpectLintClean("amazon", BuildAmazonPipeline(amazon, 256, solver));

  LinearSolverConfig dense_solver;
  dense_solver.num_classes = 3;
  const DenseCorpus timit = DenseClasses(32, 8, 16, 3, 1.0, 7);
  ExpectLintClean("timit",
                  BuildTimitPipeline(timit, 2, 8, 0.5, dense_solver, 7));

  const ImageCorpus images = TexturedImages(8, 4, 32, 1, 3, 0.1, 7);
  ExpectLintClean("voc", BuildVocPipeline(images, 4, 8, 4, dense_solver));
  ExpectLintClean("imagenet",
                  BuildImageNetPipeline(images, 4, 8, 4, dense_solver));
  ExpectLintClean("cifar",
                  BuildCifarPipeline(images, 5, 3, 8, dense_solver));

  const DenseCorpus youtube = DenseClasses(32, 8, 16, 3, 1.0, 7);
  ExpectLintClean("youtube", BuildYoutubePipeline(youtube, dense_solver));
}

TEST(WorkloadLintTest, ShippedImageNetIsServableWithFittedModels) {
  // Regression: PCA fits min(k, d) components, but its static output shape
  // declared k columns. The shipped config's pca_k = 8 exceeds the LCS
  // branch's 2 x channels = 2 width, so the fitted models failed
  // shape.model_input at Apply(GMM) and Apply(LinearSolver) — the check
  // ServablePipeline runs before serving.
  using namespace workloads;
  LinearSolverConfig dense_solver;
  dense_solver.num_classes = 3;
  const ImageCorpus images = TexturedImages(8, 4, 32, 1, 3, 0.1, 7);
  auto pipe = BuildImageNetPipeline(images, 4, 8, 4, dense_solver);
  PipelineExecutor executor(ClusterResourceDescriptor::R3_4xlarge(4),
                            OptimizationConfig::Full());
  auto fitted = executor.Fit(pipe);
  const ValidationReport report = analysis::ValidateServablePlan(
      fitted.impl().plan(), &fitted.impl().models());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace keystone
