#ifndef KEYSTONE_ANALYSIS_PLAN_VALIDATOR_H_
#define KEYSTONE_ANALYSIS_PLAN_VALIDATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline_graph.h"
#include "src/optimizer/materialization.h"
#include "src/sim/cost_profile.h"
#include "src/sim/faults/fault_plan.h"

namespace keystone {
namespace analysis {

/// Rule catalogue of the plan validator. Every diagnostic carries one of
/// these stable identifiers; tests and tooling match on them.
namespace rules {
// --- Structural invariants of the operator DAG (Figure 5 node kinds) ----
inline constexpr char kAritySource[] = "arity.source";
inline constexpr char kArityTransformer[] = "arity.transformer";
inline constexpr char kArityEstimator[] = "arity.estimator";
inline constexpr char kArityApplyModel[] = "arity.apply-model";
inline constexpr char kArityGather[] = "arity.gather";
inline constexpr char kEdgeOutOfRange[] = "edge.out-of-range";
inline constexpr char kEdgeForward[] = "edge.forward";
inline constexpr char kModelMissing[] = "model.missing";
inline constexpr char kModelNotEstimator[] = "model.not-estimator";
inline constexpr char kModelOnNonApply[] = "model.on-non-apply";
inline constexpr char kPayloadMissing[] = "payload.missing";
inline constexpr char kDatasetEstimatorOutput[] = "dataset.estimator-output";
// --- Whole-graph rules --------------------------------------------------
inline constexpr char kUnreachable[] = "graph.unreachable";
inline constexpr char kPlaceholderInvalid[] = "placeholder.invalid";
inline constexpr char kPlaceholderUnbound[] = "placeholder.unbound";
inline constexpr char kPlaceholderTrainPath[] = "placeholder.train-path";
inline constexpr char kMissedCse[] = "optimizer.missed-cse";
// --- Materialization-plan rules -----------------------------------------
inline constexpr char kCacheSetSize[] = "cache.set-size";
inline constexpr char kCacheOverBudget[] = "cache.over-budget";
inline constexpr char kCacheDeadNode[] = "cache.dead-node";
inline constexpr char kCacheNotCacheable[] = "cache.not-cacheable";
// --- Cost sanity --------------------------------------------------------
inline constexpr char kCostInvalid[] = "cost.invalid";
inline constexpr char kCostProfile[] = "cost.profile";
// --- Fault-injection config sanity --------------------------------------
inline constexpr char kFaultRate[] = "fault.rate";
inline constexpr char kFaultRetry[] = "fault.retry";
inline constexpr char kFaultStraggler[] = "fault.straggler";
// --- Servable-plan rules (the apply-masked runtime path) ----------------
inline constexpr char kServePlaceholderMissing[] = "serve.placeholder-missing";
inline constexpr char kServeEmptyRuntimePath[] = "serve.empty-runtime-path";
inline constexpr char kServeTrainOnlyTerminal[] = "serve.train-only-terminal";
inline constexpr char kServeTrainDependency[] = "serve.train-dependency";
inline constexpr char kServeUnboundSource[] = "serve.unbound-source";
inline constexpr char kServeEstimatorOnRuntimePath[] =
    "serve.estimator-on-runtime-path";
inline constexpr char kServeModelMissing[] = "serve.model-missing";
// --- Cross-run reuse rules (ReusePass markers / ArtifactCatalog) --------
inline constexpr char kReuseMissingEntry[] = "reuse.missing-entry";
inline constexpr char kReuseFingerprintMismatch[] =
    "reuse.fingerprint-mismatch";
inline constexpr char kReuseStaleGeneration[] = "reuse.stale-generation";
inline constexpr char kReuseBudgetOverflow[] = "reuse.budget-overflow";
inline constexpr char kReusePrunedDemand[] = "reuse.pruned-demand";
}  // namespace rules

/// What the validator knows about the plan beyond the bare graph.
struct PlanValidationOptions {
  /// Sink node the pipeline is demanded at; enables reachability rules
  /// (graph.unreachable) when >= 0.
  int sink = -1;

  /// The pipeline's runtime-input placeholder; enables the fitted-pipeline
  /// placeholder rules (placeholder.invalid / placeholder.unbound) when
  /// >= 0. placeholder.train-path is checked for every placeholder in the
  /// graph regardless.
  int placeholder = -1;

  /// The plan claims to be post-CSE: structurally identical subgraphs that
  /// survived optimization are reported as optimizer.missed-cse warnings.
  /// Only nodes feeding the sink count (CSE leaves merged-away duplicates
  /// in place as dead nodes; those are not "missed").
  bool expect_cse = false;

  /// Emit graph.unreachable warnings for nodes that do not feed the sink.
  /// The executor disables this for post-rewrite plans, where dead
  /// duplicates are the expected residue of CSE.
  bool warn_unreachable = true;
};

/// Static analyzer for pipeline plans: walks a PipelineGraph (pre- or
/// post-rewrite) and emits structured diagnostics for broken invariants.
/// Purely read-only; fail-fast policy is the caller's decision (the
/// executor aborts on kError when OptimizationConfig::validate_plans is
/// set — see PipelineExecutor::FitGraph).
class PlanValidator {
 public:
  PlanValidator() = default;
  explicit PlanValidator(PlanValidationOptions options)
      : options_(options) {}

  /// Structural + whole-graph rules over the operator DAG. Reachability-
  /// based rules are skipped when edge errors were found (traversal over a
  /// graph with dangling edges is undefined).
  ValidationReport Validate(const PipelineGraph& graph) const;

  /// Materialization-plan rules: cache-set shape, memory budget, per-node
  /// runtime-info sanity. Complements Validate (which covers the graph
  /// itself); the two reports are typically merged by the caller.
  ValidationReport ValidatePlan(const MaterializationProblem& problem,
                                const std::vector<bool>& cache_set) const;

  const PlanValidationOptions& options() const { return options_; }

 private:
  PlanValidationOptions options_;
};

/// Appends a cost.profile error to `report` when `cost` contains negative
/// or non-finite FLOPs/bytes/network/rounds. `what` names the profile's
/// origin in the message (e.g. the operator name).
void CheckCostProfile(const CostProfile& cost, int node,
                      const std::string& what, ValidationReport* report);

/// Validates a fault-injection configuration before PlanRunner replays a
/// pass under it: every rate must be a finite probability in [0, 1] (with
/// the two failure kinds summing to at most 1 — they partition one uniform
/// draw), the retry policy must be sane (non-negative retry bound, finite
/// non-negative base backoff, multiplier >= 1), and the straggler model
/// must slow tasks down (multiplier and speculation cap >= 1). Errors use
/// the fault.* rules; wired behind OptimizationConfig::validate_plans.
ValidationReport ValidateFaultConfig(
    const faults::FaultInjectionConfig& config);

/// Validates the servable (apply-masked) view of a compiled plan — the
/// exact node set PlanRunner::RunApply executes per request. Every
/// condition reported here as a serve.* error would otherwise abort inside
/// the runner mid-request:
///  - the plan must carry a runtime placeholder and a non-empty runtime
///    path ending at the sink (no train-only terminals);
///  - every dataset edge consumed on the runtime path must come from the
///    placeholder or another runtime node (train-only intermediates are
///    stripped and unavailable at serve time);
///  - no estimator may sit on the runtime path, and any source or
///    placeholder inside the runtime mask must be the bound runtime input
///    itself, not an unbound stand-in;
///  - with `models` supplied (ServablePipeline validation), every
///    apply-model node must have a fitted model for its estimator.
ValidationReport ValidateServablePlan(
    const PhysicalPlan& plan,
    const std::map<int, std::shared_ptr<TransformerBase>>* models = nullptr);

/// Validates the cross-run reuse markers the ReusePass left on a plan —
/// the plan-only half of the reuse.* rules (the catalog cross-check lives
/// in cache::ValidateReuse, next to the catalog):
///  - only train transformer/gather nodes may carry reused/reuse_pruned
///    (estimators, sources, and placeholders never come from the catalog);
///  - no executing train node may consume a reuse-pruned input — pruning
///    is only sound below a reused node (reuse.pruned-demand).
/// Trivially clean for plans compiled without a catalog.
ValidationReport ValidateReuseMarkers(const PhysicalPlan& plan);

}  // namespace analysis
}  // namespace keystone

#endif  // KEYSTONE_ANALYSIS_PLAN_VALIDATOR_H_
