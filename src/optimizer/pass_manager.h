#ifndef KEYSTONE_OPTIMIZER_PASS_MANAGER_H_
#define KEYSTONE_OPTIMIZER_PASS_MANAGER_H_

#include <memory>
#include <vector>

#include "src/core/exec_context.h"
#include "src/core/physical_plan.h"

namespace keystone {

/// Ambient state passes run against: the execution context supplies the
/// cluster description, observability sinks, and — for the profiling pass —
/// the worker pool the sampling kernels run on.
struct PassContext {
  ExecContext* ctx = nullptr;
};

/// One rewrite over the PhysicalPlan IR. Passes mutate the plan in place;
/// the manager re-validates the plan after every pass (src/analysis), so a
/// pass that breaks an invariant is caught before the next one runs.
class PlanPass {
 public:
  virtual ~PlanPass() = default;
  virtual const char* name() const = 0;
  virtual void Run(PhysicalPlan* plan, PassContext* pctx) = 0;
};

/// Runs registered passes in order over a PhysicalPlan. After every pass
/// (not just at the end) the plan validator re-checks the rewritten graph —
/// and, once the materialization pass has built it, the cache plan — under
/// OptimizationConfig::validate_plans; diagnostics are counted into the
/// context's MetricsRegistry and any error aborts compilation. The caller
/// is expected to have validated the *submitted* graph before lowering
/// (PipelineExecutor::Compile does), since lowering itself assumes a
/// well-formed DAG.
class PassManager {
 public:
  void AddPass(std::unique_ptr<PlanPass> pass);
  void Run(PhysicalPlan* plan, PassContext* pctx);
  size_t NumPasses() const { return passes_.size(); }

 private:
  std::vector<std::unique_ptr<PlanPass>> passes_;
};

/// Common sub-expression elimination (§4.2): merges structurally identical
/// subgraphs in the underlying graph, remaps sink/placeholder, and
/// re-lowers the node table. No-op unless
/// OptimizationConfig::common_subexpression.
class CsePass : public PlanPass {
 public:
  const char* name() const override { return "cse"; }
  void Run(PhysicalPlan* plan, PassContext* pctx) override;
};

/// Execution subsampling + per-operator selection (§3, §4.1): runs the
/// large then small sampling passes through PlanRunner, choosing physical
/// implementations for Optimizable operators on the way — or, under
/// reuse_stored_profiles with full store coverage, reconstructs the
/// profiles and choices from the ProfileStore and emits synthetic
/// profile-phase spans instead of sampling. No-op unless operator selection
/// or cache planning needs a profile.
class ProfileAndSelectPass : public PlanPass {
 public:
  const char* name() const override { return "profile-select"; }
  void Run(PhysicalPlan* plan, PassContext* pctx) override;
};

/// Cross-run reuse (the Helix-style rewrite): whenever the context carries
/// an ArtifactCatalog, at every optimization level, matches train
/// transformer/gather nodes whose lineage fingerprint has a catalog
/// entry, prices catalog load against recompute (the node plus every
/// upstream node the rewrite would leave undemanded), and rewrites winners
/// into catalog reads — marking the node `reused` and the undemanded chain
/// `reuse_pruned`. Every catalog match gets an accept/reject ReuseDecision
/// in the plan's decision log. Runs after profiling (so recompute costs are
/// profile-extrapolated when available) and before materialization (so the
/// cache planner prices reused nodes as loads and skips pruned ones).
class ReusePass : public PlanPass {
 public:
  const char* name() const override { return "reuse"; }
  void Run(PhysicalPlan* plan, PassContext* pctx) override;
};

/// Materialization planning (§4.3): extrapolates the profile to full scale,
/// builds the MaterializationProblem, and selects the cache set under the
/// configured policy and memory budget. Always computes the budget; the
/// cache set stays empty for policies without an up-front plan
/// (none/rule-based/LRU).
class MaterializationPass : public PlanPass {
 public:
  const char* name() const override { return "materialization"; }
  void Run(PhysicalPlan* plan, PassContext* pctx) override;
};

/// Operator fusion (the SystemML-style codegen pass, Boehm et al. 2018):
/// re-runs the dataflow inference, records the fusible chains as
/// FusionCandidates, then — under OptimizationConfig::operator_fusion —
/// turns each candidate into fused regions the runner streams chunk-wise,
/// splitting at cached interiors, non-chunkable operators, and train-path
/// apply-model members whose model is not yet fitted at the region head.
/// Every candidate (segment) gets a FusionDecision: an accepted region with
/// its cost-modeled savings (avoided intermediate materialization priced as
/// a memory write + read per interior edge) or a rejection with the reason.
/// Runs last; it never rewrites the graph, only annotates the plan.
class FusionPass : public PlanPass {
 public:
  const char* name() const override { return "fusion"; }
  void Run(PhysicalPlan* plan, PassContext* pctx) override;
};

/// Registers the standard compilation sequence: CSE, profile + operator
/// selection, cross-run reuse, materialization planning, operator fusion.
void RegisterStandardPasses(PassManager* manager);

/// Fills every train node's full-scale estimates (est_seconds,
/// est_output_bytes) by linearly extrapolating its two-point sampling
/// profile (§5.4). Idempotent; shared by ReusePass (which needs recompute
/// costs before materialization runs) and MaterializationPass.
void ExtrapolateNodeEstimates(PhysicalPlan* plan);

}  // namespace keystone

#endif  // KEYSTONE_OPTIMIZER_PASS_MANAGER_H_
