#ifndef KEYSTONE_ANALYSIS_DATAFLOW_H_
#define KEYSTONE_ANALYSIS_DATAFLOW_H_

// Plan-level consumers of the static dataflow pass (shape_inference.h):
// the shape.* / card.* / memory.* / effect.* rule checks, plan annotation
// (PlannedNode::inferred_* fields), the fusibility report fed to the
// optimizer decision log, and the statically seeded per-record serving cost
// the admission predictor uses as its prior.

#include <map>
#include <memory>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/shape_inference.h"
#include "src/core/physical_plan.h"

namespace keystone {
namespace analysis {

/// Rule catalogue of the dataflow checker (extends the PlanValidator
/// catalogue in plan_validator.h; same stability contract).
namespace rules {
// --- Shape/type lattice rules -------------------------------------------
inline constexpr char kShapeDimMismatch[] = "shape.dim_mismatch";
inline constexpr char kShapeModelInput[] = "shape.model_input";
inline constexpr char kShapeUnknown[] = "shape.unknown";
// --- Cardinality rules --------------------------------------------------
inline constexpr char kCardContradiction[] = "card.contradiction";
// --- Memory-footprint rules ---------------------------------------------
inline constexpr char kMemoryFootprint[] = "memory.footprint";
// --- Effect-placement rules ---------------------------------------------
inline constexpr char kEffectStatefulOnParallelPath[] =
    "effect.stateful_on_parallel_path";
inline constexpr char kEffectStatefulOnServingPath[] =
    "effect.stateful_on_serving_path";
inline constexpr char kEffectTrainOnlyOnServingPath[] =
    "effect.train_only_on_serving_path";
// --- Fused-region well-formedness rules ---------------------------------
inline constexpr char kFusionStructure[] = "fusion.structure";
inline constexpr char kFusionEffect[] = "fusion.effect";
inline constexpr char kFusionShape[] = "fusion.shape";
inline constexpr char kFusionMask[] = "fusion.mask";
inline constexpr char kFusionCachedInterior[] = "fusion.cached_interior";
}  // namespace rules

/// Runs the plan-level dataflow rules over an inference result and returns
/// them merged with the propagation diagnostics already in `flow.report`:
///  - shape.unknown (info): a live node no transfer function covers;
///  - memory.footprint (warning): a cached node whose statically inferred
///    footprint (bytes-per-record x full-scale records) exceeds the plan's
///    cache budget;
///  - effect.stateful_on_serving_path / effect.stateful_on_parallel_path /
///    effect.train_only_on_serving_path (errors): effect classes placed
///    where replay or concurrency would break them.
ValidationReport CheckDataflow(const PhysicalPlan& plan,
                               const DataflowResult& flow);

/// The serving-path effect rules for runtime node `pn` whose effect class
/// is `effect`: effect.stateful_on_serving_path or
/// effect.train_only_on_serving_path (errors), since such a node would
/// replay differently, or not at all, per request. Shared by CheckDataflow
/// and ValidateServablePlan.
void CheckServingEffect(const PlannedNode& pn, EffectClass effect,
                        ValidationReport* report);

/// Copies the inference result onto the plan's nodes (the
/// PlannedNode::inferred_* fields, gated by dataflow_annotated), making the
/// facts visible to plan_dump/explain and the serving-cost prior.
void AnnotatePlan(PhysicalPlan* plan, const DataflowResult& flow);

/// A maximal chain of single-input pure / seeded-deterministic row-wise
/// operators with statically compatible shapes — the plan's loop-fusion
/// candidates. Chains never mix the train and runtime masks.
struct FusibleChain {
  std::vector<int> nodes;  // plan node ids, upstream first
  bool runtime = false;    // the chain lies on the serving path
};

std::vector<FusibleChain> FusibleChains(const PhysicalPlan& plan,
                                        const DataflowResult& flow);

/// Well-formedness check over the plan's fused regions (FusionPass output),
/// the fusion.* rules:
///  - fusion.structure (error): a region with fewer than two members, a
///    member that is not a live single-input transformer/apply-model node,
///    a non-head member that does not consume its predecessor, or an
///    interior member with a consumer outside the region;
///  - fusion.effect (error): a member that is neither pure nor
///    seeded-deterministic;
///  - fusion.shape (error): a member without a concrete inferred shape;
///  - fusion.mask (error): members straddling the train/runtime masks or
///    disagreeing with the region's recorded mask;
///  - fusion.cached_interior (error): an interior member in the cache set
///    (its output would never be materialized to reuse).
ValidationReport ValidateFusedRegions(const PhysicalPlan& plan,
                                      const DataflowResult& flow);

/// Records every fusible chain into the plan's optimizer decision log
/// (obs::FusionCandidate entries).
void RecordFusibility(const PhysicalPlan& plan, const DataflowResult& flow);

/// Statically predicted virtual seconds per record for the plan's runtime
/// (serving) path: each runtime node's cost model evaluated at a one-record
/// input described by the plan's dataflow annotations, priced under the
/// plan's cluster descriptor — the same charging rule PlanRunner applies.
/// Requires an annotated plan (AnnotatePlan) and the fitted model map;
/// returns a negative value when the plan is unannotated or has no runtime
/// path, in which case the admission predictor falls back to its
/// observe-then-EWMA cold start.
double StaticServingSecondsPerRecord(
    const PhysicalPlan& plan,
    const std::map<int, std::shared_ptr<TransformerBase>>& models);

}  // namespace analysis
}  // namespace keystone

#endif  // KEYSTONE_ANALYSIS_DATAFLOW_H_
