#ifndef KEYSTONE_CORE_PLAN_RUNNER_H_
#define KEYSTONE_CORE_PLAN_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/exec_context.h"
#include "src/core/physical_plan.h"
#include "src/data/data_stats.h"
#include "src/data/dist_dataset.h"
#include "src/obs/trace.h"
#include "src/sim/faults/recovery.h"

namespace keystone {

/// Invoked by profile-mode runs for optimizable nodes whose option has not
/// been chosen yet, immediately before the node executes. `in_stats`
/// describes the sampled input actually flowing into the node; the hook
/// typically scales it to full cardinality, scores the options, and calls
/// PhysicalPlan::SetChosenOption (operator selection, §3).
using SelectHook = std::function<void(int id, const DataStats& in_stats)>;

/// What one Run produced, for the executor's accounting.
struct RunResult {
  /// Fitted models keyed by estimator node id (fit mode; sample models in
  /// profile modes, where estimators charged from FitCostAny without
  /// fitting have none).
  std::map<int, std::shared_ptr<TransformerBase>> models;
  /// Per-node modeled virtual seconds of this pass, indexed by node id.
  std::vector<double> node_seconds;
  /// Per-node output statistics, indexed by node id (estimators: empty —
  /// their output is a model).
  std::vector<DataStats> out_stats;
  /// Per-node fault-recovery virtual seconds charged to the "Recovery"
  /// ledger stage, indexed by node id. All zero unless the ExecContext
  /// carries an enabled FaultPlan.
  std::vector<double> recovery_seconds;
};

/// The single execution engine for PhysicalPlans. Every mode — the two
/// sampling passes (§4.1), the full-scale training pass, and
/// fitted-pipeline apply — runs the same per-node body through the same
/// instrumentation point: one trace span, one metrics update, and one
/// profile-store observation per node execution.
///
/// The calling thread runs ready nodes itself; in fit and apply it hands
/// extra ready nodes to helpers on the context's ThreadPool (first ready,
/// first run), so branches run concurrently on a pool of more than one
/// thread. A one-thread pool and every profile pass run in id order on the
/// calling thread. Virtual seconds come per node from the pure cost model,
/// and all observable effects — trace spans, ledger charges, metrics,
/// store writes — are buffered per node and flushed in node-id order after
/// the pass, so every pool size gives bit-identical results.
class PlanRunner {
 public:
  PlanRunner(PhysicalPlan* plan, ExecContext* ctx);

  /// Executes the training path in `mode` (profile-small / profile-large /
  /// fit). `select` fires per unchosen optimizable node in profile modes.
  RunResult Run(ExecMode mode, const SelectHook& select = nullptr);

  /// Executes the runtime path on `input`, charging each node to the
  /// "Eval" ledger stage. `models` supplies the fitted models for
  /// apply-model nodes. Returns the sink's output.
  AnyDataset RunApply(
      const AnyDataset& input,
      const std::map<int, std::shared_ptr<TransformerBase>>& models);

  /// Emits one synthetic trace span per train node for a profile phase
  /// that was skipped (reuse_stored_profiles), reconstructed from the
  /// plan's ProfileEntry, so plan reports and metrics do not silently omit
  /// those nodes.
  void EmitSyntheticProfileSpans(ExecMode mode);

 private:
  /// Everything one node execution produced, buffered so effects can be
  /// flushed deterministically in node-id order after the pass.
  struct NodeOutcome {
    bool executed = false;
    obs::TraceSpan span;
    DataStats in_stats;   // input stats at the scale the kernel ran
    DataStats out_stats;  // output stats (estimators: default)
    bool record_observation = false;
    std::string op_name;  // physical operator name (store key)
    double seconds = 0.0;  // modeled virtual seconds of this execution
    /// The cost profile `seconds` was modeled from (apply mode charges it
    /// to the "Eval" ledger stage); also the ResourceTimeline's
    /// per-resource split. Sources have none — they occupy disk directly.
    CostProfile charge_cost;
    size_t sample_records = 0;  // profile modes: records that flowed
    /// Fused-region accounting, set on the region head's outcome only and
    /// emitted as exec.fused.* metrics during the id-ordered flush (so the
    /// emission order is identical for every schedule).
    int fused_members = 0;
    double fused_bytes_avoided = 0.0;    // interior outputs never materialized
    double fused_chunk_peak_bytes = 0.0; // max resident bytes across chunks
    /// Fault-injection replay of this execution (empty without a plan).
    /// Computed during the serial, id-ordered flush so the draws and the
    /// lineage costs they price are identical for every schedule.
    faults::FaultOutcome fault;
  };

  void ExecuteNode(int id);
  void FlushOutcome(int id);

  /// Marks node `id` executed and stamps its span's identity (id, name,
  /// kind, phase).
  NodeOutcome& BeginOutcome(int id);

  /// The transformer node `pn` applies: its physical operator, or for an
  /// apply-model node the model fitted for it (null when there is none).
  std::shared_ptr<TransformerBase> TransformerFor(const PlannedNode& pn) const;

  /// Records `op` as the operator executing `pn`. The span shows the
  /// optimizer's physical choice on the training path and the operator's
  /// own name for fitted models and on the runtime path.
  void NameOperator(const PlannedNode& pn, const OperatorBase& op,
                    NodeOutcome* out) const;

  /// The single invoke → time → charge path of operator nodes. Times
  /// `invoke` — the operator call, returning the cost it reported, if any —
  /// into the span, then charges `out` from that cost or, without one, from
  /// span.predicted. The cost is a return value, so a report can never be
  /// charged to another node, whichever thread ran it.
  template <typename Invoke>
  void InvokeAndCharge(NodeOutcome* out, const DataStats& in_stats,
                       double scale, Invoke invoke);

  /// Streams cache-resident chunks through the region's members — the
  /// head's ApplySlice reads its input in place, every later member's
  /// ApplyChunk consumes its predecessor's chunk — materializing only the
  /// tail output (fit and apply modes; ExecuteNode never calls it in the
  /// profile passes). Fills each member's NodeOutcome so the flushed
  /// effects are byte-identical to unfused whole-dataset execution.
  /// Returns false — leaving all outcomes untouched — when the region
  /// cannot stream (no partitions to stream, or an operator without chunked
  /// apply), in which case the caller executes members node by node.
  bool TryExecuteFusedRegion(const FusedRegion& region);

  /// Virtual seconds to re-produce node `id`'s output during recovery:
  /// a cache read when the output is materialized and `respect_cache`
  /// holds, else the node's own seconds plus its inputs' chains.
  double RecomputeChainSeconds(int id, bool respect_cache) const;

  /// Replays outcome `id` under the context's fault plan (no-op without
  /// one) and routes the priced recovery into ledger, metrics, timeline,
  /// trace, and the plan's decision log. Called from FlushOutcome.
  void SimulateFaults(int id);

  /// Executes `exec_ids` in dependency order, as described on the class.
  void Schedule(const std::vector<int>& exec_ids);

  /// One pass over `exec_ids` in the current mode: reset the per-run
  /// vectors (the placeholder holds `runtime_input`), schedule, flush in id
  /// order, tick telemetry.
  void RunPass(const std::vector<int>& exec_ids,
               const AnyDataset& runtime_input);

  bool InProfileMode() const {
    return mode_ == ExecMode::kProfileSmall ||
           mode_ == ExecMode::kProfileLarge;
  }
  size_t SampleSize() const {
    return mode_ == ExecMode::kProfileSmall
               ? OptimizationConfig::kProfileSampleSmall
               : OptimizationConfig::kProfileSampleLarge;
  }

  PhysicalPlan* plan_;
  ExecContext* ctx_;

  // Per-run state; indexed by node id. A node body writes only its own
  // node's slots, and cross-thread visibility is ordered by the
  // scheduler's ready-set mutex.
  ExecMode mode_ = ExecMode::kFit;
  SelectHook select_;
  /// Fit mode with an ArtifactCatalog: nodes whose output is published into
  /// the catalog during the id-ordered flush (pure-lineage transformers and
  /// gathers the ReusePass did not already rewrite). Empty otherwise.
  std::vector<bool> catalog_publish_;
  /// Profile modes: terminal estimators, i.e. train estimators no train
  /// node consumes. Their sample model is never read, so they are charged
  /// from FitCostAny without fitting wherever it has a cost. All false in
  /// fit mode.
  std::vector<bool> cost_only_;
  std::vector<AnyDataset> outputs_;
  std::vector<std::shared_ptr<TransformerBase>> models_;
  std::vector<NodeOutcome> outcomes_;
  const std::map<int, std::shared_ptr<TransformerBase>>* apply_models_ =
      nullptr;
};

}  // namespace keystone

#endif  // KEYSTONE_CORE_PLAN_RUNNER_H_
