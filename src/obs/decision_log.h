#ifndef KEYSTONE_OBS_DECISION_LOG_H_
#define KEYSTONE_OBS_DECISION_LOG_H_

// Structured provenance for every decision the optimizer passes make while
// compiling a PhysicalPlan: which physical implementation won a node and by
// what margin, which nodes CSE merged, and the full iteration ledger of the
// greedy materialization algorithm (paper Algorithm 1). Nodes are referred
// to by plan node id and structural fingerprint only, so this layer stays
// independent of src/core (same rule as the tracer).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/sim/cost_profile.h"

namespace keystone {
namespace obs {

/// One scored physical alternative considered for an optimizable node.
struct OptionScore {
  int option_index = -1;
  std::string name;              // physical operator name
  CostProfile cost;              // estimated (or history-corrected) cost
  double estimated_seconds = 0;  // cost under the cluster descriptor
  double scratch_bytes = 0;      // per-node scratch demand
  bool feasible = true;          // scratch fits node memory
  bool from_history = false;     // cost rescaled from ProfileStore history
};

/// The outcome of physical selection for one node: every alternative with
/// its score, the winner, and the winner's margin over the runner-up
/// (relative: runner_up/winner - 1; 0 when there is no feasible runner-up).
struct SelectionDecision {
  int node_id = -1;
  std::string node_name;
  std::string fingerprint;
  int chosen_option = -1;
  double chosen_seconds = 0;
  double margin = 0;
  bool from_store = false;  // decision replayed from persisted profiles
  std::vector<OptionScore> options;
};

/// One CSE merge group: the surviving node and the duplicates folded into it.
struct CseMergeGroup {
  int survivor = -1;
  std::string fingerprint;
  std::vector<int> merged;  // logical ids eliminated in favor of `survivor`
};

/// One candidate considered during a greedy materialization iteration.
struct MaterializationCandidate {
  int node_id = -1;
  double output_bytes = 0;
  bool fits = false;               // output fits the remaining budget
  bool evaluated = false;          // runtime_if_cached/benefit are meaningful
  double runtime_if_cached = 0;    // estimated runtime with this node cached
  double benefit_seconds = 0;      // runtime_before - runtime_if_cached
};

/// One iteration of greedy materialization: the candidate set with scores,
/// the node chosen (or -1 when the loop terminates), and the budget state.
struct MaterializationStep {
  int iteration = 0;
  double budget_before = 0;
  double runtime_before = 0;
  int chosen = -1;
  double benefit_seconds = 0;
  double remaining_budget = 0;
  std::vector<MaterializationCandidate> candidates;
};

/// One fault-recovery decision the runner took under a FaultPlan: what kind
/// of fault hit the node, which attempt, and whether recovery re-read the
/// materialized inputs from cache or paid lineage recompute — the
/// interaction the materialization pass prices via expected_fault_rate.
struct RecoveryDecision {
  int node_id = -1;
  std::string node_name;
  std::string kind;  // task-failure / executor-loss / straggler
  int attempt = 0;
  bool cache_recovery = false;  // inputs re-read from cache (vs lineage)
  double wasted_seconds = 0;    // partial work lost with the attempt
  double backoff_seconds = 0;   // retry scheduling delay
  double recovery_seconds = 0;  // input re-acquisition / straggler time
};

/// One statically detected fusion candidate: a maximal chain of pure /
/// seeded-deterministic single-consumer row-wise operators with compatible
/// inferred shapes (src/analysis/dataflow.h). The FusionPass consumes these
/// and records a FusionDecision per candidate (or candidate segment).
struct FusionCandidate {
  std::vector<int> nodes;          // plan node ids, upstream first
  std::vector<std::string> ops;    // operator names, aligned with `nodes`
  std::string path;                // "train" or "runtime"
  std::string input_shape;         // lattice shape entering the chain
  std::string output_shape;        // lattice shape leaving the chain
};

/// The FusionPass's verdict on one candidate (or on one segment of a
/// candidate it had to split at a cached or non-chunkable member): either an
/// accepted fused region with its cost-model savings, or a rejection with
/// the legality/costing reason. `explain --strict` cross-checks that every
/// fused region traces back to a candidate and every rejection carries a
/// reason.
struct FusionDecision {
  int candidate_index = -1;        // index into FusionCandidates()
  std::vector<int> nodes;          // the segment judged, upstream first
  bool accepted = false;
  int region_id = -1;              // PhysicalPlan::fused_regions index
  std::string fingerprint;         // fused fingerprint (accepted only)
  double est_saved_seconds = 0;    // modeled avoided materialization time
  double est_saved_bytes = 0;      // modeled avoided intermediate bytes
  std::string reason;              // non-empty iff rejected
};

/// The ReusePass's verdict on one cross-run reuse candidate whose lineage
/// fingerprint matched an ArtifactCatalog entry: accepted (the node becomes
/// a catalog read and `pruned` lists the upstream nodes the rewrite made
/// undemanded) or rejected with the costing reason. Benefit is
/// `recompute_seconds` (the modeled cost of the node plus its prunable
/// chain) against `load_seconds` (reading the entry from its tier).
struct ReuseDecision {
  int node_id = -1;
  std::string node_name;
  std::string fingerprint;  // lineage fingerprint == catalog key
  bool accepted = false;
  std::string tier;         // "memory" or "disk" at decision time
  double entry_bytes = 0;
  size_t entry_records = 0;
  uint64_t entry_generation = 0;
  double load_seconds = 0;
  double recompute_seconds = 0;
  std::vector<int> pruned;  // upstream node ids pruned by acceptance
  std::string reason;       // non-empty iff rejected
};

/// End-of-pass materialization summary.
struct MaterializationSummary {
  bool recorded = false;
  std::string policy;
  double budget_bytes = 0;
  double initial_runtime = 0;
  double final_runtime = 0;
  int cached_nodes = 0;
};

/// Thread-safe append-only log. One instance lives on each PhysicalPlan
/// (created by lowering); the optimizer passes append, reporting tools read.
class OptimizerDecisionLog {
 public:
  void RecordSelection(SelectionDecision decision);
  void RecordCseGroup(CseMergeGroup group);
  void RecordMaterializationStep(MaterializationStep step);
  void RecordMaterializationSummary(MaterializationSummary summary);
  void RecordRecovery(RecoveryDecision decision);
  void RecordFusionCandidate(FusionCandidate candidate);
  void RecordFusionDecision(FusionDecision decision);
  void RecordReuseDecision(ReuseDecision decision);

  std::vector<SelectionDecision> Selections() const;
  std::vector<CseMergeGroup> CseGroups() const;
  std::vector<MaterializationStep> MaterializationLedger() const;
  MaterializationSummary Summary() const;
  std::vector<RecoveryDecision> Recoveries() const;
  std::vector<FusionCandidate> FusionCandidates() const;
  std::vector<FusionDecision> FusionDecisions() const;
  std::vector<ReuseDecision> ReuseDecisions() const;
  /// The accepted ReuseDecision behind a node the ReusePass rewrote into a
  /// catalog read (PlannedNode::reused): where the plan reads the node's
  /// tier, entry generation, bytes and priced load from. Check-fails when
  /// the node has none.
  ReuseDecision AcceptedReuse(int node_id) const;

  /// True when no pass recorded anything (the CI --strict failure mode).
  /// Fusion candidates/decisions follow from static analysis even on
  /// otherwise-unoptimized plans and do not count.
  bool Empty() const;

  void Clear();

  /// Human-readable report of every recorded decision.
  std::string ToString() const;

  /// The log as a JSON object (selections, cse_groups, materialization).
  std::string ToJson() const;

 private:
  mutable Mutex mu_{kLockRankDecisionLog};
  std::vector<SelectionDecision> selections_ GUARDED_BY(mu_);
  std::vector<CseMergeGroup> cse_groups_ GUARDED_BY(mu_);
  std::vector<MaterializationStep> ledger_ GUARDED_BY(mu_);
  MaterializationSummary summary_ GUARDED_BY(mu_);
  std::vector<RecoveryDecision> recoveries_ GUARDED_BY(mu_);
  std::vector<FusionCandidate> fusion_ GUARDED_BY(mu_);
  std::vector<FusionDecision> fusion_decisions_ GUARDED_BY(mu_);
  std::vector<ReuseDecision> reuse_decisions_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace keystone

#endif  // KEYSTONE_OBS_DECISION_LOG_H_
