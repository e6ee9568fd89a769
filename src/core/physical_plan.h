#ifndef KEYSTONE_CORE_PHYSICAL_PLAN_H_
#define KEYSTONE_CORE_PHYSICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dataflow_lattice.h"
#include "src/core/pipeline_graph.h"
#include "src/data/data_stats.h"
#include "src/obs/decision_log.h"
#include "src/optimizer/materialization.h"
#include "src/sim/resources.h"

namespace keystone {

/// Intermediate-data materialization policy (paper §4.3 / §5.4).
enum class CachePolicy {
  /// Nothing materialized (models excepted): every access recomputes.
  kNone,
  /// Cache only estimator results (the rule-based baseline).
  kRuleBased,
  /// Dynamic least-recently-used cache (the Spark default baseline).
  kLru,
  /// The paper's greedy Algorithm 1.
  kGreedy,
  /// Exhaustive optimal subset (small DAGs only; the ILP stand-in).
  kExhaustive,
};

const char* CachePolicyName(CachePolicy policy);

/// Which optimizations the compiler applies — the "optimization levels" of
/// Figure 9 are presets over these flags.
struct OptimizationConfig {
  /// Choose physical implementations for Optimizable operators (§3).
  bool operator_selection = true;

  /// Merge common sub-expressions (§4.2).
  bool common_subexpression = true;

  /// Profile on samples and plan materialization (§4.1/§4.3).
  CachePolicy cache_policy = CachePolicy::kGreedy;

  /// Absolute cache budget in bytes; < 0 means kCacheFraction of cluster
  /// memory.
  double cache_budget_bytes = -1.0;

  /// Seed the optimizer from the context's ProfileStore: stored observed
  /// costs correct operator-selection estimates, and when the store holds a
  /// node profile for every train node at both sample sizes the sampling
  /// passes are skipped entirely in favour of the stored history
  /// (PipelineReport::profiles_from_store reports when that happened).
  bool reuse_stored_profiles = false;

  /// Statically validate plans (src/analysis): the logical graph as
  /// submitted, then the physical plan again after every optimizer pass.
  /// Diagnostic counts land in the context's MetricsRegistry; any kError
  /// aborts the fit before execution starts.
  bool validate_plans = true;

  /// Expected per-node failure rate the materialization pass prices in:
  /// caching an output shields its downstream consumers from re-running the
  /// upstream chain when a task fails, so a non-zero rate shifts the greedy
  /// cache selection toward recompute-expensive subtrees (the Helix-style
  /// interaction). Zero (the default) reproduces the failure-free paper
  /// model exactly. Independent of any FaultPlan actually injected at run
  /// time: this is the optimizer's prior, not the simulation.
  double expected_fault_rate = 0.0;

  /// Fuse eligible producer→consumer chains into fused regions that the
  /// runner streams chunk-at-a-time without materializing intermediates
  /// (the SystemML-style operator-fusion pass). The only fusion switch: a
  /// plan without fused regions runs node by node. Results are
  /// byte-identical with or without fusion; the flag trades peak
  /// intermediate memory against chunk-loop overhead.
  bool operator_fusion = true;

  /// Fraction of cluster memory the cache gets when cache_budget_bytes < 0.
  static constexpr double kCacheFraction = 0.9;

  /// Sample sizes for execution subsampling; the two points anchor the
  /// linear extrapolation of per-node time and size (§5.4), and ProfileStore
  /// node keys carry them as their "@512"/"@1024" suffixes.
  static constexpr size_t kProfileSampleSmall = 512;
  static constexpr size_t kProfileSampleLarge = 1024;

  /// Unoptimized execution (None in Figure 9).
  static OptimizationConfig None();

  /// Whole-pipeline optimizations only (Pipe Only in Figure 9).
  static OptimizationConfig PipeOnly();

  /// Everything on (KeystoneML in Figure 9).
  static OptimizationConfig Full();
};

/// Execution modes a PhysicalPlan can be run in: the two subsampling passes
/// of §4.1, the full-scale training pass, and fitted-pipeline application.
enum class ExecMode {
  kProfileSmall,
  kProfileLarge,
  kFit,
  kApply,
};

const char* ExecModeName(ExecMode mode);

/// Per-node profile measured by the sampling passes (or reconstructed from
/// the ProfileStore): modeled seconds and record counts at both sample
/// sizes, anchoring the full-scale linear extrapolation (§5.4).
struct ProfileEntry {
  double seconds_small = 0.0;   // total modeled seconds at the small sample
  double seconds_large = 0.0;   // ... and at the large sample
  size_t records_small = 0;     // records actually flowing at each sample
  size_t records_large = 0;
  double bytes_per_record = 0.0;
  size_t full_records = 0;
};

/// One node of the physical plan: the logical graph node plus everything
/// the optimizer decided or derived for it — the resolved physical
/// operator, execution masks, structural fingerprint, profile, cache-set
/// membership, and full-scale cost estimates.
struct PlannedNode {
  int id = -1;
  NodeKind kind = NodeKind::kSource;
  std::string name;
  std::vector<int> inputs;
  int model_input = -1;

  /// Executes during the profile and fit passes (live and not downstream of
  /// the runtime placeholder).
  bool train = false;
  /// Executes during fitted-pipeline Apply (downstream of the placeholder
  /// and feeding the sink).
  bool runtime = false;

  /// The node's operator is Optimizable (has multiple physical options).
  bool optimizable = false;
  /// Selected physical option (-1 = not yet selected; the default option 0
  /// is resolved below either way).
  int chosen_option = -1;
  /// Resolved physical operator the runner executes. For optimizable nodes
  /// this is the chosen (or default) option; otherwise the logical operator
  /// itself. Null for source/placeholder/apply-model nodes.
  std::shared_ptr<TransformerBase> physical_transformer;
  std::shared_ptr<EstimatorBase> physical_estimator;
  /// Resolved physical operator name; non-empty iff the node is
  /// optimizable (matches NodeExecutionRecord::chosen_physical).
  std::string physical_name;
  /// Passes over inputs per execution (Iterative weight of the resolved op).
  int weight = 1;

  /// Stable structural identity: operator kind + logical signature + input
  /// cardinality. ProfileStore entries are keyed by this, so renaming a
  /// node neither misses nor mismatches stored profiles.
  std::string fingerprint;
  /// Lineage-closed identity: the node fingerprint extended with a hash
  /// over every transitive input's lineage fingerprint, so two nodes match
  /// only when their whole upstream subgraphs match. ArtifactCatalog
  /// entries are keyed by this (cross-run reuse must not conflate nodes
  /// whose local signatures agree but whose inputs differ).
  std::string lineage_fingerprint;
  /// Full-scale records flowing into the node (static dataflow estimate).
  size_t input_records = 0;
  /// Full-scale records this node's output holds (0 for estimators, whose
  /// output is a model).
  size_t full_records = 0;

  /// Chosen for materialization by the cache-selection pass.
  bool cached = false;
  /// Extrapolated full-scale compute seconds / output bytes (filled by the
  /// materialization pass whenever profiling ran).
  double est_seconds = 0.0;
  double est_output_bytes = 0.0;
  ProfileEntry profile;

  /// Static dataflow facts (filled by analysis::AnnotatePlan after the
  /// optimizer passes run; dataflow_annotated gates their validity).
  bool dataflow_annotated = false;
  /// Inferred per-record output shape. For estimator nodes this is the
  /// record shape the *fitted model* will produce.
  ValueShape inferred_shape;
  /// Inferred record-count interval of the node's output.
  CardinalityInterval cardinality;
  /// Effect class (estimator nodes are train-only by construction).
  EffectClass effect = EffectClass::kPure;
  /// Statically derived output bytes per record; < 0 when unknown.
  double inferred_bytes_per_record = -1.0;

  /// Index into PhysicalPlan::fused_regions when the FusionPass placed this
  /// node inside a fused region; -1 when unfused.
  int fused_region = -1;

  /// Cross-run reuse markers (set by the ReusePass when the context has an
  /// ArtifactCatalog). `reused`: the runner loads this node's output from
  /// the catalog entry keyed by its lineage_fingerprint instead of
  /// computing it. `reuse_pruned`: every train demand for this node is
  /// satisfied through reused descendants, so the fit pass skips it
  /// entirely. The train/runtime masks are untouched — serving still
  /// executes the node. The catalog entry behind a `reused` node (tier,
  /// generation, bytes, priced load) is its accepted ReuseDecision:
  /// decision_log->AcceptedReuse(id).
  bool reused = false;
  bool reuse_pruned = false;
};

/// A producer→consumer chain the FusionPass fused: the runner streams
/// chunks through the member operators back-to-back, materializing only the
/// tail's output. Members are consecutive pipeline stages (nodes[i+1]
/// consumes exactly nodes[i]); interior outputs never exist as datasets.
struct FusedRegion {
  int id = -1;
  /// Member node ids, producer first. Size >= 2; nodes.front() is the
  /// region head (reads the external input), nodes.back() the tail (the
  /// only member whose output is materialized).
  std::vector<int> nodes;
  /// True when the region lies on the apply-masked (serving) path.
  bool runtime = false;
  /// Joined member fingerprints: the region's stable structural identity.
  std::string fingerprint;
  /// Cost-model estimate of the avoided intermediate traffic: virtual
  /// seconds and bytes of materialization the fusion saves per execution.
  double est_saved_seconds = 0.0;
  double est_saved_bytes = 0.0;
};

/// The explicit physical plan: a lowered copy of the logical PipelineGraph
/// annotated with every optimizer decision. Produced by LowerToPhysical,
/// rewritten by the pass manager (src/optimizer/pass_manager.h), executed
/// by PlanRunner (src/core/plan_runner.h), and printed by tools/plan_dump.
struct PhysicalPlan {
  std::shared_ptr<PipelineGraph> graph;
  int placeholder = -1;
  int sink = -1;
  OptimizationConfig config;
  ClusterResourceDescriptor resources;

  /// One entry per graph node, indexed by node id.
  std::vector<PlannedNode> nodes;
  /// Fused regions chosen by the FusionPass (empty until it runs; member
  /// nodes carry their region index in PlannedNode::fused_region).
  std::vector<FusedRegion> fused_regions;
  /// Materialization set chosen by the cache-selection pass.
  std::vector<bool> cache_set;
  /// Train nodes demanded directly (no live train successor).
  std::vector<int> terminals;

  int cse_eliminated = 0;
  /// The CSE pass rewrote the graph (dead duplicates may remain).
  bool cse_applied = false;
  /// The materialization pass built a planning problem + cache set.
  bool materialized = false;
  /// Sampling passes were replaced by stored profiles.
  bool profiles_from_store = false;
  double cache_budget_bytes = 0.0;
  /// Virtual seconds charged to optimization (the sampling passes).
  double optimize_seconds = 0.0;
  /// The profile-extrapolated problem the cache set was selected against
  /// (valid when `materialized`; its graph pointer aliases `graph`).
  MaterializationProblem planning_problem;

  /// Structured provenance of every optimizer decision made while compiling
  /// this plan (never null: every plan starts with an empty log; the passes
  /// append; RelowerPlan preserves it). Shared so reports can outlive the
  /// plan.
  std::shared_ptr<obs::OptimizerDecisionLog> decision_log =
      std::make_shared<obs::OptimizerDecisionLog>();

  /// Sets the chosen physical option for node `id` and every node sharing
  /// the same Optimizable operator instance (train-time copies and their
  /// runtime counterparts share instances), re-resolving the physical
  /// operator, name, and weight.
  void SetChosenOption(int id, int option);

  /// Number of physical options node `id` can choose among: its
  /// Optimizable operator's, 0 for any other node.
  int NumOptions(int id) const;

  int NumTrainNodes() const;
  int NumRuntimeNodes() const;

  /// Human-readable plan listing (plan_dump default output). With
  /// `runtime_only` the listing is the servable view: only apply-masked
  /// (runtime) nodes, no train terminals, no compile-time decision log —
  /// exactly what ServablePipeline executes per request.
  std::string ToString(bool runtime_only = false) const;
  /// Machine-readable plan listing (plan_dump --json); `runtime_only` as
  /// for ToString.
  std::string ToJson(bool runtime_only = false) const;
};

/// Lowers a logical graph to the initial physical plan: resolves default
/// physical operators, computes execution masks, terminals, structural
/// fingerprints, and the static full-scale cardinality flow. The graph is
/// shared, not copied — callers owning a private copy pass it in.
PhysicalPlan LowerToPhysical(std::shared_ptr<PipelineGraph> graph,
                             int placeholder, int sink,
                             const OptimizationConfig& config,
                             const ClusterResourceDescriptor& resources);

/// Recomputes the node table, masks, terminals, fingerprints, and
/// cardinalities after a pass mutated the underlying graph (e.g. CSE).
/// Chosen options survive (they live on shared operator instances and are
/// re-applied by id where still present).
void RelowerPlan(PhysicalPlan* plan);

/// Per-node mask: true when the node's transitive train ancestry (data
/// inputs plus fitted-model dependencies) consists only of sources,
/// transformers, and gathers — the kinds whose lineage fingerprint fully
/// determines their output. Anything downstream of an estimator is
/// excluded: an estimator's structural name need not encode its full
/// configuration, so two differently-configured fits could collide on one
/// lineage fingerprint. Cross-run reuse (ReusePass, catalog publication)
/// only touches nodes this mask admits.
std::vector<bool> PureLineageMask(const PhysicalPlan& plan);

}  // namespace keystone

#endif  // KEYSTONE_CORE_PHYSICAL_PLAN_H_
