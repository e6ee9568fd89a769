#include "src/optimizer/pass_manager.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/plan_validator.h"
#include "src/cache/artifact_catalog.h"
#include "src/common/check.h"
#include "src/core/plan_runner.h"
#include "src/obs/profile_store.h"
#include "src/optimizer/operator_optimizer.h"

namespace keystone {

namespace {

/// Re-validates the plan after a pass: the (possibly rewritten) graph plus,
/// once built, the materialization plan. Dead duplicates are the expected
/// residue of CSE, so unreachable-node warnings are off here — the
/// submitted graph was already checked with them on before lowering.
void ValidateAfterPass(const PhysicalPlan& plan, const char* pass_name,
                       ExecContext* ctx) {
  if (!plan.config.validate_plans) return;
  analysis::PlanValidationOptions vopts;
  vopts.sink = plan.sink;
  vopts.placeholder = plan.placeholder;
  vopts.expect_cse = plan.cse_applied;
  vopts.warn_unreachable = false;
  const analysis::PlanValidator validator(vopts);
  analysis::ValidationReport vreport = validator.Validate(*plan.graph);
  if (plan.materialized) {
    vreport.Merge(
        validator.ValidatePlan(plan.planning_problem, plan.cache_set));
  }
  // Re-run the dataflow rules over the rewritten plan: a pass must not
  // introduce shape conflicts or misplace effects any more than it may
  // break the structural invariants above. Fused regions (empty until the
  // fusion pass runs) are held to the fusion.* well-formedness rules.
  const analysis::DataflowResult flow = analysis::InferDataflow(plan);
  vreport.Merge(analysis::CheckDataflow(plan, flow));
  vreport.Merge(analysis::ValidateFusedRegions(plan, flow));
  vreport.Merge(analysis::ValidateReuseMarkers(plan));
  analysis::RecordDiagnostics(vreport, ctx->metrics());
  KS_CHECK(vreport.ok()) << "plan failed validation after pass '" << pass_name
                         << "':\n"
                         << vreport.ToString();
}

bool PlansCache(const OptimizationConfig& config) {
  return config.cache_policy == CachePolicy::kGreedy ||
         config.cache_policy == CachePolicy::kExhaustive;
}

bool NeedsProfile(const OptimizationConfig& config) {
  return config.operator_selection || PlansCache(config);
}

/// Full-scale seconds of all of a node's executions: linear extrapolation
/// through the two sampled points (§5.4); when the dataset is smaller than
/// both sample sizes the points coincide, so fall back to proportional
/// scaling.
double ExtrapolatedSeconds(const ProfileEntry& entry) {
  const double n_full = static_cast<double>(entry.full_records);
  if (entry.records_large > entry.records_small) {
    const double slope = (entry.seconds_large - entry.seconds_small) /
                         (entry.records_large - entry.records_small);
    return std::max(0.0, entry.seconds_large +
                             slope * (n_full - entry.records_large));
  }
  return entry.seconds_large * n_full /
         std::max<size_t>(1, entry.records_large);
}

/// A stored sampling profile the cost model can price: finite,
/// non-negative seconds and bytes per record.
bool IsUsable(const obs::NodeProfileRecord& record) {
  return std::isfinite(record.seconds) && record.seconds >= 0.0 &&
         std::isfinite(record.bytes_per_record) &&
         record.bytes_per_record >= 0.0;
}

/// Attempts to reconstruct every train node's profile and operator choice
/// from the ProfileStore instead of executing the sampling passes. Returns
/// false (leaving the plan untouched) unless the store covers every train
/// node at both sample sizes with a record the plan can use. A stale or
/// corrupt record is a miss: one naming an option the node does not have,
/// one with negative or non-finite numbers, or one whose full-scale
/// estimate overflows.
bool TryReuseStoredProfiles(PhysicalPlan* plan, ExecContext* ctx) {
  obs::ProfileStore* store = ctx->profile_store();
  if (store == nullptr) return false;
  struct Stored {
    int id;
    ProfileEntry entry;
    int chosen_option;
  };
  std::vector<Stored> stored;
  for (const PlannedNode& pn : plan->nodes) {
    if (!pn.train) continue;
    const auto large = store->NodeProfileFor(obs::ProfileStore::NodeKey(
        pn.fingerprint, OptimizationConfig::kProfileSampleLarge));
    const auto small = store->NodeProfileFor(obs::ProfileStore::NodeKey(
        pn.fingerprint, OptimizationConfig::kProfileSampleSmall));
    if (!large.has_value() || !small.has_value()) return false;
    if (large->chosen_option >= plan->NumOptions(pn.id)) return false;
    if (!IsUsable(*large) || !IsUsable(*small)) return false;
    // Rebuild what the two sampling passes would have filled. The small
    // pass runs last live, so its stats are the ones that stick.
    ProfileEntry entry;
    entry.seconds_large = large->seconds;
    entry.records_large = large->records;
    entry.seconds_small = small->seconds;
    entry.records_small = small->records;
    entry.bytes_per_record = small->bytes_per_record;
    entry.full_records = large->full_records;
    if (!std::isfinite(ExtrapolatedSeconds(entry)) ||
        !std::isfinite(entry.bytes_per_record *
                       static_cast<double>(entry.full_records))) {
      return false;
    }
    stored.push_back({pn.id, entry, large->chosen_option});
  }
  // Full coverage: install the rebuilt profiles and replay the choices.
  for (const Stored& s : stored) {
    plan->nodes[s.id].profile = s.entry;
    if (s.chosen_option >= 0) plan->SetChosenOption(s.id, s.chosen_option);
  }
  return true;
}

}  // namespace

void PassManager::AddPass(std::unique_ptr<PlanPass> pass) {
  passes_.push_back(std::move(pass));
}

void PassManager::Run(PhysicalPlan* plan, PassContext* pctx) {
  KS_CHECK(pctx != nullptr && pctx->ctx != nullptr);
  for (const auto& pass : passes_) {
    pass->Run(plan, pctx);
    ValidateAfterPass(*plan, pass->name(), pctx->ctx);
  }
}

void CsePass::Run(PhysicalPlan* plan, PassContext* pctx) {
  (void)pctx;
  if (!plan->config.common_subexpression) return;
  std::vector<int> remap;
  plan->cse_eliminated = plan->graph->EliminateCommonSubexpressions(&remap);
  plan->sink = remap[plan->sink];
  plan->placeholder = remap[plan->placeholder];
  plan->cse_applied = true;
  RelowerPlan(plan);

  // Invert the remap into merge groups: every id folded into a survivor.
  std::map<int, std::vector<int>> groups;
  for (int id = 0; id < static_cast<int>(remap.size()); ++id) {
    if (remap[id] != id) groups[remap[id]].push_back(id);
  }
  for (const auto& [survivor, merged] : groups) {
    obs::CseMergeGroup group;
    group.survivor = survivor;
    group.merged = merged;
    if (survivor >= 0 && survivor < static_cast<int>(plan->nodes.size())) {
      group.fingerprint = plan->nodes[survivor].fingerprint;
    }
    plan->decision_log->RecordCseGroup(std::move(group));
  }
}

void ProfileAndSelectPass::Run(PhysicalPlan* plan, PassContext* pctx) {
  if (!NeedsProfile(plan->config)) return;
  ExecContext* ctx = pctx->ctx;
  PlanRunner runner(plan, ctx);

  if (plan->config.reuse_stored_profiles &&
      TryReuseStoredProfiles(plan, ctx)) {
    plan->profiles_from_store = true;
    if (ctx->metrics() != nullptr) {
      ctx->metrics()->Increment("profile_store.reuses");
    }
    // Selections replayed from the store still leave provenance: the
    // chosen option per optimizable node, flagged as history-driven (no
    // live alternatives were scored this run).
    for (const PlannedNode& pn : plan->nodes) {
      if (!pn.train || !pn.optimizable || pn.chosen_option < 0) continue;
      obs::SelectionDecision decision;
      decision.node_id = pn.id;
      decision.node_name = pn.name;
      decision.fingerprint = pn.fingerprint;
      decision.chosen_option = pn.chosen_option;
      decision.from_store = true;
      plan->decision_log->RecordSelection(std::move(decision));
    }
    // The skipped sampling passes still surface in reports and metrics:
    // one synthetic span per node per phase, reconstructed from the store.
    runner.EmitSyntheticProfileSpans(ExecMode::kProfileLarge);
    runner.EmitSyntheticProfileSpans(ExecMode::kProfileSmall);
    return;
  }

  // Observed history only corrects selection estimates when the user opted
  // into profile reuse; default behaviour stays purely model-driven.
  const obs::ProfileStore* history =
      plan->config.reuse_stored_profiles ? ctx->profile_store() : nullptr;
  SelectHook select;
  if (plan->config.operator_selection) {
    select = [plan, ctx, history](int id, const DataStats& in_stats) {
      const PlannedNode& pn = plan->nodes[id];
      // Score options at the node's full-scale input cardinality, not the
      // sample the hook observed (§3: selection targets the real run).
      PhysicalChoice choice =
          ChooseOption(*plan->graph->node(id).op(),
                       in_stats.ScaledTo(pn.input_records), ctx->resources(),
                       history);
      plan->SetChosenOption(id, choice.option_index);
      if (choice.history_corrected > 0 && ctx->metrics() != nullptr) {
        ctx->metrics()->Increment("optimizer.history_corrected",
                                  choice.history_corrected);
      }
      obs::SelectionDecision decision;
      decision.node_id = id;
      decision.node_name = pn.name;
      decision.fingerprint = pn.fingerprint;
      decision.chosen_option = choice.option_index;
      decision.chosen_seconds = choice.estimated_seconds;
      decision.margin = choice.margin;
      decision.options = std::move(choice.scored);
      plan->decision_log->RecordSelection(std::move(decision));
    };
  }
  // Large pass selects; the small pass reuses its choices. Both record
  // into the ProfileStore keyed by node fingerprint.
  runner.Run(ExecMode::kProfileLarge, select);
  runner.Run(ExecMode::kProfileSmall);
  for (const PlannedNode& pn : plan->nodes) {
    if (pn.train) {
      plan->optimize_seconds +=
          pn.profile.seconds_small + pn.profile.seconds_large;
    }
  }
}

void ExtrapolateNodeEstimates(PhysicalPlan* plan) {
  for (PlannedNode& pn : plan->nodes) {
    if (!pn.train) continue;
    pn.est_seconds = ExtrapolatedSeconds(pn.profile) / std::max(1, pn.weight);
    pn.est_output_bytes = pn.profile.bytes_per_record *
                          static_cast<double>(pn.profile.full_records);
  }
}

namespace {

/// Which train nodes the fit still has to execute, given the current reuse
/// markers: walk dependencies down from the train terminals and estimator
/// nodes, stopping below nodes already rewritten into catalog reads.
std::vector<bool> ComputeDemanded(const PhysicalPlan& plan) {
  std::vector<bool> demanded(plan.nodes.size(), false);
  std::vector<int> stack;
  for (int t : plan.terminals) {
    if (plan.nodes[t].train) stack.push_back(t);
  }
  for (const PlannedNode& pn : plan.nodes) {
    if (pn.train && pn.kind == NodeKind::kEstimator) stack.push_back(pn.id);
  }
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (demanded[id]) continue;
    demanded[id] = true;
    const PlannedNode& pn = plan.nodes[id];
    if (pn.reused) continue;  // a catalog read demands nothing upstream
    for (int in : pn.inputs) {
      if (plan.nodes[in].train) stack.push_back(in);
    }
    if (pn.model_input >= 0 && plan.nodes[pn.model_input].train) {
      stack.push_back(pn.model_input);
    }
  }
  return demanded;
}

}  // namespace

void ReusePass::Run(PhysicalPlan* plan, PassContext* pctx) {
  ExecContext* ctx = pctx->ctx;
  cache::ArtifactCatalog* catalog = ctx->artifact_catalog();
  if (catalog == nullptr) return;

  // Profile-extrapolated full-scale estimates price recompute; without a
  // profile the stored entry's own recompute figure is the fallback.
  if (NeedsProfile(plan->config)) ExtrapolateNodeEstimates(plan);

  const ClusterResourceDescriptor& resources = plan->resources;
  const std::vector<bool> pure = PureLineageMask(*plan);
  std::vector<bool> demanded = ComputeDemanded(*plan);
  // Modeled wall-clock of one node at full scale: est_seconds is stored
  // per execution, the node runs `weight` times per fit.
  const auto node_seconds = [plan](int id) {
    const PlannedNode& pn = plan->nodes[id];
    return pn.est_seconds * std::max(1, pn.weight);
  };

  int accepted = 0;
  int rejected = 0;
  // Descending id = downstream first: reusing the deepest matching node
  // prunes its whole chain, and its upstream matches then drop out of the
  // demanded set instead of producing redundant rewrites.
  for (int id = static_cast<int>(plan->nodes.size()) - 1; id >= 0; --id) {
    PlannedNode& pn = plan->nodes[id];
    if (!pn.train || !pure[id] || !demanded[id]) continue;
    if (pn.kind != NodeKind::kTransformer && pn.kind != NodeKind::kGather) {
      continue;
    }
    const auto entry = catalog->Lookup(pn.lineage_fingerprint);
    if (!entry.has_value()) continue;

    obs::ReuseDecision decision;
    decision.node_id = id;
    decision.node_name = pn.name;
    decision.fingerprint = pn.lineage_fingerprint;
    decision.tier = entry->in_memory ? "memory" : "disk";
    decision.entry_bytes = entry->bytes;
    decision.entry_records = entry->records;
    decision.entry_generation = entry->generation;

    if (entry->records != pn.full_records) {
      // Same lineage but a different cardinality means the catalog was
      // populated against different source data; never serve it.
      decision.reason = "cardinality mismatch";
      ++rejected;
      plan->decision_log->RecordReuseDecision(std::move(decision));
      continue;
    }

    // Tentatively accept to see which upstream nodes fall out of demand.
    pn.reused = true;
    const std::vector<bool> demanded_after = ComputeDemanded(*plan);
    std::vector<int> prunable;
    for (size_t k = 0; k < plan->nodes.size(); ++k) {
      if (plan->nodes[k].train && demanded[k] && !demanded_after[k]) {
        prunable.push_back(static_cast<int>(k));
      }
    }
    double recompute = node_seconds(id);
    for (int k : prunable) recompute += node_seconds(k);
    if (recompute <= 0.0) recompute = entry->recompute_seconds;
    const double per_node_bytes =
        entry->bytes / std::max(1, resources.num_nodes);
    const double load = entry->in_memory
                            ? resources.MemoryReadSeconds(per_node_bytes)
                            : resources.DiskReadSeconds(per_node_bytes);
    decision.load_seconds = load;
    decision.recompute_seconds = recompute;

    if (load < recompute) {
      decision.accepted = true;
      decision.pruned = prunable;
      for (int k : prunable) plan->nodes[k].reuse_pruned = true;
      demanded = std::move(demanded_after);
      ++accepted;
    } else {
      pn.reused = false;
      decision.reason = "catalog load costlier than recompute";
      ++rejected;
    }
    plan->decision_log->RecordReuseDecision(std::move(decision));
  }
  if (ctx->metrics() != nullptr) {
    if (accepted > 0) {
      ctx->metrics()->Increment("catalog.reuse.accepted", accepted);
    }
    if (rejected > 0) {
      ctx->metrics()->Increment("catalog.reuse.rejected", rejected);
    }
  }
}

void MaterializationPass::Run(PhysicalPlan* plan, PassContext* pctx) {
  (void)pctx;
  const OptimizationConfig& config = plan->config;
  const ClusterResourceDescriptor& resources = plan->resources;
  plan->cache_budget_bytes =
      config.cache_budget_bytes >= 0.0
          ? config.cache_budget_bytes
          : OptimizationConfig::kCacheFraction *
                resources.ClusterMemoryBytes();

  if (NeedsProfile(config)) ExtrapolateNodeEstimates(plan);

  if (!PlansCache(config)) return;

  MaterializationProblem& problem = plan->planning_problem;
  problem.graph = plan->graph.get();
  problem.resources = resources;
  problem.memory_budget_bytes = plan->cache_budget_bytes;
  problem.terminals = plan->terminals;
  problem.failure_rate = config.expected_fault_rate;
  problem.info.assign(plan->nodes.size(), NodeRuntimeInfo());
  for (const PlannedNode& pn : plan->nodes) {
    NodeRuntimeInfo& info = problem.info[pn.id];
    // Nodes pruned by cross-run reuse never execute this fit, so they are
    // dead to the cache planner; a reused node's "compute" is the priced
    // catalog load, paid once regardless of the node's demand weight.
    info.live = pn.train && !pn.reuse_pruned;
    if (!info.live) continue;
    info.weight = pn.reused ? 1 : pn.weight;
    info.always_cached = pn.kind == NodeKind::kEstimator;
    info.compute_seconds =
        pn.reused ? plan->decision_log->AcceptedReuse(pn.id).load_seconds
                  : pn.est_seconds;
    info.output_bytes = pn.est_output_bytes;
  }
  std::vector<obs::MaterializationStep> ledger;
  plan->cache_set = config.cache_policy == CachePolicy::kGreedy
                        ? GreedyCacheSelection(problem, &ledger)
                        : ExhaustiveCacheSelection(problem);
  plan->materialized = true;
  for (PlannedNode& pn : plan->nodes) pn.cached = plan->cache_set[pn.id];

  for (auto& step : ledger) {
    plan->decision_log->RecordMaterializationStep(std::move(step));
  }
  obs::MaterializationSummary summary;
  summary.policy = CachePolicyName(config.cache_policy);
  summary.budget_bytes = plan->cache_budget_bytes;
  summary.initial_runtime = EstimateRuntime(
      problem, std::vector<bool>(plan->nodes.size(), false));
  summary.final_runtime = EstimateRuntime(problem, plan->cache_set);
  for (bool cached : plan->cache_set) summary.cached_nodes += cached ? 1 : 0;
  plan->decision_log->RecordMaterializationSummary(std::move(summary));
}

namespace {

/// Full-scale output bytes of a fused-chain member, the intermediate the
/// fusion avoids materializing. Train members use the profile-extrapolated
/// estimate, falling back to the statically inferred per-record size;
/// runtime members (full_records == 0 until a request arrives) are priced
/// per record. Negative when no model covers the node.
double IntermediateBytes(const PlannedNode& pn, bool runtime) {
  if (runtime) return pn.inferred_bytes_per_record;
  if (pn.est_output_bytes > 0.0) return pn.est_output_bytes;
  if (pn.inferred_bytes_per_record >= 0.0 && pn.full_records > 0) {
    return pn.inferred_bytes_per_record *
           static_cast<double>(pn.full_records);
  }
  return -1.0;
}

/// Judges one candidate segment: accepts it as a fused region when the cost
/// model credits it with avoided materialization time, records the
/// FusionDecision either way. `reason` carries the split cause for
/// segments too short to fuse.
void JudgeSegment(PhysicalPlan* plan, int candidate_index,
                  const std::vector<int>& segment, bool runtime,
                  const std::string& reason) {
  if (segment.empty()) return;
  obs::FusionDecision decision;
  decision.candidate_index = candidate_index;
  decision.nodes = segment;
  if (segment.size() < 2) {
    decision.reason = reason.empty()
                          ? "segment too short to fuse"
                          : reason + "; remaining segment too short";
    plan->decision_log->RecordFusionDecision(std::move(decision));
    return;
  }
  // Avoided intermediate traffic: every interior edge skips one
  // materialization, modeled as a cluster-parallel memory write plus the
  // consumer's read back (the SystemML fusion credit). The cluster
  // descriptor has a single memory-bandwidth figure, so write and read
  // price identically.
  double saved_bytes = 0.0;
  double saved_seconds = 0.0;
  bool unknown = false;
  for (size_t i = 0; i + 1 < segment.size(); ++i) {
    const PlannedNode& pn =
        plan->nodes[static_cast<size_t>(segment[i])];
    const double bytes = IntermediateBytes(pn, runtime);
    if (bytes < 0.0) {
      unknown = true;
      break;
    }
    saved_bytes += bytes;
    saved_seconds +=
        2.0 * plan->resources.MemoryReadSeconds(
                  bytes / std::max(1, plan->resources.num_nodes));
  }
  if (unknown) {
    decision.reason = "no modeled intermediate size";
  } else if (saved_seconds <= 0.0) {
    decision.reason = "no modeled benefit";
  } else {
    FusedRegion region;
    region.id = static_cast<int>(plan->fused_regions.size());
    region.nodes = segment;
    region.runtime = runtime;
    for (size_t i = 0; i < segment.size(); ++i) {
      if (i > 0) region.fingerprint += "+";
      region.fingerprint +=
          plan->nodes[static_cast<size_t>(segment[i])].fingerprint;
      plan->nodes[static_cast<size_t>(segment[i])].fused_region = region.id;
    }
    region.est_saved_seconds = saved_seconds;
    region.est_saved_bytes = saved_bytes;
    decision.accepted = true;
    decision.region_id = region.id;
    decision.fingerprint = region.fingerprint;
    decision.est_saved_seconds = saved_seconds;
    decision.est_saved_bytes = saved_bytes;
    plan->fused_regions.push_back(std::move(region));
  }
  plan->decision_log->RecordFusionDecision(std::move(decision));
}

}  // namespace

void FusionPass::Run(PhysicalPlan* plan, PassContext* pctx) {
  ExecContext* ctx = pctx->ctx;
  const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
  // Provenance first: the fusibility report lands in the decision log even
  // when fusion itself is off, mirroring the pre-pass behaviour.
  analysis::RecordFusibility(*plan, flow);
  if (!plan->config.operator_fusion) return;

  // Costing reads the statically inferred per-record sizes off the nodes;
  // annotate now (the executor re-annotates after the passes, with the
  // same facts — the fusion pass never changes the dataflow).
  analysis::AnnotatePlan(plan, flow);
  const std::vector<analysis::FusibleChain> chains =
      analysis::FusibleChains(*plan, flow);
  int regions = 0;
  for (size_t c = 0; c < chains.size(); ++c) {
    const analysis::FusibleChain& chain = chains[c];
    const int candidate = static_cast<int>(c);
    std::vector<int> segment;
    std::string pending_reason;
    for (int id : chain.nodes) {
      const PlannedNode& pn = plan->nodes[static_cast<size_t>(id)];
      // A member rewritten by cross-run reuse never computes this fit: a
      // reused node is a catalog read, a pruned node does not run at all.
      // Neither can sit inside a streamed region.
      if (pn.reused || pn.reuse_pruned) {
        JudgeSegment(plan, candidate, segment, chain.runtime,
                     pending_reason);
        segment.clear();
        JudgeSegment(plan, candidate, {id}, chain.runtime,
                     pn.reused ? "reused from catalog"
                               : "pruned by cross-run reuse");
        pending_reason.clear();
        continue;
      }
      // A transformer that cannot apply chunk-at-a-time can never sit in a
      // streamed region. (Apply-model members are judged optimistically:
      // whether the *fitted* model supports chunks is only known at run
      // time, where the runner falls back to node-at-a-time execution.)
      if (pn.kind == NodeKind::kTransformer &&
          pn.physical_transformer != nullptr &&
          !pn.physical_transformer->SupportsChunkedApply()) {
        JudgeSegment(plan, candidate, segment, chain.runtime,
                     pending_reason);
        segment.clear();
        JudgeSegment(plan, candidate, {id}, chain.runtime,
                     "operator lacks chunked apply");
        pending_reason.clear();
        continue;
      }
      // A fused region executes entirely at its head's schedule position;
      // on the train path a member's model must already be fitted there.
      // (On the runtime path every model is resolved before apply starts.)
      if (!chain.runtime && pn.kind == NodeKind::kApplyModel &&
          !segment.empty() && pn.model_input >= segment.front()) {
        JudgeSegment(plan, candidate, segment, chain.runtime,
                     pending_reason);
        segment.clear();
        pending_reason = "model fitted after region head";
      }
      segment.push_back(id);
      // A cached member may end a region (its output materializes anyway)
      // but can never be an interior: the runner would have nothing to put
      // in the cache.
      if (id < static_cast<int>(plan->cache_set.size()) &&
          plan->cache_set[static_cast<size_t>(id)]) {
        JudgeSegment(plan, candidate, segment, chain.runtime,
                     pending_reason);
        segment.clear();
        pending_reason = "cached interior";
      }
    }
    JudgeSegment(plan, candidate, segment, chain.runtime, pending_reason);
  }
  regions = static_cast<int>(plan->fused_regions.size());
  if (ctx->metrics() != nullptr && regions > 0) {
    ctx->metrics()->Increment("fusion.regions", regions);
  }
}

void RegisterStandardPasses(PassManager* manager) {
  manager->AddPass(std::make_unique<CsePass>());
  manager->AddPass(std::make_unique<ProfileAndSelectPass>());
  manager->AddPass(std::make_unique<ReusePass>());
  manager->AddPass(std::make_unique<MaterializationPass>());
  manager->AddPass(std::make_unique<FusionPass>());
}

}  // namespace keystone
