#include "src/analysis/dataflow.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/pipeline_graph.h"
#include "src/data/data_stats.h"
#include "src/obs/decision_log.h"
#include "src/sim/cost_profile.h"

namespace keystone {
namespace analysis {

namespace {

bool IsLive(const PlannedNode& pn) { return pn.train || pn.runtime; }

/// Nodes whose output (transitively) flows into a Gather along live data
/// edges — the branch-parallel region PlanRunner dispatches concurrently.
std::vector<bool> FeedsGather(const PhysicalPlan& plan) {
  const int n = static_cast<int>(plan.nodes.size());
  std::vector<bool> feeds(static_cast<size_t>(n), false);
  for (int id = n - 1; id >= 0; --id) {
    const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
    if (!IsLive(pn)) continue;
    const bool downstream =
        pn.kind == NodeKind::kGather || feeds[static_cast<size_t>(id)];
    if (!downstream) continue;
    for (int in : pn.inputs) feeds[static_cast<size_t>(in)] = true;
  }
  return feeds;
}

/// A one-record DataStats synthesized from a node's dataflow annotations —
/// what the serving path's cost models see per record at admission time.
DataStats OneRecordStats(const PlannedNode& pn) {
  DataStats stats;
  stats.num_records = 1;
  const ValueShape& shape = pn.inferred_shape;
  int64_t dim = 0;
  switch (shape.kind) {
    case ShapeKind::kScalar:
    case ShapeKind::kLabels:
      dim = 1;
      break;
    case ShapeKind::kVector:
    case ShapeKind::kSparseVector:
      dim = shape.d0 >= 0 ? shape.d0 : 0;
      break;
    case ShapeKind::kMatrix:
    case ShapeKind::kVectorSeq:
      dim = shape.d1 >= 0 ? shape.d1 : 0;
      break;
    case ShapeKind::kImage:
      if (shape.d0 >= 0 && shape.d1 >= 0 && shape.d2 >= 0) {
        dim = shape.d0 * shape.d1 * shape.d2;
      }
      break;
    default:
      break;
  }
  stats.dim = static_cast<size_t>(dim);
  double bytes = pn.inferred_bytes_per_record;
  if (bytes < 0) bytes = dim > 0 ? 8.0 * static_cast<double>(dim) : 64.0;
  stats.bytes_per_record = bytes;
  if (shape.kind == ShapeKind::kSparseVector) {
    // ~12 serialized bytes per stored (index, value) pair.
    stats.avg_nnz = bytes / 12.0;
    stats.sparsity =
        dim > 0 ? std::min(1.0, stats.avg_nnz / static_cast<double>(dim))
                : 1.0;
  } else {
    stats.avg_nnz = static_cast<double>(dim);
    stats.sparsity = 1.0;
  }
  return stats;
}

}  // namespace

void CheckServingEffect(const PlannedNode& pn, EffectClass effect,
                        ValidationReport* report) {
  if (effect == EffectClass::kStateful) {
    report->Add(Severity::kError, rules::kEffectStatefulOnServingPath, pn.id,
                "stateful node '" + pn.name + "' on the serving path",
                "mark node '" + pn.name +
                    "' train-only or replace it with a pure equivalent");
  } else if (effect == EffectClass::kTrainOnly) {
    report->Add(Severity::kError, rules::kEffectTrainOnlyOnServingPath, pn.id,
                "train-only node '" + pn.name + "' on the serving path",
                "move '" + pn.name +
                    "' off the runtime path (fit it as an estimator whose "
                    "model serves instead)");
  }
}

ValidationReport CheckDataflow(const PhysicalPlan& plan,
                               const DataflowResult& flow) {
  ValidationReport report = flow.report;
  const int n = static_cast<int>(plan.nodes.size());
  if (static_cast<int>(flow.facts.size()) != n) return report;
  const std::vector<bool> feeds_gather = FeedsGather(plan);
  for (int id = 0; id < n; ++id) {
    const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
    if (!IsLive(pn)) continue;
    const NodeFacts& f = flow.at(id);
    if (f.visited && f.shape.IsTop()) {
      report.Add(Severity::kInfo, rules::kShapeUnknown, id,
                 "no static shape inferred for '" + pn.name + "'",
                 "declare a TransferShape/ModelOutputShape (or a "
                 "StaticShapeOf specialization) for the operator");
    }
    if (pn.runtime) CheckServingEffect(pn, f.effect, &report);
    if (f.effect == EffectClass::kStateful &&
        feeds_gather[static_cast<size_t>(id)]) {
      report.Add(Severity::kError, rules::kEffectStatefulOnParallelPath, id,
                 "stateful node '" + pn.name +
                     "' on a branch-parallel region (branches dispatch "
                     "concurrently)",
                 "make '" + pn.name + "' pure/seeded-deterministic");
    }
    if (pn.cached && f.bytes_per_record >= 0 && pn.full_records > 0 &&
        plan.cache_budget_bytes > 0) {
      const double footprint =
          f.bytes_per_record * static_cast<double>(pn.full_records);
      if (footprint > plan.cache_budget_bytes) {
        report.Add(
            Severity::kWarning, rules::kMemoryFootprint, id,
            "statically inferred footprint of cached node '" + pn.name +
                "' (" + std::to_string(footprint) +
                " bytes) exceeds the cache budget (" +
                std::to_string(plan.cache_budget_bytes) + " bytes)",
            "drop '" + pn.name +
                "' from the cache set or raise cache_budget_bytes");
      }
    }
  }
  return report;
}

void AnnotatePlan(PhysicalPlan* plan, const DataflowResult& flow) {
  if (plan == nullptr) return;
  if (flow.facts.size() != plan->nodes.size()) return;
  for (size_t id = 0; id < plan->nodes.size(); ++id) {
    PlannedNode& pn = plan->nodes[id];
    const NodeFacts& f = flow.facts[id];
    pn.dataflow_annotated = f.visited;
    pn.inferred_shape = f.shape;
    pn.cardinality = f.cardinality;
    pn.effect = f.effect;
    pn.inferred_bytes_per_record = f.bytes_per_record;
  }
}

std::vector<FusibleChain> FusibleChains(const PhysicalPlan& plan,
                                        const DataflowResult& flow) {
  std::vector<FusibleChain> out;
  const int n = static_cast<int>(plan.nodes.size());
  if (static_cast<int>(flow.facts.size()) != n) return out;
  // Live-consumer counts; sole_succ is meaningful only when the count is 1.
  std::vector<int> succ_count(static_cast<size_t>(n), 0);
  std::vector<int> sole_succ(static_cast<size_t>(n), -1);
  for (int id = 0; id < n; ++id) {
    const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
    if (!IsLive(pn)) continue;
    for (int in : pn.inputs) {
      ++succ_count[static_cast<size_t>(in)];
      sole_succ[static_cast<size_t>(in)] = id;
    }
  }
  auto eligible = [&](int id) {
    const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
    if (!IsLive(pn)) return false;
    if (pn.kind != NodeKind::kTransformer &&
        pn.kind != NodeKind::kApplyModel) {
      return false;
    }
    if (pn.inputs.size() != 1) return false;
    const NodeFacts& f = flow.at(id);
    if (f.effect != EffectClass::kPure &&
        f.effect != EffectClass::kSeededDeterministic) {
      return false;
    }
    return !f.shape.IsTop() && !f.shape.IsBottom();
  };
  // a -> b is a fusible link: b is a's only live consumer, same mask.
  auto links = [&](int a, int b) {
    return eligible(b) && succ_count[static_cast<size_t>(a)] == 1 &&
           plan.nodes[static_cast<size_t>(a)].runtime ==
               plan.nodes[static_cast<size_t>(b)].runtime;
  };
  for (int id = 0; id < n; ++id) {
    if (!eligible(id)) continue;
    const int prev = plan.nodes[static_cast<size_t>(id)].inputs[0];
    if (eligible(prev) && links(prev, id)) continue;  // interior, not a head
    FusibleChain chain;
    chain.runtime = plan.nodes[static_cast<size_t>(id)].runtime;
    chain.nodes.push_back(id);
    int cur = id;
    while (succ_count[static_cast<size_t>(cur)] == 1) {
      const int nxt = sole_succ[static_cast<size_t>(cur)];
      if (!links(cur, nxt)) break;
      chain.nodes.push_back(nxt);
      cur = nxt;
    }
    if (chain.nodes.size() >= 2) out.push_back(std::move(chain));
  }
  return out;
}

ValidationReport ValidateFusedRegions(const PhysicalPlan& plan,
                                      const DataflowResult& flow) {
  ValidationReport report;
  const int n = static_cast<int>(plan.nodes.size());
  const bool have_facts = static_cast<int>(flow.facts.size()) == n;
  // Live-consumer lists, to prove interior outputs never escape the region.
  std::vector<std::vector<int>> succ(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
    if (!IsLive(pn)) continue;
    for (int in : pn.inputs) succ[static_cast<size_t>(in)].push_back(id);
  }
  for (const FusedRegion& region : plan.fused_regions) {
    if (region.nodes.size() < 2) {
      report.Add(Severity::kError, rules::kFusionStructure,
                 region.nodes.empty() ? -1 : region.nodes.front(),
                 "fused region r" + std::to_string(region.id) +
                     " has fewer than two members",
                 "drop the region (single nodes need no fusion)");
      continue;
    }
    for (size_t i = 0; i < region.nodes.size(); ++i) {
      const int id = region.nodes[i];
      if (id < 0 || id >= n) {
        report.Add(Severity::kError, rules::kFusionStructure, id,
                   "fused region r" + std::to_string(region.id) +
                       " references a node outside the plan",
                   "rebuild the region from live plan nodes");
        continue;
      }
      const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
      if (!IsLive(pn) ||
          (pn.kind != NodeKind::kTransformer &&
           pn.kind != NodeKind::kApplyModel) ||
          pn.inputs.size() != 1) {
        report.Add(Severity::kError, rules::kFusionStructure, id,
                   "fused member '" + pn.name +
                       "' is not a live single-input row-wise node",
                   "remove '" + pn.name + "' from region r" +
                       std::to_string(region.id));
        continue;
      }
      if (i > 0 && pn.inputs[0] != region.nodes[i - 1]) {
        report.Add(Severity::kError, rules::kFusionStructure, id,
                   "fused member '" + pn.name +
                       "' does not consume its region predecessor",
                   "split region r" + std::to_string(region.id) +
                       " at the broken edge");
      }
      if (pn.runtime != region.runtime || (i > 0 && pn.runtime !=
          plan.nodes[static_cast<size_t>(region.nodes[0])].runtime)) {
        report.Add(Severity::kError, rules::kFusionMask, id,
                   "fused member '" + pn.name +
                       "' straddles the train/runtime masks of region r" +
                       std::to_string(region.id),
                   "fuse train and runtime copies separately");
      }
      if (have_facts) {
        const NodeFacts& f = flow.at(id);
        if (f.effect != EffectClass::kPure &&
            f.effect != EffectClass::kSeededDeterministic) {
          report.Add(Severity::kError, rules::kFusionEffect, id,
                     "fused member '" + pn.name + "' has effect class " +
                         EffectClassName(f.effect),
                     "only pure or seeded-deterministic operators may fuse");
        }
        if (f.shape.IsTop() || f.shape.IsBottom()) {
          report.Add(Severity::kError, rules::kFusionShape, id,
                     "fused member '" + pn.name +
                         "' has no concrete inferred shape",
                     "declare a transfer function so fusion can prove "
                     "shape agreement");
        }
      }
      const bool interior = i + 1 < region.nodes.size();
      if (interior) {
        for (int s : succ[static_cast<size_t>(id)]) {
          if (s != region.nodes[i + 1]) {
            report.Add(Severity::kError, rules::kFusionStructure, id,
                       "interior fused member '" + pn.name +
                           "' has a consumer outside region r" +
                           std::to_string(region.id),
                       "end the region at '" + pn.name +
                           "' so its output materializes");
            break;
          }
        }
        if (id < static_cast<int>(plan.cache_set.size()) &&
            plan.cache_set[static_cast<size_t>(id)]) {
          report.Add(Severity::kError, rules::kFusionCachedInterior, id,
                     "interior fused member '" + pn.name +
                         "' is in the cache set but its output is never "
                         "materialized",
                     "split region r" + std::to_string(region.id) +
                         " after '" + pn.name + "' or drop it from the "
                         "cache set");
        }
      }
    }
  }
  return report;
}

void RecordFusibility(const PhysicalPlan& plan, const DataflowResult& flow) {
  for (const FusibleChain& chain : FusibleChains(plan, flow)) {
    obs::FusionCandidate cand;
    cand.nodes = chain.nodes;
    cand.path = chain.runtime ? "runtime" : "train";
    for (int id : chain.nodes) {
      cand.ops.push_back(plan.nodes[static_cast<size_t>(id)].name);
    }
    cand.input_shape = flow.at(chain.nodes.front()).input_shape.ToString();
    cand.output_shape = flow.at(chain.nodes.back()).shape.ToString();
    plan.decision_log->RecordFusionCandidate(std::move(cand));
  }
}

namespace {

/// Marginal per-record seconds from a node's sampling profile: the slope
/// between the two sample points (which cancels any fixed per-run setup),
/// falling back to the large-sample average rate. Negative when the node
/// was never profiled.
double ProfiledSecondsPerRecord(const ProfileEntry& profile) {
  if (profile.records_large == 0) return -1.0;
  if (profile.records_small > 0 &&
      profile.records_large > profile.records_small) {
    const double slope =
        (profile.seconds_large - profile.seconds_small) /
        static_cast<double>(profile.records_large - profile.records_small);
    if (slope >= 0.0) return slope;
  }
  return profile.seconds_large / static_cast<double>(profile.records_large);
}

/// The fit-time profile that prices runtime node `id` per record. Runtime
/// copies are never profiled themselves (sampling runs the train path), but
/// they share their logical operator with a train twin that was: for
/// transformers, the train node holding the same operator instance; for
/// apply-model nodes, the train-side apply of the same estimator. Negative
/// when no profiled twin exists.
double TwinProfiledRate(const PhysicalPlan& plan, int id) {
  const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
  const double own = ProfiledSecondsPerRecord(pn.profile);
  if (own >= 0.0) return own;
  for (const PlannedNode& twin : plan.nodes) {
    if (!twin.train || twin.id == id || twin.kind != pn.kind) continue;
    if (pn.kind == NodeKind::kApplyModel) {
      if (twin.model_input != pn.model_input) continue;
    } else if (pn.physical_transformer == nullptr ||
               twin.physical_transformer != pn.physical_transformer) {
      continue;
    }
    const double rate = ProfiledSecondsPerRecord(twin.profile);
    if (rate >= 0.0) return rate;
  }
  return -1.0;
}

}  // namespace

double StaticServingSecondsPerRecord(
    const PhysicalPlan& plan,
    const std::map<int, std::shared_ptr<TransformerBase>>& models) {
  if (plan.graph == nullptr) return -1.0;
  double total = 0.0;
  bool any = false;
  const int n = static_cast<int>(plan.nodes.size());
  for (int id = 0; id < n; ++id) {
    const PlannedNode& pn = plan.nodes[static_cast<size_t>(id)];
    if (!pn.runtime) continue;
    if (pn.kind != NodeKind::kTransformer && pn.kind != NodeKind::kGather &&
        pn.kind != NodeKind::kApplyModel) {
      continue;
    }
    if (!pn.dataflow_annotated || pn.inputs.empty()) return -1.0;
    const PlannedNode& in_node =
        plan.nodes[static_cast<size_t>(pn.inputs[0])];
    if (!in_node.dataflow_annotated) return -1.0;
    // Prefer the fit-time sampling profile (observed kernel costs on this
    // very operator), which is what the serving ledger will charge; price
    // with the cost model at the statically inferred one-record input only
    // when the optimizer never profiled the node or a twin.
    const double profiled = TwinProfiledRate(plan, id);
    if (profiled >= 0.0) {
      total += profiled;
      any = true;
      continue;
    }
    const DataStats in_stats = OneRecordStats(in_node);
    CostProfile cost;
    if (pn.kind == NodeKind::kApplyModel) {
      const auto it = models.find(pn.model_input);
      if (it == models.end() || it->second == nullptr) return -1.0;
      cost = it->second->EstimateCost(in_stats, plan.resources.num_nodes);
    } else {
      if (pn.physical_transformer == nullptr) return -1.0;
      cost = pn.physical_transformer->EstimateCost(in_stats,
                                                   plan.resources.num_nodes);
    }
    total += plan.resources.SecondsFor(cost);
    any = true;
  }
  if (!any) return -1.0;
  // The apply entry point also charges loading the request batch from disk
  // (FittedPipelineUntyped::Apply's "LoadTest" stage) — for small feature
  // vectors this is the dominant per-record serving cost. Price it from the
  // placeholder's statically inferred record size.
  if (plan.placeholder >= 0 &&
      plan.placeholder < static_cast<int>(plan.nodes.size())) {
    const PlannedNode& ph =
        plan.nodes[static_cast<size_t>(plan.placeholder)];
    if (!ph.dataflow_annotated) return -1.0;
    const DataStats ph_stats = OneRecordStats(ph);
    total += plan.resources.DiskReadSeconds(
        ph_stats.bytes_per_record /
        std::max(1, plan.resources.num_nodes));
  }
  return total;
}

}  // namespace analysis
}  // namespace keystone
