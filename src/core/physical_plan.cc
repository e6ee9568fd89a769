#include "src/core/physical_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/string_util.h"

namespace keystone {

namespace {

/// Resolves the physical operator for a planned node from its logical node
/// and chosen option: the selected (or default) option for Optimizable
/// operators, the logical operator itself otherwise. Sources carry data;
/// placeholders and apply-model nodes resolve their operator (the runtime
/// input / the fitted model) at run time.
void ResolvePhysical(const GraphNode& node, PlannedNode* pn) {
  pn->optimizable = false;
  pn->physical_transformer = nullptr;
  pn->physical_estimator = nullptr;
  pn->physical_name.clear();
  pn->weight = 1;
  const OperatorBase* op = node.op();
  if (op == nullptr) return;
  std::shared_ptr<OperatorBase> option;
  if (op->NumOptions() > 0) {
    pn->optimizable = true;
    const int index = pn->chosen_option >= 0 ? pn->chosen_option : 0;
    KS_CHECK_LT(index, op->NumOptions());
    option = op->Option(index);
    pn->physical_name = option->Name();
    op = option.get();
  }
  // An option is of its logical operator's kind.
  if (node.kind == NodeKind::kEstimator) {
    pn->physical_estimator =
        option ? std::static_pointer_cast<EstimatorBase>(option)
               : node.estimator;
  } else {
    pn->physical_transformer =
        option ? std::static_pointer_cast<TransformerBase>(option)
               : node.transformer;
  }
  pn->weight = op->Weight();
}

/// `Name` plus the operator's parameter digest, so two instances of one
/// operator class configured differently never share a signature. A
/// Scale(2) and a Scale(3) produce different data; keying the profile
/// store or the artifact catalog on the bare class name would let one
/// stand in for the other.
std::string ParamQualifiedName(const OperatorBase& op) {
  const std::string params = op.ParamSignature();
  return params.empty() ? op.Name() : op.Name() + "(" + params + ")";
}

/// The rename-stable part of a node's identity: the logical operator's
/// signature, independent of the user-facing node name.
std::string OperatorSignature(const PipelineGraph& graph,
                              const GraphNode& node) {
  switch (node.kind) {
    case NodeKind::kSource:
      return "source";
    case NodeKind::kPlaceholder:
      return "placeholder";
    case NodeKind::kTransformer:
    case NodeKind::kGather:
    case NodeKind::kEstimator:
      return ParamQualifiedName(*node.op());
    case NodeKind::kApplyModel: {
      const GraphNode& est = graph.node(node.model_input);
      return "apply(" + (est.estimator != nullptr
                             ? ParamQualifiedName(*est.estimator)
                             : est.name) +
             ")";
    }
  }
  return "?";
}

// JSON escaping/number rendering come from common/string_util (shared with
// the obs exporters).

}  // namespace

const char* CachePolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone:
      return "none";
    case CachePolicy::kRuleBased:
      return "rule-based";
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kGreedy:
      return "greedy";
    case CachePolicy::kExhaustive:
      return "exhaustive";
  }
  return "?";
}

OptimizationConfig OptimizationConfig::None() {
  OptimizationConfig cfg;
  cfg.operator_selection = false;
  cfg.common_subexpression = false;
  cfg.cache_policy = CachePolicy::kNone;
  cfg.operator_fusion = false;
  return cfg;
}

OptimizationConfig OptimizationConfig::PipeOnly() {
  OptimizationConfig cfg;
  cfg.operator_selection = false;
  cfg.common_subexpression = true;
  cfg.cache_policy = CachePolicy::kGreedy;
  return cfg;
}

OptimizationConfig OptimizationConfig::Full() { return OptimizationConfig(); }

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kProfileSmall:
      return "profile-small";
    case ExecMode::kProfileLarge:
      return "profile-large";
    case ExecMode::kFit:
      return "fit";
    case ExecMode::kApply:
      return "apply";
  }
  return "?";
}

void PhysicalPlan::SetChosenOption(int id, int option) {
  KS_CHECK(id >= 0 && id < static_cast<int>(nodes.size()));
  const OperatorBase* key = graph->node(id).op();
  KS_CHECK(key != nullptr) << "node " << id << " has no operator to choose";
  // Train-time copies and their runtime counterparts share the Optimizable
  // instance (CopyWithSubstitution shares operators), so one selection
  // binds every node carrying that instance.
  for (PlannedNode& pn : nodes) {
    if (!pn.optimizable) continue;
    if (graph->node(pn.id).op() != key) continue;
    pn.chosen_option = option;
    ResolvePhysical(graph->node(pn.id), &pn);
  }
}

int PhysicalPlan::NumOptions(int id) const {
  KS_CHECK(id >= 0 && id < static_cast<int>(nodes.size()));
  const OperatorBase* op = graph->node(id).op();
  return op == nullptr ? 0 : op->NumOptions();
}

int PhysicalPlan::NumTrainNodes() const {
  int n = 0;
  for (const PlannedNode& pn : nodes) n += pn.train ? 1 : 0;
  return n;
}

int PhysicalPlan::NumRuntimeNodes() const {
  int n = 0;
  for (const PlannedNode& pn : nodes) n += pn.runtime ? 1 : 0;
  return n;
}

std::string PhysicalPlan::ToString(bool runtime_only) const {
  std::ostringstream os;
  os << "PhysicalPlan{policy=" << CachePolicyName(config.cache_policy)
     << ", opsel=" << (config.operator_selection ? "on" : "off")
     << ", cse=" << (cse_applied ? "applied" : "off") << "/" << cse_eliminated
     << " eliminated, nodes=" << nodes.size() << " (train=" << NumTrainNodes()
     << ", runtime=" << NumRuntimeNodes() << ")"
     << ", placeholder=" << placeholder << ", sink=" << sink
     << ", budget=" << HumanBytes(cache_budget_bytes)
     << ", optimize=" << HumanSeconds(optimize_seconds)
     << ", profiles=" << (profiles_from_store ? "store" : "live");
  if (runtime_only) os << ", view=runtime";
  os << "}\n";
  for (const PlannedNode& pn : nodes) {
    if (runtime_only ? !pn.runtime : (!pn.train && !pn.runtime)) continue;
    os << "  [" << pn.id << "] " << pn.name;
    if (!pn.physical_name.empty()) {
      os << " -> " << pn.physical_name << " (option " << pn.chosen_option
         << ")";
    }
    os << " (" << NodeKindName(pn.kind) << ")";
    if (pn.train) os << " train";
    if (pn.runtime) os << " runtime";
    if (pn.cached) os << " cached";
    if (pn.fused_region >= 0) os << " fused=r" << pn.fused_region;
    if (pn.reused) {
      os << " reused(" << decision_log->AcceptedReuse(pn.id).tier << ")";
    }
    if (pn.reuse_pruned) os << " reuse-pruned";
    os << "\n      fp=\"" << pn.fingerprint << "\" inputs=[";
    for (size_t i = 0; i < pn.inputs.size(); ++i) {
      if (i > 0) os << ",";
      os << pn.inputs[i];
    }
    os << "]";
    if (pn.model_input >= 0) os << " model=" << pn.model_input;
    os << " in=" << pn.input_records << " full=" << pn.full_records
       << " w=" << pn.weight;
    if (materialized && pn.train) {
      os << " est=" << HumanSeconds(pn.est_seconds)
         << " out=" << HumanBytes(pn.est_output_bytes);
    }
    if (pn.train && (pn.profile.records_small > 0 ||
                     pn.profile.records_large > 0)) {
      os << "\n      profile: " << HumanSeconds(pn.profile.seconds_small)
         << "@" << pn.profile.records_small << " / "
         << HumanSeconds(pn.profile.seconds_large) << "@"
         << pn.profile.records_large << ", "
         << HumanBytes(pn.profile.bytes_per_record) << "/rec";
    }
    if (pn.reused) {
      const obs::ReuseDecision reuse = decision_log->AcceptedReuse(pn.id);
      os << "\n      reuse: key=\"" << pn.lineage_fingerprint << "\" gen="
         << reuse.entry_generation << " load="
         << HumanSeconds(reuse.load_seconds) << " "
         << HumanBytes(reuse.entry_bytes);
    }
    if (pn.dataflow_annotated) {
      os << "\n      dataflow: shape=" << pn.inferred_shape.ToString()
         << " card=" << pn.cardinality.ToString()
         << " effect=" << EffectClassName(pn.effect);
      if (pn.inferred_bytes_per_record >= 0) {
        os << " " << HumanBytes(pn.inferred_bytes_per_record) << "/rec";
      }
    }
    os << "\n";
  }
  // Fused regions visible in this view: every region in the full view, the
  // runtime (servable) ones in the runtime view. Members above are listed
  // once with their `fused=r<k>` tag, not re-expanded as independent nodes.
  bool any_region = false;
  for (const FusedRegion& region : fused_regions) {
    if (runtime_only && !region.runtime) continue;
    if (!any_region) os << "  fused regions:\n";
    any_region = true;
    os << "    r" << region.id << ": [";
    for (size_t i = 0; i < region.nodes.size(); ++i) {
      if (i > 0) os << " -> ";
      os << region.nodes[i];
    }
    os << "] " << (region.runtime ? "runtime" : "train") << " fp=\""
       << region.fingerprint << "\" saves "
       << HumanSeconds(region.est_saved_seconds) << " / "
       << HumanBytes(region.est_saved_bytes) << "\n";
  }
  if (!runtime_only) {
    if (!terminals.empty()) {
      os << "  terminals:";
      for (int t : terminals) os << " " << t;
      os << "\n";
    }
    if (!decision_log->Empty()) {
      os << decision_log->ToString();
    }
  }
  return os.str();
}

std::string PhysicalPlan::ToJson(bool runtime_only) const {
  std::ostringstream os;
  os << "{\"policy\":\"" << CachePolicyName(config.cache_policy) << "\""
     << ",\"view\":\"" << (runtime_only ? "runtime" : "full") << "\""
     << ",\"operator_selection\":"
     << (config.operator_selection ? "true" : "false")
     << ",\"common_subexpression\":"
     << (config.common_subexpression ? "true" : "false")
     << ",\"cse_applied\":" << (cse_applied ? "true" : "false")
     << ",\"cse_eliminated\":" << cse_eliminated
     << ",\"materialized\":" << (materialized ? "true" : "false")
     << ",\"profiles_from_store\":" << (profiles_from_store ? "true" : "false")
     << ",\"cache_budget_bytes\":" << JsonNumber(cache_budget_bytes)
     << ",\"optimize_seconds\":" << JsonNumber(optimize_seconds)
     << ",\"sink\":" << sink << ",\"placeholder\":" << placeholder
     << ",\"terminals\":[";
  for (size_t i = 0; i < terminals.size(); ++i) {
    if (i > 0) os << ",";
    os << terminals[i];
  }
  os << "],\"nodes\":[";
  bool first = true;
  for (const PlannedNode& pn : nodes) {
    if (runtime_only ? !pn.runtime : (!pn.train && !pn.runtime)) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << pn.id << ",\"name\":\"" << JsonEscape(pn.name)
       << "\",\"kind\":\"" << NodeKindName(pn.kind) << "\",\"inputs\":[";
    for (size_t i = 0; i < pn.inputs.size(); ++i) {
      if (i > 0) os << ",";
      os << pn.inputs[i];
    }
    os << "],\"model_input\":" << pn.model_input
       << ",\"train\":" << (pn.train ? "true" : "false")
       << ",\"runtime\":" << (pn.runtime ? "true" : "false")
       << ",\"optimizable\":" << (pn.optimizable ? "true" : "false")
       << ",\"chosen_option\":" << pn.chosen_option << ",\"physical\":\""
       << JsonEscape(pn.physical_name) << "\",\"fingerprint\":\""
       << JsonEscape(pn.fingerprint) << "\",\"lineage_fingerprint\":\""
       << JsonEscape(pn.lineage_fingerprint) << "\",\"input_records\":"
       << pn.input_records << ",\"full_records\":" << pn.full_records
       << ",\"weight\":" << pn.weight
       << ",\"cached\":" << (pn.cached ? "true" : "false");
    if (pn.fused_region >= 0) os << ",\"fused_region\":" << pn.fused_region;
    // Reuse markers render only when the ReusePass set them, so plans
    // compiled without a catalog keep their exact prior JSON shape.
    if (pn.reused) {
      const obs::ReuseDecision reuse = decision_log->AcceptedReuse(pn.id);
      os << ",\"reused\":true,\"reuse\":{\"fingerprint\":\""
         << JsonEscape(pn.lineage_fingerprint) << "\",\"generation\":"
         << reuse.entry_generation << ",\"tier\":\"" << JsonEscape(reuse.tier)
         << "\",\"load_seconds\":" << JsonNumber(reuse.load_seconds)
         << ",\"bytes\":" << JsonNumber(reuse.entry_bytes) << "}";
    }
    if (pn.reuse_pruned) os << ",\"reuse_pruned\":true";
    os << ",\"dataflow\":{\"annotated\":"
       << (pn.dataflow_annotated ? "true" : "false") << ",\"shape\":\""
       << pn.inferred_shape.ToString() << "\",\"shape_kind\":\""
       << ShapeKindName(pn.inferred_shape.kind) << "\",\"cardinality\":\""
       << pn.cardinality.ToString() << "\",\"effect\":\""
       << EffectClassName(pn.effect) << "\",\"bytes_per_record\":"
       << JsonNumber(pn.inferred_bytes_per_record) << "}"
       << ",\"est_seconds\":" << JsonNumber(pn.est_seconds)
       << ",\"est_output_bytes\":" << JsonNumber(pn.est_output_bytes)
       << ",\"profile\":{\"seconds_small\":"
       << JsonNumber(pn.profile.seconds_small)
       << ",\"seconds_large\":" << JsonNumber(pn.profile.seconds_large)
       << ",\"records_small\":" << pn.profile.records_small
       << ",\"records_large\":" << pn.profile.records_large
       << ",\"bytes_per_record\":" << JsonNumber(pn.profile.bytes_per_record)
       << ",\"full_records\":" << pn.profile.full_records << "}}";
  }
  os << "]";
  bool any_region = false;
  for (const FusedRegion& region : fused_regions) {
    if (runtime_only && !region.runtime) continue;
    os << (any_region ? "," : ",\"fused_regions\":[");
    any_region = true;
    os << "{\"id\":" << region.id << ",\"nodes\":[";
    for (size_t i = 0; i < region.nodes.size(); ++i) {
      if (i > 0) os << ",";
      os << region.nodes[i];
    }
    os << "],\"runtime\":" << (region.runtime ? "true" : "false")
       << ",\"fingerprint\":\"" << JsonEscape(region.fingerprint)
       << "\",\"est_saved_seconds\":" << JsonNumber(region.est_saved_seconds)
       << ",\"est_saved_bytes\":" << JsonNumber(region.est_saved_bytes) << "}";
  }
  if (any_region) os << "]";
  if (!runtime_only && !decision_log->Empty()) {
    os << ",\"decision_log\":" << decision_log->ToJson();
  }
  os << "}";
  return os.str();
}

PhysicalPlan LowerToPhysical(std::shared_ptr<PipelineGraph> graph,
                             int placeholder, int sink,
                             const OptimizationConfig& config,
                             const ClusterResourceDescriptor& resources) {
  PhysicalPlan plan;
  plan.graph = std::move(graph);
  plan.placeholder = placeholder;
  plan.sink = sink;
  plan.config = config;
  plan.resources = resources;
  RelowerPlan(&plan);
  return plan;
}

void RelowerPlan(PhysicalPlan* plan) {
  const PipelineGraph& graph = *plan->graph;
  const int n = graph.size();

  // Chosen options survive a relower (CSE keeps node ids stable; the
  // surviving node re-resolves from its saved choice).
  std::vector<int> prev_chosen(n, -1);
  for (const PlannedNode& pn : plan->nodes) {
    if (pn.id >= 0 && pn.id < n) prev_chosen[pn.id] = pn.chosen_option;
  }

  const auto live = graph.AncestorsOf(plan->sink);
  const auto runtime_mask = plan->placeholder >= 0
                                ? graph.ReachableFrom(plan->placeholder)
                                : std::vector<bool>(n, false);

  plan->nodes.assign(n, PlannedNode());
  plan->cache_set.assign(n, false);
  // Fusion decisions are tied to node identity; a graph rewrite invalidates
  // them (the FusionPass runs last, after any relowering pass).
  plan->fused_regions.clear();
  // Static full-scale cardinality flow, in (topological) id order:
  // sources emit their bound record count, record-wise operators preserve
  // their input's count, estimators emit a model (0 records), and the
  // runtime path (fed by the placeholder) is unknown until Apply.
  std::vector<size_t> flow(n, 0);
  for (int id = 0; id < n; ++id) {
    const GraphNode& node = graph.node(id);
    PlannedNode& pn = plan->nodes[id];
    pn.id = id;
    pn.kind = node.kind;
    pn.name = node.name;
    pn.inputs = node.inputs;
    pn.model_input = node.model_input;
    pn.train = live[id] && !runtime_mask[id];
    pn.runtime =
        runtime_mask[id] && live[id] && id != plan->placeholder;
    pn.chosen_option = prev_chosen[id];
    ResolvePhysical(node, &pn);

    switch (node.kind) {
      case NodeKind::kSource: {
        flow[id] = static_cast<size_t>(node.bound_data->NumRecords() *
                                       node.bound_data->virtual_scale());
        pn.input_records = flow[id];
        pn.full_records = flow[id];
        break;
      }
      case NodeKind::kPlaceholder:
        flow[id] = 0;
        break;
      case NodeKind::kEstimator:
        pn.input_records = node.inputs.empty() ? 0 : flow[node.inputs[0]];
        pn.full_records = 0;  // Output is a model, not a dataset.
        flow[id] = 0;
        break;
      default:
        pn.input_records = node.inputs.empty() ? 0 : flow[node.inputs[0]];
        pn.full_records = pn.input_records;
        flow[id] = pn.full_records;
        break;
    }
    std::ostringstream fp;
    fp << NodeKindName(node.kind) << "|" << OperatorSignature(graph, node)
       << "|" << pn.input_records;
    pn.fingerprint = fp.str();
    // Lineage fingerprint: the local fingerprint plus a hash folding in
    // every input's lineage identity, so the suffix stays fixed-width on
    // deep DAGs. Edges are forward (inputs < id), so inputs' lineage
    // fingerprints are already final in this id-order loop.
    uint64_t h = Fnv1a(kFnvOffsetBasis, pn.fingerprint);
    for (int in : node.inputs) {
      h = Fnv1a(h, plan->nodes[in].lineage_fingerprint);
    }
    if (node.model_input >= 0) {
      h = Fnv1a(h, plan->nodes[node.model_input].lineage_fingerprint);
    }
    char suffix[24];
    std::snprintf(suffix, sizeof(suffix), "#%016llx",
                  static_cast<unsigned long long>(h));  // NOLINT
    pn.lineage_fingerprint = pn.fingerprint + suffix;
  }

  // Train nodes demanded directly: no live train successor consumes them.
  plan->terminals.clear();
  const auto succ = graph.SuccessorLists();
  for (int id = 0; id < n; ++id) {
    if (!plan->nodes[id].train) continue;
    bool has_train_succ = false;
    for (int s : succ[id]) {
      if (plan->nodes[s].train && live[s]) has_train_succ = true;
    }
    if (!has_train_succ) plan->terminals.push_back(id);
  }
}

std::vector<bool> PureLineageMask(const PhysicalPlan& plan) {
  std::vector<bool> pure(plan.nodes.size(), false);
  for (const PlannedNode& pn : plan.nodes) {  // ids are topological
    switch (pn.kind) {
      case NodeKind::kSource:
        pure[pn.id] = true;
        break;
      case NodeKind::kTransformer:
      case NodeKind::kGather: {
        bool ok = pn.model_input < 0;
        for (int in : pn.inputs) ok = ok && pure[in];
        pure[pn.id] = ok;
        break;
      }
      default:
        break;
    }
  }
  return pure;
}

}  // namespace keystone
