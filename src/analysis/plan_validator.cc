#include "src/analysis/plan_validator.h"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/dataflow.h"

namespace keystone {
namespace analysis {

namespace {

std::string NodeLabel(const PipelineGraph& graph, int id) {
  std::ostringstream os;
  os << NodeKindName(graph.node(id).kind) << " '" << graph.node(id).name
     << "'";
  return os.str();
}

/// Per-node structural rules: arity by kind, payload presence, edge
/// direction, model_input discipline, estimator-output consumption.
/// Returns true when every edge (input + model_input) is in range and
/// backward, i.e. graph traversals are safe.
bool CheckStructure(const PipelineGraph& graph, ValidationReport* report) {
  bool edges_ok = true;
  for (int id = 0; id < graph.size(); ++id) {
    const GraphNode& node = graph.node(id);
    const int arity = static_cast<int>(node.inputs.size());

    for (int dep : node.inputs) {
      if (dep < 0 || dep >= graph.size()) {
        report->Add(Severity::kError, rules::kEdgeOutOfRange, id,
                    "input edge points at nonexistent node " +
                        std::to_string(dep));
        edges_ok = false;
      } else if (dep >= id) {
        report->Add(Severity::kError, rules::kEdgeForward, id,
                    "input edge from node " + std::to_string(dep) +
                        " breaks the append-only topological order");
        edges_ok = false;
      } else if (graph.node(dep).kind == NodeKind::kEstimator) {
        report->Add(Severity::kError, rules::kDatasetEstimatorOutput, id,
                    NodeLabel(graph, id) + " consumes the model output of " +
                        NodeLabel(graph, dep) +
                        " as a dataset (models flow through model_input)");
      }
    }

    if (node.model_input >= 0 && node.kind != NodeKind::kApplyModel) {
      report->Add(Severity::kError, rules::kModelOnNonApply, id,
                  NodeLabel(graph, id) + " has a model_input but only "
                  "ApplyModel nodes consume models");
    }

    switch (node.kind) {
      case NodeKind::kSource:
      case NodeKind::kPlaceholder:
        if (arity != 0) {
          report->Add(Severity::kError, rules::kAritySource, id,
                      NodeLabel(graph, id) + " must have 0 inputs, has " +
                          std::to_string(arity));
        }
        if (node.kind == NodeKind::kSource && node.bound_data == nullptr) {
          report->Add(Severity::kError, rules::kPayloadMissing, id,
                      NodeLabel(graph, id) + " has no bound dataset");
        }
        break;
      case NodeKind::kTransformer:
        if (arity != 1) {
          report->Add(Severity::kError, rules::kArityTransformer, id,
                      NodeLabel(graph, id) + " must have exactly 1 input, "
                      "has " + std::to_string(arity));
        }
        if (node.transformer == nullptr) {
          report->Add(Severity::kError, rules::kPayloadMissing, id,
                      NodeLabel(graph, id) + " has no transformer payload");
        }
        break;
      case NodeKind::kEstimator:
        if (arity < 1 || arity > 2) {
          report->Add(Severity::kError, rules::kArityEstimator, id,
                      NodeLabel(graph, id) + " must have 1 (data) or 2 "
                      "(data, labels) inputs, has " + std::to_string(arity));
        }
        if (node.estimator == nullptr) {
          report->Add(Severity::kError, rules::kPayloadMissing, id,
                      NodeLabel(graph, id) + " has no estimator payload");
        }
        break;
      case NodeKind::kApplyModel: {
        if (arity != 1) {
          report->Add(Severity::kError, rules::kArityApplyModel, id,
                      NodeLabel(graph, id) + " must have exactly 1 data "
                      "input, has " + std::to_string(arity));
        }
        const int model = node.model_input;
        if (model < 0) {
          report->Add(Severity::kError, rules::kModelMissing, id,
                      NodeLabel(graph, id) +
                          " has no model_input; ApplyModel needs the "
                          "estimator node that supplies its model");
        } else if (model >= graph.size()) {
          report->Add(Severity::kError, rules::kEdgeOutOfRange, id,
                      "model_input points at nonexistent node " +
                          std::to_string(model));
          edges_ok = false;
        } else if (model >= id) {
          report->Add(Severity::kError, rules::kEdgeForward, id,
                      "model_input from node " + std::to_string(model) +
                          " breaks the append-only topological order");
          edges_ok = false;
        } else if (graph.node(model).kind != NodeKind::kEstimator) {
          report->Add(Severity::kError, rules::kModelNotEstimator, id,
                      NodeLabel(graph, id) + " model_input points at " +
                          NodeLabel(graph, model) +
                          ", which is not an estimator");
        }
        break;
      }
      case NodeKind::kGather:
        if (arity < 1) {
          report->Add(Severity::kError, rules::kArityGather, id,
                      NodeLabel(graph, id) + " must gather at least 1 "
                      "input");
        }
        if (node.transformer == nullptr) {
          report->Add(Severity::kError, rules::kPayloadMissing, id,
                      NodeLabel(graph, id) + " has no gather payload");
        }
        break;
    }
  }
  return edges_ok;
}

/// Whole-graph rules that need safe traversal: placeholder discipline,
/// reachability from the sink, missed CSE.
void CheckGraphRules(const PipelineGraph& graph,
                     const PlanValidationOptions& options,
                     ValidationReport* report) {
  // Estimators are fit at training time on bound data; a training path
  // that reaches back to a runtime placeholder can never execute
  // (the executor would abort mid-fit).
  for (int p = 0; p < graph.size(); ++p) {
    if (graph.node(p).kind != NodeKind::kPlaceholder) continue;
    const std::vector<bool> downstream = graph.ReachableFrom(p);
    for (int id = 0; id < graph.size(); ++id) {
      if (downstream[id] && graph.node(id).kind == NodeKind::kEstimator) {
        report->Add(Severity::kError, rules::kPlaceholderTrainPath, id,
                    NodeLabel(graph, id) + " transitively consumes "
                    "placeholder '" + graph.node(p).name +
                        "'; estimators must be fit on bound training data");
      }
    }
  }

  if (options.placeholder >= 0) {
    if (options.placeholder >= graph.size() ||
        graph.node(options.placeholder).kind != NodeKind::kPlaceholder) {
      report->Add(Severity::kError, rules::kPlaceholderInvalid,
                  options.placeholder,
                  "declared runtime input is not a Placeholder node");
    }
  }

  if (options.sink >= 0) {
    if (options.sink >= graph.size()) {
      report->Add(Severity::kError, rules::kEdgeOutOfRange, options.sink,
                  "sink points at a nonexistent node");
    } else {
      const std::vector<bool> needed = graph.AncestorsOf(options.sink);
      for (int id = 0; id < graph.size(); ++id) {
        if (!needed[id] && options.warn_unreachable) {
          report->Add(Severity::kWarning, rules::kUnreachable, id,
                      NodeLabel(graph, id) +
                          " does not feed the sink and will never execute");
        }
        // A second placeholder feeding the sink would stay unbound when
        // the fitted pipeline is applied.
        if (needed[id] && options.placeholder >= 0 &&
            id != options.placeholder &&
            graph.node(id).kind == NodeKind::kPlaceholder) {
          report->Add(Severity::kError, rules::kPlaceholderUnbound, id,
                      "placeholder '" + graph.node(id).name +
                          "' feeds the sink but is not the declared "
                          "runtime input; it can never be bound");
        }
      }
    }
  }

  if (options.expect_cse) {
    // Re-run CSE on a scratch copy; anything it would still merge among
    // the nodes that actually feed the sink is a structurally identical
    // subgraph that survived optimization. (CSE leaves merged duplicates
    // behind as dead nodes; those re-merge trivially and do not count.)
    PipelineGraph scratch = graph;
    std::vector<int> canon;
    scratch.EliminateCommonSubexpressions(&canon);
    std::vector<bool> needed(graph.size(), true);
    if (options.sink >= 0 && options.sink < graph.size()) {
      needed = graph.AncestorsOf(options.sink);
    }
    int missed = 0;
    for (int id = 0; id < graph.size(); ++id) {
      if (needed[id] && canon[id] != id) ++missed;
    }
    if (missed > 0) {
      report->Add(Severity::kWarning, rules::kMissedCse, -1,
                  std::to_string(missed) +
                      " structurally identical node(s) survived common "
                      "sub-expression elimination");
    }
  }
}

bool Invalid(double v) { return !std::isfinite(v) || v < 0.0; }

}  // namespace

ValidationReport PlanValidator::Validate(const PipelineGraph& graph) const {
  ValidationReport report;
  if (CheckStructure(graph, &report)) {
    CheckGraphRules(graph, options_, &report);
  }
  return report;
}

ValidationReport PlanValidator::ValidatePlan(
    const MaterializationProblem& problem,
    const std::vector<bool>& cache_set) const {
  ValidationReport report;
  const PipelineGraph& graph = *problem.graph;
  if (static_cast<int>(cache_set.size()) != graph.size() ||
      static_cast<int>(problem.info.size()) != graph.size()) {
    report.Add(Severity::kError, rules::kCacheSetSize, -1,
               "cache set covers " + std::to_string(cache_set.size()) +
                   " nodes and runtime info " +
                   std::to_string(problem.info.size()) + ", but the graph "
                   "has " + std::to_string(graph.size()));
    return report;
  }

  for (int id = 0; id < graph.size(); ++id) {
    const NodeRuntimeInfo& info = problem.info[id];
    if (cache_set[id] && !info.live) {
      report.Add(Severity::kWarning, rules::kCacheDeadNode, id,
                 "cache set materializes a node that never executes");
    }
    if (cache_set[id] && info.live && !info.cacheable) {
      report.Add(Severity::kError, rules::kCacheNotCacheable, id,
                 "cache set materializes a node marked non-cacheable");
    }
    if (!info.live) continue;
    if (Invalid(info.compute_seconds)) {
      report.Add(Severity::kError, rules::kCostInvalid, id,
                 "compute_seconds is negative or non-finite (" +
                     std::to_string(info.compute_seconds) + ")");
    }
    if (Invalid(info.output_bytes)) {
      report.Add(Severity::kError, rules::kCostInvalid, id,
                 "output_bytes is negative or non-finite (" +
                     std::to_string(info.output_bytes) + ")");
    }
    if (info.weight < 1) {
      report.Add(Severity::kError, rules::kCostInvalid, id,
                 "iterative weight must be >= 1, is " +
                     std::to_string(info.weight));
    }
  }

  if (Invalid(problem.memory_budget_bytes)) {
    report.Add(Severity::kError, rules::kCostInvalid, -1,
               "memory budget is negative or non-finite");
  } else {
    const double used = CacheSetBytes(problem, cache_set);
    // Tolerate rounding at the boundary: the planner itself admits nodes
    // by `used + bytes <= budget`.
    if (used > problem.memory_budget_bytes * (1.0 + 1e-9) + 1.0) {
      std::ostringstream os;
      os << "cache set needs " << used << " bytes but the cluster budget "
         << "is " << problem.memory_budget_bytes;
      report.Add(Severity::kError, rules::kCacheOverBudget, -1, os.str());
    }
  }
  return report;
}

void CheckCostProfile(const CostProfile& cost, int node,
                      const std::string& what, ValidationReport* report) {
  const struct {
    const char* name;
    double value;
  } fields[] = {{"flops", cost.flops},
                {"bytes", cost.bytes},
                {"network", cost.network},
                {"rounds", cost.rounds}};
  for (const auto& field : fields) {
    if (Invalid(field.value)) {
      std::ostringstream os;
      os << what << " cost profile has negative or non-finite "
         << field.name << " (" << field.value << ")";
      report->Add(Severity::kError, rules::kCostProfile, node, os.str());
    }
  }
}

ValidationReport ValidateFaultConfig(
    const faults::FaultInjectionConfig& config) {
  ValidationReport report;
  auto check_rate = [&](const char* name, double rate) {
    if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
      std::ostringstream os;
      os << name << " must be a probability in [0, 1], got " << rate;
      report.Add(Severity::kError, rules::kFaultRate, -1, os.str());
    }
  };
  check_rate("task_failure_rate", config.task_failure_rate);
  check_rate("executor_loss_rate", config.executor_loss_rate);
  check_rate("straggler_rate", config.straggler_rate);
  // The two failure kinds partition a single uniform draw, so their sum is
  // itself a probability.
  if (std::isfinite(config.task_failure_rate) &&
      std::isfinite(config.executor_loss_rate) &&
      config.task_failure_rate + config.executor_loss_rate > 1.0) {
    std::ostringstream os;
    os << "task_failure_rate + executor_loss_rate must not exceed 1, got "
       << config.task_failure_rate + config.executor_loss_rate;
    report.Add(Severity::kError, rules::kFaultRate, -1, os.str());
  }

  if (config.retry.max_retries < 0) {
    std::ostringstream os;
    os << "max_retries must be non-negative, got "
       << config.retry.max_retries;
    report.Add(Severity::kError, rules::kFaultRetry, -1, os.str());
  }
  if (!std::isfinite(config.retry.backoff_base_seconds) ||
      config.retry.backoff_base_seconds < 0.0) {
    std::ostringstream os;
    os << "backoff_base_seconds must be finite and non-negative, got "
       << config.retry.backoff_base_seconds;
    report.Add(Severity::kError, rules::kFaultRetry, -1, os.str());
  }
  if (!std::isfinite(config.retry.backoff_multiplier) ||
      config.retry.backoff_multiplier < 1.0) {
    std::ostringstream os;
    os << "backoff_multiplier must be >= 1 (exponential backoff), got "
       << config.retry.backoff_multiplier;
    report.Add(Severity::kError, rules::kFaultRetry, -1, os.str());
  }

  if (!std::isfinite(config.straggler_multiplier) ||
      config.straggler_multiplier < 1.0) {
    std::ostringstream os;
    os << "straggler_multiplier must be >= 1 (a slowdown), got "
       << config.straggler_multiplier;
    report.Add(Severity::kError, rules::kFaultStraggler, -1, os.str());
  }
  if (!std::isfinite(config.speculation_cap) ||
      config.speculation_cap < 1.0) {
    std::ostringstream os;
    os << "speculation_cap must be >= 1, got " << config.speculation_cap;
    report.Add(Severity::kError, rules::kFaultStraggler, -1, os.str());
  }
  return report;
}

ValidationReport ValidateServablePlan(
    const PhysicalPlan& plan,
    const std::map<int, std::shared_ptr<TransformerBase>>* models) {
  ValidationReport report;
  const int n = static_cast<int>(plan.nodes.size());
  if (plan.placeholder < 0 || plan.placeholder >= n) {
    report.Add(Severity::kError, rules::kServePlaceholderMissing,
               plan.placeholder,
               "plan has no runtime placeholder: nothing binds the request "
               "input at serve time");
    return report;  // The runtime mask is meaningless without one.
  }

  if (plan.NumRuntimeNodes() == 0) {
    report.Add(Severity::kError, rules::kServeEmptyRuntimePath,
               plan.placeholder,
               "runtime mask is empty: no node consumes the placeholder on "
               "a path to the sink");
  }
  if (plan.sink >= 0 && plan.sink < n && !plan.nodes[plan.sink].runtime) {
    report.Add(Severity::kError, rules::kServeTrainOnlyTerminal, plan.sink,
               "sink '" + plan.nodes[plan.sink].name +
                   "' is not on the runtime path: the response terminal is "
                   "train-only and will be stripped");
  }

  for (const PlannedNode& pn : plan.nodes) {
    if (!pn.runtime) continue;
    const GraphNode& node = plan.graph->node(pn.id);
    switch (pn.kind) {
      case NodeKind::kEstimator:
        report.Add(Severity::kError, rules::kServeEstimatorOnRuntimePath,
                   pn.id,
                   "estimator '" + pn.name +
                       "' sits on the runtime path; fitting cannot run per "
                       "request (models must be fitted ahead of serving)");
        break;
      case NodeKind::kSource:
        if (node.bound_data == nullptr) {
          report.Add(Severity::kError, rules::kServeUnboundSource, pn.id,
                     "source '" + pn.name +
                         "' on the runtime path has no bound dataset");
        }
        break;
      case NodeKind::kPlaceholder:
        // The plan's own placeholder is excluded from the runtime mask by
        // construction, so any placeholder seen here is a second, unbound
        // request input nothing will feed.
        report.Add(Severity::kError, rules::kServeUnboundSource, pn.id,
                   "placeholder '" + pn.name +
                       "' on the runtime path is not the plan's runtime "
                       "input and nothing binds it at serve time");
        break;
      default:
        break;
    }

    for (int dep : pn.inputs) {
      if (dep < 0 || dep >= n) continue;  // structural rules cover this
      if (dep == plan.placeholder || plan.nodes[dep].runtime) continue;
      report.Add(Severity::kError, rules::kServeTrainDependency, pn.id,
                 "runtime node '" + pn.name + "' reads dataset output of '" +
                     plan.nodes[dep].name +
                     "' which is train-only and unavailable at serve time");
    }

    if (pn.kind == NodeKind::kApplyModel && models != nullptr) {
      const auto it = models->find(pn.model_input);
      if (it == models->end()) {
        report.Add(Severity::kError, rules::kServeModelMissing, pn.id,
                   "apply-model node '" + pn.name +
                       "' has no fitted model for estimator node " +
                       std::to_string(pn.model_input));
      } else if (it->second != nullptr && pn.dataflow_annotated &&
                 !pn.inputs.empty()) {
        // With the plan annotated by the dataflow pass, check the request
        // stream's inferred shape against what the *fitted* model demands
        // (fitted models know their exact input width — e.g. a linear map
        // knows its weight matrix — which the estimator's static declaration
        // may not).
        const PlannedNode& in_node = plan.nodes[pn.inputs[0]];
        if (in_node.dataflow_annotated) {
          const ValueShape required = it->second->InputShapeRequirement();
          const ValueShape incoming = in_node.inferred_shape;
          if (incoming.Meet(required).IsBottom() && !incoming.IsBottom() &&
              !required.IsBottom()) {
            report.Add(Severity::kError, rules::kShapeModelInput,
                       pn.id,
                       "request stream shape " + incoming.ToString() +
                           " disagrees with the fitted model's required " +
                           required.ToString() + " at '" + pn.name + "'",
                       "insert Reshape(" + incoming.ToString() + "->" +
                           required.ToString() + ") before node " +
                           std::to_string(pn.id));
          }
        }
      }
    }

    // Effect placement on the serving path, from the plan's dataflow
    // annotations: stateful or train-only nodes would replay differently
    // (or not at all) per request.
    if (pn.dataflow_annotated && pn.kind != NodeKind::kEstimator) {
      CheckServingEffect(pn, pn.effect, &report);
    }
  }
  return report;
}

ValidationReport ValidateReuseMarkers(const PhysicalPlan& plan) {
  ValidationReport report;
  for (const PlannedNode& pn : plan.nodes) {
    if (!pn.reused && !pn.reuse_pruned) continue;
    // Only train transformer/gather outputs can come from the catalog;
    // pruned nodes can be of any kind (a reused node's source chain is
    // pruned along with its transformers) but must still be on the train
    // path — pruning a runtime-only node would be meaningless.
    const bool data_node =
        pn.kind == NodeKind::kTransformer || pn.kind == NodeKind::kGather;
    if (!pn.train || (pn.reused && !data_node)) {
      report.Add(Severity::kError, rules::kReusePrunedDemand, pn.id,
                 std::string(pn.reused ? "reused" : "reuse-pruned") +
                     " marker on '" + pn.name + "' (" +
                     NodeKindName(pn.kind) +
                     "): only train transformer/gather outputs can come "
                     "from the artifact catalog");
    }
    if (pn.reused && pn.reuse_pruned) {
      report.Add(Severity::kError, rules::kReusePrunedDemand, pn.id,
                 "node '" + pn.name +
                     "' is both reused and reuse-pruned: a pruned node "
                     "must not execute, a reused one must");
    }
  }
  // Pruning is only sound below a reused node: every executing train node
  // must still have all of its train inputs available.
  const int n = static_cast<int>(plan.nodes.size());
  for (const PlannedNode& pn : plan.nodes) {
    if (!pn.train || pn.reuse_pruned || pn.reused) continue;
    auto check_dep = [&](int dep) {
      if (dep < 0 || dep >= n) return;
      const PlannedNode& in_node = plan.nodes[dep];
      if (in_node.train && in_node.reuse_pruned) {
        report.Add(Severity::kError, rules::kReusePrunedDemand, pn.id,
                   "executing train node '" + pn.name +
                       "' consumes reuse-pruned input '" + in_node.name +
                       "' which the fit pass will never produce");
      }
    };
    for (int dep : pn.inputs) check_dep(dep);
    check_dep(pn.model_input);
  }
  return report;
}

}  // namespace analysis
}  // namespace keystone
