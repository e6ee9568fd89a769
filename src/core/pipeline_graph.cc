#include "src/core/pipeline_graph.h"

#include <functional>
#include <map>
#include <sstream>
#include <tuple>

#include "src/common/check.h"

namespace keystone {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource:
      return "Source";
    case NodeKind::kPlaceholder:
      return "Placeholder";
    case NodeKind::kTransformer:
      return "Transformer";
    case NodeKind::kEstimator:
      return "Estimator";
    case NodeKind::kApplyModel:
      return "ApplyModel";
    case NodeKind::kGather:
      return "Gather";
  }
  return "?";
}

int PipelineGraph::AddNode(GraphNode node) {
  for (int dep : node.inputs) {
    KS_CHECK_GE(dep, 0);
    KS_CHECK_LT(dep, size());
  }
  if (node.model_input >= 0) {
    KS_CHECK_LT(node.model_input, size());
  }
  nodes_.push_back(std::move(node));
  return size() - 1;
}

int PipelineGraph::AddSource(AnyDataset data, std::string name) {
  GraphNode node;
  node.kind = NodeKind::kSource;
  node.name = std::move(name);
  node.bound_data = std::move(data);
  return AddNode(std::move(node));
}

int PipelineGraph::AddPlaceholder(std::string name) {
  GraphNode node;
  node.kind = NodeKind::kPlaceholder;
  node.name = std::move(name);
  return AddNode(std::move(node));
}

int PipelineGraph::AddTransformer(std::shared_ptr<TransformerBase> op,
                                  int input) {
  GraphNode node;
  node.kind = NodeKind::kTransformer;
  node.name = op->Name();
  node.transformer = std::move(op);
  node.inputs = {input};
  return AddNode(std::move(node));
}

int PipelineGraph::AddEstimator(std::shared_ptr<EstimatorBase> op,
                                int data_input, int label_input) {
  GraphNode node;
  node.kind = NodeKind::kEstimator;
  node.name = op->Name();
  node.estimator = std::move(op);
  node.inputs = {data_input};
  if (label_input >= 0) node.inputs.push_back(label_input);
  return AddNode(std::move(node));
}

int PipelineGraph::AddApplyModel(int estimator_node, int data_input) {
  KS_CHECK(nodes_[estimator_node].kind == NodeKind::kEstimator);
  GraphNode node;
  node.kind = NodeKind::kApplyModel;
  node.name = "Apply(" + nodes_[estimator_node].name + ")";
  node.inputs = {data_input};
  node.model_input = estimator_node;
  return AddNode(std::move(node));
}

int PipelineGraph::AddGather(std::shared_ptr<TransformerBase> gather_op,
                             std::vector<int> inputs) {
  KS_CHECK(!inputs.empty());
  GraphNode node;
  node.kind = NodeKind::kGather;
  node.name = gather_op->Name();
  node.transformer = std::move(gather_op);
  node.inputs = std::move(inputs);
  return AddNode(std::move(node));
}

std::vector<int> PipelineGraph::Dependencies(int id) const {
  std::vector<int> deps = nodes_[id].inputs;
  if (nodes_[id].model_input >= 0) deps.push_back(nodes_[id].model_input);
  return deps;
}

std::vector<std::vector<int>> PipelineGraph::SuccessorLists() const {
  std::vector<std::vector<int>> succ(size());
  for (int id = 0; id < size(); ++id) {
    for (int dep : Dependencies(id)) succ[dep].push_back(id);
  }
  return succ;
}

std::vector<bool> PipelineGraph::ReachableFrom(int root) const {
  std::vector<bool> reachable(size(), false);
  reachable[root] = true;
  // Edges go low id -> high id, so one forward sweep suffices.
  for (int id = 0; id < size(); ++id) {
    if (reachable[id]) continue;
    for (int dep : Dependencies(id)) {
      if (reachable[dep]) {
        reachable[id] = true;
        break;
      }
    }
  }
  return reachable;
}

std::vector<bool> PipelineGraph::AncestorsOf(int target) const {
  std::vector<bool> needed(size(), false);
  needed[target] = true;
  for (int id = size() - 1; id >= 0; --id) {
    if (!needed[id]) continue;
    for (int dep : Dependencies(id)) needed[dep] = true;
  }
  return needed;
}

int PipelineGraph::CopyWithSubstitution(int target, int placeholder,
                                        int replacement) {
  const std::vector<bool> downstream = ReachableFrom(placeholder);
  std::map<int, int> mapping;
  mapping[placeholder] = replacement;

  std::function<int(int)> copy = [&](int id) -> int {
    auto it = mapping.find(id);
    if (it != mapping.end()) return it->second;
    if (!downstream[id]) {
      // Independent of the placeholder: share the existing node.
      mapping[id] = id;
      return id;
    }
    GraphNode clone = nodes_[id];
    for (auto& input : clone.inputs) input = copy(input);
    if (clone.model_input >= 0) clone.model_input = copy(clone.model_input);
    const int new_id = AddNode(std::move(clone));
    mapping[id] = new_id;
    return new_id;
  };
  return copy(target);
}

int PipelineGraph::EliminateCommonSubexpressions(std::vector<int>* remap) {
  // Canonical id for each node; nodes with identical signatures share one.
  std::vector<int> canon(size());
  using Signature = std::tuple<int, const OperatorBase*, const void*,
                               std::vector<int>, int, std::string>;
  std::map<Signature, int> seen;
  int eliminated = 0;
  for (int id = 0; id < size(); ++id) {
    const GraphNode& node = nodes_[id];
    std::vector<int> mapped_inputs = node.inputs;
    for (auto& in : mapped_inputs) in = canon[in];
    const int mapped_model =
        node.model_input >= 0 ? canon[node.model_input] : -1;
    // Placeholders are never merged with each other except identical id —
    // use the name to keep distinct placeholders distinct.
    Signature sig{static_cast<int>(node.kind), node.op(),
                  static_cast<const void*>(node.bound_data.get()),
                  mapped_inputs, mapped_model,
                  node.kind == NodeKind::kPlaceholder ? node.name : ""};
    auto [it, inserted] = seen.emplace(sig, id);
    if (inserted) {
      canon[id] = id;
      // Rewrite this node's edges to canonical form in place.
      nodes_[id].inputs = mapped_inputs;
      nodes_[id].model_input = mapped_model;
    } else {
      canon[id] = it->second;
      ++eliminated;
    }
  }
  if (remap != nullptr) *remap = canon;
  return eliminated;
}

std::string PipelineGraph::ToDot() const {
  std::ostringstream os;
  os << "digraph pipeline {\n  rankdir=LR;\n";
  for (int id = 0; id < size(); ++id) {
    const GraphNode& node = nodes_[id];
    const char* shape = node.kind == NodeKind::kEstimator ? "box" : "ellipse";
    os << "  n" << id << " [label=\"" << node.name << "\", shape=" << shape
       << "];\n";
    for (int dep : node.inputs) {
      os << "  n" << dep << " -> n" << id << ";\n";
    }
    if (node.model_input >= 0) {
      os << "  n" << node.model_input << " -> n" << id
         << " [style=dashed];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace keystone
