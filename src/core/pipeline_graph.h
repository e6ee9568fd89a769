#ifndef KEYSTONE_CORE_PIPELINE_GRAPH_H_
#define KEYSTONE_CORE_PIPELINE_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/operator.h"
#include "src/data/dist_dataset.h"

namespace keystone {

/// Node kinds in the operator DAG (paper Figure 5).
enum class NodeKind {
  /// A dataset bound at construction time (training data, labels).
  kSource,
  /// The pipeline's runtime input (bound when the fitted pipeline is
  /// applied to new data).
  kPlaceholder,
  /// A transformer applied to one upstream dataset.
  kTransformer,
  /// An estimator fit on upstream dataset(s); output is a model.
  kEstimator,
  /// Applies the model produced by an estimator node to a dataset.
  kApplyModel,
  /// Zips the outputs of several branches into per-record sequences.
  kGather,
};

const char* NodeKindName(NodeKind kind);

/// One node of the operator DAG.
struct GraphNode {
  NodeKind kind = NodeKind::kSource;
  std::string name;

  /// Dataset inputs (node ids). Transformer: 1. Estimator: 1 (data) or
  /// 2 (data, labels). ApplyModel: 1. Gather: >= 1.
  std::vector<int> inputs;

  /// For kApplyModel: the estimator node that supplies the model.
  int model_input = -1;

  /// Operator payloads (by kind).
  std::shared_ptr<TransformerBase> transformer;
  std::shared_ptr<EstimatorBase> estimator;
  AnyDataset bound_data;

  /// The node's operator whichever its kind; null for sources, placeholders
  /// and apply-model nodes. Train-time copies and their runtime
  /// counterparts share the instance, so it is the node's operator
  /// identity (CSE, option propagation).
  const OperatorBase* op() const {
    if (transformer != nullptr) return transformer.get();
    return estimator.get();
  }
};

/// The operator DAG built incrementally by the Pipeline API. Nodes are
/// append-only and identified by dense integer ids; every edge points from a
/// lower id to a higher id, so node order is already topological.
class PipelineGraph {
 public:
  int AddSource(AnyDataset data, std::string name);
  int AddPlaceholder(std::string name);
  int AddTransformer(std::shared_ptr<TransformerBase> op, int input);
  int AddEstimator(std::shared_ptr<EstimatorBase> op, int data_input,
                   int label_input);  // label_input = -1 if unsupervised
  int AddApplyModel(int estimator_node, int data_input);
  int AddGather(std::shared_ptr<TransformerBase> gather_op,
                std::vector<int> inputs);

  const GraphNode& node(int id) const { return nodes_[id]; }
  GraphNode* mutable_node(int id) { return &nodes_[id]; }
  int size() const { return static_cast<int>(nodes_.size()); }

  /// All dependency ids of a node: inputs plus model_input when set.
  std::vector<int> Dependencies(int id) const;

  /// Direct successors of every node (consumers).
  std::vector<std::vector<int>> SuccessorLists() const;

  /// Nodes that (transitively) depend on `root`, including root.
  std::vector<bool> ReachableFrom(int root) const;

  /// Nodes that `target` (transitively) depends on, including target.
  std::vector<bool> AncestorsOf(int target) const;

  /// Copies the sub-DAG feeding `target` with `placeholder` replaced by
  /// `replacement`; nodes not downstream of `placeholder` are shared, not
  /// copied. Returns the id corresponding to `target` in the copy.
  int CopyWithSubstitution(int target, int placeholder, int replacement);

  /// Merges structurally identical nodes (same kind, operator instance,
  /// bound data and dependencies) — the paper's common sub-expression
  /// elimination (§4.2). Returns the number of nodes eliminated and fills
  /// `remap` (old id -> surviving id) if non-null.
  int EliminateCommonSubexpressions(std::vector<int>* remap);

  /// Graphviz rendering for diagnostics.
  std::string ToDot() const;

 private:
  int AddNode(GraphNode node);

  std::vector<GraphNode> nodes_;
};

}  // namespace keystone

#endif  // KEYSTONE_CORE_PIPELINE_GRAPH_H_
