#include "src/analysis/shape_inference.h"

#include <cstddef>
#include <string>

#include "src/analysis/dataflow.h"
#include "src/core/pipeline_graph.h"

namespace keystone {
namespace analysis {

namespace {

/// The interpreter over one plan: shared state for the two passes plus the
/// placeholder mirror step.
class Interpreter {
 public:
  Interpreter(const PhysicalPlan& plan, DataflowResult* result)
      : plan_(plan), graph_(*plan.graph), result_(*result) {}

  void Run() {
    const int n = graph_.size();
    result_.facts.assign(static_cast<size_t>(n), NodeFacts{});
    // Pass 1: everything not downstream of the runtime placeholder — the
    // train path plus dead CSE residue. Node ids are topological, so every
    // input fact is ready when a node is visited.
    for (int id = 0; id < n; ++id) {
      if (graph_.node(id).kind == NodeKind::kPlaceholder) continue;
      if (plan_.nodes[static_cast<size_t>(id)].runtime) continue;
      Interpret(id);
    }
    // Mirror every placeholder from its runtime consumers' training twins.
    for (int id = 0; id < n; ++id) {
      if (graph_.node(id).kind != NodeKind::kPlaceholder) continue;
      MirrorPlaceholder(id);
    }
    // Pass 2: the runtime (serving) path, now that the placeholder's shape
    // is known.
    for (int id = 0; id < n; ++id) {
      if (graph_.node(id).kind == NodeKind::kPlaceholder) continue;
      if (!plan_.nodes[static_cast<size_t>(id)].runtime) continue;
      Interpret(id);
    }
  }

 private:
  NodeFacts& facts(int id) { return result_.facts[static_cast<size_t>(id)]; }

  void Interpret(int id) {
    const GraphNode& gn = graph_.node(id);
    const PlannedNode& pn = plan_.nodes[static_cast<size_t>(id)];
    NodeFacts& f = facts(id);
    f.visited = true;
    // Dead CSE residue is interpreted (its facts may seed a survivor's
    // twin lookup) but never diagnosed — it does not execute.
    const bool emit = pn.train || pn.runtime;
    switch (gn.kind) {
      case NodeKind::kSource:
        InterpretSource(id, gn, pn, &f);
        break;
      case NodeKind::kPlaceholder:
        break;  // mirrored separately
      case NodeKind::kTransformer:
      case NodeKind::kGather:
        InterpretTransformer(id, gn, pn, emit, &f);
        break;
      case NodeKind::kEstimator:
        InterpretEstimator(id, gn, pn, emit, &f);
        break;
      case NodeKind::kApplyModel:
        InterpretApplyModel(id, gn, pn, emit, &f);
        break;
    }
  }

  void InterpretSource(int id, const GraphNode& gn, const PlannedNode& pn,
                       NodeFacts* f) {
    (void)id;
    f->shape = gn.bound_data != nullptr ? gn.bound_data->ElementShape()
                                        : ValueShape::Top();
    f->input_shape = ValueShape::Top();
    f->cardinality =
        CardinalityInterval::Exact(static_cast<int64_t>(pn.full_records));
    f->effect = EffectClass::kPure;
    f->bytes_per_record = f->shape.BytesPerRecord();
    if (f->bytes_per_record < 0 && gn.bound_data != nullptr &&
        gn.bound_data->NumRecords() > 0) {
      // The shape does not pin the record width (text, tokens, sparse):
      // fall back to the dataset's measured average.
      f->bytes_per_record = gn.bound_data->ComputeStats().bytes_per_record;
    }
  }

  /// Meets the shape flowing into node `id` with what its operator
  /// requires of it (`what` names the input in the message). A conflict is
  /// diagnosed on live nodes and contained by assuming the requirement, so
  /// downstream keeps checking.
  ValueShape MeetRequirement(int id, const PlannedNode& pn,
                             const OperatorBase& op, const ValueShape& in,
                             const std::string& what, bool emit) {
    const ValueShape req = op.InputShapeRequirement();
    const ValueShape eff = in.Meet(req);
    if (!eff.IsBottom() || in.IsBottom()) return eff;
    if (emit) {
      result_.report.Add(
          Severity::kError, rules::kShapeDimMismatch, id,
          what + " shape " + in.ToString() + " conflicts with the " +
              req.ToString() + " required by '" + pn.name + "'",
          "insert Reshape(" + in.ToString() + "->" + req.ToString() +
              ") before node " + std::to_string(id));
    }
    return req;
  }

  void InterpretTransformer(int id, const GraphNode& gn,
                            const PlannedNode& pn, bool emit, NodeFacts* f) {
    const TransformerBase* op = pn.physical_transformer.get();
    if (op == nullptr) return;
    if (gn.kind == NodeKind::kTransformer && gn.inputs.size() == 1) {
      f->input_shape = MeetRequirement(id, pn, *op, facts(gn.inputs[0]).shape,
                                       "input", emit);
      f->shape = op->TransferShape(f->input_shape);
      f->cardinality = facts(gn.inputs[0]).cardinality;
    } else {
      // Gather (or any multi-input transformer): the transfer function sees
      // every branch shape; a Bottom result witnesses branch disagreement.
      std::vector<ValueShape> ins;
      ins.reserve(gn.inputs.size());
      bool poisoned = false;
      for (int in : gn.inputs) {
        ins.push_back(facts(in).shape);
        poisoned = poisoned || ins.back().IsBottom();
      }
      f->input_shape = ins.empty() ? ValueShape::Top() : ins[0];
      f->shape = op->TransferShapeMulti(ins);
      if (f->shape.IsBottom() && !poisoned && emit) {
        std::string shapes;
        for (const ValueShape& s : ins) {
          if (!shapes.empty()) shapes += ", ";
          shapes += s.ToString();
        }
        result_.report.Add(Severity::kError, rules::kShapeDimMismatch, id,
                           "gathered branch shapes conflict at '" + pn.name +
                               "': " + shapes,
                           "align branch output shapes feeding node " +
                               std::to_string(id));
      }
      // Branches zip record-by-record: the output count is every branch's
      // count at once.
      if (!gn.inputs.empty()) {
        CardinalityInterval card = facts(gn.inputs[0]).cardinality;
        bool input_empty = card.IsEmpty();
        for (size_t i = 1; i < gn.inputs.size(); ++i) {
          const CardinalityInterval& other = facts(gn.inputs[i]).cardinality;
          input_empty = input_empty || other.IsEmpty();
          card = card.Intersect(other);
        }
        if (card.IsEmpty() && !input_empty && emit) {
          result_.report.Add(
              Severity::kError, rules::kCardContradiction, id,
              "gathered branches carry contradictory record counts at '" +
                  pn.name + "'",
              "equalize the record counts of the branches feeding node " +
                  std::to_string(id));
        }
        f->cardinality = card;
      }
    }
    f->effect = op->Effect();
    f->bytes_per_record = f->shape.BytesPerRecord();
    if (f->bytes_per_record < 0) f->bytes_per_record = InheritedBytes(gn);
  }

  void InterpretEstimator(int id, const GraphNode& gn, const PlannedNode& pn,
                          bool emit, NodeFacts* f) {
    const EstimatorBase* op = pn.physical_estimator.get();
    if (op == nullptr) return;
    const int data = gn.inputs[0];
    f->input_shape = MeetRequirement(id, pn, *op, facts(data).shape,
                                     "training input", emit);
    CardinalityInterval card = facts(data).cardinality;
    if (gn.inputs.size() > 1) {
      const int labels = gn.inputs[1];
      const ValueShape lin = facts(labels).shape;
      const ValueShape lreq = op->LabelShapeRequirement();
      if (lin.Meet(lreq).IsBottom() && !lin.IsBottom() && emit) {
        result_.report.Add(
            Severity::kError, rules::kShapeDimMismatch, id,
            "label shape " + lin.ToString() + " conflicts with the " +
                lreq.ToString() + " required by '" + pn.name + "'",
            "re-encode the labels as " + lreq.ToString() +
                " (e.g. adjust the one-hot width to the solver's "
                "num_classes)");
      }
      const CardinalityInterval lcard = facts(labels).cardinality;
      const CardinalityInterval met = card.Intersect(lcard);
      if (met.IsEmpty() && !card.IsEmpty() && !lcard.IsEmpty() && emit) {
        result_.report.Add(
            Severity::kError, rules::kCardContradiction, id,
            "feature input carries " + card.ToString() +
                " records but label input carries " + lcard.ToString() +
                " at '" + pn.name + "'",
            "rebind the label source so feature and label record counts "
            "agree");
      }
    }
    // The node's output is a model, not a dataset; `shape` records what the
    // fitted model will emit per record (consumed by apply-model nodes).
    f->shape = op->ModelOutputShape(f->input_shape);
    f->cardinality = CardinalityInterval::Exact(0);
    f->effect = EffectClass::kTrainOnly;
    f->bytes_per_record = 0.0;
  }

  void InterpretApplyModel(int id, const GraphNode& gn, const PlannedNode& pn,
                           bool emit, NodeFacts* f) {
    const int est = gn.model_input;
    const int data = gn.inputs[0];
    const NodeFacts& ef = facts(est);
    const ValueShape in = facts(data).shape;
    const ValueShape expected = ef.input_shape;
    ValueShape eff = in.Meet(expected);
    if (eff.IsBottom() && !in.IsBottom() && !expected.IsBottom()) {
      if (emit) {
        result_.report.Add(
            Severity::kError, rules::kShapeModelInput, id,
            "stream shape " + in.ToString() +
                " disagrees with the model's training input shape " +
                expected.ToString() + " ('" + pn.name + "')",
            "insert Reshape(" + in.ToString() + "->" + expected.ToString() +
                ") before node " + std::to_string(id));
      }
      eff = expected;
    }
    f->input_shape = eff;
    f->shape = ef.shape;  // the fitted model's per-record output shape
    f->cardinality = facts(data).cardinality;
    f->effect = EffectClass::kPure;
    f->bytes_per_record = f->shape.BytesPerRecord();
    if (f->bytes_per_record < 0) f->bytes_per_record = InheritedBytes(gn);
  }

  /// Fallback per-record size when the output shape does not determine one:
  /// inherit the (sum of the) input estimates — right for normalizers and
  /// near enough for the rest of the size-preserving family.
  double InheritedBytes(const GraphNode& gn) {
    double total = 0.0;
    for (int in : gn.inputs) {
      const double b = facts(in).bytes_per_record;
      if (b < 0) return -1.0;
      total += b;
    }
    return gn.inputs.empty() ? -1.0 : total;
  }

  /// Runtime copies share operator instances with their training twins
  /// (CopyWithSubstitution), so the shape flowing into a twin at the
  /// placeholder's argument position is exactly the shape the placeholder
  /// must produce. Meet over all runtime consumers; a conflict means the
  /// serving input cannot satisfy every consumer at once.
  void MirrorPlaceholder(int ph) {
    NodeFacts& f = facts(ph);
    f.visited = true;
    f.cardinality = CardinalityInterval::Any();
    f.effect = EffectClass::kPure;
    ValueShape mirrored = ValueShape::Top();
    double bytes = -1.0;
    const int n = graph_.size();
    for (int c = 0; c < n; ++c) {
      if (!plan_.nodes[static_cast<size_t>(c)].runtime) continue;
      const GraphNode& gc = graph_.node(c);
      for (size_t p = 0; p < gc.inputs.size(); ++p) {
        if (gc.inputs[p] != ph) continue;
        ValueShape cand = ValueShape::Top();
        double bcand = -1.0;
        if (gc.kind == NodeKind::kApplyModel && gc.model_input >= 0) {
          cand = facts(gc.model_input).input_shape;
          const GraphNode& ge = graph_.node(gc.model_input);
          if (!ge.inputs.empty()) {
            bcand = facts(ge.inputs[0]).bytes_per_record;
          }
        } else if (gc.transformer != nullptr) {
          const int twin = FindTrainTwin(c, p);
          if (twin >= 0) {
            const int tin = graph_.node(twin).inputs[p];
            cand = facts(tin).shape;
            bcand = facts(tin).bytes_per_record;
          }
          if (cand.IsTop()) {
            const TransformerBase* op =
                plan_.nodes[static_cast<size_t>(c)].physical_transformer.get();
            if (op != nullptr) cand = op->InputShapeRequirement();
          }
        }
        const ValueShape met = mirrored.Meet(cand);
        if (met.IsBottom() && !mirrored.IsBottom() && !cand.IsBottom()) {
          result_.report.Add(
              Severity::kError, rules::kShapeDimMismatch, ph,
              "runtime consumers demand conflicting input shapes: " +
                  mirrored.ToString() + " vs " + cand.ToString() +
                  " (node " + std::to_string(c) + ")",
              "split the pipeline so each serving input feeds consumers of "
              "one shape");
        } else {
          mirrored = met;
        }
        if (bytes < 0) bytes = bcand;
      }
    }
    f.shape = mirrored;
    f.input_shape = mirrored;
    f.bytes_per_record = mirrored.BytesPerRecord();
    if (f.bytes_per_record < 0) f.bytes_per_record = bytes;
  }

  /// First train node sharing `runtime_node`'s logical operator instance
  /// with matching arity — its twin from CopyWithSubstitution.
  int FindTrainTwin(int runtime_node, size_t arg_pos) const {
    const GraphNode& gc = graph_.node(runtime_node);
    const TransformerBase* key = gc.transformer.get();
    if (key == nullptr) return -1;
    const int n = graph_.size();
    for (int t = 0; t < n; ++t) {
      if (t == runtime_node) continue;
      if (!plan_.nodes[static_cast<size_t>(t)].train) continue;
      const GraphNode& gt = graph_.node(t);
      if (gt.transformer.get() != key) continue;
      if (gt.inputs.size() != gc.inputs.size()) continue;
      if (arg_pos >= gt.inputs.size()) continue;
      return t;
    }
    return -1;
  }

  const PhysicalPlan& plan_;
  const PipelineGraph& graph_;
  DataflowResult& result_;
};

}  // namespace

DataflowResult InferDataflow(const PhysicalPlan& plan) {
  DataflowResult result;
  if (plan.graph == nullptr) return result;
  Interpreter(plan, &result).Run();
  return result;
}

}  // namespace analysis
}  // namespace keystone
