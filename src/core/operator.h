#ifndef KEYSTONE_CORE_OPERATOR_H_
#define KEYSTONE_CORE_OPERATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/dataflow_lattice.h"
#include "src/core/exec_context.h"
#include "src/data/dist_dataset.h"
#include "src/sim/cost_profile.h"

namespace keystone {

/// What every operator shares, whichever its kind: identity, the cost model
/// the optimizer scores (paper Figure 3), the static dataflow metadata the
/// analysis layer reads, and — for a logical operator with several physical
/// implementations (the paper's Optimizable trait) — its options.
/// Transformers and estimators add only what their kind does with data.
class OperatorBase {
 public:
  virtual ~OperatorBase() = default;

  /// Operator name (diagnostics, DAG rendering, bench output).
  virtual std::string Name() const = 0;

  /// Stable digest of the configuration that changes this operator's
  /// output: constructor parameters, hyper-parameters, seeds. Folded into
  /// node fingerprints, so two instances of one operator class with
  /// different parameters never share a lineage identity — the artifact
  /// catalog and profile store key on those fingerprints, and conflating
  /// a Scale(2) with a Scale(3) would serve one branch's cached output to
  /// the other. Parameterless operators keep the default empty signature.
  virtual std::string ParamSignature() const { return ""; }

  /// CostModel: estimated critical-path cost of processing (for an
  /// estimator: fitting on) a dataset with statistics `in` on `workers`
  /// cluster nodes. The default charges one memory scan of the input.
  virtual CostProfile EstimateCost(const DataStats& in, int workers) const {
    CostProfile cost;
    cost.bytes = in.TotalBytes() / std::max(1, workers);
    return cost;
  }

  /// Bytes of cluster memory required during execution beyond inputs and
  /// outputs (used for feasibility checks; 0 = negligible).
  virtual double ScratchMemoryBytes(const DataStats& in, int workers) const {
    (void)in;
    (void)workers;
    return 0.0;
  }

  /// Number of passes the operator makes over its input (paper's Iterative
  /// trait weight: 1 for ordinary transformers, ~#iterations for gradient
  /// methods). Materialization uses it to weigh recomputation costs.
  virtual int Weight() const { return 1; }

  // --- Static dataflow metadata (consumed by src/analysis) -----------------

  /// Shape this operator requires of each (training) input record; Top =
  /// anything. The inference engine meets the incoming shape with this
  /// requirement and reports a shape.dim_mismatch diagnostic when the meet
  /// is Bottom.
  virtual ValueShape InputShapeRequirement() const {
    return ValueShape::Top();
  }

  /// Effect class for the purity/fusibility analysis. Pure by default;
  /// operators that draw from a fixed seed (k-means, GMM, randomized
  /// projections) declare kSeededDeterministic, and anything with hidden
  /// mutable state declares kStateful.
  virtual EffectClass Effect() const { return EffectClass::kPure; }

  // --- Physical options (the Optimizable trait) ----------------------------

  /// How many physical implementations the optimizer may choose among;
  /// 0 for an operator with one implementation.
  virtual int NumOptions() const { return 0; }

  /// Physical option `i` (0 <= i < NumOptions(); option 0 is the default
  /// used when optimization is off). Null for an operator with one
  /// implementation. An option is of its logical operator's kind.
  virtual std::shared_ptr<OperatorBase> Option(int i) const {
    (void)i;
    return nullptr;
  }
};

/// Base class for all physical operators that map datasets to datasets.
/// Mirrors the paper's Transformer trait: a deterministic, side-effect-free
/// unary function over data items, plus the shared cost model.
class TransformerBase : public OperatorBase {
 public:
  /// Applies the operator to (usually one) input dataset(s).
  virtual AnyDataset ApplyAny(const std::vector<AnyDataset>& inputs,
                              ExecContext* ctx) const = 0;

  /// Whether ApplySlice and ApplyChunk are implemented. Row-wise
  /// Transformer<A, B> subclasses get them for free; operators with a
  /// bespoke ApplyAny (gather, whole-dataset kernels) stay on the
  /// whole-dataset path, and the FusionPass refuses to put them inside a
  /// fused region.
  virtual bool SupportsChunkedApply() const { return false; }

  /// A fused region head's batched apply: reads records [begin, begin +
  /// count) of partition `p` of `in` in place and produces the output chunk
  /// (`count == 0` yields an empty, still correctly typed chunk — the type
  /// witness for empty partitions). Must agree record-for-record with
  /// ApplyAny; only called when SupportsChunkedApply().
  virtual AnyChunk ApplySlice(const DatasetBase& in, size_t p, size_t begin,
                              size_t count, ExecContext* ctx) const {
    (void)in;
    (void)p;
    (void)begin;
    (void)count;
    (void)ctx;
    KS_CHECK(false) << Name() << " does not support chunked apply";
    return nullptr;
  }

  /// Batched apply over the chunk a fused region's previous member
  /// produced, producing the output chunk. Must agree record-for-record with
  /// ApplyAny; only called when SupportsChunkedApply().
  virtual AnyChunk ApplyChunk(const AnyChunk& in, ExecContext* ctx) const {
    (void)in;
    (void)ctx;
    KS_CHECK(false) << Name() << " does not support chunked apply";
    return nullptr;
  }

  /// Transfer function: output record shape given the input record shape.
  /// The engine has already met `in` with InputShapeRequirement(), so
  /// implementations may assume the kind matches their requirement.
  virtual ValueShape TransferShape(const ValueShape& in) const {
    (void)in;
    return ValueShape::Top();
  }

  /// Multi-input transfer function (gather-style operators).
  virtual ValueShape TransferShapeMulti(
      const std::vector<ValueShape>& ins) const {
    return ins.size() == 1 ? TransferShape(ins[0]) : ValueShape::Top();
  }
};

/// Typed per-record transformer. Implementations override Apply (record at
/// a time); ApplyAny maps it over every partition on the worker pool.
template <typename A, typename B>
class Transformer : public TransformerBase {
 public:
  using InputType = A;
  using OutputType = B;

  /// Applies the operator to a single data item.
  virtual B Apply(const A& input) const = 0;

  /// Kind-level defaults from the static record types; operators whose
  /// output dimensions depend on configuration refine these further.
  ValueShape InputShapeRequirement() const override {
    return StaticShapeOf<A>::Get();
  }
  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return StaticShapeOf<B>::Get();
  }

  AnyDataset ApplyAny(const std::vector<AnyDataset>& inputs,
                      ExecContext* ctx) const override {
    KS_CHECK_EQ(inputs.size(), 1u);
    auto in = DistDataset<A>::Cast(inputs[0]);
    std::vector<std::vector<B>> out(in->NumPartitions());
    ctx->pool()->ParallelFor(in->NumPartitions(), [&](size_t p) {
      const auto& part = in->partition(p);
      out[p].reserve(part.size());
      for (const auto& rec : part) out[p].push_back(Apply(rec));
    });
    return std::make_shared<DistDataset<B>>(std::move(out));
  }

  bool SupportsChunkedApply() const override { return true; }

  AnyChunk ApplySlice(const DatasetBase& in, size_t p, size_t begin,
                      size_t count, ExecContext* ctx) const override {
    (void)ctx;
    const DistDataset<A>& typed = DistDataset<A>::Cast(in);
    KS_CHECK_LT(p, typed.NumPartitions());
    const std::vector<A>& part = typed.partition(p);
    KS_CHECK(begin + count <= part.size());
    return ApplyRecords(part, begin, count);
  }

  AnyChunk ApplyChunk(const AnyChunk& in, ExecContext* ctx) const override {
    (void)ctx;
    const std::vector<A>& records = Chunk<A>::Cast(in)->records();
    return ApplyRecords(records, 0, records.size());
  }

 private:
  /// The chunk of Apply over records[begin, begin + count).
  AnyChunk ApplyRecords(const std::vector<A>& records, size_t begin,
                        size_t count) const {
    std::vector<B> out;
    out.reserve(count);
    for (size_t i = begin; i < begin + count; ++i) {
      out.push_back(Apply(records[i]));
    }
    return std::make_shared<Chunk<B>>(std::move(out));
  }
};

/// What one fit produced: the fitted model and, when the kernel knows it,
/// the cost of the equivalent distributed execution (e.g. an iterative
/// solver whose iteration count is data dependent). PlanRunner charges
/// `cost` in place of the estimator's a-priori EstimateCost unless a
/// virtual scale makes it describe a smaller run than the one modeled.
/// Returning the cost from the call that incurred it keeps every report
/// attached to its own node, whichever thread ran the fit.
template <typename Model>
struct Fitted {
  std::shared_ptr<Model> model;
  std::optional<CostProfile> cost;
};

/// Base class for operators that are fit on a dataset and produce a
/// transformer (the paper's Estimator: a function-generating function).
class EstimatorBase : public OperatorBase {
 public:
  /// Fits on `data` (and `labels` when the estimator is supervised; null
  /// otherwise), returning the fitted model as a transformer together with
  /// the fit's cost when the kernel reports one.
  virtual Fitted<TransformerBase> FitAny(const AnyDataset& data,
                                         const AnyDataset& labels,
                                         ExecContext* ctx) const = 0;

  /// The cost FitAny would report for (data, labels), computed from their
  /// shape after the same input checks, without fitting; nullopt when only
  /// a fit can tell (e.g. a data-dependent iteration count). The sampling
  /// passes charge it instead of fitting estimators whose sample model
  /// nothing reads.
  virtual std::optional<CostProfile> FitCostAny(const AnyDataset& data,
                                                const AnyDataset& labels,
                                                ExecContext* ctx) const {
    (void)data;
    (void)labels;
    (void)ctx;
    return std::nullopt;
  }

  /// True when the estimator consumes a label dataset.
  virtual bool IsSupervised() const { return false; }

  // --- Static dataflow metadata (consumed by src/analysis) -----------------

  /// Shape required of the label records (supervised estimators only).
  virtual ValueShape LabelShapeRequirement() const {
    return ValueShape::Top();
  }

  /// Record shape the fitted model will produce given the shape of the
  /// training data it was fit on (e.g. PCA: matrix[r x d] -> matrix[r x k]).
  virtual ValueShape ModelOutputShape(const ValueShape& data_in) const {
    (void)data_in;
    return ValueShape::Top();
  }
};

/// Typed unsupervised estimator over records of type A producing a
/// Transformer<A, B>.
template <typename A, typename B>
class Estimator : public EstimatorBase {
 public:
  using InputType = A;
  using OutputType = B;

  virtual Fitted<Transformer<A, B>> Fit(const DistDataset<A>& data,
                                        ExecContext* ctx) const = 0;

  ValueShape InputShapeRequirement() const override {
    return StaticShapeOf<A>::Get();
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return StaticShapeOf<B>::Get();
  }

  Fitted<TransformerBase> FitAny(const AnyDataset& data,
                                 const AnyDataset& labels,
                                 ExecContext* ctx) const override {
    KS_CHECK(labels == nullptr) << Name() << " is unsupervised";
    auto typed = DistDataset<A>::Cast(data);
    Fitted<Transformer<A, B>> fitted = Fit(*typed, ctx);
    return {std::move(fitted.model), fitted.cost};
  }
};

/// Typed supervised estimator: fit on (data, labels) pairs.
template <typename A, typename B, typename L>
class LabelEstimator : public EstimatorBase {
 public:
  using InputType = A;
  using OutputType = B;
  using LabelType = L;

  virtual Fitted<Transformer<A, B>> Fit(const DistDataset<A>& data,
                                        const DistDataset<L>& labels,
                                        ExecContext* ctx) const = 0;

  /// Typed FitCostAny: the cost Fit would report, without fitting.
  virtual std::optional<CostProfile> FitCost(const DistDataset<A>& data,
                                             const DistDataset<L>& labels,
                                             ExecContext* ctx) const {
    (void)data;
    (void)labels;
    (void)ctx;
    return std::nullopt;
  }

  ValueShape InputShapeRequirement() const override {
    return StaticShapeOf<A>::Get();
  }
  ValueShape LabelShapeRequirement() const override {
    return StaticShapeOf<L>::Get();
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return StaticShapeOf<B>::Get();
  }

  Fitted<TransformerBase> FitAny(const AnyDataset& data,
                                 const AnyDataset& labels,
                                 ExecContext* ctx) const override {
    KS_CHECK(labels != nullptr) << Name() << " requires labels";
    auto typed_data = DistDataset<A>::Cast(data);
    auto typed_labels = DistDataset<L>::Cast(labels);
    Fitted<Transformer<A, B>> fitted = Fit(*typed_data, *typed_labels, ctx);
    return {std::move(fitted.model), fitted.cost};
  }

  std::optional<CostProfile> FitCostAny(const AnyDataset& data,
                                        const AnyDataset& labels,
                                        ExecContext* ctx) const override {
    KS_CHECK(labels != nullptr) << Name() << " requires labels";
    return FitCost(*DistDataset<A>::Cast(data), *DistDataset<L>::Cast(labels),
                   ctx);
  }

  bool IsSupervised() const override { return true; }
};

/// A logical operator with multiple physical implementations (the paper's
/// Optimizable trait), of kind `Base` (TransformerBase or EstimatorBase).
/// The operator-level optimizer evaluates each option's CostModel on
/// sampled statistics and picks the cheapest feasible one; without
/// optimization the default (first) option is used, and the logical
/// operator's parameter signature, cost model, input requirement and
/// effect are the default option's.
template <typename Base>
class Optimizable : public Base {
 public:
  Optimizable(std::string name, std::vector<std::shared_ptr<Base>> options)
      : name_(std::move(name)), options_(std::move(options)) {
    KS_CHECK(!options_.empty());
  }

  std::string Name() const override { return name_; }

  /// A logical operator is parameterized by its physical options' shared
  /// hyper-parameters; every option carries the same configuration, so the
  /// default option's signature stands in for the logical node's.
  std::string ParamSignature() const override {
    return default_option().ParamSignature();
  }

  const std::vector<std::shared_ptr<Base>>& options() const {
    return options_;
  }

  int NumOptions() const override { return static_cast<int>(options_.size()); }
  std::shared_ptr<OperatorBase> Option(int i) const override {
    return options_[static_cast<size_t>(i)];
  }

  CostProfile EstimateCost(const DataStats& in, int workers) const override {
    return default_option().EstimateCost(in, workers);
  }
  ValueShape InputShapeRequirement() const override {
    return default_option().InputShapeRequirement();
  }
  EffectClass Effect() const override { return default_option().Effect(); }

 protected:
  /// Default physical operator (used when optimization is off).
  const Base& default_option() const { return *options_[0]; }

 private:
  std::string name_;
  std::vector<std::shared_ptr<Base>> options_;
};

/// A logical transformer: applies through its default option.
class OptimizableTransformer : public Optimizable<TransformerBase> {
 public:
  using Optimizable::Optimizable;

  AnyDataset ApplyAny(const std::vector<AnyDataset>& inputs,
                      ExecContext* ctx) const override {
    return default_option().ApplyAny(inputs, ctx);
  }
  bool SupportsChunkedApply() const override {
    return default_option().SupportsChunkedApply();
  }
  AnyChunk ApplySlice(const DatasetBase& in, size_t p, size_t begin,
                      size_t count, ExecContext* ctx) const override {
    return default_option().ApplySlice(in, p, begin, count, ctx);
  }
  AnyChunk ApplyChunk(const AnyChunk& in, ExecContext* ctx) const override {
    return default_option().ApplyChunk(in, ctx);
  }
  ValueShape TransferShape(const ValueShape& in) const override {
    return default_option().TransferShape(in);
  }
  ValueShape TransferShapeMulti(
      const std::vector<ValueShape>& ins) const override {
    return default_option().TransferShapeMulti(ins);
  }
};

/// A logical estimator: fits through its default option.
class OptimizableEstimator : public Optimizable<EstimatorBase> {
 public:
  using Optimizable::Optimizable;

  Fitted<TransformerBase> FitAny(const AnyDataset& data,
                                 const AnyDataset& labels,
                                 ExecContext* ctx) const override {
    return default_option().FitAny(data, labels, ctx);
  }
  int Weight() const override { return default_option().Weight(); }
  bool IsSupervised() const override {
    return default_option().IsSupervised();
  }
  ValueShape LabelShapeRequirement() const override {
    return default_option().LabelShapeRequirement();
  }
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    return default_option().ModelOutputShape(data_in);
  }
};

}  // namespace keystone

#endif  // KEYSTONE_CORE_OPERATOR_H_
