#ifndef KEYSTONE_SERVE_SERVABLE_PIPELINE_H_
#define KEYSTONE_SERVE_SERVABLE_PIPELINE_H_

#include <cstddef>
#include <memory>

#include "src/core/executor.h"
#include "src/data/dist_dataset.h"

namespace keystone {

class ExecContext;

namespace serve {

/// A fitted pipeline packaged for the request path: the compiled
/// PhysicalPlan with train-only nodes stripped by the runtime mask, the
/// fitted models, and a self-calibrating per-record cost estimate the
/// server's admission control consults before accepting work.
///
/// Construction statically validates the servable view (see
/// analysis::ValidateServablePlan) so a plan that would KS_CHECK-abort
/// inside PlanRunner::RunApply — an estimator left on the runtime path, an
/// unbound source, a train-only terminal — is rejected at load time, not
/// mid-request.
class ServablePipeline {
 public:
  /// Wraps a fitted pipeline; aborts unless ValidateServablePlan passes
  /// against the plan and model map. With `use_static_prior` (the
  /// default), the per-record cost estimate is seeded from the plan's
  /// static dataflow annotations (analysis::StaticServingSecondsPerRecord)
  /// instead of starting at zero, so admission control predicts real
  /// service times from the very first batch; observations then refine the
  /// prior by EWMA as before. Plans without annotations silently fall back
  /// to the observe-first cold start.
  explicit ServablePipeline(std::shared_ptr<FittedPipelineUntyped> fitted,
                            bool use_static_prior = true);

  /// Runs the runtime path over one micro-batch on `request_ctx` (a
  /// per-request ExecContext from ExecContext::MakeRequestContext, whose
  /// fresh ledger isolates this batch's charges). Returns the sink dataset
  /// and stores the batch's data-dependent virtual cost — everything the
  /// per-run ledger accumulated — in `*variable_seconds`.
  AnyDataset Apply(const AnyDataset& batch, ExecContext* request_ctx,
                   double* variable_seconds) const;

  /// The per-batch fixed overhead: one scheduling round per runtime node,
  /// priced at the cluster's round latency. This is the term micro-batching
  /// amortizes — it is paid per batch, not per record.
  double FixedBatchOverheadSeconds() const { return fixed_overhead_seconds_; }

  /// Folds an observed batch into the per-record cost calibration (EWMA,
  /// alpha 0.5). Called by the server at dispatch time, on the serial event
  /// loop, so the estimate's evolution is deterministic.
  void ObserveBatch(size_t records, double variable_seconds);

  /// Predicted virtual service seconds for an n-record micro-batch:
  /// fixed overhead + n * calibrated per-record cost. Before the first
  /// observation the per-record term is 0 (admission is then effectively
  /// queue-depth only until calibrated).
  double PredictBatchSeconds(size_t records) const {
    return fixed_overhead_seconds_ +
           static_cast<double>(records) * per_record_seconds_;
  }

  double per_record_seconds() const { return per_record_seconds_; }
  const FittedPipelineUntyped& fitted() const { return *fitted_; }

  /// The per-record estimate was seeded from static dataflow analysis.
  bool has_static_prior() const { return static_prior_; }
  /// Batches folded into the calibration so far.
  size_t batches_observed() const { return batches_observed_; }
  /// Relative prediction error of the most recent batch, measured *before*
  /// folding it in (|predicted - observed| / observed); negative until the
  /// first observation.
  double last_relative_error() const { return last_relative_error_; }
  /// 1-based index of the first batch whose pre-update prediction error was
  /// within 10% of the observed cost — when the admission predictor reached
  /// steady state. Negative while it hasn't. A statically seeded prior
  /// reaches this earlier than the zero-cost cold start, which must always
  /// mispredict its first batch.
  int steady_state_batch() const { return steady_state_batch_; }

 private:
  /// Pre-update relative error below this counts as steady state.
  static constexpr double kSteadyStateRelError = 0.10;

  std::shared_ptr<FittedPipelineUntyped> fitted_;
  double fixed_overhead_seconds_ = 0.0;
  // Calibrated per-record variable cost; mutated only from the server's
  // serial event loop (ObserveBatch), never from kernel threads.
  double per_record_seconds_ = 0.0;
  bool calibrated_ = false;
  bool static_prior_ = false;
  size_t batches_observed_ = 0;
  double last_relative_error_ = -1.0;
  int steady_state_batch_ = -1;
};

}  // namespace serve
}  // namespace keystone

#endif  // KEYSTONE_SERVE_SERVABLE_PIPELINE_H_
