#include "src/serve/servable_pipeline.h"

#include <cmath>
#include <utility>

#include "src/analysis/dataflow.h"
#include "src/analysis/plan_validator.h"
#include "src/common/check.h"
#include "src/core/exec_context.h"
#include "src/sim/virtual_time.h"

namespace keystone {
namespace serve {

ServablePipeline::ServablePipeline(
    std::shared_ptr<FittedPipelineUntyped> fitted, bool use_static_prior)
    : fitted_(std::move(fitted)) {
  KS_CHECK(fitted_ != nullptr);
  const PhysicalPlan& plan = fitted_->plan();
  const analysis::ValidationReport report =
      analysis::ValidateServablePlan(plan, &fitted_->models());
  KS_CHECK(report.ok()) << "pipeline is not servable:\n" << report.ToString();
  // Every runtime node is one job submission: a scheduling round at the
  // cluster's round latency, independent of batch size.
  fixed_overhead_seconds_ =
      plan.resources.round_latency_s * plan.NumRuntimeNodes();
  if (use_static_prior) {
    // Seed the per-record estimate from the plan's dataflow annotations:
    // each runtime node's cost model priced at a statically inferred
    // one-record input. Counts as the first calibration point, so observed
    // batches refine it by EWMA instead of discarding it.
    const double prior =
        analysis::StaticServingSecondsPerRecord(plan, fitted_->models());
    if (prior >= 0) {
      per_record_seconds_ = prior;
      calibrated_ = true;
      static_prior_ = true;
    }
  }
}

AnyDataset ServablePipeline::Apply(const AnyDataset& batch,
                                   ExecContext* request_ctx,
                                   double* variable_seconds) const {
  KS_CHECK(request_ctx != nullptr);
  KS_CHECK_EQ(request_ctx->ledger()->TotalSeconds(), 0.0)
      << "request contexts must arrive with a fresh ledger";
  AnyDataset out = fitted_->Apply(batch, request_ctx);
  if (variable_seconds != nullptr) {
    *variable_seconds = request_ctx->ledger()->TotalSeconds();
  }
  return out;
}

void ServablePipeline::ObserveBatch(size_t records, double variable_seconds) {
  if (records == 0) return;
  ++batches_observed_;
  // Score the prediction this batch was admitted under, before updating.
  const double predicted =
      static_cast<double>(records) * per_record_seconds_;
  if (variable_seconds > 0) {
    last_relative_error_ =
        std::fabs(predicted - variable_seconds) / variable_seconds;
  } else {
    last_relative_error_ = predicted > 0 ? 1.0 : 0.0;
  }
  if (steady_state_batch_ < 0 &&
      last_relative_error_ <= kSteadyStateRelError) {
    steady_state_batch_ = static_cast<int>(batches_observed_);
  }
  const double per_record = variable_seconds / static_cast<double>(records);
  if (!calibrated_) {
    per_record_seconds_ = per_record;
    calibrated_ = true;
  } else {
    per_record_seconds_ = 0.5 * per_record_seconds_ + 0.5 * per_record;
  }
}

}  // namespace serve
}  // namespace keystone
