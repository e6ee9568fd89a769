#ifndef KEYSTONE_OBS_TRACE_H_
#define KEYSTONE_OBS_TRACE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/sim/cost_profile.h"

namespace keystone {
namespace obs {

/// Execution phases a span can belong to; each phase becomes one timeline
/// row ("thread") in the exported Chrome trace.
enum class TracePhase {
  kProfileSmall,  // execution subsampling, small sample
  kProfileLarge,  // execution subsampling, large sample
  kTrain,         // full-scale training pass
  kEval,          // fitted-pipeline Apply
  kServe,         // PipelineServer request/batch executions
};

/// Number of TracePhase values (Chrome-trace exporters emit one timeline
/// row per phase).
inline constexpr int kNumTracePhases = 5;

const char* TracePhaseName(TracePhase phase);

/// One operator execution as seen by the executor: what ran, on how much
/// data, what the cost model predicted, and what the kernel actually
/// reported (the cost an estimator's Fit returns with its model).
struct TraceSpan {
  int node_id = -1;
  std::string name;            // logical operator / node name
  std::string physical;        // chosen physical impl ("" = the default)
  std::string kind;            // source / transformer / estimator / ...
  TracePhase phase = TracePhase::kTrain;

  size_t partitions = 0;       // dataset partitions processed
  size_t records_in = 0;       // records flowing into the operator
  double wall_seconds = 0.0;   // real kernel wall time (Timer)
  double virtual_seconds = 0.0;  // virtual cluster time charged

  CostProfile predicted;                 // a-priori cost model output
  std::optional<CostProfile> observed;   // kernel-reported actual cost
  bool used_observed = false;  // the ledger was charged from `observed`

  bool cached = false;          // output chosen for materialization
  double output_bytes = 0.0;    // bytes the output materializes to
  /// Fault-injection accounting (fit/eval under a FaultPlan). A node span
  /// carries the aggregate recovery time its execution paid; dedicated
  /// recovery spans (kind == "recovery") carry one fault event each.
  /// fault_attempts == 0 means no fault plan touched this span, so the
  /// exporters omit these fields entirely and fault-free traces stay
  /// byte-identical to pre-fault builds.
  double recovery_seconds = 0.0;
  int fault_attempts = 0;
  bool cache_recovery = false;  // a retry re-read inputs from cache
  /// True for spans reconstructed from stored profiles rather than a live
  /// execution (reuse_stored_profiles skips the sampling passes; the
  /// optimizer emits synthetic profile-phase spans so reports and metrics
  /// still cover every node).
  bool synthetic = false;
  /// True for a profile-phase estimator span charged from the cost its fit
  /// would report, without fitting (the sample model nothing reads). Its
  /// wall time is the costing's, not a fit's.
  bool fit_skipped = false;
};

/// Thread-safe sink for execution spans plus the export logic: Chrome
/// `chrome://tracing` JSON and a human-readable plan report. The executor
/// and ExecContext feed a recorder; benches dump it via --trace-out.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Record(TraceSpan span);

  size_t NumSpans() const;
  std::vector<TraceSpan> Spans() const;
  void Clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}): spans are laid out
  /// on the virtual-cluster timeline, one row per phase, with predicted and
  /// observed cost profiles attached as args. Load via chrome://tracing or
  /// https://ui.perfetto.dev.
  std::string ChromeTraceJson() const;
  bool WriteChromeTrace(const std::string& path) const;

  /// Human-readable per-span report: what ran, predicted vs observed cost,
  /// and the prediction error where both sides exist.
  std::string PlanReport() const;

  /// Process-wide recorder; ExecContext traces into this by default.
  static TraceRecorder& Global();

 private:
  mutable Mutex mu_{kLockRankTrace};
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
  /// Per-phase virtual-time cursor: spans within a phase are laid end to
  /// end, which matches the simulator's sequential charging model.
  std::map<TracePhase, double> phase_cursor_ GUARDED_BY(mu_);
  /// Virtual start time of spans_[i].
  std::vector<double> span_start_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace keystone

#endif  // KEYSTONE_OBS_TRACE_H_
