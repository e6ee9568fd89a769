#ifndef KEYSTONE_CORE_EXEC_CONTEXT_H_
#define KEYSTONE_CORE_EXEC_CONTEXT_H_

#include <memory>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/profile_store.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/sim/resources.h"
#include "src/sim/virtual_time.h"

namespace keystone {

namespace faults {
class FaultPlan;
}  // namespace faults

namespace cache {
class ArtifactCatalog;
}  // namespace cache

/// Execution knobs, part of the shared environment: a PipelineExecutor or
/// PipelineServer sets them once and every run (and every serving request
/// context minted via MakeRequestContext) inherits them. Whether a chain
/// streams at all is the plan's decision (OptimizationConfig::
/// operator_fusion records fused regions, and a plan without them runs node
/// by node); these knobs only shape how fused regions stream, never results.
struct ExecOptions {
  /// Records per chunk when streaming a fused region.
  size_t max_batch_size = 1024;
};

/// Everything an operator needs at execution time: the cluster description,
/// the virtual-time ledger, and a worker pool for real (in-process) compute.
/// Operators run their real kernels on the pool; estimators return the cost
/// profile of the equivalent distributed execution alongside their model
/// (Fitted), and the executor charges it to the ledger. The context also
/// carries the observability sinks — trace recorder, metrics registry, and
/// observed-cost profile store — which default to the process-wide
/// instances and may be redirected per context.
///
/// The state splits into two layers:
///  - the shared execution *environment* (cluster description, worker pool,
///    observability sinks), safely shared across any number of contexts and
///    long-lived (a PipelineExecutor or a PipelineServer owns one); and
///  - the per-run state (ledger, fault plan) that belongs to exactly one
///    fit or one serving request.
/// MakeRequestContext() clones the compute environment, without the sinks,
/// into a fresh context with clean per-run state — the serving path mints
/// one per batch so request ledgers never bleed into each other or into a
/// concurrent fit.
class ExecContext {
 public:
  explicit ExecContext(const ClusterResourceDescriptor& resources)
      : resources_(resources),
        ledger_(resources),
        pool_(&ThreadPool::Global()),
        tracer_(&obs::TraceRecorder::Global()),
        metrics_(&obs::MetricsRegistry::Global()),
        profile_store_(&obs::ProfileStore::Global()),
        timeline_(&obs::ResourceTimeline::Global()) {
    ledger_.set_metrics(metrics_);
  }

  // --- Shared execution environment --------------------------------------

  const ClusterResourceDescriptor& resources() const { return resources_; }
  ThreadPool* pool() { return pool_; }
  /// Redirects kernel execution to a caller-owned pool (e.g. the
  /// PipelineServer's dedicated serving pool). The pool is borrowed; the
  /// caller keeps it alive across every run on this context.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Observability sinks. Never null by default; set to nullptr to disable.
  obs::TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    ledger_.set_metrics(metrics);
  }
  obs::ProfileStore* profile_store() const { return profile_store_; }
  void set_profile_store(obs::ProfileStore* store) { profile_store_ = store; }
  obs::ResourceTimeline* timeline() const { return timeline_; }
  void set_timeline(obs::ResourceTimeline* timeline) { timeline_ = timeline; }

  /// Optional windowed time-series sink (null by default — telemetry is
  /// opt-in, unlike the always-on sinks above). When set, PlanRunner
  /// streams per-node observations into it and ticks it along the
  /// ledger's virtual-time axis as node outcomes flush.
  obs::TelemetryHub* telemetry() const { return telemetry_; }
  void set_telemetry(obs::TelemetryHub* telemetry) { telemetry_ = telemetry; }

  /// Execution knobs (the fused-region chunk size).
  const ExecOptions& exec_options() const { return exec_options_; }
  void set_exec_options(const ExecOptions& options) {
    exec_options_ = options;
  }

  /// Optional cross-run artifact catalog (src/cache). Null by default —
  /// attaching one is how a run opts into cross-run reuse: the ReusePass
  /// rewrites fingerprint-matching nodes into catalog reads and the fit
  /// pass publishes eligible intermediates back into it, at every
  /// optimization level. Borrowed, not owned.
  cache::ArtifactCatalog* artifact_catalog() const { return catalog_; }
  void set_artifact_catalog(cache::ArtifactCatalog* catalog) {
    catalog_ = catalog;
  }

  /// A fresh context sharing this one's compute environment (resources,
  /// pool, exec options, artifact catalog) with clean per-run state: a
  /// zeroed ledger and no fault plan. It carries no observability sinks:
  /// the request path emits nothing itself (a server publishes spans and
  /// metrics from its serial completion path) and reads a request's
  /// virtual service seconds off the context's own ledger.
  std::unique_ptr<ExecContext> MakeRequestContext() const {
    auto ctx = std::make_unique<ExecContext>(resources_);
    ctx->pool_ = pool_;
    ctx->tracer_ = nullptr;
    ctx->set_metrics(nullptr);
    ctx->profile_store_ = nullptr;
    ctx->timeline_ = nullptr;
    ctx->exec_options_ = exec_options_;
    ctx->catalog_ = catalog_;
    return ctx;
  }

  // --- Per-run state ------------------------------------------------------

  VirtualTimeLedger* ledger() { return &ledger_; }

  /// Optional fault-injection plan. When set (and enabled), PlanRunner
  /// replays every full-scale node execution under the plan and charges the
  /// resulting retry/recompute/straggler time to the "Recovery" ledger
  /// stage. Null (the default) means a cluster that never fails — all
  /// pre-fault behavior is preserved bit-for-bit. The plan is borrowed, not
  /// owned; the caller keeps it alive across the run.
  const faults::FaultPlan* fault_plan() const { return fault_plan_; }
  void set_fault_plan(const faults::FaultPlan* plan) { fault_plan_ = plan; }

 private:
  ClusterResourceDescriptor resources_;
  VirtualTimeLedger ledger_;
  ThreadPool* pool_;
  obs::TraceRecorder* tracer_;
  obs::MetricsRegistry* metrics_;
  obs::ProfileStore* profile_store_;
  obs::ResourceTimeline* timeline_;
  obs::TelemetryHub* telemetry_ = nullptr;
  ExecOptions exec_options_;
  cache::ArtifactCatalog* catalog_ = nullptr;
  const faults::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace keystone

#endif  // KEYSTONE_CORE_EXEC_CONTEXT_H_
