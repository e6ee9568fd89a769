#ifndef KEYSTONE_SERVE_PIPELINE_SERVER_H_
#define KEYSTONE_SERVE_PIPELINE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/core/exec_context.h"
#include "src/obs/slo.h"
#include "src/obs/telemetry.h"
#include "src/serve/load_generator.h"
#include "src/serve/request.h"
#include "src/serve/request_queue.h"
#include "src/serve/servable_pipeline.h"
#include "src/serve/serve_options.h"
#include "src/sim/resources.h"

namespace keystone {
namespace serve {

/// Server-wide knobs (tenant-specific knobs live in ServeOptions).
struct ServerConfig {
  /// Concurrent micro-batch executions on the virtual-time axis: the
  /// serving analogue of cluster job slots. Batches from any tenant
  /// compete for the same slots.
  int server_slots = 4;

  /// Size of the server-owned kernel thread pool; 0 = hardware
  /// concurrency. Affects wall time only — never virtual time, responses,
  /// or metrics (the determinism tests pin this at 1 vs 4 and demand
  /// byte-identical output).
  size_t num_threads = 0;
};

/// Per-tenant tallies and latency summary for one Run.
struct TenantReport {
  std::string name;
  ServeOptions options;

  size_t offered = 0;
  size_t accepted = 0;
  size_t rejected_queue_full = 0;
  size_t rejected_predicted_cost = 0;
  size_t rejected_error_budget = 0;
  size_t completed = 0;
  size_t slo_met = 0;

  // Trace head-sampling accounting (only requests whose tenant emits
  // request spans are counted; sampled + dropped == completed then).
  size_t trace_sampled = 0;
  size_t trace_dropped = 0;

  // SLO error-budget state at end of run (budget_shedding tenants only;
  // the defaults mean "budget untouched, never shed").
  double budget_remaining_fraction = 1.0;
  double final_fast_burn = 0.0;
  double final_slow_burn = 0.0;
  /// Budget remaining at the instant shedding first engaged; -1 when it
  /// never did. Positive proves shedding fired *before* exhaustion.
  double first_shed_budget_remaining = -1.0;

  size_t batches = 0;
  size_t batched_records = 0;
  size_t queue_high_water = 0;

  // Exact (sort-based) latency quantiles over completed requests, seconds.
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double p999_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;
  double mean_latency_seconds = 0.0;

  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_records) /
                              static_cast<double>(batches);
  }
  /// Completed requests per virtual second of the whole run.
  double ThroughputRps(double makespan_seconds) const {
    return makespan_seconds <= 0.0
               ? 0.0
               : static_cast<double>(completed) / makespan_seconds;
  }
  /// Fraction of completed requests that met the tenant SLO.
  double SloAttainment() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(slo_met) / static_cast<double>(completed);
  }
};

/// Everything one PipelineServer::Run produced: the full response stream in
/// deterministic emission order plus per-tenant and server-level rollups.
struct ServeReport {
  std::vector<ServeResponse> responses;
  std::vector<TenantReport> tenants;

  double makespan_seconds = 0.0;   // virtual time of the last event
  double busy_seconds = 0.0;       // summed slot-busy virtual seconds
  int server_slots = 0;

  /// Mean fraction of server slots busy over the makespan.
  double Utilization() const {
    return (makespan_seconds <= 0.0 || server_slots <= 0)
               ? 0.0
               : busy_seconds / (makespan_seconds * server_slots);
  }

  /// Canonical encoding of the whole response stream, one line per
  /// response in emission order. Two runs are behaviorally identical iff
  /// these strings are byte-identical — the determinism tests compare this
  /// across server thread counts.
  std::string ResponseStream() const;

  std::string ToString() const;
  /// JSON object (no trailing newline) embedding per-tenant quantiles and
  /// server rollups; bench_serving splices these into BENCH_serving.json.
  std::string ToJson() const;
};

/// Hosts N fitted pipelines for concurrent single-row serving on one
/// shared kernel pool, with per-tenant micro-batching, bounded queues,
/// cost-guided admission control, and SLO accounting.
///
/// Execution model: Run() consumes a deterministic RequestSource and
/// advances a serial virtual-time event loop (arrivals, batch-delay
/// timers, batch completions). Every *decision* — admit/reject, batch
/// boundaries, slot assignment, response order, metric and trace emission
/// — happens on that serial loop; only the pipelines' real kernels run on
/// the thread pool, and their outputs are deterministic functions of the
/// batch content. Hence a fixed source yields a byte-identical
/// ResponseStream regardless of num_threads — the serving analogue of the
/// PlanRunner's buffered-flush determinism argument.
class PipelineServer {
 public:
  PipelineServer(const ClusterResourceDescriptor& resources,
                 ServerConfig config = ServerConfig());

  /// Registers a tenant; returns its id (the `tenant` field requests must
  /// carry). Validates servability via ServablePipeline unless the caller
  /// already did.
  int AddTenant(std::string name, ServablePipeline pipeline,
                std::shared_ptr<RequestCodec> codec,
                ServeOptions options = ServeOptions());

  /// Drains the source to exhaustion and returns the full report. May be
  /// called repeatedly; each run starts from an idle server but keeps the
  /// tenants' calibrated cost estimates (deliberately: a warmed server).
  ServeReport Run(RequestSource* source);

  /// The server's own context: its ledger accumulates the "Serve" stage
  /// charges, and its sinks receive the serving spans and metrics.
  ExecContext* context() { return &ctx_; }

  /// Attaches a windowed telemetry hub (borrowed; nullptr detaches). Every
  /// virtual-time advance of the event loop ticks it, so windows close at
  /// deterministic virtual instants and the snapshot stream is
  /// byte-identical across kernel-pool sizes. Each Run() is one telemetry
  /// epoch, closed (and any attached JSONL file written) before Run
  /// returns.
  void set_telemetry(obs::TelemetryHub* telemetry) { telemetry_ = telemetry; }
  obs::TelemetryHub* telemetry() const { return telemetry_; }

  size_t num_tenants() const { return tenants_.size(); }

 private:
  struct Tenant {
    Tenant(std::string name_in, ServablePipeline pipeline_in,
           std::shared_ptr<RequestCodec> codec_in, ServeOptions options_in)
        : name(std::move(name_in)),
          pipeline(std::move(pipeline_in)),
          codec(std::move(codec_in)),
          options(options_in),
          queue(options.queue_depth) {}

    std::string name;
    ServablePipeline pipeline;
    std::shared_ptr<RequestCodec> codec;
    ServeOptions options;
    BoundedRequestQueue queue;
    /// Deterministic head sampler for this tenant's request spans.
    obs::TraceSampler sampler;
    /// Error-budget tracker; null unless options.budget_shedding.
    std::unique_ptr<obs::SloErrorBudget> budget;
    // Hub series ids, registered at the start of every Run against the
    // attached hub (the hot path records through ids, never by-name map
    // lookups).
    obs::TelemetryHub::SeriesId id_offered = 0, id_accepted = 0,
                               id_rejected = 0, id_completed = 0;
    obs::TelemetryHub::SeriesId id_latency = 0, id_violations = 0;
    obs::TelemetryHub::SeriesId id_budget_remaining = 0, id_burn_fast = 0,
                               id_burn_slow = 0, id_shed = 0;
    // Last values published to the SLO gauges this epoch (NaN = none yet).
    // Identical re-sets are skipped: a gauge re-exports its latest value in
    // every window anyway, so the skip leaves the snapshot stream
    // byte-identical while healthy steady states publish ~nothing.
    double tel_budget_published = 0.0, tel_burn_fast_published = 0.0,
           tel_burn_slow_published = 0.0;
  };

  /// A dispatched micro-batch whose kernels already ran; rides the event
  /// heap until its virtual completion time.
  struct BatchResult {
    int tenant = -1;
    uint64_t batch_id = 0;
    double dispatch_seconds = 0.0;
    double completion_seconds = 0.0;
    double service_seconds = 0.0;
    double wall_seconds = 0.0;
    std::vector<ServeRequest> requests;
    std::vector<std::string> outputs;  // encoded, one per request
  };

  enum class EventKind { kCompletion = 0, kTimer = 1 };

  struct Event {
    double time = 0.0;
    EventKind kind = EventKind::kTimer;
    uint64_t seq = 0;  // tiebreaker: creation order
    // kTimer: wake the dispatcher when this tenant's queue front reaches
    // its batch-delay deadline (a no-op if the front already left).
    int tenant = -1;
    // kCompletion payload.
    BatchResult batch;
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.kind != b.kind) return a.kind > b.kind;  // completions first
      return a.seq > b.seq;
    }
  };

  /// Moves virtual time forward: updates now_, ticks the attached
  /// telemetry hub, and rotates every tenant's error-budget windows. All
  /// virtual-time motion funnels through here.
  void AdvanceClock(double time_seconds);
  /// Registers every tenant's telemetry series with the attached hub and
  /// caches the stable ids the hot paths record through.
  void RegisterTelemetrySeries();
  /// Adds this run's tallies and latencies (in completion order) to the
  /// context's `serve.*` metrics.
  void PublishMetrics() const;
  void HandleArrival(const ServeRequest& request, RequestSource* source,
                     ServeReport* report);
  void HandleCompletion(const Event& event, RequestSource* source,
                        ServeReport* report);
  /// Lowest-index slot free at now_, or -1 when all slots are busy.
  int FreeSlot() const;
  /// A queue is ripe when it can fill a batch or its front has waited out
  /// the tenant's batch delay.
  bool Ripe(const Tenant& tenant) const;
  /// Greedy dispatcher: while a slot is free and some tenant is ripe
  /// (lowest tenant id first), form and launch a batch. Called after every
  /// event that could free a slot or ripen a queue.
  void TryDispatch();
  /// Pops up to max_batch_size requests, runs the kernels immediately, and
  /// occupies `slot` until the batch's virtual completion.
  void FormBatch(int tenant_id, int slot);
  void ArmTimer(int tenant_id, double when);
  void Reject(const ServeRequest& request, RejectReason reason,
              RequestSource* source, ServeReport* report);
  void EmitResponse(ServeResponse response, RequestSource* source,
                    ServeReport* report);

  ServerConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  ExecContext ctx_;
  std::vector<Tenant> tenants_;
  obs::TelemetryHub* telemetry_ = nullptr;
  /// Process-wide trace-sampling accounting series on the attached hub.
  obs::TelemetryHub::SeriesId id_trace_sampled_ = 0;
  obs::TelemetryHub::SeriesId id_trace_dropped_ = 0;

  // --- Per-run event-loop state (reset by Run) ---------------------------
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::vector<double> slot_free_;  // per slot, virtual time it frees up
  double now_ = 0.0;
  double busy_seconds_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_batch_id_ = 0;
  // Per-tenant per-run tallies: the one count of every request outcome,
  // copied into the report and published as metrics at the end.
  std::vector<TenantReport> tallies_;
  // Per tenant, completed only, in completion order.
  std::vector<std::vector<double>> latencies_;
};

}  // namespace serve
}  // namespace keystone

#endif  // KEYSTONE_SERVE_PIPELINE_SERVER_H_
