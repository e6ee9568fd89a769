#include "src/serve/pipeline_server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "src/common/check.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"

namespace keystone {
namespace serve {
namespace {

size_t PoolThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

/// Exact nearest-rank quantile over a sorted sample (empty -> 0).
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void AppendF(std::string* out, const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  *out += buf;
}

}  // namespace

std::string ServeReport::ResponseStream() const {
  std::string out;
  for (const ServeResponse& r : responses) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "t%d r%llu %s arr=%.9f done=%.9f batch=%llu n=%zu slo=%d ",
                  r.tenant, static_cast<unsigned long long>(r.id),
                  r.accepted ? "ok" : RejectReasonName(r.reject),
                  r.arrival_seconds, r.completion_seconds,
                  static_cast<unsigned long long>(r.batch_id), r.batch_size,
                  r.slo_met ? 1 : 0);
    out += buf;
    out += r.output;
    out += '\n';
  }
  return out;
}

std::string ServeReport::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ServeReport{makespan=%.3fs, slots=%d, utilization=%.1f%%}\n",
                makespan_seconds, server_slots, 100.0 * Utilization());
  out += buf;
  for (const TenantReport& t : tenants) {
    std::snprintf(
        buf, sizeof(buf),
        "  %-10s offered=%zu accepted=%zu shed(queue=%zu cost=%zu "
        "budget=%zu) done=%zu slo=%.1f%% batch=%.2f tput=%.2f rps "
        "p50=%.4fs p99=%.4fs p999=%.4fs\n",
        t.name.c_str(), t.offered, t.accepted, t.rejected_queue_full,
        t.rejected_predicted_cost, t.rejected_error_budget, t.completed,
        100.0 * t.SloAttainment(), t.MeanBatchSize(),
        t.ThroughputRps(makespan_seconds), t.p50_latency_seconds,
        t.p99_latency_seconds, t.p999_latency_seconds);
    out += buf;
    if (t.options.budget_shedding) {
      std::snprintf(buf, sizeof(buf),
                    "             budget remaining=%.1f%% burn(fast=%.2f "
                    "slow=%.2f) first shed at %.1f%% remaining\n",
                    100.0 * t.budget_remaining_fraction, t.final_fast_burn,
                    t.final_slow_burn,
                    100.0 * t.first_shed_budget_remaining);
      out += buf;
    }
    if (t.trace_sampled + t.trace_dropped > 0) {
      std::snprintf(buf, sizeof(buf),
                    "             trace sampled=%zu dropped=%zu (rate=%.3g)\n",
                    t.trace_sampled, t.trace_dropped,
                    t.options.trace_sample_rate);
      out += buf;
    }
  }
  return out;
}

std::string ServeReport::ToJson() const {
  std::string out = "{\"makespan_seconds\":";
  AppendF(&out, "%.9g", makespan_seconds);
  out += ",\"busy_seconds\":";
  AppendF(&out, "%.9g", busy_seconds);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"server_slots\":%d", server_slots);
  out += buf;
  out += ",\"utilization\":";
  AppendF(&out, "%.6g", Utilization());
  out += ",\"tenants\":[";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantReport& t = tenants[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(t.name) + "\"";
    char nbuf[512];
    std::snprintf(
        nbuf, sizeof(nbuf),
        ",\"offered\":%zu,\"accepted\":%zu,\"rejected_queue_full\":%zu,"
        "\"rejected_predicted_cost\":%zu,\"rejected_error_budget\":%zu,"
        "\"completed\":%zu,\"slo_met\":%zu,"
        "\"batches\":%zu,\"queue_high_water\":%zu,"
        "\"trace_sampled\":%zu,\"trace_dropped\":%zu",
        t.offered, t.accepted, t.rejected_queue_full,
        t.rejected_predicted_cost, t.rejected_error_budget, t.completed,
        t.slo_met, t.batches, t.queue_high_water, t.trace_sampled,
        t.trace_dropped);
    out += nbuf;
    out += ",\"budget_remaining_fraction\":";
    AppendF(&out, "%.9g", t.budget_remaining_fraction);
    out += ",\"first_shed_budget_remaining\":";
    AppendF(&out, "%.9g", t.first_shed_budget_remaining);
    out += ",\"final_fast_burn\":";
    AppendF(&out, "%.9g", t.final_fast_burn);
    out += ",\"final_slow_burn\":";
    AppendF(&out, "%.9g", t.final_slow_burn);
    out += ",\"mean_batch_size\":";
    AppendF(&out, "%.6g", t.MeanBatchSize());
    out += ",\"throughput_rps\":";
    AppendF(&out, "%.6g", t.ThroughputRps(makespan_seconds));
    out += ",\"slo_attainment\":";
    AppendF(&out, "%.6g", t.SloAttainment());
    out += ",\"slo_seconds\":";
    AppendF(&out, "%.6g", t.options.slo_seconds);
    out += ",\"p50_latency_seconds\":";
    AppendF(&out, "%.9g", t.p50_latency_seconds);
    out += ",\"p99_latency_seconds\":";
    AppendF(&out, "%.9g", t.p99_latency_seconds);
    out += ",\"p999_latency_seconds\":";
    AppendF(&out, "%.9g", t.p999_latency_seconds);
    out += ",\"max_latency_seconds\":";
    AppendF(&out, "%.9g", t.max_latency_seconds);
    out += ",\"mean_latency_seconds\":";
    AppendF(&out, "%.9g", t.mean_latency_seconds);
    out += "}";
  }
  out += "]}";
  return out;
}

PipelineServer::PipelineServer(const ClusterResourceDescriptor& resources,
                               ServerConfig config)
    : config_(config),
      pool_(std::make_unique<ThreadPool>(PoolThreads(config.num_threads))),
      ctx_(resources) {
  KS_CHECK_GT(config_.server_slots, 0);
  ctx_.set_pool(pool_.get());
}

int PipelineServer::AddTenant(std::string name, ServablePipeline pipeline,
                              std::shared_ptr<RequestCodec> codec,
                              ServeOptions options) {
  KS_CHECK(codec != nullptr);
  KS_CHECK_GT(options.max_batch_size, 0u);
  KS_CHECK_GT(options.queue_depth, 0u);
  KS_CHECK(options.max_batch_delay_seconds >= 0.0);
  KS_CHECK(options.slo_seconds > 0.0);
  Tenant tenant(std::move(name), std::move(pipeline), std::move(codec),
                options);
  tenant.sampler =
      obs::TraceSampler(options.trace_sample_rate, options.trace_sample_seed);
  if (options.budget_shedding) {
    tenant.budget = std::make_unique<obs::SloErrorBudget>(options.slo_budget);
  }
  tenants_.push_back(std::move(tenant));
  return static_cast<int>(tenants_.size()) - 1;
}

void PipelineServer::RegisterTelemetrySeries() {
  using Kind = obs::TelemetrySeriesKind;
  obs::TelemetryHub* hub = telemetry_;
  for (Tenant& t : tenants_) {
    const std::string serve = "serve." + t.name + ".";
    const std::string slo = "slo." + t.name + ".";
    t.id_offered = hub->RegisterSeries(serve + "offered", Kind::kCounter);
    t.id_accepted = hub->RegisterSeries(serve + "accepted", Kind::kCounter);
    t.id_rejected = hub->RegisterSeries(serve + "rejected", Kind::kCounter);
    t.id_completed = hub->RegisterSeries(serve + "completed", Kind::kCounter);
    t.id_latency =
        hub->RegisterSeries(serve + "latency_seconds", Kind::kHistogram);
    t.id_violations =
        hub->RegisterSeries(serve + "slo_violations", Kind::kCounter);
    t.id_budget_remaining =
        hub->RegisterSeries(slo + "budget_remaining", Kind::kGauge);
    t.id_burn_fast = hub->RegisterSeries(slo + "burn_fast", Kind::kGauge);
    t.id_burn_slow = hub->RegisterSeries(slo + "burn_slow", Kind::kGauge);
    t.id_shed = hub->RegisterSeries(slo + "shed", Kind::kCounter);
  }
  id_trace_sampled_ =
      hub->RegisterSeries("serve.trace.sampled", Kind::kCounter);
  id_trace_dropped_ =
      hub->RegisterSeries("serve.trace.dropped", Kind::kCounter);
}

void PipelineServer::PublishMetrics() const {
  obs::MetricsRegistry* m = ctx_.metrics();
  if (m == nullptr) return;
  size_t trace_sampled = 0;
  size_t trace_dropped = 0;
  for (size_t i = 0; i < tallies_.size(); ++i) {
    const TenantReport& t = tallies_[i];
    const std::string prefix = "serve." + t.name + ".";
    const auto count = [&](const char* name, size_t n) {
      m->Increment(prefix + name, static_cast<double>(n));
    };
    count("offered", t.offered);
    count("accepted", t.accepted);
    count("rejected.queue_full", t.rejected_queue_full);
    count("rejected.predicted_cost", t.rejected_predicted_cost);
    count("rejected.error_budget", t.rejected_error_budget);
    count("slo.met", t.slo_met);
    count("slo.violated", t.completed - t.slo_met);
    obs::Histogram* latency = m->GetHistogram(prefix + "latency_seconds");
    for (double v : latencies_[i]) latency->Record(v);
    trace_sampled += t.trace_sampled;
    trace_dropped += t.trace_dropped;
  }
  m->Increment("serve.trace.sampled", static_cast<double>(trace_sampled));
  m->Increment("serve.trace.dropped", static_cast<double>(trace_dropped));
}

ServeReport PipelineServer::Run(RequestSource* source) {
  KS_CHECK(source != nullptr);
  KS_CHECK(!tenants_.empty()) << "Run() before any AddTenant()";

  // Reset per-run state (tenant queues are empty between runs by the
  // loop's own drain invariant; calibration deliberately persists).
  events_ = {};
  slot_free_.assign(static_cast<size_t>(config_.server_slots), 0.0);
  now_ = 0.0;
  busy_seconds_ = 0.0;
  next_seq_ = 0;
  next_batch_id_ = 0;
  tallies_.assign(tenants_.size(), TenantReport());
  latencies_.assign(tenants_.size(), {});
  for (size_t i = 0; i < tenants_.size(); ++i) {
    tallies_[i].name = tenants_[i].name;
    tallies_[i].options = tenants_[i].options;
    if (tenants_[i].budget != nullptr) tenants_[i].budget->Reset();
    // New run = new telemetry epoch: the first completion must publish the
    // SLO gauges again regardless of their last-epoch values.
    tenants_[i].tel_budget_published =
        std::numeric_limits<double>::quiet_NaN();
    tenants_[i].tel_burn_fast_published =
        std::numeric_limits<double>::quiet_NaN();
    tenants_[i].tel_burn_slow_published =
        std::numeric_limits<double>::quiet_NaN();
  }
  // A new run is a new telemetry epoch (a no-op on a fresh hub). Series
  // are registered against whichever hub is attached now: registration is
  // idempotent, and ids issued by an earlier hub mean nothing to this one.
  if (telemetry_ != nullptr) {
    telemetry_->CloseEpoch();
    RegisterTelemetrySeries();
  }

  ServeReport report;
  report.server_slots = config_.server_slots;

  while (true) {
    ServeRequest arrival;
    const bool has_arrival = source->Peek(&arrival);
    if (events_.empty() && !has_arrival) {
      // A closed-loop source with in-flight responses would imply a
      // pending completion event; queued requests imply a pending timer.
      KS_CHECK(source->Exhausted()) << "serving event loop stalled";
      break;
    }
    const bool take_event =
        !events_.empty() &&
        (!has_arrival || events_.top().time <= arrival.arrival_seconds);
    if (take_event) {
      Event event = events_.top();
      events_.pop();
      AdvanceClock(event.time);
      if (event.kind == EventKind::kCompletion) {
        HandleCompletion(event, source, &report);
      }
      // Timer or completion, the response is the same: something may have
      // ripened or freed up, so give the dispatcher a chance.
      TryDispatch();
    } else {
      source->Pop();
      AdvanceClock(arrival.arrival_seconds);
      HandleArrival(arrival, source, &report);
    }
  }

  report.makespan_seconds = now_;
  report.busy_seconds = busy_seconds_;
  // Before the sort below: the latency histogram sums in completion order.
  PublishMetrics();
  for (size_t i = 0; i < tenants_.size(); ++i) {
    TenantReport& t = tallies_[i];
    t.queue_high_water = tenants_[i].queue.high_water();
    if (tenants_[i].budget != nullptr) {
      const obs::SloErrorBudget& budget = *tenants_[i].budget;
      t.budget_remaining_fraction = budget.BudgetRemainingFraction();
      t.final_fast_burn = budget.FastBurnRate();
      t.final_slow_burn = budget.SlowBurnRate();
    }
    std::vector<double>& lat = latencies_[i];
    std::sort(lat.begin(), lat.end());
    if (!lat.empty()) {
      t.p50_latency_seconds = SortedQuantile(lat, 0.50);
      t.p99_latency_seconds = SortedQuantile(lat, 0.99);
      t.p999_latency_seconds = SortedQuantile(lat, 0.999);
      t.max_latency_seconds = lat.back();
      double sum = 0.0;
      for (double v : lat) sum += v;
      t.mean_latency_seconds = sum / static_cast<double>(lat.size());
    }
    report.tenants.push_back(t);
  }
  // One Run == one telemetry epoch: closing it emits the final partial
  // window, so the stream for this run is complete (and written to any
  // attached file) before Run returns.
  if (telemetry_ != nullptr) telemetry_->CloseEpoch();
  return report;
}

void PipelineServer::AdvanceClock(double time_seconds) {
  if (time_seconds <= now_) return;
  now_ = time_seconds;
  if (telemetry_ != nullptr) telemetry_->Tick(now_);
  for (Tenant& tenant : tenants_) {
    if (tenant.budget != nullptr) tenant.budget->AdvanceTo(now_);
  }
}

void PipelineServer::HandleArrival(const ServeRequest& request,
                                   RequestSource* source,
                                   ServeReport* report) {
  KS_CHECK(request.tenant >= 0 &&
           request.tenant < static_cast<int>(tenants_.size()))
      << "request for unknown tenant " << request.tenant;
  Tenant& tenant = tenants_[static_cast<size_t>(request.tenant)];
  TenantReport& tally = tallies_[static_cast<size_t>(request.tenant)];
  ++tally.offered;
  if (telemetry_ != nullptr) telemetry_->CountId(tenant.id_offered);

  if (tenant.queue.size() >= tenant.queue.depth()) {
    Reject(request, RejectReason::kQueueFull, source, report);
    return;
  }
  // Error-budget shedding: when the tenant is burning its SLO budget too
  // fast on both lookbacks, shed *now* — before the queue and cost checks
  // admit work that would land as further violations. Shedding while
  // budget remains is the point: the tenant recovers instead of breaching.
  if (tenant.budget != nullptr && tenant.budget->ShouldShed()) {
    tenant.budget->RecordShed();
    if (tally.first_shed_budget_remaining < 0.0) {
      tally.first_shed_budget_remaining =
          tenant.budget->BudgetRemainingFraction();
    }
    if (telemetry_ != nullptr) telemetry_->CountId(tenant.id_shed);
    Reject(request, RejectReason::kErrorBudget, source, report);
    return;
  }
  if (tenant.options.cost_admission) {
    // Predict this request's latency were it admitted: it waits out the
    // batch delay, then its batch waits for the cheapest slot, then pays
    // the batch's predicted service time (runtime-plan costing with the
    // tenant's calibrated per-record estimate). Shed if that already
    // exceeds the admission budget — the request would miss its SLO, so
    // rejecting now is cheaper than serving late.
    const size_t batch_records =
        std::min(tenant.queue.size() + 1, tenant.options.max_batch_size);
    double earliest_slot = slot_free_[0];
    for (double f : slot_free_) earliest_slot = std::min(earliest_slot, f);
    const double slot_wait = std::max(0.0, earliest_slot - now_);
    const double predicted =
        tenant.options.max_batch_delay_seconds + slot_wait +
        tenant.pipeline.PredictBatchSeconds(batch_records);
    if (predicted >
        tenant.options.admission_headroom * tenant.options.slo_seconds) {
      Reject(request, RejectReason::kPredictedCost, source, report);
      return;
    }
  }

  KS_CHECK(tenant.queue.TryPush(request));
  ++tally.accepted;
  if (telemetry_ != nullptr) telemetry_->CountId(tenant.id_accepted);
  TryDispatch();
  // If the new request ended up at the head of a still-pending queue, wake
  // the dispatcher again at its batch-delay deadline. Older heads already
  // have a timer from their own push or from the batch that exposed them.
  const ServeRequest* front = tenant.queue.Front();
  if (front != nullptr && front->id == request.id) {
    ArmTimer(request.tenant, request.arrival_seconds +
                                 tenant.options.max_batch_delay_seconds);
  }
}

int PipelineServer::FreeSlot() const {
  for (size_t s = 0; s < slot_free_.size(); ++s) {
    if (slot_free_[s] <= now_) return static_cast<int>(s);
  }
  return -1;
}

bool PipelineServer::Ripe(const Tenant& tenant) const {
  const ServeRequest* front = tenant.queue.Front();
  if (front == nullptr) return false;
  return tenant.queue.size() >= tenant.options.max_batch_size ||
         now_ >= front->arrival_seconds +
                     tenant.options.max_batch_delay_seconds;
}

void PipelineServer::TryDispatch() {
  while (true) {
    const int slot = FreeSlot();
    if (slot < 0) return;
    int ripe_tenant = -1;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      if (Ripe(tenants_[t])) {
        ripe_tenant = static_cast<int>(t);
        break;
      }
    }
    if (ripe_tenant < 0) return;
    FormBatch(ripe_tenant, slot);
  }
}

void PipelineServer::ArmTimer(int tenant_id, double when) {
  Event event;
  event.time = std::max(now_, when);
  event.kind = EventKind::kTimer;
  event.seq = next_seq_++;
  event.tenant = tenant_id;
  events_.push(std::move(event));
}

void PipelineServer::FormBatch(int tenant_id, int slot) {
  Tenant& tenant = tenants_[static_cast<size_t>(tenant_id)];
  BatchResult batch;
  batch.tenant = tenant_id;
  batch.batch_id = next_batch_id_++;
  batch.requests = tenant.queue.PopBatch(tenant.options.max_batch_size);
  KS_CHECK(!batch.requests.empty());
  batch.dispatch_seconds = now_;

  // Run the real kernels immediately (wall time), on a request context,
  // which carries no observability sinks: the server publishes spans and
  // metrics from the serial completion path. The batch's data-dependent
  // virtual cost is read off the request context's private ledger.
  std::vector<size_t> payloads;
  payloads.reserve(batch.requests.size());
  for (const ServeRequest& r : batch.requests) payloads.push_back(r.payload);
  auto request_ctx = ctx_.MakeRequestContext();
  Timer timer;
  double variable_seconds = 0.0;
  const AnyDataset out = tenant.pipeline.Apply(
      tenant.codec->MakeBatch(payloads), request_ctx.get(), &variable_seconds);
  batch.wall_seconds = timer.ElapsedSeconds();
  batch.outputs = tenant.codec->EncodeBatch(out);
  KS_CHECK_EQ(batch.outputs.size(), batch.requests.size())
      << "codec must encode exactly one row per request";

  // Calibrate at dispatch, on the serial loop, so the admission estimate
  // evolves identically run-to-run.
  tenant.pipeline.ObserveBatch(batch.requests.size(), variable_seconds);

  batch.service_seconds =
      tenant.pipeline.FixedBatchOverheadSeconds() + variable_seconds;
  batch.completion_seconds = batch.dispatch_seconds + batch.service_seconds;
  slot_free_[static_cast<size_t>(slot)] = batch.completion_seconds;
  busy_seconds_ += batch.service_seconds;

  Event event;
  event.time = batch.completion_seconds;
  event.kind = EventKind::kCompletion;
  event.seq = next_seq_++;
  event.tenant = tenant_id;
  event.batch = std::move(batch);
  events_.push(std::move(event));

  // The pop exposed a new queue head (if any); make sure the dispatcher
  // wakes by its deadline, since its original push armed no timer.
  const ServeRequest* front = tenant.queue.Front();
  if (front != nullptr) {
    ArmTimer(tenant_id, front->arrival_seconds +
                            tenant.options.max_batch_delay_seconds);
  }
}

void PipelineServer::HandleCompletion(const Event& event,
                                      RequestSource* source,
                                      ServeReport* report) {
  Tenant& tenant = tenants_[static_cast<size_t>(event.tenant)];
  TenantReport& tally = tallies_[static_cast<size_t>(event.tenant)];
  const BatchResult& batch = event.batch;

  ctx_.ledger()->ChargeSeconds("Serve", batch.service_seconds);
  ++tally.batches;
  tally.batched_records += batch.requests.size();

  if (ctx_.tracer() != nullptr) {
    obs::TraceSpan span;
    span.name = "serve." + tenant.name;
    span.kind = "batch";
    span.phase = obs::TracePhase::kServe;
    span.partitions = 1;
    span.records_in = batch.requests.size();
    span.wall_seconds = batch.wall_seconds;
    span.virtual_seconds = batch.service_seconds;
    ctx_.tracer()->Record(std::move(span));
  }

  // Completion-side counters and budget gauges are batched: every request
  // in the batch completes at the same virtual instant, and no telemetry
  // window can close mid-batch (ticks fire between events on the serial
  // loop), so one per-batch delta lands in exactly the same window as N
  // per-request increments would — byte-identical stream, N-1 fewer hub
  // calls. Per-request latency samples still feed the histogram directly.
  size_t tel_violations = 0;
  size_t tel_sampled = 0;
  size_t tel_dropped = 0;
  for (size_t i = 0; i < batch.requests.size(); ++i) {
    const ServeRequest& request = batch.requests[i];
    ServeResponse response;
    response.tenant = request.tenant;
    response.id = request.id;
    response.user = request.user;
    response.accepted = true;
    response.arrival_seconds = request.arrival_seconds;
    response.dispatch_seconds = batch.dispatch_seconds;
    response.completion_seconds = batch.completion_seconds;
    response.latency_seconds =
        batch.completion_seconds - request.arrival_seconds;
    response.slo_met = response.latency_seconds <= tenant.options.slo_seconds;
    response.batch_id = batch.batch_id;
    response.batch_size = batch.requests.size();
    response.output = batch.outputs[i];

    ++tally.completed;
    latencies_[static_cast<size_t>(event.tenant)].push_back(
        response.latency_seconds);
    if (response.slo_met) ++tally.slo_met;
    // Every completion feeds the error budget and the windowed series —
    // sampling below only thins trace spans, never accounting, so p99 and
    // burn rates stay exact at any sampling rate.
    if (tenant.budget != nullptr) {
      tenant.budget->RecordOutcome(response.slo_met);
    }
    if (telemetry_ != nullptr) {
      telemetry_->ObserveId(tenant.id_latency, response.latency_seconds);
      if (!response.slo_met) ++tel_violations;
    }
    if (tenant.options.emit_request_spans && ctx_.tracer() != nullptr) {
      // Deterministic head sampling: keep or drop this request's span as
      // a pure function of (seed, tenant, id) — the same set regardless
      // of batching, schedule, or pool size.
      if (tenant.sampler.Sample(tenant.name, request.id)) {
        ++tally.trace_sampled;
        ++tel_sampled;
        obs::TraceSpan span;
        span.name = "serve." + tenant.name;
        span.kind = "request";
        span.phase = obs::TracePhase::kServe;
        span.records_in = 1;
        span.virtual_seconds = response.latency_seconds;
        ctx_.tracer()->Record(std::move(span));
      } else {
        ++tally.trace_dropped;
        ++tel_dropped;
      }
    }
    EmitResponse(std::move(response), source, report);
  }
  if (telemetry_ != nullptr && !batch.requests.empty()) {
    telemetry_->CountId(tenant.id_completed,
                      static_cast<double>(batch.requests.size()));
    if (tel_violations > 0) {
      telemetry_->CountId(tenant.id_violations,
                        static_cast<double>(tel_violations));
    }
    if (tel_sampled > 0) {
      telemetry_->CountId(id_trace_sampled_,
                        static_cast<double>(tel_sampled));
    }
    if (tel_dropped > 0) {
      telemetry_->CountId(id_trace_dropped_,
                        static_cast<double>(tel_dropped));
    }
    if (tenant.budget != nullptr) {
      // Skip sets whose value is unchanged since the last publish (NaN
      // compares unequal, so the first publish always goes through).
      const double remaining = tenant.budget->BudgetRemainingFraction();
      if (remaining != tenant.tel_budget_published) {
        telemetry_->SetGaugeId(tenant.id_budget_remaining, remaining);
        tenant.tel_budget_published = remaining;
      }
      const double fast = tenant.budget->FastBurnRate();
      if (fast != tenant.tel_burn_fast_published) {
        telemetry_->SetGaugeId(tenant.id_burn_fast, fast);
        tenant.tel_burn_fast_published = fast;
      }
      const double slow = tenant.budget->SlowBurnRate();
      if (slow != tenant.tel_burn_slow_published) {
        telemetry_->SetGaugeId(tenant.id_burn_slow, slow);
        tenant.tel_burn_slow_published = slow;
      }
    }
  }
}

void PipelineServer::Reject(const ServeRequest& request, RejectReason reason,
                            RequestSource* source, ServeReport* report) {
  const Tenant& tenant = tenants_[static_cast<size_t>(request.tenant)];
  TenantReport& tally = tallies_[static_cast<size_t>(request.tenant)];
  switch (reason) {
    case RejectReason::kQueueFull:
      ++tally.rejected_queue_full;
      break;
    case RejectReason::kErrorBudget:
      ++tally.rejected_error_budget;
      break;
    case RejectReason::kNone:
    case RejectReason::kPredictedCost:
      ++tally.rejected_predicted_cost;
      break;
  }
  if (telemetry_ != nullptr) telemetry_->CountId(tenant.id_rejected);
  ServeResponse response;
  response.tenant = request.tenant;
  response.id = request.id;
  response.user = request.user;
  response.accepted = false;
  response.reject = reason;
  response.arrival_seconds = request.arrival_seconds;
  response.completion_seconds = request.arrival_seconds;
  EmitResponse(std::move(response), source, report);
}

void PipelineServer::EmitResponse(ServeResponse response,
                                  RequestSource* source, ServeReport* report) {
  report->responses.push_back(response);
  source->OnResponse(response);
}

}  // namespace serve
}  // namespace keystone
