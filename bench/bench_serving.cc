// Serving experiment: micro-batched, multi-tenant pipeline serving under
// open-loop load. Two fitted pipelines (Amazon text classification and the
// YouTube dense model) share one PipelineServer; a seeded Poisson workload
// sweeps arrival rates, and each rate runs both unbatched (max_batch=1) and
// micro-batched (max_batch=16) at the same SLO. Reported per configuration:
// p50/p99/p999 latency, sustained throughput, SLO attainment, and shed
// counts — the latency/throughput trade the per-batch scheduling overhead
// creates, and how batching amortizes it.
//
// The bench also self-checks the serving determinism claim (byte-identical
// response streams for kernel pools of 1 vs 4 threads) and, in --smoke
// mode, doubles as the CI gate: it fails unless batching sustains strictly
// higher throughput than unbatched serving at the saturating rate.
//
// Usage: bench_serving [--smoke] [ObsSession flags]
//   --smoke   smaller corpora and request counts (CI-sized, ~seconds)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/core/executor.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/serve/load_generator.h"
#include "src/serve/pipeline_server.h"
#include "src/serve/request.h"
#include "src/serve/servable_pipeline.h"
#include "src/serve/serve_options.h"
#include "src/sim/resources.h"
#include "src/solvers/solvers.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"

namespace keystone {
namespace {

using serve::MergedSource;
using serve::OpenLoopSource;
using serve::PipelineServer;
using serve::ServablePipeline;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServerConfig;
using serve::TypedRequestCodec;

struct ServingFixture {
  std::shared_ptr<FittedPipelineUntyped> amazon;
  std::shared_ptr<FittedPipelineUntyped> youtube;
  std::shared_ptr<serve::RequestCodec> amazon_codec;
  std::shared_ptr<serve::RequestCodec> youtube_codec;
};

ClusterResourceDescriptor Cluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

/// Fits both tenant pipelines once; every serving configuration reuses the
/// same fitted models and payload universes (the test splits).
ServingFixture BuildFixture(bool smoke) {
  ServingFixture fixture;
  {
    workloads::TextCorpus corpus = workloads::AmazonLike(
        smoke ? 400 : 2000, smoke ? 80 : 200, 30, 1000, 81);
    LinearSolverConfig solver;
    solver.num_classes = 2;
    solver.lbfgs_iterations = smoke ? 5 : 20;
    // Smoke keeps half the full hash-feature width: per-request kernel work
    // is what the telemetry overhead fraction is measured against, so serving
    // must do realistic per-doc compute even when the corpus is small — but
    // fit cost grows super-linearly with width, and 2000 keeps the whole
    // smoke gate in CI-sized seconds.
    auto pipe = workloads::BuildAmazonPipeline(corpus, smoke ? 2000 : 4000, solver);
    PipelineExecutor executor(Cluster(), OptimizationConfig::Full());
    fixture.amazon = executor.Fit(pipe).impl_ptr();
    fixture.amazon_codec =
        std::make_shared<TypedRequestCodec<std::string, std::vector<double>>>(
            corpus.test_docs->Collect());
  }
  {
    workloads::DenseCorpus corpus = workloads::DenseClasses(
        smoke ? 600 : 2500, smoke ? 120 : 250, 256, 8, 7.0, 83);
    LinearSolverConfig solver;
    solver.num_classes = 8;
    auto pipe = workloads::BuildYoutubePipeline(corpus, solver);
    PipelineExecutor executor(Cluster(), OptimizationConfig::Full());
    fixture.youtube = executor.Fit(pipe).impl_ptr();
    fixture.youtube_codec = std::make_shared<
        TypedRequestCodec<std::vector<double>, std::vector<double>>>(
        corpus.test->Collect());
  }
  return fixture;
}

/// A copy of `fitted` whose plan has no fused regions: the same models,
/// served node by node, as a plan compiled with operator_fusion off would
/// be. Copying instead of refitting keeps the fit's spans, and so the
/// bench's virtual seconds, unchanged.
std::shared_ptr<FittedPipelineUntyped> WithoutFusedRegions(
    const std::shared_ptr<FittedPipelineUntyped>& fitted) {
  auto plan = std::make_shared<PhysicalPlan>(fitted->plan());
  plan->fused_regions.clear();
  for (PlannedNode& pn : plan->nodes) pn.fused_region = -1;
  return std::make_shared<FittedPipelineUntyped>(plan, fitted->models());
}

/// One serving configuration: both tenants at `rate_per_tenant`, batching
/// capped at `max_batch`. Returns the report (and the response stream when
/// `stream_out` is set, for the determinism check).
ServeReport RunConfig(const ServingFixture& fixture, double rate_per_tenant,
                      size_t max_batch, size_t requests_per_tenant,
                      size_t num_threads, std::string* stream_out) {
  ServerConfig config;
  config.server_slots = 4;
  config.num_threads = num_threads;
  PipelineServer server(Cluster(), config);
  ServeOptions options;
  options.max_batch_size = max_batch;
  options.max_batch_delay_seconds = 0.05;
  options.queue_depth = 64;
  options.slo_seconds = 4.0;
  options.cost_admission = true;
  options.admission_headroom = 1.0;
  const int amazon = server.AddTenant(
      "amazon", ServablePipeline(fixture.amazon), fixture.amazon_codec,
      options);
  const int youtube = server.AddTenant(
      "youtube", ServablePipeline(fixture.youtube), fixture.youtube_codec,
      options);
  OpenLoopSource amazon_load(amazon, rate_per_tenant, requests_per_tenant,
                             fixture.amazon_codec->NumPayloads(), 2024);
  OpenLoopSource youtube_load(youtube, rate_per_tenant, requests_per_tenant,
                              fixture.youtube_codec->NumPayloads(), 4048);
  MergedSource load({&amazon_load, &youtube_load});
  ServeReport report = server.Run(&load);
  if (stream_out != nullptr) *stream_out = report.ResponseStream();
  return report;
}

/// One serving run with a telemetry hub attached: the snapshot stream, the
/// response stream, per-request span count (from a run-local recorder, so
/// the sampling gate sees only this run's spans), and the hub's measured
/// overhead as a fraction of the run's wall time, plus its `obs.overhead.*`
/// gauges (fraction excluded), which Run publishes summed over the gated
/// legs.
struct TelemetryLeg {
  std::string telemetry;
  std::string responses;
  ServeReport report;
  size_t request_spans = 0;
  double wall_seconds = 0.0;
  double overhead_seconds = 0.0;
  double overhead_fraction = 0.0;
  std::vector<obs::MetricSnapshot> overhead_gauges;
};

/// Runs the saturating batched configuration with a TelemetryHub ticked by
/// the server's event loop. `jsonl_path` (optional) additionally writes
/// the snapshots to disk, complete when the run returns.
TelemetryLeg RunTelemetryLeg(const ServingFixture& fixture, double rate,
                             size_t requests, size_t num_threads,
                             double sample_rate,
                             const std::string& jsonl_path) {
  ServerConfig config;
  config.server_slots = 4;
  config.num_threads = num_threads;
  PipelineServer server(Cluster(), config);
  ServeOptions options;
  options.max_batch_size = 16;
  options.max_batch_delay_seconds = 0.05;
  options.queue_depth = 64;
  options.slo_seconds = 4.0;
  options.trace_sample_rate = sample_rate;
  options.trace_sample_seed = 2024;
  options.budget_shedding = true;
  options.slo_budget.window_seconds = 0.25;
  const int amazon = server.AddTenant(
      "amazon", ServablePipeline(fixture.amazon), fixture.amazon_codec,
      options);
  const int youtube = server.AddTenant(
      "youtube", ServablePipeline(fixture.youtube), fixture.youtube_codec,
      options);

  obs::TelemetryHub hub(0.5);
  if (!jsonl_path.empty() && !hub.AttachJsonlWriter(jsonl_path)) {
    std::fprintf(stderr, "[serving] FAILED to open telemetry out %s\n",
                 jsonl_path.c_str());
  }
  server.set_telemetry(&hub);
  obs::TraceRecorder recorder;
  server.context()->set_tracer(&recorder);

  OpenLoopSource amazon_load(amazon, rate, requests,
                             fixture.amazon_codec->NumPayloads(), 2024);
  OpenLoopSource youtube_load(youtube, rate, requests,
                              fixture.youtube_codec->NumPayloads(), 4048);
  MergedSource load({&amazon_load, &youtube_load});
  TelemetryLeg leg;
  Timer wall;
  leg.report = server.Run(&load);
  leg.wall_seconds = wall.ElapsedSeconds();
  if (!jsonl_path.empty() && !hub.Flush()) {
    std::fprintf(stderr, "[serving] FAILED to write telemetry out %s\n",
                 jsonl_path.c_str());
  }
  leg.telemetry = hub.SnapshotJsonl();
  leg.responses = leg.report.ResponseStream();
  for (const obs::TraceSpan& span : recorder.Spans()) {
    if (span.kind == "request") ++leg.request_spans;
  }
  leg.overhead_seconds = hub.OverheadWallSeconds();
  leg.overhead_fraction = leg.wall_seconds > 0.0
                              ? leg.overhead_seconds / leg.wall_seconds
                              : 0.0;
  obs::MetricsRegistry overhead;
  hub.PublishOverhead(&overhead, /*run_wall_seconds=*/0.0);
  leg.overhead_gauges = overhead.Snapshot();
  server.set_telemetry(nullptr);
  server.context()->set_tracer(nullptr);
  return leg;
}

/// Overload leg: one tenant, one server slot; a long healthy background
/// phase banks error budget, then a sustained over-capacity burst drives
/// SLO violations. The gate demands burn-rate shedding engage while budget
/// remains (first_shed_budget_remaining > 0).
ServeReport RunOverloadLeg(const ServingFixture& fixture, bool smoke) {
  ServerConfig config;
  config.server_slots = 1;
  config.num_threads = 0;
  PipelineServer server(Cluster(), config);
  ServeOptions options;
  options.max_batch_size = 4;
  options.max_batch_delay_seconds = 0.02;
  options.queue_depth = 256;
  // Healthy (unqueued) latency is ~0.65s, so 1.5s passes the background
  // phase cleanly while queued burst traffic violates within a second or
  // two — the budget only burns when the overload actually starts.
  options.slo_seconds = 1.5;
  options.cost_admission = false;  // let the error budget do the shedding
  options.budget_shedding = true;
  options.slo_budget.target_attainment = 0.9;
  options.slo_budget.window_seconds = 0.5;
  options.slo_budget.min_requests = 16;
  const int id = server.AddTenant("amazon", ServablePipeline(fixture.amazon),
                                  fixture.amazon_codec, options);
  // Single-slot capacity at batch 4 is ~3 rps (service is dominated by the
  // per-batch fixed overhead). Background at ~0.5x banks budget for well
  // past the slow-burn lookback; the burst holds a sustained ~4x capacity
  // so violation feedback arrives while arrivals continue — an
  // instantaneous many-x spike would fill the queue before the first
  // violating completion and the burn signal would only fire after the
  // budget was long gone.
  const size_t burst_requests = smoke ? 600 : 1500;
  OpenLoopSource background(id, 1.5, smoke ? 120 : 200,
                            fixture.amazon_codec->NumPayloads(), 3);
  OpenLoopSource burst(id, 12.0, burst_requests,
                       fixture.amazon_codec->NumPayloads(), 4,
                       /*start_seconds=*/smoke ? 81.0 : 135.0,
                       /*first_id=*/1000000);
  MergedSource load({&background, &burst});
  return server.Run(&load);
}

/// Outcome of racing the two admission predictors over the same batches.
struct PriorResult {
  double static_prior_seconds = 0.0;    // per-record seed from the plan
  double observed_seconds_per_record = 0.0;  // calibrated ground truth
  int steady_static = -1;               // first batch within 10% (seeded)
  int steady_cold = -1;                 // first batch within 10% (cold start)
};

/// Replays identical micro-batches through two ServablePipelines wrapping
/// the same fitted pipeline — one seeded from the static dataflow
/// annotations, one starting from the zero-cost cold start — and records
/// when each admission predictor first lands within 10% of the observed
/// per-batch cost. The cold start must mispredict batch 1 (it predicts a
/// zero variable cost); the seeded predictor can be right immediately.
PriorResult MeasureAdmissionPrior(
    const std::shared_ptr<FittedPipelineUntyped>& fitted,
    const std::shared_ptr<serve::RequestCodec>& codec, size_t batch_size,
    size_t num_batches) {
  ServablePipeline seeded(fitted, /*use_static_prior=*/true);
  ServablePipeline cold(fitted, /*use_static_prior=*/false);
  KS_CHECK(seeded.has_static_prior())
      << "fitted plan lost its dataflow annotations";
  PriorResult result;
  result.static_prior_seconds = seeded.per_record_seconds();

  ExecContext env(Cluster());
  size_t next_payload = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    std::vector<size_t> payloads;
    payloads.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      payloads.push_back(next_payload++ % codec->NumPayloads());
    }
    const AnyDataset batch = codec->MakeBatch(payloads);
    for (ServablePipeline* pipe : {&seeded, &cold}) {
      auto ctx = env.MakeRequestContext();
      double observed = 0.0;
      pipe->Apply(batch, ctx.get(), &observed);
      pipe->ObserveBatch(batch_size, observed);
    }
  }
  result.observed_seconds_per_record = cold.per_record_seconds();
  result.steady_static = seeded.steady_state_batch();
  result.steady_cold = cold.steady_state_batch();
  return result;
}

int Run(int argc, char** argv) {
  bench::ObsSession session("serving", argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::Banner("Pipeline serving: micro-batching vs per-request dispatch",
                "Two tenants (Amazon text, YouTube dense) on one server; "
                "open-loop Poisson arrivals swept across rates, batch=1 vs "
                "batch=16 at a fixed 4s SLO.");

  std::printf("[serving] fitting tenant pipelines (%s mode)...\n",
              smoke ? "smoke" : "full");
  const ServingFixture fixture = BuildFixture(smoke);
  const size_t requests = smoke ? 120 : 600;
  const std::vector<double> rates = {2.0, 8.0, 32.0};
  const std::vector<size_t> batch_sizes = {1, 16};

  std::string results_json = "{\"slo_seconds\":4.0,\"configs\":[";
  bool first = true;
  // throughput[batch index] at the saturating (last) rate, for the gate.
  double saturated_throughput[2] = {0.0, 0.0};
  for (double rate : rates) {
    for (size_t b = 0; b < batch_sizes.size(); ++b) {
      const size_t batch = batch_sizes[b];
      const ServeReport report =
          RunConfig(fixture, rate, batch, requests, 0, nullptr);
      double completed = 0.0;
      for (const auto& tenant : report.tenants) {
        completed += static_cast<double>(tenant.completed);
      }
      const double throughput = report.makespan_seconds > 0.0
                                    ? completed / report.makespan_seconds
                                    : 0.0;
      if (rate == rates.back()) saturated_throughput[b] = throughput;
      std::printf("\n--- rate %.0f rps/tenant, max_batch=%zu ---\n%s",
                  rate, batch, report.ToString().c_str());
      char head[128];
      std::snprintf(head, sizeof(head),
                    "%s{\"rate_per_tenant\":%g,\"max_batch\":%zu,"
                    "\"total_throughput_rps\":%g,\"report\":",
                    first ? "" : ",", rate, batch, throughput);
      results_json += head;
      results_json += report.ToJson();
      results_json += "}";
      first = false;
    }
  }

  // Determinism self-check: the saturating batched configuration must
  // produce byte-identical response streams on 1- and 4-thread kernel
  // pools.
  std::string stream_1thread, stream_4thread;
  RunConfig(fixture, rates.back(), 16, requests, 1, &stream_1thread);
  RunConfig(fixture, rates.back(), 16, requests, 4, &stream_4thread);
  const bool deterministic = stream_1thread == stream_4thread;
  std::printf("\n[serving] determinism (1 vs 4 kernel threads): %s\n",
              deterministic ? "byte-identical" : "MISMATCH");
  std::printf("[serving] sustained throughput at %g rps/tenant: "
              "batch=1 -> %.2f rps, batch=16 -> %.2f rps (%.2fx)\n",
              rates.back(), saturated_throughput[0], saturated_throughput[1],
              saturated_throughput[0] > 0.0
                  ? saturated_throughput[1] / saturated_throughput[0]
                  : 0.0);

  // Fused vs unfused per-request execution at the saturating batched
  // configuration: the unfused leg serves the same fitted models from plans
  // without fused regions. Response streams must stay byte-identical and
  // the fused p99 must be no worse than the unfused one.
  ServingFixture unfused = fixture;
  unfused.amazon = WithoutFusedRegions(fixture.amazon);
  unfused.youtube = WithoutFusedRegions(fixture.youtube);
  std::string stream_fused, stream_unfused;
  const ServeReport fused_report =
      RunConfig(fixture, rates.back(), 16, requests, 0, &stream_fused);
  const ServeReport unfused_report =
      RunConfig(unfused, rates.back(), 16, requests, 0, &stream_unfused);
  double fused_p99 = 0.0, unfused_p99 = 0.0;
  for (const auto& tenant : fused_report.tenants) {
    if (tenant.p99_latency_seconds > fused_p99) {
      fused_p99 = tenant.p99_latency_seconds;
    }
  }
  for (const auto& tenant : unfused_report.tenants) {
    if (tenant.p99_latency_seconds > unfused_p99) {
      unfused_p99 = tenant.p99_latency_seconds;
    }
  }
  const bool fusion_identical = stream_fused == stream_unfused;
  const bool fusion_p99_ok = fused_p99 <= unfused_p99;
  std::printf("[serving] fused vs unfused request execution: p99 %.4fs vs "
              "%.4fs, streams %s\n",
              fused_p99, unfused_p99,
              fusion_identical ? "byte-identical" : "MISMATCH");

  // Telemetry: the windowed snapshot stream must be byte-identical across
  // kernel-pool sizes (the serial event loop ticks the hub in virtual
  // time), head sampling at 0.1 must cut request spans >= 10x while the
  // exact latency accounting is untouched, and the hub's self-measured
  // overhead must stay under 2% of serving wall time. The overhead legs
  // serve a longer request stream than the sweep so the wall-time
  // denominator is large enough for a stable fraction.
  const size_t tel_requests = requests * 2;
  const TelemetryLeg tel_1 =
      RunTelemetryLeg(fixture, rates.back(), tel_requests, 1, 1.0,
                      session.telemetry_path());
  const TelemetryLeg tel_2 =
      RunTelemetryLeg(fixture, rates.back(), tel_requests, 2, 1.0, "");
  const TelemetryLeg tel_8 =
      RunTelemetryLeg(fixture, rates.back(), tel_requests, 8, 1.0, "");
  const bool telemetry_identical = !tel_1.telemetry.empty() &&
                                   tel_1.telemetry == tel_2.telemetry &&
                                   tel_1.telemetry == tel_8.telemetry &&
                                   tel_1.responses == tel_2.responses &&
                                   tel_1.responses == tel_8.responses;
  std::printf("\n[serving] telemetry streams (1/2/8 kernel threads): %s "
              "(%zu snapshot windows)\n",
              telemetry_identical ? "byte-identical" : "MISMATCH",
              static_cast<size_t>(
                  std::count(tel_1.telemetry.begin(), tel_1.telemetry.end(),
                             '\n')));
  if (!session.telemetry_path().empty()) {
    std::printf("[obs] wrote telemetry snapshots to %s\n",
                session.telemetry_path().c_str());
  }

  const TelemetryLeg tel_sampled =
      RunTelemetryLeg(fixture, rates.back(), tel_requests, 0, 0.1, "");
  const double span_ratio =
      tel_sampled.request_spans > 0
          ? static_cast<double>(tel_1.request_spans) /
                static_cast<double>(tel_sampled.request_spans)
          : static_cast<double>(tel_1.request_spans);
  bool sampling_p99_exact = tel_sampled.responses == tel_1.responses;
  for (size_t t = 0; t < tel_1.report.tenants.size(); ++t) {
    if (tel_1.report.tenants[t].p99_latency_seconds !=
        tel_sampled.report.tenants[t].p99_latency_seconds) {
      sampling_p99_exact = false;
    }
  }
  std::printf("[serving] trace sampling at 0.1: request spans %zu -> %zu "
              "(%.1fx reduction), latency accounting %s\n",
              tel_1.request_spans, tel_sampled.request_spans, span_ratio,
              sampling_p99_exact ? "exact" : "PERTURBED");

  // Aggregate across the pool-size legs: total hub seconds over total
  // serving wall. Each leg's wall is only a few ms, so a per-leg max would
  // gate on scheduler noise rather than on the hub's cost.
  const double overhead_fraction =
      (tel_1.overhead_seconds + tel_2.overhead_seconds +
       tel_8.overhead_seconds) /
      (tel_1.wall_seconds + tel_2.wall_seconds + tel_8.wall_seconds);
  std::printf("[serving] telemetry overhead: %.3f%% of serving wall time "
              "(legs %.3f%% / %.3f%% / %.3f%%, gate < 2%%)\n",
              overhead_fraction * 100.0, tel_1.overhead_fraction * 100.0,
              tel_2.overhead_fraction * 100.0,
              tel_8.overhead_fraction * 100.0);
  // Publish what the gate measured, once: each obs.overhead.* gauge summed
  // over the gated legs, and the aggregate fraction above.
  std::map<std::string, double> overhead_sums;
  for (const TelemetryLeg* leg : {&tel_1, &tel_2, &tel_8}) {
    for (const obs::MetricSnapshot& gauge : leg->overhead_gauges) {
      overhead_sums[gauge.name] += gauge.value;
    }
  }
  overhead_sums["obs.overhead.fraction"] = overhead_fraction;
  for (const auto& [name, value] : overhead_sums) {
    obs::MetricsRegistry::Global().Set(name, value);
  }

  const ServeReport overload = RunOverloadLeg(fixture, smoke);
  const auto& overload_tenant = overload.tenants[0];
  std::printf("\n--- overload leg (1 slot, budget shedding) ---\n%s",
              overload.ToString().c_str());
  const bool shed_before_exhaustion =
      overload_tenant.rejected_error_budget > 0 &&
      overload_tenant.first_shed_budget_remaining > 0.0;
  std::printf("[serving] overload leg: %zu shed by error budget, first shed "
              "at %.1f%% budget remaining (%s)\n",
              overload_tenant.rejected_error_budget,
              overload_tenant.first_shed_budget_remaining * 100.0,
              shed_before_exhaustion ? "before exhaustion"
                                     : "GATE NOT MET");

  // Admission-predictor race: how many batches until the per-record cost
  // estimate is within 10% of observed, statically seeded vs cold start.
  const PriorResult amazon_prior =
      MeasureAdmissionPrior(fixture.amazon, fixture.amazon_codec, 16, 8);
  const PriorResult youtube_prior =
      MeasureAdmissionPrior(fixture.youtube, fixture.youtube_codec, 16, 8);
  std::printf(
      "[serving] admission prior steady state (batch within 10%%): "
      "amazon static=%d cold=%d (prior %.3gs/rec vs %.3gs/rec observed), "
      "youtube static=%d cold=%d (prior %.3gs/rec vs %.3gs/rec observed)\n",
      amazon_prior.steady_static, amazon_prior.steady_cold,
      amazon_prior.static_prior_seconds,
      amazon_prior.observed_seconds_per_record, youtube_prior.steady_static,
      youtube_prior.steady_cold, youtube_prior.static_prior_seconds,
      youtube_prior.observed_seconds_per_record);
  results_json += "],\"admission_prior\":[";
  const struct {
    const char* name;
    const PriorResult* prior;
  } priors[] = {{"amazon", &amazon_prior}, {"youtube", &youtube_prior}};
  bool first_prior = true;
  for (const auto& entry : priors) {
    char prior_buf[256];
    std::snprintf(prior_buf, sizeof(prior_buf),
                  "%s{\"tenant\":\"%s\",\"static_prior_seconds_per_record\":"
                  "%g,\"observed_seconds_per_record\":%g,"
                  "\"steady_state_batch_static\":%d,"
                  "\"steady_state_batch_cold\":%d}",
                  first_prior ? "" : ",", entry.name,
                  entry.prior->static_prior_seconds,
                  entry.prior->observed_seconds_per_record,
                  entry.prior->steady_static, entry.prior->steady_cold);
    results_json += prior_buf;
    first_prior = false;
  }
  results_json += "],\"fusion\":{\"fused_p99_seconds\":";
  {
    char fusion_buf[64];
    std::snprintf(fusion_buf, sizeof(fusion_buf), "%g", fused_p99);
    results_json += fusion_buf;
    results_json += ",\"unfused_p99_seconds\":";
    std::snprintf(fusion_buf, sizeof(fusion_buf), "%g", unfused_p99);
    results_json += fusion_buf;
  }
  results_json += ",\"identical\":";
  results_json += fusion_identical ? "true" : "false";
  results_json += "},\"determinism\":";
  results_json += deterministic ? "\"pass\"" : "\"FAIL\"";
  results_json += ",\"saturated_throughput_batch1_rps\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", saturated_throughput[0]);
  results_json += buf;
  results_json += ",\"saturated_throughput_batch16_rps\":";
  std::snprintf(buf, sizeof(buf), "%g", saturated_throughput[1]);
  results_json += buf;
  {
    char tel_buf[512];
    std::snprintf(
        tel_buf, sizeof(tel_buf),
        ",\"telemetry\":{\"identical_across_pools\":%s,"
        "\"snapshot_windows\":%zu,\"request_spans_full\":%zu,"
        "\"request_spans_sampled\":%zu,\"span_reduction\":%g,"
        "\"sampling_p99_exact\":%s,\"overhead_fraction\":%g,"
        "\"overload_shed\":%zu,\"first_shed_budget_remaining\":%g}",
        telemetry_identical ? "true" : "false",
        static_cast<size_t>(std::count(tel_1.telemetry.begin(),
                                       tel_1.telemetry.end(), '\n')),
        tel_1.request_spans, tel_sampled.request_spans, span_ratio,
        sampling_p99_exact ? "true" : "false", overhead_fraction,
        overload_tenant.rejected_error_budget,
        overload_tenant.first_shed_budget_remaining);
    results_json += tel_buf;
  }
  results_json += "}";
  session.AddJsonField("serving", results_json);

  if (!deterministic) {
    std::fprintf(stderr, "[serving] FAIL: responses differ across thread "
                         "counts\n");
    return 1;
  }
  if (!fusion_identical || !fusion_p99_ok) {
    std::fprintf(stderr,
                 "[serving] FAIL: fused request execution %s (p99 fused "
                 "%.4fs vs unfused %.4fs)\n",
                 fusion_identical ? "regressed p99" : "changed responses",
                 fused_p99, unfused_p99);
    return 1;
  }
  if (saturated_throughput[1] <= saturated_throughput[0]) {
    std::fprintf(stderr, "[serving] FAIL: micro-batching did not raise "
                         "sustained throughput at saturation\n");
    return 1;
  }
  for (const auto& entry : priors) {
    const bool earlier =
        entry.prior->steady_static > 0 && entry.prior->steady_cold > 0 &&
        entry.prior->steady_static < entry.prior->steady_cold;
    if (!earlier) {
      std::fprintf(stderr,
                   "[serving] FAIL: %s statically seeded admission prior did "
                   "not reach steady state before the cold start "
                   "(static=%d cold=%d)\n",
                   entry.name, entry.prior->steady_static,
                   entry.prior->steady_cold);
      return 1;
    }
  }
  if (!telemetry_identical) {
    std::fprintf(stderr, "[serving] FAIL: telemetry snapshot streams differ "
                         "across kernel-pool sizes\n");
    return 1;
  }
  if (span_ratio < 10.0 || !sampling_p99_exact) {
    std::fprintf(stderr,
                 "[serving] FAIL: trace sampling gate (reduction %.1fx, "
                 "p99 %s)\n",
                 span_ratio, sampling_p99_exact ? "exact" : "perturbed");
    return 1;
  }
  if (!shed_before_exhaustion) {
    std::fprintf(stderr,
                 "[serving] FAIL: error-budget shedding did not engage "
                 "before exhaustion (shed=%zu, first shed at %.3f budget "
                 "remaining)\n",
                 overload_tenant.rejected_error_budget,
                 overload_tenant.first_shed_budget_remaining);
    return 1;
  }
  if (overhead_fraction >= 0.02) {
    std::fprintf(stderr,
                 "[serving] FAIL: telemetry overhead %.3f%% of serving wall "
                 "time (gate < 2%%)\n",
                 overhead_fraction * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) { return keystone::Run(argc, argv); }
