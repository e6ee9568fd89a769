#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/plan_validator.h"
#include "src/core/exec_context.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/data/dist_dataset.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/load_generator.h"
#include "src/serve/pipeline_server.h"
#include "src/serve/request.h"
#include "src/serve/request_queue.h"
#include "src/serve/servable_pipeline.h"
#include "src/serve/serve_options.h"
#include "src/sim/arrivals.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using serve::BoundedRequestQueue;
using serve::ClosedLoopSource;
using serve::MergedSource;
using serve::OpenLoopSource;
using serve::PipelineServer;
using serve::RejectReason;
using serve::RequestCodec;
using serve::ServablePipeline;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServeRequest;
using serve::ServerConfig;
using serve::TypedRequestCodec;
using testing_ops::AddConst;
using testing_ops::MeanCenterer;
using testing_ops::Scale;

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

/// Fits scale -> mean-center over a tiny training set: one transformer and
/// one apply-model node on the runtime path.
std::shared_ptr<FittedPipelineUntyped> FitCentered() {
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(),
                           Doubles({1, 2, 3, 4, 5}));
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  return executor.Fit(pipe).impl_ptr();
}

/// A transformer-only pipeline computing a * x + b.
std::shared_ptr<FittedPipelineUntyped> FitAffine(double a, double b) {
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(a))
                  .AndThen(std::make_shared<AddConst>(b));
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  return executor.Fit(pipe).impl_ptr();
}

std::shared_ptr<RequestCodec> DoubleCodec(size_t n = 16) {
  std::vector<double> payloads;
  for (size_t i = 0; i < n; ++i) payloads.push_back(static_cast<double>(i));
  return std::make_shared<TypedRequestCodec<double, double>>(
      std::move(payloads));
}

// --- Arrival process -------------------------------------------------------

TEST(ArrivalsTest, PoissonIsMonotoneAndSeedDeterministic) {
  PoissonArrivals a(10.0, 42), b(10.0, 42), c(10.0, 7);
  double prev = 0.0;
  bool any_differs = false;
  for (int i = 0; i < 100; ++i) {
    const double ta = a.Next();
    EXPECT_GE(ta, prev);
    prev = ta;
    EXPECT_DOUBLE_EQ(ta, b.Next());
    if (ta != c.Next()) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ArrivalsTest, ExponentialMeanRoughlyMatches) {
  Rng rng(123);
  double sum = 0.0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += ExponentialSample(&rng, 0.5);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

// --- Request queue ---------------------------------------------------------

TEST(BoundedRequestQueueTest, DepthBoundAndFifoOrder) {
  BoundedRequestQueue queue(3);
  for (uint64_t i = 0; i < 3; ++i) {
    ServeRequest r;
    r.id = i;
    EXPECT_TRUE(queue.TryPush(r));
  }
  ServeRequest overflow;
  overflow.id = 99;
  EXPECT_FALSE(queue.TryPush(overflow));
  EXPECT_EQ(queue.high_water(), 3u);
  ASSERT_NE(queue.Front(), nullptr);
  EXPECT_EQ(queue.Front()->id, 0u);
  const auto batch = queue.PopBatch(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.TryPush(overflow));
}

// --- Load generation -------------------------------------------------------

TEST(LoadGeneratorTest, OpenLoopProducesSeededTrace) {
  OpenLoopSource a(0, 100.0, 50, 8, 1), b(0, 100.0, 50, 8, 1);
  for (int i = 0; i < 50; ++i) {
    ServeRequest ra, rb;
    ASSERT_TRUE(a.Peek(&ra));
    ASSERT_TRUE(b.Peek(&rb));
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_DOUBLE_EQ(ra.arrival_seconds, rb.arrival_seconds);
    EXPECT_EQ(ra.payload, rb.payload);
    a.Pop();
    b.Pop();
  }
  EXPECT_TRUE(a.Exhausted());
}

TEST(LoadGeneratorTest, MergedSourceOrdersByTime) {
  OpenLoopSource a(0, 50.0, 20, 4, 3);
  OpenLoopSource b(1, 80.0, 20, 4, 4);
  MergedSource merged({&a, &b});
  double prev = 0.0;
  int seen = 0;
  ServeRequest r;
  while (merged.Peek(&r)) {
    EXPECT_GE(r.arrival_seconds, prev);
    prev = r.arrival_seconds;
    merged.Pop();
    ++seen;
  }
  EXPECT_EQ(seen, 40);
  EXPECT_TRUE(merged.Exhausted());
}

// --- Servable pipeline -----------------------------------------------------

TEST(ServablePipelineTest, FixedOverheadIsPerRuntimeNode) {
  auto fitted = FitCentered();
  ServablePipeline servable(fitted);
  const double expected = fitted->plan().resources.round_latency_s *
                          fitted->plan().NumRuntimeNodes();
  EXPECT_GT(fitted->plan().NumRuntimeNodes(), 0);
  EXPECT_DOUBLE_EQ(servable.FixedBatchOverheadSeconds(), expected);
}

TEST(ServablePipelineTest, CalibrationConvergesToObservedRate) {
  // Static prior off: the observe-first cold start (snap, then EWMA).
  ServablePipeline servable(FitAffine(1.0, 0.0), /*use_static_prior=*/false);
  EXPECT_FALSE(servable.has_static_prior());
  EXPECT_DOUBLE_EQ(servable.per_record_seconds(), 0.0);
  servable.ObserveBatch(10, 1.0);  // 0.1 s/record
  EXPECT_DOUBLE_EQ(servable.per_record_seconds(), 0.1);
  servable.ObserveBatch(10, 3.0);  // 0.3 s/record -> EWMA midpoint
  EXPECT_DOUBLE_EQ(servable.per_record_seconds(), 0.2);
  EXPECT_DOUBLE_EQ(
      servable.PredictBatchSeconds(5),
      servable.FixedBatchOverheadSeconds() + 5 * 0.2);
}

TEST(ServablePipelineTest, StaticPriorSeedsAdmissionPredictor) {
  // The default path: the per-record estimate is seeded from the plan's
  // dataflow annotations before the first batch is ever observed, and
  // observations refine it by EWMA instead of snapping over it.
  ServablePipeline servable(FitAffine(1.0, 0.0));
  EXPECT_TRUE(servable.has_static_prior());
  EXPECT_GT(servable.per_record_seconds(), 0.0);
  const double prior = servable.per_record_seconds();
  servable.ObserveBatch(10, 1.0);  // 0.1 s/record observed
  EXPECT_DOUBLE_EQ(servable.per_record_seconds(), 0.5 * prior + 0.5 * 0.1);
}

TEST(ServablePipelineTest, StaticPriorReachesSteadyStateEarlier) {
  auto fitted = FitAffine(1.0, 0.0);
  ServablePipeline cold(fitted, /*use_static_prior=*/false);
  ServablePipeline seeded(fitted);
  ASSERT_TRUE(seeded.has_static_prior());
  // Feed both predictors the same steady workload: batches of 8 records
  // costing exactly what the seeded prior predicts per record.
  const double per_record = seeded.per_record_seconds();
  int cold_steady = -1;
  int seeded_steady = -1;
  for (int batch = 0; batch < 8; ++batch) {
    cold.ObserveBatch(8, 8 * per_record);
    seeded.ObserveBatch(8, 8 * per_record);
    if (cold_steady < 0) cold_steady = cold.steady_state_batch();
    if (seeded_steady < 0) seeded_steady = seeded.steady_state_batch();
  }
  ASSERT_GT(seeded_steady, 0);
  ASSERT_GT(cold_steady, 0);
  // The zero-cost cold start must mispredict its first batch; the static
  // prior predicts it exactly.
  EXPECT_EQ(seeded_steady, 1);
  EXPECT_LT(seeded_steady, cold_steady);
  EXPECT_GE(seeded.last_relative_error(), 0.0);
}

TEST(ServablePipelineTest, ValidationRejectsMissingModels) {
  auto fitted = FitCentered();
  analysis::ValidationReport ok_report =
      analysis::ValidateServablePlan(fitted->plan(), &fitted->models());
  EXPECT_TRUE(ok_report.ok());

  const std::map<int, std::shared_ptr<TransformerBase>> no_models;
  analysis::ValidationReport bad =
      analysis::ValidateServablePlan(fitted->plan(), &no_models);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.HasRule(analysis::rules::kServeModelMissing));
}

// --- Server ----------------------------------------------------------------

TEST(ServeReportTest, ToJsonEscapesTenantNames) {
  ServeReport report;
  serve::TenantReport tenant;
  tenant.name = "a\"b\\c";
  report.tenants.push_back(tenant);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("{\"name\":\"a\\\"b\\\\c\","), std::string::npos)
      << json;
}

TEST(PipelineServerTest, ByteIdenticalResponsesAcrossThreadCounts) {
  auto fitted = FitCentered();
  std::string streams[2];
  std::string jsons[2];
  const size_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ServerConfig config;
    config.num_threads = thread_counts[i];
    PipelineServer server(TestCluster(), config);
    server.context()->set_tracer(nullptr);
    server.context()->set_metrics(nullptr);
    ServeOptions options;
    options.max_batch_size = 8;
    options.cost_admission = false;
    server.AddTenant("centered", ServablePipeline(fitted), DoubleCodec(),
                     options);
    OpenLoopSource source(0, 40.0, 200, 16, 2024);
    const ServeReport report = server.Run(&source);
    EXPECT_EQ(report.responses.size(), 200u);
    streams[i] = report.ResponseStream();
    jsons[i] = report.ToJson();
  }
  EXPECT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(jsons[0], jsons[1]);
}

TEST(PipelineServerTest, MicroBatchingCoalescesBursts) {
  PipelineServer server(TestCluster());
  server.context()->set_tracer(nullptr);
  server.context()->set_metrics(nullptr);
  ServeOptions options;
  options.max_batch_size = 8;
  options.queue_depth = 256;
  options.cost_admission = false;
  options.slo_seconds = 1e6;
  server.AddTenant("affine", ServablePipeline(FitAffine(3.0, 1.0)),
                   DoubleCodec(), options);
  // 500 req/s against a ~0.3s-per-batch pipeline: far past saturation, so
  // queues fill and batches form at the size cap.
  OpenLoopSource source(0, 500.0, 160, 16, 7);
  const ServeReport report = server.Run(&source);
  const auto& tenant = report.tenants[0];
  EXPECT_EQ(tenant.offered, 160u);
  EXPECT_GT(tenant.MeanBatchSize(), 4.0);
  EXPECT_EQ(tenant.batched_records, tenant.completed);
}

TEST(PipelineServerTest, RejectionAccountingBalances) {
  PipelineServer server(TestCluster());
  server.context()->set_tracer(nullptr);
  server.context()->set_metrics(nullptr);
  ServeOptions options;
  options.max_batch_size = 4;
  options.queue_depth = 4;  // shallow: overload must shed
  options.cost_admission = false;
  server.AddTenant("affine", ServablePipeline(FitAffine(1.0, 0.0)),
                   DoubleCodec(), options);
  OpenLoopSource source(0, 2000.0, 300, 16, 11);
  const ServeReport report = server.Run(&source);
  const auto& tenant = report.tenants[0];
  EXPECT_EQ(tenant.offered, 300u);
  EXPECT_GT(tenant.rejected_queue_full, 0u);
  EXPECT_EQ(tenant.offered, tenant.accepted + tenant.rejected_queue_full +
                                tenant.rejected_predicted_cost);
  // Every admitted request eventually completes; every offered request
  // gets exactly one response.
  EXPECT_EQ(tenant.completed, tenant.accepted);
  EXPECT_EQ(report.responses.size(), 300u);
  EXPECT_LE(tenant.queue_high_water, options.queue_depth);
}

TEST(PipelineServerTest, CostAdmissionShedsWhenSloIsUnattainable) {
  PipelineServer server(TestCluster());
  server.context()->set_tracer(nullptr);
  server.context()->set_metrics(nullptr);
  ServeOptions options;
  // The fixed batch overhead alone (2 runtime nodes x 0.1s) exceeds this
  // SLO, so the admission test sheds every request up front.
  options.slo_seconds = 0.05;
  options.cost_admission = true;
  server.AddTenant("affine", ServablePipeline(FitAffine(1.0, 0.0)),
                   DoubleCodec(), options);
  OpenLoopSource source(0, 100.0, 50, 16, 5);
  const ServeReport report = server.Run(&source);
  const auto& tenant = report.tenants[0];
  EXPECT_EQ(tenant.rejected_predicted_cost, 50u);
  EXPECT_EQ(tenant.completed, 0u);
  for (const auto& response : report.responses) {
    EXPECT_FALSE(response.accepted);
    EXPECT_EQ(response.reject, RejectReason::kPredictedCost);
  }
}

TEST(PipelineServerTest, MultiTenantIsolationAndCorrectOutputs) {
  PipelineServer server(TestCluster());
  server.context()->set_tracer(nullptr);
  server.context()->set_metrics(nullptr);
  ServeOptions options;
  options.cost_admission = false;
  options.slo_seconds = 1e6;
  const int doubler =
      server.AddTenant("doubler", ServablePipeline(FitAffine(2.0, 0.0)),
                       DoubleCodec(), options);
  const int shifter =
      server.AddTenant("shifter", ServablePipeline(FitAffine(1.0, 100.0)),
                       DoubleCodec(), options);
  OpenLoopSource a(doubler, 30.0, 60, 16, 21);
  OpenLoopSource b(shifter, 45.0, 60, 16, 22);
  MergedSource merged({&a, &b});
  const ServeReport report = server.Run(&merged);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].completed, 60u);
  EXPECT_EQ(report.tenants[1].completed, 60u);

  // Replay the seeded sources to learn each request's payload, then check
  // every response came from its own tenant's pipeline: the doubler maps
  // payload p to 2p, the shifter to p + 100.
  std::vector<std::vector<size_t>> payload_of(2, std::vector<size_t>(60));
  for (int tenant = 0; tenant < 2; ++tenant) {
    OpenLoopSource replay(tenant, tenant == doubler ? 30.0 : 45.0, 60, 16,
                          tenant == doubler ? 21 : 22);
    ServeRequest r;
    while (replay.Peek(&r)) {
      payload_of[static_cast<size_t>(tenant)][r.id] = r.payload;
      replay.Pop();
    }
  }
  size_t checked = 0;
  for (const auto& response : report.responses) {
    ASSERT_TRUE(response.accepted);
    const double p = static_cast<double>(
        payload_of[static_cast<size_t>(response.tenant)][response.id]);
    std::string expected;
    serve::AppendRecordText(response.tenant == doubler ? 2.0 * p : p + 100.0,
                            &expected);
    EXPECT_EQ(response.output, expected);
    ++checked;
  }
  EXPECT_EQ(checked, 120u);
}

TEST(PipelineServerTest, ResponsesMatchSingleRowApply) {
  // Serve a batchy workload and cross-check every response against a
  // direct single-row FittedPipeline::Apply — batching must not change
  // results.
  auto fitted = FitCentered();
  PipelineServer server(TestCluster());
  server.context()->set_tracer(nullptr);
  server.context()->set_metrics(nullptr);
  ServeOptions options;
  options.max_batch_size = 8;
  options.cost_admission = false;
  options.slo_seconds = 1e6;
  std::vector<double> payloads;
  for (size_t i = 0; i < 16; ++i) payloads.push_back(static_cast<double>(i));
  server.AddTenant(
      "centered", ServablePipeline(fitted),
      std::make_shared<TypedRequestCodec<double, double>>(payloads), options);
  OpenLoopSource source(0, 300.0, 100, 16, 31);
  const ServeReport report = server.Run(&source);

  // Replay the source to learn each request's payload.
  OpenLoopSource replay(0, 300.0, 100, 16, 31);
  std::vector<size_t> payload_of(100);
  ServeRequest r;
  while (replay.Peek(&r)) {
    payload_of[r.id] = r.payload;
    replay.Pop();
  }
  ExecContext ctx(TestCluster());
  ctx.set_tracer(nullptr);
  ctx.set_metrics(nullptr);
  ctx.set_profile_store(nullptr);
  ctx.set_timeline(nullptr);
  for (const auto& response : report.responses) {
    ASSERT_TRUE(response.accepted);
    auto one = MakeDataset<double>({payloads[payload_of[response.id]]}, 1);
    auto out = DistDataset<double>::Cast(fitted->Apply(one, &ctx));
    std::string expected;
    serve::AppendRecordText(out->Collect()[0], &expected);
    EXPECT_EQ(response.output, expected);
  }
}

TEST(PipelineServerTest, SloAttainmentTracksLatency) {
  PipelineServer server(TestCluster());
  server.context()->set_tracer(nullptr);
  server.context()->set_metrics(nullptr);
  ServeOptions generous;
  generous.slo_seconds = 1e6;
  generous.cost_admission = false;
  server.AddTenant("affine", ServablePipeline(FitAffine(1.0, 0.0)),
                   DoubleCodec(), generous);
  OpenLoopSource source(0, 20.0, 40, 16, 13);
  const ServeReport report = server.Run(&source);
  const auto& tenant = report.tenants[0];
  EXPECT_EQ(tenant.completed, 40u);
  EXPECT_EQ(tenant.slo_met, 40u);
  EXPECT_DOUBLE_EQ(tenant.SloAttainment(), 1.0);
  EXPECT_GT(tenant.p50_latency_seconds, 0.0);
  EXPECT_LE(tenant.p50_latency_seconds, tenant.p99_latency_seconds);
  EXPECT_LE(tenant.p99_latency_seconds, tenant.p999_latency_seconds);
  EXPECT_LE(tenant.p999_latency_seconds, tenant.max_latency_seconds);
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_GT(report.Utilization(), 0.0);
}

TEST(PipelineServerTest, ClosedLoopDrainsEveryUserBudget) {
  PipelineServer server(TestCluster());
  server.context()->set_tracer(nullptr);
  server.context()->set_metrics(nullptr);
  ServeOptions options;
  options.cost_admission = false;
  options.slo_seconds = 1e6;
  server.AddTenant("affine", ServablePipeline(FitAffine(1.0, 1.0)),
                   DoubleCodec(), options);
  ClosedLoopSource source(0, /*users=*/3, /*requests_per_user=*/5,
                          /*think_seconds=*/0.2, 16, 99);
  const ServeReport report = server.Run(&source);
  const auto& tenant = report.tenants[0];
  EXPECT_EQ(tenant.offered, 15u);
  EXPECT_EQ(tenant.completed, 15u);
  EXPECT_TRUE(source.Exhausted());
}

TEST(PipelineServerTest, ServeMetricsReachTheRegistry) {
  // Two runs on one server: after each, every serve.* metric equals the
  // reports' tallies summed so far, and the latency histogram holds every
  // completed request's latency in completion order (so its sum is
  // bit-equal to summing them in that order).
  obs::MetricsRegistry registry;
  obs::TraceRecorder tracer;
  PipelineServer server(TestCluster());
  server.context()->set_tracer(&tracer);
  server.context()->set_metrics(&registry);
  ServeOptions options;
  options.max_batch_size = 4;
  options.queue_depth = 4;  // shallow: the burst sheds with kQueueFull
  options.cost_admission = false;
  options.slo_seconds = 0.22;  // latencies run 0.20-0.27 s: some miss it
  options.trace_sample_rate = 0.5;
  server.AddTenant("affine", ServablePipeline(FitAffine(1.0, 0.0)),
                   DoubleCodec(), options);
  serve::TenantReport sum;
  size_t latency_count = 0;
  double latency_sum = 0.0;
  double latency_min = 0.0;
  double latency_max = 0.0;
  for (int run = 0; run < 2; ++run) {
    OpenLoopSource source(0, 60.0, 80, 16, 17 + static_cast<uint64_t>(run));
    const ServeReport report = server.Run(&source);
    ASSERT_EQ(report.tenants.size(), 1u);
    const serve::TenantReport& t = report.tenants[0];
    sum.offered += t.offered;
    sum.accepted += t.accepted;
    sum.rejected_queue_full += t.rejected_queue_full;
    sum.rejected_predicted_cost += t.rejected_predicted_cost;
    sum.rejected_error_budget += t.rejected_error_budget;
    sum.completed += t.completed;
    sum.slo_met += t.slo_met;
    sum.trace_sampled += t.trace_sampled;
    sum.trace_dropped += t.trace_dropped;
    for (const serve::ServeResponse& r : report.responses) {
      if (!r.accepted) continue;
      latency_min = latency_count == 0
                        ? r.latency_seconds
                        : std::min(latency_min, r.latency_seconds);
      latency_max = std::max(latency_max, r.latency_seconds);
      latency_sum += r.latency_seconds;
      ++latency_count;
    }
    const auto counter = [&](const std::string& name) {
      return registry.GetCounter(name)->Value();
    };
    EXPECT_EQ(counter("serve.affine.offered"), sum.offered);
    EXPECT_EQ(counter("serve.affine.accepted"), sum.accepted);
    EXPECT_EQ(counter("serve.affine.rejected.queue_full"),
              sum.rejected_queue_full);
    EXPECT_EQ(counter("serve.affine.rejected.predicted_cost"),
              sum.rejected_predicted_cost);
    EXPECT_EQ(counter("serve.affine.rejected.error_budget"),
              sum.rejected_error_budget);
    EXPECT_EQ(counter("serve.affine.slo.met"), sum.slo_met);
    EXPECT_EQ(counter("serve.affine.slo.violated"),
              sum.completed - sum.slo_met);
    EXPECT_EQ(counter("serve.trace.sampled"), sum.trace_sampled);
    EXPECT_EQ(counter("serve.trace.dropped"), sum.trace_dropped);
    const obs::Histogram* latency =
        registry.GetHistogram("serve.affine.latency_seconds");
    EXPECT_EQ(latency->Count(), latency_count);
    EXPECT_EQ(latency->Count(), sum.completed);
    EXPECT_EQ(latency->Sum(), latency_sum);
    EXPECT_EQ(latency->Min(), latency_min);
    EXPECT_EQ(latency->Max(), latency_max);
  }
  // The workload exercises every outcome the counters split.
  EXPECT_GT(sum.rejected_queue_full, 0u);
  EXPECT_GT(sum.slo_met, 0u);
  EXPECT_LT(sum.slo_met, sum.completed);
  EXPECT_GT(sum.trace_sampled, 0u);
  EXPECT_GT(sum.trace_dropped, 0u);
}

}  // namespace
}  // namespace keystone
