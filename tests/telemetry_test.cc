#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/exec_context.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/data/dist_dataset.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/serve/load_generator.h"
#include "src/serve/pipeline_server.h"
#include "src/serve/request.h"
#include "src/serve/serve_options.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using obs::HistogramBuckets;
using obs::SloBudgetOptions;
using obs::SloErrorBudget;
using obs::TelemetryHub;
using obs::TraceSampler;
using serve::MergedSource;
using serve::OpenLoopSource;
using serve::PipelineServer;
using serve::RequestCodec;
using serve::ServablePipeline;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServerConfig;
using serve::TypedRequestCodec;
using testing_ops::AddConst;
using testing_ops::Scale;

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

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

// --- HistogramBuckets (mergeable window tallies) ---------------------------

TEST(HistogramBucketsTest, RecordTracksStats) {
  HistogramBuckets h;
  EXPECT_TRUE(h.Empty());
  h.Record(1.0);
  h.Record(2.0);
  h.Record(4.0);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 7.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 4.0);
  EXPECT_NEAR(h.Mean(), 7.0 / 3.0, 1e-12);
}

TEST(HistogramBucketsTest, MergeOfEmptyIsIdentity) {
  HistogramBuckets h;
  h.Record(3.0);
  h.Record(5.0);
  const double p50_before = h.Quantile(0.5);
  HistogramBuckets empty;
  h.Merge(empty);  // empty right-hand side: nothing changes
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.Min(), 3.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), p50_before);

  HistogramBuckets target;  // empty left-hand side: becomes the source
  target.Merge(h);
  EXPECT_EQ(target.count, 2u);
  EXPECT_DOUBLE_EQ(target.Min(), 3.0);
  EXPECT_DOUBLE_EQ(target.Max(), 5.0);
}

TEST(HistogramBucketsTest, SingleSampleQuantilesAreExact) {
  // Regression for the quantile interpolation fix: with one sample, every
  // quantile — p999 included — must return exactly that sample, not a
  // value extrapolated toward the bucket's upper bound.
  HistogramBuckets h;
  h.Record(0.0173);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0173);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0173);
  EXPECT_DOUBLE_EQ(h.Quantile(0.999), 0.0173);
}

TEST(HistogramBucketsTest, SingleSampleMergesStayInObservedRange) {
  HistogramBuckets a;
  HistogramBuckets b;
  a.Record(0.010);
  b.Record(0.020);
  a.Merge(b);
  EXPECT_EQ(a.count, 2u);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double v = a.Quantile(q);
    EXPECT_GE(v, 0.010) << "q=" << q;
    EXPECT_LE(v, 0.020) << "q=" << q;
  }
}

TEST(HistogramBucketsTest, QuantilesClampedToObservedRangeAtEdges) {
  HistogramBuckets h;
  for (int i = 0; i < 100; ++i) h.Record(0.001 + 0.0001 * i);
  EXPECT_GE(h.Quantile(0.001), h.Min());
  EXPECT_LE(h.Quantile(0.999), h.Max());
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), h.Min());
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.Max());
}

TEST(HistogramQuantileTest, AtomicHistogramSingleSampleNoExtrapolation) {
  // Same regression at the atomic Histogram level (shares the bucket walk).
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("t.single");
  h->Record(2.5);
  EXPECT_DOUBLE_EQ(h->Quantile(0.999), 2.5);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 2.5);
}

// --- TelemetryHub windowing ------------------------------------------------

TEST(TelemetryHubTest, CounterWindowsCarryDeltaRateAndTotal) {
  TelemetryHub hub(1.0);
  hub.Count("reqs", 3.0);
  hub.Tick(1.0);  // closes window 0
  hub.Count("reqs", 5.0);
  hub.Tick(0.5);  // stale: ignored, window 1 stays open
  hub.Tick(1.0);  // no motion: ignored
  EXPECT_EQ(hub.windows_emitted(), 1u);
  hub.Tick(2.0);  // closes window 1
  EXPECT_EQ(hub.windows_emitted(), 2u);
  const std::string stream = hub.SnapshotJsonl();
  EXPECT_NE(stream.find("\"delta\":3"), std::string::npos);
  EXPECT_NE(stream.find("\"delta\":5"), std::string::npos);
  EXPECT_NE(stream.find("\"total\":8"), std::string::npos);
  EXPECT_NE(stream.find("\"rate\":5"), std::string::npos);
}

TEST(TelemetryHubTest, SkipsEmptyWindows) {
  TelemetryHub hub(1.0);
  hub.Count("reqs");
  hub.Tick(1.0);
  hub.Tick(50.0);  // 48 empty windows: fast-forward, no lines
  EXPECT_EQ(hub.windows_emitted(), 1u);
  hub.Count("reqs");
  hub.Tick(51.0);
  EXPECT_EQ(hub.windows_emitted(), 2u);
  // The second line's window index reflects the gap.
  EXPECT_NE(hub.SnapshotJsonl().find("\"window\":50"), std::string::npos);
}

TEST(TelemetryHubTest, SlidingQuantilesMergeRingWindows) {
  TelemetryHub hub(1.0);
  // Window 0 holds low latencies, window 1 high ones; window 1's sliding
  // view must cover both.
  for (int i = 0; i < 10; ++i) hub.Observe("lat", 0.010);
  hub.Tick(1.0);
  for (int i = 0; i < 10; ++i) hub.Observe("lat", 0.100);
  hub.Tick(2.0);
  const std::string stream = hub.SnapshotJsonl();
  std::istringstream lines(stream);
  std::string line0, line1;
  std::getline(lines, line0);
  std::getline(lines, line1);
  // Window 1 alone has count 10 but its sliding merge sees 20.
  EXPECT_NE(line1.find("\"count\":10"), std::string::npos);
  EXPECT_NE(line1.find("\"sliding_count\":20"), std::string::npos);
  EXPECT_NE(line1.find("\"sliding_windows\":2"), std::string::npos);
  // Window 1's own p50 is ~0.1; the sliding p50 must sit between the two
  // modes (i.e. strictly below the window-local p50).
  EXPECT_NE(line0.find("\"sliding_count\":10"), std::string::npos);
}

TEST(TelemetryHubTest, RingEvictionBoundsSlidingWindow) {
  // Two more one-sample windows than the ring holds: the sliding view of
  // the last one is itself plus kRingWindows - 1 predecessors.
  TelemetryHub hub(1.0);
  const size_t windows = TelemetryHub::kRingWindows + 2;
  for (size_t w = 0; w < windows; ++w) {
    hub.Observe("lat", 0.010 * static_cast<double>(w + 1));
    hub.Tick(static_cast<double>(w + 1));
  }
  std::istringstream lines(hub.SnapshotJsonl());
  std::string line;
  std::string last;
  while (std::getline(lines, line)) last = line;
  const std::string ring = std::to_string(TelemetryHub::kRingWindows);
  EXPECT_NE(last.find("\"sliding_count\":" + ring + ","), std::string::npos);
  EXPECT_NE(last.find("\"sliding_windows\":" + ring + ","),
            std::string::npos);
}

TEST(TelemetryHubTest, GaugeExportsLatestValue) {
  TelemetryHub hub;
  hub.SetGauge("depth", 3.0);
  hub.SetGauge("depth", 7.0);
  hub.Tick(1.0);
  EXPECT_NE(hub.SnapshotJsonl().find("\"value\":7"), std::string::npos);
}

TEST(TelemetryHubTest, CloseEpochEmitsPartialWindowAndResets) {
  TelemetryHub hub;
  hub.Count("reqs", 2.0);
  hub.Tick(0.4);  // inside window 0: nothing emitted yet
  EXPECT_EQ(hub.windows_emitted(), 0u);
  hub.CloseEpoch();
  EXPECT_EQ(hub.windows_emitted(), 1u);
  EXPECT_EQ(hub.epoch(), 1u);
  // New epoch starts from window 0 with fresh totals.
  hub.Count("reqs", 1.0);
  hub.Tick(1.0);
  const std::string stream = hub.SnapshotJsonl();
  EXPECT_NE(stream.find("\"epoch\":0"), std::string::npos);
  EXPECT_NE(stream.find("\"epoch\":1"), std::string::npos);
  // The second epoch's total restarts at 1, not 3.
  EXPECT_NE(stream.find("\"total\":1"), std::string::npos);
}

TEST(TelemetryHubTest, IdenticalOperationSequencesYieldIdenticalStreams) {
  auto drive = [](TelemetryHub* hub) {
    hub->Count("serve.a.offered");
    hub->Observe("serve.a.latency", 0.012);
    hub->SetGauge("slo.a.budget", 0.75);
    hub->Tick(1.0);
    hub->Count("serve.a.offered", 4.0);
    hub->Observe("serve.a.latency", 0.034);
    hub->Tick(2.5);
    hub->CloseEpoch();
  };
  TelemetryHub a, b;
  drive(&a);
  drive(&b);
  EXPECT_FALSE(a.SnapshotJsonl().empty());
  EXPECT_EQ(a.SnapshotJsonl(), b.SnapshotJsonl());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream file;
  file << in.rdbuf();
  return file.str();
}

TEST(TelemetryHubTest, JsonlWriterMirrorsStreamToDisk) {
  const std::string path = ::testing::TempDir() + "/telemetry_test.jsonl";
  std::remove(path.c_str());
  {
    TelemetryHub hub;
    hub.Count("reqs");
    hub.Tick(1.0);  // emitted before the writer attaches: must be replayed
    ASSERT_TRUE(hub.AttachJsonlWriter(path));
    hub.Count("reqs", 2.0);
    hub.Tick(2.0);
    hub.Flush();
    EXPECT_EQ(ReadFile(path), hub.SnapshotJsonl());
  }
  // A hub destroyed without Flush() still writes every emitted window.
  std::string stream;
  {
    TelemetryHub hub;
    ASSERT_TRUE(hub.AttachJsonlWriter(path));
    hub.Count("reqs");
    hub.Tick(1.0);
    hub.Observe("lat", 0.25);
    hub.Tick(3.0);
    stream = hub.SnapshotJsonl();
  }
  EXPECT_FALSE(stream.empty());
  EXPECT_EQ(ReadFile(path), stream);
  // A served Run leaves the file complete when it returns: its epoch
  // closes inside Run.
  {
    PipelineServer server(TestCluster());
    server.AddTenant("alpha", ServablePipeline(FitAffine(2.0, 1.0)),
                     DoubleCodec(), ServeOptions());
    TelemetryHub hub(0.05);
    ASSERT_TRUE(hub.AttachJsonlWriter(path));
    server.set_telemetry(&hub);
    OpenLoopSource source(0, 100.0, 40, 16, 1);
    server.Run(&source);
    const std::string file = ReadFile(path);
    EXPECT_NE(file.find("serve.alpha.offered"), std::string::npos);
    EXPECT_EQ(file, hub.SnapshotJsonl());
  }
  std::remove(path.c_str());
}

TEST(TelemetryHubTest, FlushReportsAFailedWrite) {
  // /dev/full opens fine and fails every flush with ENOSPC.
  TelemetryHub hub;
  if (!hub.AttachJsonlWriter("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_TRUE(hub.Flush());  // nothing emitted yet: nothing to fail
  hub.Count("reqs");
  hub.Tick(1.0);
  EXPECT_FALSE(hub.Flush());
}

TEST(TelemetryHubTest, OverheadAccountingPublishesGauges) {
  TelemetryHub hub;
  for (int i = 0; i < 100; ++i) hub.Observe("lat", 0.001 * i);
  hub.Tick(1.0);
  EXPECT_GT(hub.OverheadWallSeconds(), 0.0);
  obs::MetricsRegistry registry;
  hub.PublishOverhead(&registry, 1.0);
  EXPECT_GT(registry.GetGauge("obs.overhead.total_seconds")->Value(), 0.0);
  EXPECT_GT(registry.GetGauge("obs.overhead.fraction")->Value(), 0.0);
  EXPECT_LT(registry.GetGauge("obs.overhead.fraction")->Value(), 1.0);
}

// --- TraceSampler ----------------------------------------------------------

TEST(TraceSamplerTest, RateExtremes) {
  const TraceSampler always(1.0, 7);
  const TraceSampler never(0.0, 7);
  for (uint64_t id = 0; id < 50; ++id) {
    EXPECT_TRUE(always.Sample("t", id));
    EXPECT_FALSE(never.Sample("t", id));
  }
}

TEST(TraceSamplerTest, DrawIsPureFunctionOfSeedTenantAndId) {
  // Same (seed, tenant, id) => same decision, regardless of the order ids
  // are evaluated in — the property that makes head sampling schedule-
  // independent.
  const TraceSampler s(0.3, 42);
  std::set<uint64_t> forward, backward;
  for (uint64_t id = 0; id < 400; ++id) {
    if (s.Sample("tenant-a", id)) forward.insert(id);
  }
  for (uint64_t id = 400; id-- > 0;) {
    if (s.Sample("tenant-a", id)) backward.insert(id);
  }
  EXPECT_EQ(forward, backward);
  EXPECT_FALSE(forward.empty());
  EXPECT_LT(forward.size(), 400u);
  // Rate roughly honored (loose 3-sigma-ish bound).
  EXPECT_NEAR(static_cast<double>(forward.size()) / 400.0, 0.3, 0.08);
}

TEST(TraceSamplerTest, SeedAndTenantChangeTheSampledSet) {
  const TraceSampler s1(0.5, 1), s2(0.5, 2);
  bool seed_differs = false, tenant_differs = false;
  for (uint64_t id = 0; id < 200; ++id) {
    if (s1.Sample("a", id) != s2.Sample("a", id)) seed_differs = true;
    if (s1.Sample("a", id) != s1.Sample("b", id)) tenant_differs = true;
  }
  EXPECT_TRUE(seed_differs);
  EXPECT_TRUE(tenant_differs);
}

// --- SloErrorBudget --------------------------------------------------------

TEST(SloErrorBudgetTest, BurnRateArithmeticAtWindowBoundaries) {
  SloBudgetOptions opt;
  opt.target_attainment = 0.9;  // 10% error budget
  opt.window_seconds = 1.0;
  opt.fast_windows = 2;
  opt.slow_windows = 4;
  SloErrorBudget budget(opt);
  EXPECT_DOUBLE_EQ(budget.ErrorBudgetFraction(), 0.1);

  // Window 0: 10 requests, 2 violations => violation fraction 0.2, burn 2.
  for (int i = 0; i < 8; ++i) budget.RecordOutcome(true);
  for (int i = 0; i < 2; ++i) budget.RecordOutcome(false);
  EXPECT_DOUBLE_EQ(budget.FastBurnRate(), 2.0);
  EXPECT_DOUBLE_EQ(budget.SlowBurnRate(), 2.0);

  // Cross into window 1: the open window is empty, fast lookback now spans
  // {open(0 reqs), window0} => still fraction 0.2 over 10 requests.
  budget.AdvanceTo(1.0);
  EXPECT_EQ(budget.windows_closed(), 1u);
  EXPECT_DOUBLE_EQ(budget.FastBurnRate(), 2.0);

  // Window 1: 10 clean requests. Fast = {w1: 0/10, w0: 2/10} = 0.1/0.1 = 1.
  for (int i = 0; i < 10; ++i) budget.RecordOutcome(true);
  EXPECT_DOUBLE_EQ(budget.FastBurnRate(), 1.0);
  EXPECT_DOUBLE_EQ(budget.SlowBurnRate(), 1.0);

  // Two more clean windows push window 0 out of the fast lookback.
  budget.AdvanceTo(2.0);
  for (int i = 0; i < 10; ++i) budget.RecordOutcome(true);
  EXPECT_DOUBLE_EQ(budget.FastBurnRate(), 0.0);
  // Slow lookback (4 windows: open + 3 closed) still sees window 0.
  EXPECT_DOUBLE_EQ(budget.SlowBurnRate(), 2.0 / 3.0);

  // Totals are epoch-cumulative, not windowed.
  EXPECT_EQ(budget.total_requests(), 30u);
  EXPECT_EQ(budget.total_violations(), 2u);
  // Budget remaining: 1 - 2 / (0.1 * 30) = 1/3.
  EXPECT_NEAR(budget.BudgetRemainingFraction(), 1.0 / 3.0, 1e-12);
}

TEST(SloErrorBudgetTest, SlowWindowEvictionForgetsOldViolations) {
  SloBudgetOptions opt;
  opt.target_attainment = 0.9;
  opt.fast_windows = 1;
  opt.slow_windows = 2;
  SloErrorBudget budget(opt);
  budget.RecordOutcome(false);
  budget.AdvanceTo(1.0);
  budget.RecordOutcome(true);
  EXPECT_GT(budget.SlowBurnRate(), 0.0);  // still sees the violation
  budget.AdvanceTo(2.0);  // violation window leaves the slow lookback
  budget.RecordOutcome(true);
  EXPECT_DOUBLE_EQ(budget.SlowBurnRate(), 0.0);
}

TEST(SloErrorBudgetTest, ShedsBeforeExhaustionAfterHealthyHistory) {
  // The overload narrative: a long healthy phase banks budget, then a
  // burst of violations spikes both burn rates. Shedding must engage
  // while most of the epoch's budget is still unspent.
  SloBudgetOptions opt;
  opt.target_attainment = 0.9;
  opt.fast_windows = 2;
  opt.slow_windows = 8;
  opt.shed_burn_rate = 2.0;
  opt.min_requests = 8;
  SloErrorBudget budget(opt);
  // 40 healthy windows — longer than the slow lookback, so the lookback
  // sees only recent (clean) history while the epoch banks lots of budget.
  for (int w = 0; w < 40; ++w) {
    for (int i = 0; i < 50; ++i) budget.RecordOutcome(true);
    budget.AdvanceTo(static_cast<double>(w + 1));
    EXPECT_FALSE(budget.ShouldShed());
  }
  // Overload: violations pour into the open window until shedding trips.
  bool shed = false;
  double remaining_at_shed = -1.0;
  for (int i = 0; i < 200 && !shed; ++i) {
    budget.RecordOutcome(false);
    if (budget.ShouldShed()) {
      shed = true;
      remaining_at_shed = budget.BudgetRemainingFraction();
    }
  }
  EXPECT_TRUE(shed);
  EXPECT_GT(remaining_at_shed, 0.5);  // engaged long before exhaustion
  budget.RecordShed();
  EXPECT_EQ(budget.total_shed(), 1u);
  // Recovery: clean windows bring the fast burn back down and re-admit.
  budget.AdvanceTo(41.0);
  for (int i = 0; i < 50; ++i) budget.RecordOutcome(true);
  budget.AdvanceTo(42.0);
  for (int i = 0; i < 50; ++i) budget.RecordOutcome(true);
  EXPECT_FALSE(budget.ShouldShed());
  budget.Reset();
  EXPECT_EQ(budget.total_requests(), 0u);
  EXPECT_DOUBLE_EQ(budget.BudgetRemainingFraction(), 1.0);
}

TEST(SloErrorBudgetTest, MinRequestsGatesShedding) {
  SloBudgetOptions opt;
  opt.target_attainment = 0.99;
  opt.min_requests = 8;
  SloErrorBudget budget(opt);
  for (int i = 0; i < 7; ++i) {
    budget.RecordOutcome(false);
    EXPECT_FALSE(budget.ShouldShed());  // burn is huge but sample is tiny
  }
  budget.RecordOutcome(false);
  EXPECT_TRUE(budget.ShouldShed());
}

// --- PlanRunner integration ------------------------------------------------

TEST(TelemetryIntegrationTest, PlanRunnerTicksHubFromLedger) {
  TelemetryHub hub(1e-4);  // tiny windows so a small fit crosses some
  // An estimator with training data, so the fit actually executes nodes
  // (a transformer-only pipeline with no dataset runs nothing).
  auto data = DistDataset<double>::Partitioned({1, 2, 3, 4, 5}, 2);
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<testing_ops::MeanCenterer>(),
                           data);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  executor.context()->set_telemetry(&hub);
  executor.Fit(pipe);
  hub.CloseEpoch();
  EXPECT_GT(hub.windows_emitted(), 0u);
  const std::string stream = hub.SnapshotJsonl();
  EXPECT_NE(stream.find("exec.nodes."), std::string::npos);
  EXPECT_NE(stream.find("exec.node_seconds"), std::string::npos);
}

// --- Serving integration ---------------------------------------------------

struct ServeRun {
  std::string telemetry;
  std::string responses;
  ServeReport report;
};

ServeRun RunServeOnce(size_t num_threads, ServeOptions options,
                      double rate = 200.0, size_t requests = 150) {
  ServerConfig config;
  config.server_slots = 2;
  config.num_threads = num_threads;
  PipelineServer server(TestCluster(), config);
  server.AddTenant("alpha", ServablePipeline(FitAffine(2.0, 1.0)),
                   DoubleCodec(), options);
  TelemetryHub hub(0.05);
  server.set_telemetry(&hub);
  OpenLoopSource source(0, rate, requests, 16, 11);
  ServeRun run;
  run.report = server.Run(&source);
  run.telemetry = hub.SnapshotJsonl();
  run.responses = run.report.ResponseStream();
  return run;
}

TEST(TelemetryIntegrationTest, SnapshotStreamByteIdenticalAcrossPoolSizes) {
  ServeOptions options;
  options.trace_sample_rate = 0.5;
  options.budget_shedding = true;
  options.slo_budget.window_seconds = 0.05;
  const ServeRun one = RunServeOnce(1, options);
  const ServeRun two = RunServeOnce(2, options);
  const ServeRun eight = RunServeOnce(8, options);
  ASSERT_FALSE(one.telemetry.empty());
  EXPECT_EQ(one.telemetry, two.telemetry);
  EXPECT_EQ(one.telemetry, eight.telemetry);
  EXPECT_EQ(one.responses, two.responses);
  EXPECT_EQ(one.responses, eight.responses);
  // The stream carries the serving series and the slo gauges.
  EXPECT_NE(one.telemetry.find("serve.alpha.offered"), std::string::npos);
  EXPECT_NE(one.telemetry.find("serve.alpha.latency"), std::string::npos);
  EXPECT_NE(one.telemetry.find("slo.alpha.budget_remaining"),
            std::string::npos);
  EXPECT_NE(one.telemetry.find("sliding_p99"), std::string::npos);
}

TEST(TelemetryIntegrationTest, SamplingThinsSpansButKeepsLatencyExact) {
  ServeOptions full;
  full.trace_sample_rate = 1.0;
  ServeOptions thin = full;
  thin.trace_sample_rate = 0.1;
  thin.trace_sample_seed = 5;
  const ServeRun dense = RunServeOnce(2, full);
  const ServeRun sparse = RunServeOnce(2, thin);
  const auto& dt = dense.report.tenants[0];
  const auto& st = sparse.report.tenants[0];
  ASSERT_GT(dt.completed, 0u);
  EXPECT_EQ(dt.trace_sampled, dt.completed);
  EXPECT_EQ(dt.trace_dropped, 0u);
  EXPECT_EQ(st.trace_sampled + st.trace_dropped, st.completed);
  EXPECT_LT(st.trace_sampled * 5, st.completed);  // well under rate 1.0
  EXPECT_GT(st.trace_dropped, 0u);
  // Latency accounting is untouched by sampling: responses and exact
  // quantiles are identical to the unsampled run.
  EXPECT_EQ(dense.responses, sparse.responses);
  EXPECT_DOUBLE_EQ(dt.p99_latency_seconds, st.p99_latency_seconds);
  EXPECT_DOUBLE_EQ(dt.mean_latency_seconds, st.mean_latency_seconds);
}

TEST(TelemetryIntegrationTest, BudgetSheddingEngagesBeforeExhaustion) {
  // Healthy background traffic banks budget, then a hot burst overloads
  // the server; error-budget shedding must engage while budget remains.
  ServerConfig config;
  config.server_slots = 1;
  config.num_threads = 2;
  PipelineServer server(TestCluster(), config);
  ServeOptions options;
  options.max_batch_size = 4;
  options.queue_depth = 256;
  options.cost_admission = false;  // isolate the error-budget path
  options.budget_shedding = true;
  options.slo_budget.target_attainment = 0.9;
  options.slo_budget.window_seconds = 0.5;
  options.slo_budget.fast_windows = 2;
  options.slo_budget.slow_windows = 8;
  options.slo_budget.min_requests = 16;
  server.AddTenant("hot", ServablePipeline(FitAffine(2.0, 1.0)),
                   DoubleCodec(), options);
  // Background: well under the ~19 rps single-slot capacity, banking
  // budget for 40 virtual seconds. Burst: a sustained 3x-capacity phase —
  // long enough that violation feedback arrives while arrivals continue
  // (an instantaneous burst would outrun the burn signal entirely).
  OpenLoopSource background(0, 5.0, 200, 16, 3);
  OpenLoopSource burst(0, 60.0, 900, 16, 4, /*start_seconds=*/41.0,
                       /*first_id=*/200);
  MergedSource merged({&background, &burst});
  const ServeReport report = server.Run(&merged);
  const auto& tenant = report.tenants[0];
  EXPECT_GT(tenant.rejected_error_budget, 0u);
  // first_shed_budget_remaining > 0 proves shedding fired *before* the
  // budget exhausted — the acceptance criterion.
  EXPECT_GT(tenant.first_shed_budget_remaining, 0.0);
  EXPECT_LT(tenant.first_shed_budget_remaining, 1.0);
}

TEST(TelemetryIntegrationTest, RerunStartsFreshEpoch) {
  ServerConfig config;
  config.num_threads = 2;
  PipelineServer server(TestCluster(), config);
  server.AddTenant("alpha", ServablePipeline(FitAffine(2.0, 1.0)),
                   DoubleCodec(), ServeOptions());
  TelemetryHub hub(0.05);
  server.set_telemetry(&hub);
  OpenLoopSource a(0, 100.0, 40, 16, 1);
  server.Run(&a);
  const size_t epochs_after_first = hub.epoch();
  OpenLoopSource b(0, 100.0, 40, 16, 1);
  server.Run(&b);
  EXPECT_GT(hub.epoch(), epochs_after_first);
  // Both epochs contributed lines.
  const std::string stream = hub.SnapshotJsonl();
  EXPECT_NE(stream.find("\"epoch\":" + std::to_string(epochs_after_first)),
            std::string::npos);
}

TEST(TelemetryIntegrationTest, HubReplacedAtTheSameAddressGetsItsOwnSeries) {
  // Series ids belong to the hub that issued them. A new hub built in the
  // old one's storage has the same address but an empty registry, so the
  // server must register its series again rather than reuse stale ids.
  ServerConfig config;
  config.num_threads = 2;
  PipelineServer server(TestCluster(), config);
  ServeOptions options;
  options.cost_admission = false;  // calibration persists across runs
  options.trace_sample_rate = 0.5;
  options.budget_shedding = true;
  options.slo_budget.window_seconds = 0.05;
  server.AddTenant("alpha", ServablePipeline(FitAffine(2.0, 1.0)),
                   DoubleCodec(), options);
  std::optional<TelemetryHub> hub;
  hub.emplace(0.05);
  const TelemetryHub* const address = &*hub;
  server.set_telemetry(&*hub);
  OpenLoopSource a(0, 100.0, 40, 16, 1);
  server.Run(&a);
  const std::string first = hub->SnapshotJsonl();
  hub.reset();
  hub.emplace(0.05);
  ASSERT_EQ(&*hub, address);
  server.set_telemetry(&*hub);
  OpenLoopSource b(0, 100.0, 40, 16, 1);
  server.Run(&b);
  EXPECT_NE(first.find("serve.alpha.offered"), std::string::npos);
  EXPECT_EQ(hub->SnapshotJsonl(), first);
}

}  // namespace
}  // namespace keystone
