#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <cmath>
#include <limits>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/core/executor.h"
#include "src/core/pipeline.h"
#include "src/obs/calibration.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profile_store.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "src/optimizer/operator_optimizer.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using testing_ops::MeanCenterer;
using testing_ops::ReportingEstimator;
using testing_ops::Scale;

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

/// Very light structural validation: balanced braces/brackets outside of
/// string literals, which catches truncated or mis-quoted trace output.
bool JsonBalanced(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = in_string;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

TEST(TraceRecorderTest, RecordsSpansAndExportsChromeJson) {
  obs::TraceRecorder recorder;
  obs::TraceSpan span;
  span.node_id = 7;
  span.name = "NGrams \"quoted\"";  // exercises JSON escaping
  span.kind = "transformer";
  span.phase = obs::TracePhase::kTrain;
  span.virtual_seconds = 1.5;
  span.predicted = CostProfile(1e9, 2e9, 0, 1);
  span.observed = CostProfile(2e9, 2e9, 0, 2);
  span.used_observed = true;
  recorder.Record(span);
  span.name = "Solver";
  span.phase = obs::TracePhase::kEval;
  span.observed.reset();
  recorder.Record(span);
  ASSERT_EQ(recorder.NumSpans(), 2u);

  const std::string json = recorder.ChromeTraceJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("NGrams \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_flops\":1e+09"), std::string::npos);
  EXPECT_NE(json.find("\"observed_flops\":2e+09"), std::string::npos);

  const std::string report = recorder.PlanReport();
  EXPECT_NE(report.find("Solver"), std::string::npos);
  EXPECT_NE(report.find("predicted="), std::string::npos);

  recorder.Clear();
  EXPECT_EQ(recorder.NumSpans(), 0u);
}

TEST(TraceRecorderTest, WriteChromeTraceRoundTripsThroughDisk) {
  obs::TraceRecorder recorder;
  obs::TraceSpan span;
  span.name = "Scale";
  span.virtual_seconds = 0.25;
  recorder.Record(span);
  const std::string path = ::testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, recorder.ChromeTraceJson());
  EXPECT_TRUE(JsonBalanced(contents));
}

TEST(TraceTest, SpansCoverEveryExecutedOperator) {
  auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8});
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(), train);

  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  obs::TraceRecorder recorder;
  executor.context()->set_tracer(&recorder);
  PipelineReport report;
  auto fitted = executor.Fit(pipe, &report);

  // Every node the executor ran at full scale has exactly one train span,
  // matching the report.
  std::set<int> train_span_ids;
  size_t profile_spans = 0;
  for (const auto& span : recorder.Spans()) {
    if (span.phase == obs::TracePhase::kTrain) {
      EXPECT_TRUE(train_span_ids.insert(span.node_id).second)
          << "duplicate train span for node " << span.node_id;
    } else {
      ++profile_spans;
    }
  }
  ASSERT_EQ(train_span_ids.size(), report.nodes.size());
  for (const auto& node : report.nodes) {
    EXPECT_EQ(train_span_ids.count(node.id), 1u) << node.name;
  }
  // Full() profiles at two sample sizes, so each train node also shows up
  // in both profile phases.
  EXPECT_EQ(profile_spans, 2 * report.nodes.size());

  // Eval spans appear once the fitted pipeline runs.
  const size_t before = recorder.NumSpans();
  fitted.ApplyOne(1.0, executor.context());
  size_t eval_spans = 0;
  for (const auto& span : recorder.Spans()) {
    if (span.phase == obs::TracePhase::kEval) ++eval_spans;
  }
  EXPECT_GT(recorder.NumSpans(), before);
  EXPECT_GT(eval_spans, 0u);
}

TEST(TraceTest, SpanRecordsPredictedAndObservedCost) {
  const CostProfile predicted(1e9, 1e6, 0, 1);
  const CostProfile observed(3e9, 2e6, 0, 4);
  auto train = Doubles({1, 2, 3, 4});
  auto pipe = PipelineInput<double>().AndThenLogicalEstimator<double>(
      std::make_shared<ReportingEstimator>("reporting-est", predicted,
                                           observed),
      train, nullptr);

  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  obs::TraceRecorder recorder;
  executor.context()->set_tracer(&recorder);
  executor.Fit(pipe);

  bool found = false;
  for (const auto& span : recorder.Spans()) {
    if (span.phase != obs::TracePhase::kTrain ||
        span.kind != "Estimator") {
      continue;
    }
    found = true;
    EXPECT_DOUBLE_EQ(span.predicted.flops, predicted.flops);
    EXPECT_DOUBLE_EQ(span.predicted.rounds, predicted.rounds);
    ASSERT_TRUE(span.observed.has_value());
    EXPECT_DOUBLE_EQ(span.observed->flops, observed.flops);
    EXPECT_DOUBLE_EQ(span.observed->rounds, observed.rounds);
    EXPECT_TRUE(span.used_observed);
  }
  EXPECT_TRUE(found) << "no estimator train span recorded";
}

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry registry;
  registry.Increment("a.count");
  registry.Increment("a.count", 4.0);
  EXPECT_DOUBLE_EQ(registry.GetCounter("a.count")->Value(), 5.0);

  registry.Set("a.gauge", 42.0);
  registry.Set("a.gauge", 7.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("a.gauge")->Value(), 7.0);

  obs::Histogram* h = registry.GetHistogram("a.hist");
  h->Record(0.5);
  h->Record(2.0);
  h->Record(200.0);
  EXPECT_EQ(h->Count(), 3u);
  EXPECT_DOUBLE_EQ(h->Sum(), 202.5);
  EXPECT_DOUBLE_EQ(h->Min(), 0.5);
  EXPECT_DOUBLE_EQ(h->Max(), 200.0);
  uint64_t bucketed = 0;
  for (uint64_t b : h->Buckets()) bucketed += b;
  EXPECT_EQ(bucketed, 3u);

  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "a.count");
  EXPECT_TRUE(JsonBalanced(registry.ToJson()));
  EXPECT_NE(registry.ToJson().find("\"a.hist\""), std::string::npos);

  registry.Clear();
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(MetricsTest, HistogramQuantilesFromLogBuckets) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty -> 0

  h.Record(0.25);
  // A single observation answers every quantile exactly (clamped to the
  // observed range).
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.25);

  // 1000 uniform latencies in [1ms, 1s): interpolated quantiles must land
  // within one log-bucket (10^(1/8) ~ 33% relative) of the true value.
  obs::Histogram u;
  for (int i = 0; i < 1000; ++i) u.Record(0.001 + 0.999 * (i / 1000.0));
  const double p50 = u.Quantile(0.5);
  const double true_p50 = 0.001 + 0.999 * 0.5;
  EXPECT_GT(p50, true_p50 / 1.4);
  EXPECT_LT(p50, true_p50 * 1.4);
  // Quantiles are monotone in q and clamped to the observed extrema.
  EXPECT_LE(u.Quantile(0.5), u.Quantile(0.99));
  EXPECT_LE(u.Quantile(0.99), u.Quantile(0.999));
  EXPECT_GE(u.Quantile(0.0), u.Min());
  EXPECT_LE(u.Quantile(1.0), u.Max());
}

TEST(MetricsTest, HistogramBucketBoundsAndEdgeValues) {
  // Inner bucket bounds are a contiguous geometric ladder.
  for (int b = 1; b < obs::Histogram::kNumBuckets - 2; ++b) {
    EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperBound(b),
                     obs::Histogram::BucketLowerBound(b + 1));
    EXPECT_GT(obs::Histogram::BucketUpperBound(b),
              obs::Histogram::BucketLowerBound(b));
  }
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketLowerBound(0), 0.0);

  // Zero, negatives, and sub-1e-9 values land in the underflow bucket but
  // still count; the quantile falls back to the observed minimum there.
  obs::Histogram h;
  h.Record(0.0);
  h.Record(-3.0);
  h.Record(1e-12);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Buckets()[0], 3u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), h.Min());

  // Values at/above 1e9 land in the overflow bucket; the quantile reports
  // the observed maximum instead of infinity.
  obs::Histogram big;
  big.Record(1e9);
  big.Record(5e12);
  EXPECT_EQ(big.Buckets()[obs::Histogram::kNumBuckets - 1], 2u);
  EXPECT_DOUBLE_EQ(big.Quantile(0.99), 5e12);
}

TEST(MetricsTest, SnapshotAndJsonCarryQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("lat");
  for (int i = 1; i <= 100; ++i) h->Record(i * 0.01);
  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].kind, obs::MetricSnapshot::Kind::kHistogram);
  EXPECT_GT(snapshot[0].p50, 0.0);
  EXPECT_LE(snapshot[0].p50, snapshot[0].p90);
  EXPECT_LE(snapshot[0].p90, snapshot[0].p99);
  EXPECT_LE(snapshot[0].p99, snapshot[0].p999);
  EXPECT_LE(snapshot[0].p999, snapshot[0].max);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(MetricsTest, ConcurrentUpdatesFromThreadPoolAreExact) {
  obs::MetricsRegistry registry;
  // Look up once, update from many workers (the documented hot-path use).
  obs::Counter* counter = registry.GetCounter("pool.hits");
  obs::Histogram* hist = registry.GetHistogram("pool.obs");
  ThreadPool pool(8);
  constexpr size_t kIters = 10000;
  pool.ParallelFor(kIters, [&](size_t i) {
    counter->Increment();
    hist->Record(1.0);
    // Name-based lookups from workers exercise the lock striping.
    registry.Increment("pool.striped." + std::to_string(i % 7));
  });
  EXPECT_DOUBLE_EQ(counter->Value(), static_cast<double>(kIters));
  EXPECT_EQ(hist->Count(), kIters);
  EXPECT_DOUBLE_EQ(hist->Sum(), static_cast<double>(kIters));
  double striped = 0.0;
  for (int i = 0; i < 7; ++i) {
    striped += registry.GetCounter("pool.striped." + std::to_string(i))
                   ->Value();
  }
  EXPECT_DOUBLE_EQ(striped, static_cast<double>(kIters));
}

TEST(ProfileStoreTest, RoundTripsThroughDisk) {
  obs::ProfileStore store;
  DataStats stats;
  stats.num_records = 1000;
  stats.dim = 64;
  store.RecordObservation("qr local solve", stats, CostProfile(1e9, 1e6, 0, 1),
                          CostProfile(2e9, 3e6, 4e5, 2), 0.125);
  obs::NodeProfileRecord node;
  node.seconds = 1.5;
  node.records = 512;
  node.bytes_per_record = 80.0;
  node.full_records = 65000000;
  node.chosen_option = 2;
  const std::string key =
      obs::ProfileStore::NodeKey("Transformer|Common Sparse Features|65000000",
                                 512);
  store.RecordNodeProfile(key, node);

  const std::string path = ::testing::TempDir() + "/profile_store.txt";
  ASSERT_TRUE(store.Save(path));

  obs::ProfileStore loaded;
  ASSERT_TRUE(loaded.Load(path));
  std::remove(path.c_str());
  EXPECT_EQ(loaded.NumObservations(), 1u);
  EXPECT_EQ(loaded.NumNodeProfiles(), 1u);

  const auto observed = loaded.ObservedFor("qr local solve", stats);
  ASSERT_TRUE(observed.has_value());
  EXPECT_DOUBLE_EQ(observed->flops, 2e9);
  EXPECT_DOUBLE_EQ(observed->bytes, 3e6);
  EXPECT_DOUBLE_EQ(observed->network, 4e5);
  EXPECT_DOUBLE_EQ(observed->rounds, 2.0);

  const auto roundtrip = loaded.NodeProfileFor(key);
  ASSERT_TRUE(roundtrip.has_value());
  EXPECT_DOUBLE_EQ(roundtrip->seconds, 1.5);
  EXPECT_EQ(roundtrip->records, 512u);
  EXPECT_DOUBLE_EQ(roundtrip->bytes_per_record, 80.0);
  EXPECT_EQ(roundtrip->full_records, 65000000u);
  EXPECT_EQ(roundtrip->chosen_option, 2);

  const std::string report = loaded.AccuracyReport(TestCluster());
  EXPECT_NE(report.find("qr local solve"), std::string::npos);
}

TEST(ProfileStoreTest, ObservedForRescalesLinearTermsNotRounds) {
  obs::ProfileStore store;
  DataStats small;
  small.num_records = 100;
  small.dim = 8;
  store.RecordObservation("op", small, CostProfile(),
                          CostProfile(1e6, 2e6, 3e6, 40), 0.0);
  DataStats big = small;
  big.num_records = 1000;
  const auto scaled = store.ObservedFor("op", big);
  ASSERT_TRUE(scaled.has_value());
  EXPECT_DOUBLE_EQ(scaled->flops, 1e7);
  EXPECT_DOUBLE_EQ(scaled->bytes, 2e7);
  EXPECT_DOUBLE_EQ(scaled->network, 3e7);
  EXPECT_DOUBLE_EQ(scaled->rounds, 40.0);  // carried over, not scaled
  EXPECT_FALSE(store.ObservedFor("unknown", big).has_value());
}

TEST(ProfileStoreTest, LoadRejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/corrupt_store.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage line that is not a record\n", f);
  std::fclose(f);
  obs::ProfileStore store;
  EXPECT_FALSE(store.Load(path));
  std::remove(path.c_str());
  EXPECT_FALSE(store.Load(path));  // missing file
}

TEST(ProfileStoreTest, LoadRejectsTruncatedAndUnknownRecords) {
  // Every malformed shape a torn write or version skew can produce must
  // come back as `false` — never an exception, never a partial load.
  const std::string path = ::testing::TempDir() + "/bad_store.txt";
  const auto write_and_load = [&](const char* contents) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fputs(contents, f);
    std::fclose(f);
    obs::ProfileStore store;
    const bool ok = store.Load(path);
    // A rejected file must not leave partial records behind.
    if (!ok) {
      EXPECT_EQ(store.NumObservations(), 0u);
      EXPECT_EQ(store.NumNodeProfiles(), 0u);
    }
    return ok;
  };
  // A truncated obs record (kill mid-write dropped trailing fields).
  EXPECT_FALSE(write_and_load("obs solver 3 64 1\n"));
  // A truncated node record.
  EXPECT_FALSE(write_and_load("node key@512 1.5\n"));
  // An unknown record tag (a future format version).
  EXPECT_FALSE(write_and_load("blob solver 1 2 3 4 5 6 7 8 9 10 11 12 13\n"));
  // A malformed key escape: "%" with no hex digits used to throw from
  // std::stoi inside UnescapeToken; it must now just fail the load.
  EXPECT_FALSE(write_and_load(
      "obs solver% 3 64 1 100 1 1 1 1 1 1 1 1 0.5\n"));
  EXPECT_FALSE(write_and_load(
      "obs solver%x 3 64 1 100 1 1 1 1 1 1 1 1 0.5\n"));
  // Comments and blank lines alone are a valid (empty) store.
  EXPECT_TRUE(write_and_load("# keystone profile store v1\n\n"));
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, ObservedForPrefersMatchingDimension) {
  // Two histories for one operator at different feature dimensions with
  // wildly different per-record costs: a query at dim 8 must rescale from
  // the dim-8 cell only, not the pooled average, and a query at an unseen
  // dim falls back to pooling across all recorded cells.
  obs::ProfileStore store;
  DataStats narrow;
  narrow.num_records = 100;
  narrow.dim = 8;
  store.RecordObservation("featurize", narrow, CostProfile(),
                          CostProfile(1e6, 0, 0, 0), 0.0);
  DataStats wide;
  wide.num_records = 100;
  wide.dim = 4096;
  store.RecordObservation("featurize", wide, CostProfile(),
                          CostProfile(1e9, 0, 0, 0), 0.0);

  const auto at_narrow = store.ObservedFor("featurize", narrow);
  ASSERT_TRUE(at_narrow.has_value());
  EXPECT_DOUBLE_EQ(at_narrow->flops, 1e6);

  const auto at_wide = store.ObservedFor("featurize", wide);
  ASSERT_TRUE(at_wide.has_value());
  EXPECT_DOUBLE_EQ(at_wide->flops, 1e9);

  DataStats unseen;
  unseen.num_records = 200;  // records pool to 200, so costs double
  unseen.dim = 64;
  const auto pooled = store.ObservedFor("featurize", unseen);
  ASSERT_TRUE(pooled.has_value());
  EXPECT_DOUBLE_EQ(pooled->flops, 1e6 + 1e9);
}

TEST(OptimizerHistoryTest, ObservedHistoryCorrectsSelection) {
  // Model says "fast" wins; observed history says it is catastrophically
  // slower than modeled, flipping the choice.
  auto fast = std::make_shared<ReportingEstimator>(
      "fast-est", CostProfile(1e9, 0, 0, 0), CostProfile());
  auto slow = std::make_shared<ReportingEstimator>(
      "slow-est", CostProfile(1e12, 0, 0, 0), CostProfile());
  OptimizableEstimator logical("solver", {fast, slow});

  DataStats stats;
  stats.num_records = 1000;
  stats.dim = 16;
  const auto& cluster = TestCluster();

  const auto model_choice = ChooseOption(logical, stats, cluster);
  EXPECT_EQ(model_choice.option_index, 0);
  EXPECT_EQ(model_choice.history_corrected, 0);

  obs::ProfileStore history;
  history.RecordObservation("fast-est", stats, CostProfile(1e9, 0, 0, 0),
                            CostProfile(1e14, 0, 0, 0), 0.5);
  const auto corrected = ChooseOption(logical, stats, cluster, &history);
  EXPECT_EQ(corrected.option_index, 1);
  EXPECT_EQ(corrected.history_corrected, 1);
}

/// ReportingEstimator with a declared scratch-memory footprint.
class ScratchEstimator : public ReportingEstimator {
 public:
  ScratchEstimator(std::string name, CostProfile predicted,
                   double scratch_bytes)
      : ReportingEstimator(std::move(name), predicted, CostProfile()),
        scratch_bytes_(scratch_bytes) {}

  double ScratchMemoryBytes(const DataStats& in, int workers) const override {
    (void)in;
    (void)workers;
    return scratch_bytes_;
  }

 private:
  double scratch_bytes_;
};

TEST(OptimizerHistoryTest, InfeasibleFallbackKeepsTheHistoryCorrectedPrice) {
  // Neither option fits in a node's 122 GB, so the smaller footprint wins.
  // The store corrects that option's price, and the choice must carry the
  // price it was scored at (the decision log's chosen_seconds), not the
  // cost model's.
  auto big = std::make_shared<ScratchEstimator>(
      "big-est", CostProfile(1e9, 0, 0, 0), 500e9);
  auto small = std::make_shared<ScratchEstimator>(
      "small-est", CostProfile(1e9, 0, 0, 0), 200e9);
  OptimizableEstimator logical("solver", {big, small});

  DataStats stats;
  stats.num_records = 1000;
  stats.dim = 16;
  const auto& cluster = TestCluster();
  obs::ProfileStore history;
  history.RecordObservation("small-est", stats, CostProfile(1e9, 0, 0, 0),
                            CostProfile(1e14, 0, 0, 0), 0.5);

  const auto choice = ChooseOption(logical, stats, cluster, &history);
  EXPECT_FALSE(choice.feasible);
  ASSERT_EQ(choice.option_index, 1);
  EXPECT_EQ(choice.history_corrected, 1);
  ASSERT_TRUE(choice.scored[1].from_history);
  EXPECT_EQ(choice.estimated_seconds, choice.scored[1].estimated_seconds);
  EXPECT_GT(choice.estimated_seconds,
            cluster.SecondsFor(small->EstimateCost(stats, cluster.num_nodes)));
}

TEST(ProfileStoreTest, OptimizerConsumesStoredProfilesInsteadOfResampling) {
  const auto build = [] {
    auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
    auto fast = std::make_shared<ReportingEstimator>(
        "fast-est", CostProfile(1e9, 0, 0, 0), CostProfile(5e9, 0, 0, 1));
    auto slow = std::make_shared<ReportingEstimator>(
        "slow-est", CostProfile(1e12, 0, 0, 0), CostProfile(1e12, 0, 0, 1));
    auto logical = std::make_shared<OptimizableEstimator>(
        "solver", std::vector<std::shared_ptr<EstimatorBase>>{fast, slow});
    return PipelineInput<double>()
        .AndThen(std::make_shared<Scale>(2.0))
        .AndThenLogicalEstimator<double>(logical, train, nullptr);
  };

  // First run: sample, select, and populate a fresh profile store.
  obs::ProfileStore recorded;
  PipelineReport first;
  {
    PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
    executor.context()->set_profile_store(&recorded);
    executor.Fit(build(), &first);
  }
  EXPECT_FALSE(first.profiles_from_store);
  EXPECT_GT(first.optimize_seconds, 0.0);
  EXPECT_GT(recorded.NumNodeProfiles(), 0u);

  // Persist and reload, as a later process would.
  const std::string path = ::testing::TempDir() + "/exec_profiles.txt";
  ASSERT_TRUE(recorded.Save(path));
  obs::ProfileStore reloaded;
  ASSERT_TRUE(reloaded.Load(path));
  std::remove(path.c_str());

  // Second run: the store stands in for both sampling passes.
  OptimizationConfig config = OptimizationConfig::Full();
  config.reuse_stored_profiles = true;
  PipelineExecutor executor(TestCluster(), config);
  executor.context()->set_profile_store(&reloaded);
  obs::TraceRecorder recorder;
  executor.context()->set_tracer(&recorder);
  PipelineReport second;
  executor.Fit(build(), &second);

  EXPECT_TRUE(second.profiles_from_store);
  // No sampling executions happened: profile-phase spans exist only as
  // synthetic reconstructions from the store (so reports and metrics still
  // cover every node), and every live span is full-scale.
  size_t synthetic_profile_spans = 0;
  for (const auto& span : recorder.Spans()) {
    if (span.phase == obs::TracePhase::kTrain) {
      EXPECT_FALSE(span.synthetic) << "synthetic train span for " << span.name;
    } else {
      EXPECT_TRUE(span.synthetic)
          << "live sampling span for " << span.name;
      ++synthetic_profile_spans;
    }
  }
  // One synthetic span per train node per skipped sampling pass.
  EXPECT_EQ(synthetic_profile_spans, 2 * second.nodes.size());
  // The plan is identical to the sampled run: same physical choice, same
  // cache set, same modeled training time — without the profiling cost.
  ASSERT_EQ(second.nodes.size(), first.nodes.size());
  for (size_t i = 0; i < first.nodes.size(); ++i) {
    EXPECT_EQ(second.nodes[i].name, first.nodes[i].name);
    EXPECT_EQ(second.nodes[i].chosen_physical, first.nodes[i].chosen_physical);
  }
  EXPECT_EQ(second.cache_set, first.cache_set);
  EXPECT_NEAR(second.total_train_seconds, first.total_train_seconds,
              1e-9 * std::max(1.0, first.total_train_seconds));
  EXPECT_DOUBLE_EQ(second.optimize_seconds, 0.0);
}

/// A small Amazon compile's saved ProfileStore, for tests that corrupt its
/// node records: `lines` is the store a cold compile saved, and Compile
/// loads rewritten contents and compiles with reuse_stored_profiles.
class StoredProfiles {
 public:
  StoredProfiles()
      : corpus_(workloads::AmazonLike(64, 8, 10, 200, 7)),
        pipe_(workloads::BuildAmazonPipeline(corpus_, 128, Solver())) {
    obs::ProfileStore cold;
    Compile(&cold);
    EXPECT_TRUE(cold.Save(path_));
    std::ifstream in(path_);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ~StoredProfiles() { std::remove(path_.c_str()); }

  static bool IsNode(const std::string& line) {
    return line.rfind("node ", 0) == 0;
  }

  /// The store without node records: what a store miss compiles against.
  std::string HistoryOnly() const {
    std::string contents;
    for (const std::string& line : lines) {
      if (!IsNode(line)) contents += line + "\n";
    }
    return contents;
  }

  /// Loads `contents` as a store and compiles against it.
  std::shared_ptr<PhysicalPlan> Compile(const std::string& contents) {
    std::ofstream(path_) << contents;
    obs::ProfileStore store;
    EXPECT_TRUE(store.Load(path_));
    return Compile(&store);
  }

  std::vector<std::string> lines;

 private:
  static LinearSolverConfig Solver() {
    LinearSolverConfig solver;
    solver.num_classes = 2;
    return solver;
  }

  std::shared_ptr<PhysicalPlan> Compile(obs::ProfileStore* store) {
    OptimizationConfig config = OptimizationConfig::Full();
    config.reuse_stored_profiles = true;
    PipelineExecutor executor(TestCluster(), config);
    executor.context()->set_profile_store(store);
    return executor.Compile(*pipe_.graph(), pipe_.source(), pipe_.sink());
  }

  // One file per test: ctest runs this suite's tests as concurrent
  // processes, and a shared file let one test read or delete another's.
  const std::string path_ =
      ::testing::TempDir() + "/stored_profiles_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  workloads::TextCorpus corpus_;
  Pipeline<std::string, std::vector<double>> pipe_;
};

TEST(ProfileStoreTest, OutOfRangeStoredChoiceSamplesLive) {
  // A stale or corrupt store can name a physical option the node does not
  // have; replaying it used to index past the option list. It now counts
  // as a store miss: the passes sample live and decide as a cold compile
  // with the same observed history.
  StoredProfiles stored;
  // A node record's last field is its chosen option (-1 = none). Rewrite
  // it to 7 on the records that chose (past the sparse solver's 3
  // options), or on every record (choices for nodes that have none).
  const auto has_choice = [](const std::string& line) {
    return StoredProfiles::IsNode(line) &&
           line.substr(line.rfind(' ') + 1) != "-1";
  };
  ASSERT_TRUE(
      std::any_of(stored.lines.begin(), stored.lines.end(), has_choice));
  const auto rewrite = [&](bool every_record) {
    std::string contents;
    for (const std::string& line : stored.lines) {
      if (has_choice(line) || (every_record && StoredProfiles::IsNode(line))) {
        contents += line.substr(0, line.rfind(' ')) + " 7\n";
      } else {
        contents += line + "\n";
      }
    }
    return contents;
  };
  const auto reference = stored.Compile(stored.HistoryOnly());
  EXPECT_FALSE(reference->profiles_from_store);

  for (bool every_record : {false, true}) {
    const auto warm = stored.Compile(rewrite(every_record));
    EXPECT_FALSE(warm->profiles_from_store) << every_record;
    EXPECT_EQ(warm->ToJson(), reference->ToJson()) << every_record;
  }
}

TEST(ProfileStoreTest, CorruptStoredNumbersSampleLive) {
  // Node records with negative or overflowing numbers load fine but used
  // to abort the next compile's cost validation once replayed (1e308 s
  // over a 64-record sample extrapolates to inf). Such a record is a store
  // miss now: the compile samples live, exactly as with no node records.
  StoredProfiles stored;
  const auto reference = stored.Compile(stored.HistoryOnly());
  // Node record fields: node <key> <seconds> <records> <bytes_per_record>
  // <full_records> <chosen_option>.
  constexpr size_t kSeconds = 2;
  constexpr size_t kBytesPerRecord = 4;
  const std::vector<std::pair<size_t, std::string>> corruptions = {
      {kSeconds, "-1e300"}, {kSeconds, "1e308"}, {kBytesPerRecord, "-1e300"}};
  for (const auto& [field, value] : corruptions) {
    std::string contents;
    for (const std::string& line : stored.lines) {
      if (!StoredProfiles::IsNode(line)) {
        contents += line + "\n";
        continue;
      }
      std::vector<std::string> tokens = SplitString(line, " ");
      ASSERT_EQ(tokens.size(), 7u) << line;
      tokens[field] = value;
      for (const std::string& token : tokens) contents += token + " ";
      contents.back() = '\n';
    }
    const auto warm = stored.Compile(contents);
    EXPECT_FALSE(warm->profiles_from_store) << field << "=" << value;
    EXPECT_EQ(warm->ToJson(), reference->ToJson()) << field << "=" << value;
  }
}

TEST(OptimizerHistoryTest, HistoryCorrectionsCountOnTheContextRegistry) {
  // Two compiles share one store: the second, at a wider hash width, scores
  // options from the first one's observed history. That correction counts
  // on the compiling context's metrics sink, never on the process-wide
  // registry.
  LinearSolverConfig solver;
  solver.num_classes = 2;
  const workloads::TextCorpus corpus = workloads::AmazonLike(64, 8, 10, 200, 7);
  OptimizationConfig config = OptimizationConfig::Full();
  config.reuse_stored_profiles = true;
  obs::ProfileStore store;
  obs::MetricsRegistry metrics;
  const auto compile = [&](size_t hash_width) {
    const auto pipe =
        workloads::BuildAmazonPipeline(corpus, hash_width, solver);
    PipelineExecutor executor(TestCluster(), config);
    executor.context()->set_profile_store(&store);
    executor.context()->set_metrics(&metrics);
    executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  };
  const obs::Counter* global = obs::MetricsRegistry::Global().GetCounter(
      "optimizer.history_corrected");
  const double global_before = global->Value();
  compile(128);
  compile(256);
  EXPECT_GT(metrics.GetCounter("optimizer.history_corrected")->Value(), 0.0);
  EXPECT_EQ(global->Value(), global_before);
}

TEST(JsonEscapingTest, MetricNamesWithSpecialCharactersStayValidJson) {
  // Regression: metric names flow into ToJson verbatim as object keys, so
  // quotes, backslashes, and control characters must be escaped.
  obs::MetricsRegistry registry;
  registry.Increment("weird \"quoted\" name");
  registry.Set("back\\slash\tgauge", 3.5);
  registry.Observe("ctrl\x01name\n", 1.0);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("weird \\\"quoted\\\" name"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash\\tgauge"), std::string::npos);
  EXPECT_NE(json.find("ctrl\\u0001name\\n"), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(JsonEscapingTest, NonFiniteMetricValuesAreSanitized) {
  // NaN/Inf are not valid JSON literals; the exporter must not emit them.
  obs::MetricsRegistry registry;
  registry.Set("bad.gauge", std::numeric_limits<double>::quiet_NaN());
  registry.Set("unbounded.gauge", std::numeric_limits<double>::infinity());
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(JsonEscapingTest, TraceSpanNamesWithSpecialCharactersStayValidJson) {
  obs::TraceRecorder recorder;
  obs::TraceSpan span;
  span.name = "op \\ with \"specials\"\nand\x02" "ctrl";
  span.physical = "impl\t\"x\"";
  span.virtual_seconds = 0.5;
  recorder.Record(span);
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("op \\\\ with \\\"specials\\\"\\nand\\u0002ctrl"),
            std::string::npos);
  EXPECT_EQ(json.find('\x02'), std::string::npos);
}

TEST(JsonEscapingTest, HelperEscapesAndSanitizes) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te\rf\bg\fh"),
            "a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh");
  // Negative chars (high-bit UTF-8 bytes) must pass through unmangled.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
}

TEST(DecisionLogTest, RecordsAndRendersEveryDecisionKind) {
  obs::OptimizerDecisionLog log;
  EXPECT_TRUE(log.Empty());

  obs::SelectionDecision decision;
  decision.node_id = 3;
  decision.node_name = "Solver \"quoted\"";
  decision.fingerprint = "Estimator|Solver|100";
  decision.chosen_option = 1;
  decision.chosen_seconds = 2.0;
  decision.margin = 0.5;
  obs::OptionScore lost;
  lost.option_index = 0;
  lost.name = "slow-impl";
  lost.estimated_seconds = 3.0;
  lost.feasible = true;
  decision.options.push_back(lost);
  obs::OptionScore won = lost;
  won.option_index = 1;
  won.name = "fast-impl";
  won.estimated_seconds = 2.0;
  decision.options.push_back(won);
  log.RecordSelection(decision);

  obs::CseMergeGroup group;
  group.survivor = 2;
  group.fingerprint = "Transformer|NGrams|100";
  group.merged = {7, 9};
  log.RecordCseGroup(group);

  obs::MaterializationStep step;
  step.iteration = 0;
  step.budget_before = 1e9;
  step.chosen = 2;
  obs::MaterializationCandidate candidate;
  candidate.node_id = 2;
  candidate.fits = true;
  candidate.evaluated = true;
  candidate.benefit_seconds = 1.25;
  step.candidates.push_back(candidate);
  log.RecordMaterializationStep(step);

  obs::MaterializationSummary summary;
  summary.policy = "greedy";
  summary.budget_bytes = 1e9;
  summary.initial_runtime = 10.0;
  summary.final_runtime = 4.0;
  summary.cached_nodes = 1;
  log.RecordMaterializationSummary(summary);

  EXPECT_FALSE(log.Empty());
  ASSERT_EQ(log.Selections().size(), 1u);
  EXPECT_EQ(log.Selections()[0].chosen_option, 1);
  ASSERT_EQ(log.CseGroups().size(), 1u);
  EXPECT_EQ(log.CseGroups()[0].merged, (std::vector<int>{7, 9}));
  ASSERT_EQ(log.MaterializationLedger().size(), 1u);
  EXPECT_TRUE(log.Summary().recorded);

  const std::string text = log.ToString();
  EXPECT_NE(text.find("fast-impl"), std::string::npos);
  EXPECT_NE(text.find("survivor 2"), std::string::npos);
  const std::string json = log.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("Solver \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"cse_groups\""), std::string::npos);
  EXPECT_NE(json.find("\"materialization\""), std::string::npos);

  log.Clear();
  EXPECT_TRUE(log.Empty());
}

TEST(DecisionLogTest, CompileAttachesProvenanceToThePlan) {
  auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  auto pipe = PipelineInput<double>()
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<MeanCenterer>(), train);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  ASSERT_NE(plan->decision_log, nullptr);
  // Full() plans the cache greedily, so at minimum the materialization
  // ledger and summary must be present.
  EXPECT_FALSE(plan->decision_log->Empty());
  EXPECT_TRUE(plan->decision_log->Summary().recorded);
  EXPECT_FALSE(plan->decision_log->MaterializationLedger().empty());
  // The plan renderings embed the log.
  EXPECT_NE(plan->ToString().find("Optimizer decision log"),
            std::string::npos);
  EXPECT_NE(plan->ToJson().find("\"decision_log\""), std::string::npos);
}

TEST(ResourceTimelineTest, SplitsCostIntoPerResourceIntervals) {
  obs::ResourceTimeline timeline;
  const auto cluster = TestCluster();
  // One second of CPU work per the cluster descriptor, plus network and a
  // coordination round; zero bytes so no memory interval appears.
  CostProfile cost;
  cost.flops = cluster.gflops_per_node * 1e9;
  cost.network = cluster.network_gb * 1e9;
  cost.rounds = 2;
  timeline.RecordNodeCost("train", 4, "op", cost, cluster);
  timeline.RecordDiskSeconds("train", 0, "src", 0.25);

  const auto intervals = timeline.Intervals();
  ASSERT_EQ(intervals.size(), 4u);  // cpu, network, coordination, disk
  EXPECT_DOUBLE_EQ(timeline.BusySeconds(obs::ResourceKind::kCpu), 1.0);
  EXPECT_DOUBLE_EQ(timeline.BusySeconds(obs::ResourceKind::kNetwork), 1.0);
  EXPECT_DOUBLE_EQ(timeline.BusySeconds(obs::ResourceKind::kCoordination),
                   2 * cluster.round_latency_s);
  EXPECT_DOUBLE_EQ(timeline.BusySeconds(obs::ResourceKind::kDisk), 0.25);
  EXPECT_DOUBLE_EQ(timeline.BusySeconds(obs::ResourceKind::kMemory), 0.0);

  // A second execution on the same phase lands after the first on each
  // per-resource cursor.
  timeline.RecordNodeCost("train", 5, "op2", cost, cluster);
  double cpu_start = -1;
  for (const auto& iv : timeline.Intervals()) {
    if (iv.node_id == 5 && iv.resource == obs::ResourceKind::kCpu) {
      cpu_start = iv.start_seconds;
    }
  }
  EXPECT_DOUBLE_EQ(cpu_start, 1.0);

  timeline.RecordCacheAccess(true);
  timeline.RecordCacheAccess(false);
  timeline.RecordCacheAccess(false);
  EXPECT_EQ(timeline.cache_counters().hits, 1u);
  EXPECT_EQ(timeline.cache_counters().misses, 2u);
  timeline.NoteCacheBudget(100.0);
  timeline.RecordResidentBytes(60.0);
  timeline.RecordResidentBytes(-20.0);
  timeline.RecordResidentBytes(30.0);
  EXPECT_DOUBLE_EQ(timeline.high_water_bytes(), 70.0);
  EXPECT_DOUBLE_EQ(timeline.budget_bytes(), 100.0);

  EXPECT_TRUE(JsonBalanced(timeline.ToJson())) << timeline.ToJson();
  timeline.Clear();
  EXPECT_TRUE(timeline.Intervals().empty());
}

TEST(CalibrationTest, ResidualsAreSymmetricAndFinite) {
  const auto cluster = TestCluster();
  std::vector<obs::TraceSpan> spans;
  obs::TraceSpan span;
  span.node_id = 1;
  span.name = "op";
  span.physical = "impl";
  span.phase = obs::TracePhase::kTrain;
  span.predicted = CostProfile(1e9, 1e6, 0, 1);
  span.observed = CostProfile(2e9, 1e6, 0, 1);
  spans.push_back(span);

  const auto report = obs::BuildCalibrationFromSpans(spans, cluster);
  EXPECT_EQ(report.samples, 1.0);
  EXPECT_TRUE(report.AllFinite());
  ASSERT_EQ(report.per_node.size(), 1u);
  ASSERT_EQ(report.per_op.size(), 1u);
  EXPECT_EQ(report.per_op[0].op, "impl");
  // flops doubled: symmetric residual = (2e9 - 1e9) / 2e9 = +0.5.
  EXPECT_NEAR(report.per_node[0].flops.bias, 0.5, 1e-12);
  // bytes matched exactly: zero residual.
  EXPECT_NEAR(report.per_node[0].bytes.bias, 0.0, 1e-12);
  EXPECT_TRUE(JsonBalanced(report.ToJson())) << report.ToJson();
  EXPECT_NE(report.ToString().find("impl"), std::string::npos);
}

TEST(CalibrationTest, ZeroPredictedCostStaysFinite) {
  // predicted == 0 with observed > 0 is the classic division hazard; the
  // symmetric residual is (o - 0) / max(0, o, eps) = 1, not inf.
  const auto cluster = TestCluster();
  std::vector<obs::TraceSpan> spans;
  obs::TraceSpan span;
  span.node_id = 0;
  span.name = "op";
  span.predicted = CostProfile(0, 0, 0, 0);
  span.observed = CostProfile(1e9, 0, 0, 0);
  spans.push_back(span);
  const auto report = obs::BuildCalibrationFromSpans(spans, cluster);
  EXPECT_TRUE(report.AllFinite());
  ASSERT_EQ(report.per_node.size(), 1u);
  EXPECT_NEAR(report.per_node[0].flops.bias, 1.0, 1e-12);
}

TEST(CalibrationTest, SyntheticAndUnobservedSpansAreIgnored) {
  const auto cluster = TestCluster();
  std::vector<obs::TraceSpan> spans;
  obs::TraceSpan synthetic;
  synthetic.predicted = CostProfile(1e9, 0, 0, 0);
  synthetic.observed = CostProfile(2e9, 0, 0, 0);
  synthetic.synthetic = true;
  spans.push_back(synthetic);
  obs::TraceSpan unobserved;
  unobserved.predicted = CostProfile(1e9, 0, 0, 0);
  spans.push_back(unobserved);
  const auto report = obs::BuildCalibrationFromSpans(spans, cluster);
  EXPECT_EQ(report.samples, 0.0);
  EXPECT_TRUE(report.per_node.empty());
  EXPECT_TRUE(report.AllFinite());
}

TEST(CalibrationTest, StoreHistoryProvidesPerOperatorCalibration) {
  const auto cluster = TestCluster();
  obs::ProfileStore store;
  DataStats stats;
  stats.num_records = 100;
  stats.dim = 8;
  store.RecordObservation("solver", stats, CostProfile(1e9, 1e6, 0, 1),
                          CostProfile(3e9, 1e6, 0, 1), 0.5);
  const auto report = obs::BuildCalibrationFromStore(store, cluster);
  EXPECT_GT(report.samples, 0.0);
  EXPECT_TRUE(report.per_node.empty());  // store history has no node ids
  ASSERT_EQ(report.per_op.size(), 1u);
  EXPECT_EQ(report.per_op[0].op, "solver");
  EXPECT_NEAR(report.per_op[0].flops.bias, 2.0 / 3.0, 1e-12);
  EXPECT_TRUE(report.AllFinite());
}

TEST(CalibrationTest, RecordPublishesGaugesNotCounters) {
  obs::MetricsRegistry metrics;
  obs::CalibrationReport report;
  report.samples = 4;
  report.overall_bias_seconds = -0.25;
  report.mean_abs_residual_seconds = 0.3;
  obs::CalibrationEntry entry;
  entry.op = "impl";
  entry.seconds.bias = -0.25;
  entry.seconds.mean_abs_rel = 0.3;
  report.per_op.push_back(entry);
  // Recording twice must not double anything: these are gauges.
  obs::RecordCalibration(report, &metrics);
  obs::RecordCalibration(report, &metrics);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("calibration.samples")->Value(), 4.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("calibration.bias_seconds")->Value(),
                   -0.25);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("calibration.bias.impl")->Value(), -0.25);
}

TEST(CalibrationTest, EndToEndFitPublishesCalibration) {
  const CostProfile predicted(1e9, 1e6, 0, 1);
  const CostProfile observed(3e9, 2e6, 0, 4);
  auto train = Doubles({1, 2, 3, 4});
  auto pipe = PipelineInput<double>().AndThenLogicalEstimator<double>(
      std::make_shared<ReportingEstimator>("reporting-est", predicted,
                                           observed),
      train, nullptr);
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  executor.context()->set_tracer(&recorder);
  executor.context()->set_metrics(&metrics);
  executor.Fit(pipe);
  EXPECT_GT(metrics.GetGauge("calibration.samples")->Value(), 0.0);
  const auto report =
      obs::BuildCalibrationFromSpans(recorder.Spans(), TestCluster());
  EXPECT_TRUE(report.AllFinite());
  EXPECT_GT(report.samples, 0.0);
}

}  // namespace
}  // namespace keystone
