#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/common/thread_pool.h"
#include "src/core/executor.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/data/dist_dataset.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"
#include "tests/test_operators.h"
#include "tools/shipped_workloads.h"

namespace keystone {
namespace {

using testing_ops::AddConst;
using testing_ops::MeanCenterer;
using testing_ops::Scale;

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

// ---------------------------------------------------------------------------
// Chunk interface: head slices, edge cases, reassembly.
// ---------------------------------------------------------------------------

TEST(ChunkTest, ApplySliceSlicesPartitions) {
  auto data = Doubles({1, 2, 3, 4, 5, 6, 7}, 2);  // parts of 4 and 3
  EXPECT_EQ(data->PartitionSize(0), 4u);
  EXPECT_EQ(data->PartitionSize(1), 3u);
  const Scale identity(1.0);
  ExecContext ctx(TestCluster());
  const AnyChunk chunk = identity.ApplySlice(*data, 0, 1, 2, &ctx);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->size(), 2u);
  const auto typed = Chunk<double>::Cast(chunk);
  EXPECT_EQ(typed->records(), (std::vector<double>{2, 3}));
  // A slice may end at its partition's last record.
  EXPECT_EQ(Chunk<double>::Cast(identity.ApplySlice(*data, 1, 2, 1, &ctx))
                ->records(),
            (std::vector<double>{7}));
}

TEST(ChunkDeathTest, ApplySliceChecksBoundsAndType) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto data = Doubles({1, 2, 3, 4, 5, 6, 7}, 2);
  const Scale identity(1.0);
  ExecContext ctx(TestCluster());
  EXPECT_DEATH(identity.ApplySlice(*data, 1, 2, 2, &ctx), "begin \\+ count");
  EXPECT_DEATH(identity.ApplySlice(*data, 2, 0, 0, &ctx), "NumPartitions");
  const auto strings = DistDataset<std::string>::Partitioned({"a"}, 1);
  EXPECT_DEATH(identity.ApplySlice(*strings, 0, 0, 1, &ctx),
               "element type mismatch");
}

TEST(ChunkTest, EmptyChunkIsTyped) {
  // Partition 0 is empty.
  auto data = std::make_shared<DistDataset<double>>(
      std::vector<std::vector<double>>{{}, {1, 2}});
  const Scale identity(1.0);
  ExecContext ctx(TestCluster());
  const AnyChunk empty = identity.ApplySlice(*data, 0, 0, 0, &ctx);
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(empty->ElementType(), data->ElementType());
  // The empty chunk still mints a working collector (the type witness for
  // fully empty partitions).
  auto collector = empty->MakeCollector();
  collector->Resize(2);
  collector->Append(1, empty);
  const AnyDataset out = collector->Finish();
  EXPECT_EQ(out->NumRecords(), 0u);
  EXPECT_EQ(out->NumPartitions(), 2u);
  EXPECT_EQ(out->ElementType(), data->ElementType());
}

TEST(ChunkTest, CollectorReassemblesNonDivisibleChunks) {
  auto data = Doubles({1, 2, 3, 4, 5, 6, 7}, 2);
  const Scale identity(1.0);
  ExecContext ctx(TestCluster());
  auto collector = identity.ApplySlice(*data, 0, 0, 0, &ctx)->MakeCollector();
  collector->Resize(data->NumPartitions());
  // Stream batch-size-3 chunks: partition 0 splits 3+1, partition 1 as 3.
  for (size_t p = 0; p < data->NumPartitions(); ++p) {
    const size_t psize = data->PartitionSize(p);
    for (size_t begin = 0; begin < psize; begin += 3) {
      collector->Append(
          p, identity.ApplySlice(*data, p, begin,
                                 std::min<size_t>(3, psize - begin), &ctx));
    }
  }
  const auto out = DistDataset<double>::Cast(collector->Finish());
  EXPECT_EQ(out->partitions(), data->partitions());
}

TEST(ChunkTest, ApplyChunkMatchesApply) {
  Scale times3(3.0);
  ASSERT_TRUE(times3.SupportsChunkedApply());
  auto data = Doubles({1, 2, 3}, 1);
  ExecContext ctx(TestCluster());
  // The head entry reads the partition in place ...
  const AnyChunk out = times3.ApplySlice(*data, 0, 0, 3, &ctx);
  EXPECT_EQ(Chunk<double>::Cast(out)->records(),
            (std::vector<double>{3, 6, 9}));
  // ... and a later member consumes its predecessor's chunk.
  EXPECT_EQ(Chunk<double>::Cast(times3.ApplyChunk(out, &ctx))->records(),
            (std::vector<double>{9, 18, 27}));
  // Stats triples come straight from the element traits.
  const ElementStat stat = out->StatOf(1);
  EXPECT_EQ(stat.bytes, sizeof(double));
  EXPECT_EQ(stat.dim, 1u);
}

TEST(ChunkTest, GatherDoesNotSupportChunkedApply) {
  GatherTransformer<double> gather;
  EXPECT_FALSE(gather.SupportsChunkedApply());
}

// ---------------------------------------------------------------------------
// ExecOptions plumbing.
// ---------------------------------------------------------------------------

TEST(ExecOptionsTest, RequestContextInheritsExecOptions) {
  ExecContext ctx(TestCluster());
  EXPECT_EQ(ctx.exec_options().max_batch_size, 1024u);
  ExecOptions opts;
  opts.max_batch_size = 7;
  ctx.set_exec_options(opts);
  const auto request = ctx.MakeRequestContext();
  EXPECT_EQ(request->exec_options().max_batch_size, 7u);
}

// ---------------------------------------------------------------------------
// FusionPass: regions, decisions, config gate.
// ---------------------------------------------------------------------------

/// source -> Scale -> AddConst -> Scale -> centerer-model chain: one long
/// pure train chain plus its runtime mirror behind the placeholder.
Pipeline<double, double> ChainPipeline() {
  auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  return PipelineInput<double>()
      .AndThen(std::make_shared<Scale>(2.0))
      .AndThen(std::make_shared<AddConst>(1.0))
      .AndThen(std::make_shared<Scale>(0.5))
      .AndThen(std::make_shared<MeanCenterer>(), train);
}

TEST(FusionPassTest, BuildsRegionsAndLogsDecisions) {
  auto pipe = ChainPipeline();
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  ASSERT_NE(plan, nullptr);
  ASSERT_FALSE(plan->fused_regions.empty());
  for (const FusedRegion& region : plan->fused_regions) {
    EXPECT_GE(region.nodes.size(), 2u);
    EXPECT_FALSE(region.fingerprint.empty());
    EXPECT_GT(region.est_saved_bytes, 0.0);
    for (int id : region.nodes) {
      EXPECT_EQ(plan->nodes[id].fused_region, region.id);
    }
  }
  // Every accepted decision maps to a region; every region to a decision.
  const auto decisions = plan->decision_log->FusionDecisions();
  ASSERT_FALSE(decisions.empty());
  int accepted = 0;
  for (const obs::FusionDecision& d : decisions) {
    EXPECT_GE(d.candidate_index, 0);
    if (d.accepted) {
      ++accepted;
      ASSERT_GE(d.region_id, 0);
      EXPECT_EQ(plan->fused_regions[d.region_id].nodes, d.nodes);
    } else {
      EXPECT_FALSE(d.reason.empty());
    }
  }
  EXPECT_EQ(accepted, static_cast<int>(plan->fused_regions.size()));
  // Renderings surface the regions in both views.
  EXPECT_NE(plan->ToString().find("fused regions:"), std::string::npos);
  EXPECT_NE(plan->ToJson().find("\"fused_regions\""), std::string::npos);
}

TEST(FusionPassTest, DisabledConfigPlansNoRegions) {
  auto pipe = ChainPipeline();
  OptimizationConfig config = OptimizationConfig::Full();
  config.operator_fusion = false;
  PipelineExecutor executor(TestCluster(), config);
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  EXPECT_TRUE(plan->fused_regions.empty());
  for (const PlannedNode& pn : plan->nodes) {
    EXPECT_EQ(pn.fused_region, -1);
  }
  // Fusibility candidates are still recorded (static analysis), but the
  // gated pass judges none of them.
  EXPECT_FALSE(plan->decision_log->FusionCandidates().empty());
  EXPECT_TRUE(plan->decision_log->FusionDecisions().empty());
}

// ---------------------------------------------------------------------------
// ValidateFusedRegions: the fusion.* rules.
// ---------------------------------------------------------------------------

TEST(FusionValidationTest, WellFormedPlanPasses) {
  auto pipe = ChainPipeline();
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
  EXPECT_TRUE(analysis::ValidateFusedRegions(*plan, flow).ok());
}

TEST(FusionValidationTest, CatchesCorruptedRegions) {
  auto pipe = ChainPipeline();
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto plan = executor.Compile(*pipe.graph(), pipe.source(), pipe.sink());
  ASSERT_FALSE(plan->fused_regions.empty());
  const analysis::DataflowResult flow = analysis::InferDataflow(*plan);

  {
    PhysicalPlan corrupt = *plan;
    corrupt.fused_regions[0].nodes.resize(1);  // singleton region
    const auto report = analysis::ValidateFusedRegions(corrupt, flow);
    EXPECT_TRUE(report.HasRule(analysis::rules::kFusionStructure));
  }
  {
    PhysicalPlan corrupt = *plan;
    FusedRegion& region = corrupt.fused_regions[0];
    region.runtime = !region.runtime;  // disagree with the members' mask
    const auto report = analysis::ValidateFusedRegions(corrupt, flow);
    EXPECT_TRUE(report.HasRule(analysis::rules::kFusionMask));
  }
  {
    PhysicalPlan corrupt = *plan;
    const int interior = corrupt.fused_regions[0].nodes.front();
    corrupt.cache_set[interior] = true;  // cached interior member
    const auto report = analysis::ValidateFusedRegions(corrupt, flow);
    EXPECT_TRUE(report.HasRule(analysis::rules::kFusionCachedInterior));
  }
}

// ---------------------------------------------------------------------------
// Fused chunked execution == unfused whole-dataset execution, byte for byte.
// The unfused run compiles with operator_fusion off: a plan without fused
// regions executes node by node.
// ---------------------------------------------------------------------------

OptimizationConfig Unfused(OptimizationConfig config) {
  config.operator_fusion = false;
  return config;
}

struct RunObservation {
  std::vector<double> one_output;
  std::vector<double> batch_output;
  double fit_ledger_seconds = 0.0;
  double apply_ledger_seconds = 0.0;
  std::string report_text;
  std::vector<std::string> span_names;
  std::string timeline_json;
  double fused_regions_metric = 0.0;
};

RunObservation RunChain(const OptimizationConfig& config,
                        const ExecOptions& opts, size_t threads = 4) {
  auto pipe = ChainPipeline();
  ThreadPool pool(threads);
  PipelineExecutor executor(TestCluster(), config);
  executor.context()->set_pool(&pool);
  obs::TraceRecorder recorder;
  obs::ResourceTimeline timeline;
  obs::MetricsRegistry metrics;
  executor.context()->set_tracer(&recorder);
  executor.context()->set_timeline(&timeline);
  executor.context()->set_metrics(&metrics);
  executor.context()->set_exec_options(opts);
  PipelineReport report;
  auto fitted = executor.Fit(pipe, &report);
  RunObservation obs;
  obs.fit_ledger_seconds = executor.context()->ledger()->TotalSeconds();
  obs.one_output = {fitted.ApplyOne(2.0, executor.context())};
  obs.batch_output =
      fitted.Apply(Doubles({-3, 0.25, 11, 4, 5}, 3), executor.context())
          ->Collect();
  obs.apply_ledger_seconds =
      executor.context()->ledger()->TotalSeconds() - obs.fit_ledger_seconds;
  obs.report_text = report.ToString();
  for (const auto& span : recorder.Spans()) obs.span_names.push_back(span.name);
  obs.timeline_json = timeline.ToJson();
  obs.fused_regions_metric = metrics.GetCounter("exec.fused.regions")->Value();
  return obs;
}

void ExpectIdentical(const RunObservation& a, const RunObservation& b) {
  EXPECT_EQ(a.one_output, b.one_output);
  EXPECT_EQ(a.batch_output, b.batch_output);
  EXPECT_EQ(a.fit_ledger_seconds, b.fit_ledger_seconds);
  EXPECT_EQ(a.apply_ledger_seconds, b.apply_ledger_seconds);
  EXPECT_EQ(a.report_text, b.report_text);
  EXPECT_EQ(a.span_names, b.span_names);
  EXPECT_EQ(a.timeline_json, b.timeline_json);
}

TEST(FusedExecutionTest, ChunkedMatchesWholeDataset) {
  const RunObservation unfused =
      RunChain(Unfused(OptimizationConfig::Full()), ExecOptions());
  EXPECT_EQ(unfused.fused_regions_metric, 0.0);
  for (size_t batch : {size_t{1}, size_t{3}, size_t{1u << 20}}) {
    ExecOptions chunked;
    chunked.max_batch_size = batch;  // non-divisible, tiny, > dataset
    const RunObservation fused = RunChain(OptimizationConfig::Full(), chunked);
    EXPECT_GT(fused.fused_regions_metric, 0.0) << "batch " << batch;
    ExpectIdentical(unfused, fused);
  }
}

TEST(FusedExecutionTest, ChunkedMatchesWholeDatasetSerially) {
  // On a one-thread pool every node and partition runs on the calling
  // thread.
  const OptimizationConfig full = OptimizationConfig::Full();
  ExecOptions chunked;
  chunked.max_batch_size = 3;
  ExpectIdentical(RunChain(Unfused(full), chunked, 1),
                  RunChain(full, chunked, 1));
  // ... and the serial fused run matches the four-thread fused run.
  ExpectIdentical(RunChain(full, chunked, 1), RunChain(full, chunked, 4));
}

TEST(FusedExecutionTest, EmptyDatasetStreamsToEmptyOutput) {
  auto pipe = ChainPipeline();
  PipelineExecutor executor(TestCluster(), OptimizationConfig::Full());
  auto fitted = executor.Fit(pipe);
  auto empty = std::make_shared<DistDataset<double>>(
      std::vector<std::vector<double>>{{}, {}});
  const auto out = fitted.Apply(empty, executor.context());
  EXPECT_EQ(out->NumRecords(), 0u);
  EXPECT_EQ(out->NumPartitions(), 2u);
}

/// A record that counts how often it is copied (moves are free).
struct CountedRecord {
  static inline std::atomic<int> copies{0};

  explicit CountedRecord(double v) : value(v) {}
  CountedRecord(const CountedRecord& other) : value(other.value) { ++copies; }
  CountedRecord(CountedRecord&&) = default;
  CountedRecord& operator=(const CountedRecord& other) {
    value = other.value;
    ++copies;
    return *this;
  }
  CountedRecord& operator=(CountedRecord&&) = default;

  double value;
};

double ElementBytes(const CountedRecord&) { return sizeof(double); }
size_t ElementDim(const CountedRecord&) { return 1; }
double ElementNnz(const CountedRecord& r) { return r.value != 0.0; }
ValueShape ShapeOfElement(const CountedRecord&) { return ValueShape::Scalar(); }

class ReadValue : public Transformer<CountedRecord, double> {
 public:
  std::string Name() const override { return "ReadValue"; }
  double Apply(const CountedRecord& r) const override { return r.value; }
};

std::shared_ptr<DistDataset<CountedRecord>> CountedRecords(size_t n) {
  std::vector<CountedRecord> records;
  for (size_t i = 0; i < n; ++i) records.emplace_back(1.0 + i);
  return DistDataset<CountedRecord>::Partitioned(std::move(records), 4);
}

TEST(FusedExecutionTest, RegionHeadsReadTheirInputInPlace) {
  // ReadValue heads a fused region on the train path and on the runtime
  // path. A head reads its input partition's records where they are, so
  // neither the fit nor the apply copies one; the sampling passes read the
  // 8 training records in place too, since a sample covering its source is
  // the source.
  auto pipe = PipelineInput<CountedRecord>()
                  .AndThen(std::make_shared<ReadValue>())
                  .AndThen(std::make_shared<Scale>(2.0))
                  .AndThen(std::make_shared<AddConst>(1.0))
                  .AndThen(std::make_shared<MeanCenterer>(),
                           CountedRecords(8));
  const auto test = CountedRecords(6);
  std::vector<double> outputs[2];
  for (int fused = 0; fused < 2; ++fused) {
    SCOPED_TRACE(fused ? "fused" : "unfused");
    ExecOptions opts;
    opts.max_batch_size = 1;  // one chunk per record
    PipelineExecutor executor(TestCluster(),
                              fused ? OptimizationConfig::Full()
                                    : Unfused(OptimizationConfig::Full()));
    executor.context()->set_exec_options(opts);
    CountedRecord::copies = 0;
    auto fitted = executor.Fit(pipe);
    EXPECT_EQ(CountedRecord::copies.load(), 0) << "fit";

    const PhysicalPlan& plan = fitted.impl().plan();
    int heads_on_records = 0;
    for (const FusedRegion& region : plan.fused_regions) {
      const PlannedNode& head = plan.nodes[region.nodes.front()];
      heads_on_records += head.name == "ReadValue";
    }
    EXPECT_EQ(heads_on_records, fused ? 2 : 0);

    CountedRecord::copies = 0;
    outputs[fused] = fitted.Apply(test, executor.context())->Collect();
    EXPECT_EQ(CountedRecord::copies.load(), 0) << "apply";
  }
  // 2x + 1 centered on the training mean 2 * 4.5 + 1.
  EXPECT_EQ(outputs[1], (std::vector<double>{-7, -5, -3, -1, 1, 3}));
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(FusedExecutionTest, ShippedWorkloadsByteIdentical) {
  for (const tools::ShippedWorkload& target : tools::ShippedWorkloads()) {
    std::string reports[2];
    std::string timelines[2];
    std::vector<std::string> spans[2];
    double ledgers[2] = {0, 0};
    for (int fused = 0; fused < 2; ++fused) {
      obs::TraceRecorder recorder;
      obs::ResourceTimeline timeline;
      PipelineExecutor executor(TestCluster(),
                                fused ? OptimizationConfig::Full()
                                      : Unfused(OptimizationConfig::Full()));
      executor.context()->set_tracer(&recorder);
      executor.context()->set_timeline(&timeline);
      ExecOptions opts;
      opts.max_batch_size = 5;  // non-divisible on the 32-record corpora
      executor.context()->set_exec_options(opts);
      PipelineReport report;
      executor.FitGraph(*target.graph, target.placeholder, target.sink,
                        &report);
      reports[fused] = report.ToString();
      timelines[fused] = timeline.ToJson();
      for (const auto& span : recorder.Spans()) {
        spans[fused].push_back(span.name);
      }
      ledgers[fused] = executor.context()->ledger()->TotalSeconds();
    }
    EXPECT_EQ(reports[0], reports[1]) << target.name;
    EXPECT_EQ(timelines[0], timelines[1]) << target.name;
    EXPECT_EQ(spans[0], spans[1]) << target.name;
    EXPECT_EQ(ledgers[0], ledgers[1]) << target.name;
  }
}

}  // namespace
}  // namespace keystone
