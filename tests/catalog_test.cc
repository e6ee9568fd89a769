#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/plan_validator.h"
#include "src/cache/artifact_catalog.h"
#include "src/common/thread_pool.h"
#include "src/core/executor.h"
#include "src/core/physical_plan.h"
#include "src/core/pipeline.h"
#include "src/data/dist_dataset.h"
#include "src/linalg/sparse.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "tests/test_operators.h"

namespace keystone {
namespace {

using cache::ArtifactCatalog;
using cache::CatalogConfig;
using testing_ops::AddConst;
using testing_ops::FixedDimMap;
using testing_ops::MeanCenterer;
using testing_ops::Scale;

ClusterResourceDescriptor TestCluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

/// A fresh empty directory under the test temp root.
std::string FreshRoot(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/catalog_" + name;
  std::filesystem::remove_all(root);
  return root;
}

template <typename T>
std::shared_ptr<DistDataset<T>> Parts(std::vector<std::vector<T>> parts) {
  return std::make_shared<DistDataset<T>>(std::move(parts));
}

/// Puts `data` with size metadata derived from its own stats.
bool PutDataset(ArtifactCatalog* catalog, const std::string& key,
                const AnyDataset& data, double recompute_seconds) {
  const DataStats stats = data->ComputeStats();
  return catalog->Put(key, data, stats.TotalBytes(), stats.num_records,
                      recompute_seconds);
}

// ---------------------------------------------------------------------------
// Payload codec: every covered element type round-trips through the disk
// tier byte-exactly, including partition structure and virtual scale.
// ---------------------------------------------------------------------------

TEST(ArtifactCatalogTest, CodecRoundTripsAllElementTypes) {
  const std::string root = FreshRoot("codec");
  auto strings = Parts<std::string>({{"a", "b%", "c d"}, {"with\nnewline"}});
  auto tokens =
      Parts<std::vector<std::string>>({{{"a", "b"}, {}}, {{"x y", "z"}}});
  auto vectors = Parts<std::vector<double>>({{{1.5, -2.0}, {3.0}}, {}});
  vectors->set_virtual_scale(8.0);
  SparseVector sparse;
  sparse.dim = 10;
  sparse.indices = {1, 7};
  sparse.values = {0.5, -2.25};
  auto sparses = Parts<SparseVector>({{sparse}});

  {
    ArtifactCatalog catalog{CatalogConfig{root}};
    ASSERT_TRUE(PutDataset(&catalog, "k/strings", strings, 1.0));
    ASSERT_TRUE(PutDataset(&catalog, "k/tokens", tokens, 1.0));
    ASSERT_TRUE(PutDataset(&catalog, "k/vectors", vectors, 1.0));
    ASSERT_TRUE(PutDataset(&catalog, "k/sparse", sparses, 1.0));
    ASSERT_TRUE(catalog.SaveManifest());
  }

  // A later process: everything must decode from the disk tier alone.
  ArtifactCatalog loaded{CatalogConfig{root}};
  ASSERT_TRUE(loaded.LoadManifest());
  EXPECT_EQ(loaded.NumEntries(), 4u);
  EXPECT_DOUBLE_EQ(loaded.MemoryBytes(), 0.0);

  const auto fetched_strings =
      DistDataset<std::string>::Cast(loaded.Fetch("k/strings"));
  ASSERT_NE(fetched_strings, nullptr);
  EXPECT_EQ(fetched_strings->partitions(), strings->partitions());

  const auto fetched_tokens =
      DistDataset<std::vector<std::string>>::Cast(loaded.Fetch("k/tokens"));
  ASSERT_NE(fetched_tokens, nullptr);
  EXPECT_EQ(fetched_tokens->partitions(), tokens->partitions());

  const auto fetched_vectors =
      DistDataset<std::vector<double>>::Cast(loaded.Fetch("k/vectors"));
  ASSERT_NE(fetched_vectors, nullptr);
  EXPECT_EQ(fetched_vectors->partitions(), vectors->partitions());
  EXPECT_DOUBLE_EQ(fetched_vectors->virtual_scale(), 8.0);
  EXPECT_EQ(fetched_vectors->NumPartitions(), 2u);  // empty part preserved

  const auto fetched_sparse =
      DistDataset<SparseVector>::Cast(loaded.Fetch("k/sparse"));
  ASSERT_NE(fetched_sparse, nullptr);
  ASSERT_EQ(fetched_sparse->NumRecords(), 1u);
  const SparseVector& got = fetched_sparse->partitions()[0][0];
  EXPECT_EQ(got.dim, sparse.dim);
  EXPECT_EQ(got.indices, sparse.indices);
  EXPECT_EQ(got.values, sparse.values);

  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Tiering: LRU-by-benefit eviction demotes to disk when a copy exists and
// drops outright when it doesn't.
// ---------------------------------------------------------------------------

TEST(ArtifactCatalogTest, MemoryOnlyEvictionDropsLowestBenefit) {
  CatalogConfig config;  // no root: nothing can spill
  config.memory_budget_bytes = 100.0;
  ArtifactCatalog catalog{config};
  auto keep = Parts<std::vector<double>>({{{1, 2, 3}}});
  auto victim = Parts<std::vector<double>>({{{4, 5, 6}}});
  ASSERT_TRUE(catalog.Put("keep", keep, 60.0, 1, /*recompute_seconds=*/50.0));
  ASSERT_TRUE(catalog.Put("victim", victim, 60.0, 1,
                          /*recompute_seconds=*/0.001));
  // Over budget: the entry with the least recompute benefit per byte goes,
  // and with no disk tier it is gone entirely.
  EXPECT_EQ(catalog.NumEntries(), 1u);
  EXPECT_TRUE(catalog.Lookup("keep").has_value());
  EXPECT_FALSE(catalog.Lookup("victim").has_value());
  EXPECT_EQ(catalog.Fetch("victim"), nullptr);
  const cache::CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_LE(catalog.MemoryBytes(), 100.0);
}

TEST(ArtifactCatalogTest, DiskBackedEvictionDemotesAndStillFetches) {
  const std::string root = FreshRoot("spill");
  CatalogConfig config;
  config.root = root;
  config.memory_budget_bytes = 100.0;
  ArtifactCatalog catalog{config};
  auto keep = Parts<std::vector<double>>({{{1, 2, 3}}});
  auto victim = Parts<std::vector<double>>({{{4, 5}, {6}}});
  ASSERT_TRUE(catalog.Put("keep", keep, 60.0, 1, 50.0));
  ASSERT_TRUE(catalog.Put("victim", victim, 60.0, 3, 0.001));
  // The victim was written through to disk on Put, so eviction is a
  // demotion: the entry survives and Fetch decodes the spilled payload.
  EXPECT_EQ(catalog.NumEntries(), 2u);
  const auto meta = catalog.Lookup("victim");
  ASSERT_TRUE(meta.has_value());
  EXPECT_FALSE(meta->in_memory);
  EXPECT_TRUE(meta->on_disk);
  const cache::CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  const auto fetched =
      DistDataset<std::vector<double>>::Cast(catalog.Fetch("victim"));
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched->partitions(), victim->partitions());
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Manifest persistence: metadata round trip, atomicity, corruption.
// ---------------------------------------------------------------------------

TEST(ArtifactCatalogTest, ManifestRoundTripPreservesMetadata) {
  const std::string root = FreshRoot("manifest");
  uint64_t generation = 0;
  {
    ArtifactCatalog catalog{CatalogConfig{root}};
    catalog.BeginGeneration();
    generation = catalog.BeginGeneration();
    auto data = Parts<std::vector<double>>({{{1, 2}, {3, 4}}});
    // A key exercising the %-escaping: spaces and a literal '%'.
    ASSERT_TRUE(catalog.Put("NGrams 1-2|100% sample", data, 64.0, 2, 7.5));
    catalog.Touch("NGrams 1-2|100% sample");
    catalog.Touch("NGrams 1-2|100% sample");
    ASSERT_TRUE(catalog.SaveManifest());
  }
  ArtifactCatalog loaded{CatalogConfig{root}};
  ASSERT_TRUE(loaded.LoadManifest());
  EXPECT_EQ(loaded.generation(), generation);
  const auto meta = loaded.Lookup("NGrams 1-2|100% sample");
  ASSERT_TRUE(meta.has_value());
  EXPECT_DOUBLE_EQ(meta->bytes, 64.0);
  EXPECT_EQ(meta->records, 2u);
  EXPECT_DOUBLE_EQ(meta->recompute_seconds, 7.5);
  EXPECT_EQ(meta->generation, generation);
  EXPECT_EQ(meta->access_count, 2u);
  EXPECT_TRUE(meta->on_disk);
  EXPECT_FALSE(meta->in_memory);
  std::filesystem::remove_all(root);
}

TEST(ArtifactCatalogTest, LoadSurvivesKilledSave) {
  // A process killed mid-SaveManifest leaves a stray manifest.tmp next to
  // the last complete manifest. The catalog must load the complete one and
  // ignore the leftover.
  const std::string root = FreshRoot("killed_save");
  {
    ArtifactCatalog catalog{CatalogConfig{root}};
    auto data = Parts<std::vector<double>>({{{1.0}}});
    ASSERT_TRUE(PutDataset(&catalog, "survivor", data, 1.0));
    ASSERT_TRUE(catalog.SaveManifest());
  }
  {
    std::ofstream stray(root + "/manifest.tmp");
    stray << "entry torn-half-writ";  // no trailing newline: torn write
  }
  ArtifactCatalog loaded{CatalogConfig{root}};
  ASSERT_TRUE(loaded.LoadManifest());
  EXPECT_EQ(loaded.NumEntries(), 1u);
  EXPECT_NE(loaded.Fetch("survivor"), nullptr);

  // Killed before the very first save: no manifest at all. Load reports
  // failure without throwing and leaves the catalog empty.
  const std::string fresh = FreshRoot("killed_first_save");
  {
    ArtifactCatalog empty{CatalogConfig{fresh}};
    std::ofstream stray(fresh + "/manifest.tmp");
    stray << "# half a header";
    EXPECT_FALSE(empty.LoadManifest());
    EXPECT_EQ(empty.NumEntries(), 0u);
  }
  std::filesystem::remove_all(root);
  std::filesystem::remove_all(fresh);
}

TEST(ArtifactCatalogTest, LoadSkipsEntriesWithMissingPayloads) {
  // A crash between an object write and the next manifest save can leave a
  // manifest entry whose payload never landed (or was compacted away by a
  // racing process). Such entries are dropped on load, not served.
  const std::string root = FreshRoot("missing_payload");
  {
    ArtifactCatalog catalog{CatalogConfig{root}};
    auto spillable = Parts<std::vector<double>>({{{1, 2}}});
    ASSERT_TRUE(PutDataset(&catalog, "spillable", spillable, 1.0));
    // No codec covers element type double, so this entry is memory-only
    // and persists in the manifest with no object file.
    auto memory_only =
        std::make_shared<DistDataset<double>>(std::vector<std::vector<double>>{
            {1.0, 2.0}});
    ASSERT_TRUE(PutDataset(&catalog, "memory-only", memory_only, 1.0));
    ASSERT_TRUE(catalog.SaveManifest());
  }
  // Delete every spilled object, simulating the lost payload.
  std::filesystem::remove_all(root + "/objects");
  ArtifactCatalog loaded{CatalogConfig{root}};
  ASSERT_TRUE(loaded.LoadManifest());
  EXPECT_EQ(loaded.NumEntries(), 0u);
  std::filesystem::remove_all(root);
}

TEST(ArtifactCatalogTest, LoadRejectsCorruptManifests) {
  const std::string root = FreshRoot("corrupt");
  ArtifactCatalog catalog{CatalogConfig{root}};
  const auto write_and_load = [&](const char* contents) {
    std::ofstream out(root + "/manifest");
    out << contents;
    out.close();
    const bool ok = catalog.LoadManifest();
    if (!ok) {
      EXPECT_EQ(catalog.NumEntries(), 0u);
    }
    return ok;
  };
  // Garbage line.
  EXPECT_FALSE(write_and_load("not a manifest record\n"));
  // Unknown record tag (future format version).
  EXPECT_FALSE(write_and_load("blob key 1 2 3 4 5 6 file\n"));
  // Truncated entry record.
  EXPECT_FALSE(write_and_load("entry key 1 64\n"));
  // Malformed key escape (the trailing-"%" / "%x" shapes that used to
  // throw out of UnescapeToken via std::stoi).
  EXPECT_FALSE(
      write_and_load("entry key% 1 64 2 7.5 0 1 0000000000000000.art\n"));
  EXPECT_FALSE(
      write_and_load("entry key%x 1 64 2 7.5 0 1 0000000000000000.art\n"));
  // An object file other than the one Put writes for the key: trusting it
  // would let Compact() delete a file outside the catalog root.
  const std::string victim = ::testing::TempDir() + "/catalog_victim.txt";
  std::ofstream(victim) << "must survive";
  EXPECT_FALSE(write_and_load(
      "gen 10\nentry somekey 0 8 1 1 0 0 ../../catalog_victim.txt\n"));
  EXPECT_EQ(catalog.Compact(), 0u);
  EXPECT_TRUE(std::filesystem::exists(victim));
  std::filesystem::remove(victim);
  // Comments and an empty body are a valid empty catalog.
  EXPECT_TRUE(write_and_load("# keystone artifact catalog v1\ngen 3\n"));
  EXPECT_EQ(catalog.generation(), 3u);
  std::filesystem::remove_all(root);
}

TEST(ArtifactCatalogTest, CompactRemovesAgedGenerations) {
  const std::string root = FreshRoot("compact");
  CatalogConfig config;
  config.root = root;
  config.keep_generations = 2;
  ArtifactCatalog catalog{config};
  catalog.BeginGeneration();  // generation 1
  auto old_data = Parts<std::vector<double>>({{{1.0}}});
  ASSERT_TRUE(PutDataset(&catalog, "old", old_data, 1.0));
  catalog.BeginGeneration();
  catalog.BeginGeneration();  // generation 3: "old" now lags by 2
  auto fresh_data = Parts<std::vector<double>>({{{2.0}}});
  ASSERT_TRUE(PutDataset(&catalog, "fresh", fresh_data, 1.0));
  EXPECT_EQ(catalog.Compact(), 1u);
  EXPECT_FALSE(catalog.Lookup("old").has_value());
  EXPECT_TRUE(catalog.Lookup("fresh").has_value());
  // The stale entry's spilled payload is deleted with it.
  size_t objects = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/objects")) {
    (void)entry;
    ++objects;
  }
  EXPECT_EQ(objects, 1u);
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// End-to-end cross-run reuse through the executor.
// ---------------------------------------------------------------------------

std::shared_ptr<DistDataset<double>> Doubles(std::vector<double> values,
                                             size_t parts = 2) {
  return DistDataset<double>::Partitioned(std::move(values), parts);
}

/// The plan_runner_test branchy shape: `branches` independent pure
/// featurization chains, each ending in an estimator, zipped together.
Pipeline<double, std::vector<double>> BranchyPipeline(int branches) {
  auto train = Doubles({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  auto base = PipelineInput<double>();
  std::vector<Pipeline<double, double>> chains;
  for (int i = 0; i < branches; ++i) {
    chains.push_back(base.AndThen(std::make_shared<Scale>(i + 1.0))
                         .AndThen(std::make_shared<AddConst>(i * 0.5))
                         .AndThen(std::make_shared<MeanCenterer>(), train));
  }
  return Pipeline<double, double>::Gather(chains);
}

TEST(CrossRunReuseTest, WarmFitReadsWhatColdFitPublished) {
  ArtifactCatalog catalog{CatalogConfig{}};  // memory-only
  auto pipe = BranchyPipeline(4);

  // Cold fit: no reuse possible, but eligible intermediates are published.
  PipelineExecutor cold(TestCluster(), OptimizationConfig::Full());
  obs::MetricsRegistry cold_metrics;
  cold.context()->set_metrics(&cold_metrics);
  cold.context()->set_artifact_catalog(&catalog);
  PipelineReport cold_report;
  auto cold_fit = cold.Fit(pipe, &cold_report);
  EXPECT_GT(catalog.NumEntries(), 0u);
  EXPECT_GT(catalog.Stats().puts, 0u);
  EXPECT_GT(cold_metrics.GetCounter("catalog.puts")->Value(), 0.0);
  for (const PlannedNode& pn : cold_fit.impl().plan().nodes) {
    EXPECT_FALSE(pn.reused) << pn.name;
    EXPECT_FALSE(pn.reuse_pruned) << pn.name;
  }

  // Warm fit in a separate executor, as a later run would be.
  PipelineExecutor warm(TestCluster(), OptimizationConfig::Full());
  obs::MetricsRegistry warm_metrics;
  obs::TraceRecorder warm_tracer;
  warm.context()->set_metrics(&warm_metrics);
  warm.context()->set_tracer(&warm_tracer);
  warm.context()->set_artifact_catalog(&catalog);
  PipelineReport warm_report;
  auto warm_fit = warm.Fit(pipe, &warm_report);

  const PhysicalPlan& plan = warm_fit.impl().plan();
  int reused = 0;
  int pruned = 0;
  for (const PlannedNode& pn : plan.nodes) {
    if (pn.reused) {
      ++reused;
      EXPECT_EQ(plan.decision_log->AcceptedReuse(pn.id).tier, "memory");
    }
    if (pn.reuse_pruned) ++pruned;
  }
  EXPECT_GT(reused, 0);
  EXPECT_GT(pruned, 0);

  // The decision log records every accepted rewrite with its costing.
  const auto decisions = plan.decision_log->ReuseDecisions();
  ASSERT_FALSE(decisions.empty());
  int accepted = 0;
  for (const obs::ReuseDecision& d : decisions) {
    if (d.accepted) {
      ++accepted;
      EXPECT_LT(d.load_seconds, d.recompute_seconds);
      EXPECT_EQ(d.tier, "memory");
    } else {
      EXPECT_FALSE(d.reason.empty());
    }
  }
  EXPECT_EQ(accepted, reused);

  // Reused spans execute as catalog reads.
  bool saw_catalog_span = false;
  for (const auto& span : warm_tracer.Spans()) {
    if (span.physical == "catalog:memory") saw_catalog_span = true;
  }
  EXPECT_TRUE(saw_catalog_span);
  EXPECT_GT(warm_metrics.GetCounter("catalog.hits.memory")->Value(), 0.0);

  // Correctness: the warm model is identical, and the reused fit is
  // cheaper in charged virtual time than recomputing the prefix.
  EXPECT_EQ(warm_fit.ApplyOne(2.0, warm.context()),
            cold_fit.ApplyOne(2.0, cold.context()));
  EXPECT_LT(warm_report.total_train_seconds,
            cold_report.total_train_seconds);

  // The warm plan still passes both halves of the reuse.* rules — and
  // stops passing if the catalog loses the entries it reads.
  EXPECT_TRUE(analysis::ValidateReuseMarkers(plan).ok());
  EXPECT_TRUE(cache::ValidateReuse(plan, catalog).ok());
  catalog.Clear();
  EXPECT_FALSE(cache::ValidateReuse(plan, catalog).ok());
}

/// Element-wise centering estimator over fixed-width vectors, so the
/// pipeline's pure prefix produces a dataset the disk codec covers.
class VecSubtract
    : public Transformer<std::vector<double>, std::vector<double>> {
 public:
  explicit VecSubtract(std::vector<double> mean) : mean_(std::move(mean)) {}
  std::string Name() const override { return "VecSubtract"; }
  std::vector<double> Apply(const std::vector<double>& x) const override {
    std::vector<double> out(x);
    for (size_t i = 0; i < out.size() && i < mean_.size(); ++i) {
      out[i] -= mean_[i];
    }
    return out;
  }

 private:
  std::vector<double> mean_;
};

class VecMeanCenterer
    : public Estimator<std::vector<double>, std::vector<double>> {
 public:
  std::string Name() const override { return "VecMeanCenterer"; }
  Fitted<Transformer<std::vector<double>, std::vector<double>>> Fit(
      const DistDataset<std::vector<double>>& data,
      ExecContext* ctx) const override {
    (void)ctx;
    std::vector<double> mean;
    size_t count = 0;
    for (const auto& part : data.partitions()) {
      for (const auto& rec : part) {
        if (mean.size() < rec.size()) mean.resize(rec.size(), 0.0);
        for (size_t i = 0; i < rec.size(); ++i) mean[i] += rec[i];
        ++count;
      }
    }
    for (double& m : mean) m /= count > 0 ? count : 1;
    return {std::make_shared<VecSubtract>(std::move(mean)), std::nullopt};
  }
};

TEST(CrossRunReuseTest, WarmFitServesFromDiskTier) {
  // A catalog with a disk root and no memory budget: everything the cold
  // fit publishes is immediately demoted, so the warm fit must price and
  // execute its reuse against the disk tier (decode from the object file).
  const std::string root = FreshRoot("disk_reuse");
  CatalogConfig config;
  config.root = root;
  config.memory_budget_bytes = 0.0;
  ArtifactCatalog catalog{config};

  auto train = Parts<std::vector<double>>(
      {{{1, 2, 3, 4}, {5, 6, 7, 8}}, {{2, 4, 6, 8}, {1, 3, 5, 7}}});
  const auto build = [&train] {
    return PipelineInput<std::vector<double>>()
        .AndThen(std::make_shared<FixedDimMap>(4, 4))
        .AndThen(std::make_shared<VecMeanCenterer>(), train);
  };

  PipelineExecutor cold(TestCluster(), OptimizationConfig::Full());
  cold.context()->set_artifact_catalog(&catalog);
  auto cold_fit = cold.Fit(build());
  ASSERT_GT(catalog.NumEntries(), 0u);
  for (const cache::ArtifactMetadata& meta : catalog.Entries()) {
    EXPECT_FALSE(meta.in_memory) << meta.key;
    EXPECT_TRUE(meta.on_disk) << meta.key;
  }

  PipelineExecutor warm(TestCluster(), OptimizationConfig::Full());
  obs::TraceRecorder warm_tracer;
  warm.context()->set_tracer(&warm_tracer);
  warm.context()->set_artifact_catalog(&catalog);
  auto warm_fit = warm.Fit(build());

  int reused = 0;
  const PhysicalPlan& plan = warm_fit.impl().plan();
  for (const PlannedNode& pn : plan.nodes) {
    if (!pn.reused) continue;
    ++reused;
    EXPECT_EQ(plan.decision_log->AcceptedReuse(pn.id).tier, "disk");
  }
  EXPECT_GT(reused, 0);
  bool saw_disk_span = false;
  for (const auto& span : warm_tracer.Spans()) {
    if (span.physical == "catalog:disk") saw_disk_span = true;
  }
  EXPECT_TRUE(saw_disk_span);
  const std::vector<double> probe = {4, 3, 2, 1};
  EXPECT_EQ(warm_fit.ApplyOne(probe, warm.context()),
            cold_fit.ApplyOne(probe, cold.context()));
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Determinism: catalog-backed execution keeps the serial / branch-parallel
// byte-identity contract (all mutations happen in the id-ordered flush).
// ---------------------------------------------------------------------------

struct WarmObservation {
  std::vector<double> output;
  double warm_ledger_seconds = 0.0;
  std::string report_text;
  std::vector<std::string> span_names;
  std::vector<std::string> span_physical;
  std::string timeline_json;
};

WarmObservation FitColdThenWarm(const OptimizationConfig& config,
                                size_t threads) {
  ArtifactCatalog catalog{CatalogConfig{}};
  ThreadPool pool(threads);
  auto pipe = BranchyPipeline(6);
  {
    PipelineExecutor cold(TestCluster(), config);
    cold.context()->set_pool(&pool);
    cold.context()->set_artifact_catalog(&catalog);
    cold.Fit(pipe);
  }
  PipelineExecutor warm(TestCluster(), config);
  warm.context()->set_pool(&pool);
  obs::TraceRecorder recorder;
  obs::ResourceTimeline timeline;
  warm.context()->set_tracer(&recorder);
  warm.context()->set_timeline(&timeline);
  warm.context()->set_artifact_catalog(&catalog);
  PipelineReport report;
  auto fitted = warm.Fit(pipe, &report);
  WarmObservation obs;
  obs.output = fitted.ApplyOne(2.0, warm.context());
  obs.warm_ledger_seconds = warm.context()->ledger()->TotalSeconds();
  obs.report_text = report.ToString();
  for (const auto& span : recorder.Spans()) {
    obs.span_names.push_back(span.name);
    obs.span_physical.push_back(span.physical);
  }
  obs.timeline_json = timeline.ToJson();
  return obs;
}

TEST(CrossRunReuseTest, SerialAndParallelWarmFitsAreByteIdentical) {
  const WarmObservation off = FitColdThenWarm(OptimizationConfig::Full(), 1);
  const WarmObservation on = FitColdThenWarm(OptimizationConfig::Full(), 4);
  // The warm fit read and republished catalog entries; every observable —
  // model output, charged virtual time, report, span stream, timeline —
  // must still match strictly serial execution exactly.
  EXPECT_EQ(off.output, on.output);
  EXPECT_EQ(off.warm_ledger_seconds, on.warm_ledger_seconds);
  EXPECT_EQ(off.report_text, on.report_text);
  EXPECT_EQ(off.span_names, on.span_names);
  EXPECT_EQ(off.span_physical, on.span_physical);
  EXPECT_EQ(off.timeline_json, on.timeline_json);
  // Sanity: this really was a reuse run, not two cold fits agreeing.
  bool reused = false;
  for (const std::string& physical : on.span_physical) {
    if (physical == "catalog:memory") reused = true;
  }
  EXPECT_TRUE(reused);
}

}  // namespace
}  // namespace keystone
