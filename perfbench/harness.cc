// Wall-clock benchmark harness: builds one workload from a seed, runs it for a
// fixed time with every observability sink detached (--trace 0) or with
// fresh sinks and the harness's own layer spans (--trace 1), checks the
// outputs, and prints one JSON result line last. See perfbench/README.md for
// the workloads, the metrics and the layer each metric belongs to.
//
// Usage: perfbench_harness --workload <name> --seed <n> --seconds <s>
//                         --trace <0|1> [--trace-dir <dir>]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench_math.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/plan_validator.h"
#include "src/analysis/shape_inference.h"
#include "src/cache/artifact_catalog.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/executor.h"
#include "src/core/plan_runner.h"
#include "src/linalg/gemm.h"
#include "src/linalg/matrix.h"
#include "src/linalg/qr.h"
#include "src/linalg/vector_ops.h"
#include "src/obs/metrics.h"
#include "src/obs/profile_store.h"
#include "src/obs/resource_timeline.h"
#include "src/obs/trace.h"
#include "src/ops/features.h"
#include "src/optimizer/pass_manager.h"
#include "src/serve/load_generator.h"
#include "src/serve/pipeline_server.h"
#include "src/serve/request.h"
#include "src/serve/servable_pipeline.h"
#include "src/sim/resources.h"
#include "src/solvers/linear_model.h"
#include "src/solvers/solvers.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace keystone {
namespace {

using perfbench::Median;
using perfbench::Span;
using Scores = std::vector<double>;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Sizes are chosen so one fit is a second or two
// on a 4-core host and each timed run holds several repetitions.
// ---------------------------------------------------------------------------

// Set-ups per run (setup_s is their median): at least kMinSetupReps, and
// more while they total under kMinSetupSeconds.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 1.0;
// Batch applies are repeated within a repetition for at least this long.
constexpr double kMinApplySeconds = 0.2;
constexpr size_t kMaxPoolThreads = 4;  // cap of the workload's own pool

// Serving: 4 slots, micro-batches of up to 16, 4 s SLO, open-loop Poisson
// arrivals at a nominal 8 requests per second per tenant (virtual time),
// half the two-tenant knee, so a long stream sheds nothing.
constexpr int kServeSlots = 4;
constexpr size_t kServeMaxBatch = 16;
constexpr double kServeSloSeconds = 4.0;
constexpr double kNominalRate = 8.0;
constexpr int kServeDrains = 4;  // nominal-rate drains per repetition
// The server's kernel pool. With one thread ThreadPool::ParallelFor runs
// inline, so each micro-batch (2 to 3 records at the nominal rate) executes
// on the serving loop without cross-thread hand-offs. Measured on a 4-vCPU
// VM: as fast as 4 threads on tuning_warm, about 20% slower on
// imagenet_fit, and far less sensitive to CPU steal on a shared host.
constexpr size_t kServeThreads = 1;
// Fixed per-tenant rate ladder for the knee; each rung serves this many
// requests per tenant.
constexpr double kKneeLadder[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
constexpr size_t kKneeRequests = 1200;

constexpr size_t kAmazonWidth = 1000;  // hash-feature width (solver d)

ClusterResourceDescriptor Cluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

size_t PoolThreads() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(hw, kMaxPoolThreads);
}

// ---------------------------------------------------------------------------
// Harness spans: recorded around calls into each layer, kept in memory and
// written out when the run ends (traced runs only).
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  SpanLog(std::string workload, bool enabled)
      : workload_(std::move(workload)), enabled_(enabled) {}

  double Now() const { return clock_.ElapsedSeconds(); }

  int Begin(const std::string& name, const std::string& layer) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.layer = layer;
    span.start = Now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.workload = workload_;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[index].end = Now();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  /// A duration-only child of the innermost open span (a node span the
  /// program recorded inside the call that span encloses).
  void AddNodeSpan(const std::string& name, const std::string& layer,
                   double seconds) {
    if (!enabled_) return;
    Span span;
    span.name = name;
    span.layer = layer;
    span.timed = false;
    span.duration = seconds;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.workload = workload_;
    spans_.push_back(std::move(span));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string workload_;
  bool enabled_;
  Timer clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, const std::string& layer)
      : log_(log), index_(log->Begin(name, layer)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// The layer (src/ module) a program node span belongs to.
std::string LayerOf(const obs::TraceSpan& span) {
  if (span.physical.rfind("catalog:", 0) == 0) return "cache";
  // A serving batch span covers the runtime-path apply of one micro-batch.
  if (span.kind == "batch" || span.kind == "Source" || span.kind == "Gather") {
    return "core";
  }
  const std::string& op = span.physical.empty() ? span.name : span.physical;
  if (op.find("Solver") != std::string::npos ||
      op.find("LinearMap") != std::string::npos) {
    return "solvers";
  }
  return "ops";
}

// ---------------------------------------------------------------------------
// Observability sinks: detached for timed runs, fresh per repetition for
// traced runs (the process-wide defaults would grow across repetitions).
// ---------------------------------------------------------------------------

struct Sinks {
  std::unique_ptr<obs::TraceRecorder> tracer;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::ProfileStore> store;
  std::unique_ptr<obs::ResourceTimeline> timeline;

  static Sinks Make(bool traced) {
    Sinks s;
    if (traced) {
      s.tracer = std::make_unique<obs::TraceRecorder>();
      s.metrics = std::make_unique<obs::MetricsRegistry>();
      s.store = std::make_unique<obs::ProfileStore>();
      s.timeline = std::make_unique<obs::ResourceTimeline>();
    }
    return s;
  }

  void Attach(ExecContext* ctx) const {
    ctx->set_tracer(tracer.get());
    ctx->set_metrics(metrics.get());
    ctx->set_profile_store(store.get());
    ctx->set_timeline(timeline.get());
  }

  size_t NumSpans() const { return tracer ? tracer->NumSpans() : 0; }

  /// Program spans recorded since `from`.
  std::vector<obs::TraceSpan> SpansSince(size_t from) const {
    if (!tracer) return {};
    std::vector<obs::TraceSpan> all = tracer->Spans();
    if (from >= all.size()) return {};
    return std::vector<obs::TraceSpan>(all.begin() + from, all.end());
  }
};

// ---------------------------------------------------------------------------
// Models: a pipeline graph plus its test split and serving codec.
// ---------------------------------------------------------------------------

struct Model {
  std::string name;
  std::shared_ptr<PipelineGraph> graph;
  int source = -1;
  int sink = -1;
  AnyDataset test;
  std::vector<int> test_labels;
  std::shared_ptr<serve::RequestCodec> codec;  // payloads = the test split
};

template <typename A>
Model MakeModel(std::string name, const Pipeline<A, Scores>& pipe,
                const std::shared_ptr<DistDataset<A>>& test,
                std::vector<int> labels) {
  Model m;
  m.name = std::move(name);
  m.graph = pipe.graph();
  m.source = pipe.source();
  m.sink = pipe.sink();
  m.test = test;
  m.test_labels = std::move(labels);
  m.codec = std::make_shared<serve::TypedRequestCodec<A, Scores>>(
      test->Collect());
  return m;
}

/// FNV-1a over the raw double bits of every output record.
uint64_t DigestScores(const std::shared_ptr<const DistDataset<Scores>>& out) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& part : out->partitions()) {
    for (const auto& rec : part) {
      for (double d : rec) {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
          h ^= (bits >> (8 * i)) & 0xff;
          h *= 1099511628211ull;
        }
      }
    }
  }
  return h ^ out->NumRecords();
}

uint64_t DigestText(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Per-run measurements.
// ---------------------------------------------------------------------------

struct Samples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& key, double v) { values[key].push_back(v); }
  double Med(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? 0.0 : Median(it->second);
  }
  double Sum(const std::string& key) const {
    auto it = values.find(key);
    double s = 0.0;
    if (it != values.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  }
};

struct Run {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;

  ThreadPool* pool = nullptr;
  SpanLog* log = nullptr;
  Samples s;                          // end-to-end samples
  Samples layer;                      // per-layer samples (traced runs)
  std::vector<std::pair<std::string, bool>> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t obs_spans = 0;

  void Check(const std::string& what, bool ok) {
    checks.push_back({what, ok});
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Fitting: the plain PipelineExecutor::Fit (timed runs), or the same
// compile + train sequence driven stage by stage so each layer gets its own
// span (traced runs).
// ---------------------------------------------------------------------------

struct FitResult {
  std::shared_ptr<FittedPipelineUntyped> fitted;
  double wall = 0.0;
  double virtual_seconds = 0.0;  // optimize + load + featurize + solve
  PipelineReport report;         // plain fits only
};

void ConfigureContext(ExecContext* ctx, ThreadPool* pool, const Sinks& sinks,
                      cache::ArtifactCatalog* catalog) {
  ctx->set_pool(pool);
  sinks.Attach(ctx);
  ctx->set_artifact_catalog(catalog);
}

/// PipelineExecutor::Fit with every observability sink detached.
FitResult PlainFit(const Model& m, Run* run, cache::ArtifactCatalog* catalog) {
  PipelineExecutor executor(Cluster(), OptimizationConfig::Full());
  ConfigureContext(executor.context(), run->pool, Sinks::Make(false), catalog);
  FitResult r;
  Timer timer;
  r.fitted = executor.FitGraph(*m.graph, m.source, m.sink, &r.report);
  r.wall = timer.ElapsedSeconds();
  r.virtual_seconds = r.report.optimize_seconds + r.report.load_seconds +
                      r.report.featurize_seconds + r.report.solve_seconds;
  return r;
}

/// Attaches the program's node spans recorded since `from` under the
/// innermost open harness span, and returns them.
std::vector<obs::TraceSpan> AttachNodeSpans(Run* run, const Sinks& sinks,
                                            size_t from) {
  std::vector<obs::TraceSpan> spans = sinks.SpansSince(from);
  for (const obs::TraceSpan& span : spans) {
    run->log->AddNodeSpan(span.name, LayerOf(span), span.wall_seconds);
  }
  return spans;
}

int CountDiagnostics(const analysis::ValidationReport& report) {
  return static_cast<int>(report.diagnostics().size());
}

/// Estimators no train-path node consumes (their sampled models are never
/// read during the fit).
std::set<int> TerminalEstimators(const PhysicalPlan& plan) {
  std::set<int> consumed;
  for (const PlannedNode& pn : plan.nodes) {
    if (!pn.train) continue;
    for (int in : pn.inputs) consumed.insert(in);
    if (pn.model_input >= 0) consumed.insert(pn.model_input);
  }
  std::set<int> out;
  for (const PlannedNode& pn : plan.nodes) {
    if (pn.train && pn.kind == NodeKind::kEstimator && !consumed.count(pn.id)) {
      out.insert(pn.id);
    }
  }
  return out;
}

/// PipelineExecutor::Compile followed by the PlanRunner train pass, one
/// stage at a time. On `check_plan`, also compiles through
/// PipelineExecutor::Compile at the same catalog generation and checks that
/// both plans serialize identically.
FitResult StagedFit(const Model& m, Run* run, const Sinks& sinks,
                    cache::ArtifactCatalog* catalog, bool check_plan) {
  PipelineExecutor executor(Cluster(), OptimizationConfig::Full());
  ExecContext* ctx = executor.context();
  ConfigureContext(ctx, run->pool, sinks, catalog);
  SpanLog* log = run->log;
  Samples& L = run->layer;
  const ThreadPool::Stats pool_before = run->pool->stats();

  FitResult r;
  std::shared_ptr<PhysicalPlan> plan;
  RunResult result;
  int diagnostics = 0;
  double validate_s = 0.0;
  double dataflow_s = 0.0;
  {
    ScopedSpan fit_span(log, "core.fit", "core");
    if (catalog != nullptr) catalog->BeginGeneration();
    Timer compile_timer;
    {
      ScopedSpan compile_span(log, "core.compile", "core");
      {
        ScopedSpan s(log, "analysis.validate", "analysis");
        Timer t;
        analysis::PlanValidationOptions vopts;
        vopts.sink = m.sink;
        vopts.placeholder = m.source;
        const analysis::ValidationReport report =
            analysis::PlanValidator(vopts).Validate(*m.graph);
        analysis::RecordDiagnostics(report, ctx->metrics());
        diagnostics += CountDiagnostics(report);
        run->Check(m.name + ": submitted graph validates", report.ok());
        validate_s += t.ElapsedSeconds();
      }
      {
        ScopedSpan s(log, "core.lower", "core");
        Timer t;
        plan = std::make_shared<PhysicalPlan>(LowerToPhysical(
            std::make_shared<PipelineGraph>(*m.graph), m.source, m.sink,
            executor.config(), ctx->resources()));
        L.Add("core.lower_s", t.ElapsedSeconds());
      }
      {
        ScopedSpan s(log, "analysis.dataflow", "analysis");
        Timer t;
        const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
        const analysis::ValidationReport report =
            analysis::CheckDataflow(*plan, flow);
        analysis::RecordDiagnostics(report, ctx->metrics());
        diagnostics += CountDiagnostics(report);
        run->Check(m.name + ": lowered plan passes dataflow rules",
                   report.ok());
        dataflow_s += t.ElapsedSeconds();
      }
      // The standard passes, in RegisterStandardPasses order, each run by a
      // one-pass PassManager (which re-validates after it, as Compile does).
      std::vector<std::pair<std::string, std::unique_ptr<PlanPass>>> passes;
      passes.emplace_back("cse", std::make_unique<CsePass>());
      passes.emplace_back("profile_select",
                          std::make_unique<ProfileAndSelectPass>());
      passes.emplace_back("reuse", std::make_unique<ReusePass>());
      passes.emplace_back("materialization",
                          std::make_unique<MaterializationPass>());
      passes.emplace_back("fusion", std::make_unique<FusionPass>());
      PassContext pctx;
      pctx.ctx = ctx;
      std::vector<obs::TraceSpan> profile_spans;
      for (auto& [name, pass] : passes) {
        ScopedSpan s(log, "optimizer." + name, "optimizer");
        const size_t before = sinks.NumSpans();
        Timer t;
        PassManager manager;
        manager.AddPass(std::move(pass));
        manager.Run(plan.get(), &pctx);
        L.Add("optimizer." + name + "_s", t.ElapsedSeconds());
        std::vector<obs::TraceSpan> spans = AttachNodeSpans(run, sinks, before);
        profile_spans.insert(profile_spans.end(), spans.begin(), spans.end());
      }
      {
        ScopedSpan s(log, "analysis.dataflow", "analysis");
        Timer t;
        const analysis::DataflowResult flow = analysis::InferDataflow(*plan);
        analysis::AnnotatePlan(plan.get(), flow);
        dataflow_s += t.ElapsedSeconds();
      }
      // Profile-phase node walls by layer, and the share spent fitting
      // estimators whose sampled model nothing on the train path reads.
      const std::set<int> terminal = TerminalEstimators(*plan);
      double large = 0.0, small = 0.0, terminal_s = 0.0, solvers_s = 0.0;
      for (const obs::TraceSpan& span : profile_spans) {
        if (span.phase == obs::TracePhase::kProfileLarge) {
          large += span.wall_seconds;
        } else if (span.phase == obs::TracePhase::kProfileSmall) {
          small += span.wall_seconds;
        } else {
          continue;
        }
        if (span.kind == "Estimator" && terminal.count(span.node_id)) {
          terminal_s += span.wall_seconds;
        }
        if (LayerOf(span) == "solvers") solvers_s += span.wall_seconds;
      }
      L.Add("optimizer.profile_large_s", large);
      L.Add("optimizer.profile_small_s", small);
      L.Add("optimizer.profile_terminal_estimator_s", terminal_s);
      L.Add("solvers.profile_s", solvers_s);
    }
    L.Add("core.compile_s", compile_timer.ElapsedSeconds());
    L.Add("analysis.validate_s", validate_s);
    L.Add("analysis.dataflow_s", dataflow_s);
    L.Add("analysis.diagnostics", diagnostics);
    L.Add("core.plan_nodes", static_cast<double>(plan->nodes.size()));

    if (check_plan) {
      // Not part of this fit's time: the reference compile at the same
      // catalog generation.
      ScopedSpan s(log, "core.reference_compile", "core");
      const size_t before = sinks.NumSpans();
      const std::string staged = plan->ToJson();
      const std::shared_ptr<PhysicalPlan> reference =
          executor.Compile(*m.graph, m.source, m.sink);
      run->Check(m.name + ": one-pass-at-a-time compile matches Compile",
                 reference->ToJson() == staged);
      AttachNodeSpans(run, sinks, before);
    }

    {
      ScopedSpan s(log, "core.train_pass", "core");
      const size_t before = sinks.NumSpans();
      Timer t;
      PlanRunner runner(plan.get(), ctx);
      result = runner.Run(ExecMode::kFit);
      const double pass = t.ElapsedSeconds();
      const std::vector<obs::TraceSpan> spans =
          AttachNodeSpans(run, sinks, before);
      double kernel = 0.0, solvers = 0.0, ops = 0.0, cache_load = 0.0;
      for (const obs::TraceSpan& span : spans) {
        if (span.phase != obs::TracePhase::kTrain) continue;
        kernel += span.wall_seconds;
        const std::string layer = LayerOf(span);
        if (layer == "solvers") solvers += span.wall_seconds;
        if (layer == "ops") ops += span.wall_seconds;
        if (layer == "cache") cache_load += span.wall_seconds;
      }
      L.Add("core.train_pass_s", pass);
      L.Add("core.train_kernel_s", kernel);
      L.Add("core.train_overlap", perfbench::OverlapRatio(kernel, pass));
      L.Add("solvers.train_s", solvers);
      L.Add("ops.train_s", ops);
      L.Add("cache.load_s", cache_load);
    }
  }
  r.wall = L.values["core.compile_s"].back() +
           L.values["core.train_pass_s"].back();

  int cached = 0;
  int reused = 0;
  int pruned = 0;
  for (const PlannedNode& pn : plan->nodes) {
    if (pn.cached) ++cached;
    if (pn.reused) ++reused;
    if (pn.reuse_pruned) ++pruned;
  }
  L.Add("optimizer.cached_nodes", cached);
  L.Add("optimizer.fused_regions",
        static_cast<double>(plan->fused_regions.size()));
  L.Add("cache.reused_nodes", reused);
  L.Add("cache.pruned_nodes", pruned);
  const ThreadPool::Stats pool_after = run->pool->stats();
  L.Add("common.pool_tasks",
        static_cast<double>(pool_after.tasks_executed -
                            pool_before.tasks_executed));
  L.Add("common.pool_busy_s", pool_after.busy_seconds - pool_before.busy_seconds);
  L.Add("common.pool_utilization",
        r.wall > 0.0 ? (pool_after.busy_seconds - pool_before.busy_seconds) /
                           (r.wall * static_cast<double>(
                                         run->pool->num_threads()))
                     : 0.0);
  r.fitted = std::make_shared<FittedPipelineUntyped>(plan,
                                                     std::move(result.models));
  return r;
}

/// One fit of `m`: staged and traced in traced runs, plain otherwise.
FitResult Fit(const Model& m, Run* run, cache::ArtifactCatalog* catalog,
              bool check_plan = false) {
  ++run->attempted;
  if (!run->traced) return PlainFit(m, run, catalog);
  const Sinks sinks = Sinks::Make(true);
  FitResult r = StagedFit(m, run, sinks, catalog, check_plan);
  run->obs_spans += sinks.NumSpans();
  return r;
}

// ---------------------------------------------------------------------------
// Batch apply.
// ---------------------------------------------------------------------------

struct ApplyResult {
  double wall = 0.0;
  size_t records = 0;
  size_t correct = 0;
  uint64_t digest = 0;
};

ApplyResult Apply(const Model& m, const FittedPipelineUntyped& fitted,
                  Run* run) {
  ++run->attempted;
  const Sinks sinks = Sinks::Make(run->traced);
  ExecContext ctx(Cluster());
  ConfigureContext(&ctx, run->pool, sinks, nullptr);
  ApplyResult r;
  AnyDataset out_any;
  std::vector<obs::TraceSpan> spans;
  {
    ScopedSpan span(run->log, "core.apply", "core");
    Timer timer;
    out_any = fitted.Apply(m.test, &ctx);
    r.wall = timer.ElapsedSeconds();
    spans = AttachNodeSpans(run, sinks, 0);
  }
  const auto out = DistDataset<Scores>::Cast(out_any);
  r.records = out->NumRecords();
  r.digest = DigestScores(out);
  size_t i = 0;
  for (const auto& part : out->partitions()) {
    for (const auto& rec : part) {
      if (i < m.test_labels.size() &&
          static_cast<int>(ArgMax(rec)) == m.test_labels[i]) {
        ++r.correct;
      }
      ++i;
    }
  }
  if (run->traced) {
    double kernel = 0.0, ops = 0.0;
    for (const obs::TraceSpan& s : spans) {
      kernel += s.wall_seconds;
      if (LayerOf(s) == "ops") ops += s.wall_seconds;
    }
    run->layer.Add("core.apply_s", r.wall);
    run->layer.Add("core.apply_overhead_s", std::max(0.0, r.wall - kernel));
    run->layer.Add("ops.eval_s", ops);
    run->obs_spans += sinks.NumSpans();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------------

struct ServeResult {
  serve::ServeReport report;
  double wall = 0.0;
  uint64_t stream_digest = 0;
  size_t offered = 0;
  size_t completed = 0;
  size_t rejected = 0;
  size_t slo_met = 0;
  double worst_p99 = 0.0;
};

ServeResult Serve(const std::vector<const Model*>& models,
                  const std::vector<std::shared_ptr<FittedPipelineUntyped>>&
                      fitted,
                  double rate, size_t requests_per_tenant, uint64_t seed,
                  Run* run, bool record) {
  serve::ServerConfig config;
  config.server_slots = kServeSlots;
  config.num_threads = kServeThreads;
  serve::PipelineServer server(Cluster(), config);
  const Sinks sinks = Sinks::Make(run->traced);
  sinks.Attach(server.context());
  serve::ServeOptions options;
  options.max_batch_size = kServeMaxBatch;
  options.max_batch_delay_seconds = 0.05;
  options.queue_depth = 64;
  options.slo_seconds = kServeSloSeconds;
  options.cost_admission = true;
  options.admission_headroom = 1.0;
  options.emit_request_spans = false;
  std::vector<std::unique_ptr<serve::OpenLoopSource>> sources;
  std::vector<serve::RequestSource*> raw;
  for (size_t t = 0; t < models.size(); ++t) {
    const int id = server.AddTenant(models[t]->name,
                                    serve::ServablePipeline(fitted[t]),
                                    models[t]->codec, options);
    sources.push_back(std::make_unique<serve::OpenLoopSource>(
        id, rate, requests_per_tenant, models[t]->codec->NumPayloads(),
        seed * 7919 + 101 * (t + 1)));
    raw.push_back(sources.back().get());
  }
  serve::MergedSource load(raw);

  ServeResult r;
  std::vector<double> batch_walls;  // ms
  double kernel = 0.0;
  {
    ScopedSpan span(run->log, "serve.run", "serve");
    Timer timer;
    r.report = server.Run(&load);
    r.wall = timer.ElapsedSeconds();
    // Batch spans enclose the per-node spans of their micro-batch, so only
    // they are hung under the run.
    for (const obs::TraceSpan& s : sinks.SpansSince(0)) {
      if (s.kind != "batch") continue;
      run->log->AddNodeSpan(s.name, LayerOf(s), s.wall_seconds);
      batch_walls.push_back(s.wall_seconds * 1e3);
      kernel += s.wall_seconds;
    }
    run->obs_spans += sinks.NumSpans();
  }
  r.stream_digest = DigestText(r.report.ResponseStream());
  for (const serve::TenantReport& t : r.report.tenants) {
    r.offered += t.offered;
    r.completed += t.completed;
    r.rejected += t.rejected_queue_full + t.rejected_predicted_cost +
                  t.rejected_error_budget;
    r.slo_met += t.slo_met;
    r.worst_p99 = std::max(r.worst_p99, t.p99_latency_seconds);
  }
  if (record && run->traced) {
    size_t batches = 0, batched = 0;
    for (const serve::TenantReport& t : r.report.tenants) {
      batches += t.batches;
      batched += t.batched_records;
    }
    Samples& L = run->layer;
    L.Add("serve.run_s", r.wall);
    L.Add("serve.batch_kernel_s", kernel);
    L.Add("serve.loop_s", std::max(0.0, r.wall - kernel));
    L.Add("serve.batches", static_cast<double>(batches));
    L.Add("serve.mean_batch_size",
          batches ? static_cast<double>(batched) / batches : 0.0);
    const double p50 = perfbench::TailPercentile(batch_walls, 50.0);
    const double p99 = perfbench::TailPercentile(batch_walls, 99.0);
    L.Add("serve.batch_wall_p50_ms", std::isnan(p50) ? 0.0 : p50);
    L.Add("serve.batch_wall_p99_ms", std::isnan(p99) ? 0.0 : p99);
    L.Add("serve.rejected", static_cast<double>(r.rejected));
    L.Add("serve.utilization", r.report.Utilization());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Dense kernels timed directly at the workload's solver shape.
// ---------------------------------------------------------------------------

/// Times `body` until at least `min_seconds` (and `min_reps` calls) have
/// passed; returns the median seconds per call.
template <typename F>
double TimeKernel(F body, int min_reps, double min_seconds) {
  std::vector<double> walls;
  Timer total;
  while (static_cast<int>(walls.size()) < min_reps ||
         total.ElapsedSeconds() < min_seconds) {
    Timer t;
    body();
    walls.push_back(t.ElapsedSeconds());
  }
  return Median(walls);
}

struct SolverShape {
  size_t d = 0;
  size_t k = 0;
};

/// Widest linear model the fitted pipeline holds (its solver's d and k).
SolverShape SolverShapeOf(const FittedPipelineUntyped& fitted) {
  SolverShape shape;
  for (const auto& [id, model] : fitted.models()) {
    (void)id;
    const Matrix* w = nullptr;
    if (auto* dense = dynamic_cast<const LinearMapModel*>(model.get())) {
      w = &dense->weights();
    } else if (auto* sparse =
                   dynamic_cast<const SparseLinearMapModel*>(model.get())) {
      w = &sparse->weights();
    }
    if (w != nullptr && w->rows() > shape.d) {
      shape.d = w->rows();
      shape.k = w->cols();
    }
  }
  return shape;
}

void ProbeLinalg(const SolverShape& shape, size_t gram_n, Run* run) {
  ScopedSpan span(run->log, "linalg.probe", "linalg");
  Samples& L = run->layer;
  Rng rng(run->seed);
  const size_t d = std::max<size_t>(shape.d, 2);
  const size_t k = std::max<size_t>(shape.k, 1);
  // Symmetric and diagonally dominant, hence SPD, built in O(d^2).
  Matrix a = Matrix::UniformRandom(d, d, -1.0, 1.0, &rng);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < i; ++j) a(i, j) = a(j, i);
    a(i, i) = static_cast<double>(d) + 1.0;
  }
  const Matrix b = Matrix::UniformRandom(d, k, -1.0, 1.0, &rng);
  double flops = 0.0;
  {
    ScopedSpan s(run->log, "linalg.solve_spd", "linalg");
    double sink = 0.0;
    int calls = 0;
    const double solve_s = TimeKernel(
        [&] {
          sink += SolveSpd(a, b)(0, 0);
          ++calls;
        },
        2, 0.2);
    const double f = perfbench::SolveSpdFlops(d, k);
    flops += f * calls;
    L.Add("linalg.solve_spd_s", solve_s);
    L.Add("linalg.solve_spd_gflops", f / solve_s / 1e9);
    if (!std::isfinite(sink)) run->Check("linalg: SolveSpd finite", false);
  }
  {
    ScopedSpan s(run->log, "linalg.gram", "linalg");
    const Matrix x = Matrix::UniformRandom(gram_n, d, -1.0, 1.0, &rng);
    double sink = 0.0;
    int calls = 0;
    const double gram_s = TimeKernel(
        [&] {
          sink += Gram(x)(0, 0);
          ++calls;
        },
        2, 0.2);
    const double f = perfbench::GramFlops(gram_n, d);
    flops += f * calls;
    L.Add("linalg.gram_gflops", f / gram_s / 1e9);
    if (!std::isfinite(sink)) run->Check("linalg: Gram finite", false);
  }
  {
    ScopedSpan s(run->log, "linalg.gemm", "linalg");
    const Matrix x = Matrix::UniformRandom(gram_n, d, -1.0, 1.0, &rng);
    const Matrix w = Matrix::UniformRandom(d, 32, -1.0, 1.0, &rng);
    double sink = 0.0;
    int calls = 0;
    const double gemm_s = TimeKernel(
        [&] {
          sink += Gemm(x, w)(0, 0);
          ++calls;
        },
        2, 0.2);
    const double f = perfbench::GemmFlops(gram_n, d, 32);
    flops += f * calls;
    L.Add("linalg.gemm_gflops", f / gemm_s / 1e9);
    if (!std::isfinite(sink)) run->Check("linalg: Gemm finite", false);
  }
  L.Add("linalg.flops", flops);
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  double accuracy_floor = 0.0;
  size_t serve_requests = 0;  // per tenant per nominal-rate drain
  size_t gram_n = 1024;       // rows of the Gram/Gemm probes
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"amazon_fit", 0.70, 2000, 1024},
      {"imagenet_fit", 0.50, 1000, 600},
      {"serve_mixed", 0.70, 3000, 1024},
      {"tuning_warm", 0.50, 1000, 2000},
  };
  return specs;
}

/// The models of one workload and whatever set-up fitted for them.
struct Setup {
  std::vector<Model> models;
  std::vector<std::shared_ptr<FittedPipelineUntyped>> fitted;
  std::unique_ptr<cache::ArtifactCatalog> catalog;
  double fit_wall = 0.0;     // all fits the set-up made
  double fit_virtual = 0.0;
  double first_fit_wall = 0.0;  // the fit of models[0]
};

/// Tuning grid: every variant shares the pure random-feature prefix
/// (identical seeds, so its lineage fingerprints match) and differs only in
/// the solver's hyperparameters.
Pipeline<Scores, Scores> TuningVariant(const workloads::DenseCorpus& corpus,
                                       double l2, int iterations) {
  const size_t input_dim = corpus.train->partitions().front().front().size();
  auto input = PipelineInput<Scores>("Frame");
  std::vector<Pipeline<Scores, Scores>> branches;
  for (size_t b = 0; b < 4; ++b) {
    branches.push_back(input.AndThen(std::make_shared<CosineRandomFeatures>(
        input_dim, 32, 0.02, 41 + 101 * b)));
  }
  LinearSolverConfig solver;
  solver.num_classes = corpus.num_classes;
  solver.l2_reg = l2;
  solver.lbfgs_iterations = iterations;
  return Pipeline<Scores, Scores>::Gather(branches)
      .AndThen(std::make_shared<ConcatFeatures>())
      .AndThenLogicalEstimator<Scores>(MakeDenseLinearSolver(solver),
                                       corpus.train, corpus.train_labels);
}

constexpr double kTuningL2[] = {1e-4, 1e-2};
constexpr int kTuningIters[] = {5, 10};

Model AmazonModel(uint64_t seed, size_t train, size_t test, size_t tokens,
                  size_t vocabulary) {
  const workloads::TextCorpus corpus =
      workloads::AmazonLike(train, test, tokens, vocabulary, seed);
  LinearSolverConfig solver;
  solver.num_classes = 2;
  solver.lbfgs_iterations = 20;
  return MakeModel(
      "amazon", workloads::BuildAmazonPipeline(corpus, kAmazonWidth, solver),
      corpus.test_docs, corpus.test_label_ids);
}

Setup BuildSetup(const std::string& workload, Run* run) {
  Setup st;
  const uint64_t seed = run->seed;
  {
    ScopedSpan span(run->log, "workloads.generate", "workloads");
    Timer t;
    if (workload == "amazon_fit") {
      st.models.push_back(AmazonModel(seed, 3000, 1000, 40, 2000));
    } else if (workload == "imagenet_fit") {
      const workloads::ImageCorpus corpus =
          workloads::TexturedImages(600, 200, 48, 3, 4, 0.05, seed);
      LinearSolverConfig solver;
      solver.num_classes = 4;
      st.models.push_back(MakeModel(
          "imagenet",
          workloads::BuildImageNetPipeline(corpus, 8, 6, 5, solver),
          corpus.test, corpus.test_label_ids));
    } else if (workload == "serve_mixed") {
      st.models.push_back(AmazonModel(seed, 2000, 200, 30, 1000));
      const workloads::DenseCorpus corpus =
          workloads::DenseClasses(2500, 250, 256, 8, 7.0, seed + 1);
      LinearSolverConfig solver;
      solver.num_classes = 8;
      st.models.push_back(MakeModel(
          "youtube", workloads::BuildYoutubePipeline(corpus, solver),
          corpus.test, corpus.test_label_ids));
    } else if (workload == "tuning_warm") {
      workloads::DenseCorpus corpus =
          workloads::DenseClasses(2000, 600, 512, 4, 8.0, seed);
      corpus.train->set_virtual_scale(1000.0);
      corpus.train_labels->set_virtual_scale(1000.0);
      for (double l2 : kTuningL2) {
        for (int iters : kTuningIters) {
          st.models.push_back(
              MakeModel("tuning", TuningVariant(corpus, l2, iters),
                        corpus.test, corpus.test_label_ids));
        }
      }
    }
    run->layer.Add("workloads.generate_s", t.ElapsedSeconds());
  }
  if (workload == "serve_mixed") {
    // The tenants are fitted once per set-up and served thereafter.
    for (const Model& m : st.models) {
      FitResult f = Fit(m, run, nullptr);
      if (st.fitted.empty()) st.first_fit_wall = f.wall;
      st.fit_wall += f.wall;
      st.fit_virtual += f.virtual_seconds;
      st.fitted.push_back(f.fitted);
    }
  } else if (workload == "tuning_warm") {
    // A cold fit of the first variant fills a fresh memory-only catalog.
    // Its budget counts virtual-scale bytes, so it is raised to hold the
    // shared prefix (about 2 MB of real records).
    cache::CatalogConfig config;
    config.memory_budget_bytes = 1e12;
    st.catalog = std::make_unique<cache::ArtifactCatalog>(config);
    FitResult f = Fit(st.models[0], run, st.catalog.get());
    st.fitted.push_back(f.fitted);
  }
  return st;
}

/// Serving at the nominal rate, pooled over a run's repetitions: each
/// repetition drains its own seeded stream (so the tail is estimated from
/// every repetition's requests), and repetition 0's stream is replayed at
/// the end to check that responses are byte-identical.
struct NominalServing {
  std::map<std::string, std::vector<double>> latencies;  // per tenant
  size_t completed = 0;
  size_t slo_met = 0;
  uint64_t first_digest = 0;
  std::vector<std::shared_ptr<FittedPipelineUntyped>> first_fitted;
};

/// Seed of the `index`-th nominal stream of a run; stream 0 is replayed.
uint64_t StreamSeed(uint64_t seed, int index) {
  return seed * 1000003ull + static_cast<uint64_t>(index);
}

std::vector<const Model*> ServedModels(const Setup& st, size_t count,
                                       size_t first) {
  std::vector<const Model*> models;
  for (size_t i = 0; i < count; ++i) models.push_back(&st.models[first + i]);
  return models;
}

/// One repetition's serving leg: kServeDrains short drains, each of its
/// own stream and each one serve_requests_per_s sample, so a stall on a
/// shared host spoils a few samples rather than a whole repetition.
void ServeNominal(const std::vector<const Model*>& models,
                  const std::vector<std::shared_ptr<FittedPipelineUntyped>>&
                      fitted,
                  const WorkloadSpec& spec, int rep, Run* run,
                  NominalServing* pooled) {
  for (int d = 0; d < kServeDrains; ++d) {
    const int stream = rep * kServeDrains + d;
    const ServeResult sv =
        Serve(models, fitted, kNominalRate, spec.serve_requests,
              StreamSeed(run->seed, stream), run, true);
    run->attempted += sv.offered;
    run->failed += sv.rejected;
    run->s.Add("serve_requests_per_s",
               static_cast<double>(sv.completed) / sv.wall);
    for (const serve::ServeResponse& r : sv.report.responses) {
      if (!r.accepted) continue;
      pooled->latencies[models[r.tenant]->name].push_back(r.latency_seconds);
    }
    pooled->completed += sv.completed;
    pooled->slo_met += sv.slo_met;
    if (stream == 0) {
      pooled->first_digest = sv.stream_digest;
      pooled->first_fitted = fitted;
    }
  }
}

/// Applies every model to its test split, in passes repeated for at least
/// kMinApplySeconds; each pass is one apply_records_per_s sample. Returns
/// the first pass (summed over models, digests combined) and checks that
/// every later pass produced identical outputs.
ApplyResult ApplyAll(const std::vector<const Model*>& models,
                     const std::vector<std::shared_ptr<FittedPipelineUntyped>>&
                         fitted,
                     const WorkloadSpec& spec, Run* run) {
  ApplyResult first;
  bool identical = true;
  Timer total;
  for (int pass = 0; pass == 0 || total.ElapsedSeconds() < kMinApplySeconds;
       ++pass) {
    ApplyResult sum;
    for (size_t t = 0; t < models.size(); ++t) {
      const ApplyResult a = Apply(*models[t], *fitted[t], run);
      sum.wall += a.wall;
      sum.records += a.records;
      sum.correct += a.correct;
      sum.digest = sum.digest * 1099511628211ull ^ a.digest;
    }
    run->s.Add("apply_records_per_s",
               static_cast<double>(sum.records) / sum.wall);
    if (pass == 0) {
      first = sum;
    } else {
      identical = identical && sum.digest == first.digest;
    }
  }
  run->Check(spec.name + ": repeated applies identical", identical);
  return first;
}

void RecordAccuracy(const ApplyResult& a, Run* run, const WorkloadSpec& spec) {
  const double acc = a.records ? static_cast<double>(a.correct) / a.records
                               : 0.0;
  run->s.Add("accuracy", acc);
  run->Check(spec.name + ": accuracy " + std::to_string(acc) + " >= floor",
             acc >= spec.accuracy_floor);
}

bool AllEqual(const std::vector<uint64_t>& v) {
  return std::all_of(v.begin(), v.end(),
                     [&v](uint64_t x) { return x == v.front(); });
}
bool AllEqual(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [&v](double x) { return x == v.front(); });
}

/// Serving knee: the highest rung of the fixed per-tenant rate ladder at
/// which every tenant's p99 (virtual) stays within the SLO with nothing
/// shed. Deterministic, so measured once per run.
double ServeKnee(const std::vector<const Model*>& models,
                 const std::vector<std::shared_ptr<FittedPipelineUntyped>>&
                     fitted,
                 Run* run) {
  double knee = 0.0;
  for (double rate : kKneeLadder) {
    const ServeResult sv =
        Serve(models, fitted, rate, kKneeRequests, StreamSeed(run->seed, 0),
              run, false);
    if (sv.rejected > 0 || sv.worst_p99 > kServeSloSeconds) break;
    knee = rate;
  }
  return knee;
}

/// Returns free heap memory to the system between repetitions. Threads
/// that come and go (serving pools, branch schedulers) land in different
/// malloc arenas from run to run; without this, memory freed in one arena
/// stays resident and peak RSS depends on that placement.
void ReleaseFreeMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void RunWorkload(const WorkloadSpec& spec, Run* run) {
  // Fit walls of models[0], for the tracing-overhead reference.
  std::vector<double> traced_fit_walls;
  Setup st;
  Timer setup_total;
  for (int k = 0; k < kMaxSetupReps && (k < kMinSetupReps ||
                                        setup_total.ElapsedSeconds() <
                                            kMinSetupSeconds);
       ++k) {
    st = Setup();  // release the previous set-up before building the next
    ScopedSpan span(run->log, "setup", "workloads");
    Timer t;
    st = BuildSetup(spec.name, run);
    run->s.Add("setup_s", t.ElapsedSeconds());
    ReleaseFreeMemory();
    if (spec.name == "serve_mixed") {
      run->s.Add("fit_s", st.fit_wall);
      run->s.Add("fit_virtual_s", st.fit_virtual);
      traced_fit_walls.push_back(st.first_fit_wall);
    }
  }

  std::vector<uint64_t> apply_digests;
  NominalServing serving;
  std::vector<const Model*> served;  // the models repetition 0 served
  std::vector<double> fit_virtuals;
  std::map<size_t, std::vector<uint64_t>> variant_digests;  // tuning
  std::map<size_t, double> variant_accuracy;
  std::vector<std::shared_ptr<FittedPipelineUntyped>> fitted = st.fitted;
  size_t warm_fits = 0, warm_reused = 0;

  Timer loop;
  int reps = 0;
  const int min_reps = spec.name == "tuning_warm"
                           ? static_cast<int>(st.models.size())
                           : 3;
  while (reps < min_reps || loop.ElapsedSeconds() < run->seconds) {
    ScopedSpan rep_span(run->log, "repetition", "unattributed");
    if (spec.name == "amazon_fit" || spec.name == "imagenet_fit") {
      const Model& m = st.models[0];
      FitResult f = Fit(m, run, nullptr, run->traced && reps == 0);
      run->s.Add("fit_s", f.wall);
      traced_fit_walls.push_back(f.wall);
      if (!run->traced) {
        run->s.Add("fit_virtual_s", f.virtual_seconds);
        fit_virtuals.push_back(f.virtual_seconds);
      }
      fitted = {f.fitted};
      const ApplyResult a = ApplyAll({&m}, fitted, spec, run);
      RecordAccuracy(a, run, spec);
      apply_digests.push_back(a.digest);
    } else if (spec.name == "serve_mixed") {
      const ApplyResult a =
          ApplyAll({&st.models[0], &st.models[1]}, fitted, spec, run);
      RecordAccuracy(a, run, spec);
      apply_digests.push_back(a.digest);
    } else {  // tuning_warm: warm fits cycle through the grid
      const size_t v = static_cast<size_t>(reps + 1) % st.models.size();
      const Model& m = st.models[v];
      FitResult f = Fit(m, run, st.catalog.get(), run->traced && reps == 0);
      run->s.Add("fit_s", f.wall);
      traced_fit_walls.push_back(f.wall);
      if (!run->traced) run->s.Add("fit_virtual_s", f.virtual_seconds);
      int reused = 0;
      for (const PlannedNode& pn : f.fitted->plan().nodes) {
        if (pn.reused) ++reused;
      }
      ++warm_fits;
      if (reused > 0) ++warm_reused;
      fitted = {f.fitted};
      const ApplyResult a = ApplyAll({&m}, fitted, spec, run);
      variant_digests[v].push_back(a.digest);
      variant_accuracy[v] = static_cast<double>(a.correct) / a.records;
    }
    // Tuning serves the variant this repetition fitted.
    const std::vector<const Model*> models =
        spec.name == "tuning_warm"
            ? ServedModels(st, 1, static_cast<size_t>(reps + 1) %
                                      st.models.size())
            : ServedModels(st, fitted.size(), 0);
    if (reps == 0) served = models;
    ServeNominal(models, fitted, spec, reps, run, &serving);
    ReleaseFreeMemory();
    ++reps;
  }
  // --- Correctness across repetitions.
  if (!fit_virtuals.empty()) {
    run->Check(spec.name + ": fit virtual seconds identical across reps",
               AllEqual(fit_virtuals));
  }
  if (!apply_digests.empty()) {
    run->Check(spec.name + ": apply outputs identical across reps",
               AllEqual(apply_digests));
  }
  {
    const ServeResult replay =
        Serve(served, serving.first_fitted, kNominalRate, spec.serve_requests,
              StreamSeed(run->seed, 0), run, false);
    run->Check(spec.name + ": replayed response stream identical",
               replay.stream_digest == serving.first_digest);
    double worst_p99 = 0.0;
    for (const auto& [tenant, latencies] : serving.latencies) {
      const double p99 = perfbench::TailPercentile(latencies, 99.0);
      run->Check(spec.name + ": " + tenant + " p99 has 10 samples beyond it",
                 !std::isnan(p99));
      if (!std::isnan(p99)) worst_p99 = std::max(worst_p99, p99);
    }
    run->s.Add("serve_p99_virtual_s", worst_p99);
    run->s.Add("serve_slo_attainment",
               serving.completed ? static_cast<double>(serving.slo_met) /
                                       serving.completed
                                 : 0.0);
  }
  if (spec.name == "tuning_warm") {
    double best = 0.0;
    for (const auto& [v, acc] : variant_accuracy) best = std::max(best, acc);
    run->s.Add("accuracy", best);
    run->Check(spec.name + ": best accuracy " + std::to_string(best) +
                   " >= floor",
               best >= spec.accuracy_floor);
    run->Check(spec.name + ": every warm fit reused the catalog",
               warm_reused == warm_fits);
    // Warm outputs must be byte-identical to a cold fit of the variant.
    ScopedSpan span(run->log, "check.cold_fits", "unattributed");
    for (const auto& [v, digests] : variant_digests) {
      run->Check(spec.name + ": warm outputs identical across reps",
                 AllEqual(digests));
      const Model& m = st.models[v];
      const FitResult cold = PlainFit(m, run, nullptr);
      ++run->attempted;
      const ApplyResult a = Apply(m, *cold.fitted, run);
      run->Check(spec.name + ": warm variant " + std::to_string(v) +
                     " matches its cold fit",
                 a.digest == digests.front());
    }
    run->layer.Add("cache.hit_ratio",
                   warm_fits ? static_cast<double>(warm_reused) / warm_fits
                             : 0.0);
    run->layer.Add("cache.resident_bytes", st.catalog->MemoryBytes());
  }

  {
    ScopedSpan span(run->log, "serve.knee", "serve");
    run->s.Add("serve_knee_rps",
               ServeKnee(served, serving.first_fitted, run));
  }

  if (run->traced) {
    // Untraced reference fits of models[0] (sinks detached): the
    // virtual-time split a fit charges, and the tracing overhead.
    ScopedSpan span(run->log, "obs.reference_fit", "obs");
    std::vector<double> ref_walls;
    FitResult ref;
    for (int i = 0; i < 3; ++i) {
      ref = PlainFit(st.models[0], run,
                     spec.name == "tuning_warm" ? st.catalog.get() : nullptr);
      ref_walls.push_back(ref.wall);
    }
    run->layer.Add("sim.optimize_virtual_s", ref.report.optimize_seconds);
    run->layer.Add("sim.load_virtual_s", ref.report.load_seconds);
    run->layer.Add("sim.featurize_virtual_s", ref.report.featurize_seconds);
    run->layer.Add("sim.solve_virtual_s", ref.report.solve_seconds);
    run->layer.Add("optimizer.cache_used_bytes", ref.report.cache_used_bytes);
    run->layer.Add("obs.trace_overhead_frac",
                   Median(traced_fit_walls) / Median(ref_walls) - 1.0);
    ProbeLinalg(SolverShapeOf(*fitted[0]), spec.gram_n, run);
  }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Host-wide CPU tick counters from /proc/stat: {steal, total}. Steal is
/// time the hypervisor ran something else while this VM wanted a CPU; a run
/// with a high steal share measured a contended host, not the program.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

const char* kLayers[] = {"workloads", "analysis", "core",  "optimizer",
                         "solvers",   "ops",      "linalg", "cache",
                         "serve",     "sim",      "common", "obs"};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::vector<Metric> EndToEndMetrics(const Run& run) {
  const Samples& s = run.s;
  const double ok =
      run.attempted ? 1.0 - static_cast<double>(run.failed) / run.attempted
                    : 0.0;
  return {
      {"setup_s", "s", s.Med("setup_s")},
      {"fit_s", "s", s.Med("fit_s")},
      {"fit_virtual_s", "virtual_s", s.Med("fit_virtual_s")},
      {"apply_records_per_s", "rec/s", s.Med("apply_records_per_s")},
      {"accuracy", "fraction", s.Med("accuracy")},
      {"serve_requests_per_s", "req/s", s.Med("serve_requests_per_s")},
      {"serve_p99_virtual_s", "virtual_s", s.Med("serve_p99_virtual_s")},
      {"serve_slo_attainment", "fraction", s.Med("serve_slo_attainment")},
      {"serve_knee_rps", "req/virtual_s", s.Med("serve_knee_rps")},
      {"ok_fraction", "fraction", ok},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
}

std::vector<Metric> PerLayerMetrics(const Run& run,
                                    const std::map<std::string, double>& self) {
  const Samples& L = run.layer;
  auto med = [&L](const char* key) { return L.Med(key); };
  std::vector<Metric> out = {
      {"workloads.generate_s", "s", med("workloads.generate_s")},
      {"analysis.validate_s", "s", med("analysis.validate_s")},
      {"analysis.dataflow_s", "s", med("analysis.dataflow_s")},
      {"analysis.diagnostics", "count", med("analysis.diagnostics")},
      {"core.lower_s", "s", med("core.lower_s")},
      {"core.compile_s", "s", med("core.compile_s")},
      {"core.plan_nodes", "count", med("core.plan_nodes")},
      {"core.train_pass_s", "s", med("core.train_pass_s")},
      {"core.train_kernel_s", "s", med("core.train_kernel_s")},
      {"core.train_overlap", "ratio", med("core.train_overlap")},
      {"core.apply_s", "s", med("core.apply_s")},
      {"core.apply_overhead_s", "s", med("core.apply_overhead_s")},
      {"optimizer.cse_s", "s", med("optimizer.cse_s")},
      {"optimizer.profile_select_s", "s", med("optimizer.profile_select_s")},
      {"optimizer.reuse_s", "s", med("optimizer.reuse_s")},
      {"optimizer.materialization_s", "s", med("optimizer.materialization_s")},
      {"optimizer.fusion_s", "s", med("optimizer.fusion_s")},
      {"optimizer.profile_large_s", "s", med("optimizer.profile_large_s")},
      {"optimizer.profile_small_s", "s", med("optimizer.profile_small_s")},
      {"optimizer.profile_terminal_estimator_s", "s",
       med("optimizer.profile_terminal_estimator_s")},
      {"optimizer.cached_nodes", "count", med("optimizer.cached_nodes")},
      {"optimizer.cache_used_bytes", "bytes", med("optimizer.cache_used_bytes")},
      {"optimizer.fused_regions", "count", med("optimizer.fused_regions")},
      {"solvers.train_s", "s", med("solvers.train_s")},
      {"solvers.profile_s", "s", med("solvers.profile_s")},
      {"ops.train_s", "s", med("ops.train_s")},
      {"ops.eval_s", "s", med("ops.eval_s")},
      {"linalg.solve_spd_s", "s", med("linalg.solve_spd_s")},
      {"linalg.solve_spd_gflops", "GFLOP/s", med("linalg.solve_spd_gflops")},
      {"linalg.gram_gflops", "GFLOP/s", med("linalg.gram_gflops")},
      {"linalg.gemm_gflops", "GFLOP/s", med("linalg.gemm_gflops")},
      {"linalg.flops", "flop", L.Sum("linalg.flops")},
      {"cache.reused_nodes", "count", med("cache.reused_nodes")},
      {"cache.pruned_nodes", "count", med("cache.pruned_nodes")},
      {"cache.hit_ratio", "fraction", med("cache.hit_ratio")},
      {"cache.load_s", "s", med("cache.load_s")},
      {"cache.resident_bytes", "bytes", med("cache.resident_bytes")},
      {"serve.run_s", "s", med("serve.run_s")},
      {"serve.batch_kernel_s", "s", med("serve.batch_kernel_s")},
      {"serve.loop_s", "s", med("serve.loop_s")},
      {"serve.batches", "count", med("serve.batches")},
      {"serve.mean_batch_size", "count", med("serve.mean_batch_size")},
      {"serve.batch_wall_p50_ms", "ms", med("serve.batch_wall_p50_ms")},
      {"serve.batch_wall_p99_ms", "ms", med("serve.batch_wall_p99_ms")},
      {"serve.rejected", "count", med("serve.rejected")},
      {"serve.utilization", "fraction", med("serve.utilization")},
      {"sim.optimize_virtual_s", "virtual_s", med("sim.optimize_virtual_s")},
      {"sim.load_virtual_s", "virtual_s", med("sim.load_virtual_s")},
      {"sim.featurize_virtual_s", "virtual_s", med("sim.featurize_virtual_s")},
      {"sim.solve_virtual_s", "virtual_s", med("sim.solve_virtual_s")},
      {"common.pool_tasks", "count", med("common.pool_tasks")},
      {"common.pool_busy_s", "s", med("common.pool_busy_s")},
      {"common.pool_utilization", "fraction", med("common.pool_utilization")},
      {"obs.spans", "count", static_cast<double>(run.obs_spans)},
      {"obs.trace_overhead_frac", "fraction", med("obs.trace_overhead_frac")},
  };
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    out.push_back({std::string("self.") + layer + "_s", "s",
                   it == self.end() ? 0.0 : it->second});
  }
  auto it = self.find("unattributed");
  out.push_back({"self.unattributed_s", "s",
                 it == self.end() ? 0.0 : it->second});
  return out;
}

bool WriteTrace(const std::string& dir, const Run& run,
                const std::vector<Span>& spans,
                const std::map<std::string, double>& self) {
  const std::string path = dir + "/" + run.workload + "-seed" +
                           std::to_string(run.seed) + ".json";
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":" << JsonString(run.workload)
      << ",\"seed\":" << run.seed << ",\"layer_self_s\":{";
  bool first = true;
  for (const auto& [layer, secs] : self) {
    out << (first ? "" : ",") << JsonString(layer) << ":" << Num(secs);
    first = false;
  }
  out << "},\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i
        << ",\"name\":" << JsonString(s.name)
        << ",\"layer\":" << JsonString(s.layer) << ",\"parent\":" << s.parent
        << ",\"workload\":" << JsonString(s.workload);
    if (s.timed) {
      out << ",\"start\":" << Num(s.start) << ",\"end\":" << Num(s.end);
    } else {
      out << ",\"duration\":" << Num(s.duration);
    }
    out << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Run run;
  std::string trace_dir = ".bench_build/perfbench-traces";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      run.seconds = std::stod(value);
    } else if (flag == "--trace") {
      run.traced = value == "1";
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Specs()) {
    if (w.name == run.workload) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 run.workload.c_str());
    return 2;
  }

  ThreadPool pool(PoolThreads());
  SpanLog log(run.workload, run.traced);
  const std::pair<double, double> ticks_before = CpuTicks();
  run.pool = &pool;
  run.log = &log;
  {
    ScopedSpan root(&log, "run", "unattributed");
    RunWorkload(*spec, &run);
  }

  const std::pair<double, double> ticks_after = CpuTicks();
  const double total_ticks = ticks_after.second - ticks_before.second;
  const double steal_frac =
      total_ticks > 0.0 ? (ticks_after.first - ticks_before.first) / total_ticks
                        : 0.0;

  std::map<std::string, double> self;
  if (run.traced) self = perfbench::LayerSelfTimes(log.spans());

  bool correct = true;
  for (const auto& [what, ok] : run.checks) correct = correct && ok;

  // Configuration and sample counts, one line ahead of the result.
  std::string config = "{\"perfbench_config\":{\"workload\":" +
                       JsonString(run.workload) +
                       ",\"seed\":" + std::to_string(run.seed) +
                       ",\"seconds\":" + Num(run.seconds) +
                       ",\"trace\":" + (run.traced ? "1" : "0") +
                       ",\"nproc\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"cpu_model\":" + JsonString(CpuModel()) +
                       ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                       ",\"cxx_flags\":" + JsonString(PERFBENCH_CXX_FLAGS) +
                       ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
                       ",\"pool_threads\":" + std::to_string(PoolThreads()) +
                       ",\"cpu_steal_frac\":" + Num(steal_frac) +
                       ",\"samples\":{";
  // Per end-to-end timing: sample count, median, extremes, and the highest
  // of p90/p50 that has at least ten samples beyond it.
  bool first = true;
  for (const auto& [key, values] : run.s.values) {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    config += std::string(first ? "" : ",") + JsonString(key) +
              ":{\"n\":" + std::to_string(values.size()) +
              ",\"median\":" + Num(Median(values)) +
              ",\"min\":" + Num(sorted.front()) +
              ",\"max\":" + Num(sorted.back());
    for (double pct : {90.0, 50.0}) {
      if (perfbench::PercentileReportable(values.size(), pct)) {
        config += ",\"p" + std::to_string(static_cast<int>(pct)) +
                  "\":" + Num(perfbench::TailPercentile(values, pct));
        break;
      }
    }
    config += "}";
    first = false;
  }
  config += "},\"checks\":{\"passed\":";
  size_t passed = 0;
  for (const auto& [what, ok] : run.checks) passed += ok ? 1 : 0;
  config += std::to_string(passed) +
            ",\"total\":" + std::to_string(run.checks.size()) + "}}}";
  std::printf("%s\n", config.c_str());

  if (run.traced) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec || !WriteTrace(trace_dir, run, log.spans(), self)) {
      std::fprintf(stderr, "perfbench: could not write trace under %s\n",
                   trace_dir.c_str());
    }
  }

  const std::vector<Metric> metrics =
      run.traced ? PerLayerMetrics(run, self) : EndToEndMetrics(run);
  std::string line = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(run.attempted) +
                     ",\"failed\":" + std::to_string(run.failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? "," : "") + JsonString(metrics[i].name) + ":{\"value\":" +
            Num(metrics[i].value) + ",\"unit\":" +
            JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) { return keystone::Main(argc, argv); }
