// Operator-fusion experiment: fused chunked execution vs unfused
// whole-dataset execution (the SystemML-style codegen comparison, Boehm et
// al. 2018, transplanted onto KeystoneML pipelines). One text workload
// (Amazon) and one image workload (CIFAR) are fitted once with
// OptimizationConfig::operator_fusion on and once with it off, and their
// runtime paths applied repeatedly to the test split; the bench reports per
// workload:
//   - fit and apply wall time per leg, with the fused/unfused delta,
//   - modeled peak intermediate memory: bytes the unfused leg
//     materializes between fused-region members (exec.fused.
//     intermediate_bytes_avoided) vs the fused leg's peak chunk-resident
//     bytes (exec.fused.chunk_resident_bytes max),
//   - a byte-identity check: outputs and plan reports must match across
//     legs exactly, or the bench aborts.
//
// In --smoke mode the bench doubles as the CI gate: it fails unless both
// workloads plan fused regions, stay byte-identical, and shrink the modeled
// peak intermediate footprint.
//
// Usage: bench_fusion [--smoke] [ObsSession flags]
//   --smoke   smaller corpora and fewer repetitions (CI-sized, ~seconds)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/core/executor.h"
#include "src/obs/metrics.h"
#include "src/sim/resources.h"
#include "src/solvers/solvers.h"
#include "src/workloads/datasets.h"
#include "src/workloads/pipelines.h"

namespace keystone {
namespace {

ClusterResourceDescriptor Cluster() {
  return ClusterResourceDescriptor::R3_4xlarge(4);
}

struct LegResult {
  double fit_wall = 0.0;
  double apply_wall = 0.0;          // best-of-reps over the test split
  double bytes_avoided = 0.0;       // fused leg only
  double chunk_resident_max = 0.0;  // fused leg only
  double fused_regions = 0.0;
  std::string report_text;
  std::string output_digest;  // record count + FNV over the output doubles
};

struct WorkloadResult {
  std::string name;
  LegResult fused;
  LegResult unfused;
};

/// FNV-1a over the raw double bits of every output record, so two runs can
/// be compared for bit-identity without holding both outputs alive.
std::string DigestOutputs(
    const std::shared_ptr<const DistDataset<std::vector<double>>>& out) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  size_t records = 0;
  for (const auto& part : out->partitions()) {
    for (const auto& rec : part) {
      ++records;
      for (double d : rec) {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
      }
    }
  }
  return std::to_string(records) + ":" + std::to_string(h);
}

/// Fits `pipe` with operator fusion on or off and applies the runtime path
/// `reps` times to `test`, reporting wall times and the fused-execution
/// metrics.
template <typename In>
LegResult RunLeg(const Pipeline<In, std::vector<double>>& pipe,
                 const std::shared_ptr<DistDataset<In>>& test, bool fusion,
                 int reps) {
  OptimizationConfig config = OptimizationConfig::Full();
  config.operator_fusion = fusion;
  PipelineExecutor executor(Cluster(), config);
  obs::MetricsRegistry metrics;
  executor.context()->set_metrics(&metrics);
  ExecOptions opts;
  opts.max_batch_size = 256;
  executor.context()->set_exec_options(opts);

  LegResult result;
  PipelineReport report;
  Timer fit_timer;
  auto fitted = executor.Fit(pipe, &report);
  result.fit_wall = fit_timer.ElapsedSeconds();
  result.report_text = report.ToString();

  std::shared_ptr<const DistDataset<std::vector<double>>> out;
  result.apply_wall = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer apply_timer;
    out = fitted.Apply(test, executor.context());
    const double wall = apply_timer.ElapsedSeconds();
    if (result.apply_wall < 0.0 || wall < result.apply_wall) {
      result.apply_wall = wall;
    }
  }
  result.output_digest = DigestOutputs(out);
  result.bytes_avoided =
      metrics.GetCounter("exec.fused.intermediate_bytes_avoided")->Value();
  result.chunk_resident_max =
      metrics.GetHistogram("exec.fused.chunk_resident_bytes")->Max();
  result.fused_regions = metrics.GetCounter("exec.fused.regions")->Value();
  return result;
}

template <typename In>
WorkloadResult RunWorkload(const std::string& name,
                           const Pipeline<In, std::vector<double>>& pipe,
                           const std::shared_ptr<DistDataset<In>>& test,
                           int reps) {
  WorkloadResult result;
  result.name = name;
  result.unfused = RunLeg(pipe, test, /*fusion=*/false, reps);
  result.fused = RunLeg(pipe, test, /*fusion=*/true, reps);
  std::printf(
      "%-8s fit %.3fs -> %.3fs  apply %.4fs -> %.4fs  "
      "regions=%d  avoided=%s  chunk-peak=%s\n",
      name.c_str(), result.unfused.fit_wall, result.fused.fit_wall,
      result.unfused.apply_wall, result.fused.apply_wall,
      static_cast<int>(result.fused.fused_regions),
      HumanBytes(result.fused.bytes_avoided).c_str(),
      HumanBytes(result.fused.chunk_resident_max).c_str());
  KS_CHECK(result.fused.output_digest == result.unfused.output_digest)
      << name << ": fused and unfused outputs differ";
  KS_CHECK(result.fused.report_text == result.unfused.report_text)
      << name << ": fused and unfused plan reports differ";
  return result;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string LegJson(const LegResult& r) {
  return "{\"fit_wall_seconds\":" + Num(r.fit_wall) +
         ",\"apply_wall_seconds\":" + Num(r.apply_wall) +
         ",\"fused_regions\":" + Num(r.fused_regions) +
         ",\"intermediate_bytes_avoided\":" + Num(r.bytes_avoided) +
         ",\"chunk_resident_bytes_max\":" + Num(r.chunk_resident_max) + "}";
}

int Run(int argc, char** argv) {
  bench::ObsSession session("fusion", argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 5 : 20;

  std::printf("=== operator fusion: chunked streaming vs whole-dataset ===\n");
  std::vector<WorkloadResult> results;
  {
    workloads::TextCorpus corpus = workloads::AmazonLike(
        smoke ? 600 : 3000, smoke ? 200 : 1000, 40, 1200, 91);
    LinearSolverConfig solver;
    solver.num_classes = 2;
    solver.lbfgs_iterations = smoke ? 5 : 15;
    auto pipe =
        workloads::BuildAmazonPipeline(corpus, smoke ? 1500 : 4000, solver);
    results.push_back(
        RunWorkload("amazon", pipe, corpus.test_docs, reps));
  }
  {
    workloads::ImageCorpus corpus = workloads::TexturedImages(
        smoke ? 24 : 96, smoke ? 12 : 48, 32, 3, 4, 0.05, 93);
    LinearSolverConfig solver;
    solver.num_classes = 4;
    auto pipe = workloads::BuildCifarPipeline(corpus, 5, 3, 8, solver);
    results.push_back(RunWorkload("cifar", pipe, corpus.test, reps));
  }

  std::string json = "[";
  bool gate_ok = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    json += (i == 0 ? "" : ",");
    json += "{\"workload\":\"" + r.name + "\",\"identical\":true,\"fused\":" +
            LegJson(r.fused) + ",\"unfused\":" + LegJson(r.unfused) + "}";
    // The CI gate: regions must be planned and executed, and the modeled
    // peak intermediate footprint must shrink (chunk-resident bytes below
    // the intermediates the unfused leg materializes).
    if (r.fused.fused_regions <= 0.0 || r.fused.bytes_avoided <= 0.0 ||
        r.fused.chunk_resident_max >= r.fused.bytes_avoided) {
      std::fprintf(stderr,
                   "bench_fusion: %s: no modeled memory reduction "
                   "(regions=%d avoided=%.0f chunk-peak=%.0f)\n",
                   r.name.c_str(), static_cast<int>(r.fused.fused_regions),
                   r.fused.bytes_avoided, r.fused.chunk_resident_max);
      gate_ok = false;
    }
  }
  json += "]";
  session.AddJsonField("fusion", json);

  if (smoke && !gate_ok) return 1;
  std::printf("fusion: byte-identity and memory gates %s\n",
              gate_ok ? "passed" : "FAILED");
  return 0;
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) { return keystone::Run(argc, argv); }
