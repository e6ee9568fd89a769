// pipeline_lint: run every shipped workload pipeline through the static
// analysis layer (src/analysis), five times per workload — first the plan
// validator on the logical graph as submitted, then on the compiled
// PhysicalPlan IR (post-CSE graph plus the materialization plan), then the
// dataflow engine (shape/cardinality/effect inference with the shape.* /
// card.* / memory.* / effect.* rules), then the servable (apply-masked)
// view of the compiled plan, and finally a real fit: its servable view is
// re-checked against the fitted models (the check ServablePipeline runs
// before serving), and the workload is recompiled warm against the catalog
// the fit populated, held to the reuse.* rules — so a change that breaks an
// invariant, including one that would only abort at serve time or on a
// reuse-rewritten plan, is caught here as well as at fit time.
//
// Diagnostics are deduplicated (the stages re-derive overlapping findings)
// and sorted errors-first. A checked-in suppression baseline grandfathers
// known violations per (workload, rule): new violations fail, baselined
// ones don't.
//
// Exit status: 0 = clean, 1 = validation violations, 2 = internal error
// (bad usage, unreadable baseline, or a crash while compiling a workload).
//
// Usage: pipeline_lint [--strict] [--verbose] [--dot] [--baseline=FILE]
//   --strict         treat warnings as failures
//   --verbose        print every diagnostic, even for clean pipelines
//   --dot            dump each pipeline graph in Graphviz format
//   --baseline=FILE  suppression baseline ("workload rule" per line)

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/analysis/plan_validator.h"
#include "src/cache/artifact_catalog.h"
#include "src/core/executor.h"
#include "src/sim/resources.h"
#include "tools/shipped_workloads.h"

namespace keystone {
namespace {

bool TakeValue(const char* arg, const char* prefix, std::string* out) {
  const size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *out = arg + n;
  return true;
}

int Run(int argc, char** argv) {
  bool strict = false;
  bool verbose = false;
  bool dot = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      dot = true;
    } else if (TakeValue(argv[i], "--baseline=", &baseline_path)) {
    } else {
      std::fprintf(stderr,
                   "usage: pipeline_lint [--strict] [--verbose] [--dot] "
                   "[--baseline=FILE]\n");
      return 2;
    }
  }

  analysis::SuppressionBaseline baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "pipeline_lint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    baseline = analysis::SuppressionBaseline::Parse(text.str());
  }

  int failures = 0;
  for (const tools::ShippedWorkload& target : tools::ShippedWorkloads()) {
    analysis::ValidationReport report;
    int compiled_nodes = 0;
    try {
      // Stage 1: the logical graph as submitted, with unreachable-node
      // warnings on (the user-facing contract).
      analysis::PlanValidationOptions options;
      options.sink = target.sink;
      options.placeholder = target.placeholder;
      report = analysis::PlanValidator(options).Validate(*target.graph);

      // Stage 2: compile to the PhysicalPlan IR (validate_plans off so a
      // defect is reported here instead of aborting inside the pass
      // manager) and re-validate the optimized graph plus the cache plan.
      OptimizationConfig config = OptimizationConfig::Full();
      config.validate_plans = false;
      PipelineExecutor executor(ClusterResourceDescriptor::R3_4xlarge(4),
                                config);
      const auto plan =
          executor.Compile(*target.graph, target.placeholder, target.sink);
      compiled_nodes = plan->NumTrainNodes();
      analysis::PlanValidationOptions compiled_options;
      compiled_options.sink = plan->sink;
      compiled_options.placeholder = plan->placeholder;
      compiled_options.expect_cse = plan->cse_applied;
      compiled_options.warn_unreachable = false;  // CSE leaves duplicates
      const analysis::PlanValidator compiled_validator(compiled_options);
      report.Merge(compiled_validator.Validate(*plan->graph));
      if (plan->materialized) {
        report.Merge(compiled_validator.ValidatePlan(plan->planning_problem,
                                                     plan->cache_set));
      }

      // Stage 3: the dataflow engine — shape / cardinality / effect
      // inference plus the plan-level rules over the optimized IR.
      report.Merge(analysis::CheckDataflow(
          *plan, analysis::InferDataflow(*plan)));

      // Stage 4: the servable view — every shipped workload must strip to
      // a runtime path a PipelineServer could host (no train-only
      // terminals, no unbound sources inside the runtime mask).
      report.Merge(analysis::ValidateServablePlan(*plan));

      // Stage 5: fit once against a fresh memory-only catalog. The fitted
      // models must satisfy the servable view's model-input shapes — the
      // check ServablePipeline runs, which stage 4 cannot make without
      // models. Then the cross-run-reuse view: recompile warm so the
      // ReusePass rewrites the matched prefix into catalog reads, and hold
      // the rewritten plan to the reuse.* rules (structurally and against
      // the live catalog).
      cache::ArtifactCatalog catalog{cache::CatalogConfig{}};
      executor.context()->set_artifact_catalog(&catalog);
      const auto fitted = executor.FitGraph(*target.graph, target.placeholder,
                                            target.sink, nullptr);
      report.Merge(
          analysis::ValidateServablePlan(fitted->plan(), &fitted->models()));
      const auto warm_plan =
          executor.Compile(*target.graph, target.placeholder, target.sink);
      report.Merge(analysis::ValidateReuseMarkers(*warm_plan));
      report.Merge(cache::ValidateReuse(*warm_plan, catalog));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipeline_lint: %s: internal error: %s\n",
                   target.name.c_str(), e.what());
      return 2;
    }

    // The stages re-derive overlapping findings on the unchanged plan;
    // report each distinct diagnostic once, errors first, minus anything
    // the checked-in baseline grandfathers for this workload.
    report.Deduplicate();
    report = baseline.Filter(target.name, report);
    report.SortBySeverity();

    const bool failed = !report.ok() || (strict && report.warnings() > 0);
    if (failed) ++failures;
    std::printf("%-10s %-5s %3d nodes (%d compiled), %d errors, %d warnings\n",
                target.name.c_str(), failed ? "FAIL" : "ok",
                target.graph->size(), compiled_nodes, report.errors(),
                report.warnings());
    if ((failed || verbose) && !report.clean()) {
      for (const analysis::Diagnostic& diag : report.diagnostics()) {
        std::printf("    %s\n", diag.ToString().c_str());
      }
    }
    if (dot) std::printf("%s", target.graph->ToDot().c_str());
  }
  if (failures > 0) {
    std::printf("pipeline_lint: %d pipeline(s) failed validation\n",
                failures);
    return 1;
  }
  std::printf("pipeline_lint: all pipelines clean\n");
  return 0;
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) { return keystone::Run(argc, argv); }
