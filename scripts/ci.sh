#!/usr/bin/env bash
# CI entry point: repo lint, tier-1 verification with warnings-as-errors,
# a build of the perfbench wall-clock benchmark plus its arithmetic tests
# and a one-second self-checked run of each of its workloads,
# the pipeline_lint static-analysis pass, the explain observability pass
# (decision provenance + calibration over every shipped workload), the
# serving smoke gate (determinism + batching-throughput checks), the
# cross-run reuse smoke gate (warm-catalog grid search byte-identity +
# >= 2x cumulative-makespan win), the fusion smoke gate (operator_fusion on
# vs off byte-identity + modeled memory reduction), then a sanitizer
# matrix running the full suite under each sanitizer.
#
#   scripts/ci.sh                  # lint + tier-1 + ASan, UBSan, TSan legs
#   scripts/ci.sh --no-sanitizers  # lint + tier-1 only (alias: --no-asan)
#   scripts/ci.sh --smoke          # lint + build + the serving/telemetry,
#                                  # reuse and fusion perf gates only (fast
#                                  # perf-trajectory check)
#   KEYSTONE_SANITIZE=thread scripts/ci.sh            # custom legs
#   KEYSTONE_SANITIZE="address undefined" scripts/ci.sh
#
# The thread leg runs the labeled concurrency suites (the thread pool itself,
# the PlanRunner branch scheduler on that pool, the fault-replay layer that
# fans out into ledger/metrics/trace from it, serving, telemetry, the
# catalog, the linear-algebra kernels that split a Cholesky or Gram over
# the kernel pool, and the operator suite, whose GMM fit runs its EM steps
# on that pool) rather than the full suite: that is where threads share
# state, and TSan slows the rest ~10x for no extra coverage.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS="${KEYSTONE_SANITIZE:-address undefined thread}"
RUN_SANITIZED=1
SMOKE_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --no-sanitizers|--no-asan) RUN_SANITIZED=0 ;;
    --smoke) SMOKE_ONLY=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Serving smoke gate: serves two tenants across an arrival-rate sweep with
# the telemetry exporter attached; exits nonzero unless responses AND the
# telemetry JSONL stream are byte-identical across kernel-pool sizes,
# micro-batching beats per-request dispatch at saturation, error-budget
# shedding engages before the budget exhausts, and the hub's self-measured
# overhead stays under its gate. The emitted stream is then structurally
# validated by telemetry_report --strict, and BENCH_serving.json is diffed
# against the checked-in baseline so wall-time regressions >10% fail here
# instead of accumulating silently (widen via KEYSTONE_BENCH_TOLERANCE on
# noisy machines; regenerate the baseline when the workload itself
# changes).
serving_telemetry_gate() {
  echo "=== serving: bench_serving smoke gate (+ telemetry stream) ==="
  (cd build/bench && ./bench_serving --smoke --telemetry-out=telemetry_smoke.jsonl > /dev/null)
  echo "=== telemetry: telemetry_report --strict over the smoke stream ==="
  ./build/tools/telemetry_report --strict build/bench/telemetry_smoke.jsonl > /dev/null
  echo "=== perf trajectory: BENCH_serving.json vs checked-in baseline ==="
  python3 scripts/bench_compare.py \
    scripts/bench_baselines/BENCH_serving_smoke.json \
    build/bench/BENCH_serving.json
}

# Cross-run reuse gate: runs the 20-variant grid-search sweep cold vs warm
# against one shared ArtifactCatalog; the bench itself exits nonzero unless
# outputs stay byte-identical, every warm variant after the first serves
# nodes from the catalog, and the warm sweep's cumulative makespan beats the
# cold sweep by >= 2x. The emitted JSON is then diffed against the
# checked-in baseline like the serving gate.
tuning_reuse_gate() {
  echo "=== reuse: bench_tuning_reuse smoke gate ==="
  (cd build/bench && ./bench_tuning_reuse --smoke > /dev/null)
  echo "=== perf trajectory: BENCH_tuning_reuse.json vs checked-in baseline ==="
  python3 scripts/bench_compare.py \
    scripts/bench_baselines/BENCH_tuning_reuse_smoke.json \
    build/bench/BENCH_tuning_reuse.json
}

# Fusion gate: fits one text and one image workload with operator_fusion on
# and off (the one fusion switch; an unfused plan runs node by node); the
# bench exits nonzero unless the fused fits plan fused regions, stay
# byte-identical to the unfused fits, and shrink the modeled peak
# intermediate footprint. The emitted JSON is then diffed against the
# checked-in baseline like the serving gate.
fusion_gate() {
  echo "=== fusion: bench_fusion smoke gate ==="
  (cd build/bench && ./bench_fusion --smoke > /dev/null)
  echo "=== perf trajectory: BENCH_fusion.json vs checked-in baseline ==="
  python3 scripts/bench_compare.py \
    scripts/bench_baselines/BENCH_fusion_smoke.json \
    build/bench/BENCH_fusion.json
}

if [[ "$SMOKE_ONLY" == 1 ]]; then
  echo "=== lint: repo conventions ==="
  scripts/lint.sh
  echo "=== build (warnings-as-errors) ==="
  cmake -B build -S . -DKEYSTONE_WERROR=ON
  cmake --build build -j"$(nproc)"
  serving_telemetry_gate
  tuning_reuse_gate
  fusion_gate
  echo "CI SMOKE OK"
  exit 0
fi

echo "=== lint: repo conventions ==="
scripts/lint.sh

echo "=== tier-1: build (warnings-as-errors) + full test suite ==="
cmake -B build -S . -DKEYSTONE_WERROR=ON
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "=== benchmark: build perfbench + run its arithmetic tests ==="
# The wall-clock benchmark (perfbench/, run by perfbench/run.py) drives
# PlannedNode, PassManager and PlanRunner directly but has its own
# CMakeLists, so neither the build above nor ctest compiles it; a src/
# signature change would otherwise break the benchmark unnoticed.
cmake -S perfbench -B build/perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build/perfbench -j"$(nproc)" \
  --target perfbench_harness perfbench_math_test
./build/perfbench/perfbench_math_test

echo "=== benchmark: perfbench harness, 1 s per workload, untraced + traced ==="
# Runs each BENCHMARK.json workload briefly and fails unless the harness
# reports "correct":true and "failed":0. Its checks run nowhere else in CI:
# among them, the traced one-pass-at-a-time compile must match Compile, and
# tuning_warm's warm fits must be byte-identical to cold ones.
workloads=$(python3 -c 'import json
spec = json.load(open("BENCHMARK.json"))
print(" ".join(w["name"] for w in spec["workloads"]))')
for workload in $workloads; do
  for trace in 0 1; do
    result=$(./build/perfbench/perfbench_harness --workload "$workload" \
      --seed 1 --seconds 1 --trace "$trace" \
      --trace-dir build/perfbench/traces | tail -n 1)
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result"; then
      echo "perfbench $workload --trace $trace failed its checks: $result" >&2
      exit 1
    fi
  done
done

echo "=== static analysis: pipeline_lint over shipped workloads ==="
# Structural + dataflow rules (shape.*, card.*, memory.*, effect.*) over
# every shipped workload, minus the checked-in suppression baseline: new
# violations fail, grandfathered ones don't.
./build/tools/pipeline_lint --strict --baseline=scripts/analysis_baseline.txt

echo "=== static analysis: clang-tidy ==="
# performance-* findings block (the chunked executor's hot loops live or die
# on avoided copies); bugprone-/concurrency- findings stay advisory (|| true)
# so the blocking gates remain deterministic across toolchain versions.
if command -v clang-tidy > /dev/null 2>&1 && command -v python3 > /dev/null; then
  if command -v run-clang-tidy > /dev/null 2>&1; then
    echo "--- blocking: performance-* ---"
    perf_findings=$(run-clang-tidy -quiet -p build \
      -checks='-*,performance-*' 'src/.*\.cc$' 2> /dev/null | \
      grep -E "warning:|error:" | sort -u || true)
    if [[ -n "$perf_findings" ]]; then
      echo "$perf_findings"
      echo "clang-tidy performance-* findings above are blocking" >&2
      exit 1
    fi
    echo "--- advisory: bugprone-/concurrency- ---"
    run-clang-tidy -quiet -p build \
      -checks='-*,bugprone-*,concurrency-*' 'src/.*\.cc$' 2> /dev/null | \
      grep -E "warning:|error:" | sort -u || true
  else
    git diff --name-only HEAD~1 2>/dev/null | grep -E '^src/.*\.cc$' | \
      xargs -r clang-tidy -quiet -p build 2> /dev/null || true
  fi
else
  echo "clang-tidy not installed; skipping advisory leg"
fi

echo "=== observability: explain over shipped workloads ==="
# Compiles and fits all six shipped workloads, failing on an empty optimizer
# decision log, any non-finite cost-model calibration residual, or any live
# plan node whose statically inferred shape is still ⊤/⊥ — shipped
# workloads must infer concrete shapes end-to-end. --json keeps the gated
# output machine-checkable (and exercises the JSON emitter).
./build/tools/explain --strict --json > /dev/null

echo "=== fault injection: explain over a faulted run ==="
# The same gate with a fault schedule injected: recovery decisions must land
# in the decision log and the calibration must stay finite under retries.
./build/tools/explain --strict --fault-rate=0.3 --fault-seed=7 > /dev/null

serving_telemetry_gate

tuning_reuse_gate

fusion_gate

if [[ "$RUN_SANITIZED" == 1 ]]; then
  for sanitizer in $SANITIZERS; do
    echo "=== ${sanitizer} sanitizer pass (full suite) ==="
    # Debug keeps assertions — including the debug lock-order checker —
    # active under the sanitizers; RelWithDebInfo would strip them via
    # NDEBUG.
    cmake -B "build-${sanitizer}" -S . -DCMAKE_BUILD_TYPE=Debug \
      -DKEYSTONE_WERROR=ON -DKEYSTONE_SANITIZE="${sanitizer}"
    cmake --build "build-${sanitizer}" -j"$(nproc)"
    if [[ "$sanitizer" == thread ]]; then
      # common = the ThreadPool (caller-run ParallelFor, loops inside pool
      # tasks) and the annotated Mutex; runner = the PlanRunner branch
      # scheduler, which hands nodes to that pool; faults = the fault-replay
      # suite, whose ledger/metrics/trace fan-out runs inside that scheduler;
      # serve = the PipelineServer request path, which runs kernels on its
      # own pool while the event loop publishes obs state; telemetry = the
      # hub, recorded and ticked from the serving loop and the runner's
      # flush while the kernel pool runs batches and nodes (the hub starts
      # no thread of its own); catalog = the artifact
      # catalog, whose tiered store is read concurrently by branch-parallel
      # plan runs; kernels = the blocked Cholesky and Gram, whose packed
      # panels and row chunks are shared across the kernel pool's threads,
      # and the operator suite (ops_test), whose GMM fit splits its E step
      # into row chunks and its M step into components on that pool.
      (cd "build-${sanitizer}" && ctest -L 'common|runner|faults|serve|telemetry|catalog|kernels' --output-on-failure)
    else
      (cd "build-${sanitizer}" && ctest --output-on-failure -j"$(nproc)")
    fi
  done
fi

echo "CI OK"
