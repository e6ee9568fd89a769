#!/usr/bin/env bash
# Repo-convention linter (no external dependencies: bash + awk + grep).
#
# Checks, over src/ (every subsystem, including the later-added src/serve/
# and src/sim/ trees) plus tests/ bench/ examples/ tools/:
#   1. Header guards match the file path: src/core/executor.h must use
#      KEYSTONE_CORE_EXECUTOR_H_ (the src/ prefix is dropped; other roots
#      keep theirs, e.g. KEYSTONE_TESTS_TEST_OPERATORS_H_).
#   2. No `using namespace` at any scope inside headers.
#   3. No raw new/delete outside allocator code. Intentional leaks (the
#      process-global singletons) carry a `// NOLINT` marker; `= delete`
#      declarations are exempt.
#   4. #include lines are sorted within each contiguous block, angle
#      includes before quoted ones.
#   5. src/ reaches the process-global sinks (TraceRecorder, MetricsRegistry,
#      ProfileStore, ResourceTimeline, ThreadPool) only through ExecContext:
#      no `<Sink>::Global` outside src/core/exec_context.h (the context's
#      defaults) and the singleton's own definition.
#   6. ThreadPool is the only place src/ starts a thread: no std::thread or
#      std::jthread outside src/common/thread_pool.{h,cc} (comments aside;
#      std::thread::hardware_concurrency is allowed anywhere).
#   7. src/ reaches an operator's physical options only through
#      OperatorBase::NumOptions/Option: no dynamic_cast (or
#      dynamic_pointer_cast) to OptimizableTransformer, OptimizableEstimator
#      or Optimizable<...> outside src/core/operator.h.
#
# Exit status 1 when any check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
complain() {
  echo "lint: $1"
  fail=1
}

# Every subsystem the linter must see. Listing the src/ subtrees explicitly
# (instead of bare `find src`) makes a rename or split fail loudly here
# rather than silently dropping a directory out of lint coverage.
roots=(src/analysis src/baselines src/cache src/common src/core src/data
       src/linalg src/obs src/ops src/optimizer src/serve src/sim
       src/solvers src/tuning src/workloads tests bench tools examples)
for root in "${roots[@]}"; do
  [[ -d "$root" ]] || { echo "lint: missing expected directory $root"; exit 1; }
done
for dir in src/*/; do
  covered=0
  for root in "${roots[@]}"; do
    [[ "${dir%/}" == "$root" ]] && covered=1
  done
  [[ "$covered" == 1 ]] || {
    echo "lint: ${dir%/} is not in the lint root list — add it"; exit 1; }
done

mapfile -t headers < <(find "${roots[@]}" -name '*.h' | sort)
mapfile -t sources < <(find "${roots[@]}" \
  -name '*.h' -o -name '*.cc' -o -name '*.cpp' | sort)

# --- 1. Header guards -------------------------------------------------------
for h in "${headers[@]}"; do
  rel="${h#src/}"
  guard="KEYSTONE_$(echo "$rel" | tr '[:lower:]' '[:upper:]' \
    | sed 's%[/.-]%_%g')_"
  if ! grep -q "^#ifndef ${guard}\$" "$h"; then
    complain "$h: missing or wrong header guard (expected ${guard})"
  elif ! grep -q "^#define ${guard}\$" "$h"; then
    complain "$h: guard ${guard} is never #define'd"
  fi
done

# --- 2. using namespace in headers ------------------------------------------
for h in "${headers[@]}"; do
  while IFS= read -r hit; do
    complain "$h:${hit%%:*}: 'using namespace' in a header"
  done < <(grep -n "^[[:space:]]*using namespace" "$h" || true)
done

# --- 3. Raw new/delete ------------------------------------------------------
for f in "${sources[@]}"; do
  while IFS= read -r hit; do
    complain "$f:${hit} (mark intentional leaks with // NOLINT)"
  done < <(awk '
    $0 ~ /NOLINT/ { next }
    {
      line = $0
      sub(/\/\/.*/, "", line)          # strip trailing comments
      sub(/^[[:space:]]*\*.*/, "", line)  # block-comment continuation
      if (line ~ /=[[:space:]]*delete/) next
      if (line ~ /(^|[^[:alnum:]_.])new[[:space:]]+[A-Za-z_(]/ ||
          line ~ /(^|[^[:alnum:]_])delete([[:space:]]+[A-Za-z_*(]|\[\])/) {
        printf "%d: raw new/delete: %s\n", FNR, $0
      }
    }' "$f" || true)
done

# --- 4. #include ordering ---------------------------------------------------
for f in "${sources[@]}"; do
  while IFS= read -r hit; do
    complain "$f:${hit}"
  done < <(awk '
    function key(line) {
      # Angle includes sort before quoted includes within a block.
      if (line ~ /^#include[[:space:]]*</) return "0" line
      return "1" line
    }
    /^#include/ {
      k = key($0)
      if (in_block && k < prev) {
        printf "%d: include out of order: %s\n", FNR, $0
      }
      in_block = 1
      prev = k
      next
    }
    { in_block = 0 }' "$f" || true)
done

# --- 5. Process-global sinks only via ExecContext ---------------------------
declare -A sink_home=(
  [TraceRecorder]=src/obs/trace.cc
  [MetricsRegistry]=src/obs/metrics.cc
  [ProfileStore]=src/obs/profile_store.cc
  [ResourceTimeline]=src/obs/resource_timeline.cc
  [ThreadPool]=src/common/thread_pool.cc
)
for sink in "${!sink_home[@]}"; do
  while IFS= read -r hit; do
    file="${hit%%:*}"
    line="${hit#*:}"
    [[ "$file" == src/core/exec_context.h ]] && continue
    [[ "$file" == "${sink_home[$sink]}" ]] && continue
    complain "$file:${line%%:*}: ${sink}::Global outside ExecContext"
  done < <(grep -rnoE "\b${sink}::Global\b" src || true)
done

# --- 6. Threads start only in the ThreadPool --------------------------------
mapfile -t outside_pool < <(find src \( -name '*.h' -o -name '*.cc' \) \
  ! -path 'src/common/thread_pool.*' | sort)
while IFS= read -r hit; do
  complain "$hit (run the work on the ThreadPool)"
done < <(awk '
  {
    line = $0
    sub(/\/\/.*/, "", line)
    gsub(/std::thread::hardware_concurrency/, "", line)
    if (line ~ /std::j?thread([^[:alnum:]_]|$)/) {
      printf "%s:%d: std::thread outside src/common/thread_pool\n",
             FILENAME, FNR
    }
  }' "${outside_pool[@]}")

# --- 7. Physical options only through OperatorBase --------------------------
optimizable_cast='dynamic_(pointer_)?cast<[[:space:]]*(const[[:space:]]+)?'
optimizable_cast+='(OptimizableTransformer|OptimizableEstimator|Optimizable<)'
while IFS= read -r hit; do
  [[ "${hit%%:*}" == src/core/operator.h ]] && continue
  complain "${hit%:*}: cast to an Optimizable class (reach the options via \
OperatorBase::NumOptions/Option)"
done < <(grep -rnoE "$optimizable_cast" src || true)

if [[ "$fail" != 0 ]]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
