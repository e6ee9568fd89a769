#include "src/sim/faults/fault_plan.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace keystone {
namespace faults {

double RetryPolicy::BackoffSeconds(int failed_attempt) const {
  KS_CHECK_GE(failed_attempt, 0);
  double backoff = backoff_base_seconds;
  for (int i = 0; i < failed_attempt; ++i) backoff *= backoff_multiplier;
  return backoff;
}

FaultDraw FaultPlan::DrawFor(int node_id, const std::string& fingerprint,
                             int attempt) const {
  FaultDraw draw;
  if (!Enabled()) return draw;
  // One private generator per (seed, node, attempt): draws are a pure
  // function of stable identity, independent of scheduling order.
  uint64_t key = SplitMix64(config_.seed);
  key = SplitMix64(key ^ Fnv1a(kFnvHistoricalOffsetBasis, fingerprint));
  key = SplitMix64(key ^ static_cast<uint64_t>(node_id));
  key = SplitMix64(key ^ static_cast<uint64_t>(attempt));
  Rng rng(key);

  // A single uniform decides the failure kind so the two rates partition
  // one interval: [0, loss) executor loss, [loss, loss + task) task failure.
  const double u = rng.NextDouble();
  if (u < config_.executor_loss_rate) {
    draw.fails = true;
    draw.executor_loss = true;
  } else if (u < config_.executor_loss_rate + config_.task_failure_rate) {
    draw.fails = true;
  }
  if (draw.fails) {
    // How far the attempt got before dying; drawn after the kind so the
    // fraction stream is independent of the rates.
    draw.fail_fraction = rng.Uniform(0.1, 0.9);
  }
  draw.straggler = rng.NextDouble() < config_.straggler_rate;
  return draw;
}

std::string FaultPlan::ToString() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "FaultPlan{seed=%llu, task=%.3g, exec_loss=%.3g, straggler=%.3g x%.2g, "
      "retries=%d, backoff=%.3gs x%.2g%s}",
      static_cast<unsigned long long>(config_.seed),
      config_.task_failure_rate, config_.executor_loss_rate,
      config_.straggler_rate, config_.straggler_multiplier,
      config_.retry.max_retries, config_.retry.backoff_base_seconds,
      config_.retry.backoff_multiplier,
      config_.speculative_execution ? ", spec-ex" : "");
  return buf;
}

}  // namespace faults
}  // namespace keystone
