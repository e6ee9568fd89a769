#ifndef KEYSTONE_SIM_VIRTUAL_TIME_H_
#define KEYSTONE_SIM_VIRTUAL_TIME_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/sim/cost_profile.h"
#include "src/sim/resources.h"

namespace keystone {

/// Accumulates simulated (virtual) cluster time, broken down by named stage.
/// Operators execute their real kernels in-process; the time the same work
/// would take on the configured cluster is charged here. This is the ledger
/// every benchmark reads its numbers from. Charging is thread-safe so
/// operators running on the worker pool may charge concurrently; when a
/// metrics registry is attached every charge is also counted and sized
/// there (`ledger.charges`, `ledger.charge_seconds`).
class VirtualTimeLedger {
 public:
  explicit VirtualTimeLedger(const ClusterResourceDescriptor& resources)
      : resources_(resources) {}

  /// Charges the estimated seconds for a critical-path cost profile.
  double Charge(const std::string& stage, const CostProfile& cost);

  /// Charges a raw number of virtual seconds. The charge must be finite
  /// and non-negative (KS_CHECK): a NaN/infinite/negative charge would
  /// silently corrupt TotalSeconds() and every report built from it. When
  /// a metrics registry is attached, the `ledger.total_seconds` gauge
  /// tracks the running total (and is reset to 0 by Reset()).
  void ChargeSeconds(const std::string& stage, double seconds) EXCLUDES(mu_);

  /// Total virtual seconds across all stages.
  double TotalSeconds() const EXCLUDES(mu_);

  /// Virtual seconds charged to one stage.
  double StageSeconds(const std::string& stage) const EXCLUDES(mu_);

  /// Per-stage breakdown in insertion order.
  std::vector<std::pair<std::string, double>> Breakdown() const EXCLUDES(mu_);

  const ClusterResourceDescriptor& resources() const { return resources_; }

  /// Attaches a metrics registry (nullptr detaches).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  void Reset() EXCLUDES(mu_);

  std::string ToString() const EXCLUDES(mu_);

 private:
  ClusterResourceDescriptor resources_;
  /// Ranked below the metrics stripes: a charge may fan out into the
  /// metrics registry, never the other way around (see LockRank).
  mutable Mutex mu_{kLockRankLedger};
  std::vector<std::string> stage_order_ GUARDED_BY(mu_);
  std::map<std::string, double> stage_seconds_ GUARDED_BY(mu_);
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Makespan (seconds) of independent tasks greedily list-scheduled over
/// `slots` parallel workers, longest-processing-time-first. Used to simulate
/// a distributed stage made of per-partition tasks (and the fault layer's
/// straggler model). An empty task list returns 0 for any slot count;
/// scheduling a non-empty list on `slots <= 0` or passing a negative or
/// non-finite task duration KS_CHECK-fails with a clear message.
double StageMakespan(const std::vector<double>& task_seconds, int slots);

}  // namespace keystone

#endif  // KEYSTONE_SIM_VIRTUAL_TIME_H_
