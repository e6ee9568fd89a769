#ifndef KEYSTONE_OBS_PROFILE_STORE_H_
#define KEYSTONE_OBS_PROFILE_STORE_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/data/data_stats.h"
#include "src/sim/cost_profile.h"
#include "src/sim/resources.h"

namespace keystone {
namespace obs {

/// Aggregated observations of one physical operator at one scale bucket:
/// what the cost model predicted vs. what the kernel actually reported
/// (the cost an estimator's Fit returns), summed so averages can be formed.
struct OperatorObservation {
  std::string op;            // physical operator name
  int records_bucket = 0;    // floor(log2(records)); -1 when records == 0
  size_t dim = 0;            // feature dimension of the input
  double count = 0.0;        // number of observations aggregated
  double records_sum = 0.0;  // total records across observations
  CostProfile predicted_sum;
  CostProfile observed_sum;
  double wall_seconds_sum = 0.0;
};

/// One node's result from an execution-subsampling pass, keyed by
/// (node identity, sample size). Holds everything the materialization
/// planner's extrapolation needs, so a stored profile can stand in for
/// re-running the sampling pass on an identical workload.
struct NodeProfileRecord {
  double seconds = 0.0;          // modeled seconds at this sample size
  size_t records = 0;            // records that flowed during the pass
  double bytes_per_record = 0.0;
  size_t full_records = 0;       // full-scale records this node will see
  int chosen_option = -1;        // physical option picked (-1 = none)
};

/// Persistent store of observed per-(operator, scale) cost profiles and
/// per-node sampling profiles. The executor records into it during every
/// profiled run; on later runs the optimizer (a) corrects per-operator cost
/// estimates from observed history and (b) can skip the sampling passes
/// entirely when the store covers the pipeline
/// (OptimizationConfig::reuse_stored_profiles).
class ProfileStore {
 public:
  ProfileStore() = default;
  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  // --- Per-operator observed costs -------------------------------------

  /// Records one execution: predicted cost model output, kernel-observed
  /// cost, and real wall seconds, at the scale described by `in`.
  void RecordObservation(const std::string& op, const DataStats& in,
                         const CostProfile& predicted,
                         const CostProfile& observed, double wall_seconds);

  /// Average observed cost for `op`, rescaled to `in.num_records` via the
  /// stored per-record costs (coordination rounds are not scaled). Returns
  /// nullopt when the operator has no history.
  std::optional<CostProfile> ObservedFor(const std::string& op,
                                         const DataStats& in) const;

  size_t NumObservations() const;

  /// Every aggregated observation record, ordered by key (deterministic).
  /// This is the persisted predicted-vs-observed history the calibration
  /// report is built from on reuse_stored_profiles runs.
  std::vector<OperatorObservation> Observations() const;

  // --- Per-node sampling profiles --------------------------------------

  /// Stable key for one pipeline node at one sample size. `fingerprint` is
  /// the node's structural identity — operator kind, physical signature, and
  /// input cardinality (PhysicalPlan computes it) — so renaming a node
  /// neither misses nor mismatches stored profiles.
  static std::string NodeKey(const std::string& fingerprint,
                             size_t sample_size);

  void RecordNodeProfile(const std::string& key,
                         const NodeProfileRecord& record);
  std::optional<NodeProfileRecord> NodeProfileFor(const std::string& key)
      const;
  size_t NumNodeProfiles() const;

  // --- Persistence -------------------------------------------------------

  /// Plain-text format, one record per line; returns false on I/O failure.
  bool Save(const std::string& path) const;
  /// Replaces the store contents from `path`; false when unreadable/corrupt.
  bool Load(const std::string& path);

  /// Per-operator predicted-vs-observed error table (the
  /// bench_costmodel_accuracy view of the stored history): seconds under
  /// `r` for the average predicted and observed profile, and the relative
  /// error between them.
  std::string AccuracyReport(const ClusterResourceDescriptor& r) const;

  void Clear();

  /// Process-wide store; ExecContext records into this by default.
  static ProfileStore& Global();

 private:
  static int RecordsBucket(size_t records);

  mutable Mutex mu_{kLockRankProfileStore};
  // Keyed by "<op>|<bucket>|<dim>"; map keeps dumps deterministic.
  std::map<std::string, OperatorObservation> observations_ GUARDED_BY(mu_);
  std::map<std::string, NodeProfileRecord> node_profiles_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace keystone

#endif  // KEYSTONE_OBS_PROFILE_STORE_H_
