#ifndef KEYSTONE_OPTIMIZER_OPERATOR_OPTIMIZER_H_
#define KEYSTONE_OPTIMIZER_OPERATOR_OPTIMIZER_H_

#include <vector>

#include "src/core/operator.h"
#include "src/data/data_stats.h"
#include "src/obs/decision_log.h"
#include "src/obs/profile_store.h"
#include "src/sim/resources.h"

namespace keystone {

/// Result of scoring one physical option.
struct PhysicalChoice {
  int option_index = 0;
  double estimated_seconds = 0.0;
  bool feasible = true;
  /// How many options were scored from observed history (a ProfileStore)
  /// rather than the a-priori cost model. ProfileAndSelectPass adds it to
  /// the context's "optimizer.history_corrected" counter.
  int history_corrected = 0;
  /// Winner's margin over the runner-up among feasible options
  /// (runner_up_seconds / winner_seconds - 1); 0 with a single candidate.
  double margin = 0.0;
  /// Every alternative with its score, in option order — the decision-log
  /// provenance for this choice.
  std::vector<obs::OptionScore> scored;
};

/// Picks the cheapest feasible physical implementation of an Optimizable
/// operator (transformer or estimator; NumOptions() > 0) given input
/// statistics and cluster resources (paper §3). Options whose scratch
/// memory exceeds per-node memory are infeasible; if every option is
/// infeasible the one with the smallest footprint wins. When `history` is
/// non-null, options with recorded observed costs are scored from that
/// history (rescaled to `stats`) instead of their cost model — the profile
/// store correcting the estimate.
PhysicalChoice ChooseOption(const OperatorBase& logical, const DataStats& stats,
                            const ClusterResourceDescriptor& r,
                            const obs::ProfileStore* history = nullptr);

}  // namespace keystone

#endif  // KEYSTONE_OPTIMIZER_OPERATOR_OPTIMIZER_H_
