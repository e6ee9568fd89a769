#include "src/optimizer/operator_optimizer.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace keystone {

PhysicalChoice ChooseOption(const OperatorBase& logical, const DataStats& stats,
                            const ClusterResourceDescriptor& r,
                            const obs::ProfileStore* history) {
  const int num_options = logical.NumOptions();
  KS_CHECK_GT(num_options, 0) << logical.Name() << " has no physical options";
  const double node_memory = r.memory_per_node_gb * 1e9;

  PhysicalChoice best;
  double best_seconds = std::numeric_limits<double>::infinity();
  double runner_up_seconds = std::numeric_limits<double>::infinity();
  bool any_feasible = false;
  double min_scratch = std::numeric_limits<double>::infinity();
  int min_scratch_index = 0;

  best.scored.reserve(static_cast<size_t>(num_options));
  for (int i = 0; i < num_options; ++i) {
    const std::shared_ptr<OperatorBase> option = logical.Option(i);
    const double scratch = option->ScratchMemoryBytes(stats, r.num_nodes);
    CostProfile cost = option->EstimateCost(stats, r.num_nodes);
    bool from_history = false;
    if (history != nullptr) {
      const auto observed = history->ObservedFor(option->Name(), stats);
      if (observed.has_value()) {
        cost = *observed;
        from_history = true;
        ++best.history_corrected;
      }
    }
    const double seconds = r.SecondsFor(cost);
    const bool feasible = scratch <= node_memory;

    obs::OptionScore score;
    score.option_index = i;
    score.name = option->Name();
    score.cost = cost;
    score.estimated_seconds = seconds;
    score.scratch_bytes = scratch;
    score.feasible = feasible;
    score.from_history = from_history;
    best.scored.push_back(std::move(score));

    if (scratch < min_scratch) {
      min_scratch = scratch;
      min_scratch_index = i;
    }
    if (feasible && seconds < best_seconds) {
      runner_up_seconds = best_seconds;
      best_seconds = seconds;
      best.option_index = i;
      best.estimated_seconds = seconds;
      any_feasible = true;
    } else if (feasible && seconds < runner_up_seconds) {
      runner_up_seconds = seconds;
    }
  }
  if (!any_feasible) {
    // The smallest footprint wins, priced as it was scored (from history
    // when the store corrected it).
    best.option_index = min_scratch_index;
    best.estimated_seconds =
        best.scored[static_cast<size_t>(min_scratch_index)].estimated_seconds;
    best.feasible = false;
  } else if (std::isfinite(runner_up_seconds) && best_seconds > 0) {
    best.margin = runner_up_seconds / best_seconds - 1.0;
  }
  return best;
}

}  // namespace keystone
