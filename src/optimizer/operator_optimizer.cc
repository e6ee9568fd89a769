#include "src/optimizer/operator_optimizer.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace keystone {

namespace {

/// Generic selection over (cost, scratch) pairs.
template <typename Op>
PhysicalChoice ChooseOption(const std::vector<std::shared_ptr<Op>>& options,
                            const DataStats& stats,
                            const ClusterResourceDescriptor& r,
                            const obs::ProfileStore* history) {
  KS_CHECK(!options.empty());
  const double node_memory = r.memory_per_node_gb * 1e9;

  PhysicalChoice best;
  double best_seconds = std::numeric_limits<double>::infinity();
  double runner_up_seconds = std::numeric_limits<double>::infinity();
  bool any_feasible = false;
  double min_scratch = std::numeric_limits<double>::infinity();
  int min_scratch_index = 0;

  best.scored.reserve(options.size());
  for (size_t i = 0; i < options.size(); ++i) {
    const double scratch = options[i]->ScratchMemoryBytes(stats, r.num_nodes);
    CostProfile cost = options[i]->EstimateCost(stats, r.num_nodes);
    bool from_history = false;
    if (history != nullptr) {
      const auto observed = history->ObservedFor(options[i]->Name(), stats);
      if (observed.has_value()) {
        cost = *observed;
        from_history = true;
        ++best.history_corrected;
      }
    }
    const double seconds = r.SecondsFor(cost);
    const bool feasible = scratch <= node_memory;

    obs::OptionScore score;
    score.option_index = static_cast<int>(i);
    score.name = options[i]->Name();
    score.cost = cost;
    score.estimated_seconds = seconds;
    score.scratch_bytes = scratch;
    score.feasible = feasible;
    score.from_history = from_history;
    best.scored.push_back(std::move(score));

    if (scratch < min_scratch) {
      min_scratch = scratch;
      min_scratch_index = static_cast<int>(i);
    }
    if (feasible && seconds < best_seconds) {
      runner_up_seconds = best_seconds;
      best_seconds = seconds;
      best.option_index = static_cast<int>(i);
      best.estimated_seconds = seconds;
      any_feasible = true;
    } else if (feasible && seconds < runner_up_seconds) {
      runner_up_seconds = seconds;
    }
  }
  if (!any_feasible) {
    best.option_index = min_scratch_index;
    best.estimated_seconds =
        r.SecondsFor(options[min_scratch_index]->EstimateCost(stats,
                                                              r.num_nodes));
    best.feasible = false;
  } else if (std::isfinite(runner_up_seconds) && best_seconds > 0) {
    best.margin = runner_up_seconds / best_seconds - 1.0;
  }
  return best;
}

}  // namespace

PhysicalChoice ChooseTransformerOption(const OptimizableTransformer& logical,
                                       const DataStats& stats,
                                       const ClusterResourceDescriptor& r,
                                       const obs::ProfileStore* history) {
  return ChooseOption(logical.options(), stats, r, history);
}

PhysicalChoice ChooseEstimatorOption(const OptimizableEstimator& logical,
                                     const DataStats& stats,
                                     const ClusterResourceDescriptor& r,
                                     const obs::ProfileStore* history) {
  return ChooseOption(logical.options(), stats, r, history);
}

}  // namespace keystone
