#include "src/sim/virtual_time.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

#include "src/common/check.h"
#include "src/common/string_util.h"

namespace keystone {

double VirtualTimeLedger::Charge(const std::string& stage,
                                 const CostProfile& cost) {
  const double seconds = resources_.SecondsFor(cost);
  ChargeSeconds(stage, seconds);
  return seconds;
}

void VirtualTimeLedger::ChargeSeconds(const std::string& stage,
                                      double seconds) {
  // Input hygiene: a NaN or infinite charge would silently corrupt
  // TotalSeconds() and every report derived from it (NaN also poisons all
  // later additions), and a negative charge would let a bad cost profile
  // claw time back. Fail loudly at the source instead.
  KS_CHECK(std::isfinite(seconds))
      << "non-finite virtual-time charge to stage '" << stage
      << "': " << seconds;
  KS_CHECK_GE(seconds, 0.0)
      << "negative virtual-time charge to stage '" << stage << "'";
  double total = 0.0;
  {
    MutexLock lock(&mu_);
    auto it = stage_seconds_.find(stage);
    if (it == stage_seconds_.end()) {
      stage_order_.push_back(stage);
      stage_seconds_[stage] = seconds;
    } else {
      it->second += seconds;
    }
    for (const auto& [_, s] : stage_seconds_) total += s;
  }
  if (metrics_ != nullptr) {
    metrics_->Increment("ledger.charges");
    metrics_->Observe("ledger.charge_seconds", seconds);
    metrics_->Set("ledger.total_seconds", total);
  }
}

double VirtualTimeLedger::TotalSeconds() const {
  MutexLock lock(&mu_);
  double total = 0.0;
  for (const auto& [_, s] : stage_seconds_) total += s;
  return total;
}

double VirtualTimeLedger::StageSeconds(const std::string& stage) const {
  MutexLock lock(&mu_);
  auto it = stage_seconds_.find(stage);
  return it == stage_seconds_.end() ? 0.0 : it->second;
}

std::vector<std::pair<std::string, double>> VirtualTimeLedger::Breakdown()
    const {
  MutexLock lock(&mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(stage_order_.size());
  for (const auto& name : stage_order_) {
    out.emplace_back(name, stage_seconds_.at(name));
  }
  return out;
}

void VirtualTimeLedger::Reset() {
  {
    MutexLock lock(&mu_);
    // Cleared together: Breakdown() iterates stage_order_ and indexes
    // stage_seconds_ by those names, so the two must never diverge.
    stage_order_.clear();
    stage_seconds_.clear();
  }
  // Keep any attached gauge coherent with the now-empty ledger.
  if (metrics_ != nullptr) metrics_->Set("ledger.total_seconds", 0.0);
}

std::string VirtualTimeLedger::ToString() const {
  std::ostringstream os;
  os << "VirtualTime{total=" << HumanSeconds(TotalSeconds());
  for (const auto& [name, s] : Breakdown()) {
    os << ", " << name << "=" << HumanSeconds(s);
  }
  os << "}";
  return os.str();
}

double StageMakespan(const std::vector<double>& task_seconds, int slots) {
  // An empty stage takes no time regardless of the slot count — checked
  // before the slots guard so callers scheduling zero tasks on a cluster
  // they haven't sized yet get 0, not an abort.
  if (task_seconds.empty()) return 0.0;
  KS_CHECK_GT(slots, 0) << "cannot schedule " << task_seconds.size()
                        << " tasks on a cluster with no worker slots";
  std::vector<double> sorted = task_seconds;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  // Min-heap of per-slot finish times.
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap;
  for (int i = 0; i < slots; ++i) heap.push(0.0);
  for (double t : sorted) {
    KS_CHECK(std::isfinite(t) && t >= 0.0)
        << "invalid task duration " << t << " in stage makespan";
    const double earliest = heap.top();
    heap.pop();
    heap.push(earliest + t);
  }
  double makespan = 0.0;
  while (!heap.empty()) {
    makespan = heap.top();
    heap.pop();
  }
  return makespan;
}

}  // namespace keystone
