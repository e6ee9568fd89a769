#include "src/obs/decision_log.h"

#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/string_util.h"

namespace keystone {
namespace obs {

namespace {

void AppendCostJson(std::ostringstream* out, const CostProfile& cost) {
  *out << "{\"flops\":" << JsonNumber(cost.flops)
       << ",\"bytes\":" << JsonNumber(cost.bytes)
       << ",\"network\":" << JsonNumber(cost.network)
       << ",\"rounds\":" << JsonNumber(cost.rounds) << "}";
}

}  // namespace

void OptimizerDecisionLog::RecordSelection(SelectionDecision decision) {
  MutexLock lock(&mu_);
  selections_.push_back(std::move(decision));
}

void OptimizerDecisionLog::RecordCseGroup(CseMergeGroup group) {
  MutexLock lock(&mu_);
  cse_groups_.push_back(std::move(group));
}

void OptimizerDecisionLog::RecordMaterializationStep(MaterializationStep step) {
  MutexLock lock(&mu_);
  ledger_.push_back(std::move(step));
}

void OptimizerDecisionLog::RecordMaterializationSummary(
    MaterializationSummary summary) {
  MutexLock lock(&mu_);
  summary_ = std::move(summary);
  summary_.recorded = true;
}

void OptimizerDecisionLog::RecordRecovery(RecoveryDecision decision) {
  MutexLock lock(&mu_);
  recoveries_.push_back(std::move(decision));
}

void OptimizerDecisionLog::RecordFusionCandidate(FusionCandidate candidate) {
  MutexLock lock(&mu_);
  fusion_.push_back(std::move(candidate));
}

void OptimizerDecisionLog::RecordFusionDecision(FusionDecision decision) {
  MutexLock lock(&mu_);
  fusion_decisions_.push_back(std::move(decision));
}

void OptimizerDecisionLog::RecordReuseDecision(ReuseDecision decision) {
  MutexLock lock(&mu_);
  reuse_decisions_.push_back(std::move(decision));
}

std::vector<SelectionDecision> OptimizerDecisionLog::Selections() const {
  MutexLock lock(&mu_);
  return selections_;
}

std::vector<CseMergeGroup> OptimizerDecisionLog::CseGroups() const {
  MutexLock lock(&mu_);
  return cse_groups_;
}

std::vector<MaterializationStep> OptimizerDecisionLog::MaterializationLedger()
    const {
  MutexLock lock(&mu_);
  return ledger_;
}

MaterializationSummary OptimizerDecisionLog::Summary() const {
  MutexLock lock(&mu_);
  return summary_;
}

std::vector<RecoveryDecision> OptimizerDecisionLog::Recoveries() const {
  MutexLock lock(&mu_);
  return recoveries_;
}

std::vector<FusionCandidate> OptimizerDecisionLog::FusionCandidates() const {
  MutexLock lock(&mu_);
  return fusion_;
}

std::vector<FusionDecision> OptimizerDecisionLog::FusionDecisions() const {
  MutexLock lock(&mu_);
  return fusion_decisions_;
}

std::vector<ReuseDecision> OptimizerDecisionLog::ReuseDecisions() const {
  MutexLock lock(&mu_);
  return reuse_decisions_;
}

ReuseDecision OptimizerDecisionLog::AcceptedReuse(int node_id) const {
  MutexLock lock(&mu_);
  for (const ReuseDecision& decision : reuse_decisions_) {
    if (decision.accepted && decision.node_id == node_id) return decision;
  }
  KS_CHECK(false) << "node " << node_id << " has no accepted reuse decision";
  return ReuseDecision();
}

bool OptimizerDecisionLog::Empty() const {
  MutexLock lock(&mu_);
  return selections_.empty() && cse_groups_.empty() && ledger_.empty() &&
         !summary_.recorded && recoveries_.empty();
}

void OptimizerDecisionLog::Clear() {
  MutexLock lock(&mu_);
  selections_.clear();
  cse_groups_.clear();
  ledger_.clear();
  summary_ = MaterializationSummary();
  recoveries_.clear();
  fusion_.clear();
  fusion_decisions_.clear();
  reuse_decisions_.clear();
}

std::string OptimizerDecisionLog::ToString() const {
  MutexLock lock(&mu_);
  std::ostringstream out;
  out << "Optimizer decision log\n";
  out << "  operator selection (" << selections_.size() << " decisions):\n";
  for (const auto& d : selections_) {
    out << "    node " << d.node_id << " [" << d.node_name << "] -> option "
        << d.chosen_option << " (" << HumanSeconds(d.chosen_seconds)
        << ", margin " << JsonNumber(d.margin * 100.0) << "%"
        << (d.from_store ? ", from store" : "") << ")\n";
    for (const auto& o : d.options) {
      out << "      option " << o.option_index << " [" << o.name << "] "
          << HumanSeconds(o.estimated_seconds) << " scratch "
          << HumanBytes(o.scratch_bytes)
          << (o.feasible ? "" : " INFEASIBLE")
          << (o.from_history ? " (history)" : "") << "\n";
    }
  }
  out << "  cse merge groups (" << cse_groups_.size() << "):\n";
  for (const auto& g : cse_groups_) {
    out << "    survivor " << g.survivor << " <-";
    for (int id : g.merged) out << " " << id;
    out << "  [" << g.fingerprint << "]\n";
  }
  out << "  materialization ledger (" << ledger_.size() << " iterations):\n";
  for (const auto& s : ledger_) {
    out << "    iter " << s.iteration << ": budget "
        << HumanBytes(s.budget_before) << ", runtime "
        << HumanSeconds(s.runtime_before) << ", chose "
        << (s.chosen >= 0 ? "node " + std::to_string(s.chosen) : "nothing");
    if (s.chosen >= 0) {
      out << " (benefit " << HumanSeconds(s.benefit_seconds) << ", "
          << HumanBytes(s.remaining_budget) << " left)";
    }
    out << "\n";
    for (const auto& c : s.candidates) {
      out << "      candidate " << c.node_id << ": size "
          << HumanBytes(c.output_bytes)
          << (c.fits ? "" : " OVER BUDGET");
      if (c.evaluated) {
        out << ", benefit " << HumanSeconds(c.benefit_seconds);
      }
      out << "\n";
    }
  }
  if (summary_.recorded) {
    out << "  materialization summary: policy " << summary_.policy
        << ", budget " << HumanBytes(summary_.budget_bytes) << ", runtime "
        << HumanSeconds(summary_.initial_runtime) << " -> "
        << HumanSeconds(summary_.final_runtime) << ", "
        << summary_.cached_nodes << " nodes cached\n";
  }
  // Rendered only on faulted runs so fault-free reports keep their exact
  // pre-fault shape.
  if (!recoveries_.empty()) {
    out << "  fault recoveries (" << recoveries_.size() << "):\n";
    for (const auto& r : recoveries_) {
      out << "    node " << r.node_id << " [" << r.node_name << "] "
          << r.kind << " attempt " << r.attempt << ": "
          << (r.kind == "straggler"
                  ? "slow task"
                  : (r.cache_recovery ? "cache read" : "lineage recompute"))
          << ", wasted " << HumanSeconds(r.wasted_seconds) << ", backoff "
          << HumanSeconds(r.backoff_seconds) << ", recovery "
          << HumanSeconds(r.recovery_seconds) << "\n";
    }
  }
  // Rendered only when the dataflow analysis found chains, so reports from
  // unanalyzed plans keep their exact prior shape.
  if (!fusion_.empty()) {
    out << "  fusibility report (" << fusion_.size() << " chains):\n";
    for (const auto& f : fusion_) {
      out << "    " << f.path << " chain";
      for (size_t i = 0; i < f.nodes.size(); ++i) {
        out << (i == 0 ? " " : " -> ") << f.nodes[i];
        if (i < f.ops.size()) out << " [" << f.ops[i] << "]";
      }
      out << ": " << f.input_shape << " -> " << f.output_shape << "\n";
    }
  }
  // Rendered only when the FusionPass judged candidates, so pre-fusion
  // reports keep their exact prior shape.
  if (!fusion_decisions_.empty()) {
    out << "  fusion decisions (" << fusion_decisions_.size() << "):\n";
    for (const auto& d : fusion_decisions_) {
      out << "    candidate " << d.candidate_index << " [";
      for (size_t i = 0; i < d.nodes.size(); ++i) {
        if (i > 0) out << " -> ";
        out << d.nodes[i];
      }
      out << "]: ";
      if (d.accepted) {
        out << "fused as r" << d.region_id << ", saves "
            << HumanSeconds(d.est_saved_seconds) << " / "
            << HumanBytes(d.est_saved_bytes) << "\n";
      } else {
        out << "rejected (" << d.reason << ")\n";
      }
    }
  }
  // Rendered only when the ReusePass judged catalog matches, so reports
  // from catalog-free compiles keep their exact prior shape.
  if (!reuse_decisions_.empty()) {
    out << "  reuse decisions (" << reuse_decisions_.size() << "):\n";
    for (const auto& d : reuse_decisions_) {
      out << "    node " << d.node_id << " [" << d.node_name << "] ";
      if (d.accepted) {
        out << "reused from " << d.tier << " gen " << d.entry_generation
            << ": load " << HumanSeconds(d.load_seconds) << " vs recompute "
            << HumanSeconds(d.recompute_seconds);
        if (!d.pruned.empty()) {
          out << ", prunes";
          for (int id : d.pruned) out << " " << id;
        }
        out << "\n";
      } else {
        out << "rejected (" << d.reason << ")\n";
      }
    }
  }
  return out.str();
}

std::string OptimizerDecisionLog::ToJson() const {
  MutexLock lock(&mu_);
  std::ostringstream out;
  out << "{\"selections\":[";
  for (size_t i = 0; i < selections_.size(); ++i) {
    const auto& d = selections_[i];
    if (i) out << ",";
    out << "{\"node\":" << d.node_id << ",\"name\":\""
        << JsonEscape(d.node_name) << "\",\"fingerprint\":\""
        << JsonEscape(d.fingerprint) << "\",\"chosen\":" << d.chosen_option
        << ",\"seconds\":" << JsonNumber(d.chosen_seconds)
        << ",\"margin\":" << JsonNumber(d.margin)
        << ",\"from_store\":" << (d.from_store ? "true" : "false")
        << ",\"options\":[";
    for (size_t j = 0; j < d.options.size(); ++j) {
      const auto& o = d.options[j];
      if (j) out << ",";
      out << "{\"index\":" << o.option_index << ",\"name\":\""
          << JsonEscape(o.name) << "\",\"seconds\":"
          << JsonNumber(o.estimated_seconds)
          << ",\"scratch_bytes\":" << JsonNumber(o.scratch_bytes)
          << ",\"feasible\":" << (o.feasible ? "true" : "false")
          << ",\"from_history\":" << (o.from_history ? "true" : "false")
          << ",\"cost\":";
      AppendCostJson(&out, o.cost);
      out << "}";
    }
    out << "]}";
  }
  out << "],\"cse_groups\":[";
  for (size_t i = 0; i < cse_groups_.size(); ++i) {
    const auto& g = cse_groups_[i];
    if (i) out << ",";
    out << "{\"survivor\":" << g.survivor << ",\"fingerprint\":\""
        << JsonEscape(g.fingerprint) << "\",\"merged\":[";
    for (size_t j = 0; j < g.merged.size(); ++j) {
      if (j) out << ",";
      out << g.merged[j];
    }
    out << "]}";
  }
  out << "],\"materialization\":{\"steps\":[";
  for (size_t i = 0; i < ledger_.size(); ++i) {
    const auto& s = ledger_[i];
    if (i) out << ",";
    out << "{\"iteration\":" << s.iteration
        << ",\"budget_before\":" << JsonNumber(s.budget_before)
        << ",\"runtime_before\":" << JsonNumber(s.runtime_before)
        << ",\"chosen\":" << s.chosen
        << ",\"benefit_seconds\":" << JsonNumber(s.benefit_seconds)
        << ",\"remaining_budget\":" << JsonNumber(s.remaining_budget)
        << ",\"candidates\":[";
    for (size_t j = 0; j < s.candidates.size(); ++j) {
      const auto& c = s.candidates[j];
      if (j) out << ",";
      out << "{\"node\":" << c.node_id
          << ",\"output_bytes\":" << JsonNumber(c.output_bytes)
          << ",\"fits\":" << (c.fits ? "true" : "false")
          << ",\"evaluated\":" << (c.evaluated ? "true" : "false")
          << ",\"runtime_if_cached\":" << JsonNumber(c.runtime_if_cached)
          << ",\"benefit_seconds\":" << JsonNumber(c.benefit_seconds) << "}";
    }
    out << "]}";
  }
  out << "]";
  if (summary_.recorded) {
    out << ",\"summary\":{\"policy\":\"" << JsonEscape(summary_.policy)
        << "\",\"budget_bytes\":" << JsonNumber(summary_.budget_bytes)
        << ",\"initial_runtime\":" << JsonNumber(summary_.initial_runtime)
        << ",\"final_runtime\":" << JsonNumber(summary_.final_runtime)
        << ",\"cached_nodes\":" << summary_.cached_nodes << "}";
  }
  out << "}";
  // Faulted runs only: fault-free JSON keeps the pre-fault schema.
  if (!recoveries_.empty()) {
    out << ",\"recoveries\":[";
    for (size_t i = 0; i < recoveries_.size(); ++i) {
      const auto& r = recoveries_[i];
      if (i) out << ",";
      out << "{\"node\":" << r.node_id << ",\"name\":\""
          << JsonEscape(r.node_name) << "\",\"kind\":\""
          << JsonEscape(r.kind) << "\",\"attempt\":" << r.attempt
          << ",\"cache_recovery\":" << (r.cache_recovery ? "true" : "false")
          << ",\"wasted_seconds\":" << JsonNumber(r.wasted_seconds)
          << ",\"backoff_seconds\":" << JsonNumber(r.backoff_seconds)
          << ",\"recovery_seconds\":" << JsonNumber(r.recovery_seconds)
          << "}";
    }
    out << "]";
  }
  // Analyzed plans only: unanalyzed plans keep the pre-analysis schema.
  if (!fusion_.empty()) {
    out << ",\"fusion\":[";
    for (size_t i = 0; i < fusion_.size(); ++i) {
      const auto& f = fusion_[i];
      if (i) out << ",";
      out << "{\"path\":\"" << JsonEscape(f.path) << "\",\"nodes\":[";
      for (size_t j = 0; j < f.nodes.size(); ++j) {
        if (j) out << ",";
        out << f.nodes[j];
      }
      out << "],\"ops\":[";
      for (size_t j = 0; j < f.ops.size(); ++j) {
        if (j) out << ",";
        out << "\"" << JsonEscape(f.ops[j]) << "\"";
      }
      out << "],\"input_shape\":\"" << JsonEscape(f.input_shape)
          << "\",\"output_shape\":\"" << JsonEscape(f.output_shape) << "\"}";
    }
    out << "]";
  }
  // FusionPass runs only: pre-fusion JSON keeps the prior schema.
  if (!fusion_decisions_.empty()) {
    out << ",\"fusion_decisions\":[";
    for (size_t i = 0; i < fusion_decisions_.size(); ++i) {
      const auto& d = fusion_decisions_[i];
      if (i) out << ",";
      out << "{\"candidate\":" << d.candidate_index << ",\"nodes\":[";
      for (size_t j = 0; j < d.nodes.size(); ++j) {
        if (j) out << ",";
        out << d.nodes[j];
      }
      out << "],\"accepted\":" << (d.accepted ? "true" : "false")
          << ",\"region\":" << d.region_id << ",\"fingerprint\":\""
          << JsonEscape(d.fingerprint) << "\",\"est_saved_seconds\":"
          << JsonNumber(d.est_saved_seconds) << ",\"est_saved_bytes\":"
          << JsonNumber(d.est_saved_bytes) << ",\"reason\":\""
          << JsonEscape(d.reason) << "\"}";
    }
    out << "]";
  }
  // ReusePass runs only: catalog-free JSON keeps the prior schema.
  if (!reuse_decisions_.empty()) {
    out << ",\"reuse_decisions\":[";
    for (size_t i = 0; i < reuse_decisions_.size(); ++i) {
      const auto& d = reuse_decisions_[i];
      if (i) out << ",";
      out << "{\"node\":" << d.node_id << ",\"name\":\""
          << JsonEscape(d.node_name) << "\",\"fingerprint\":\""
          << JsonEscape(d.fingerprint) << "\",\"accepted\":"
          << (d.accepted ? "true" : "false") << ",\"tier\":\""
          << JsonEscape(d.tier) << "\",\"entry_bytes\":"
          << JsonNumber(d.entry_bytes) << ",\"entry_records\":"
          << d.entry_records << ",\"entry_generation\":" << d.entry_generation
          << ",\"load_seconds\":" << JsonNumber(d.load_seconds)
          << ",\"recompute_seconds\":" << JsonNumber(d.recompute_seconds)
          << ",\"pruned\":[";
      for (size_t j = 0; j < d.pruned.size(); ++j) {
        if (j) out << ",";
        out << d.pruned[j];
      }
      out << "],\"reason\":\"" << JsonEscape(d.reason) << "\"}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace obs
}  // namespace keystone
