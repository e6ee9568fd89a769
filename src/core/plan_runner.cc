#include "src/core/plan_runner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "src/analysis/plan_validator.h"
#include "src/cache/artifact_catalog.h"
#include "src/common/check.h"
#include "src/common/mutex.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/obs/metrics.h"
#include "src/obs/profile_store.h"
#include "src/sim/faults/fault_plan.h"

namespace keystone {

namespace {

/// Fails fast on an insane fault-injection config (rates outside [0, 1],
/// negative backoff, ...) before any node executes under it. Gated on the
/// plan's validate_plans flag, like every other static check.
void ValidateFaultPlan(const PhysicalPlan& plan, ExecContext* ctx) {
  if (ctx->fault_plan() == nullptr || !plan.config.validate_plans) return;
  const analysis::ValidationReport report =
      analysis::ValidateFaultConfig(ctx->fault_plan()->config());
  analysis::RecordDiagnostics(report, ctx->metrics());
  KS_CHECK(report.ok()) << "fault-injection config failed validation:\n"
                        << report.ToString();
}

/// Bit-exact replay of DistDataset::ComputeStats over per-record stat
/// triples buffered in partition-major record order — the same left-fold
/// over the same doubles the materialized intermediate would have produced,
/// so fused execution reports identical statistics without the dataset.
DataStats ReplayStats(const std::vector<std::vector<ElementStat>>& parts,
                      double scale) {
  DataStats stats;
  size_t real_records = 0;
  for (const auto& part : parts) real_records += part.size();
  stats.num_records = real_records;
  if (real_records == 0) return stats;
  double bytes = 0.0;
  double nnz = 0.0;
  size_t dim = 0;
  for (const auto& part : parts) {
    for (const ElementStat& s : part) {
      bytes += s.bytes;
      nnz += s.nnz;
      dim = std::max(dim, s.dim);
    }
  }
  stats.dim = dim;
  stats.bytes_per_record = bytes / real_records;
  stats.avg_nnz = nnz / real_records;
  stats.sparsity = dim > 0 ? stats.avg_nnz / static_cast<double>(dim) : 1.0;
  stats.num_records = static_cast<size_t>(real_records * scale);
  return stats;
}

/// One pass's ready set, shared with pool helpers by shared_ptr: a helper
/// that starts after the pass has returned finds nothing ready and exits.
struct ReadySet {
  /// Without helpers nodes run in id order (the serial reference); with
  /// them, first ready first run, so new branches start early.
  void Add(int id) REQUIRES(mu) {
    ready.emplace(max_helpers > 0 ? arrivals++ : static_cast<size_t>(id), id);
  }

  Mutex mu;
  CondVar changed;  // a node became ready, or none is running any more
  std::set<std::pair<size_t, int>> ready GUARDED_BY(mu);  // (order, id)
  size_t arrivals GUARDED_BY(mu) = 0;
  std::vector<int> pending_inputs GUARDED_BY(mu);  // unfinished deps
  size_t remaining GUARDED_BY(mu) = 0;  // nodes not yet finished
  size_t running GUARDED_BY(mu) = 0;    // taken and not yet finished
  size_t helpers GUARDED_BY(mu) = 0;    // submitted and not yet exited
  std::vector<std::vector<int>> successors;
  std::function<void(int)> run;  // executes one node
  ThreadPool* pool = nullptr;
  size_t max_helpers = 0;
};

/// Finishes `done` (if >= 0) and takes the next ready node (-1: none),
/// counting into `*spawn` a helper per further ready node, up to
/// max_helpers outstanding. The pass's own thread (`caller`) first waits
/// while nodes run on helpers — the only work it ever waits for.
int NextNode(ReadySet* s, int done, bool caller, size_t* spawn) {
  MutexLock lock(&s->mu);
  if (done >= 0) {
    --s->remaining;
    --s->running;
    for (int next : s->successors[done]) {
      if (--s->pending_inputs[next] == 0) s->Add(next);
    }
  }
  while (caller && s->ready.empty() && s->running > 0) {
    s->changed.Wait(&s->mu);
  }
  if (s->ready.empty()) {
    if (!caller) --s->helpers;
    if (s->running == 0) s->changed.NotifyOne();
    return -1;
  }
  const int id = s->ready.begin()->second;
  s->ready.erase(s->ready.begin());
  ++s->running;
  while (s->ready.size() > s->helpers && s->helpers < s->max_helpers) {
    ++s->helpers;
    ++*spawn;
  }
  if (!s->ready.empty()) s->changed.NotifyOne();
  return id;
}

/// Runs ready nodes until none is left for this thread.
void RunReadyNodes(const std::shared_ptr<ReadySet>& s, bool caller) {
  size_t spawn = 0;
  for (int id = NextNode(s.get(), -1, caller, &spawn); id >= 0;
       id = NextNode(s.get(), id, caller, &spawn)) {
    for (; spawn > 0; --spawn) {
      s->pool->Submit([s] { RunReadyNodes(s, /*caller=*/false); });
    }
    s->run(id);
  }
}

obs::TracePhase PhaseFor(ExecMode mode) {
  switch (mode) {
    case ExecMode::kProfileSmall:
      return obs::TracePhase::kProfileSmall;
    case ExecMode::kProfileLarge:
      return obs::TracePhase::kProfileLarge;
    case ExecMode::kFit:
      return obs::TracePhase::kTrain;
    case ExecMode::kApply:
      return obs::TracePhase::kEval;
  }
  return obs::TracePhase::kTrain;
}

}  // namespace

PlanRunner::PlanRunner(PhysicalPlan* plan, ExecContext* ctx)
    : plan_(plan), ctx_(ctx) {}

PlanRunner::NodeOutcome& PlanRunner::BeginOutcome(int id) {
  const PlannedNode& pn = plan_->nodes[id];
  NodeOutcome& out = outcomes_[id];
  out.executed = true;
  out.span.node_id = id;
  out.span.name = pn.name;
  out.span.kind = NodeKindName(pn.kind);
  out.span.phase = PhaseFor(mode_);
  return out;
}

std::shared_ptr<TransformerBase> PlanRunner::TransformerFor(
    const PlannedNode& pn) const {
  if (pn.kind != NodeKind::kApplyModel) return pn.physical_transformer;
  if (mode_ != ExecMode::kApply) return models_[pn.model_input];
  auto it = apply_models_->find(pn.model_input);
  return it == apply_models_->end() ? nullptr : it->second;
}

void PlanRunner::NameOperator(const PlannedNode& pn, const OperatorBase& op,
                              NodeOutcome* out) const {
  out->op_name = op.Name();
  out->span.physical =
      pn.kind == NodeKind::kApplyModel || mode_ == ExecMode::kApply
          ? out->op_name
          : pn.physical_name;
}

template <typename Invoke>
void PlanRunner::InvokeAndCharge(NodeOutcome* out, const DataStats& in_stats,
                                 double scale, Invoke invoke) {
  obs::TraceSpan& span = out->span;
  Timer timer;
  const std::optional<CostProfile> reported = invoke();
  span.wall_seconds = timer.ElapsedSeconds();
  // With a virtual scale, a reported cost describes the real (small) run,
  // so full-scale passes charge the cost model at the scaled statistics
  // instead. Profile passes run at sample scale and always trust it.
  const bool trusted = InProfileMode() || scale <= 1.0;
  span.observed = reported;
  span.used_observed = reported.has_value() && trusted;
  out->in_stats = in_stats;
  out->record_observation = trusted;
  out->charge_cost = span.used_observed ? *reported : span.predicted;
  if (InProfileMode()) {
    out->charge_cost.rounds = 0;  // Sample jobs skip full-cluster barriers.
  }
  out->seconds = ctx_->resources().SecondsFor(out->charge_cost);
}

void PlanRunner::ExecuteNode(int id) {
  // Region members already executed by a fused streaming pass.
  if (outcomes_[id].executed) return;
  const PlannedNode& pn = plan_->nodes[id];
  if (pn.fused_region >= 0 && !InProfileMode()) {
    const FusedRegion& region = plan_->fused_regions[pn.fused_region];
    // Only the head dispatches the region; on fallback every member runs
    // through the normal whole-dataset body below.
    if (region.nodes.front() == id && TryExecuteFusedRegion(region)) return;
  }
  const GraphNode& node = plan_->graph->node(id);
  const auto& resources = ctx_->resources();
  const bool profile = InProfileMode();
  NodeOutcome& out = BeginOutcome(id);
  obs::TraceSpan& span = out.span;

  // A node the ReusePass rewrote into a catalog read: fetch the stored
  // payload instead of computing. Fit mode only — profile passes run before
  // the ReusePass marks anything, and the runtime path never reuses. The
  // payload carries its own virtual scale (preserved by the codec), so no
  // rescaling happens here. Fetch is const on the catalog (no promotion, no
  // access-order update), so concurrent branches never race on it; the
  // entry's Touch lands in the id-ordered flush.
  if (mode_ == ExecMode::kFit && pn.reused) {
    cache::ArtifactCatalog* catalog = ctx_->artifact_catalog();
    KS_CHECK(catalog != nullptr)
        << "node " << pn.name << " marked reused without a catalog";
    Timer timer;
    outputs_[id] = catalog->Fetch(pn.lineage_fingerprint);
    span.wall_seconds = timer.ElapsedSeconds();
    KS_CHECK(outputs_[id] != nullptr)
        << "catalog entry vanished for node " << pn.name << " ("
        << pn.lineage_fingerprint << ")";
    out.out_stats = outputs_[id]->ComputeStats();
    const double per_node_bytes =
        out.out_stats.TotalBytes() / std::max(1, resources.num_nodes);
    const std::string tier = plan_->decision_log->AcceptedReuse(id).tier;
    span.physical = "catalog:" + tier;
    if (tier == "memory") {
      // Priced as a cluster-parallel memory scan of the stored bytes.
      out.charge_cost = CostProfile(0.0, per_node_bytes, 0.0);
      out.seconds = resources.SecondsFor(out.charge_cost);
    } else {
      // Disk reads are charged directly in disk seconds, like sources
      // (no CostProfile axis models disk bandwidth).
      out.seconds = resources.DiskReadSeconds(per_node_bytes);
    }
    span.predicted.bytes = per_node_bytes;
    span.partitions = outputs_[id]->NumPartitions();
    span.records_in = out.out_stats.num_records;
    out.sample_records = out.out_stats.num_records;
    return;
  }

  switch (pn.kind) {
    case NodeKind::kSource: {
      KS_CHECK(mode_ != ExecMode::kApply)
          << "unexpected " << NodeKindName(pn.kind) << " on the runtime path";
      if (profile) {
        Timer timer;
        outputs_[id] = node.bound_data->SamplePrefix(SampleSize());
        span.wall_seconds = timer.ElapsedSeconds();
      } else {
        outputs_[id] = node.bound_data;
      }
      out.out_stats = outputs_[id]->ComputeStats();
      out.seconds = resources.DiskReadSeconds(
          out.out_stats.TotalBytes() / std::max(1, resources.num_nodes));
      span.predicted.bytes =
          out.out_stats.TotalBytes() / std::max(1, resources.num_nodes);
      span.partitions = outputs_[id]->NumPartitions();
      span.records_in = out.out_stats.num_records;
      out.sample_records = out.out_stats.num_records;
      break;
    }
    case NodeKind::kTransformer:
    case NodeKind::kGather:
    case NodeKind::kApplyModel: {
      std::vector<AnyDataset> inputs;
      for (int dep : pn.inputs) {
        KS_CHECK(outputs_[dep] != nullptr)
            << "runtime node " << pn.name << " depends on train-only data";
        inputs.push_back(outputs_[dep]);
      }
      const double scale = inputs[0]->virtual_scale();
      const DataStats in_stats = inputs[0]->ComputeStats();
      if (profile && select_ != nullptr && pn.optimizable &&
          pn.chosen_option < 0) {
        select_(id, in_stats);  // may rewrite pn via SetChosenOption
      }
      const std::shared_ptr<TransformerBase> op = TransformerFor(pn);
      KS_CHECK(op != nullptr)
          << "node " << pn.name << " has no operator"
          << (pn.kind == NodeKind::kApplyModel
                  ? " (model node " + std::to_string(pn.model_input) +
                        " not fitted)"
                  : "");
      NameOperator(pn, *op, &out);
      span.predicted = op->EstimateCost(in_stats, resources.num_nodes);
      // No transformer reports a cost: apply nodes charge their prediction.
      InvokeAndCharge(&out, in_stats, scale,
                      [&]() -> std::optional<CostProfile> {
                        outputs_[id] = op->ApplyAny(inputs, ctx_);
                        return std::nullopt;
                      });
      if (!profile) outputs_[id]->set_virtual_scale(scale);
      out.out_stats = outputs_[id]->ComputeStats();
      span.partitions = outputs_[id]->NumPartitions();
      span.records_in = in_stats.num_records;
      out.sample_records = out.out_stats.num_records;
      break;
    }
    case NodeKind::kEstimator: {
      KS_CHECK(mode_ != ExecMode::kApply)
          << "unexpected " << NodeKindName(pn.kind) << " on the runtime path";
      const AnyDataset data = outputs_[pn.inputs[0]];
      const AnyDataset labels =
          pn.inputs.size() > 1 ? outputs_[pn.inputs[1]] : nullptr;
      const double scale = data->virtual_scale();
      const DataStats in_stats = data->ComputeStats();
      if (profile && select_ != nullptr && pn.optimizable &&
          pn.chosen_option < 0) {
        select_(id, in_stats);
      }
      const std::shared_ptr<EstimatorBase> est = pn.physical_estimator;
      NameOperator(pn, *est, &out);
      span.predicted = est->EstimateCost(in_stats, resources.num_nodes);
      InvokeAndCharge(&out, in_stats, scale, [&] {
        if (cost_only_[id]) {
          std::optional<CostProfile> cost = est->FitCostAny(data, labels, ctx_);
          span.fit_skipped = cost.has_value();
          if (span.fit_skipped) return cost;
        }
        Fitted<TransformerBase> fitted = est->FitAny(data, labels, ctx_);
        models_[id] = std::move(fitted.model);
        return fitted.cost;
      });
      span.partitions = data->NumPartitions();
      span.records_in = in_stats.num_records;
      out.sample_records = data->NumRecords();
      break;
    }
    case NodeKind::kPlaceholder:
      KS_CHECK(false) << "placeholder cannot be on the training path";
  }

  // Cost-profile sanity: a NaN or negative prediction would silently
  // poison the extrapolation and every plan derived from it.
  if (profile && plan_->config.validate_plans) {
    analysis::ValidationReport cost_report;
    analysis::CheckCostProfile(span.predicted, id, pn.name, &cost_report);
    if (span.observed.has_value()) {
      analysis::CheckCostProfile(*span.observed, id, pn.name + " (observed)",
                                 &cost_report);
    }
    KS_CHECK(cost_report.ok()) << cost_report.ToString();
  }
}

bool PlanRunner::TryExecuteFusedRegion(const FusedRegion& region) {
  const auto& resources = ctx_->resources();
  const int head = region.nodes.front();
  const int tail = region.nodes.back();
  const PlannedNode& head_pn = plan_->nodes[head];
  const AnyDataset input = outputs_[head_pn.inputs[0]];
  if (input == nullptr || input->NumPartitions() == 0) return false;

  // Resolve every member's operator up front; a single member without
  // chunked apply makes the whole region fall back (the FusionPass already
  // rejects such chains, but fitted models are only known at run time).
  const size_t k = region.nodes.size();
  std::vector<std::shared_ptr<TransformerBase>> ops;
  ops.reserve(k);
  for (int id : region.nodes) {
    std::shared_ptr<TransformerBase> op = TransformerFor(plan_->nodes[id]);
    if (op == nullptr || !op->SupportsChunkedApply()) return false;
    ops.push_back(std::move(op));
  }

  const double scale = input->virtual_scale();
  const size_t num_parts = input->NumPartitions();
  const size_t batch = std::max<size_t>(1, ctx_->exec_options().max_batch_size);

  // Stream chunks through the whole chain, one task per partition — the
  // same parallel grain as unfused ApplyAny. The head reads its slice of
  // the input in place; interior records never exist as a dataset: only
  // their ElementStat triples are buffered (for the stats replay) while the
  // tail's chunks are kept for reassembly.
  std::vector<std::vector<std::vector<ElementStat>>> interior_stats(
      k - 1, std::vector<std::vector<ElementStat>>(num_parts));
  std::vector<std::vector<AnyChunk>> tail_chunks(num_parts);
  std::vector<double> part_peak(num_parts, 0.0);
  Timer timer;
  ctx_->pool()->ParallelFor(num_parts, [&](size_t p) {
    const size_t psize = input->PartitionSize(p);
    size_t begin = 0;
    bool first = true;
    while (first || begin < psize) {
      first = false;
      const size_t count = std::min(batch, psize - begin);
      AnyChunk chunk = ops[0]->ApplySlice(*input, p, begin, count, ctx_);
      // Resident bytes counts the interior stages only — exactly the
      // intermediates the unfused style would materialize as datasets —
      // reusing the stat triples buffered for the replay.
      double resident = 0.0;
      for (size_t m = 0; m < k; ++m) {
        if (m > 0) chunk = ops[m]->ApplyChunk(chunk, ctx_);
        if (m + 1 < k) {
          std::vector<ElementStat>& stats = interior_stats[m][p];
          for (size_t i = 0; i < chunk->size(); ++i) {
            stats.push_back(chunk->StatOf(i));
            resident += stats.back().bytes;
          }
        }
      }
      tail_chunks[p].push_back(std::move(chunk));
      part_peak[p] = std::max(part_peak[p], resident);
      begin += count;
      if (count == 0) break;  // empty partition: one typed empty chunk
    }
  });
  const double wall = timer.ElapsedSeconds();

  // Reassemble the tail output serially, preserving the partition layout.
  std::unique_ptr<ChunkCollectorBase> collector;
  for (size_t p = 0; p < num_parts; ++p) {
    for (const AnyChunk& chunk : tail_chunks[p]) {
      if (collector == nullptr) {
        collector = chunk->MakeCollector();
        collector->Resize(num_parts);
      }
      collector->Append(p, chunk);
    }
  }
  KS_CHECK(collector != nullptr);  // every partition emits >= 1 chunk
  outputs_[tail] = collector->Finish();
  outputs_[tail]->set_virtual_scale(scale);

  // Fill each member's outcome exactly as unfused execution would have:
  // predictions from the (replayed) input stats, no observed costs, the
  // head's input stats computed from the materialized upstream dataset and
  // the tail's from the materialized output.
  DataStats in_stats = input->ComputeStats();
  NodeOutcome& head_out = outcomes_[head];
  head_out.fused_members = static_cast<int>(k);
  head_out.fused_chunk_peak_bytes = 0.0;
  for (size_t p = 0; p < num_parts; ++p) {
    head_out.fused_chunk_peak_bytes =
        std::max(head_out.fused_chunk_peak_bytes, part_peak[p]);
  }
  for (size_t m = 0; m < k; ++m) {
    const int id = region.nodes[m];
    NodeOutcome& out = BeginOutcome(id);
    obs::TraceSpan& span = out.span;
    NameOperator(plan_->nodes[id], *ops[m], &out);
    span.predicted = ops[m]->EstimateCost(in_stats, resources.num_nodes);
    span.wall_seconds = m == 0 ? wall : 0.0;
    span.observed = std::nullopt;
    span.used_observed = false;
    out.in_stats = in_stats;
    out.record_observation = scale <= 1.0;
    out.charge_cost = span.predicted;
    out.seconds = resources.SecondsFor(out.charge_cost);
    DataStats out_stats;
    if (m + 1 < k) {
      out_stats = ReplayStats(interior_stats[m], scale);
      head_out.fused_bytes_avoided += out_stats.TotalBytes();
    } else {
      out_stats = outputs_[tail]->ComputeStats();
    }
    out.out_stats = out_stats;
    span.partitions = num_parts;
    span.records_in = in_stats.num_records;
    out.sample_records = out_stats.num_records;
    in_stats = out_stats;
  }
  return true;
}

double PlanRunner::RecomputeChainSeconds(int id, bool respect_cache) const {
  const NodeOutcome& out = outcomes_[id];
  // Placeholder input on the runtime path: nothing of ours to recompute.
  if (!out.executed) return 0.0;
  if (respect_cache && mode_ == ExecMode::kFit && plan_->cache_set[id]) {
    // Materialized output: recovery re-reads it from cluster memory.
    return ctx_->resources().MemoryReadSeconds(
        out.out_stats.TotalBytes() /
        std::max(1, ctx_->resources().num_nodes));
  }
  double total = out.seconds;
  for (int dep : plan_->nodes[id].inputs) {
    total += RecomputeChainSeconds(dep, respect_cache);
  }
  return total;
}

void PlanRunner::SimulateFaults(int id) {
  const faults::FaultPlan* fault_plan = ctx_->fault_plan();
  // Profile passes run sample jobs on a clean cluster; faults only hit the
  // full-scale fit and apply passes.
  if (fault_plan == nullptr || !fault_plan->Enabled() || InProfileMode()) {
    return;
  }
  NodeOutcome& out = outcomes_[id];
  const PlannedNode& pn = plan_->nodes[id];

  faults::RecoveryContext rctx;
  rctx.node_id = id;
  rctx.fingerprint = pn.fingerprint;
  rctx.base_seconds = out.seconds;
  rctx.partitions = std::max<size_t>(1, out.span.partitions);
  rctx.slots = ctx_->resources().TotalSlots();
  bool inputs_materialized = !pn.inputs.empty();
  for (int dep : pn.inputs) {
    rctx.lineage_recovery_seconds +=
        RecomputeChainSeconds(dep, /*respect_cache=*/true);
    rctx.full_lineage_seconds +=
        RecomputeChainSeconds(dep, /*respect_cache=*/false);
    inputs_materialized = inputs_materialized &&
                          mode_ == ExecMode::kFit && plan_->cache_set[dep];
  }
  rctx.inputs_materialized = inputs_materialized;

  out.fault = faults::SimulateNodeFaults(*fault_plan, rctx);
  if (!out.fault.Any()) return;

  out.span.fault_attempts = out.fault.attempts;
  out.span.recovery_seconds = out.fault.overhead_seconds;
  for (const faults::FaultEvent& event : out.fault.events) {
    if (event.cache_recovery) out.span.cache_recovery = true;
  }
  if (out.fault.overhead_seconds > 0.0) {
    ctx_->ledger()->ChargeSeconds("Recovery", out.fault.overhead_seconds);
    if (ctx_->timeline() != nullptr) {
      ctx_->timeline()->RecordRecoverySeconds(
          obs::TracePhaseName(out.span.phase), id, pn.name,
          out.fault.overhead_seconds);
    }
  }
  if (ctx_->metrics() != nullptr) {
    obs::MetricsRegistry* metrics = ctx_->metrics();
    for (const faults::FaultEvent& event : out.fault.events) {
      metrics->Increment("faults.injected");
      switch (event.kind) {
        case faults::FaultEvent::Kind::kTaskFailure:
          metrics->Increment("faults.task_failures");
          metrics->Increment("faults.retries");
          break;
        case faults::FaultEvent::Kind::kExecutorLoss:
          metrics->Increment("faults.executor_losses");
          metrics->Increment("faults.retries");
          break;
        case faults::FaultEvent::Kind::kStraggler:
          metrics->Increment("faults.stragglers");
          break;
      }
    }
    if (out.fault.retries_exhausted) {
      metrics->Increment("faults.retries_exhausted");
    }
    metrics->Observe("faults.recovery_seconds", out.fault.overhead_seconds);
  }
  for (const faults::FaultEvent& event : out.fault.events) {
    obs::RecoveryDecision decision;
    decision.node_id = id;
    decision.node_name = pn.name;
    decision.kind = faults::FaultEventKindName(event.kind);
    decision.attempt = event.attempt;
    decision.cache_recovery = event.cache_recovery;
    decision.wasted_seconds = event.wasted_seconds;
    decision.backoff_seconds = event.backoff_seconds;
    decision.recovery_seconds = event.recovery_seconds;
    plan_->decision_log->RecordRecovery(std::move(decision));
  }
}

void PlanRunner::FlushOutcome(int id) {
  NodeOutcome& out = outcomes_[id];
  if (!out.executed) return;
  PlannedNode& pn = plan_->nodes[id];

  if (mode_ == ExecMode::kApply) {
    out.span.virtual_seconds = ctx_->ledger()->Charge("Eval", out.charge_cost);
  } else {
    out.span.virtual_seconds = out.seconds;
  }
  out.span.output_bytes = out.out_stats.TotalBytes();
  if (mode_ == ExecMode::kFit) out.span.cached = plan_->cache_set[id];

  // Fault replay must run inside this serial, id-ordered flush: the draws
  // are order-independent by construction, but the ledger/metrics/trace
  // effects below have to land in the same order for every schedule.
  SimulateFaults(id);

  if (InProfileMode()) {
    ProfileEntry& entry = pn.profile;
    if (mode_ == ExecMode::kProfileLarge) {
      entry.seconds_large = out.seconds;
      entry.records_large = out.sample_records;
    } else {
      entry.seconds_small = out.seconds;
      entry.records_small = out.sample_records;
    }
    entry.bytes_per_record = out.out_stats.bytes_per_record;
    entry.full_records = pn.full_records;
    if (ctx_->profile_store() != nullptr) {
      obs::NodeProfileRecord record;
      record.seconds = out.seconds;
      record.records = out.sample_records;
      record.bytes_per_record = entry.bytes_per_record;
      record.full_records = entry.full_records;
      record.chosen_option = pn.chosen_option;
      ctx_->profile_store()->RecordNodeProfile(
          obs::ProfileStore::NodeKey(pn.fingerprint, SampleSize()), record);
    }
  }

  if (out.record_observation && out.span.observed.has_value() &&
      ctx_->profile_store() != nullptr) {
    ctx_->profile_store()->RecordObservation(
        out.op_name.empty() ? pn.name : out.op_name, out.in_stats,
        out.span.predicted, *out.span.observed, out.span.wall_seconds);
  }
  if (ctx_->timeline() != nullptr) {
    obs::ResourceTimeline* timeline = ctx_->timeline();
    const char* phase = obs::TracePhaseName(out.span.phase);
    if (pn.kind == NodeKind::kSource ||
        (pn.reused &&
         plan_->decision_log->AcceptedReuse(id).tier != "memory")) {
      // Source loads and disk-tier catalog reads are charged directly in
      // disk seconds (no CostProfile axis models disk bandwidth).
      timeline->RecordDiskSeconds(phase, id, pn.name, out.seconds);
    } else {
      timeline->RecordNodeCost(phase, id, pn.name, out.charge_cost,
                               ctx_->resources());
    }
    if (!InProfileMode()) {
      // Cache accounting: each data dependency either hits the materialized
      // set (fit mode only — apply recomputes the runtime path) or misses;
      // apply-model nodes additionally fetch their fitted model, which is
      // always materialized.
      for (int dep : pn.inputs) {
        const bool hit = mode_ == ExecMode::kFit && plan_->cache_set[dep];
        timeline->RecordCacheAccess(hit);
        if (ctx_->metrics() != nullptr) {
          ctx_->metrics()->Increment(hit ? "exec.cache_hits"
                                         : "exec.cache_misses");
        }
      }
      if (pn.kind == NodeKind::kApplyModel) {
        timeline->RecordCacheAccess(true);
        if (ctx_->metrics() != nullptr) {
          ctx_->metrics()->Increment("exec.cache_hits");
        }
      }
      if (mode_ == ExecMode::kFit && plan_->cache_set[id]) {
        timeline->RecordResidentBytes(out.out_stats.TotalBytes());
      }
    }
  }
  if (ctx_->metrics() != nullptr) {
    ctx_->metrics()->Increment(std::string("exec.spans.") +
                               obs::TracePhaseName(out.span.phase));
    ctx_->metrics()->Observe("exec.wall_seconds", out.span.wall_seconds);
    if (out.fused_members > 0) {
      ctx_->metrics()->Increment("exec.fused.regions");
      ctx_->metrics()->Increment("exec.fused.members", out.fused_members);
      ctx_->metrics()->Increment("exec.fused.intermediate_bytes_avoided",
                                 out.fused_bytes_avoided);
      ctx_->metrics()->Observe("exec.fused.chunk_resident_bytes",
                               out.fused_chunk_peak_bytes);
    }
  }
  // Catalog write-through happens here, inside the serial id-ordered flush:
  // Touch (access-order update) and Put (insert + possible eviction) are
  // the catalog's only mutations during a fit, so runs on every pool size
  // leave byte-identical catalog state.
  if (mode_ == ExecMode::kFit && ctx_->artifact_catalog() != nullptr) {
    cache::ArtifactCatalog* catalog = ctx_->artifact_catalog();
    if (pn.reused) {
      catalog->Touch(pn.lineage_fingerprint);
      if (ctx_->metrics() != nullptr) {
        ctx_->metrics()->Increment(
            plan_->decision_log->AcceptedReuse(id).tier == "memory"
                ? "catalog.hits.memory"
                : "catalog.hits.disk");
      }
    } else if (catalog_publish_[id] && outputs_[id] != nullptr) {
      const bool stored = catalog->Put(
          pn.lineage_fingerprint, outputs_[id], out.out_stats.TotalBytes(),
          out.out_stats.num_records,
          RecomputeChainSeconds(id, /*respect_cache=*/false));
      if (stored && ctx_->metrics() != nullptr) {
        ctx_->metrics()->Increment("catalog.puts");
      }
    }
  }
  if (ctx_->telemetry() != nullptr) {
    // Windowed series mirror the cumulative metrics above. This runs in
    // the serial id-ordered flush, so the series land in the same order
    // for every schedule — the telemetry stream inherits the runner's
    // byte-identity guarantee.
    obs::TelemetryHub* telemetry = ctx_->telemetry();
    telemetry->Count(std::string("exec.nodes.") +
                     obs::TracePhaseName(out.span.phase));
    telemetry->Observe("exec.node_seconds", out.span.virtual_seconds);
    if (out.fault.overhead_seconds > 0.0) {
      telemetry->Count("exec.recovery_seconds", out.fault.overhead_seconds);
    }
  }
  const obs::TracePhase phase = out.span.phase;
  if (ctx_->tracer() != nullptr) ctx_->tracer()->Record(std::move(out.span));

  // One dedicated span per injected fault event, laid on the phase timeline
  // right after the node span it hit. Only faulted runs emit these.
  if (ctx_->tracer() != nullptr) {
    for (const faults::FaultEvent& event : out.fault.events) {
      obs::TraceSpan rspan;
      rspan.node_id = id;
      rspan.name = pn.name;
      rspan.kind = "recovery";
      rspan.physical = faults::FaultEventKindName(event.kind);
      rspan.phase = phase;
      rspan.fault_attempts = event.attempt + 1;
      rspan.cache_recovery = event.cache_recovery;
      rspan.recovery_seconds = event.wasted_seconds + event.backoff_seconds +
                               event.recovery_seconds;
      rspan.virtual_seconds = rspan.recovery_seconds;
      ctx_->tracer()->Record(std::move(rspan));
    }
  }
}

void PlanRunner::Schedule(const std::vector<int>& exec_ids) {
  const int n = plan_->graph->size();
  std::vector<bool> in_set(n, false);
  for (int id : exec_ids) in_set[id] = true;
  auto s = std::make_shared<ReadySet>();
  s->successors.resize(n);
  std::vector<int> pending_inputs(n, 0);
  for (int id : exec_ids) {
    for (int dep : plan_->graph->Dependencies(id)) {
      if (in_set[dep]) {
        ++pending_inputs[id];
        s->successors[dep].push_back(id);
      }
    }
  }
  // A fused region executes wholesale at its head's schedule slot, so the
  // head additionally waits on every non-head member's region-external
  // dependencies (in practice: fitted models). In-region deps are already
  // ordered by the chain itself and would only create cycles here.
  for (int id : exec_ids) {
    const PlannedNode& pn = plan_->nodes[id];
    if (pn.fused_region < 0) continue;
    const FusedRegion& region = plan_->fused_regions[pn.fused_region];
    if (region.nodes.front() != id) continue;
    std::vector<bool> in_region(n, false);
    for (int member : region.nodes) in_region[member] = true;
    for (int member : region.nodes) {
      if (member == id) continue;
      for (int dep : plan_->graph->Dependencies(member)) {
        if (in_set[dep] && !in_region[dep]) {
          ++pending_inputs[id];
          s->successors[dep].push_back(id);
        }
      }
    }
  }
  s->run = [this](int id) { ExecuteNode(id); };
  s->pool = ctx_->pool();
  // Profile passes stay on the calling thread, in id order, so operator
  // selection sees every upstream choice before it samples a node.
  s->max_helpers = InProfileMode() ? 0 : s->pool->num_threads() - 1;
  {
    MutexLock lock(&s->mu);
    for (int id : exec_ids) {
      if (pending_inputs[id] == 0) s->Add(id);
    }
    s->pending_inputs = std::move(pending_inputs);
    s->remaining = exec_ids.size();
  }
  RunReadyNodes(s, /*caller=*/true);
  MutexLock lock(&s->mu);
  KS_CHECK(s->remaining == 0)
      << "plan scheduler stalled (cyclic dependencies?)";
}

void PlanRunner::RunPass(const std::vector<int>& exec_ids,
                         const AnyDataset& runtime_input) {
  ValidateFaultPlan(*plan_, ctx_);
  const int n = plan_->graph->size();
  outputs_.assign(n, nullptr);
  models_.assign(n, nullptr);
  outcomes_.assign(n, NodeOutcome());
  if (runtime_input != nullptr) outputs_[plan_->placeholder] = runtime_input;
  Schedule(exec_ids);
  for (int id : exec_ids) FlushOutcome(id);
  if (ctx_->telemetry() != nullptr) {
    // The ledger total is the run's virtual clock: ticking here closes
    // every window this pass's charges crossed.
    ctx_->telemetry()->Tick(ctx_->ledger()->TotalSeconds());
  }
}

RunResult PlanRunner::Run(ExecMode mode, const SelectHook& select) {
  KS_CHECK(mode != ExecMode::kApply) << "use RunApply for the runtime path";
  mode_ = mode;
  select_ = select;
  apply_models_ = nullptr;
  const int n = plan_->graph->size();

  std::vector<int> exec_ids;
  for (int id = 0; id < n; ++id) {
    // Nodes pruned by cross-run reuse are fully covered by reused
    // descendants; the fit pass never runs them (profile passes precede the
    // ReusePass, so the markers are never set there).
    if (plan_->nodes[id].train && !plan_->nodes[id].reuse_pruned) {
      exec_ids.push_back(id);
    }
  }

  // Publication set for the catalog write-through: pure-lineage transformer
  // and gather outputs this fit computes (reused nodes are refreshed via
  // Touch instead). Decided once here so the id-ordered flush stays cheap.
  catalog_publish_.assign(n, false);
  if (mode == ExecMode::kFit && ctx_->artifact_catalog() != nullptr) {
    const std::vector<bool> pure = PureLineageMask(*plan_);
    for (int id : exec_ids) {
      const PlannedNode& pn = plan_->nodes[id];
      catalog_publish_[id] =
          pure[id] && !pn.reused &&
          (pn.kind == NodeKind::kTransformer || pn.kind == NodeKind::kGather);
    }
  }

  // Sampling exists to cost nodes (§4.1). A train estimator no train node
  // consumes, as input or as model, is terminal: its sample model is never
  // read, so it is charged without fitting wherever it can be costed.
  cost_only_.assign(n, false);
  if (InProfileMode()) {
    for (int id : exec_ids) {
      cost_only_[id] = plan_->nodes[id].kind == NodeKind::kEstimator;
    }
    for (int id : exec_ids) {
      const PlannedNode& pn = plan_->nodes[id];
      for (int dep : pn.inputs) cost_only_[dep] = false;
      if (pn.model_input >= 0) cost_only_[pn.model_input] = false;
    }
  }

  if (mode == ExecMode::kFit && ctx_->timeline() != nullptr) {
    ctx_->timeline()->NoteCacheBudget(plan_->cache_budget_bytes);
  }

  RunPass(exec_ids, nullptr);

  RunResult result;
  result.node_seconds.assign(n, 0.0);
  result.out_stats.assign(n, DataStats());
  result.recovery_seconds.assign(n, 0.0);
  for (int id : exec_ids) {
    result.node_seconds[id] = outcomes_[id].seconds;
    result.out_stats[id] = outcomes_[id].out_stats;
    result.recovery_seconds[id] = outcomes_[id].fault.overhead_seconds;
    if (models_[id] != nullptr) result.models[id] = models_[id];
  }
  return result;
}

AnyDataset PlanRunner::RunApply(
    const AnyDataset& input,
    const std::map<int, std::shared_ptr<TransformerBase>>& models) {
  KS_CHECK(plan_->placeholder >= 0) << "plan has no runtime placeholder";
  mode_ = ExecMode::kApply;
  select_ = nullptr;
  apply_models_ = &models;
  std::vector<int> exec_ids;
  for (int id = 0; id < plan_->graph->size(); ++id) {
    if (plan_->nodes[id].runtime) exec_ids.push_back(id);
  }
  RunPass(exec_ids, input);
  KS_CHECK(outputs_[plan_->sink] != nullptr);
  return outputs_[plan_->sink];
}

void PlanRunner::EmitSyntheticProfileSpans(ExecMode mode) {
  KS_CHECK(mode == ExecMode::kProfileSmall || mode == ExecMode::kProfileLarge);
  const bool large = mode == ExecMode::kProfileLarge;
  for (const PlannedNode& pn : plan_->nodes) {
    if (!pn.train) continue;
    obs::TraceSpan span;
    span.node_id = pn.id;
    span.name = pn.name;
    span.kind = NodeKindName(pn.kind);
    span.phase = PhaseFor(mode);
    span.synthetic = true;
    span.physical = pn.physical_name;
    span.records_in =
        large ? pn.profile.records_large : pn.profile.records_small;
    span.virtual_seconds =
        large ? pn.profile.seconds_large : pn.profile.seconds_small;
    span.output_bytes =
        pn.profile.bytes_per_record * static_cast<double>(span.records_in);
    if (ctx_->metrics() != nullptr) {
      ctx_->metrics()->Increment(std::string("exec.spans.") +
                                 obs::TracePhaseName(span.phase));
      ctx_->metrics()->Increment("exec.spans.synthetic");
    }
    if (ctx_->tracer() != nullptr) ctx_->tracer()->Record(std::move(span));
  }
}

}  // namespace keystone
