#include "src/obs/telemetry.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"

namespace keystone {
namespace obs {

bool TraceSampler::Sample(const std::string& tenant,
                          uint64_t request_id) const {
  if (rate_ >= 1.0) return true;
  if (rate_ <= 0.0) return false;
  // The fault layer's seeded-draw recipe (src/sim/faults): hash the stable
  // identity, mix with SplitMix64, derive a uniform draw — so sampling
  // decisions are reproducible across runs and machines.
  uint64_t key = SplitMix64(seed_);
  key = SplitMix64(key ^ Fnv1a(kFnvHistoricalOffsetBasis, tenant));
  key = SplitMix64(key ^ request_id);
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(key >> 11) * 0x1.0p-53;
  return u < rate_;
}

std::string FormatWindowSnapshot(const TelemetryWindowSnapshot& snapshot) {
  static const HistogramBuckets kEmptyHist;
  std::string line;
  line.reserve(256);
  line += "{\"epoch\":";
  line += std::to_string(snapshot.epoch);
  line += ",\"window\":";
  line += std::to_string(snapshot.window);
  line += ",\"start\":";
  line += JsonNumber(snapshot.start_seconds);
  line += ",\"end\":";
  line += JsonNumber(snapshot.end_seconds);
  line += ",\"series\":[";
  bool first = true;
  for (const TelemetrySeriesSnapshot& series : snapshot.series) {
    if (!first) line += ',';
    first = false;
    line += "{\"name\":\"";
    line += JsonEscape(*series.name);
    line += "\",";
    switch (series.kind) {
      case TelemetrySeriesKind::kCounter:
        line += "\"kind\":\"counter\",\"delta\":";
        line += JsonNumber(series.delta);
        line += ",\"rate\":";
        line += JsonNumber(series.delta / snapshot.window_seconds);
        line += ",\"total\":";
        line += JsonNumber(series.total);
        line += '}';
        break;
      case TelemetrySeriesKind::kGauge:
        line += "\"kind\":\"gauge\",\"value\":";
        line += JsonNumber(series.gauge_value);
        line += '}';
        break;
      case TelemetrySeriesKind::kHistogram: {
        // Sliding tallies: merge this window with every trailing ring
        // window the capture retained. Merging buckets (not quantiles)
        // keeps the sliding p50/p99/p999 exact with respect to the
        // bucketed data.
        const HistogramBuckets& w =
            series.window_hist != nullptr ? *series.window_hist : kEmptyHist;
        HistogramBuckets sliding = w;
        size_t merged = series.window_hist != nullptr ? 1 : 0;
        for (const auto& part : series.sliding_parts) {
          sliding.Merge(*part);
          ++merged;
        }
        line += "\"kind\":\"histogram\",\"count\":";
        line += std::to_string(w.count);
        line += ",\"sum\":";
        line += JsonNumber(w.sum);
        line += ",\"mean\":";
        line += JsonNumber(w.Mean());
        line += ",\"min\":";
        line += JsonNumber(w.Min());
        line += ",\"max\":";
        line += JsonNumber(w.Max());
        line += ",\"p50\":";
        line += JsonNumber(w.Quantile(0.50));
        line += ",\"p90\":";
        line += JsonNumber(w.Quantile(0.90));
        line += ",\"p99\":";
        line += JsonNumber(w.Quantile(0.99));
        line += ",\"p999\":";
        line += JsonNumber(w.Quantile(0.999));
        line += ",\"sliding_windows\":";
        line += std::to_string(merged);
        line += ",\"sliding_count\":";
        line += std::to_string(sliding.count);
        line += ",\"sliding_p50\":";
        line += JsonNumber(sliding.Quantile(0.50));
        line += ",\"sliding_p99\":";
        line += JsonNumber(sliding.Quantile(0.99));
        line += ",\"sliding_p999\":";
        line += JsonNumber(sliding.Quantile(0.999));
        line += '}';
        break;
      }
    }
  }
  line += "]}";
  return line;
}

TelemetryJsonlWriter::TelemetryJsonlWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) return;
  thread_ = std::thread([this] { Loop(); });
}

TelemetryJsonlWriter::~TelemetryJsonlWriter() {
  if (file_ == nullptr) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  thread_.join();
  std::fclose(file_);
}

// Appends deliberately do NOT notify the writer thread: a futex wake per
// window would cost the recording path more than the enqueue itself. The
// writer polls on a short deadline instead (and Flush/shutdown notify).

void TelemetryJsonlWriter::AppendRaw(std::string text) {
  if (file_ == nullptr) return;
  MutexLock lock(&mu_);
  queue_.push_back(Item{std::move(text), nullptr});
}

void TelemetryJsonlWriter::AppendSnapshot(
    std::shared_ptr<const TelemetryWindowSnapshot> snapshot) {
  if (file_ == nullptr) return;
  MutexLock lock(&mu_);
  queue_.push_back(Item{std::string(), std::move(snapshot)});
}

void TelemetryJsonlWriter::Flush() {
  if (file_ == nullptr) return;
  MutexLock lock(&mu_);
  work_cv_.NotifyAll();
  // The writer thread fflushes after every drain, so an empty queue with
  // no write in flight means everything appended so far is durable.
  while (!queue_.empty() || writing_) {
    drained_cv_.Wait(&mu_);
  }
}

void TelemetryJsonlWriter::Loop() {
  // Poll deadline: the longest an enqueued snapshot waits before the
  // writer picks it up (wall time; invisible to the virtual-time stream).
  constexpr double kDrainSeconds = 0.005;
  for (;;) {
    std::deque<Item> batch;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !stop_) {
        work_cv_.WaitFor(&mu_, kDrainSeconds);
      }
      if (queue_.empty() && stop_) return;
      batch.swap(queue_);
      writing_ = true;
    }
    for (const Item& item : batch) {
      // Snapshot items are formatted here, on the writer thread, so the
      // recording path never pays serialization costs.
      const std::string text = item.snapshot != nullptr
                                   ? FormatWindowSnapshot(*item.snapshot)
                                   : item.raw;
      std::fwrite(text.data(), 1, text.size(), file_);
      std::fputc('\n', file_);
    }
    std::fflush(file_);
    {
      MutexLock lock(&mu_);
      writing_ = false;
      if (queue_.empty()) drained_cv_.NotifyAll();
    }
  }
}

TelemetryHub::TelemetryHub(TelemetryOptions options)
    : options_(options) {
  KS_CHECK_GT(options_.window_seconds, 0.0);
  KS_CHECK_GT(options_.ring_windows, 0u);
}

TelemetryHub::~TelemetryHub() = default;

TelemetryHub::Series& TelemetryHub::GetSeries(const std::string& name,
                                              TelemetrySeriesKind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    auto series = std::make_unique<Series>();
    series->kind = kind;
    registry_.push_back(std::move(series));
    it = index_.emplace(name, registry_.size() - 1).first;
    registry_.back()->name = &it->first;
  }
  return GetSeriesById(it->second, kind);
}

TelemetryHub::Series& TelemetryHub::GetSeriesById(SeriesId id,
                                                  TelemetrySeriesKind kind) {
  KS_CHECK_LT(id, registry_.size());
  Series& series = *registry_[id];
  KS_CHECK(series.kind == kind)
      << "telemetry series '" << *series.name
      << "' already registered with a different kind";
  if (!series.live) {
    // Retired by a CloseEpoch: revive from zeroed per-epoch state.
    series.live = true;
    series.window_delta = 0.0;
    series.total = 0.0;
    series.gauge_value = 0.0;
    series.window_hist = nullptr;
    series.ring.clear();
  }
  return series;
}

TelemetryHub::SeriesId TelemetryHub::RegisterSeries(const std::string& name,
                                                    TelemetrySeriesKind kind) {
  MutexLock lock(&mu_);
  auto it = index_.find(name);
  if (it == index_.end()) {
    auto series = std::make_unique<Series>();
    series->kind = kind;
    registry_.push_back(std::move(series));
    it = index_.emplace(name, registry_.size() - 1).first;
    registry_.back()->name = &it->first;
  }
  // Registration alone does not revive the series: it stays invisible to
  // snapshots until the first record touches it.
  KS_CHECK(registry_[it->second]->kind == kind)
      << "telemetry series '" << name
      << "' already registered with a different kind";
  return it->second;
}

// The recording entry points share a 1-in-N sampled stopwatch: timing
// every op would itself be a measurable fraction of the op's cost, so one
// call in kOverheadSampleEvery is timed and scaled back up. Each sample
// pairs the op interval with a back-to-back null interval (two clock reads
// with nothing between them, taken at the same call site an instant
// earlier) and bills the difference: the null interval measures the
// in-situ cost of the stopwatch itself — including cold-cache clock reads
// the hot loop would never pay — so the act of measuring is subtracted
// out under the same cache conditions it was incurred in, rather than via
// a constant calibrated in a warm loop.

void TelemetryHub::Count(const std::string& name, double delta) {
  if (!SampleStopwatch(&record_ops_)) {
    MutexLock lock(&mu_);
    CountSeries(GetSeries(name, TelemetrySeriesKind::kCounter), delta);
    return;
  }
  Timer null_probe;
  Timer timer;
  const double null_cost = null_probe.ElapsedSeconds();
  MutexLock lock(&mu_);
  CountSeries(GetSeries(name, TelemetrySeriesKind::kCounter), delta);
  record_overhead_ +=
      static_cast<double>(kOverheadSampleEvery) *
      std::min(kOverheadSampleClampSeconds,
               std::max(0.0, timer.ElapsedSeconds() - null_cost));
}

void TelemetryHub::CountId(SeriesId id, double delta) {
  if (!SampleStopwatch(&record_ops_)) {
    MutexLock lock(&mu_);
    CountSeries(GetSeriesById(id, TelemetrySeriesKind::kCounter), delta);
    return;
  }
  Timer null_probe;
  Timer timer;
  const double null_cost = null_probe.ElapsedSeconds();
  MutexLock lock(&mu_);
  CountSeries(GetSeriesById(id, TelemetrySeriesKind::kCounter), delta);
  record_overhead_ +=
      static_cast<double>(kOverheadSampleEvery) *
      std::min(kOverheadSampleClampSeconds,
               std::max(0.0, timer.ElapsedSeconds() - null_cost));
}

void TelemetryHub::SetGauge(const std::string& name, double value) {
  if (!SampleStopwatch(&record_ops_)) {
    MutexLock lock(&mu_);
    SetGaugeSeries(GetSeries(name, TelemetrySeriesKind::kGauge), value);
    return;
  }
  Timer null_probe;
  Timer timer;
  const double null_cost = null_probe.ElapsedSeconds();
  MutexLock lock(&mu_);
  SetGaugeSeries(GetSeries(name, TelemetrySeriesKind::kGauge), value);
  record_overhead_ +=
      static_cast<double>(kOverheadSampleEvery) *
      std::min(kOverheadSampleClampSeconds,
               std::max(0.0, timer.ElapsedSeconds() - null_cost));
}

void TelemetryHub::SetGaugeId(SeriesId id, double value) {
  if (!SampleStopwatch(&record_ops_)) {
    MutexLock lock(&mu_);
    SetGaugeSeries(GetSeriesById(id, TelemetrySeriesKind::kGauge), value);
    return;
  }
  Timer null_probe;
  Timer timer;
  const double null_cost = null_probe.ElapsedSeconds();
  MutexLock lock(&mu_);
  SetGaugeSeries(GetSeriesById(id, TelemetrySeriesKind::kGauge), value);
  record_overhead_ +=
      static_cast<double>(kOverheadSampleEvery) *
      std::min(kOverheadSampleClampSeconds,
               std::max(0.0, timer.ElapsedSeconds() - null_cost));
}

void TelemetryHub::Observe(const std::string& name, double value) {
  if (!SampleStopwatch(&record_ops_)) {
    MutexLock lock(&mu_);
    ObserveSeries(GetSeries(name, TelemetrySeriesKind::kHistogram), value);
    return;
  }
  Timer null_probe;
  Timer timer;
  const double null_cost = null_probe.ElapsedSeconds();
  MutexLock lock(&mu_);
  ObserveSeries(GetSeries(name, TelemetrySeriesKind::kHistogram), value);
  record_overhead_ +=
      static_cast<double>(kOverheadSampleEvery) *
      std::min(kOverheadSampleClampSeconds,
               std::max(0.0, timer.ElapsedSeconds() - null_cost));
}

void TelemetryHub::ObserveId(SeriesId id, double value) {
  if (!SampleStopwatch(&record_ops_)) {
    MutexLock lock(&mu_);
    ObserveSeries(GetSeriesById(id, TelemetrySeriesKind::kHistogram), value);
    return;
  }
  Timer null_probe;
  Timer timer;
  const double null_cost = null_probe.ElapsedSeconds();
  MutexLock lock(&mu_);
  ObserveSeries(GetSeriesById(id, TelemetrySeriesKind::kHistogram), value);
  record_overhead_ +=
      static_cast<double>(kOverheadSampleEvery) *
      std::min(kOverheadSampleClampSeconds,
               std::max(0.0, timer.ElapsedSeconds() - null_cost));
}

void TelemetryHub::TickLocked(double now_seconds) {
  if (now_seconds <= now_) return;
  now_ = now_seconds;
  while (now_ >= WindowEnd(open_index_)) {
    if (!window_touched_) {
      // Nothing recorded since the last close: fast-forward straight to
      // the window containing `now_` instead of rolling one empty
      // window at a time (ledger-driven ticks can jump thousands of
      // windows at once).
      open_index_ = static_cast<uint64_t>(now_ / options_.window_seconds);
      break;
    }
    CloseOpenWindow();
  }
}

void TelemetryHub::Tick(double now_seconds) {
  if (!SampleStopwatch(&tick_ops_)) {
    MutexLock lock(&mu_);
    TickLocked(now_seconds);
    return;
  }
  Timer null_probe;
  Timer timer;
  const double null_cost = null_probe.ElapsedSeconds();
  MutexLock lock(&mu_);
  // Window closes time themselves fully into export_overhead_; subtract
  // that span so the scaled-up sample covers only the per-tick residual
  // (a sampled tick that happens to close windows must not count the
  // close 16x).
  const double export_before = export_overhead_;
  TickLocked(now_seconds);
  const double elapsed = timer.ElapsedSeconds() -
                         (export_overhead_ - export_before) - null_cost;
  if (elapsed > 0.0) {
    tick_overhead_ += static_cast<double>(kOverheadSampleEvery) *
                      std::min(kOverheadSampleClampSeconds, elapsed);
  }
}

void TelemetryHub::CloseOpenWindow() {
  Timer timer;
  // Capture a plain-data snapshot of the closing window and roll every
  // series into its next-window state in one pass. Histogram tallies are
  // moved (never copied) into immutable shared_ptrs, so the snapshot
  // costs reference bumps and pointer swaps — all formatting and
  // sliding-merge work is deferred to SnapshotJsonl()/the writer thread.
  auto snapshot = std::make_shared<TelemetryWindowSnapshot>();
  snapshot->epoch = epoch_;
  snapshot->window = open_index_;
  snapshot->start_seconds =
      static_cast<double>(open_index_) * options_.window_seconds;
  snapshot->end_seconds = WindowEnd(open_index_);
  snapshot->window_seconds = options_.window_seconds;
  snapshot->series.reserve(index_.size());
  for (const auto& [name, id] : index_) {
    (void)name;
    Series& series = *registry_[id];
    if (!series.live) continue;
    snapshot->series.emplace_back();
    TelemetrySeriesSnapshot& out = snapshot->series.back();
    out.name = series.name;
    out.kind = series.kind;
    switch (series.kind) {
      case TelemetrySeriesKind::kCounter:
        out.delta = series.window_delta;
        out.total = series.total;
        series.window_delta = 0.0;
        break;
      case TelemetrySeriesKind::kGauge:
        out.gauge_value = series.gauge_value;
        break;
      case TelemetrySeriesKind::kHistogram: {
        std::shared_ptr<const HistogramBuckets> closed;
        if (series.window_hist != nullptr && !series.window_hist->Empty()) {
          // Move — not copy — the window's tallies; ObserveSeries
          // reallocates lazily on the next sample.
          closed = std::move(series.window_hist);
        }
        out.window_hist = closed;
        // Sliding span: the trailing ring windows still inside
        // ring_windows of the closing index.
        out.sliding_parts.reserve(series.ring.size());
        for (const auto& [index, hist] : series.ring) {
          if (index + options_.ring_windows > open_index_) {
            out.sliding_parts.push_back(hist);
          }
        }
        if (closed != nullptr) series.ring.emplace_back(open_index_, closed);
        while (!series.ring.empty() &&
               series.ring.front().first + options_.ring_windows <=
                   open_index_ + 1) {
          series.ring.pop_front();
        }
        break;
      }
    }
  }
  if (writer_ != nullptr) writer_->AppendSnapshot(snapshot);
  pending_.push_back(std::move(snapshot));
  ++windows_emitted_;
  window_touched_ = false;
  ++open_index_;
  export_overhead_ += timer.ElapsedSeconds();
}

void TelemetryHub::CloseEpoch() {
  Timer timer;
  MutexLock lock(&mu_);
  const double export_before = export_overhead_;
  bool any_live = false;
  for (const auto& series : registry_) {
    if (series->live) {
      any_live = true;
      break;
    }
  }
  const bool pristine =
      !any_live && open_index_ == 0 && !window_touched_ && now_ == 0.0;
  double drain_seconds = 0.0;
  if (!pristine) {
    if (window_touched_) CloseOpenWindow();
    // Retire (not destroy) every series: ids stay valid, and the next
    // epoch's first touch revives a series from zeroed state.
    for (const auto& series : registry_) series->live = false;
    open_index_ = 0;
    window_touched_ = false;
    now_ = 0.0;
    ++epoch_;
    if (writer_ != nullptr) {
      // Waiting for the async formatter to drain is a shutdown barrier —
      // mostly scheduler round-trip latency while the serving loop is
      // already done — so it is tracked apart from the interference
      // overheads that the <2% gate measures.
      Timer drain;
      writer_->Flush();
      drain_seconds = drain.ElapsedSeconds();
      drain_wait_ += drain_seconds;
    }
  }
  // Epoch closes are rare (one per Run), so they are timed fully rather
  // than sampled.
  const double elapsed = timer.ElapsedSeconds() -
                         (export_overhead_ - export_before) - drain_seconds;
  if (elapsed > 0.0) tick_overhead_ += elapsed;
}

bool TelemetryHub::AttachJsonlWriter(const std::string& path) {
  auto writer = std::make_unique<TelemetryJsonlWriter>(path);
  if (!writer->ok()) return false;
  MutexLock lock(&mu_);
  writer_ = std::move(writer);
  // Replay what was already emitted so the file always holds the full
  // stream regardless of when the writer was attached.
  FormatPending();
  if (!stream_.empty()) {
    std::string replay = stream_;
    if (!replay.empty() && replay.back() == '\n') replay.pop_back();
    writer_->AppendRaw(std::move(replay));
  }
  return true;
}

void TelemetryHub::Flush() {
  MutexLock lock(&mu_);
  if (writer_ != nullptr) writer_->Flush();
}

void TelemetryHub::FormatPending() const {
  while (!pending_.empty()) {
    stream_ += FormatWindowSnapshot(*pending_.front());
    stream_ += '\n';
    pending_.pop_front();
  }
}

std::string TelemetryHub::SnapshotJsonl() const {
  MutexLock lock(&mu_);
  FormatPending();
  return stream_;
}

size_t TelemetryHub::windows_emitted() const {
  MutexLock lock(&mu_);
  return windows_emitted_;
}

size_t TelemetryHub::epoch() const {
  MutexLock lock(&mu_);
  return epoch_;
}

double TelemetryHub::OverheadWallSeconds() const {
  MutexLock lock(&mu_);
  return record_overhead_ + tick_overhead_ + export_overhead_;
}

void TelemetryHub::PublishOverhead(MetricsRegistry* metrics,
                                   double run_wall_seconds) const {
  if (metrics == nullptr) return;
  double record, tick, exported, drain;
  {
    MutexLock lock(&mu_);
    record = record_overhead_;
    tick = tick_overhead_;
    exported = export_overhead_;
    drain = drain_wait_;
  }
  const double total = record + tick + exported;
  metrics->Set("obs.overhead.record_seconds", record);
  metrics->Set("obs.overhead.tick_seconds", tick);
  metrics->Set("obs.overhead.export_seconds", exported);
  metrics->Set("obs.overhead.drain_wait_seconds", drain);
  metrics->Set("obs.overhead.total_seconds", total);
  metrics->Set("obs.overhead.record_ops",
               static_cast<double>(record_ops_.load(std::memory_order_relaxed)));
  metrics->Set("obs.overhead.tick_ops",
               static_cast<double>(tick_ops_.load(std::memory_order_relaxed)));
  if (run_wall_seconds > 0.0) {
    metrics->Set("obs.overhead.fraction", total / run_wall_seconds);
  }
}

}  // namespace obs
}  // namespace keystone
