#include "src/obs/telemetry.h"

#include <algorithm>
#include <optional>
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

TelemetryHub::TelemetryHub(double window_seconds)
    : window_seconds_(window_seconds) {
  KS_CHECK_GT(window_seconds_, 0.0);
}

TelemetryHub::~TelemetryHub() {
  MutexLock lock(&mu_);
  WriteTail();
  if (file_ != nullptr) std::fclose(file_);
}

TelemetryHub::SeriesId TelemetryHub::FindOrRegister(const std::string& name,
                                                    TelemetrySeriesKind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    auto series = std::make_unique<Series>();
    series->kind = kind;
    registry_.push_back(std::move(series));
    it = index_.emplace(name, registry_.size() - 1).first;
    registry_.back()->name = &it->first;
  }
  KS_CHECK(registry_[it->second]->kind == kind)
      << "telemetry series '" << name
      << "' already registered with a different kind";
  return it->second;
}

TelemetryHub::Series& TelemetryHub::LiveSeries(SeriesId id,
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
  // Registration alone does not revive the series: it stays invisible to
  // snapshots until the first record touches it.
  return FindOrRegister(name, kind);
}

namespace {

// The recording entry points and Tick share a 1-in-N sampled stopwatch:
// timing every op would itself be a measurable fraction of the op's cost,
// so one call in kOverheadSampleEvery is timed and scaled back up. Each
// sample pairs the op interval with a back-to-back null interval (two
// clock reads with nothing between them, taken at the same call site an
// instant earlier) and bills the difference: the null interval measures
// the in-situ cost of the stopwatch itself — including cold-cache clock
// reads the hot loop would never pay — so the act of measuring is
// subtracted out under the same cache conditions it was incurred in,
// rather than via a constant calibrated in a warm loop.
constexpr uint64_t kOverheadSampleEvery = 16;  // a power of two

// Winsorization bound for one sampled interval. The record/tick paths do
// bounded work under the hub mutex (~1µs), so an interval far above that
// means the thread was descheduled mid-measure — and the ×16 sampling
// multiplier would bill 16× the preemption, not 16× the hub. Clamping at
// ~20–50× the typical op cost keeps genuine cost intact while bounding
// one preempted sample's damage to ~0.3ms of billed overhead.
constexpr double kOverheadSampleClampSeconds = 20e-6;

class SampledStopwatch {
 public:
  /// Starts timing when this call draws the 1-in-kOverheadSampleEvery
  /// sample of `ops`; otherwise reads no clock at all.
  explicit SampledStopwatch(std::atomic<uint64_t>* ops) {
    if ((ops->fetch_add(1, std::memory_order_relaxed) &
         (kOverheadSampleEvery - 1)) != 0) {
      return;
    }
    Timer null_probe;
    timer_.emplace();
    null_cost_ = null_probe.ElapsedSeconds();
  }

  /// Adds the scaled-up interval since construction, less the null
  /// interval and `excluded` seconds timed elsewhere, to `*total`.
  void Bill(double excluded, double* total) const {
    if (!timer_.has_value()) return;
    const double elapsed = timer_->ElapsedSeconds() - excluded - null_cost_;
    *total += static_cast<double>(kOverheadSampleEvery) *
              std::min(kOverheadSampleClampSeconds, std::max(0.0, elapsed));
  }

 private:
  std::optional<Timer> timer_;
  double null_cost_ = 0.0;
};

}  // namespace

void TelemetryHub::Record(const std::string* name, SeriesId id,
                          TelemetrySeriesKind kind, double value) {
  SampledStopwatch stopwatch(&record_ops_);
  MutexLock lock(&mu_);
  if (name != nullptr) id = FindOrRegister(*name, kind);
  Series& series = LiveSeries(id, kind);
  switch (kind) {
    case TelemetrySeriesKind::kCounter:
      series.window_delta += value;
      series.total += value;
      break;
    case TelemetrySeriesKind::kGauge:
      series.gauge_value = value;
      break;
    case TelemetrySeriesKind::kHistogram:
      // Lazily (re)allocated per window: the close moves the tallies out
      // wholesale instead of copying 1KB+ of buckets per histogram series.
      if (series.window_hist == nullptr) {
        series.window_hist = std::make_shared<HistogramBuckets>();
      }
      series.window_hist->Record(value);
      break;
  }
  window_touched_ = true;
  stopwatch.Bill(0.0, &record_overhead_);
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
      open_index_ = static_cast<uint64_t>(now_ / window_seconds_);
      break;
    }
    CloseOpenWindow();
  }
}

void TelemetryHub::Tick(double now_seconds) {
  SampledStopwatch stopwatch(&tick_ops_);
  MutexLock lock(&mu_);
  // Window closes time themselves fully into export_overhead_; exclude
  // that span so the scaled-up sample covers only the per-tick residual
  // (a sampled tick that happens to close windows must not count the
  // close 16x).
  const double export_before = export_overhead_;
  TickLocked(now_seconds);
  stopwatch.Bill(export_overhead_ - export_before, &tick_overhead_);
}

void TelemetryHub::CloseOpenWindow() {
  Timer timer;
  // Capture a plain-data snapshot of the closing window and roll every
  // series into its next-window state in one pass. Histogram tallies are
  // moved (never copied) into immutable shared_ptrs, so the snapshot
  // costs reference bumps and pointer swaps — all formatting and
  // sliding-merge work is deferred to FormatPending().
  TelemetryWindowSnapshot& snapshot = pending_.emplace_back();
  snapshot.epoch = epoch_;
  snapshot.window = open_index_;
  snapshot.start_seconds = static_cast<double>(open_index_) * window_seconds_;
  snapshot.end_seconds = WindowEnd(open_index_);
  snapshot.window_seconds = window_seconds_;
  snapshot.series.reserve(index_.size());
  for (const auto& [name, id] : index_) {
    (void)name;
    Series& series = *registry_[id];
    if (!series.live) continue;
    TelemetrySeriesSnapshot& out = snapshot.series.emplace_back();
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
          // Move — not copy — the window's tallies; Record reallocates
          // lazily on the next sample.
          closed = std::move(series.window_hist);
        }
        out.window_hist = closed;
        // Sliding span: the trailing ring windows still inside
        // kRingWindows of the closing index.
        out.sliding_parts.reserve(series.ring.size());
        for (const auto& [index, hist] : series.ring) {
          if (index + kRingWindows > open_index_) {
            out.sliding_parts.push_back(hist);
          }
        }
        if (closed != nullptr) series.ring.emplace_back(open_index_, closed);
        while (!series.ring.empty() &&
               series.ring.front().first + kRingWindows <= open_index_ + 1) {
          series.ring.pop_front();
        }
        break;
      }
    }
  }
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
  if (!pristine) {
    if (window_touched_) CloseOpenWindow();
    // Retire (not destroy) every series: ids stay valid, and the next
    // epoch's first touch revives a series from zeroed state.
    for (const auto& series : registry_) series->live = false;
    open_index_ = 0;
    window_touched_ = false;
    now_ = 0.0;
    ++epoch_;
  }
  // Epoch closes are rare (one per Run), so they are timed fully rather
  // than sampled.
  const double elapsed =
      timer.ElapsedSeconds() - (export_overhead_ - export_before);
  if (elapsed > 0.0) tick_overhead_ += elapsed;
  // After the stopwatch: the serving loop is done when an epoch closes, so
  // formatting and disk writes are not work stolen from the request path.
  WriteTail();
}

bool TelemetryHub::AttachJsonlWriter(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  MutexLock lock(&mu_);
  WriteTail();
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  // The new file starts empty: its first write replays the whole stream.
  written_ = 0;
  write_failed_ = false;
  return true;
}

bool TelemetryHub::Flush() {
  MutexLock lock(&mu_);
  WriteTail();
  return !write_failed_;
}

void TelemetryHub::WriteTail() {
  if (file_ == nullptr) return;
  FormatPending();
  const size_t size = stream_.size() - written_;
  if (std::fwrite(stream_.data() + written_, 1, size, file_) != size ||
      std::fflush(file_) != 0) {
    write_failed_ = true;
  }
  written_ = stream_.size();
}

void TelemetryHub::FormatPending() const {
  while (!pending_.empty()) {
    stream_ += FormatWindowSnapshot(pending_.front());
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
  double record = 0.0;
  double tick = 0.0;
  double exported = 0.0;
  {
    MutexLock lock(&mu_);
    record = record_overhead_;
    tick = tick_overhead_;
    exported = export_overhead_;
  }
  const double total = record + tick + exported;
  metrics->Set("obs.overhead.record_seconds", record);
  metrics->Set("obs.overhead.tick_seconds", tick);
  metrics->Set("obs.overhead.export_seconds", exported);
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
