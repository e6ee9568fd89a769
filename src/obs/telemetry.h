#ifndef KEYSTONE_OBS_TELEMETRY_H_
#define KEYSTONE_OBS_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"

namespace keystone {
namespace obs {

/// Deterministic head-based trace sampler: whether a request's spans are
/// recorded is a pure function of (seed, tenant, request id), decided via
/// the same seeded FNV-1a + SplitMix64 draw discipline as the fault
/// injection layer (src/sim/faults). The sampled set is therefore
/// identical across kernel-pool sizes, batch formations, and replay runs
/// — sampling cannot perturb determinism checks.
class TraceSampler {
 public:
  TraceSampler() = default;
  TraceSampler(double rate, uint64_t seed) : rate_(rate), seed_(seed) {}

  /// True when the request's spans should be recorded. rate >= 1 always
  /// samples; rate <= 0 never does.
  bool Sample(const std::string& tenant, uint64_t request_id) const;

  double rate() const { return rate_; }
  uint64_t seed() const { return seed_; }

 private:
  double rate_ = 1.0;
  uint64_t seed_ = 0;
};

/// Kind tag for one telemetry series (see TelemetryHub).
enum class TelemetrySeriesKind { kCounter, kGauge, kHistogram };

/// Plain-data capture of one series inside a closing window. Histogram
/// tallies are held by shared_ptr: capturing a snapshot on the serving
/// path is reference-count bumps, never bucket merges or formatting —
/// those happen lazily, when the stream is read or written.
struct TelemetrySeriesSnapshot {
  /// Interned in the hub's series registry, which outlives every snapshot
  /// (a plain pointer keeps capture free of refcount traffic).
  const std::string* name = nullptr;
  TelemetrySeriesKind kind = TelemetrySeriesKind::kCounter;
  // Counter state (delta for this window, epoch-cumulative total).
  double delta = 0.0;
  double total = 0.0;
  // Gauge state.
  double gauge_value = 0.0;
  // Histogram state: this window's tallies (null = empty window) plus the
  // trailing ring tallies the sliding quantiles merge over. Entries are
  // immutable once captured, so sharing them across snapshots is safe.
  std::shared_ptr<const HistogramBuckets> window_hist;
  std::vector<std::shared_ptr<const HistogramBuckets>> sliding_parts;
};

/// Plain-data capture of one closed window — everything needed to format
/// its JSONL snapshot line later, as a pure function of this struct.
struct TelemetryWindowSnapshot {
  size_t epoch = 0;
  uint64_t window = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  double window_seconds = 1.0;  // for the exported rate
  std::vector<TelemetrySeriesSnapshot> series;
};

/// Renders the canonical JSONL line (no trailing newline) for a captured
/// window. Deterministic: byte-identical output for equal snapshots.
std::string FormatWindowSnapshot(const TelemetryWindowSnapshot& snapshot);

/// Windowed time-series aggregator. Counters, gauges, and histograms are
/// recorded against the *open* virtual-time window; Tick(now) — driven by
/// the PipelineServer's event loop or by the PlanRunner's ledger total —
/// closes every window boundary `now` has crossed, capturing one snapshot
/// per non-empty window. Windows are aligned to virtual time: window i
/// covers [i*W, (i+1)*W) seconds since the epoch start, so the window a
/// sample lands in depends only on the virtual instant it was recorded at.
/// Because ticks and records both carry virtual timestamps produced on the
/// serial event loop, the emitted stream is byte-identical across
/// kernel-pool sizes.
///
/// Histogram series additionally keep a ring of per-window bucket tallies
/// (HistogramBuckets shares obs::Histogram's log-bucket geometry), so each
/// snapshot carries sliding p50/p99/p999 computed by *merging buckets*
/// over the trailing kRingWindows windows — exact, unlike averaging
/// per-window quantiles.
///
/// The hot path stays cheap by deferring all serialization: closing a
/// window captures shared_ptr references into a TelemetryWindowSnapshot;
/// each snapshot is formatted once, when SnapshotJsonl() reads the stream
/// or the attached JSONL file is written (at CloseEpoch, Flush and
/// destruction).
///
/// Self-observability: the hub stopwatches its own record/tick/export
/// paths (record and tick via 1-in-16 sampled timers, scaled back up) and
/// publishes `obs.overhead.*` gauges into a MetricsRegistry on request.
/// Wall times never enter the JSONL stream (they would break
/// byte-identity); only virtual-time-derived values do.
///
/// Thread-safe (one internal mutex), though the intended driver is a
/// serial event loop.
class TelemetryHub {
 public:
  /// `window_seconds` is the width of one aggregation window in virtual
  /// seconds.
  explicit TelemetryHub(double window_seconds = 1.0);
  ~TelemetryHub();
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Stable id of a registered series: an index into an internal registry
  /// that survives epoch resets, so hot paths can skip the by-name map
  /// lookup. Ids are meaningful only for the hub that issued them.
  using SeriesId = size_t;

  /// Closed windows retained per histogram series; sliding quantiles merge
  /// the bucket tallies of up to this many trailing windows.
  static constexpr size_t kRingWindows = 8;

  /// Registers (or finds) a series and returns its stable id. Idempotent;
  /// aborts if the name is already registered with a different kind.
  SeriesId RegisterSeries(const std::string& name, TelemetrySeriesKind kind)
      EXCLUDES(mu_);

  /// Adds `delta` to a per-window counter (exported as delta + rate +
  /// epoch-cumulative total).
  void Count(const std::string& name, double delta = 1.0) EXCLUDES(mu_) {
    Record(&name, 0, TelemetrySeriesKind::kCounter, delta);
  }
  void CountId(SeriesId id, double delta = 1.0) EXCLUDES(mu_) {
    Record(nullptr, id, TelemetrySeriesKind::kCounter, delta);
  }

  /// Sets a last-write-wins gauge (exported with its latest value in every
  /// window from the first set onward).
  void SetGauge(const std::string& name, double value) EXCLUDES(mu_) {
    Record(&name, 0, TelemetrySeriesKind::kGauge, value);
  }
  void SetGaugeId(SeriesId id, double value) EXCLUDES(mu_) {
    Record(nullptr, id, TelemetrySeriesKind::kGauge, value);
  }

  /// Records a sample into the open window's histogram series.
  void Observe(const std::string& name, double value) EXCLUDES(mu_) {
    Record(&name, 0, TelemetrySeriesKind::kHistogram, value);
  }
  void ObserveId(SeriesId id, double value) EXCLUDES(mu_) {
    Record(nullptr, id, TelemetrySeriesKind::kHistogram, value);
  }

  /// Closes every window boundary crossed by advancing virtual time to
  /// `now_seconds` (monotone within an epoch; stale ticks are ignored).
  void Tick(double now_seconds) EXCLUDES(mu_);

  /// Ends the current epoch: the open window is captured if it has data,
  /// per-epoch state (totals, rings, window index) resets, and the epoch
  /// counter increments. The JSONL stream keeps accumulating; an attached
  /// file is brought up to date.
  void CloseEpoch() EXCLUDES(mu_);

  /// Exports the snapshot stream to `path`, truncating it. Lines emitted
  /// before the call are written too, so the file always holds the full
  /// stream once written. Returns false (and exports nothing) when the
  /// file cannot be opened.
  bool AttachJsonlWriter(const std::string& path) EXCLUDES(mu_);

  /// Writes every emitted line not yet in the attached file and flushes
  /// it. Returns false once any write to the attached file has failed.
  bool Flush() EXCLUDES(mu_);

  /// The full snapshot stream emitted so far (all epochs), one JSON object
  /// per line — the byte-identity artifact. Formats lazily (cached).
  std::string SnapshotJsonl() const EXCLUDES(mu_);

  size_t windows_emitted() const EXCLUDES(mu_);
  size_t epoch() const EXCLUDES(mu_);

  /// Estimated wall seconds spent inside the hub on the recording path
  /// (record + tick + snapshot capture; see the sampling note above).
  /// Formatting and file writes are deliberately excluded: they run when
  /// the stream is read or an epoch closes, never inside a serving event.
  double OverheadWallSeconds() const EXCLUDES(mu_);

  /// Publishes `obs.overhead.*` gauges (record/tick/export/total seconds
  /// and, when `run_wall_seconds` > 0, the overhead fraction of it).
  void PublishOverhead(MetricsRegistry* metrics,
                       double run_wall_seconds) const EXCLUDES(mu_);

 private:
  struct Series {
    TelemetrySeriesKind kind = TelemetrySeriesKind::kCounter;
    /// Points at this series' key in index_ (map nodes are stable); the
    /// registry is never pruned, so snapshots may alias it freely.
    const std::string* name = nullptr;
    /// Series persist in the registry across epochs (ids stay valid) but
    /// only appear in snapshots of epochs that touched them; the first
    /// touch (after registration or after a CloseEpoch retired the series)
    /// revives it from zeroed state.
    bool live = false;
    // Counter state.
    double window_delta = 0.0;
    double total = 0.0;
    // Gauge state.
    double gauge_value = 0.0;
    // Histogram state: the open window's tallies (allocated lazily on the
    // first sample of each window so a close can move — not copy — them
    // into the snapshot and ring) plus the ring of closed windows (window
    // index, immutable tallies) the sliding quantiles merge over.
    std::shared_ptr<HistogramBuckets> window_hist;
    std::deque<std::pair<uint64_t, std::shared_ptr<const HistogramBuckets>>>
        ring;
  };

  /// The one recording body behind Count/SetGauge/Observe and their by-id
  /// forms: resolves the series (by `*name` when non-null, else by `id`),
  /// applies `value` as its kind says, and runs under the sampled
  /// stopwatch.
  void Record(const std::string* name, SeriesId id, TelemetrySeriesKind kind,
              double value) EXCLUDES(mu_);
  /// Find-or-register shared by RegisterSeries and the by-name records.
  SeriesId FindOrRegister(const std::string& name, TelemetrySeriesKind kind)
      REQUIRES(mu_);
  /// Fetches by id, reviving the series if a prior epoch retired it.
  Series& LiveSeries(SeriesId id, TelemetrySeriesKind kind) REQUIRES(mu_);
  double WindowEnd(uint64_t index) const {
    return static_cast<double>(index + 1) * window_seconds_;
  }
  void TickLocked(double now_seconds) REQUIRES(mu_);
  /// Captures the closing window's snapshot and rolls every series into
  /// its next-window state. Accumulates into export_overhead_.
  void CloseOpenWindow() REQUIRES(mu_);
  /// Formats captured-but-unformatted snapshots into stream_.
  void FormatPending() const REQUIRES(mu_);
  /// Appends the part of stream_ not yet in the attached file, then
  /// flushes it (a no-op with no file attached). A failure sets
  /// write_failed_.
  void WriteTail() REQUIRES(mu_);

  const double window_seconds_;
  mutable Mutex mu_{kLockRankTelemetry};
  /// Owns every series ever registered; ids index into this vector and
  /// stay valid across epochs. index_ orders snapshot output by name.
  std::vector<std::unique_ptr<Series>> registry_ GUARDED_BY(mu_);
  std::map<std::string, SeriesId> index_ GUARDED_BY(mu_);
  uint64_t open_index_ GUARDED_BY(mu_) = 0;
  bool window_touched_ GUARDED_BY(mu_) = false;
  double now_ GUARDED_BY(mu_) = 0.0;
  size_t epoch_ GUARDED_BY(mu_) = 0;
  size_t windows_emitted_ GUARDED_BY(mu_) = 0;
  /// Captured snapshots not yet folded into stream_ (lazy formatting).
  mutable std::deque<TelemetryWindowSnapshot> pending_ GUARDED_BY(mu_);
  mutable std::string stream_ GUARDED_BY(mu_);
  /// The attached JSONL file (null = none), how many bytes of stream_ it
  /// already holds, and whether a write to it has failed.
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  size_t written_ GUARDED_BY(mu_) = 0;
  bool write_failed_ GUARDED_BY(mu_) = false;
  // Self-overhead stopwatch totals (wall seconds; record/tick estimated
  // via sampling, export/capture measured fully).
  double record_overhead_ GUARDED_BY(mu_) = 0.0;
  double tick_overhead_ GUARDED_BY(mu_) = 0.0;
  double export_overhead_ GUARDED_BY(mu_) = 0.0;
  std::atomic<uint64_t> record_ops_{0};
  std::atomic<uint64_t> tick_ops_{0};
};

}  // namespace obs
}  // namespace keystone

#endif  // KEYSTONE_OBS_TELEMETRY_H_
