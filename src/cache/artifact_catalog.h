#ifndef KEYSTONE_CACHE_ARTIFACT_CATALOG_H_
#define KEYSTONE_CACHE_ARTIFACT_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/data/dist_dataset.h"

namespace keystone {

struct PhysicalPlan;

namespace cache {

/// Configuration of one ArtifactCatalog instance.
struct CatalogConfig {
  /// Directory holding the manifest and spilled payloads. Empty means
  /// memory-only: nothing touches disk and eviction discards outright.
  std::string root;
  /// Budget for decoded payloads held in the memory tier; exceeding it
  /// triggers LRU-by-benefit eviction (demote to disk, or drop).
  double memory_budget_bytes = 256.0 * 1024.0 * 1024.0;
  /// Compact() removes entries whose generation lags the current one by at
  /// least this many generations; ValidateReuse flags reads of such
  /// entries as reuse.stale-generation.
  uint64_t keep_generations = 4;
};

/// Metadata of one catalog entry, as persisted in the manifest. `bytes`
/// and `records` describe the stored dataset (virtual-scaled, matching
/// DataStats), `recompute_seconds` the modeled cost of re-deriving it from
/// sources — the benefit side of every reuse and eviction decision.
struct ArtifactMetadata {
  std::string key;  // producer's lineage fingerprint
  double bytes = 0.0;
  size_t records = 0;
  double recompute_seconds = 0.0;
  uint64_t generation = 0;
  uint64_t access_count = 0;
  /// Logical access ordinal (not wall time, so replays are deterministic
  /// and the ordering survives a save/load round trip).
  uint64_t last_access = 0;
  bool in_memory = false;
  bool on_disk = false;
};

/// Monotonic counters of catalog activity since construction. All
/// mutations happen in the runner's serial id-ordered flush, so these are
/// identical between serial and branch-parallel runs.
struct CatalogStats {
  uint64_t puts = 0;
  uint64_t evictions = 0;  // memory-tier demotions to disk
  uint64_t dropped = 0;    // evictions with no disk copy to fall back to
};

/// Persistent, fingerprint-keyed store of materialized pipeline
/// intermediates — the cross-run (Helix-style) counterpart to the per-run
/// materialization pass. Entries are keyed by the producing node's lineage
/// fingerprint and carry cost/size/generation metadata so the ReusePass
/// can price load-vs-recompute with the existing cost model.
///
/// Tiering: Put is write-through — when a codec exists for the dataset's
/// element type the payload is encoded to `<root>/objects/` immediately
/// (atomic temp+rename), and the decoded dataset additionally stays in the
/// memory tier under `memory_budget_bytes`. Evicting a memory-tier entry
/// demotes it to its disk copy; entries with no codec (or no root) are
/// dropped outright. The manifest is plain text with %-escaped keys
/// (shared EscapeToken helpers) and is written atomically, so a crash
/// mid-save leaves the previous complete manifest in place.
///
/// Thread safety: all methods lock `mu_` (rank kLockRankArtifactCatalog).
/// Fetch/Lookup never mutate, so concurrent branch-parallel readers see a
/// catalog frozen at run start; Put/Touch/eviction run only in the serial
/// flush phase.
class ArtifactCatalog {
 public:
  explicit ArtifactCatalog(const CatalogConfig& config);
  ArtifactCatalog(const ArtifactCatalog&) = delete;
  ArtifactCatalog& operator=(const ArtifactCatalog&) = delete;

  const CatalogConfig& config() const { return config_; }

  // --- Generations -------------------------------------------------------

  /// Current generation; entries Put now are stamped with it.
  uint64_t generation() const;
  /// Starts the next generation (one per optimizer compile that intends to
  /// publish) and returns it.
  uint64_t BeginGeneration();

  // --- Entries -----------------------------------------------------------

  /// Stores `data` under `key` with the given size/cost metadata,
  /// overwriting any previous entry. Encodes to disk when a codec covers
  /// the element type and a root is configured, then enforces the memory
  /// budget. Returns false only on a disk-write failure (the memory-tier
  /// entry is still installed).
  bool Put(const std::string& key, const AnyDataset& data, double bytes,
           size_t records, double recompute_seconds);

  /// Metadata for `key`, or nullopt. Never mutates access bookkeeping.
  std::optional<ArtifactMetadata> Lookup(const std::string& key) const;

  /// The stored dataset for `key`: the memory-tier pointer when resident,
  /// otherwise decoded from the disk tier (without promoting — promotion
  /// is a mutation and Fetch may run from parallel branches). Null when
  /// the key is unknown or the payload is unreadable.
  AnyDataset Fetch(const std::string& key) const;

  /// Records one logical access (for LRU-by-benefit eviction ordering).
  void Touch(const std::string& key);

  /// Removes entries whose generation lags generation() by at least
  /// `keep_generations`, deleting their spilled payloads. Returns the
  /// number of entries removed.
  size_t Compact();

  // --- Persistence -------------------------------------------------------

  /// Writes `<root>/manifest` atomically (temp file + rename). False when
  /// no root is configured or on I/O failure.
  bool SaveManifest() const;

  /// Replaces in-memory state from `<root>/manifest`. Entries whose
  /// spilled payload is missing (e.g. a crash between payload write and
  /// manifest save) are dropped; a stray `manifest.tmp` from a killed save
  /// is ignored. False when no root is configured, the manifest is
  /// missing, or any line is malformed — including an entry naming any
  /// object file other than the one Put writes for its key.
  bool LoadManifest();

  // --- Introspection -----------------------------------------------------

  size_t NumEntries() const;
  double MemoryBytes() const;
  CatalogStats Stats() const;
  /// Every entry's metadata, ordered by key (deterministic).
  std::vector<ArtifactMetadata> Entries() const;
  void Clear();

 private:
  struct Entry {
    ArtifactMetadata meta;
    AnyDataset payload;       // set iff meta.in_memory
    std::string object_file;  // basename under <root>/objects, "" if none
  };

  std::string ObjectPath(const std::string& object_file) const;
  /// Evicts memory-tier entries (lowest recompute-per-byte benefit first,
  /// ties broken by oldest access then key) until the budget holds.
  void EnforceBudgetLocked() REQUIRES(mu_);

  const CatalogConfig config_;
  mutable Mutex mu_{kLockRankArtifactCatalog};
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  uint64_t access_ordinal_ GUARDED_BY(mu_) = 0;
  double memory_bytes_ GUARDED_BY(mu_) = 0.0;
  CatalogStats stats_ GUARDED_BY(mu_);
};

/// Cross-checks a reuse-rewritten plan against the catalog it was planned
/// with — the catalog-aware half of the reuse.* rules (the plan-only half
/// is analysis::ValidateReuseMarkers):
///  - every reused node's catalog entry must still exist
///    (reuse.missing-entry) and agree on cardinality
///    (reuse.fingerprint-mismatch);
///  - reads of entries older than the keep window are flagged
///    (reuse.stale-generation);
///  - a memory tier over its configured budget is flagged
///    (reuse.budget-overflow).
analysis::ValidationReport ValidateReuse(const PhysicalPlan& plan,
                                         const ArtifactCatalog& catalog);

}  // namespace cache
}  // namespace keystone

#endif  // KEYSTONE_CACHE_ARTIFACT_CATALOG_H_
