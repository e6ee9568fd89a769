#include "src/cache/artifact_catalog.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <typeindex>
#include <utility>

#include "src/analysis/plan_validator.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/string_util.h"
#include "src/core/physical_plan.h"
#include "src/linalg/sparse.h"

namespace keystone {
namespace cache {

namespace {

// ---------------------------------------------------------------------------
// Payload codec: a little-endian binary image of a DistDataset, preserving
// partition structure and virtual scale. Covered element types are the ones
// that actually flow between pipeline stages (see data/element_traits.h);
// datasets of any other type simply stay memory-only.
// ---------------------------------------------------------------------------

constexpr char kPayloadMagic[] = "KSARTv1\n";  // 8 bytes on disk
constexpr size_t kMagicLen = 8;

constexpr uint32_t kTagString = 1;
constexpr uint32_t kTagStringVec = 2;
constexpr uint32_t kTagDoubleVec = 3;
constexpr uint32_t kTagSparseVec = 4;

template <typename T>
void AppendPod(std::string* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& in, size_t* pos, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void EncodeRecord(std::string* out, const std::string& r) {
  AppendPod<uint64_t>(out, r.size());
  out->append(r);
}

bool DecodeRecord(const std::string& in, size_t* pos, std::string* r) {
  uint64_t len = 0;
  if (!ReadPod(in, pos, &len)) return false;
  if (*pos + len > in.size()) return false;
  r->assign(in.data() + *pos, len);
  *pos += len;
  return true;
}

void EncodeRecord(std::string* out, const std::vector<double>& r) {
  AppendPod<uint64_t>(out, r.size());
  out->append(reinterpret_cast<const char*>(r.data()),
              r.size() * sizeof(double));
}

bool DecodeRecord(const std::string& in, size_t* pos,
                  std::vector<double>* r) {
  uint64_t n = 0;
  if (!ReadPod(in, pos, &n)) return false;
  if (*pos + n * sizeof(double) > in.size()) return false;
  r->resize(n);
  std::memcpy(r->data(), in.data() + *pos, n * sizeof(double));
  *pos += n * sizeof(double);
  return true;
}

void EncodeRecord(std::string* out, const std::vector<std::string>& r) {
  AppendPod<uint64_t>(out, r.size());
  for (const std::string& s : r) EncodeRecord(out, s);
}

bool DecodeRecord(const std::string& in, size_t* pos,
                  std::vector<std::string>* r) {
  uint64_t n = 0;
  if (!ReadPod(in, pos, &n)) return false;
  r->clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string s;
    if (!DecodeRecord(in, pos, &s)) return false;
    r->push_back(std::move(s));
  }
  return true;
}

void EncodeRecord(std::string* out, const SparseVector& r) {
  AppendPod<uint64_t>(out, r.dim);
  AppendPod<uint64_t>(out, r.indices.size());
  out->append(reinterpret_cast<const char*>(r.indices.data()),
              r.indices.size() * sizeof(uint32_t));
  out->append(reinterpret_cast<const char*>(r.values.data()),
              r.values.size() * sizeof(double));
}

bool DecodeRecord(const std::string& in, size_t* pos, SparseVector* r) {
  uint64_t dim = 0, nnz = 0;
  if (!ReadPod(in, pos, &dim) || !ReadPod(in, pos, &nnz)) return false;
  if (*pos + nnz * (sizeof(uint32_t) + sizeof(double)) > in.size()) {
    return false;
  }
  r->dim = dim;
  r->indices.resize(nnz);
  std::memcpy(r->indices.data(), in.data() + *pos, nnz * sizeof(uint32_t));
  *pos += nnz * sizeof(uint32_t);
  r->values.resize(nnz);
  std::memcpy(r->values.data(), in.data() + *pos, nnz * sizeof(double));
  *pos += nnz * sizeof(double);
  return true;
}

template <typename T>
std::string EncodeTyped(const AnyDataset& data, uint32_t tag) {
  const auto typed = DistDataset<T>::Cast(data);
  std::string out(kPayloadMagic, kMagicLen);
  AppendPod<uint32_t>(&out, tag);
  AppendPod<double>(&out, typed->virtual_scale());
  AppendPod<uint64_t>(&out, typed->NumPartitions());
  for (const auto& part : typed->partitions()) {
    AppendPod<uint64_t>(&out, part.size());
    for (const T& rec : part) EncodeRecord(&out, rec);
  }
  return out;
}

template <typename T>
AnyDataset DecodeTyped(const std::string& in, size_t pos, double scale,
                       uint64_t num_partitions) {
  std::vector<std::vector<T>> parts(num_partitions);
  for (uint64_t p = 0; p < num_partitions; ++p) {
    uint64_t count = 0;
    if (!ReadPod(in, &pos, &count)) return nullptr;
    for (uint64_t i = 0; i < count; ++i) {
      T rec;
      if (!DecodeRecord(in, &pos, &rec)) return nullptr;
      parts[p].push_back(std::move(rec));
    }
  }
  auto dataset = std::make_shared<DistDataset<T>>(std::move(parts));
  dataset->set_virtual_scale(scale);
  return dataset;
}

/// Encoded payload bytes for `data`, or nullopt when no codec covers its
/// element type.
std::optional<std::string> EncodePayload(const AnyDataset& data) {
  const std::type_index type = data->ElementType();
  if (type == std::type_index(typeid(std::string))) {
    return EncodeTyped<std::string>(data, kTagString);
  }
  if (type == std::type_index(typeid(std::vector<std::string>))) {
    return EncodeTyped<std::vector<std::string>>(data, kTagStringVec);
  }
  if (type == std::type_index(typeid(std::vector<double>))) {
    return EncodeTyped<std::vector<double>>(data, kTagDoubleVec);
  }
  if (type == std::type_index(typeid(SparseVector))) {
    return EncodeTyped<SparseVector>(data, kTagSparseVec);
  }
  return std::nullopt;
}

/// Decodes a payload image; null on any structural corruption.
AnyDataset DecodePayload(const std::string& in) {
  if (in.size() < kMagicLen ||
      std::memcmp(in.data(), kPayloadMagic, kMagicLen) != 0) {
    return nullptr;
  }
  size_t pos = kMagicLen;
  uint32_t tag = 0;
  double scale = 1.0;
  uint64_t num_partitions = 0;
  if (!ReadPod(in, &pos, &tag) || !ReadPod(in, &pos, &scale) ||
      !ReadPod(in, &pos, &num_partitions)) {
    return nullptr;
  }
  switch (tag) {
    case kTagString:
      return DecodeTyped<std::string>(in, pos, scale, num_partitions);
    case kTagStringVec:
      return DecodeTyped<std::vector<std::string>>(in, pos, scale,
                                                   num_partitions);
    case kTagDoubleVec:
      return DecodeTyped<std::vector<double>>(in, pos, scale,
                                              num_partitions);
    case kTagSparseVec:
      return DecodeTyped<SparseVector>(in, pos, scale, num_partitions);
    default:
      return nullptr;
  }
}

/// Stable object-file basename for a key: FNV-1a of the key, hex.
std::string ObjectName(const std::string& key) {
  const uint64_t h = Fnv1a(kFnvOffsetBasis, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx.art",
                static_cast<unsigned long long>(h));  // NOLINT
  return buf;
}

}  // namespace

ArtifactCatalog::ArtifactCatalog(const CatalogConfig& config)
    : config_(config) {
  if (!config_.root.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.root + "/objects", ec);
  }
}

uint64_t ArtifactCatalog::generation() const {
  MutexLock lock(&mu_);
  return generation_;
}

uint64_t ArtifactCatalog::BeginGeneration() {
  MutexLock lock(&mu_);
  return ++generation_;
}

std::string ArtifactCatalog::ObjectPath(
    const std::string& object_file) const {
  return config_.root + "/objects/" + object_file;
}

bool ArtifactCatalog::Put(const std::string& key, const AnyDataset& data,
                          double bytes, size_t records,
                          double recompute_seconds) {
  KS_CHECK(data != nullptr);
  // Encode and land the disk copy outside the lock (Put only runs from the
  // serial flush phase, so there is no racing writer for this key).
  bool ok = true;
  bool on_disk = false;
  std::string object_file;
  if (!config_.root.empty()) {
    const auto encoded = EncodePayload(data);
    if (encoded.has_value()) {
      object_file = ObjectName(key);
      if (WriteFileAtomic(ObjectPath(object_file), *encoded)) {
        on_disk = true;
      } else {
        object_file.clear();
        ok = false;
      }
    }
  }
  MutexLock lock(&mu_);
  Entry& entry = entries_[key];
  if (entry.meta.in_memory) memory_bytes_ -= entry.meta.bytes;
  entry.meta = ArtifactMetadata();
  entry.meta.key = key;
  entry.meta.bytes = bytes;
  entry.meta.records = records;
  entry.meta.recompute_seconds = recompute_seconds;
  entry.meta.generation = generation_;
  entry.meta.last_access = ++access_ordinal_;
  entry.meta.in_memory = true;
  entry.meta.on_disk = on_disk;
  entry.payload = data;
  entry.object_file = object_file;
  memory_bytes_ += bytes;
  ++stats_.puts;
  EnforceBudgetLocked();
  return ok;
}

void ArtifactCatalog::EnforceBudgetLocked() {
  while (memory_bytes_ > config_.memory_budget_bytes) {
    // Victim: the resident entry with the least recompute benefit per byte
    // held; ties broken by oldest logical access, then key order (the map
    // iterates keys ascending, so the scan itself is deterministic).
    auto victim = entries_.end();
    double victim_density = 0.0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.meta.in_memory) continue;
      const double density = it->second.meta.recompute_seconds /
                             std::max(1.0, it->second.meta.bytes);
      if (victim == entries_.end() || density < victim_density ||
          (density == victim_density &&
           it->second.meta.last_access <
               victim->second.meta.last_access)) {
        victim = it;
        victim_density = density;
      }
    }
    if (victim == entries_.end()) break;
    memory_bytes_ -= victim->second.meta.bytes;
    victim->second.payload = nullptr;
    victim->second.meta.in_memory = false;
    if (victim->second.meta.on_disk) {
      ++stats_.evictions;  // demoted: the disk copy still serves Fetch
    } else {
      ++stats_.dropped;  // no codec or no root: the artifact is gone
      entries_.erase(victim);
    }
  }
}

std::optional<ArtifactMetadata> ArtifactCatalog::Lookup(
    const std::string& key) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.meta;
}

AnyDataset ArtifactCatalog::Fetch(const std::string& key) const {
  std::string path;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    if (it->second.meta.in_memory) return it->second.payload;
    if (!it->second.meta.on_disk) return nullptr;
    path = ObjectPath(it->second.object_file);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  std::ostringstream buf;
  buf << in.rdbuf();
  return DecodePayload(buf.str());
}

void ArtifactCatalog::Touch(const std::string& key) {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  ++it->second.meta.access_count;
  it->second.meta.last_access = ++access_ordinal_;
}

size_t ArtifactCatalog::Compact() {
  MutexLock lock(&mu_);
  size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const ArtifactMetadata& meta = it->second.meta;
    if (generation_ >= meta.generation &&
        generation_ - meta.generation >= config_.keep_generations) {
      if (meta.in_memory) memory_bytes_ -= meta.bytes;
      if (meta.on_disk) {
        std::remove(ObjectPath(it->second.object_file).c_str());
      }
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

bool ArtifactCatalog::SaveManifest() const {
  if (config_.root.empty()) return false;
  std::ostringstream out;
  out.precision(17);
  out << "# keystone artifact catalog v1\n";
  MutexLock lock(&mu_);
  out << "gen " << generation_ << "\n";
  for (const auto& [key, entry] : entries_) {
    const ArtifactMetadata& m = entry.meta;
    out << "entry " << EscapeToken(key) << " " << m.generation << " "
        << m.bytes << " " << m.records << " " << m.recompute_seconds << " "
        << m.access_count << " " << m.last_access << " "
        << (entry.object_file.empty() ? "-" : entry.object_file) << "\n";
  }
  return WriteFileAtomic(config_.root + "/manifest", out.str());
}

bool ArtifactCatalog::LoadManifest() {
  if (config_.root.empty()) return false;
  std::ifstream in(config_.root + "/manifest");
  if (!in) return false;
  std::map<std::string, Entry> entries;
  uint64_t generation = 0;
  uint64_t max_access = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "gen") {
      is >> generation;
      if (!is) return false;
    } else if (tag == "entry") {
      std::string key, object_file;
      Entry entry;
      ArtifactMetadata& m = entry.meta;
      is >> key >> m.generation >> m.bytes >> m.records >>
          m.recompute_seconds >> m.access_count >> m.last_access >>
          object_file;
      if (!is) return false;
      const auto unescaped = UnescapeToken(key);
      if (!unescaped) return false;  // malformed escape: corrupt manifest
      m.key = *unescaped;
      // Put only ever writes ObjectName(key) (or "-" for no spill). Any
      // other token is corrupt, and trusting it would let Fetch read and
      // Compact delete a path outside the objects directory.
      if (object_file != "-" && object_file != ObjectName(m.key)) {
        return false;
      }
      max_access = std::max(max_access, m.last_access);
      // An entry is only usable when its spilled payload survived; a key
      // whose object file is missing (crash between payload write and
      // manifest save, or a compaction raced by a kill) is dropped rather
      // than poisoning later fetches.
      if (object_file == "-") continue;
      std::error_code ec;
      if (!std::filesystem::exists(ObjectPath(object_file), ec)) continue;
      m.on_disk = true;
      m.in_memory = false;
      entry.object_file = object_file;
      entries[m.key] = std::move(entry);
    } else {
      return false;  // unknown record type: treat as corrupt
    }
  }
  MutexLock lock(&mu_);
  entries_ = std::move(entries);
  generation_ = generation;
  access_ordinal_ = std::max(access_ordinal_, max_access);
  memory_bytes_ = 0.0;
  return true;
}

size_t ArtifactCatalog::NumEntries() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

double ArtifactCatalog::MemoryBytes() const {
  MutexLock lock(&mu_);
  return memory_bytes_;
}

CatalogStats ArtifactCatalog::Stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

std::vector<ArtifactMetadata> ArtifactCatalog::Entries() const {
  MutexLock lock(&mu_);
  std::vector<ArtifactMetadata> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry.meta);
  return out;
}

void ArtifactCatalog::Clear() {
  MutexLock lock(&mu_);
  entries_.clear();
  memory_bytes_ = 0.0;
}

analysis::ValidationReport ValidateReuse(const PhysicalPlan& plan,
                                         const ArtifactCatalog& catalog) {
  using analysis::Severity;
  namespace rules = analysis::rules;
  analysis::ValidationReport report;
  const uint64_t generation = catalog.generation();
  for (const PlannedNode& pn : plan.nodes) {
    if (!pn.reused) continue;
    const auto entry = catalog.Lookup(pn.lineage_fingerprint);
    if (!entry.has_value()) {
      report.Add(Severity::kError, rules::kReuseMissingEntry, pn.id,
                 "reused node '" + pn.name + "' reads catalog entry \"" +
                     pn.lineage_fingerprint + "\" which no longer exists");
      continue;
    }
    if (entry->records != pn.full_records) {
      report.Add(Severity::kError, rules::kReuseFingerprintMismatch, pn.id,
                 "catalog entry for '" + pn.name + "' holds " +
                     std::to_string(entry->records) +
                     " records but the plan expects " +
                     std::to_string(pn.full_records));
    }
    if (generation >= entry->generation &&
        generation - entry->generation >=
            catalog.config().keep_generations) {
      report.Add(Severity::kWarning, rules::kReuseStaleGeneration, pn.id,
                 "reused node '" + pn.name + "' reads generation " +
                     std::to_string(entry->generation) +
                     " which is past the keep window at generation " +
                     std::to_string(generation) +
                     " (a Compact() would remove it)");
    }
  }
  if (catalog.MemoryBytes() > catalog.config().memory_budget_bytes) {
    report.Add(Severity::kWarning, rules::kReuseBudgetOverflow, -1,
               "catalog memory tier holds " +
                   HumanBytes(catalog.MemoryBytes()) + " against a budget of " +
                   HumanBytes(catalog.config().memory_budget_bytes));
  }
  return report;
}

}  // namespace cache
}  // namespace keystone
