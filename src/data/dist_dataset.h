#ifndef KEYSTONE_DATA_DIST_DATASET_H_
#define KEYSTONE_DATA_DIST_DATASET_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <typeindex>
#include <vector>

#include "src/common/check.h"
#include "src/data/data_stats.h"
#include "src/data/element_traits.h"

namespace keystone {

class DatasetBase;
using AnyDataset = std::shared_ptr<DatasetBase>;

/// Per-record statistics triple, extracted while a record is chunk-resident
/// so fused execution can replay ComputeStats' accumulation order without
/// keeping the records themselves alive.
struct ElementStat {
  double bytes = 0.0;
  double nnz = 0.0;
  size_t dim = 0;
};

class ChunkCollectorBase;

/// A cache-resident run of records: the unit of work of the chunked
/// execution style, produced by a fused region's head from a slice of one
/// input partition and passed from member to member. Chunks are typed
/// underneath (Chunk<T>) and type-erased here so the PlanRunner can stream
/// them through a fused operator chain without knowing the intermediate
/// element types.
class ChunkBase {
 public:
  virtual ~ChunkBase() = default;

  virtual size_t size() const = 0;
  virtual std::type_index ElementType() const = 0;

  /// The stats triple of record `i`, in chunk order.
  virtual ElementStat StatOf(size_t i) const = 0;

  /// A collector that reassembles chunks of this element type into a
  /// DistDataset (used to materialize a fused region's tail output).
  virtual std::unique_ptr<ChunkCollectorBase> MakeCollector() const = 0;
};

using AnyChunk = std::shared_ptr<ChunkBase>;

/// Reassembles per-partition chunk streams into a partitioned dataset.
class ChunkCollectorBase {
 public:
  virtual ~ChunkCollectorBase() = default;

  virtual void Resize(size_t num_partitions) = 0;
  /// Appends `chunk`'s records to partition `p` (in stream order).
  virtual void Append(size_t p, const AnyChunk& chunk) = 0;
  virtual AnyDataset Finish() = 0;
};

/// Type-erased handle to a partitioned dataset. The pipeline DAG and the
/// optimizer work with DatasetBase; typed operators downcast via
/// DistDataset<T>::Cast, checked with the element type index. Datasets are
/// immutable once built (only the virtual scale below is ever set).
class DatasetBase : public std::enable_shared_from_this<DatasetBase> {
 public:
  virtual ~DatasetBase() = default;

  virtual size_t NumRecords() const = 0;
  virtual size_t NumPartitions() const = 0;
  virtual std::type_index ElementType() const = 0;

  /// Data statistics (the paper's A_s) over the stored records. The record
  /// count is multiplied by virtual_scale() (see below).
  virtual DataStats ComputeStats() const = 0;

  /// A dataset holding the first `max_records` records (for execution
  /// subsampling, paper §4.1). Keeps the partition structure proportional.
  /// The sample is a real dataset: its virtual scale is 1. A sample that
  /// would hold every record, at scale 1 and in this dataset's own
  /// partition layout, is this dataset itself, so samples are read-only.
  virtual std::shared_ptr<DatasetBase> SamplePrefix(size_t max_records)
      const = 0;

  /// Static per-record shape for the dataflow analysis; Top when the
  /// element type gives no information.
  virtual ValueShape ElementShape() const { return ValueShape::Top(); }

  /// Records in partition `p`.
  virtual size_t PartitionSize(size_t p) const = 0;

  /// Virtual record-count multiplier. Benchmarks reproduce paper-scale
  /// experiments by holding a laptop-scale dataset whose *statistics*
  /// describe the full-size workload: kernels execute on the real records,
  /// while the simulator charges time for scale * NumRecords() records.
  double virtual_scale() const { return virtual_scale_; }
  void set_virtual_scale(double scale) { virtual_scale_ = scale; }

 protected:
  double virtual_scale_ = 1.0;
};

/// Typed chunk: an owned, contiguous run of records.
template <typename T>
class Chunk : public ChunkBase {
 public:
  Chunk() = default;
  explicit Chunk(std::vector<T> records) : records_(std::move(records)) {}

  size_t size() const override { return records_.size(); }

  std::type_index ElementType() const override {
    return std::type_index(typeid(T));
  }

  ElementStat StatOf(size_t i) const override {
    const T& rec = records_[i];
    return ElementStat{ElementBytes(rec), ElementNnz(rec), ElementDim(rec)};
  }

  std::unique_ptr<ChunkCollectorBase> MakeCollector() const override;

  /// Downcasts a type-erased chunk, checking the element type.
  static std::shared_ptr<const Chunk<T>> Cast(const AnyChunk& base) {
    KS_CHECK(base != nullptr);
    KS_CHECK(base->ElementType() == std::type_index(typeid(T)))
        << "chunk element type mismatch";
    return std::static_pointer_cast<const Chunk<T>>(base);
  }

  const std::vector<T>& records() const { return records_; }

 private:
  std::vector<T> records_;
};

/// A partitioned, typed, immutable collection — the simulator's stand-in for
/// an RDD. Partitions model the unit of distributed parallelism: the
/// executor schedules one task per partition over the simulated cluster's
/// worker slots.
template <typename T>
class DistDataset : public DatasetBase {
 public:
  DistDataset() = default;

  explicit DistDataset(std::vector<std::vector<T>> partitions)
      : partitions_(std::move(partitions)) {}

  /// Splits `records` into `num_partitions` nearly-equal contiguous chunks.
  static std::shared_ptr<DistDataset<T>> Partitioned(std::vector<T> records,
                                                     size_t num_partitions) {
    KS_CHECK_GT(num_partitions, 0u);
    std::vector<std::vector<T>> parts(num_partitions);
    const size_t n = records.size();
    size_t begin = 0;
    for (size_t p = 0; p < num_partitions; ++p) {
      const size_t count = n / num_partitions + (p < n % num_partitions);
      parts[p].reserve(count);
      for (size_t i = 0; i < count; ++i) {
        parts[p].push_back(std::move(records[begin + i]));
      }
      begin += count;
    }
    return std::make_shared<DistDataset<T>>(std::move(parts));
  }

  /// Downcasts a type-erased dataset, checking the element type.
  static const DistDataset<T>& Cast(const DatasetBase& base) {
    KS_CHECK(base.ElementType() == std::type_index(typeid(T)))
        << "dataset element type mismatch";
    return static_cast<const DistDataset<T>&>(base);
  }

  /// Downcasts a type-erased handle, checking the element type.
  static std::shared_ptr<const DistDataset<T>> Cast(const AnyDataset& base) {
    KS_CHECK(base != nullptr);
    Cast(*base);
    return std::static_pointer_cast<const DistDataset<T>>(base);
  }

  size_t NumRecords() const override {
    size_t n = 0;
    for (const auto& p : partitions_) n += p.size();
    return n;
  }

  size_t NumPartitions() const override { return partitions_.size(); }

  std::type_index ElementType() const override {
    return std::type_index(typeid(T));
  }

  DataStats ComputeStats() const override {
    DataStats stats;
    stats.num_records = NumRecords();
    if (stats.num_records == 0) return stats;
    const size_t real_records = stats.num_records;
    double bytes = 0.0;
    double nnz = 0.0;
    size_t dim = 0;
    for (const auto& part : partitions_) {
      for (const auto& rec : part) {
        bytes += ElementBytes(rec);
        nnz += ElementNnz(rec);
        dim = std::max(dim, ElementDim(rec));
      }
    }
    stats.dim = dim;
    stats.bytes_per_record = bytes / real_records;
    stats.avg_nnz = nnz / real_records;
    stats.sparsity = dim > 0 ? stats.avg_nnz / static_cast<double>(dim) : 1.0;
    stats.num_records =
        static_cast<size_t>(real_records * virtual_scale_);
    return stats;
  }

  ValueShape ElementShape() const override {
    for (const auto& part : partitions_) {
      if (!part.empty()) return ShapeOfElement(part.front());
    }
    return StaticShapeOf<T>::Get();
  }

  std::shared_ptr<DatasetBase> SamplePrefix(size_t max_records) const override {
    if (NumRecords() <= max_records && virtual_scale_ == 1.0 &&
        HasPartitionedLayout()) {
      // Null only for a dataset no shared_ptr owns; it is then copied.
      if (auto self = std::const_pointer_cast<DatasetBase>(
              weak_from_this().lock())) {
        return self;
      }
    }
    std::vector<T> sampled;
    sampled.reserve(std::min(max_records, NumRecords()));
    for (const auto& part : partitions_) {
      for (const auto& rec : part) {
        if (sampled.size() >= max_records) break;
        sampled.push_back(rec);
      }
      if (sampled.size() >= max_records) break;
    }
    const size_t parts =
        std::max<size_t>(1, std::min(partitions_.size(), sampled.size()));
    return Partitioned(std::move(sampled), parts);
  }

  size_t PartitionSize(size_t p) const override {
    KS_CHECK_LT(p, partitions_.size());
    return partitions_[p].size();
  }

  const std::vector<std::vector<T>>& partitions() const { return partitions_; }
  const std::vector<T>& partition(size_t p) const { return partitions_[p]; }

  /// All records flattened into one vector (copies).
  std::vector<T> Collect() const {
    std::vector<T> out;
    out.reserve(NumRecords());
    for (const auto& part : partitions_) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  /// Applies fn to every record, preserving partitioning.
  template <typename U>
  std::shared_ptr<DistDataset<U>> Map(
      const std::function<U(const T&)>& fn) const {
    std::vector<std::vector<U>> out(partitions_.size());
    for (size_t p = 0; p < partitions_.size(); ++p) {
      out[p].reserve(partitions_[p].size());
      for (const auto& rec : partitions_[p]) out[p].push_back(fn(rec));
    }
    return std::make_shared<DistDataset<U>>(std::move(out));
  }

 private:
  /// Whether the partitions have the sizes Partitioned gives NumRecords()
  /// records split as SamplePrefix would split them.
  bool HasPartitionedLayout() const {
    const size_t n = NumRecords();
    const size_t parts = std::max<size_t>(1, std::min(partitions_.size(), n));
    if (partitions_.size() != parts) return false;
    for (size_t p = 0; p < parts; ++p) {
      if (partitions_[p].size() != n / parts + (p < n % parts)) return false;
    }
    return true;
  }

  std::vector<std::vector<T>> partitions_;
};

/// Typed collector: accumulates chunk records per partition, then hands the
/// partitions to a DistDataset<T> without further copies.
template <typename T>
class ChunkCollector : public ChunkCollectorBase {
 public:
  void Resize(size_t num_partitions) override {
    partitions_.resize(num_partitions);
  }

  void Append(size_t p, const AnyChunk& chunk) override {
    KS_CHECK_LT(p, partitions_.size());
    const auto typed = Chunk<T>::Cast(chunk);
    partitions_[p].insert(partitions_[p].end(), typed->records().begin(),
                          typed->records().end());
  }

  AnyDataset Finish() override {
    return std::make_shared<DistDataset<T>>(std::move(partitions_));
  }

 private:
  std::vector<std::vector<T>> partitions_;
};

template <typename T>
std::unique_ptr<ChunkCollectorBase> Chunk<T>::MakeCollector() const {
  return std::make_unique<ChunkCollector<T>>();
}

/// Convenience: wraps records into a dataset with one partition per `chunk`
/// records, at least one partition.
template <typename T>
std::shared_ptr<DistDataset<T>> MakeDataset(std::vector<T> records,
                                            size_t num_partitions = 8) {
  const size_t n = records.size();
  const size_t parts = std::max<size_t>(1, std::min(num_partitions, n));
  return DistDataset<T>::Partitioned(std::move(records), parts);
}

}  // namespace keystone

#endif  // KEYSTONE_DATA_DIST_DATASET_H_
