#include "src/ops/text_ops.h"

#include <algorithm>
#include <cctype>

#include "src/common/hash.h"
#include "src/common/string_util.h"

namespace keystone {

std::string Trim::Apply(const std::string& doc) const {
  return TrimWhitespace(doc);
}

std::string LowerCase::Apply(const std::string& doc) const {
  return ToLowerAscii(doc);
}

TokenSeq Tokenizer::Apply(const std::string& doc) const {
  return SplitString(doc, " \t\r\n.,;:!?()[]{}\"'");
}

TokenSeq NGramsFeaturizer::Apply(const TokenSeq& tokens) const {
  TokenSeq out;
  for (int n = min_n_; n <= max_n_; ++n) {
    if (n <= 0 || tokens.size() < static_cast<size_t>(n)) continue;
    for (size_t i = 0; i + n <= tokens.size(); ++i) {
      std::string gram = tokens[i];
      for (int j = 1; j < n; ++j) {
        gram += '_';
        gram += tokens[i + j];
      }
      out.push_back(std::move(gram));
    }
  }
  return out;
}

SparseVector HashingTermFrequency::Apply(const TokenSeq& tokens) const {
  SparseVector v;
  v.dim = dim_;
  for (const auto& token : tokens) {
    const uint64_t h = Fnv1a(kFnvHistoricalOffsetBasis, token);
    v.Push(static_cast<uint32_t>(h % dim_), 1.0);
  }
  v.SortAndMerge();
  if (weighting_ == Weighting::kBinary) {
    for (auto& value : v.values) value = 1.0;
  }
  return v;
}

CostProfile HashingTermFrequency::EstimateCost(const DataStats& in,
                                               int workers) const {
  CostProfile cost;
  cost.bytes = 2.0 * in.TotalBytes() / std::max(1, workers);
  cost.flops = 8.0 * in.TotalBytes() / std::max(1, workers);  // hash work
  return cost;
}

VocabularyModel::VocabularyModel(std::vector<std::string> vocabulary,
                                 size_t dim, bool binary)
    : dim_(dim), binary_(binary) {
  for (uint32_t i = 0; i < vocabulary.size(); ++i) {
    index_.emplace(std::move(vocabulary[i]), i);
  }
}

SparseVector VocabularyModel::Apply(const TokenSeq& tokens) const {
  SparseVector v;
  v.dim = dim_;
  for (const auto& token : tokens) {
    auto it = index_.find(token);
    if (it != index_.end()) v.Push(it->second, 1.0);
  }
  v.SortAndMerge();
  if (binary_) {
    for (auto& value : v.values) value = 1.0;
  }
  return v;
}

CostProfile VocabularyModel::EstimateCost(const DataStats& in,
                                          int workers) const {
  CostProfile cost;
  cost.bytes = 2.0 * in.TotalBytes() / std::max(1, workers);
  cost.flops = 8.0 * in.TotalBytes() / std::max(1, workers);
  return cost;
}

Fitted<Transformer<TokenSeq, SparseVector>> CommonSparseFeatures::Fit(
    const DistDataset<TokenSeq>& data, ExecContext* ctx) const {
  (void)ctx;
  std::unordered_map<std::string, uint64_t> counts;
  for (const auto& part : data.partitions()) {
    for (const auto& tokens : part) {
      for (const auto& token : tokens) ++counts[token];
    }
  }
  // Top max_features_ terms by frequency (ties broken lexicographically for
  // determinism).
  std::vector<std::pair<std::string, uint64_t>> terms(counts.begin(),
                                                      counts.end());
  const size_t keep = std::min(max_features_, terms.size());
  std::partial_sort(terms.begin(), terms.begin() + keep, terms.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  std::vector<std::string> vocabulary;
  vocabulary.reserve(keep);
  for (size_t i = 0; i < keep; ++i) vocabulary.push_back(terms[i].first);
  // The model's output dimension is the configured width so that sample
  // fits report the same feature dimensionality as full fits.
  return {std::make_shared<VocabularyModel>(std::move(vocabulary),
                                            max_features_, binary_),
          std::nullopt};
}

CostProfile CommonSparseFeatures::EstimateCost(const DataStats& in,
                                               int workers) const {
  CostProfile cost;
  cost.bytes = 2.0 * in.TotalBytes() / std::max(1, workers);
  cost.flops = 12.0 * in.TotalBytes() / std::max(1, workers);
  // Aggregation of per-node term counts.
  cost.network = 16.0 * static_cast<double>(max_features_);
  cost.rounds = 2.0;
  return cost;
}

}  // namespace keystone
