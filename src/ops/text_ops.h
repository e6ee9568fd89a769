#ifndef KEYSTONE_OPS_TEXT_OPS_H_
#define KEYSTONE_OPS_TEXT_OPS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/operator.h"
#include "src/linalg/sparse.h"

namespace keystone {

using TokenSeq = std::vector<std::string>;

/// Strips leading/trailing whitespace (paper Figure 2's `Trim`).
class Trim : public Transformer<std::string, std::string> {
 public:
  std::string Name() const override { return "Trim"; }
  std::string Apply(const std::string& doc) const override;
};

/// ASCII lowercasing.
class LowerCase : public Transformer<std::string, std::string> {
 public:
  std::string Name() const override { return "LowerCase"; }
  std::string Apply(const std::string& doc) const override;
};

/// Whitespace/punctuation tokenizer.
class Tokenizer : public Transformer<std::string, TokenSeq> {
 public:
  std::string Name() const override { return "Tokenizer"; }
  TokenSeq Apply(const std::string& doc) const override;
};

/// Emits all n-grams for n in [min_n, max_n], joined with '_'.
class NGramsFeaturizer : public Transformer<TokenSeq, TokenSeq> {
 public:
  NGramsFeaturizer(int min_n, int max_n) : min_n_(min_n), max_n_(max_n) {}
  std::string Name() const override { return "NGrams"; }
  std::string ParamSignature() const override {
    return std::to_string(min_n_) + "-" + std::to_string(max_n_);
  }
  TokenSeq Apply(const TokenSeq& tokens) const override;

 private:
  int min_n_;
  int max_n_;
};

/// Hashing term-frequency featurizer: token -> hash bucket in [0, dim). The
/// weighting matches the paper's TermFrequency(x => 1) (binary presence) or
/// raw counts.
class HashingTermFrequency : public Transformer<TokenSeq, SparseVector> {
 public:
  enum class Weighting { kBinary, kCount };

  explicit HashingTermFrequency(size_t dim,
                                Weighting weighting = Weighting::kBinary)
      : dim_(dim), weighting_(weighting) {}

  std::string Name() const override { return "HashingTF"; }
  std::string ParamSignature() const override {
    return std::to_string(dim_) +
           (weighting_ == Weighting::kBinary ? ",binary" : ",count");
  }
  SparseVector Apply(const TokenSeq& tokens) const override;

  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return ValueShape::Sparse(static_cast<int64_t>(dim_));
  }

  CostProfile EstimateCost(const DataStats& in, int workers) const override;

 private:
  size_t dim_;
  Weighting weighting_;
};

/// Fitted vocabulary map: token -> feature index; unseen tokens dropped.
class VocabularyModel : public Transformer<TokenSeq, SparseVector> {
 public:
  VocabularyModel(std::vector<std::string> vocabulary, size_t dim,
                  bool binary);

  std::string Name() const override { return "CommonSparseFeatures.Model"; }
  SparseVector Apply(const TokenSeq& tokens) const override;

  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return ValueShape::Sparse(static_cast<int64_t>(dim_));
  }

  size_t vocabulary_size() const { return index_.size(); }
  CostProfile EstimateCost(const DataStats& in, int workers) const override;

 private:
  std::unordered_map<std::string, uint32_t> index_;
  size_t dim_;
  bool binary_;
};

/// Keeps the `max_features` most frequent terms across the corpus (paper
/// Figure 2's CommonSparseFeatures(1e5)) and featurizes documents to sparse
/// term-frequency vectors over that vocabulary.
class CommonSparseFeatures : public Estimator<TokenSeq, SparseVector> {
 public:
  explicit CommonSparseFeatures(size_t max_features, bool binary = true)
      : max_features_(max_features), binary_(binary) {}

  std::string Name() const override { return "CommonSparseFeatures"; }
  std::string ParamSignature() const override {
    return std::to_string(max_features_) + (binary_ ? ",binary" : ",count");
  }

  Fitted<Transformer<TokenSeq, SparseVector>> Fit(
      const DistDataset<TokenSeq>& data, ExecContext* ctx) const override;

  /// The fitted VocabularyModel always emits vectors in a max_features-wide
  /// feature space (Fit passes max_features_ as the model dim).
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    (void)data_in;
    return ValueShape::Sparse(static_cast<int64_t>(max_features_));
  }

  CostProfile EstimateCost(const DataStats& in, int workers) const override;

 private:
  size_t max_features_;
  bool binary_;
};

}  // namespace keystone

#endif  // KEYSTONE_OPS_TEXT_OPS_H_
