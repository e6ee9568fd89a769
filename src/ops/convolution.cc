#include "src/ops/convolution.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/linalg/fft.h"
#include "src/linalg/gemm.h"
#include "src/linalg/svd.h"

namespace keystone {

bool FilterBank::IsSeparable(double tol) const {
  for (const auto& f : filters) {
    for (size_t c = 0; c < channels; ++c) {
      const Matrix slice = f.Channel(c);
      const SvdResult svd = ExactSvd(slice);
      // Rank one: all singular values beyond the first negligible.
      for (size_t i = 1; i < svd.singular_values.size(); ++i) {
        if (svd.singular_values[i] > tol * (svd.singular_values[0] + 1e-30)) {
          return false;
        }
      }
    }
  }
  return true;
}

FilterBank FilterBank::Random(size_t num_filters, size_t filter_size,
                              size_t channels, Rng* rng) {
  FilterBank bank;
  bank.filter_size = filter_size;
  bank.channels = channels;
  bank.filters.reserve(num_filters);
  for (size_t i = 0; i < num_filters; ++i) {
    Image f(filter_size, filter_size, channels);
    for (auto& v : f.data) v = rng->NextGaussian();
    bank.filters.push_back(std::move(f));
  }
  return bank;
}

FilterBank FilterBank::RandomSeparable(size_t num_filters, size_t filter_size,
                                       size_t channels, Rng* rng) {
  FilterBank bank;
  bank.filter_size = filter_size;
  bank.channels = channels;
  bank.filters.reserve(num_filters);
  for (size_t i = 0; i < num_filters; ++i) {
    Image f(filter_size, filter_size, channels);
    for (size_t c = 0; c < channels; ++c) {
      std::vector<double> u(filter_size);
      std::vector<double> v(filter_size);
      for (auto& x : u) x = rng->NextGaussian();
      for (auto& x : v) x = rng->NextGaussian();
      for (size_t y = 0; y < filter_size; ++y) {
        for (size_t x = 0; x < filter_size; ++x) {
          f.at(c, y, x) = u[y] * v[x];
        }
      }
    }
    bank.filters.push_back(std::move(f));
  }
  return bank;
}

const char* ConvolutionStrategyName(ConvolutionStrategy strategy) {
  switch (strategy) {
    case ConvolutionStrategy::kBlas:
      return "BLAS";
    case ConvolutionStrategy::kFft:
      return "FFT";
    case ConvolutionStrategy::kSeparable:
      return "Separable";
  }
  return "?";
}

Convolver::Convolver(FilterBank bank, ConvolutionStrategy strategy)
    : bank_(std::move(bank)), strategy_(strategy) {
  if (strategy_ == ConvolutionStrategy::kSeparable) {
    // Precompute rank-one factors per filter channel slice.
    separable_factors_.resize(bank_.num_filters());
    for (size_t f = 0; f < bank_.num_filters(); ++f) {
      separable_factors_[f].resize(bank_.channels);
      for (size_t c = 0; c < bank_.channels; ++c) {
        const Matrix slice = bank_.filters[f].Channel(c);
        const SvdResult svd = ExactSvd(slice);
        const double sigma = svd.singular_values.empty()
                                 ? 0.0
                                 : svd.singular_values[0];
        std::vector<double> col(bank_.filter_size);
        std::vector<double> row(bank_.filter_size);
        for (size_t i = 0; i < bank_.filter_size; ++i) {
          col[i] = svd.u(i, 0) * sigma;
          row[i] = svd.v(i, 0);
        }
        separable_factors_[f][c] = {std::move(col), std::move(row)};
      }
    }
  }
}

std::string Convolver::Name() const {
  return std::string("Convolver.") + ConvolutionStrategyName(strategy_);
}

std::string Convolver::ParamSignature() const {
  // FNV-1a over the filter weights' bit patterns: banks drawn from different
  // seeds get different signatures even at identical geometry.
  uint64_t hash = kFnvHistoricalOffsetBasis;
  for (const auto& filter : bank_.filters) {
    for (double v : filter.data) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
      std::memcpy(&bits, &v, sizeof(bits));
      hash = Fnv1aWord(hash, bits);
    }
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::to_string(bank_.num_filters()) + "x" +
         std::to_string(bank_.filter_size) + "x" +
         std::to_string(bank_.channels) + "," + digest;
}

Image Convolver::Apply(const Image& img) const {
  KS_CHECK_EQ(img.channels, bank_.channels);
  KS_CHECK_GE(img.height, bank_.filter_size);
  KS_CHECK_GE(img.width, bank_.filter_size);
  switch (strategy_) {
    case ConvolutionStrategy::kBlas:
      return ApplyBlas(img);
    case ConvolutionStrategy::kFft:
      return ApplyFft(img);
    case ConvolutionStrategy::kSeparable:
      return ApplySeparable(img);
  }
  KS_CHECK(false);
  return Image();
}

Image Convolver::ApplyBlas(const Image& img) const {
  const size_t k = bank_.filter_size;
  const size_t my = img.height - k + 1;
  const size_t mx = img.width - k + 1;
  const size_t patch_dim = k * k * img.channels;

  // im2col: one row per output position.
  Matrix patches(my * mx, patch_dim);
  for (size_t y = 0; y < my; ++y) {
    for (size_t x = 0; x < mx; ++x) {
      double* dst = patches.RowPtr(y * mx + x);
      size_t idx = 0;
      for (size_t c = 0; c < img.channels; ++c) {
        for (size_t dy = 0; dy < k; ++dy) {
          for (size_t dx = 0; dx < k; ++dx) {
            dst[idx++] = img.at(c, y + dy, x + dx);
          }
        }
      }
    }
  }
  // Filter matrix: patch_dim x b.
  Matrix filters(patch_dim, bank_.num_filters());
  for (size_t f = 0; f < bank_.num_filters(); ++f) {
    size_t idx = 0;
    for (size_t c = 0; c < img.channels; ++c) {
      for (size_t dy = 0; dy < k; ++dy) {
        for (size_t dx = 0; dx < k; ++dx) {
          filters(idx++, f) = bank_.filters[f].at(c, dy, dx);
        }
      }
    }
  }
  const Matrix responses = Gemm(patches, filters);  // (my*mx) x b

  Image out(mx, my, bank_.num_filters());
  for (size_t f = 0; f < bank_.num_filters(); ++f) {
    for (size_t y = 0; y < my; ++y) {
      for (size_t x = 0; x < mx; ++x) {
        out.at(f, y, x) = responses(y * mx + x, f);
      }
    }
  }
  return out;
}

Image Convolver::ApplyFft(const Image& img) const {
  const size_t k = bank_.filter_size;
  const size_t my = img.height - k + 1;
  const size_t mx = img.width - k + 1;
  Image out(mx, my, bank_.num_filters());
  for (size_t f = 0; f < bank_.num_filters(); ++f) {
    Matrix acc(my, mx);
    for (size_t c = 0; c < img.channels; ++c) {
      acc += FftConvolve2dValid(img.Channel(c), bank_.filters[f].Channel(c));
    }
    out.SetChannel(f, acc);
  }
  return out;
}

Image Convolver::ApplySeparable(const Image& img) const {
  const size_t k = bank_.filter_size;
  const size_t my = img.height - k + 1;
  const size_t mx = img.width - k + 1;
  Image out(mx, my, bank_.num_filters());

  for (size_t f = 0; f < bank_.num_filters(); ++f) {
    Matrix acc(my, mx);
    for (size_t c = 0; c < img.channels; ++c) {
      const auto& [col_factor, row_factor] = separable_factors_[f][c];
      // Horizontal pass with the row factor: temp(y, x) for y in [0, h),
      // x in [0, mx).
      Matrix temp(img.height, mx);
      for (size_t y = 0; y < img.height; ++y) {
        for (size_t x = 0; x < mx; ++x) {
          double sum = 0.0;
          for (size_t dx = 0; dx < k; ++dx) {
            sum += img.at(c, y, x + dx) * row_factor[dx];
          }
          temp(y, x) = sum;
        }
      }
      // Vertical pass with the column factor.
      for (size_t y = 0; y < my; ++y) {
        for (size_t x = 0; x < mx; ++x) {
          double sum = 0.0;
          for (size_t dy = 0; dy < k; ++dy) {
            sum += temp(y + dy, x) * col_factor[dy];
          }
          acc(y, x) += sum;
        }
      }
    }
    out.SetChannel(f, acc);
  }
  return out;
}

namespace convolution_costs {

CostProfile Cost(ConvolutionStrategy strategy, double n, double d, double k,
                 double b, double records, int workers) {
  const double m = n - k + 1;
  const double w = std::max(1, workers);
  CostProfile cost;
  switch (strategy) {
    case ConvolutionStrategy::kSeparable:
      // Two 1-D passes per filter/channel plus the rank-one factorization.
      cost.flops = records * (2.0 * d * b * k * m * m + b * k * k * k) / w;
      break;
    case ConvolutionStrategy::kBlas:
      cost.flops = records * 2.0 * d * b * k * k * m * m / w;
      break;
    case ConvolutionStrategy::kFft:
      cost.flops =
          records * (6.0 * d * b * n * n * std::log2(std::max(2.0, n)) +
                     4.0 * d * b * n * n) / w;
      break;
  }
  cost.bytes = records * 8.0 * (d * n * n + b * m * m) / w;
  return cost;
}

}  // namespace convolution_costs

CostProfile Convolver::EstimateCost(const DataStats& in, int workers) const {
  // in.dim is pixels per image = n * n * d.
  const double d = static_cast<double>(bank_.channels);
  const double n = std::sqrt(static_cast<double>(in.dim) / std::max(1.0, d));
  return convolution_costs::Cost(strategy_, n, d,
                                 static_cast<double>(bank_.filter_size),
                                 static_cast<double>(bank_.num_filters()),
                                 static_cast<double>(in.num_records),
                                 workers);
}

std::shared_ptr<OptimizableTransformer> MakeConvolver(const FilterBank& bank) {
  std::vector<std::shared_ptr<TransformerBase>> options = {
      std::make_shared<Convolver>(bank, ConvolutionStrategy::kBlas),
      std::make_shared<Convolver>(bank, ConvolutionStrategy::kFft),
  };
  if (bank.IsSeparable()) {
    options.push_back(
        std::make_shared<Convolver>(bank, ConvolutionStrategy::kSeparable));
  }
  return std::make_shared<OptimizableTransformer>("Convolver",
                                                  std::move(options));
}

}  // namespace keystone
