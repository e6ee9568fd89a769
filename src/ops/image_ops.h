#ifndef KEYSTONE_OPS_IMAGE_OPS_H_
#define KEYSTONE_OPS_IMAGE_OPS_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/core/operator.h"
#include "src/ops/image.h"

namespace keystone {

/// Luminance grayscale conversion (any #channels -> 1).
class GrayScaler : public Transformer<Image, Image> {
 public:
  std::string Name() const override { return "GrayScaler"; }
  Image Apply(const Image& img) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::ImageOf(in.d0, in.d1, 1);
  }
};

/// Extracts all (stride-spaced) patch_size x patch_size patches and flattens
/// each into a row of the output matrix (the CIFAR pipeline's Windower /
/// PatchExtractor).
class PatchExtractor : public Transformer<Image, Matrix> {
 public:
  PatchExtractor(size_t patch_size, size_t stride)
      : patch_size_(patch_size), stride_(stride) {
    KS_CHECK_GT(stride_, 0u);
  }

  std::string Name() const override { return "PatchExtractor"; }
  std::string ParamSignature() const override {
    return std::to_string(patch_size_) + "," + std::to_string(stride_);
  }
  Matrix Apply(const Image& img) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;

  /// One row per patch; width = flattened patch (needs channel count).
  ValueShape TransferShape(const ValueShape& in) const override {
    const int64_t cols =
        in.d2 == ValueShape::kUnknownDim
            ? ValueShape::kUnknownDim
            : static_cast<int64_t>(patch_dim(static_cast<size_t>(in.d2)));
    return ValueShape::MatrixOf(ValueShape::kUnknownDim, cols);
  }

  size_t patch_dim(size_t channels) const {
    return patch_size_ * patch_size_ * channels;
  }

 private:
  size_t patch_size_;
  size_t stride_;
};

/// The orientation bin of gradient (gx, gy) among `bins` equal sectors of
/// [-pi, pi]: min(bins - 1, floor((atan2(gy, gx) + pi) / (2 pi) * bins)).
/// With 8 bins each bin is one octant, so the bin follows from the signs of
/// gx and gy and from whether |gy| > |gx|, without the atan2. That agrees
/// with the formula exactly: atan2's error of at most 1 ulp and the
/// formula's roundings move the bin position by about 1e-14, while a
/// gradient that passes the 2^-40 relative guard below lies at least about
/// 4.5e-13 rad from every octant edge. Zeros, ties, near-axis and
/// near-diagonal gradients, NaN and infinities fail the guard and take the
/// formula, as does every other bin count.
inline size_t OrientationBin(double gx, double gy, size_t bins) {
  if (bins == 8) {
    const double ax = std::fabs(gx);
    const double ay = std::fabs(gy);
    const double lo = std::min(ax, ay);
    const double hi = std::max(ax, ay);
    const double guard = hi * 0x1p-40;
    // A NaN or infinite gradient fails one of the comparisons.
    if (lo > guard && hi - lo > guard) {
      // Octants 0-3 lie below the x axis and 4-7 above it. Where gx and gy
      // have the same sign the steep octant (|gy| > |gx|) is the later of
      // the quadrant's two, elsewhere the earlier.
      const size_t upper = gy > 0.0;
      const size_t steep = ay > ax;
      return 4 * upper + (upper == (gx > 0.0) ? steep : 3 - steep);
    }
  }
  const double unit = (std::atan2(gy, gx) + M_PI) / (2.0 * M_PI);  // [0, 1]
  return std::min(bins - 1, static_cast<size_t>(unit * bins));
}

/// Dense SIFT-like descriptors: the image is divided into cells; each cell
/// yields a histogram of gradient orientations over `bins` bins, normalized.
/// A simplified stand-in for SIFT [Lowe 99] with the same output shape
/// (one descriptor row per cell, fixed dimension).
class DenseSift : public Transformer<Image, Matrix> {
 public:
  DenseSift(size_t cell_size, size_t bins)
      : cell_size_(cell_size), bins_(bins) {
    KS_CHECK_GT(cell_size_, 0u);
    KS_CHECK_GT(bins_, 0u);
  }

  std::string Name() const override { return "SIFT"; }
  std::string ParamSignature() const override {
    return std::to_string(cell_size_) + "," + std::to_string(bins_);
  }
  Matrix Apply(const Image& img) const override;
  CostProfile EstimateCost(const DataStats& in, int workers) const override;

  ValueShape TransferShape(const ValueShape& in) const override {
    (void)in;
    return ValueShape::MatrixOf(ValueShape::kUnknownDim,
                                static_cast<int64_t>(descriptor_dim()));
  }

  size_t descriptor_dim() const { return 4 * bins_; }

 private:
  size_t cell_size_;
  size_t bins_;
};

/// Local color statistics: per-cell mean and standard deviation of each
/// channel (the LCS featurizer of the ImageNet pipeline).
class LocalColorStats : public Transformer<Image, Matrix> {
 public:
  explicit LocalColorStats(size_t cell_size) : cell_size_(cell_size) {
    KS_CHECK_GT(cell_size_, 0u);
  }

  std::string Name() const override { return "LCS"; }
  std::string ParamSignature() const override {
    return std::to_string(cell_size_);
  }
  Matrix Apply(const Image& img) const override;

  /// Per-cell mean and standard deviation of each channel.
  ValueShape TransferShape(const ValueShape& in) const override {
    const int64_t cols =
        in.d2 == ValueShape::kUnknownDim ? ValueShape::kUnknownDim : 2 * in.d2;
    return ValueShape::MatrixOf(ValueShape::kUnknownDim, cols);
  }

 private:
  size_t cell_size_;
};

/// Keeps every `stride`-th descriptor row — the DAG's "Column Sampler"
/// nodes, which thin descriptor sets before fitting PCA/GMM.
class DescriptorSampler : public Transformer<Matrix, Matrix> {
 public:
  explicit DescriptorSampler(size_t stride) : stride_(stride) {
    KS_CHECK_GT(stride_, 0u);
  }
  std::string Name() const override { return "ColumnSampler"; }
  std::string ParamSignature() const override {
    return std::to_string(stride_);
  }
  Matrix Apply(const Matrix& descriptors) const override;
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::MatrixOf(ValueShape::kUnknownDim, in.d1);
  }

 private:
  size_t stride_;
};

/// Symmetric rectification: each input column x becomes [max(x,0),
/// max(-x,0)] (doubling the dimension) — used by the CIFAR pipeline.
class SymmetricRectifier : public Transformer<std::vector<double>,
                                              std::vector<double>> {
 public:
  explicit SymmetricRectifier(double alpha = 0.0) : alpha_(alpha) {}
  std::string Name() const override { return "SymmetricRectifier"; }
  std::string ParamSignature() const override { return ParamNumber(alpha_); }
  std::vector<double> Apply(const std::vector<double>& x) const override;
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::Vector(
        in.d0 == ValueShape::kUnknownDim ? ValueShape::kUnknownDim
                                         : 2 * in.d0);
  }

 private:
  double alpha_;
};

/// Sum-pools descriptor rows over a grid_ x grid_ spatial grid, assuming
/// rows are in row-major cell order, and concatenates pooled blocks.
class Pooler : public Transformer<Matrix, std::vector<double>> {
 public:
  explicit Pooler(size_t grid) : grid_(grid) { KS_CHECK_GT(grid_, 0u); }
  std::string Name() const override { return "Pooler"; }
  std::string ParamSignature() const override { return std::to_string(grid_); }
  std::vector<double> Apply(const Matrix& features) const override;
  ValueShape TransferShape(const ValueShape& in) const override {
    return ValueShape::Vector(
        in.d1 == ValueShape::kUnknownDim
            ? ValueShape::kUnknownDim
            : static_cast<int64_t>(grid_ * grid_) * in.d1);
  }

 private:
  size_t grid_;
};

/// ZCA whitening estimator over patch matrices: fits mean and rotation
/// W = V (D + eps)^(-1/2) V^T on stacked patches; the model whitens each
/// descriptor row.
class ZcaWhitener : public Estimator<Matrix, Matrix> {
 public:
  explicit ZcaWhitener(double epsilon = 0.1) : epsilon_(epsilon) {}
  std::string Name() const override { return "ZCAWhitener"; }
  std::string ParamSignature() const override { return ParamNumber(epsilon_); }

  Fitted<Transformer<Matrix, Matrix>> Fit(
      const DistDataset<Matrix>& data, ExecContext* ctx) const override;

  /// Whitening rotates rows in place: the shape is preserved.
  ValueShape ModelOutputShape(const ValueShape& data_in) const override {
    return data_in;
  }

  CostProfile EstimateCost(const DataStats& in, int workers) const override;

 private:
  double epsilon_;
};

/// The fitted whitening transform.
class ZcaModel : public Transformer<Matrix, Matrix> {
 public:
  ZcaModel(std::vector<double> mean, Matrix rotation)
      : mean_(std::move(mean)), rotation_(std::move(rotation)) {}
  std::string Name() const override { return "ZCA.Model"; }
  Matrix Apply(const Matrix& rows) const override;
  ValueShape InputShapeRequirement() const override {
    return ValueShape::MatrixOf(ValueShape::kUnknownDim,
                                static_cast<int64_t>(rotation_.cols()));
  }
  ValueShape TransferShape(const ValueShape& in) const override { return in; }
  const Matrix& rotation() const { return rotation_; }

 private:
  std::vector<double> mean_;
  Matrix rotation_;
};

}  // namespace keystone

#endif  // KEYSTONE_OPS_IMAGE_OPS_H_
