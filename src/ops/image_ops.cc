#include "src/ops/image_ops.h"

#include <algorithm>
#include <cmath>

#include "src/common/kernel_align.h"
#include "src/linalg/eigen.h"
#include "src/linalg/gemm.h"

namespace keystone {

Image GrayScaler::Apply(const Image& img) const {
  Image out(img.width, img.height, 1);
  const double scale = 1.0 / static_cast<double>(img.channels);
  for (size_t y = 0; y < img.height; ++y) {
    for (size_t x = 0; x < img.width; ++x) {
      double sum = 0.0;
      for (size_t c = 0; c < img.channels; ++c) sum += img.at(c, y, x);
      out.at(0, y, x) = sum * scale;
    }
  }
  return out;
}

CostProfile GrayScaler::EstimateCost(const DataStats& in, int workers) const {
  CostProfile cost;
  cost.flops = 2.0 * static_cast<double>(in.dim) * in.num_records /
               std::max(1, workers);
  cost.bytes = in.TotalBytes() / std::max(1, workers);
  return cost;
}

Matrix PatchExtractor::Apply(const Image& img) const {
  KS_CHECK_GE(img.width, patch_size_);
  KS_CHECK_GE(img.height, patch_size_);
  const size_t ny = (img.height - patch_size_) / stride_ + 1;
  const size_t nx = (img.width - patch_size_) / stride_ + 1;
  Matrix out(ny * nx, patch_dim(img.channels));
  size_t row = 0;
  for (size_t y0 = 0; y0 + patch_size_ <= img.height; y0 += stride_) {
    for (size_t x0 = 0; x0 + patch_size_ <= img.width; x0 += stride_) {
      double* dst = out.RowPtr(row++);
      size_t idx = 0;
      for (size_t c = 0; c < img.channels; ++c) {
        for (size_t dy = 0; dy < patch_size_; ++dy) {
          for (size_t dx = 0; dx < patch_size_; ++dx) {
            dst[idx++] = img.at(c, y0 + dy, x0 + dx);
          }
        }
      }
    }
  }
  return out;
}

CostProfile PatchExtractor::EstimateCost(const DataStats& in,
                                         int workers) const {
  CostProfile cost;
  // Each pixel is copied roughly (patch/stride)^2 times.
  const double copies =
      static_cast<double>(patch_size_ * patch_size_) /
      std::max<size_t>(1, stride_ * stride_);
  cost.bytes = copies * in.TotalBytes() / std::max(1, workers);
  return cost;
}

KS_KERNEL_ALIGN Matrix DenseSift::Apply(const Image& img) const {
  // Gradient field of a grayscale image; a one-channel input is read in
  // place.
  if (img.channels != 1) return DenseSift::Apply(GrayScaler().Apply(img));
  const size_t h = img.height;
  const size_t w = img.width;
  const size_t cells_y = h / cell_size_;
  const size_t cells_x = w / cell_size_;
  KS_CHECK_GT(cells_y, 0u);
  KS_CHECK_GT(cells_x, 0u);

  // Each descriptor aggregates a 2x2 neighborhood of cells (hence 4 * bins
  // dimensions), mimicking SIFT's spatial binning at reduced scale.
  const size_t desc_y = cells_y > 1 ? cells_y - 1 : 1;
  const size_t desc_x = cells_x > 1 ? cells_x - 1 : 1;

  // Per-cell orientation histograms.
  Matrix cell_hist(cells_y * cells_x, bins_);
  for (size_t y = 1; y + 1 < h; ++y) {
    for (size_t x = 1; x + 1 < w; ++x) {
      const double gx = img.at(0, y, x + 1) - img.at(0, y, x - 1);
      const double gy = img.at(0, y + 1, x) - img.at(0, y - 1, x);
      const double mag = std::sqrt(gx * gx + gy * gy);
      const size_t bin = OrientationBin(gx, gy, bins_);
      const size_t cy = std::min(cells_y - 1, y / cell_size_);
      const size_t cx = std::min(cells_x - 1, x / cell_size_);
      cell_hist(cy * cells_x + cx, bin) += mag;
    }
  }

  Matrix out(desc_y * desc_x, descriptor_dim());
  for (size_t cy = 0; cy < desc_y; ++cy) {
    for (size_t cx = 0; cx < desc_x; ++cx) {
      double* dst = out.RowPtr(cy * desc_x + cx);
      size_t idx = 0;
      for (size_t dy = 0; dy < 2; ++dy) {
        for (size_t dx = 0; dx < 2; ++dx) {
          const size_t yy = std::min(cells_y - 1, cy + dy);
          const size_t xx = std::min(cells_x - 1, cx + dx);
          const double* hist = cell_hist.RowPtr(yy * cells_x + xx);
          for (size_t b = 0; b < bins_; ++b) dst[idx++] = hist[b];
        }
      }
      // L2 normalize the descriptor.
      double norm = 0.0;
      for (size_t i = 0; i < descriptor_dim(); ++i) norm += dst[i] * dst[i];
      norm = std::sqrt(norm);
      if (norm > 1e-12) {
        for (size_t i = 0; i < descriptor_dim(); ++i) dst[i] /= norm;
      }
    }
  }
  return out;
}

CostProfile DenseSift::EstimateCost(const DataStats& in, int workers) const {
  CostProfile cost;
  // ~20 flops per pixel for gradients + histogram updates.
  cost.flops = 20.0 * static_cast<double>(in.dim) * in.num_records /
               std::max(1, workers);
  cost.bytes = 3.0 * in.TotalBytes() / std::max(1, workers);
  return cost;
}

Matrix LocalColorStats::Apply(const Image& img) const {
  const size_t cells_y = std::max<size_t>(1, img.height / cell_size_);
  const size_t cells_x = std::max<size_t>(1, img.width / cell_size_);
  Matrix out(cells_y * cells_x, 2 * img.channels);
  for (size_t cy = 0; cy < cells_y; ++cy) {
    for (size_t cx = 0; cx < cells_x; ++cx) {
      double* dst = out.RowPtr(cy * cells_x + cx);
      for (size_t c = 0; c < img.channels; ++c) {
        double sum = 0.0;
        double sum_sq = 0.0;
        size_t count = 0;
        for (size_t y = cy * cell_size_;
             y < std::min(img.height, (cy + 1) * cell_size_); ++y) {
          for (size_t x = cx * cell_size_;
               x < std::min(img.width, (cx + 1) * cell_size_); ++x) {
            const double v = img.at(c, y, x);
            sum += v;
            sum_sq += v * v;
            ++count;
          }
        }
        const double mean = count > 0 ? sum / count : 0.0;
        const double var = count > 0 ? sum_sq / count - mean * mean : 0.0;
        dst[2 * c] = mean;
        dst[2 * c + 1] = std::sqrt(std::max(0.0, var));
      }
    }
  }
  return out;
}

Matrix DescriptorSampler::Apply(const Matrix& descriptors) const {
  const size_t kept = (descriptors.rows() + stride_ - 1) / stride_;
  Matrix out(kept, descriptors.cols());
  size_t row = 0;
  for (size_t i = 0; i < descriptors.rows(); i += stride_) {
    std::copy(descriptors.RowPtr(i), descriptors.RowPtr(i) + descriptors.cols(),
              out.RowPtr(row++));
  }
  return out;
}

std::vector<double> SymmetricRectifier::Apply(
    const std::vector<double>& x) const {
  std::vector<double> out(2 * x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = std::max(0.0, x[i] - alpha_);
    out[x.size() + i] = std::max(0.0, -x[i] - alpha_);
  }
  return out;
}

std::vector<double> Pooler::Apply(const Matrix& features) const {
  const size_t rows = features.rows();
  KS_CHECK_GT(rows, 0u);
  // Rows are spatial positions in row-major order of a roughly square grid.
  const size_t side = std::max<size_t>(
      1, static_cast<size_t>(std::round(std::sqrt(static_cast<double>(rows)))));
  const size_t grid = std::min(grid_, side);
  std::vector<double> out(grid * grid * features.cols(), 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const size_t y = r / side;
    const size_t x = r % side;
    const size_t gy = std::min(grid - 1, y * grid / side);
    const size_t gx = std::min(grid - 1, x * grid / side);
    double* dst = out.data() + (gy * grid + gx) * features.cols();
    const double* src = features.RowPtr(r);
    for (size_t j = 0; j < features.cols(); ++j) dst[j] += src[j];
  }
  return out;
}

Fitted<Transformer<Matrix, Matrix>> ZcaWhitener::Fit(
    const DistDataset<Matrix>& data, ExecContext* ctx) const {
  (void)ctx;
  // Stack all descriptor rows; compute mean and covariance.
  size_t dim = 0;
  size_t total_rows = 0;
  for (const auto& part : data.partitions()) {
    for (const auto& m : part) {
      dim = std::max(dim, m.cols());
      total_rows += m.rows();
    }
  }
  KS_CHECK_GT(dim, 0u);
  KS_CHECK_GT(total_rows, 0u);

  std::vector<double> mean(dim, 0.0);
  for (const auto& part : data.partitions()) {
    for (const auto& m : part) {
      KS_CHECK_EQ(m.cols(), dim) << "ragged descriptor matrices";
      for (size_t r = 0; r < m.rows(); ++r) {
        const double* row = m.RowPtr(r);
        for (size_t j = 0; j < dim; ++j) mean[j] += row[j];
      }
    }
  }
  for (auto& v : mean) v /= static_cast<double>(total_rows);

  Matrix cov(dim, dim);
  for (const auto& part : data.partitions()) {
    for (const auto& m : part) {
      for (size_t r = 0; r < m.rows(); ++r) {
        const double* row = m.RowPtr(r);
        for (size_t i = 0; i < dim; ++i) {
          const double vi = row[i] - mean[i];
          double* crow = cov.RowPtr(i);
          for (size_t j = i; j < dim; ++j) {
            crow[j] += vi * (row[j] - mean[j]);
          }
        }
      }
    }
  }
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < i; ++j) cov(i, j) = cov(j, i);
  }
  cov *= 1.0 / static_cast<double>(total_rows);

  const SymmetricEigenResult eig = SymmetricEigen(cov);
  // W = V (D + eps)^{-1/2} V^T.
  Matrix scaled = eig.vectors;
  for (size_t j = 0; j < dim; ++j) {
    const double s = 1.0 / std::sqrt(std::max(0.0, eig.values[j]) + epsilon_);
    for (size_t i = 0; i < dim; ++i) scaled(i, j) *= s;
  }
  Matrix rotation = GemmTransB(scaled, eig.vectors);
  return {std::make_shared<ZcaModel>(std::move(mean), std::move(rotation)),
          std::nullopt};
}

CostProfile ZcaWhitener::EstimateCost(const DataStats& in, int workers) const {
  CostProfile cost;
  const double d = static_cast<double>(in.dim);
  const double n = static_cast<double>(in.num_records);
  cost.flops = (2.0 * n * d * d) / std::max(1, workers) + d * d * d;
  cost.bytes = in.TotalBytes() / std::max(1, workers) + 8.0 * d * d;
  cost.network = 8.0 * d * d;
  cost.rounds = 2.0;
  return cost;
}

Matrix ZcaModel::Apply(const Matrix& rows) const {
  Matrix centered = rows;
  centered.SubtractRowVector(mean_);
  return Gemm(centered, rotation_);
}

}  // namespace keystone
