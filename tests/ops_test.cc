#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/exec_context.h"
#include "src/linalg/gemm.h"
#include "src/linalg/vector_ops.h"
#include "src/ops/convolution.h"
#include "src/ops/features.h"
#include "src/ops/gmm.h"
#include "src/ops/image_ops.h"
#include "src/ops/kmeans.h"
#include "src/ops/metrics.h"
#include "src/ops/pca.h"
#include "src/ops/text_ops.h"
#include "src/workloads/datasets.h"

namespace keystone {
namespace {

ExecContext MakeContext() {
  return ExecContext(ClusterResourceDescriptor::R3_4xlarge(4));
}

// --- Text operators ---------------------------------------------------------

TEST(TextOpsTest, TrimLowerTokenize) {
  EXPECT_EQ(Trim().Apply("  Hello World \n"), "Hello World");
  EXPECT_EQ(LowerCase().Apply("HeLLo"), "hello");
  const auto tokens = Tokenizer().Apply("the quick, brown fox!");
  EXPECT_EQ(tokens, (TokenSeq{"the", "quick", "brown", "fox"}));
}

TEST(TextOpsTest, NGrams) {
  NGramsFeaturizer ngrams(1, 2);
  const auto out = ngrams.Apply({"a", "b", "c"});
  EXPECT_EQ(out, (TokenSeq{"a", "b", "c", "a_b", "b_c"}));
}

TEST(TextOpsTest, NGramsShortInput) {
  NGramsFeaturizer ngrams(2, 3);
  EXPECT_TRUE(ngrams.Apply({"solo"}).empty());
}

TEST(TextOpsTest, HashingTermFrequencyBinary) {
  HashingTermFrequency tf(1024);
  const auto v = tf.Apply({"cat", "dog", "cat"});
  EXPECT_EQ(v.dim, 1024u);
  EXPECT_EQ(v.nnz(), 2u);
  for (double val : v.values) EXPECT_DOUBLE_EQ(val, 1.0);
}

TEST(TextOpsTest, HashingTermFrequencyCount) {
  HashingTermFrequency tf(1024, HashingTermFrequency::Weighting::kCount);
  const auto v = tf.Apply({"cat", "dog", "cat"});
  double total = 0;
  for (double val : v.values) total += val;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(TextOpsTest, CommonSparseFeaturesKeepsTopTerms) {
  std::vector<TokenSeq> docs = {
      {"apple", "banana"}, {"apple", "cherry"}, {"apple"}, {"banana"}};
  auto data = MakeDataset(std::move(docs), 2);
  CommonSparseFeatures est(2);
  auto ctx = MakeContext();
  auto model = est.Fit(*data, &ctx).model;
  auto* vocab = dynamic_cast<VocabularyModel*>(model.get());
  ASSERT_NE(vocab, nullptr);
  EXPECT_EQ(vocab->vocabulary_size(), 2u);
  // "apple" (3) and "banana" (2) survive; "cherry" dropped.
  EXPECT_EQ(model->Apply({"apple", "banana", "cherry"}).nnz(), 2u);
  EXPECT_EQ(model->Apply({"cherry"}).nnz(), 0u);
  // Output dim is the configured width.
  EXPECT_EQ(model->Apply({"apple"}).dim, 2u);
}

// --- Image operators --------------------------------------------------------

Image TestImage(size_t w, size_t h, size_t c, uint64_t seed) {
  Rng rng(seed);
  Image img(w, h, c);
  for (auto& v : img.data) v = rng.NextDouble();
  return img;
}

TEST(ImageOpsTest, GrayScalerAveragesChannels) {
  Image img(2, 2, 3);
  for (size_t c = 0; c < 3; ++c) img.at(c, 0, 0) = c + 1.0;  // 1, 2, 3
  const Image gray = GrayScaler().Apply(img);
  EXPECT_EQ(gray.channels, 1u);
  EXPECT_DOUBLE_EQ(gray.at(0, 0, 0), 2.0);
}

TEST(ImageOpsTest, PatchExtractorShapes) {
  const Image img = TestImage(8, 8, 2, 1);
  PatchExtractor extractor(4, 2);
  const Matrix patches = extractor.Apply(img);
  EXPECT_EQ(patches.rows(), 9u);  // 3 x 3 positions.
  EXPECT_EQ(patches.cols(), 32u);  // 4*4*2.
  // First patch, first channel, top-left pixel.
  EXPECT_DOUBLE_EQ(patches(0, 0), img.at(0, 0, 0));
}

TEST(ImageOpsTest, DenseSiftShapeAndNormalization) {
  const Image img = TestImage(32, 32, 1, 2);
  DenseSift sift(8, 8);
  const Matrix desc = sift.Apply(img);
  EXPECT_EQ(desc.rows(), 9u);   // (4-1) x (4-1).
  EXPECT_EQ(desc.cols(), 32u);  // 4 * 8 bins.
  for (size_t i = 0; i < desc.rows(); ++i) {
    double norm = 0;
    for (size_t j = 0; j < desc.cols(); ++j) norm += desc(i, j) * desc(i, j);
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
  }
}

TEST(ImageOpsTest, LocalColorStats) {
  Image img(4, 4, 1);
  for (auto& v : img.data) v = 0.5;
  LocalColorStats lcs(2);
  const Matrix stats = LocalColorStats(2).Apply(img);
  EXPECT_EQ(stats.rows(), 4u);
  EXPECT_EQ(stats.cols(), 2u);
  EXPECT_DOUBLE_EQ(stats(0, 0), 0.5);  // mean
  EXPECT_DOUBLE_EQ(stats(0, 1), 0.0);  // stddev
}

TEST(ImageOpsTest, SymmetricRectifier) {
  SymmetricRectifier rect;
  const auto out = rect.Apply({1.0, -2.0});
  EXPECT_EQ(out, (std::vector<double>{1.0, 0.0, 0.0, 2.0}));
}

TEST(ImageOpsTest, PoolerSumsCells) {
  // 4 rows = 2x2 grid of positions, 1 feature; pool to 1x1.
  Matrix features = {{1.0}, {2.0}, {3.0}, {4.0}};
  Pooler pooler(1);
  const auto pooled = pooler.Apply(features);
  ASSERT_EQ(pooled.size(), 1u);
  EXPECT_DOUBLE_EQ(pooled[0], 10.0);
}

TEST(ImageOpsTest, ZcaWhitensCovarianceTowardIdentity) {
  Rng rng(3);
  // Correlated 2-D data.
  std::vector<Matrix> records;
  for (int r = 0; r < 50; ++r) {
    Matrix m(20, 2);
    for (size_t i = 0; i < 20; ++i) {
      const double a = rng.NextGaussian();
      m(i, 0) = a + 0.1 * rng.NextGaussian();
      m(i, 1) = a + 0.1 * rng.NextGaussian();
    }
    records.push_back(std::move(m));
  }
  auto data = MakeDataset(std::move(records), 4);
  auto ctx = MakeContext();
  ZcaWhitener whitener(1e-5);
  auto model = whitener.Fit(*data, &ctx).model;

  // Whiten everything and measure covariance.
  Matrix all(1000, 2);
  size_t row = 0;
  for (const auto& part : data->partitions()) {
    for (const auto& m : part) {
      const Matrix white = model->Apply(m);
      for (size_t i = 0; i < white.rows(); ++i) {
        all(row, 0) = white(i, 0);
        all(row, 1) = white(i, 1);
        ++row;
      }
    }
  }
  Matrix cov = Gram(all);
  cov *= 1.0 / 1000.0;
  EXPECT_NEAR(cov(0, 0), 1.0, 0.1);
  EXPECT_NEAR(cov(1, 1), 1.0, 0.1);
  EXPECT_NEAR(cov(0, 1), 0.0, 0.1);
}

TEST(ImageOpsDeathTest, ZeroSizesAbortAtConstruction) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Each would divide by zero, or index past a buffer through bins - 1 or
  // grid - 1, on its first record.
  EXPECT_DEATH((void)DenseSift(0, 8), "cell_size_");
  EXPECT_DEATH((void)DenseSift(8, 0), "bins_");
  EXPECT_DEATH((void)LocalColorStats(0), "cell_size_");
  EXPECT_DEATH((void)PatchExtractor(4, 0), "stride_");
  EXPECT_DEATH((void)DescriptorSampler(0), "stride_");
  EXPECT_DEATH((void)Pooler(0), "grid_");
}

// --- Convolution ------------------------------------------------------------

TEST(ConvolutionTest, StrategiesAgreeOnDenseFilters) {
  Rng rng(5);
  FilterBank bank = FilterBank::Random(3, 5, 2, &rng);
  const Image img = TestImage(16, 16, 2, 6);
  const Image blas = Convolver(bank, ConvolutionStrategy::kBlas).Apply(img);
  const Image fft = Convolver(bank, ConvolutionStrategy::kFft).Apply(img);
  ASSERT_EQ(blas.channels, 3u);
  ASSERT_EQ(blas.width, 12u);
  ASSERT_EQ(fft.data.size(), blas.data.size());
  for (size_t i = 0; i < blas.data.size(); ++i) {
    EXPECT_NEAR(blas.data[i], fft.data[i], 1e-8);
  }
}

TEST(ConvolutionTest, SeparableAgreesOnSeparableFilters) {
  Rng rng(7);
  FilterBank bank = FilterBank::RandomSeparable(2, 4, 3, &rng);
  EXPECT_TRUE(bank.IsSeparable());
  const Image img = TestImage(12, 12, 3, 8);
  const Image blas = Convolver(bank, ConvolutionStrategy::kBlas).Apply(img);
  const Image sep =
      Convolver(bank, ConvolutionStrategy::kSeparable).Apply(img);
  ASSERT_EQ(sep.data.size(), blas.data.size());
  for (size_t i = 0; i < blas.data.size(); ++i) {
    EXPECT_NEAR(sep.data[i], blas.data[i], 1e-8);
  }
}

TEST(ConvolutionTest, DenseFiltersNotSeparable) {
  Rng rng(9);
  FilterBank bank = FilterBank::Random(2, 5, 1, &rng);
  EXPECT_FALSE(bank.IsSeparable());
  // The logical operator then offers only BLAS and FFT.
  auto logical = MakeConvolver(bank);
  EXPECT_EQ(logical->options().size(), 2u);
}

TEST(ConvolutionTest, CostCrossoverInFilterSize) {
  // Figure 7: BLAS wins at small k, loses to FFT at large k; FFT cost is
  // flat in k.
  const double n = 256, d = 3, b = 50;
  auto seconds = [&](ConvolutionStrategy s, double k) {
    const auto cluster = ClusterResourceDescriptor::LocalWorkstation();
    return cluster.SecondsFor(convolution_costs::Cost(s, n, d, k, b, 1, 1));
  };
  EXPECT_LT(seconds(ConvolutionStrategy::kBlas, 2),
            seconds(ConvolutionStrategy::kFft, 2));
  EXPECT_GT(seconds(ConvolutionStrategy::kBlas, 30),
            seconds(ConvolutionStrategy::kFft, 30));
  // FFT cost is (nearly) independent of k: only the output-size bytes term
  // shrinks slightly with larger filters.
  EXPECT_NEAR(seconds(ConvolutionStrategy::kFft, 2),
              seconds(ConvolutionStrategy::kFft, 30),
              0.05 * seconds(ConvolutionStrategy::kFft, 2));
  // Separable beats BLAS at every k (one factor of k cheaper).
  EXPECT_LT(seconds(ConvolutionStrategy::kSeparable, 10),
            seconds(ConvolutionStrategy::kBlas, 10));
}

// --- PCA --------------------------------------------------------------------

std::shared_ptr<DistDataset<Matrix>> LowRankDescriptors(size_t records,
                                                        size_t rows_each,
                                                        size_t d, size_t rank,
                                                        uint64_t seed) {
  Rng rng(seed);
  Matrix basis = Matrix::GaussianRandom(rank, d, &rng);
  std::vector<Matrix> recs;
  for (size_t r = 0; r < records; ++r) {
    Matrix coeffs = Matrix::GaussianRandom(rows_each, rank, &rng);
    recs.push_back(Gemm(coeffs, basis));
  }
  return MakeDataset(std::move(recs), 4);
}

TEST(PcaTest, ExactRecoversLowRankSubspace) {
  auto data = LowRankDescriptors(20, 10, 8, 3, 11);
  auto ctx = MakeContext();
  PcaEstimator pca(3, PcaAlgorithm::kExactSvd, PcaPlacement::kLocal);
  auto model = pca.Fit(*data, &ctx).model;
  // Projecting and measuring retained variance: residual of projecting the
  // data onto the components should be ~0 for rank-3 data.
  auto* typed = dynamic_cast<PcaModel*>(model.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->components().cols(), 3u);
  // Components are orthonormal.
  Matrix ptp = GemmTransA(typed->components(), typed->components());
  EXPECT_TRUE(ptp.ApproxEquals(Matrix::Identity(3), 1e-8));
}

TEST(PcaTest, TruncatedMatchesExactProjection) {
  auto data = LowRankDescriptors(10, 20, 12, 4, 13);
  auto ctx = MakeContext();
  PcaEstimator exact(4, PcaAlgorithm::kExactSvd, PcaPlacement::kLocal);
  PcaEstimator tsvd(4, PcaAlgorithm::kTruncatedSvd, PcaPlacement::kLocal);
  auto exact_model = exact.Fit(*data, &ctx).model;
  auto tsvd_model = tsvd.Fit(*data, &ctx).model;
  // Compare projections of a fresh record (subspace match up to rotation:
  // compare projection residual norms instead of raw coordinates).
  const Matrix probe = DistDataset<Matrix>::Cast(data)->partitions()[0][0];
  const Matrix p_exact = exact_model->Apply(probe);
  const Matrix p_tsvd = tsvd_model->Apply(probe);
  EXPECT_NEAR(p_exact.FrobeniusNorm(), p_tsvd.FrobeniusNorm(),
              1e-6 * (1.0 + p_exact.FrobeniusNorm()));
}

TEST(PcaTest, CostShapesMatchTable2) {
  // Small k: TSVD cheaper than SVD at large d. Large n: distributed beats
  // local for the exact algorithm.
  auto seconds = [](PcaAlgorithm alg, PcaPlacement place, double n, double d,
                    double k) {
    const auto cluster = ClusterResourceDescriptor::R3_4xlarge(16);
    return cluster.SecondsFor(pca_costs::Cost(alg, place, n, d, k, 16));
  };
  // d = 4096, k = 16, n = 1e4: TSVD much cheaper than SVD (paper: 3s vs 26s).
  EXPECT_LT(seconds(PcaAlgorithm::kTruncatedSvd, PcaPlacement::kLocal, 1e4,
                    4096, 16),
            seconds(PcaAlgorithm::kExactSvd, PcaPlacement::kLocal, 1e4, 4096,
                    16));
  // n = 1e6, d = 256: distributed SVD beats local SVD (paper: 2s vs 11s).
  EXPECT_LT(seconds(PcaAlgorithm::kExactSvd, PcaPlacement::kDistributed, 1e6,
                    256, 16),
            seconds(PcaAlgorithm::kExactSvd, PcaPlacement::kLocal, 1e6, 256,
                    16));
  // Small n and d: local wins (no coordination overhead) — paper: 0.1s
  // local SVD vs 1.7s distributed at n = 1e4, d = 256.
  EXPECT_LT(seconds(PcaAlgorithm::kExactSvd, PcaPlacement::kLocal, 1e4, 256,
                    16),
            seconds(PcaAlgorithm::kExactSvd, PcaPlacement::kDistributed, 1e4,
                    256, 16));
}

// --- GMM / Fisher vectors ---------------------------------------------------

TEST(GmmTest, RecoversWellSeparatedClusters) {
  Rng rng(15);
  Matrix rows(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const int c = i % 3;
    rows(i, 0) = rng.Gaussian(c * 10.0, 0.3);
    rows(i, 1) = rng.Gaussian(c * -5.0, 0.3);
  }
  const GmmParams params = FitGmm(rows, 3, 20, 17);
  EXPECT_EQ(params.num_components(), 3u);
  // Each true center has a recovered mean nearby.
  for (int c = 0; c < 3; ++c) {
    double best = 1e300;
    for (size_t m = 0; m < 3; ++m) {
      const double dx = params.means(m, 0) - c * 10.0;
      const double dy = params.means(m, 1) - c * -5.0;
      best = std::min(best, dx * dx + dy * dy);
    }
    EXPECT_LT(best, 1.0);
  }
  // Weights roughly uniform.
  for (double w : params.weights) EXPECT_NEAR(w, 1.0 / 3.0, 0.1);
}

TEST(GmmTest, FisherVectorShapeAndNorm) {
  Rng rng(19);
  Matrix rows(100, 4);
  for (auto i = 0u; i < rows.size(); ++i) rows.data()[i] = rng.NextGaussian();
  GmmParams params = FitGmm(rows, 5, 5, 21);
  FisherVectorModel fv(std::move(params));
  const auto vec = fv.Apply(rows);
  EXPECT_EQ(vec.size(), 5u * (2u * 4u + 1u));
  EXPECT_NEAR(Norm2(vec), 1.0, 1e-9);
}

TEST(GmmTest, FisherVectorsDiscriminate) {
  // Descriptor sets drawn from different distributions should produce
  // distant Fisher vectors; same distribution, closer ones.
  Rng rng(23);
  auto draw = [&](double shift) {
    Matrix m(80, 3);
    for (size_t i = 0; i < 80; ++i) {
      for (size_t j = 0; j < 3; ++j) m(i, j) = rng.Gaussian(shift, 1.0);
    }
    return m;
  };
  Matrix train(400, 3);
  for (size_t i = 0; i < 400; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      train(i, j) = rng.Gaussian(i < 200 ? 0.0 : 3.0, 1.0);
    }
  }
  FisherVectorModel fv(FitGmm(train, 4, 10, 29));
  const auto a1 = fv.Apply(draw(0.0));
  const auto a2 = fv.Apply(draw(0.0));
  const auto b1 = fv.Apply(draw(3.0));
  EXPECT_LT(SquaredDistance(a1, a2), SquaredDistance(a1, b1));
}

// --- GMM kernels: bit identity with the unhoisted serial kernels ----------

// The serial kernels the per-component tables and pool-parallel EM replaced,
// kept verbatim as bit-identity references.
Matrix ReferenceSeedCenters(const Matrix& rows, size_t k, Rng* rng) {
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  Matrix centers(k, d);
  std::vector<double> dist_sq(n, 0.0);

  size_t first = rng->NextIndex(n);
  std::copy(rows.RowPtr(first), rows.RowPtr(first) + d, centers.RowPtr(0));
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double diff = rows(i, j) - centers(0, j);
      s += diff * diff;
    }
    dist_sq[i] = s;
  }
  for (size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (double v : dist_sq) total += v;
    size_t chosen = 0;
    if (total > 0) {
      double target = rng->NextDouble() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= dist_sq[i];
        if (target <= 0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng->NextIndex(n);
    }
    std::copy(rows.RowPtr(chosen), rows.RowPtr(chosen) + d,
              centers.RowPtr(c));
    for (size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = rows(i, j) - centers(c, j);
        s += diff * diff;
      }
      dist_sq[i] = std::min(dist_sq[i], s);
    }
  }
  return centers;
}

GmmParams ReferenceFitGmm(const Matrix& rows, size_t components,
                          int em_iterations, uint64_t seed) {
  constexpr double kVarianceFloor = 1e-6;
  const size_t n = rows.rows();
  const size_t d = rows.cols();
  const size_t k = std::min(components, n);
  Rng rng(seed);

  GmmParams params;
  params.means = ReferenceSeedCenters(rows, k, &rng);
  params.variances = Matrix(k, d, 0.1);
  params.weights.assign(k, 1.0 / k);

  Matrix resp(n, k);
  for (int iter = 0; iter < em_iterations; ++iter) {
    // E step: responsibilities via log-space softmax over components.
    for (size_t i = 0; i < n; ++i) {
      double max_log = -1e300;
      for (size_t c = 0; c < k; ++c) {
        double log_p = std::log(std::max(params.weights[c], 1e-12));
        for (size_t j = 0; j < d; ++j) {
          const double var = params.variances(c, j);
          const double diff = rows(i, j) - params.means(c, j);
          log_p -= 0.5 * (std::log(2.0 * M_PI * var) + diff * diff / var);
        }
        resp(i, c) = log_p;
        max_log = std::max(max_log, log_p);
      }
      double z = 0.0;
      for (size_t c = 0; c < k; ++c) {
        resp(i, c) = std::exp(resp(i, c) - max_log);
        z += resp(i, c);
      }
      for (size_t c = 0; c < k; ++c) resp(i, c) /= z;
    }
    // M step.
    for (size_t c = 0; c < k; ++c) {
      double nk = 0.0;
      for (size_t i = 0; i < n; ++i) nk += resp(i, c);
      nk = std::max(nk, 1e-10);
      for (size_t j = 0; j < d; ++j) {
        double mean = 0.0;
        for (size_t i = 0; i < n; ++i) mean += resp(i, c) * rows(i, j);
        mean /= nk;
        double var = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double diff = rows(i, j) - mean;
          var += resp(i, c) * diff * diff;
        }
        params.means(c, j) = mean;
        params.variances(c, j) = std::max(var / nk, kVarianceFloor);
      }
      params.weights[c] = nk / n;
    }
  }
  return params;
}

std::vector<double> ReferenceFisherVector(const GmmParams& params_,
                                          const Matrix& descriptors) {
  const size_t k = params_.num_components();
  const size_t d = params_.dim();
  const size_t n = descriptors.rows();
  // Layout: [mean gradients (k*d) | variance gradients (k*d) |
  //          weight gradients (k)].
  std::vector<double> fv(2 * k * d + k, 0.0);
  if (n == 0) return fv;

  std::vector<double> log_p(k);
  std::vector<double> occupancy(k, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* x = descriptors.RowPtr(i);
    double max_log = -1e300;
    for (size_t c = 0; c < k; ++c) {
      double lp = std::log(std::max(params_.weights[c], 1e-12));
      for (size_t j = 0; j < d; ++j) {
        const double var = params_.variances(c, j);
        const double diff = x[j] - params_.means(c, j);
        lp -= 0.5 * (std::log(2.0 * M_PI * var) + diff * diff / var);
      }
      log_p[c] = lp;
      max_log = std::max(max_log, lp);
    }
    double z = 0.0;
    for (size_t c = 0; c < k; ++c) z += std::exp(log_p[c] - max_log);
    for (size_t c = 0; c < k; ++c) {
      const double gamma = std::exp(log_p[c] - max_log) / z;
      occupancy[c] += gamma;
      if (gamma < 1e-8) continue;
      double* mean_grad = fv.data() + c * d;
      double* var_grad = fv.data() + (k + c) * d;
      for (size_t j = 0; j < d; ++j) {
        const double sigma = std::sqrt(params_.variances(c, j));
        const double u = (x[j] - params_.means(c, j)) / sigma;
        mean_grad[j] += gamma * u;
        var_grad[j] += gamma * (u * u - 1.0);
      }
    }
  }

  // Scale by 1/(n sqrt(w_c)) and apply power + L2 normalization. The weight
  // block is the occupancy gradient (gamma_c - w_c)/sqrt(w_c).
  for (size_t c = 0; c < k; ++c) {
    const double w_c = std::max(params_.weights[c], 1e-12);
    const double scale = 1.0 / (n * std::sqrt(w_c));
    for (size_t j = 0; j < d; ++j) {
      fv[c * d + j] *= scale;
      fv[(k + c) * d + j] *= scale / std::sqrt(2.0);
    }
    fv[2 * k * d + c] = (occupancy[c] / n - w_c) / std::sqrt(w_c);
  }
  double norm = 0.0;
  for (auto& v : fv) {
    v = (v >= 0 ? 1.0 : -1.0) * std::sqrt(std::fabs(v));
    norm += v * v;
  }
  norm = std::sqrt(norm);
  if (norm > 1e-12) {
    for (auto& v : fv) v /= norm;
  }
  return fv;
}

bool SameBits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool SameBits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

void ExpectSameParams(const GmmParams& got, const GmmParams& want) {
  EXPECT_TRUE(SameBits(got.means, want.means));
  EXPECT_TRUE(SameBits(got.variances, want.variances));
  EXPECT_TRUE(SameBits(got.weights, want.weights));
}

// Runs fn with no pool, then with pools of 1, 2 and 4 threads.
void ForEachPool(const std::function<void(ThreadPool*)>& fn) {
  {
    SCOPED_TRACE("no pool");
    fn(nullptr);
  }
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + "-thread pool");
    ThreadPool pool(threads);
    fn(&pool);
  }
}

// n rows around `clusters` overlapping centers, so responsibilities range
// from shared to below the encoder's 1e-8 cutoff.
Matrix ClusteredRows(size_t n, size_t d, size_t clusters, uint64_t seed) {
  Rng rng(seed);
  const Matrix centers = Matrix::GaussianRandom(clusters, d, &rng);
  Matrix rows(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.NextIndex(clusters);
    for (size_t j = 0; j < d; ++j) {
      rows(i, j) = rng.Gaussian(1.5 * centers(c, j), 0.5 + 0.1 * j);
    }
  }
  return rows;
}

Matrix TopRows(const Matrix& rows, size_t n) {
  Matrix top(n, rows.cols());
  std::copy(rows.data(), rows.data() + n * rows.cols(), top.data());
  return top;
}

TEST(GmmKernelTest, FitAndEncodeMatchSerialKernelsBitForBit) {
  struct Shape {
    size_t n, d, k;
  };
  // n = 1; n < k; n not a multiple of the 256-row E-step chunk; the
  // ImageNet workload's SIFT and LCS descriptor stacks; a wider d and k.
  const Shape shapes[] = {{1, 6, 5},     {3, 6, 5},     {700, 6, 5},
                          {15000, 6, 5}, {21600, 6, 5}, {1000, 32, 8}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE("n=" + std::to_string(s.n) + " d=" + std::to_string(s.d) +
                 " k=" + std::to_string(s.k));
    const Matrix rows = ClusteredRows(s.n, s.d, s.k, 500 + s.n + s.d);
    const GmmParams want = ReferenceFitGmm(rows, s.k, 10, 23);
    // One image's worth of descriptors, all of them, and none.
    const Matrix encoded[] = {TopRows(rows, std::min<size_t>(s.n, 36)), rows,
                              Matrix(0, s.d)};
    ForEachPool([&](ThreadPool* pool) {
      GmmParams got = FitGmm(rows, s.k, 10, 23, pool);
      ExpectSameParams(got, want);
      const FisherVectorModel model(std::move(got));
      for (const Matrix& x : encoded) {
        EXPECT_TRUE(SameBits(model.Apply(x), ReferenceFisherVector(want, x)))
            << x.rows() << " descriptors";
      }
    });
  }
}

TEST(GmmKernelTest, FitInsideATaskOnTheSamePoolMatches) {
  // A plan branch fits GMM on a pool helper, whose E and M steps then run
  // ParallelFor on that same pool.
  const Matrix rows = ClusteredRows(3000, 6, 5, 41);
  const GmmParams want = ReferenceFitGmm(rows, 5, 10, 47);
  ThreadPool pool(4);
  std::vector<GmmParams> got(3);
  pool.ParallelFor(got.size(), [&](size_t t) {
    got[t] = FitGmm(rows, 5, 10, 47, &pool);
  });
  for (const GmmParams& params : got) ExpectSameParams(params, want);
}

TEST(GmmKernelTest, EstimatorFitIsPoolSizeInvariant) {
  // Descriptor matrices of 25 rows, as dense SIFT yields per image, over
  // several partitions; GmmFisherEstimator::Fit takes the context's pool.
  const Matrix rows = ClusteredRows(2500, 6, 5, 53);
  std::vector<Matrix> images;
  for (size_t i = 0; i < 100; ++i) {
    Matrix m(25, 6);
    std::copy(rows.RowPtr(25 * i), rows.RowPtr(25 * (i + 1)), m.data());
    images.push_back(std::move(m));
  }
  const auto data = DistDataset<Matrix>::Partitioned(images, 4);
  const GmmFisherEstimator estimator(5, 10, 23);
  const GmmParams want = ReferenceFitGmm(rows, 5, 10, 23);
  std::vector<CostProfile> costs;
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + "-thread pool");
    ThreadPool pool(threads);
    ExecContext ctx = MakeContext();
    ctx.set_pool(&pool);
    const auto fitted = estimator.Fit(*data, &ctx);
    const auto* model =
        dynamic_cast<const FisherVectorModel*>(fitted.model.get());
    ASSERT_NE(model, nullptr);
    ExpectSameParams(model->params(), want);
    ASSERT_TRUE(fitted.cost.has_value());
    costs.push_back(*fitted.cost);
  }
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0].flops, costs[1].flops);
  EXPECT_EQ(costs[0].bytes, costs[1].bytes);
  EXPECT_EQ(costs[0].network, costs[1].network);
  EXPECT_EQ(costs[0].rounds, costs[1].rounds);
}

// --- Dense SIFT: octant binning, bit identity with the atan2 kernel ---------

// The atan2-binned kernel the octant binning replaced, kept verbatim as the
// bit-identity reference.
size_t ReferenceBin(double gx, double gy, size_t bins_) {
  double angle = std::atan2(gy, gx);  // [-pi, pi]
  const double unit = (angle + M_PI) / (2.0 * M_PI);  // [0, 1]
  size_t bin = std::min(bins_ - 1,
                        static_cast<size_t>(unit * bins_));
  return bin;
}

Matrix ReferenceDenseSift(const Image& img, size_t cell_size_, size_t bins_) {
  // Gradient field of a grayscale image; a one-channel input is read in
  // place.
  if (img.channels != 1) {
    return ReferenceDenseSift(GrayScaler().Apply(img), cell_size_, bins_);
  }
  const size_t descriptor_dim = 4 * bins_;
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
      double angle = std::atan2(gy, gx);  // [-pi, pi]
      const double unit = (angle + M_PI) / (2.0 * M_PI);  // [0, 1]
      size_t bin = std::min(bins_ - 1,
                            static_cast<size_t>(unit * bins_));
      const size_t cy = std::min(cells_y - 1, y / cell_size_);
      const size_t cx = std::min(cells_x - 1, x / cell_size_);
      cell_hist(cy * cells_x + cx, bin) += mag;
    }
  }

  Matrix out(desc_y * desc_x, descriptor_dim);
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
      for (size_t i = 0; i < descriptor_dim; ++i) norm += dst[i] * dst[i];
      norm = std::sqrt(norm);
      if (norm > 1e-12) {
        for (size_t i = 0; i < descriptor_dim; ++i) dst[i] /= norm;
      }
    }
  }
  return out;
}

// Applies DenseSift(cell, bins) for bins 4, 8 and 12 to every image and
// counts the descriptor matrices that differ in any bit from the
// reference's.
size_t SiftMismatches(const std::vector<Image>& images, size_t cell) {
  size_t mismatches = 0;
  for (size_t bins : {4, 8, 12}) {
    const DenseSift sift(cell, bins);
    for (const Image& img : images) {
      mismatches += !SameBits(sift.Apply(img),
                              ReferenceDenseSift(img, cell, bins));
    }
  }
  return mismatches;
}

TEST(SiftKernelTest, WorkloadImagesMatchAtan2KernelBitForBit) {
  // The ImageNet workload's corpus (seed 1), grayscaled as its SIFT branch
  // does.
  const workloads::ImageCorpus corpus =
      workloads::TexturedImages(600, 200, 48, 3, 4, 0.05, 1);
  const GrayScaler gray;
  for (const auto& split : {corpus.train, corpus.test}) {
    std::vector<Image> images;
    for (const auto& part : split->partitions()) {
      for (const Image& img : part) images.push_back(gray.Apply(img));
    }
    EXPECT_EQ(SiftMismatches(images, 8), 0u);
  }
}

TEST(SiftKernelTest, EdgeCaseImagesMatchAtan2KernelBitForBit) {
  Rng rng(61);
  // Pixels k/4: many gradients lie exactly on an axis or a diagonal, or
  // are zero.
  std::vector<Image> quantized;
  for (size_t i = 0; i < 20; ++i) {
    Image img(16 + i, 16 + 2 * i, 1);
    for (double& v : img.data) v = rng.NextIndex(5) / 4.0;
    quantized.push_back(std::move(img));
  }
  EXPECT_EQ(SiftMismatches(quantized, 4), 0u);
  EXPECT_EQ(SiftMismatches(quantized, 8), 0u);
  // Sizes the cells do not divide, and a three-channel input (grayscaled
  // inside the kernel).
  const std::vector<Image> odd = {TestImage(37, 29, 1, 62),
                                  TestImage(9, 9, 1, 63),
                                  TestImage(37, 29, 3, 64),
                                  TestImage(48, 48, 3, 65)};
  EXPECT_EQ(SiftMismatches(odd, 4), 0u);
  EXPECT_EQ(SiftMismatches(odd, 8), 0u);
}

TEST(SiftKernelTest, OctantBinsMatchAtan2OnAdversarialGradients) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMinSubnormal = std::numeric_limits<double>::denorm_min();
  size_t checked = 0;
  size_t mismatches = 0;
  // (±a, ±b) and (±b, ±a).
  auto check = [&](double a, double b) {
    for (double x : {a, -a}) {
      for (double y : {b, -b}) {
        for (const auto& [gx, gy] : {std::pair{x, y}, std::pair{y, x}}) {
          ++checked;
          const size_t got = OrientationBin(gx, gy, 8);
          const size_t want = ReferenceBin(gx, gy, 8);
          if (got != want && ++mismatches <= 10) {
            ADD_FAILURE() << std::hexfloat << "gx=" << gx << " gy=" << gy
                          << ": bin " << got << ", atan2 kernel " << want;
          }
        }
      }
    }
  };
  std::vector<double> bases = {1.0,
                               3.0,
                               0.1,
                               0.7,
                               1.0 / 3.0,
                               0.25,
                               1e-300,
                               std::numeric_limits<double>::min(),
                               0x1p-1040,
                               0x1p-1060,
                               3 * kMinSubnormal,
                               1e300,
                               std::numeric_limits<double>::max()};
  Rng rng(67);
  while (bases.size() < 48) {
    bases.push_back(std::ldexp(1.0 + rng.NextDouble(),
                               static_cast<int>(rng.NextIndex(2040)) - 1020));
  }
  const double specials[] = {0.0, kMinSubnormal, 5 * kMinSubnormal,
                             0x1p-1030, kInf, kNan};
  for (double a : bases) {
    // Near the diagonal: |gy| = |gx| (1 ± k 2^-52), across the guard at
    // k = 2^12.
    for (int k = 0; k < (1 << 14); ++k) {
      check(a, a * (1.0 + k * 0x1p-52));
      check(a, a * (1.0 - k * 0x1p-52));
    }
    // Near the axes: |gy| = |gx| 2^-k, through the subnormals to zero.
    for (int k = 0; k <= 1100; ++k) check(a, std::ldexp(a, -k));
    for (double b : specials) check(a, b);
  }
  for (double a : specials) {
    for (double b : specials) check(a, b);
  }
  // Random gradients of pixel differences.
  for (int i = 0; i < 100000; ++i) {
    check(rng.NextDouble() - rng.NextDouble(),
          rng.NextDouble() - rng.NextDouble());
  }
  EXPECT_GE(checked, 10000000u);
  EXPECT_EQ(mismatches, 0u);
  // Every other bin count takes the formula.
  for (size_t bins : {1, 2, 4, 12, 16}) {
    for (int i = 0; i < 1000; ++i) {
      const double gx = rng.NextDouble() - 0.5;
      const double gy = rng.NextDouble() - 0.5;
      EXPECT_EQ(OrientationBin(gx, gy, bins), ReferenceBin(gx, gy, bins));
    }
  }
}

// --- KMeans -----------------------------------------------------------------

TEST(KMeansTest, FindsClusterCenters) {
  Rng rng(31);
  Matrix rows(200, 2);
  for (size_t i = 0; i < 200; ++i) {
    const int c = i % 2;
    rows(i, 0) = rng.Gaussian(c == 0 ? -5.0 : 5.0, 0.2);
    rows(i, 1) = rng.Gaussian(0.0, 0.2);
  }
  const Matrix centers = FitKMeans(rows, 2, 20, 33);
  const double x0 = centers(0, 0);
  const double x1 = centers(1, 0);
  EXPECT_NEAR(std::min(x0, x1), -5.0, 0.3);
  EXPECT_NEAR(std::max(x0, x1), 5.0, 0.3);
}

TEST(KMeansTest, TriangleActivationNonNegative) {
  Rng rng(35);
  Matrix rows(50, 3);
  for (auto i = 0u; i < rows.size(); ++i) rows.data()[i] = rng.NextGaussian();
  KMeansModel model(FitKMeans(rows, 4, 5, 37));
  const Matrix activations = model.Apply(rows);
  EXPECT_EQ(activations.cols(), 4u);
  for (size_t i = 0; i < activations.size(); ++i) {
    EXPECT_GE(activations.data()[i], 0.0);
  }
}

// --- Features / metrics -----------------------------------------------------

TEST(FeaturesTest, CosineRandomFeaturesApproximateRbfKernel) {
  Rng rng(39);
  const double gamma = 0.5;
  CosineRandomFeatures rf(4, 4096, gamma, 41);
  std::vector<double> x(4), y(4);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto& v : y) v = rng.NextGaussian();
  const double kernel =
      std::exp(-gamma * gamma * SquaredDistance(x, y) / 2.0);
  const double approx = Dot(rf.Apply(x), rf.Apply(y));
  EXPECT_NEAR(approx, kernel, 0.05);
}

TEST(FeaturesTest, L2NormalizerAndPowerNorm) {
  const auto n = L2Normalizer().Apply({3.0, 4.0});
  EXPECT_NEAR(n[0], 0.6, 1e-12);
  EXPECT_NEAR(n[1], 0.8, 1e-12);
  const auto p = SignedPowerNormalizer(0.5).Apply({4.0, -9.0});
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], -3.0);
}

TEST(FeaturesTest, StandardScaler) {
  std::vector<std::vector<double>> recs = {{0.0, 10.0}, {2.0, 20.0}};
  auto data = MakeDataset(std::move(recs), 1);
  auto ctx = MakeContext();
  auto model = StandardScaler().Fit(*data, &ctx).model;
  const auto out = model->Apply({1.0, 15.0});
  EXPECT_NEAR(out[0], 0.0, 1e-3);
  EXPECT_NEAR(out[1], 0.0, 1e-3);
}

TEST(FeaturesTest, OneHotAndArgMax) {
  const auto v = OneHotEncoder(3).Apply(1);
  EXPECT_EQ(v, (std::vector<double>{0, 1, 0}));
  EXPECT_EQ(ArgMaxClassifier().Apply({0.1, 0.9, 0.5}), 1);
}

TEST(FeaturesTest, TopKClassifierOrdersByScore) {
  TopKClassifier top3(3);
  const auto top = top3.Apply({0.2, 0.9, 0.1, 0.7});
  EXPECT_EQ(top, (std::vector<int>{1, 3, 0}));
  // k larger than the number of classes degrades gracefully.
  TopKClassifier top9(9);
  EXPECT_EQ(top9.Apply({0.5, 0.4}).size(), 2u);
}

TEST(MetricsTest, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
}

TEST(MetricsTest, TopKError) {
  std::vector<std::vector<double>> scores = {{0.5, 0.3, 0.2},
                                             {0.1, 0.2, 0.7}};
  // Example 0: truth 1 (rank 2) -> in top-2. Example 1: truth 0 (rank 3).
  EXPECT_DOUBLE_EQ(TopKError(scores, {1, 0}, 2), 0.5);
  EXPECT_DOUBLE_EQ(TopKError(scores, {0, 2}, 1), 0.0);
}

TEST(MetricsTest, MeanAveragePrecisionPerfectRanking) {
  std::vector<std::vector<double>> scores = {{0.9, 0.1}, {0.8, 0.2},
                                             {0.1, 0.9}};
  EXPECT_DOUBLE_EQ(MeanAveragePrecision(scores, {0, 0, 1}, 2), 1.0);
}

TEST(MetricsTest, ConfusionMatrixCounts) {
  const Matrix confusion = ConfusionMatrix({0, 1, 1}, {0, 1, 0}, 2);
  EXPECT_DOUBLE_EQ(confusion(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(confusion(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(confusion(1, 1), 1.0);
}

}  // namespace
}  // namespace keystone
