// Microbenchmarks for the numeric kernels underlying the operator library
// (google-benchmark). These are not paper experiments; they document the
// throughput of the substrate the simulator's GFLOP/s calibration refers
// to: single-core, plus a 4-thread kernel pool for the SPD solve and the
// Gram that an exact solver's fit spends its time in, and for the GMM EM
// fit that the ImageNet pipeline's featurization spends its time in; the
// dense SIFT kernel that ImageNet apply and serving spend theirs in runs on
// one image.

#include <benchmark/benchmark.h>

#include <memory>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/linalg/fft.h"
#include "src/linalg/gemm.h"
#include "src/linalg/qr.h"
#include "src/linalg/svd.h"
#include "src/ops/convolution.h"
#include "src/ops/gmm.h"
#include "src/ops/image_ops.h"
#include "src/workloads/datasets.h"

namespace keystone {
namespace {

void BM_Gemm(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(1);
  const Matrix a = Matrix::GaussianRandom(n, n, &rng);
  const Matrix b = Matrix::GaussianRandom(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gemm(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// A kernel pool of state.range(1) threads, or none for 0.
std::unique_ptr<ThreadPool> PoolArg(const benchmark::State& state) {
  const int64_t threads = state.range(1);
  return threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

void BM_SolveSpd(benchmark::State& state) {
  const size_t d = state.range(0);
  const auto pool = PoolArg(state);
  // Symmetric, strictly diagonally dominant, hence positive definite.
  Rng rng(8);
  Matrix a(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < i; ++j) {
      a(i, j) = a(j, i) = rng.NextDouble() * 2.0 - 1.0;
    }
    a(i, i) = static_cast<double>(d);
  }
  const Matrix b = Matrix::GaussianRandom(d, 2, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveSpd(a, b, pool.get()));
  }
  // Cholesky d^3 / 3, then two triangular solves per right-hand side.
  const double flops = d * d * (d / 3.0 + 2.0 * b.cols());
  state.counters["flops"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SolveSpd)
    ->ArgsProduct({{256, 1000, 2000}, {0, 4}})
    ->ArgNames({"d", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Gram(benchmark::State& state) {
  const size_t n = state.range(0) == 256 ? 2500 : 3000;
  const size_t d = state.range(0);
  const auto pool = PoolArg(state);
  Rng rng(9);
  const Matrix a = Matrix::GaussianRandom(n, d, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gram(a, pool.get()));
  }
  // One multiply-add per entry on or above the diagonal, per record.
  const double flops = static_cast<double>(n) * d * (d + 1);
  state.counters["flops"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate);
}
// 2500 x 256 and 3000 x 1000 designs.
BENCHMARK(BM_Gram)
    ->ArgsProduct({{256, 1000}, {0, 4}})
    ->ArgNames({"d", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FitGmm(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto pool = PoolArg(state);
  Rng rng(10);
  const Matrix rows = Matrix::GaussianRandom(n, 6, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm(rows, 5, 10, 23, pool.get()));
  }
  // One E step and one M step per descriptor per EM iteration.
  state.SetItemsProcessed(state.iterations() * n * 10);
}
// The ImageNet workload's LCS descriptor stack: 600 images x 36 cells,
// d = 6, k = 5, 10 EM iterations.
BENCHMARK(BM_FitGmm)
    ->ArgsProduct({{21600}, {0, 4}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FisherVector(benchmark::State& state) {
  Rng rng(11);
  const FisherVectorModel model(
      FitGmm(Matrix::GaussianRandom(2000, 6, &rng), 5, 10, 23));
  // One image's 36 LCS descriptors.
  const Matrix descriptors = Matrix::GaussianRandom(36, 6, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Apply(descriptors));
  }
  state.SetItemsProcessed(state.iterations() * descriptors.rows());
}
BENCHMARK(BM_FisherVector);

void BM_DenseSift(benchmark::State& state) {
  // One ImageNet workload image (48 x 48, seed 1), grayscaled as the SIFT
  // branch does; cell 8, 8 orientation bins.
  const workloads::ImageCorpus corpus =
      workloads::TexturedImages(1, 0, 48, 3, 4, 0.05, 1);
  const Image img = GrayScaler().Apply(corpus.train->partition(0)[0]);
  const DenseSift sift(8, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sift.Apply(img));
  }
  state.SetItemsProcessed(state.iterations() * img.width * img.height);
}
BENCHMARK(BM_DenseSift)->Unit(benchmark::kMicrosecond);

void BM_HouseholderQr(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(2);
  const Matrix a = Matrix::GaussianRandom(2 * n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HouseholderQr(a));
  }
}
BENCHMARK(BM_HouseholderQr)->Arg(32)->Arg(64)->Arg(128);

void BM_ExactSvd(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(3);
  const Matrix a = Matrix::GaussianRandom(2 * n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSvd(a));
  }
}
BENCHMARK(BM_ExactSvd)->Arg(16)->Arg(32)->Arg(64);

void BM_TruncatedSvd(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(4);
  const Matrix a = Matrix::GaussianRandom(2 * n, n, &rng);
  for (auto _ : state) {
    Rng local(5);
    benchmark::DoNotOptimize(TruncatedSvd(a, 8, &local));
  }
}
BENCHMARK(BM_TruncatedSvd)->Arg(64)->Arg(128);

void BM_Fft(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(6);
  std::vector<Complex> data(n);
  for (auto& v : data) v = Complex(rng.NextGaussian(), 0.0);
  for (auto _ : state) {
    auto copy = data;
    Fft(&copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384);

void BM_Convolution(benchmark::State& state) {
  Rng rng(7);
  const size_t k = state.range(0);
  FilterBank bank = FilterBank::Random(8, k, 1, &rng);
  Image img(64, 64, 1);
  for (auto& v : img.data) v = rng.NextDouble();
  const Convolver blas(bank, ConvolutionStrategy::kBlas);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blas.Apply(img));
  }
}
BENCHMARK(BM_Convolution)->Arg(3)->Arg(9);

}  // namespace
}  // namespace keystone

BENCHMARK_MAIN();
