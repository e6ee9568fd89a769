#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/exec_context.h"
#include "src/linalg/gemm.h"
#include "src/linalg/vector_ops.h"
#include "src/optimizer/operator_optimizer.h"
#include "src/solvers/lbfgs.h"
#include "src/solvers/solver_costs.h"
#include "src/solvers/solvers.h"

namespace keystone {
namespace {

struct DenseProblem {
  std::shared_ptr<DistDataset<DenseVec>> data;
  std::shared_ptr<DistDataset<DenseVec>> labels;
  Matrix x_true;
};

DenseProblem MakeDenseProblem(size_t n, size_t d, size_t k, double noise,
                              uint64_t seed) {
  Rng rng(seed);
  DenseProblem out;
  out.x_true = Matrix::GaussianRandom(d, k, &rng);
  std::vector<DenseVec> rows(n);
  std::vector<DenseVec> labels(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].resize(d);
    for (auto& v : rows[i]) v = rng.NextGaussian();
    labels[i].resize(k);
    for (size_t c = 0; c < k; ++c) {
      double y = 0.0;
      for (size_t j = 0; j < d; ++j) y += rows[i][j] * out.x_true(j, c);
      labels[i][c] = y + noise * rng.NextGaussian();
    }
  }
  out.data = MakeDataset(std::move(rows), 4);
  out.labels = MakeDataset(std::move(labels), 4);
  return out;
}

ExecContext MakeContext() {
  return ExecContext(ClusterResourceDescriptor::R3_4xlarge(4));
}

double MaxWeightError(const Matrix& estimated, const Matrix& truth) {
  return (estimated - truth).MaxAbs();
}

const Matrix& ModelWeights(const Fitted<Transformer<DenseVec, DenseVec>>& t) {
  auto* model = dynamic_cast<LinearMapModel*>(t.model.get());
  EXPECT_NE(model, nullptr);
  return model->weights();
}

TEST(LbfgsCoreTest, MinimizesQuadratic) {
  // f(x) = (x0-3)^2 + 10 (x1+2)^2.
  auto objective = [](const std::vector<double>& x,
                      std::vector<double>* grad) {
    (*grad)[0] = 2.0 * (x[0] - 3.0);
    (*grad)[1] = 20.0 * (x[1] + 2.0);
    return (x[0] - 3.0) * (x[0] - 3.0) + 10.0 * (x[1] + 2.0) * (x[1] + 2.0);
  };
  LbfgsResult result = MinimizeLbfgs(objective, {0.0, 0.0}, LbfgsOptions());
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-5);
  EXPECT_NEAR(result.x[1], -2.0, 1e-5);
}

TEST(LbfgsCoreTest, MinimizesRosenbrock) {
  auto objective = [](const std::vector<double>& x,
                      std::vector<double>* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
    (*grad)[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  };
  LbfgsOptions options;
  options.max_iterations = 200;
  LbfgsResult result = MinimizeLbfgs(objective, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(DenseSolversTest, AllRecoverTrueWeightsNoiseless) {
  DenseProblem problem = MakeDenseProblem(300, 20, 3, 0.0, 7);
  LinearSolverConfig config;
  config.num_classes = 3;
  config.l2_reg = 1e-8;
  config.lbfgs_iterations = 200;
  config.block_size = 8;
  config.block_epochs = 12;
  auto ctx = MakeContext();

  const LocalExactSolver local(config);
  EXPECT_LT(MaxWeightError(ModelWeights(local.Fit(*problem.data,
                                                  *problem.labels, &ctx)),
                           problem.x_true),
            1e-5);

  const DistributedExactSolver dist(config);
  EXPECT_LT(MaxWeightError(ModelWeights(dist.Fit(*problem.data,
                                                 *problem.labels, &ctx)),
                           problem.x_true),
            1e-5);

  const DenseLbfgsSolver lbfgs(config);
  EXPECT_LT(MaxWeightError(ModelWeights(lbfgs.Fit(*problem.data,
                                                  *problem.labels, &ctx)),
                           problem.x_true),
            1e-3);

  const DenseBlockSolver block(config);
  EXPECT_LT(MaxWeightError(ModelWeights(block.Fit(*problem.data,
                                                  *problem.labels, &ctx)),
                           problem.x_true),
            1e-3);
}

TEST(DenseSolversTest, ExactHandlesUnderdeterminedSampleFits) {
  // n < d happens when solvers are profiled on small samples.
  DenseProblem problem = MakeDenseProblem(15, 40, 2, 0.0, 9);
  LinearSolverConfig config;
  config.num_classes = 2;
  auto ctx = MakeContext();
  const LocalExactSolver local(config);
  auto model = local.Fit(*problem.data, *problem.labels, &ctx).model;
  // Min-norm solution still interpolates the training data.
  const auto rows = problem.data->Collect();
  const auto labels = problem.labels->Collect();
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto pred = model->Apply(rows[i]);
    EXPECT_NEAR(pred[0], labels[i][0], 1e-4);
  }
}

TEST(DenseSolversTest, LbfgsReportsActualIterations) {
  DenseProblem problem = MakeDenseProblem(100, 10, 2, 0.01, 11);
  LinearSolverConfig config;
  config.num_classes = 2;
  auto ctx = MakeContext();
  const DenseLbfgsSolver lbfgs(config);
  const auto cost = lbfgs.Fit(*problem.data, *problem.labels, &ctx).cost;
  ASSERT_TRUE(cost.has_value());
  EXPECT_GT(cost->flops, 0.0);
  EXPECT_GT(cost->rounds, 0.0);
}

struct SparseProblem {
  std::shared_ptr<DistDataset<SparseVector>> data;
  std::shared_ptr<DistDataset<DenseVec>> labels;
  Matrix x_true;
};

SparseProblem MakeSparseProblem(size_t n, size_t d, size_t k, size_t nnz,
                                uint64_t seed) {
  Rng rng(seed);
  SparseProblem out;
  out.x_true = Matrix::GaussianRandom(d, k, &rng);
  std::vector<SparseVector> rows(n);
  std::vector<DenseVec> labels(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].dim = d;
    for (size_t z = 0; z < nnz; ++z) {
      rows[i].Push(static_cast<uint32_t>(rng.NextIndex(d)),
                   rng.NextGaussian());
    }
    rows[i].SortAndMerge();
    labels[i].resize(k);
    for (size_t c = 0; c < k; ++c) {
      double y = 0.0;
      for (size_t z = 0; z < rows[i].nnz(); ++z) {
        y += rows[i].values[z] * out.x_true(rows[i].indices[z], c);
      }
      labels[i][c] = y;
    }
  }
  out.data = MakeDataset(std::move(rows), 4);
  out.labels = MakeDataset(std::move(labels), 4);
  return out;
}

TEST(SparseSolversTest, LbfgsFitsSparseData) {
  SparseProblem problem = MakeSparseProblem(500, 60, 2, 8, 13);
  LinearSolverConfig config;
  config.num_classes = 2;
  config.l2_reg = 1e-8;
  config.lbfgs_iterations = 300;
  auto ctx = MakeContext();
  const SparseLbfgsSolver solver(config);
  auto model = solver.Fit(*problem.data, *problem.labels, &ctx).model;
  auto* typed = dynamic_cast<SparseLinearMapModel*>(model.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_LT(MaxWeightError(typed->weights(), problem.x_true), 5e-3);
}

TEST(SparseSolversTest, ExactAndBlockAgreeWithLbfgs) {
  SparseProblem problem = MakeSparseProblem(400, 30, 2, 6, 17);
  LinearSolverConfig config;
  config.num_classes = 2;
  config.l2_reg = 1e-8;
  config.lbfgs_iterations = 300;
  config.block_size = 10;
  config.block_epochs = 15;
  auto ctx = MakeContext();

  const SparseExactSolver exact(config);
  auto exact_model = exact.Fit(*problem.data, *problem.labels, &ctx).model;
  const SparseBlockSolver block(config);
  auto block_model = block.Fit(*problem.data, *problem.labels, &ctx).model;

  auto* exact_typed = dynamic_cast<SparseLinearMapModel*>(exact_model.get());
  auto* block_typed = dynamic_cast<SparseLinearMapModel*>(block_model.get());
  EXPECT_LT(MaxWeightError(exact_typed->weights(), problem.x_true), 1e-5);
  EXPECT_LT(MaxWeightError(block_typed->weights(), problem.x_true), 1e-3);
}

// --- One design, two layouts ------------------------------------------------

/// One seeded design stored both ways: dense rows and the same rows as
/// sparse vectors (about a third of the entries non-zero), with Gaussian
/// labels or, for logistic loss, one-hot ones.
struct TwoLayouts {
  Matrix a;  // n x d
  Matrix b;  // n x k
  SparseMatrix sparse_a;
  std::shared_ptr<DistDataset<DenseVec>> dense;
  std::shared_ptr<DistDataset<SparseVector>> sparse;
  std::shared_ptr<DistDataset<DenseVec>> labels;
};

TwoLayouts MakeTwoLayouts(size_t n, size_t d, size_t k, bool one_hot,
                          uint64_t seed) {
  Rng rng(seed);
  TwoLayouts out;
  out.a = Matrix(n, d);
  out.b = Matrix(n, k);
  std::vector<DenseVec> rows(n, DenseVec(d, 0.0));
  std::vector<SparseVector> sparse_rows(n);
  std::vector<DenseVec> labels(n, DenseVec(k, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (rng.NextDouble() >= 0.35) continue;
      const double v = rng.NextGaussian();
      rows[i][j] = out.a(i, j) = v;
      sparse_rows[i].Push(static_cast<uint32_t>(j), v);
    }
    sparse_rows[i].dim = d;
    if (one_hot) {
      labels[i][rng.NextIndex(k)] = 1.0;
    } else {
      for (double& y : labels[i]) y = rng.NextGaussian();
    }
    for (size_t c = 0; c < k; ++c) out.b(i, c) = labels[i][c];
  }
  out.sparse_a = SparseMatrix::FromRows(sparse_rows, d);
  out.dense = MakeDataset(std::move(rows), 3);
  out.sparse = MakeDataset(std::move(sparse_rows), 3);
  out.labels = MakeDataset(std::move(labels), 3);
  return out;
}

/// The weights a linear solver fits on `data`.
template <typename In>
Matrix FittedWeights(const LabelEstimator<In, DenseVec, DenseVec>& solver,
                     const DistDataset<In>& data,
                     const DistDataset<DenseVec>& labels,
                     ThreadPool* pool = nullptr) {
  auto ctx = MakeContext();
  if (pool != nullptr) ctx.set_pool(pool);
  const auto model = solver.Fit(data, labels, &ctx).model;
  if constexpr (std::is_same_v<In, DenseVec>) {
    return dynamic_cast<const LinearMapModel&>(*model).weights();
  } else {
    return dynamic_cast<const SparseLinearMapModel&>(*model).weights();
  }
}

/// Agreement within 1e-9 relative to the larger magnitude.
void ExpectAgree(const Matrix& dense, const Matrix& sparse,
                 const std::string& what) {
  ASSERT_EQ(dense.rows(), sparse.rows()) << what;
  ASSERT_EQ(dense.cols(), sparse.cols()) << what;
  const double scale = std::max({1.0, dense.MaxAbs(), sparse.MaxAbs()});
  EXPECT_LE((dense - sparse).MaxAbs(), 1e-9 * scale) << what;
}

TEST(TwoLayoutsTest, DenseAndSparseFitOneDesignAlike) {
  // Each solver algorithm (and each baseline) is written once over the
  // DenseDesign/SparseDesign layouts, so one design stored both ways fits
  // the same weights whichever layout carries it.
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(16);
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {90, 20}, {40, 30}, {200, 64}};
  for (const auto& [n, d] : shapes) {
    for (size_t k : {1, 3}) {
      for (bool logistic : {false, true}) {
        const std::string tag = "n=" + std::to_string(n) +
                                " d=" + std::to_string(d) +
                                " k=" + std::to_string(k) +
                                (logistic ? " logistic" : " lsq");
        const TwoLayouts design =
            MakeTwoLayouts(n, d, k, logistic, 100 * n + 10 * d + k);
        LinearSolverConfig config;
        config.num_classes = static_cast<int>(k);
        config.l2_reg = 1e-3;
        config.lbfgs_iterations = 15;
        config.block_epochs = 2;
        config.block_size = 7;  // < d: several column blocks
        if (logistic) config.loss = LinearSolverConfig::Loss::kLogistic;

        ExpectAgree(FittedWeights(DenseLbfgsSolver(config), *design.dense,
                                  *design.labels),
                    FittedWeights(SparseLbfgsSolver(config), *design.sparse,
                                  *design.labels),
                    "L-BFGS " + tag);
        // The block, exact and baseline solvers minimize least squares
        // whatever the configured loss.
        if (logistic) continue;
        ExpectAgree(FittedWeights(DenseBlockSolver(config), *design.dense,
                                  *design.labels),
                    FittedWeights(SparseBlockSolver(config), *design.sparse,
                                  *design.labels),
                    "block " + tag);
        ASSERT_GE(n, d);
        ExpectAgree(FittedWeights(LocalExactSolver(config), *design.dense,
                                  *design.labels),
                    FittedWeights(SparseExactSolver(config), *design.sparse,
                                  *design.labels),
                    "exact " + tag);

        const std::pair<baselines::BaselineSolveResult,
                        baselines::BaselineSolveResult>
            baseline_pairs[] = {
                {baselines::VwLikeSolveDense(design.a, design.b, 4, cluster),
                 baselines::VwLikeSolve(design.sparse_a, design.b, 4,
                                        cluster)},
                {baselines::SystemMlLikeSolveDense(design.a, design.b, 6,
                                                   cluster),
                 baselines::SystemMlLikeSolve(design.sparse_a, design.b, 6,
                                              cluster)}};
        for (const auto& [dense, sparse] : baseline_pairs) {
          ExpectAgree(dense.weights, sparse.weights, "baseline " + tag);
          EXPECT_NEAR(dense.train_loss, sparse.train_loss,
                      1e-9 * std::max(1.0, dense.train_loss))
              << "baseline " + tag;
        }
      }
    }
  }
}

// --- Cost-only hook: FitCost is the cost Fit reports ------------------------

/// The profile passes charge FitCost in place of fitting, so it must equal
/// the cost Fit reports bit for bit.
template <typename Solver, typename Features>
void ExpectFitCostIsFitCost(const Solver& solver, const Features& data,
                            const DistDataset<DenseVec>& labels, int workers) {
  ExecContext ctx(ClusterResourceDescriptor::R3_4xlarge(workers));
  const std::optional<CostProfile> hook = solver.FitCost(data, labels, &ctx);
  const std::optional<CostProfile> fit = solver.Fit(data, labels, &ctx).cost;
  ASSERT_TRUE(hook.has_value()) << solver.Name();
  ASSERT_TRUE(fit.has_value()) << solver.Name();
  EXPECT_EQ(hook->flops, fit->flops) << solver.Name();
  EXPECT_EQ(hook->bytes, fit->bytes) << solver.Name();
  EXPECT_EQ(hook->network, fit->network) << solver.Name();
  EXPECT_EQ(hook->rounds, fit->rounds) << solver.Name();
}

// The exact solvers' Gram and Cholesky split their work over the context's
// pool in fixed row chunks, so the weights they fit are the same bits
// whatever the pool's size.
TEST(ExactSolverPoolTest, WeightsAreBitIdenticalForAnyPoolSize) {
  LinearSolverConfig config;
  config.num_classes = 3;
  config.l2_reg = 1e-3;
  // Dimensions past one 64-column panel and several 32-row chunks.
  const DenseProblem tall = MakeDenseProblem(300, 150, 3, 0.1, 41);
  const DenseProblem wide = MakeDenseProblem(100, 170, 3, 0.1, 42);
  const SparseProblem sparse = MakeSparseProblem(400, 180, 3, 12, 43);
  ASSERT_GE(tall.data->NumPartitions(), 3u);
  const auto fit_all = [&](ThreadPool* pool) {
    return std::vector<Matrix>{
        FittedWeights(LocalExactSolver(config), *tall.data, *tall.labels,
                      pool),
        FittedWeights(LocalExactSolver(config), *wide.data, *wide.labels,
                      pool),
        FittedWeights(DistributedExactSolver(config), *tall.data,
                      *tall.labels, pool),
        FittedWeights(SparseExactSolver(config), *sparse.data,
                      *sparse.labels, pool)};
  };
  const char* const names[] = {"LocalExact n >= d", "LocalExact n < d",
                               "DistributedExact", "SparseExact"};
  ThreadPool one(1);
  const std::vector<Matrix> want = fit_all(&one);
  for (size_t threads : {2, 4}) {
    ThreadPool pool(threads);
    const std::vector<Matrix> got = fit_all(&pool);
    for (size_t s = 0; s < want.size(); ++s) {
      ASSERT_EQ(got[s].rows(), want[s].rows()) << names[s];
      ASSERT_EQ(got[s].cols(), want[s].cols()) << names[s];
      EXPECT_EQ(std::memcmp(got[s].data(), want[s].data(),
                            want[s].size() * sizeof(double)),
                0)
          << names[s] << " with " << threads << " threads";
    }
  }
}

TEST(SolverFitCostTest, DenseHookEqualsFitCost) {
  LinearSolverConfig config;
  config.block_size = 16;
  for (size_t k : {1, 8}) {
    config.num_classes = static_cast<int>(k);
    // n < d takes LocalExact's dual path; n > d the normal equations.
    for (const auto& [n, d] : {std::pair<size_t, size_t>{15, 40}, {90, 24}}) {
      const DenseProblem problem = MakeDenseProblem(n, d, k, 0.01, 23);
      for (int workers : {1, 16}) {
        ExpectFitCostIsFitCost(LocalExactSolver(config), *problem.data,
                               *problem.labels, workers);
        ExpectFitCostIsFitCost(DistributedExactSolver(config), *problem.data,
                               *problem.labels, workers);
        ExpectFitCostIsFitCost(DenseBlockSolver(config), *problem.data,
                               *problem.labels, workers);
      }
    }
  }
}

TEST(SolverFitCostTest, SparseHookEqualsFitCost) {
  LinearSolverConfig config;
  config.block_size = 16;
  for (size_t k : {1, 8}) {
    config.num_classes = static_cast<int>(k);
    for (const auto& [n, d] : {std::pair<size_t, size_t>{20, 30}, {80, 30}}) {
      const SparseProblem problem = MakeSparseProblem(n, d, k, 5, 29);
      // Records with dim == 0 size the features by last index + 1.
      std::vector<SparseVector> rows = problem.data->Collect();
      for (SparseVector& row : rows) row.dim = 0;
      const auto dimless = MakeDataset(std::move(rows), 3);
      for (int workers : {1, 16}) {
        for (const DistDataset<SparseVector>* data :
             {problem.data.get(), dimless.get()}) {
          ExpectFitCostIsFitCost(SparseExactSolver(config), *data,
                                 *problem.labels, workers);
          ExpectFitCostIsFitCost(SparseBlockSolver(config), *data,
                                 *problem.labels, workers);
        }
      }
    }
  }
}

TEST(SolverFitCostTest, DataDependentSolversHaveNoHook) {
  // L-BFGS reports its actual gradient evaluations: only a fit can tell.
  const DenseProblem problem = MakeDenseProblem(40, 6, 2, 0.01, 31);
  LinearSolverConfig config;
  auto ctx = MakeContext();
  EXPECT_FALSE(DenseLbfgsSolver(config)
                   .FitCost(*problem.data, *problem.labels, &ctx)
                   .has_value());
}

TEST(LogisticTest, SeparatesLinearlySeparableData) {
  Rng rng(19);
  const size_t n = 400;
  std::vector<DenseVec> rows(n);
  std::vector<DenseVec> labels(n);
  for (size_t i = 0; i < n; ++i) {
    const int cls = i % 2;
    rows[i] = {rng.Gaussian(cls == 0 ? -2.0 : 2.0, 0.5),
               rng.NextGaussian()};
    labels[i] = cls == 0 ? DenseVec{1, 0} : DenseVec{0, 1};
  }
  auto data = MakeDataset(std::move(rows), 4);
  auto label_ds = MakeDataset(std::move(labels), 4);

  LinearSolverConfig config;
  config.num_classes = 2;
  config.loss = LinearSolverConfig::Loss::kLogistic;
  config.l2_reg = 1e-4;
  auto ctx = MakeContext();
  const DenseLbfgsSolver solver(config);
  auto model = solver.Fit(*data, *label_ds, &ctx).model;

  int correct = 0;
  for (const auto& part : data->partitions()) {
    for (size_t i = 0; i < part.size(); ++i) {
      const auto scores = model->Apply(part[i]);
      const int pred = static_cast<int>(ArgMax(scores));
      const int truth = part[i][0] < 0 ? 0 : 1;
      correct += pred == truth;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.97);
}

// --- Cost model shape tests (the Figure 6 / Figure 8 stories) --------------

TEST(SolverCostModelTest, SparseTextFavorsLbfgs) {
  // Amazon-like: n = 65M, d = 100k, 0.1% sparse, k = 2 on 16 nodes.
  DataStats stats;
  stats.num_records = 65000000;
  stats.dim = 100000;
  stats.avg_nnz = 100;
  stats.sparsity = 0.001;
  stats.bytes_per_record = 100 * 12.0;
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(16);

  LinearSolverConfig config;
  config.num_classes = 2;
  auto logical = MakeSparseLinearSolver(config);
  const auto choice = ChooseOption(*logical, stats, cluster);
  EXPECT_EQ(logical->options()[choice.option_index]->Name(),
            "SparseLbfgsSolver");
}

TEST(SolverCostModelTest, SparseExactInfeasibleAtHighDimensions) {
  DataStats stats;
  stats.num_records = 1000000;
  stats.dim = 100000;
  stats.avg_nnz = 100;
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(16);
  LinearSolverConfig config;
  const SparseExactSolver exact(config);
  // Dense 100k x 100k Gram: 80 GB > 30 GB node memory.
  EXPECT_GT(exact.ScratchMemoryBytes(stats, cluster.num_nodes),
            cluster.memory_per_node_gb * 1e9);
}

TEST(SolverCostModelTest, DenseCrossoverExactThenBlock) {
  // TIMIT-like: n = 2.25M, k = 147, dense. The paper reports the exact
  // solver fastest below ~4k features and the block solver fastest at 8k+.
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(16);
  LinearSolverConfig config;
  config.num_classes = 147;
  auto logical = MakeDenseLinearSolver(config);

  auto choose = [&](size_t d) {
    DataStats stats;
    stats.num_records = 2250000;
    stats.dim = d;
    stats.avg_nnz = d;
    stats.bytes_per_record = d * 8.0;
    const auto choice = ChooseOption(*logical, stats, cluster);
    return logical->options()[choice.option_index]->Name();
  };
  EXPECT_EQ(choose(1024), "DistributedExactSolver");
  EXPECT_EQ(choose(2048), "DistributedExactSolver");
  EXPECT_EQ(choose(16384), "DenseBlockSolver");
}

TEST(SolverCostModelTest, BinaryDenseFavorsLbfgsAtMidSizes) {
  // Binary TIMIT (k = 2): the paper's Figure 8 story — exact at 1024,
  // L-BFGS from 2048 up.
  const auto cluster = ClusterResourceDescriptor::C3_4xlarge(16);
  LinearSolverConfig config;
  config.num_classes = 2;
  auto logical = MakeDenseLinearSolver(config);

  auto choose = [&](size_t d) {
    DataStats stats;
    stats.num_records = 2250000;
    stats.dim = d;
    stats.avg_nnz = d;
    stats.bytes_per_record = d * 8.0;
    const auto choice = ChooseOption(*logical, stats, cluster);
    return logical->options()[choice.option_index]->Name();
  };
  EXPECT_EQ(choose(1024), "DistributedExactSolver");
  EXPECT_EQ(choose(4096), "DenseLbfgsSolver");
  EXPECT_EQ(choose(16384), "DenseLbfgsSolver");
}

TEST(SolverCostModelTest, ExactCostGrowsQuadraticallyInFeatures) {
  const auto c1 = solver_costs::DistributedExact(1e6, 1000, 10, 1000, 16);
  const auto c2 = solver_costs::DistributedExact(1e6, 2000, 10, 2000, 16);
  EXPECT_GT(c2.flops / c1.flops, 3.5);
  EXPECT_LT(c2.flops / c1.flops, 4.5);
}

TEST(SolverCostModelTest, LbfgsScalesWithSparsityNotDimension) {
  const auto dense = solver_costs::Lbfgs(1e6, 10000, 2, 10000, 50, 16);
  const auto sparse = solver_costs::Lbfgs(1e6, 10000, 2, 10, 50, 16);
  EXPECT_GT(dense.flops / sparse.flops, 500.0);
}

}  // namespace
}  // namespace keystone
