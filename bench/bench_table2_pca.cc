// Reproduces Table 2: runtimes of the four physical PCA operators
// ({local, distributed} x {exact SVD, truncated SVD}) across dataset sizes
// n x d and target rank k, on 16 nodes.
//
// Cluster runtimes are the simulator's virtual seconds from the PCA cost
// models; a small real execution validates that all variants recover the
// same subspace. "x" marks configurations whose scratch memory exceeds a
// node (the paper's "did not complete" entries).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/exec_context.h"
#include "src/linalg/gemm.h"
#include "src/ops/pca.h"
#include "src/workloads/datasets.h"

namespace keystone {
namespace {

void PrintGrid(double n, const std::vector<std::pair<double, std::vector<
                                                                double>>>&
                              dims) {
  const auto cluster = ClusterResourceDescriptor::R3_4xlarge(16);
  const double node_mem = cluster.memory_per_node_gb * 1e9;
  std::printf("\nn = %.0e\n", n);
  struct Variant {
    const char* name;
    PcaAlgorithm alg;
    PcaPlacement place;
  };
  const Variant variants[] = {
      {"SVD", PcaAlgorithm::kExactSvd, PcaPlacement::kLocal},
      {"TSVD", PcaAlgorithm::kTruncatedSvd, PcaPlacement::kLocal},
      {"Dist. SVD", PcaAlgorithm::kExactSvd, PcaPlacement::kDistributed},
      {"Dist. TSVD", PcaAlgorithm::kTruncatedSvd,
       PcaPlacement::kDistributed},
  };
  // Header row: d / k combinations.
  std::printf("%-11s", "");
  for (const auto& [d, ks] : dims) {
    for (double k : ks) std::printf(" d=%-5.0fk=%-5.0f", d, k);
  }
  std::printf("\n");
  for (const auto& variant : variants) {
    std::printf("%-11s", variant.name);
    for (const auto& [d, ks] : dims) {
      for (double k : ks) {
        const double scratch = pca_costs::Scratch(variant.alg, variant.place,
                                                  n, d, k, 16);
        if (scratch > node_mem) {
          std::printf(" %12s", "x");
          continue;
        }
        const double seconds = cluster.SecondsFor(
            pca_costs::Cost(variant.alg, variant.place, n, d, k, 16));
        std::printf(" %12.2f", seconds);
      }
    }
    std::printf("\n");
  }
}

void SubspaceCrossCheck() {
  std::printf("\n-- Subspace cross-check (real execution) --\n");
  Rng rng(7);
  // Rank-5 data; every variant should capture the same 5-dim subspace.
  Matrix basis = Matrix::GaussianRandom(5, 48, &rng);
  std::vector<Matrix> records;
  for (int r = 0; r < 30; ++r) {
    records.push_back(Gemm(Matrix::GaussianRandom(20, 5, &rng), basis));
  }
  auto data = MakeDataset(std::move(records), 4);
  ExecContext ctx(ClusterResourceDescriptor::R3_4xlarge(16));
  for (auto place : {PcaPlacement::kLocal, PcaPlacement::kDistributed}) {
    for (auto alg : {PcaAlgorithm::kExactSvd, PcaAlgorithm::kTruncatedSvd}) {
      PcaEstimator pca(5, alg, place);
      auto model = pca.Fit(*data, &ctx).model;
      auto* typed = dynamic_cast<PcaModel*>(model.get());
      // Projection of a probe image must retain (almost) all its energy.
      const Matrix probe = data->partitions()[0][0];
      const Matrix projected = typed->components();
      const Matrix coords = model->Apply(probe);
      std::printf("  %-12s retained %.4f of probe norm\n",
                  pca.Name().c_str(),
                  coords.FrobeniusNorm() / probe.FrobeniusNorm());
    }
  }
}

}  // namespace
}  // namespace keystone

int main(int argc, char** argv) {
  keystone::bench::ObsSession obs("table2_pca", argc, argv);
  keystone::bench::Banner(
      "Table 2: PCA physical operator runtimes (seconds)",
      "Paper shape: local wins small problems; TSVD wins small k at large d;\n"
      "distributed wins large n; local variants fail at n=1e6, d=4096.");
  keystone::PrintGrid(1e4, {{256, {1, 16, 64}}, {4096, {16, 64, 1024}}});
  keystone::PrintGrid(1e6, {{256, {1, 16, 64}}, {4096, {16, 64, 1024}}});
  keystone::SubspaceCrossCheck();
  return 0;
}
