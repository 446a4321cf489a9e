// Kernel microbenchmarks (google-benchmark): REAL wall time on this host
// for the primitives the paper's pipeline is built from — SpMV,
// stable_sort_by_key / reduce_by_key (Algorithms 1-2), hash vs sort
// SpGEMM, local assembly fill, smoother sweeps, graph partitioning.

#include <benchmark/benchmark.h>

#include "amg/smoothers.hpp"
#include "assembly/graph.hpp"
#include "common/rng.hpp"
#include "mesh/generators.hpp"
#include "part/graph_partition.hpp"
#include "part/rcb.hpp"
#include "sparse/prim.hpp"
#include "sparse/spgemm.hpp"

namespace {

using namespace exw;

sparse::Csr laplacian(int n) {
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  auto id = [&](int i, int j, int k) {
    return static_cast<LocalIndex>((k * n + j) * n + i);
  };
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        const LocalIndex row = id(i, j, k);
        auto nb = [&](int a, int b, int c, Real v) {
          if (a < 0 || a >= n || b < 0 || b >= n || c < 0 || c >= n) return;
          ti.push_back(row);
          tj.push_back(id(a, b, c));
          tv.push_back(v);
        };
        nb(i, j, k, 6.01);
        nb(i - 1, j, k, -1.0);
        nb(i + 1, j, k, -1.0);
        nb(i, j - 1, k, -1.0);
        nb(i, j + 1, k, -1.0);
        nb(i, j, k - 1, -1.0);
        nb(i, j, k + 1, -1.0);
      }
  const LocalIndex nn{n * n * n};
  return sparse::Csr::from_triples(nn, nn, std::move(ti), std::move(tj),
                                   std::move(tv));
}

void BM_SpMV(benchmark::State& state) {
  const auto a = laplacian(static_cast<int>(state.range(0)));
  RealVector x(static_cast<std::size_t>(a.ncols()), 1.0);
  RealVector y(static_cast<std::size_t>(a.nrows()), 0.0);
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(16)->Arg(32)->Arg(48);

void BM_StableSortByKey(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<GlobalIndex> rows0(n), cols0(n);
  std::vector<Real> vals0(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows0[i] = static_cast<GlobalIndex>(rng.index(n / 9 + 1));
    cols0[i] = static_cast<GlobalIndex>(rng.index(n / 9 + 1));
    vals0[i] = rng.uniform();
  }
  for (auto _ : state) {
    auto rows = rows0;
    auto cols = cols0;
    auto vals = vals0;
    sparse::prim::stable_sort_by_key(rows, cols, vals);
    sparse::prim::reduce_by_key(rows, cols, vals);
    benchmark::DoNotOptimize(vals.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StableSortByKey)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_SpGemmHash(benchmark::State& state) {
  const auto a = laplacian(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto c = sparse::spgemm_hash(a, a);
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SpGemmHash)->Arg(16)->Arg(24)->Arg(32);

void BM_SpGemmSort(benchmark::State& state) {
  const auto a = laplacian(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto c = sparse::spgemm_sort(a, a);
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SpGemmSort)->Arg(16)->Arg(24)->Arg(32);

void BM_LocalAssemblyFill(benchmark::State& state) {
  // Stage-2 fill rate on a turbine-like mesh at one rank.
  mesh::BackgroundParams bg;
  bg.nx = bg.ny = bg.nz = GlobalIndex{state.range(0)};
  const auto db = mesh::make_background_mesh(bg, "bg");
  const auto layout =
      assembly::make_layout(db, 1, assembly::PartitionMethod::kRcb);
  std::vector<std::uint8_t> dirichlet(static_cast<std::size_t>(db.num_nodes()), 0);
  assembly::EquationGraph graph(db, layout, dirichlet);
  for (auto _ : state) {
    graph.zero_values();
    for (std::size_t e = 0; e < db.edges.size(); ++e) {
      const Real g = db.edges[e].coeff;
      graph.add_edge(e, {g, -g, -g, g}, {0.1, -0.1});
    }
    benchmark::DoNotOptimize(graph.rank(RankId{0}).owned.vals.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db.num_edges().value()) * 4);
}
BENCHMARK(BM_LocalAssemblyFill)->Arg(16)->Arg(28);

void BM_TwoStageGsSweep(benchmark::State& state) {
  const auto mat = laplacian(static_cast<int>(state.range(0)));
  par::Runtime rt(1);
  const auto rows = par::RowPartition::even(GlobalIndex{mat.nrows().value()}, 1);
  const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  amg::Smoother smoother(a, amg::SmootherType::kTwoStageGs, 2);
  linalg::ParVector b(rt, rows), x(rt, rows);
  b.fill(1.0);
  for (auto _ : state) {
    smoother.apply(b, x, 1);
    benchmark::DoNotOptimize(x.local(RankId{0}).data());
  }
}
BENCHMARK(BM_TwoStageGsSweep)->Arg(24)->Arg(40);

void BM_GraphPartition(benchmark::State& state) {
  mesh::BackgroundParams bg;
  bg.nx = bg.ny = bg.nz = GlobalIndex{24};
  const auto db = mesh::make_background_mesh(bg, "bg");
  std::vector<LocalIndex> ei(db.edges.size()), ej(db.edges.size());
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    ei[e] = checked_narrow<LocalIndex>(db.edges[e].a);
    ej[e] = checked_narrow<LocalIndex>(db.edges[e].b);
  }
  const auto g = part::graph_from_edges(
      checked_narrow<LocalIndex>(db.num_nodes()), ei, ej, {});
  for (auto _ : state) {
    auto parts = part::graph_partition(g, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(parts.data());
  }
}
BENCHMARK(BM_GraphPartition)->Arg(8)->Arg(32);

void BM_Rcb(benchmark::State& state) {
  mesh::BackgroundParams bg;
  bg.nx = bg.ny = bg.nz = GlobalIndex{24};
  const auto db = mesh::make_background_mesh(bg, "bg");
  for (auto _ : state) {
    auto parts =
        part::rcb_partition(db.coords, {}, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(parts.data());
  }
}
BENCHMARK(BM_Rcb)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
