// Weak scaling (paper §6): "we estimate that a mesh with approximately
// four billion nodes would display similar strong scaling characteristics
// on the entire Summit machine. Moreover, a mesh with 20-30 billion mesh
// nodes would require exascale compute resources."
//
// The paper approximates weak scaling by keeping mesh nodes per GPU
// consistent across its three strong-scaling studies. This bench does it
// directly: the mesh is refined together with the rank count so each
// rank holds a constant share, and the modeled NLI time per step should
// stay flat if the application weak-scales.

#include <cstdio>

#include "bench_util.hpp"

using namespace exw;
using namespace exw::bench;

int main() {
  const int steps = env_steps(1);
  std::printf("Weak scaling — constant mesh nodes per rank (refine and "
              "ranks grow together)\n\n");
  std::printf("%8s %8s %12s %14s %12s %8s\n", "refine", "ranks", "nodes",
              "nodes/rank", "NLI[s/step]", "prs_it");

  double first = 0;
  double last = 0;
  // Each refine step multiplies node count by ~2 (1.26^3); ranks double.
  const double refines[4] = {0.40, 0.504, 0.635, 0.80};
  const int ranks[4] = {6, 12, 24, 48};
  // One scale factor for the whole sweep (from the largest case), so the
  // modeled work per rank is genuinely constant across the series.
  double scale = 0;
  {
    auto probe = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refines[3]);
    scale = paper_scale(mesh::TurbineCase::kSingle, probe.total_nodes());
  }
  for (int i = 0; i < 4; ++i) {
    auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refines[i]);
    const auto gpu = scaled_model(perf::MachineModel::summit_gpu(), scale);
    cfd::SimConfig cfg = scaled_optimized();
    cfg.picard_iters = 2;
    const auto r = run_case(sys, cfg, ranks[i], gpu, steps);
    std::printf("%8.3f %8d %12lld %14.0f %12.4f %8d\n", refines[i], ranks[i],
                static_cast<long long>(sys.total_nodes().value()),
                static_cast<double>(sys.total_nodes().value()) / ranks[i], r.nli_mean,
                r.prs_iters);
    if (i == 0) first = r.nli_mean;
    last = r.nli_mean;
  }
  std::printf("\nweak-scaling efficiency over 8x growth: %.0f%% (flat = "
              "100%%)\n", 100.0 * first / last);
  return 0;
}
