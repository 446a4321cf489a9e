// Figure 7: GPU pressure-Poisson time-per-step breakdown for the
// low-resolution single-turbine mesh (same stacked components as Fig. 6,
// SummitGPU model, 6 V100 ranks per node).
//
// Expected shape (paper): local assembly ~4x faster than the CPU's;
// setup + solve dominate, and their scaling degrades as DoFs/GPU drops
// (the AMG communication burden) — unlike the CPU breakdown of Fig. 6.

#include <cstdio>

#include "bench_util.hpp"

using namespace exw;
using namespace exw::bench;

int main() {
  const double refine = env_refine(0.8);
  const int steps = env_steps(1);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  std::printf("Fig. 7 — GPU pressure-Poisson breakdown, %s (%lld nodes), "
              "modeled seconds per step (SummitGPU)\n\n",
              sys.name.c_str(), static_cast<long long>(sys.total_nodes().value()));

  const double scale =
      paper_scale(mesh::TurbineCase::kSingle, sys.total_nodes());
  const auto gpu = scaled_model(perf::MachineModel::summit_gpu(), scale);
  const auto cpu = scaled_model(perf::MachineModel::summit_cpu(), scale);
  cfd::SimConfig cfg = scaled_optimized();
  cfg.picard_iters = 4;

  std::printf("%6s %6s %10s %10s %10s %10s %10s %10s\n", "nodes", "ranks",
              "physics", "local", "global", "setup", "solve", "total");
  double local_gpu_at4 = 0, local_cpu_at4 = 0;
  for (double nodes : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    const int ranks = static_cast<int>(nodes * gpu.ranks_per_node);
    const auto r = run_case(sys, cfg, ranks, gpu, steps);
    std::printf("%6.0f %6d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
                nodes, ranks, r.prs_physics, r.prs_local, r.prs_global,
                r.prs_setup, r.prs_solve,
                r.prs_physics + r.prs_local + r.prs_global + r.prs_setup +
                    r.prs_solve);
    if (nodes == 4.0) local_gpu_at4 = r.prs_local;
  }
  // The paper's local-assembly speedup claim: ~4x vs the CPU at equal
  // node counts (Fig. 7 vs Fig. 6, green bars).
  {
    const int ranks = 4 * cpu.ranks_per_node;
    const auto r = run_case(sys, cfg, ranks, cpu, 1);
    local_cpu_at4 = r.prs_local;
  }
  std::printf("\nlocal-assembly speedup GPU vs CPU at 4 Summit nodes: %.1fx "
              "(paper: ~4x)\n",
              local_cpu_at4 / std::max(local_gpu_at4, 1e-12));
  return 0;
}
