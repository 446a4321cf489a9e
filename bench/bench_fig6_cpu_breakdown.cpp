// Figure 6: CPU pressure-Poisson time-per-step breakdown for the
// low-resolution single-turbine mesh — stacked contributions of graph/
// physics (purple), local assembly (green), global assembly (red),
// preconditioner setup (blue), and solve (orange), across Summit node
// counts at 42 Power9 ranks per node.
//
// Expected shape (paper): setup + solve dominate; all components scale
// well on the CPU (near -1 slope).

#include <cstdio>

#include "bench_util.hpp"

using namespace exw;
using namespace exw::bench;

int main() {
  const double refine = env_refine(0.8);
  const int steps = env_steps(1);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  std::printf("Fig. 6 — CPU pressure-Poisson breakdown, %s (%lld nodes), "
              "modeled seconds per step (SummitCPU)\n\n",
              sys.name.c_str(), static_cast<long long>(sys.total_nodes().value()));

  const double scale =
      paper_scale(mesh::TurbineCase::kSingle, sys.total_nodes());
  const auto cpu = scaled_model(perf::MachineModel::summit_cpu(), scale);
  cfd::SimConfig cfg = scaled_optimized();
  cfg.picard_iters = 4;

  std::printf("%6s %6s %10s %10s %10s %10s %10s %10s\n", "nodes", "ranks",
              "physics", "local", "global", "setup", "solve", "total");
  for (double nodes : {1.0, 2.0, 4.0, 8.0}) {
    const int ranks = static_cast<int>(nodes * cpu.ranks_per_node);
    const auto r = run_case(sys, cfg, ranks, cpu, steps);
    std::printf("%6.0f %6d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
                nodes, ranks, r.prs_physics, r.prs_local, r.prs_global,
                r.prs_setup, r.prs_solve,
                r.prs_physics + r.prs_local + r.prs_global + r.prs_setup +
                    r.prs_solve);
  }
  return 0;
}
