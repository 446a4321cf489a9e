// Figure 3: strong scaling of the low-resolution single-turbine case —
// average nonlinear-iteration (NLI) time per time step on Summit, for
// (a) the current GPU implementation, (b) the baseline GPU
// implementation (general assembly path, RCB decomposition, one inner GS
// sweep, untuned AMG), and (c) the CPU implementation (42 Power9 ranks
// per node).
//
// Expected shape (paper): the optimized GPU curve sits 30-40% below the
// baseline; the CPU slope is near-ideal while the GPU curves flatten as
// DoFs/GPU drops; the CPU/GPU crossover lands at a few 1e5 mesh nodes
// per GPU.

#include <cstdio>

#include "bench_util.hpp"

using namespace exw;
using namespace exw::bench;

int main() {
  const double refine = env_refine(0.8);
  const int steps = env_steps(1);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  std::printf("Fig. 3 — strong scaling, %s (%lld mesh nodes), %d step(s), 4 "
              "Picard iters\n\n",
              sys.name.c_str(), static_cast<long long>(sys.total_nodes().value()),
              steps);

  const double scale =
      paper_scale(mesh::TurbineCase::kSingle, sys.total_nodes());
  std::printf("workload scale factor vs paper mesh: %.0fx (machine models "
              "scaled accordingly, DESIGN.md)\n\n", scale);
  const auto gpu = scaled_model(perf::MachineModel::summit_gpu(), scale);
  const auto cpu = scaled_model(perf::MachineModel::summit_cpu(), scale);

  struct Series {
    const char* name;
    cfd::SimConfig cfg;
    perf::MachineModel model;
    std::vector<double> nodes;  // Summit node counts
    int ranks_per_node;
  };
  cfd::SimConfig optimized = scaled_optimized();
  optimized.picard_iters = 4;
  cfd::SimConfig baseline = cfd::SimConfig::baseline();
  baseline.picard_iters = 4;
  cfd::SimConfig cpu_cfg = optimized;  // CPU runs use the optimized code

  std::vector<Series> series;
  series.push_back({"GPU (current)", optimized, gpu,
                    {2, 4, 8, 16, 32}, gpu.ranks_per_node});
  series.push_back({"GPU (baseline)", baseline, gpu,
                    {2, 4, 8, 16, 32}, gpu.ranks_per_node});
  series.push_back({"CPU", cpu_cfg, cpu, {2, 4, 8}, cpu.ranks_per_node});

  for (auto& s : series) {
    print_scaling_header(s.name);
    std::vector<double> xs, ts;
    for (double nodes : s.nodes) {
      const int ranks = static_cast<int>(nodes * s.ranks_per_node);
      const auto r = run_case(sys, s.cfg, ranks, s.model, steps);
      print_scaling_row(s.name, nodes, r);
      xs.push_back(static_cast<double>(ranks));
      ts.push_back(r.nli_mean);
    }
    std::printf("  -> log-log slope %.2f (ideal -1)\n\n",
                scaling_slope(xs, ts));
  }
  std::printf("(mesh nodes per GPU at 32 Summit nodes: %.0f)\n",
              static_cast<double>(sys.total_nodes().value()) / (32.0 * 6.0));
  return 0;
}
