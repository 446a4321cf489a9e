// Figure 9: strong scaling of the refined single-turbine case — the
// paper's largest runs (634M nodes on up to 4,320 V100s, 1/6 of Summit).
// Our refined mesh is host-sized; the rank sweep reaches the same
// DoFs-per-GPU regime (down to ~1e3 here vs ~1.5e5 in the paper at peak
// scale, see EXPERIMENTS.md for the mapping).
//
// Expected shape (paper): scaling behavior consistent with the smaller
// meshes but with far greater fluctuation; CPU strong-scaling slope
// drops (-0.79 vs -0.98 for the low-resolution case).

#include <cstdio>

#include "bench_util.hpp"

using namespace exw;
using namespace exw::bench;

int main() {
  const double refine = env_refine(0.7);
  const int steps = env_steps(1);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingleRefined, refine);
  std::printf("Fig. 9 — strong scaling, %s (%lld mesh nodes)\n\n",
              sys.name.c_str(), static_cast<long long>(sys.total_nodes().value()));

  const double scale =
      paper_scale(mesh::TurbineCase::kSingleRefined, sys.total_nodes());
  const auto gpu = scaled_model(perf::MachineModel::summit_gpu(), scale);
  const auto cpu = scaled_model(perf::MachineModel::summit_cpu(), scale);
  cfd::SimConfig cfg = scaled_optimized();
  cfg.picard_iters = 2;  // keep host time bounded; NLI is per-step anyway

  print_scaling_header("GPU (current)");
  std::vector<double> xs, ts;
  for (double nodes : {8.0, 16.0, 32.0, 64.0}) {
    const int ranks = static_cast<int>(nodes * gpu.ranks_per_node);
    const auto r = run_case(sys, cfg, ranks, gpu, steps);
    print_scaling_row("GPU (current)", nodes, r);
    xs.push_back(static_cast<double>(ranks));
    ts.push_back(r.nli_mean);
  }
  const double gpu_slope = scaling_slope(xs, ts);
  std::printf("  -> log-log slope %.2f (ideal -1)\n\n", gpu_slope);

  print_scaling_header("CPU");
  xs.clear();
  ts.clear();
  for (double nodes : {4.0, 8.0}) {
    const int ranks = static_cast<int>(nodes * cpu.ranks_per_node);
    const auto r = run_case(sys, cfg, ranks, cpu, steps);
    print_scaling_row("CPU", nodes, r);
    xs.push_back(static_cast<double>(ranks));
    ts.push_back(r.nli_mean);
  }
  std::printf("  -> log-log slope %.2f (paper: -0.79 for this case, -0.98 "
              "for the low-res case)\n",
              scaling_slope(xs, ts));
  return 0;
}
