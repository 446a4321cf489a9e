// Figure 8: strong scaling of the dual-turbine case (average NLI time
// per step, GPU current vs CPU).
//
// Expected shape (paper): "very similar performance to the lower
// resolution single-turbine mesh", possibly with a bit more variation in
// the per-step times.

#include <cstdio>

#include "bench_util.hpp"

using namespace exw;
using namespace exw::bench;

int main() {
  const double refine = env_refine(0.6);
  const int steps = env_steps(1);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kDual, refine);
  std::printf("Fig. 8 — strong scaling, %s (%lld mesh nodes)\n\n",
              sys.name.c_str(), static_cast<long long>(sys.total_nodes().value()));

  const double scale = paper_scale(mesh::TurbineCase::kDual, sys.total_nodes());
  const auto gpu = scaled_model(perf::MachineModel::summit_gpu(), scale);
  const auto cpu = scaled_model(perf::MachineModel::summit_cpu(), scale);
  cfd::SimConfig cfg = scaled_optimized();
  cfg.picard_iters = 4;

  print_scaling_header("GPU (current)");
  std::vector<double> xs, ts;
  for (double nodes : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    const int ranks = static_cast<int>(nodes * gpu.ranks_per_node);
    const auto r = run_case(sys, cfg, ranks, gpu, steps);
    print_scaling_row("GPU (current)", nodes, r);
    xs.push_back(static_cast<double>(ranks));
    ts.push_back(r.nli_mean);
  }
  std::printf("  -> log-log slope %.2f (ideal -1)\n\n", scaling_slope(xs, ts));

  print_scaling_header("CPU");
  xs.clear();
  ts.clear();
  for (double nodes : {2.0, 4.0, 8.0}) {
    const int ranks = static_cast<int>(nodes * cpu.ranks_per_node);
    const auto r = run_case(sys, cfg, ranks, cpu, steps);
    print_scaling_row("CPU", nodes, r);
    xs.push_back(static_cast<double>(ranks));
    ts.push_back(r.nli_mean);
  }
  std::printf("  -> log-log slope %.2f (ideal -1)\n", scaling_slope(xs, ts));
  return 0;
}
