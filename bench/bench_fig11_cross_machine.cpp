// Figure 11: Summit vs Eagle cross-machine comparison on the
// low-resolution single-turbine mesh. Identical software; the machines
// differ in GPUs per node (6 SXM2 vs 2 PCIe), MPI stack, and host
// architecture.
//
// Expected shape (paper): "72 GPUs on Eagle is nearly 40% faster than
// 144 GPUs on Summit", with the gains made almost exclusively in the
// pressure-Poisson AMG setup (1.3 s vs 2.0 s) and solve (0.8 s vs
// 1.1 s).
//
// Because the recorded work is machine-independent, one run per GPU
// count prices both machines.

#include <cstdio>

#include "bench_util.hpp"

using namespace exw;
using namespace exw::bench;

int main() {
  const double refine = env_refine(0.8);
  const int steps = env_steps(1);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  std::printf("Fig. 11 — Summit vs Eagle, %s (%lld mesh nodes)\n\n",
              sys.name.c_str(), static_cast<long long>(sys.total_nodes().value()));

  const double scale =
      paper_scale(mesh::TurbineCase::kSingle, sys.total_nodes());
  const auto summit = scaled_model(perf::MachineModel::summit_gpu(), scale);
  const auto eagle = scaled_model(perf::MachineModel::eagle_gpu(), scale);
  cfd::SimConfig cfg = scaled_optimized();
  cfg.picard_iters = 4;

  std::printf("%6s %14s %14s | %10s %10s | %10s %10s\n", "GPUs",
              "Summit NLI[s]", "Eagle NLI[s]", "setupS", "setupE", "solveS",
              "solveE");
  double summit_at_144 = 0, eagle_at_72 = 0;
  for (int gpus : {12, 24, 48, 72, 96, 144}) {
    par::Runtime rt(gpus);
    cfd::Simulation sim(sys, cfg, rt);
    double nli_s = 0, nli_e = 0, setup_s = 0, setup_e = 0, solve_s = 0,
           solve_e = 0;
    for (int s = 0; s < steps; ++s) {
      rt.tracer().reset();
      sim.step();
      auto& tr = rt.tracer();
      nli_s = tr.phase("nli").modeled_time(summit);
      nli_e = tr.phase("nli").modeled_time(eagle);
      setup_s = tr.phase("nli/continuity/setup").modeled_time(summit);
      setup_e = tr.phase("nli/continuity/setup").modeled_time(eagle);
      solve_s = tr.phase("nli/continuity/solve").modeled_time(summit);
      solve_e = tr.phase("nli/continuity/solve").modeled_time(eagle);
    }
    std::printf("%6d %14.4f %14.4f | %10.4f %10.4f | %10.4f %10.4f\n", gpus,
                nli_s, nli_e, setup_s, setup_e, solve_s, solve_e);
    if (gpus == 144) summit_at_144 = nli_s;
    if (gpus == 72) eagle_at_72 = nli_e;
  }
  std::printf("\nEagle@72GPUs vs Summit@144GPUs: %.0f%% %s (paper: Eagle "
              "~40%% faster with half the GPUs)\n",
              100.0 * std::abs(summit_at_144 - eagle_at_72) /
                  std::max(summit_at_144, 1e-12),
              eagle_at_72 < summit_at_144 ? "faster" : "slower");

  return 0;
}
