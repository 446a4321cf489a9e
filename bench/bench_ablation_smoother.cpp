// Ablation (paper §5.1): "the inclusion of a second inner iteration in
// the two-stage Gauss-Seidel algorithm has proven effective at reducing
// the number of GMRES iterations by roughly 2x for the momentum and
// scalar transport equations."
//
// Sweeps the inner Jacobi-Richardson sweep count of the SGS2 momentum
// preconditioner on the actual turbine momentum system and reports GMRES
// iterations + modeled solve time.

#include <cstdio>

#include "bench_util.hpp"
#include "solver/gmres.hpp"

using namespace exw;

int main() {
  const double refine = bench::env_refine(0.6);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  std::printf("Smoother ablation — momentum GMRES iterations vs inner "
              "Jacobi-Richardson sweeps (%lld nodes)\n\n",
              static_cast<long long>(sys.total_nodes().value()));

  std::printf("%13s %10s %12s %14s\n", "inner sweeps", "mom_iters",
              "scl_iters", "NLI(gpu)[s]");
  int iters0 = 0, iters2 = 0;
  for (int inner : {0, 1, 2, 3}) {
    par::Runtime rt(24);
    cfd::SimConfig cfg = bench::scaled_optimized();
    cfg.picard_iters = 2;
    cfg.sgs_inner_sweeps = inner;
    cfd::Simulation sim(sys, cfg, rt);
    rt.tracer().reset();
    sim.step();
    const double nli = rt.tracer().phase("nli").modeled_time(bench::scaled_model(
        perf::MachineModel::summit_gpu(),
        bench::paper_scale(mesh::TurbineCase::kSingle, sys.total_nodes())));
    std::printf("%13d %10d %12d %14.4f\n", inner,
                sim.momentum_stats().gmres_iterations,
                sim.scalar_stats().gmres_iterations, nli);
    if (inner == 0) iters0 = sim.momentum_stats().gmres_iterations;
    if (inner == 2) iters2 = sim.momentum_stats().gmres_iterations;
  }
  std::printf("\nreduction from 0 to 2 inner sweeps: %.1fx (paper: ~2x)\n",
              static_cast<double>(iters0) / std::max(1, iters2));
  return 0;
}
