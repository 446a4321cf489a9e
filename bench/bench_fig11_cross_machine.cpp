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

  // --- one-reduce vs pipelined GMRES A/B --------------------------------
  // The pipelined (depth-1) variant moves the per-iteration fused
  // reduction off the blocking ledger (its bandwidth is still priced, as
  // an overlapped collective), so its blocking-collective count per GMRES
  // iteration must be strictly lower, and the latency term it removes
  // grows with log2(R) — the strong-scaling knee (the rank count past
  // which modeled time stops improving) must not move left.
  std::printf("\nOne-reduce vs pipelined GMRES (Summit model):\n");
  std::printf("%6s %12s %12s | %12s %12s | %8s %8s | %7s %7s\n", "GPUs",
              "one[s]", "pipe[s]", "bcoll/it 1r", "bcoll/it pp", "ovl 1r",
              "ovl pp", "it 1r", "it pp");
  struct Variant {
    std::vector<double> nli;
    std::vector<double> bcoll_per_iter;
  };
  Variant one, pipe;
  const std::vector<int> gpu_list = {12, 24, 48, 72, 96, 144};
  for (int gpus : gpu_list) {
    double nli[2], bpi[2];
    long ovl[2];
    int its[2];
    for (int variant = 0; variant < 2; ++variant) {
      cfd::SimConfig vcfg = cfg;
      const auto ortho = variant == 0 ? solver::OrthoMethod::kOneReduce
                                      : solver::OrthoMethod::kPipelined;
      vcfg.pressure_gmres.ortho = ortho;
      vcfg.momentum_gmres.ortho = ortho;
      par::Runtime rt(gpus);
      cfd::Simulation sim(sys, vcfg, rt);
      rt.tracer().reset();
      sim.step();
      const auto& nli_ph = rt.tracer().phase("nli");
      const int iters = sim.continuity_stats().gmres_iterations +
                        sim.momentum_stats().gmres_iterations;
      nli[variant] = nli_ph.modeled_time(summit);
      bpi[variant] = static_cast<double>(nli_ph.collectives) /
                     std::max(1, iters);
      ovl[variant] = nli_ph.overlapped_collectives;
      its[variant] = iters;
    }
    std::printf("%6d %12.4f %12.4f | %12.2f %12.2f | %8ld %8ld | %7d %7d\n",
                gpus, nli[0], nli[1], bpi[0], bpi[1], ovl[0], ovl[1], its[0],
                its[1]);
    one.nli.push_back(nli[0]);
    one.bcoll_per_iter.push_back(bpi[0]);
    pipe.nli.push_back(nli[1]);
    pipe.bcoll_per_iter.push_back(bpi[1]);
  }

  // Knee: the rank count with the best modeled time (after it, adding
  // ranks no longer pays).
  auto knee = [&](const std::vector<double>& nli) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < nli.size(); ++i) {
      if (nli[i] < nli[best]) best = i;
    }
    return gpu_list[best];
  };
  const int knee_one = knee(one.nli);
  const int knee_pipe = knee(pipe.nli);
  std::printf("\nknee: one-reduce %d GPUs, pipelined %d GPUs\n", knee_one,
              knee_pipe);

  bool ok = true;
  for (std::size_t i = 0; i < gpu_list.size(); ++i) {
    if (!(pipe.bcoll_per_iter[i] < one.bcoll_per_iter[i])) {
      std::fprintf(stderr, "FAIL: pipelined blocking collectives/iter %.2f "
                           "not strictly below one-reduce %.2f at %d GPUs\n",
                   pipe.bcoll_per_iter[i], one.bcoll_per_iter[i],
                   gpu_list[i]);
      ok = false;
    }
  }
  if (knee_pipe < knee_one) {
    std::fprintf(stderr, "FAIL: pipelined knee (%d GPUs) moved left of "
                         "one-reduce (%d GPUs)\n", knee_pipe, knee_one);
    ok = false;
  }
  return ok ? 0 : 1;
}
