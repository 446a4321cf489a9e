// Blade-resolved single-turbine simulation — the paper's core workload.
//
// Runs the NREL-5MW-like overset case (rotating rotor disc mesh inside a
// graded background) for a few time steps and prints, per step, the
// solver statistics and the modeled nonlinear-iteration (NLI) time under
// the Summit GPU, Summit CPU, and Eagle GPU machine models.
//
//   ./build/examples/turbine_simulation [refine] [nranks] [steps] [vtk_prefix]
//
// With a vtk_prefix, the final fields are written as legacy VTK files
// (one per component mesh) for ParaView — the paper's Fig. 2 style
// flow-field visualization.

#include <cstdio>
#include <cstdlib>

#include "cfd/simulation.hpp"

using namespace exw;

int main(int argc, char** argv) {
  const double refine = argc > 1 ? std::atof(argv[1]) : 0.5;
  const int nranks = argc > 2 ? std::atoi(argv[2]) : 24;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 3;

  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  std::printf("case: %s | %lld mesh nodes (%zu meshes), %zu overset fringe "
              "constraints\n",
              sys.name.c_str(), static_cast<long long>(sys.total_nodes().value()),
              sys.meshes.size(), sys.constraints.size());
  for (const auto& m : sys.meshes) {
    std::printf("  mesh %-12s nodes=%lld hexes=%lld\n", m.name.c_str(),
                static_cast<long long>(m.num_nodes().value()),
                static_cast<long long>(m.num_hexes().value()));
  }

  par::Runtime rt(nranks);
  cfd::SimConfig cfg = cfd::SimConfig::optimized();
  cfd::Simulation sim(sys, cfg, rt);

  const auto gpu = perf::MachineModel::summit_gpu();
  const auto cpu = perf::MachineModel::summit_cpu();
  const auto eagle = perf::MachineModel::eagle_gpu();

  // Diagnostics and modeled times print every bit (%.17g), so comparing
  // two runs' output catches a last-bit difference anywhere in the step.
  std::printf("\n%4s %23s %23s %23s %6s %6s %6s | %23s %23s %23s\n",
              "step", "div_rms", "vel_rms", "scl_mean", "mom_it", "prs_it",
              "scl_it", "NLI@Summit [s]", "NLI@Eagle [s]", "NLI@CPUmdl [s]");
  for (int s = 0; s < steps; ++s) {
    rt.tracer().reset();
    sim.step();
    const auto& nli = rt.tracer().phase("nli");
    std::printf("%4d %23.17g %23.17g %23.17g %6d %6d %6d | %23.17g %23.17g "
                "%23.17g\n",
                s, static_cast<double>(sim.divergence_rms()),
                static_cast<double>(sim.velocity_rms()),
                static_cast<double>(sim.scalar_mean()),
                sim.momentum_stats().gmres_iterations,
                sim.continuity_stats().gmres_iterations,
                sim.scalar_stats().gmres_iterations, nli.modeled_time(gpu),
                nli.modeled_time(eagle), nli.modeled_time(cpu));
  }

  // Per-equation breakdown of the last step (the Figs. 6-7 shape).
  std::printf("\npressure-Poisson breakdown of last step (SummitGPU model):\n");
  auto& tr = rt.tracer();
  for (const char* phase : {"physics", "local", "global", "setup", "solve"}) {
    const std::string full = std::string("nli/continuity/") + phase;
    if (tr.has_phase(full)) {
      std::printf("  %-8s %.4f s\n", phase, tr.phase_time(full, gpu));
    }
  }
  std::printf("AMG: %d levels, operator complexity %.2f\n",
              sim.continuity_stats().amg_levels,
              sim.continuity_stats().amg_operator_complexity);
  if (argc > 4) {
    const bool ok = sim.write_vtk(argv[4]);
    std::printf("VTK fields written with prefix '%s': %s\n", argv[4],
                ok ? "ok" : "FAILED");
  }
  return 0;
}
