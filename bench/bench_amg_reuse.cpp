// AMG hierarchy reuse bench: a cfd A/B of amg::HierarchyCache (DESIGN.md
// §12). The same turbine-free case is stepped with the cache on and off.
// Its pressure matrix never changes, so the cached run sets up only in
// its first step and reuses the hierarchy after that. It prints one JSON
// object and exits nonzero when any invariant fails:
//   * the cached run rebuilds the hierarchy after its first step,
//   * a solve is neither a rebuild nor a reuse,
//   * the pressure iterations differ from the uncached run's,
//   * a diagnostic (divergence, velocity, scalar) differs by a bit from
//     the uncached run's — reuse is bitwise,
//   * a run leaves its transport undrained.

#include <cstdio>

#include "cfd/simulation.hpp"
#include "mesh/generators.hpp"

namespace exw {
namespace {

int run() {
  mesh::OversetSystem sys_on, sys_off;
  for (mesh::OversetSystem* sys : {&sys_on, &sys_off}) {
    mesh::BackgroundParams bg;
    bg.nx = bg.ny = bg.nz = GlobalIndex{6};
    sys->meshes.push_back(mesh::make_background_mesh(bg, "bg"));
    sys->motion.push_back(mesh::RotationSpec{});
    sys->name = "bench";
  }
  par::Runtime rt_on(4), rt_off(4);
  cfd::SimConfig cfg;
  cfg.picard_iters = 4;
  cfg.use_amg_cache = true;
  cfd::Simulation sim_on(sys_on, cfg, rt_on);
  cfg.use_amg_cache = false;
  cfd::Simulation sim_off(sys_off, cfg, rt_off);

  int iters_on = 0, iters_off = 0, rebuilds = 0, reuses = 0;
  bool ok = true;
  for (int s = 0; s < 2; ++s) {
    sim_on.step();
    sim_off.step();
    const cfd::EquationStats& st = sim_on.continuity_stats();
    const int on = st.gmres_iterations;
    const int off = sim_off.continuity_stats().gmres_iterations;
    iters_on += on;
    iters_off += off;
    rebuilds += st.amg_rebuilds;
    reuses += st.amg_reuses;
    if (on != off) {
      std::fprintf(stderr,
                   "FAIL: cached pressure iterations differ at step %d: "
                   "%d (cache on) vs %d (cache off)\n", s, on, off);
      ok = false;
    }
    if (s > 0 && st.amg_rebuilds != 0) {
      std::fprintf(stderr, "FAIL: cached run rebuilt the hierarchy %d "
                           "time(s) at step %d\n", st.amg_rebuilds, s);
      ok = false;
    }
    if (st.amg_rebuilds + st.amg_reuses != st.solves) {
      std::fprintf(stderr, "FAIL: at step %d, %d rebuilds + %d reuses != "
                           "%d solves\n", s, st.amg_rebuilds, st.amg_reuses,
                   st.solves);
      ok = false;
    }
    if (sim_on.divergence_rms() != sim_off.divergence_rms() ||
        sim_on.velocity_rms() != sim_off.velocity_rms() ||
        sim_on.scalar_mean() != sim_off.scalar_mean()) {
      std::fprintf(stderr, "FAIL: cached run's diagnostics differ from the "
                           "uncached run's at step %d\n", s);
      ok = false;
    }
  }
  for (par::Runtime* rt : {&rt_on, &rt_off}) {
    if (!rt->transport().drained()) {
      std::fprintf(stderr, "FAIL: transport not drained\n");
      ok = false;
    }
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"amg_reuse\",\n");
  std::printf("  \"amg\": {\"rebuilds\": %d, \"reuses\": %d},\n", rebuilds,
              reuses);
  std::printf("  \"cfd_pressure_iters\": {\"cache_on\": %d, \"cache_off\": "
              "%d}\n",
              iters_on, iters_off);
  std::printf("}\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace exw

int main() { return exw::run(); }
