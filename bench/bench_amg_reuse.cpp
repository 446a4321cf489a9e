// AMG setup reuse bench: cold structural setup every solve vs warm
// value-only refresh of a frozen hierarchy (amg::HierarchyCache, the
// setup half of the Picard-loop reuse program; see DESIGN.md §12).
//
// The bench builds a 7-point Laplacian, then produces EXW_BENCH_REFILLS
// value-perturbed versions of it (structure frozen) and runs the
// pressure-preconditioner setup two ways:
//   cold — full AmgHierarchy setup per version (SoC + PMIS + interp +
//          Galerkin SpGEMMs + coarse dense LU),
//   warm — one frozen setup, then refresh_values() per version: pure
//          value streams and frozen-product replays, no graph traversal,
//          no hashing, no sort, no O(n^3) factorization, no steady-state
//          allocation.
// The warm sequence ends back at the first value set, so the refreshed
// hierarchy must match the first cold build bitwise — checked on every
// level operator and on a full V-cycle. It prints one JSON object and
// exits nonzero when any invariant fails:
//   * modeled warm speedup >= EXW_BENCH_MIN_MODELED_SPEEDUP (default 3),
//   * exact warm kernel-count identity (any SpGEMM / sort / LU kernel
//     leaking into the refresh breaks it),
//   * no warm kernel as large as the dense-LU cubic charge (the n^3/3
//     coarse factorization accrues on true rebuilds only),
//   * flat per-refresh allocation counts after steady state,
//   * a cfd A/B: the same turbine-free case stepped with the cache on
//     and off. Its pressure matrix never changes, so the cached run sets
//     up only in its first step and reuses the hierarchy after that; every
//     solve counts as one rebuild, refresh or reuse, and the pressure
//     iterations equal the uncached run's (reuse is bitwise).
//
// Knobs: EXW_BENCH_N (cells/side), EXW_BENCH_RANKS, EXW_BENCH_REFILLS,
// EXW_BENCH_MIN_MODELED_SPEEDUP (0 disables).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <memory>
#include <vector>

#include "amg/hierarchy.hpp"
#include "bench_util.hpp"
#include "cfd/simulation.hpp"
#include "common/rng.hpp"
#include "mesh/generators.hpp"
#include "perf/tracer.hpp"

// Heap probe: deltas of bench::alloc_count() (the purity sanitizer's
// process-wide interposition — see perf/purity.hpp) let the steady-state
// warm refresh be checked for allocation growth. The hand-rolled
// operator-new override this bench used to carry is gone: one allocator
// owner per program.

namespace exw {
namespace {

/// 7-point Laplacian (+small shift) scaled by `s`: the value sets the
/// warm path cycles through. Structure is independent of `s`.
sparse::Csr laplace3d_scaled(int n, Real s) {
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  auto id = [&](int i, int j, int k) {
    return static_cast<LocalIndex>((k * n + j) * n + i);
  };
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const LocalIndex row = id(i, j, k);
        Real diag = 0.01;
        auto nb = [&](int a, int b, int c) {
          if (a < 0 || a >= n || b < 0 || b >= n || c < 0 || c >= n) return;
          ti.push_back(row);
          tj.push_back(id(a, b, c));
          tv.push_back(-s);
          diag += 1.0;
        };
        nb(i - 1, j, k);
        nb(i + 1, j, k);
        nb(i, j - 1, k);
        nb(i, j + 1, k);
        nb(i, j, k - 1);
        nb(i, j, k + 1);
        ti.push_back(row);
        tj.push_back(row);
        tv.push_back(diag * s);
      }
    }
  }
  const LocalIndex nn{n * n * n};
  return sparse::Csr::from_triples(nn, nn, std::move(ti), std::move(tj),
                                   std::move(tv));
}

bool same_span(std::span<const Real> a, std::span<const Real> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

bool bitwise_equal(const linalg::ParCsr& a, const linalg::ParCsr& b) {
  for (RankId r{0}; r.value() < a.nranks(); ++r) {
    if (!same_span(a.block(r).diag.vals().raw(), b.block(r).diag.vals().raw()) ||
        !same_span(a.block(r).offd.vals().raw(), b.block(r).offd.vals().raw())) {
      return false;
    }
  }
  return true;
}

long env_long(const char* name, long fallback) {
  if (const char* s = std::getenv(name)) return std::atol(s);
  return fallback;
}

double env_double(const char* name, double fallback) {
  if (const char* s = std::getenv(name)) return std::atof(s);
  return fallback;
}

/// cfd A/B: one background box stepped with the AMG cache on vs off.
/// Returns false (and prints to stderr) if the cached run rebuilds after
/// its first step, leaves a solve unaccounted for, or needs a different
/// number of pressure iterations than the uncached run.
bool cfd_cache_matches_rebuilds(int* iters_on, int* iters_off) {
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

  *iters_on = 0;
  *iters_off = 0;
  bool ok = true;
  for (int s = 0; s < 2; ++s) {
    sim_on.step();
    sim_off.step();
    const cfd::EquationStats& st = sim_on.continuity_stats();
    const int on = st.gmres_iterations;
    const int off = sim_off.continuity_stats().gmres_iterations;
    *iters_on += on;
    *iters_off += off;
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
    if (st.amg_rebuilds + st.amg_refreshes + st.amg_reuses != st.solves) {
      std::fprintf(stderr, "FAIL: at step %d, %d rebuilds + %d refreshes + "
                           "%d reuses != %d solves\n", s, st.amg_rebuilds,
                   st.amg_refreshes, st.amg_reuses, st.solves);
      ok = false;
    }
  }
  return ok;
}

int run() {
  const int n = static_cast<int>(env_long("EXW_BENCH_N", 10));
  const int nranks = static_cast<int>(env_long("EXW_BENCH_RANKS", 8));
  const int refills = static_cast<int>(env_long("EXW_BENCH_REFILLS", 12));
  const double min_modeled =
      env_double("EXW_BENCH_MIN_MODELED_SPEEDUP", 3.0);

  par::Runtime rt(nranks);
  const auto rows = par::RowPartition::even(
      GlobalIndex{static_cast<std::int64_t>(n) * n * n}, nranks);
  // Value set it: scale 1 + 0.37*it on a frozen structure; the warm loop
  // visits 1..refills-1 and then returns to set 0 for the bitwise check.
  auto matrix_for = [&](int it) {
    return linalg::ParCsr::from_serial(
        rt, laplace3d_scaled(n, 1.0 + 0.37 * static_cast<Real>(it)), rows,
        rows);
  };
  amg::AmgConfig cfg;
  // A realistic direct-solve threshold: the coarse grid scales with the
  // fine grid, so the dense-LU cubic charge dominates every linear
  // streaming kernel and its absence from the warm path is observable
  // (the zero-n^3 check below) at any EXW_BENCH_N.
  cfg.max_coarse_size = GlobalIndex{512};

  // --- cold: full structural setup per value set ------------------------
  rt.tracer().reset();
  rt.tracer().push_phase("cold");
  const auto c0 = std::chrono::steady_clock::now();
  std::unique_ptr<amg::AmgHierarchy> cold_ref;  // the set-0 build
  for (int it = 0; it < refills; ++it) {
    auto h = std::make_unique<amg::AmgHierarchy>(matrix_for(it), cfg);
    if (it == 0) cold_ref = std::move(h);
  }
  const auto c1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  // --- warm: one frozen setup, then value-only refreshes ----------------
  rt.tracer().push_phase("freeze");
  const auto f0 = std::chrono::steady_clock::now();
  amg::AmgHierarchy warm(matrix_for(0), cfg, /*freeze_replay=*/true);
  const auto f1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  rt.tracer().push_phase("warm");
  std::vector<std::size_t> allocs_per_refresh;
  const auto w0 = std::chrono::steady_clock::now();
  for (int it = 1; it <= refills; ++it) {
    const auto a = matrix_for(it < refills ? it : 0);
    const auto a0 = bench::alloc_count();
    warm.refresh_values(a);
    allocs_per_refresh.push_back(
        static_cast<std::size_t>(bench::alloc_count() - a0));
  }
  const auto w1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  // --- bitwise: refreshed-back-to-set-0 vs the cold set-0 build ---------
  if (warm.num_levels() != cold_ref->num_levels()) {
    std::fprintf(stderr, "FAIL: level counts differ (%d vs %d)\n",
                 warm.num_levels(), cold_ref->num_levels());
    return 1;
  }
  for (int l = 0; l < warm.num_levels(); ++l) {
    if (!bitwise_equal(warm.level(l).a, cold_ref->level(l).a)) {
      std::fprintf(stderr, "FAIL: level %d operator differs from the cold "
                           "rebuild after the refresh round trip\n", l);
      return 1;
    }
  }
  linalg::ParVector b(rt, rows), x_warm(rt, rows), x_cold(rt, rows);
  {
    Rng rng(17);
    RealVector g(static_cast<std::size_t>(n) * n * n);
    for (auto& v : g) v = rng.uniform(-1.0, 1.0);
    b.scatter(g);
  }
  x_warm.fill(0.0);
  x_cold.fill(0.0);
  warm.vcycle(b, x_warm);
  cold_ref->vcycle(b, x_cold);
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& lw = x_warm.local(r);
    const auto& lc = x_cold.local(r);
    if (!same_span(lw, lc)) {
      std::fprintf(stderr, "FAIL: V-cycle differs from the cold rebuild "
                           "on rank %d\n", r.value());
      return 1;
    }
  }

  const auto& cold_ph = rt.tracer().phase("cold");
  const auto& warm_ph = rt.tracer().phase("warm");
  const auto& freeze_ph = rt.tracer().phase("freeze");
  const auto model = perf::MachineModel::summit_gpu();
  const double cold_wall = std::chrono::duration<double>(c1 - c0).count();
  const double warm_wall = std::chrono::duration<double>(w1 - w0).count();
  const double freeze_wall = std::chrono::duration<double>(f1 - f0).count();
  const double wall_speedup = cold_wall / std::max(warm_wall, 1e-12);
  const double modeled_speedup = cold_ph.modeled_time(model) /
                                 std::max(warm_ph.modeled_time(model), 1e-12);

  // Exact warm charge accounting (amg/hierarchy.cpp refresh_values +
  // amg/cache.cpp replay_level + assembly refill): per rank per refresh,
  // 1 level-0 value copy plus, per level transition, a fine-value gather,
  // an AP replay, a coarse-term replay, and the 2 fixed refill kernels
  // (stacked stream + scatter); each transport send slice charges one
  // kernel and one message. Setup work — SpGEMM, sort, PMIS sweeps, the
  // dense-LU factorization — charges kernels outside this identity, so
  // any leak into the refresh makes the excess nonzero.
  const int transitions = warm.num_levels() - 1;
  const long warm_expected =
      warm_ph.total_messages() +
      static_cast<long>(nranks) * refills * (1L + 5L * transitions);
  const long warm_excess = warm_ph.total_kernels() - warm_expected;

  // The coarse dense-LU factorization charge (n^3/3 cubic term) must
  // accrue on true rebuilds only: no single warm kernel may be as large.
  const double nc = static_cast<double>(
      warm.level(warm.num_levels() - 1).a.global_rows().value());
  const double lu_cubic = nc * nc * nc / 3.0;
  const bool warm_has_cubic = warm_ph.max_kernel_flops() >= lu_cubic;

  bool alloc_growth = false;
  for (std::size_t i = 2; i < allocs_per_refresh.size(); ++i) {
    if (allocs_per_refresh[i] > allocs_per_refresh[1]) alloc_growth = true;
  }
  // Hard floor (purity builds only): the warm refresh region must have
  // recorded zero non-allowlisted allocations across every refresh.
  const long long warm_disallowed = bench::disallowed_allocs("amg-refresh");

  int cfd_iters_on = 0, cfd_iters_off = 0;
  const bool cfd_ok = cfd_cache_matches_rebuilds(&cfd_iters_on,
                                                 &cfd_iters_off);

  std::printf("{\n");
  std::printf("  \"bench\": \"amg_reuse\",\n");
  std::printf("  \"rows\": %d, \"ranks\": %d, \"refreshes\": %d, "
              "\"levels\": %d,\n",
              n * n * n, nranks, refills, warm.num_levels());
  std::printf("  \"cold\": {\"wall_s\": %.6f, \"modeled_s\": %.6f, "
              "\"kernels\": %ld, \"flops\": %.3e, \"bytes\": %.3e},\n",
              cold_wall, cold_ph.modeled_time(model), cold_ph.total_kernels(),
              cold_ph.total_flops(), cold_ph.total_bytes());
  std::printf("  \"freeze\": {\"wall_s\": %.6f, \"modeled_s\": %.6f},\n",
              freeze_wall, freeze_ph.modeled_time(model));
  std::printf("  \"warm\": {\"wall_s\": %.6f, \"modeled_s\": %.6f, "
              "\"kernels\": %ld, \"flops\": %.3e, \"bytes\": %.3e},\n",
              warm_wall, warm_ph.modeled_time(model), warm_ph.total_kernels(),
              warm_ph.total_flops(), warm_ph.total_bytes());
  std::printf("  \"wall_speedup\": %.2f, \"modeled_speedup\": %.2f,\n",
              wall_speedup, modeled_speedup);
  std::printf("  \"warm_excess_kernels\": %ld,\n", warm_excess);
  std::printf("  \"warm_max_kernel_flops\": %.3e, \"lu_cubic_flops\": "
              "%.3e,\n",
              warm_ph.max_kernel_flops(), lu_cubic);
  std::printf("  \"warm_allocs_per_refresh\": [");
  for (std::size_t i = 0; i < allocs_per_refresh.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", allocs_per_refresh[i]);
  }
  std::printf("],\n");
  std::printf("  \"alloc_steady_state\": %s,\n",
              alloc_growth ? "false" : "true");
  std::printf("  \"warm_disallowed_allocs\": %lld,\n", warm_disallowed);
  std::printf("  \"cfd_pressure_iters\": {\"cache_on\": %d, \"cache_off\": "
              "%d}\n",
              cfd_iters_on, cfd_iters_off);
  std::printf("}\n");

  if (warm_excess != 0) {
    std::fprintf(stderr, "FAIL: warm refresh charged %ld unexpected kernels "
                         "(%ld total, %ld expected) - setup work leaked "
                         "into the value path\n",
                 warm_excess, warm_ph.total_kernels(), warm_expected);
    return 1;
  }
  if (warm_has_cubic) {
    std::fprintf(stderr, "FAIL: warm refresh charged a kernel of %.3e flops "
                         ">= the dense-LU cubic charge %.3e\n",
                 warm_ph.max_kernel_flops(), lu_cubic);
    return 1;
  }
  if (alloc_growth) {
    std::fprintf(stderr, "FAIL: warm refresh allocation count grows after "
                         "steady state\n");
    return 1;
  }
  if (perf::purity::enabled() && warm_disallowed != 0) {
    std::fprintf(stderr, "FAIL: warm refresh made %lld non-allowlisted "
                         "allocations inside the amg-refresh purity region\n",
                 warm_disallowed);
    return 1;
  }
  if (min_modeled > 0 && modeled_speedup < min_modeled) {
    std::fprintf(stderr, "FAIL: modeled warm setup speedup %.2f < required "
                         "%.2f\n", modeled_speedup, min_modeled);
    return 1;
  }
  if (!cfd_ok) {
    return 1;
  }
  if (!rt.transport().drained()) {
    std::fprintf(stderr, "FAIL: transport not drained\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace exw

int main() { return exw::run(); }
