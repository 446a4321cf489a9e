// Fused momentum-solve bench: sequential per-component GMRES (3 solves,
// 3 structure reads per operator application) vs the fused 3-lane
// multi-RHS path (one structure read, one batched allreduce payload per
// orthogonalization; see DESIGN.md §13).
//
// The bench builds a momentum-like diagonally dominant system, three
// distinct RHS lanes, and runs EXW_BENCH_SOLVES repetitions of both
// paths under dedicated tracer phases. It prints one JSON object and
// exits nonzero when any invariant fails:
//   * modeled index-traffic reduction (seq index bytes / fused index
//     bytes) >= EXW_BENCH_MIN_INDEX_REDUCTION (default 2; the fused
//     SpMV/smoother sweeps read row structure once per 3 value lanes,
//     so the expected ratio is ~3),
//   * flat per-component GMRES iterations: each fused lane reports
//     exactly the sequential solve's count,
//   * bitwise-identical solutions per component,
//   * fewer collectives on the fused path (batched payloads),
//   * flat operator-new counts per fused solve after steady state,
//   * a cfd A/B: a turbine case stepped with use_fused_momentum on/off
//     must agree bitwise on the velocity field and momentum stats, and
//     the fused run must exercise the smoother value-rebind path.
//
// Knobs: EXW_BENCH_N (cells/side), EXW_BENCH_RANKS, EXW_BENCH_SOLVES,
// EXW_BENCH_MIN_INDEX_REDUCTION (0 disables).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "cfd/simulation.hpp"
#include "common/rng.hpp"
#include "mesh/generators.hpp"
#include "perf/tracer.hpp"
#include "solver/gmres.hpp"

// Heap probe: deltas of bench::alloc_count() (the purity sanitizer's
// process-wide interposition — see perf/purity.hpp) let repeated fused
// solves be checked for allocation growth. The hand-rolled operator-new
// override is gone: one allocator owner per program.

namespace exw {
namespace {

constexpr std::size_t kLanes = 3;

/// Momentum-like operator: 7-point advection-diffusion stencil with a
/// strong time-derivative diagonal (diagonally dominant, nonsymmetric).
sparse::Csr momentum_like(int n) {
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  auto id = [&](int i, int j, int k) {
    return static_cast<LocalIndex>((k * n + j) * n + i);
  };
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const LocalIndex row = id(i, j, k);
        Real diag = 2.0;  // mass / dt
        auto nb = [&](int a, int b, int c, Real upwind) {
          if (a < 0 || a >= n || b < 0 || b >= n || c < 0 || c >= n) return;
          ti.push_back(row);
          tj.push_back(id(a, b, c));
          tv.push_back(-1.0 - upwind);
          diag += 1.0 + upwind;
        };
        nb(i - 1, j, k, 0.5);  // upwinded x-advection
        nb(i + 1, j, k, 0.0);
        nb(i, j - 1, k, 0.0);
        nb(i, j + 1, k, 0.0);
        nb(i, j, k - 1, 0.0);
        nb(i, j, k + 1, 0.0);
        ti.push_back(row);
        tj.push_back(row);
        tv.push_back(diag);
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

long env_long(const char* name, long fallback) {
  if (const char* s = std::getenv(name)) return std::atol(s);
  return fallback;
}

double env_double(const char* name, double fallback) {
  if (const char* s = std::getenv(name)) return std::atof(s);
  return fallback;
}

/// cfd A/B: one turbine case stepped with the fused momentum path on vs
/// off must agree bitwise (velocity RMS is a deterministic functional of
/// the fields) with identical momentum stats, and the fused run must
/// rebind the cached smoother instead of rebuilding it.
bool cfd_paths_agree(int* iters_fused, int* iters_seq, int* rebinds) {
  auto sys_f = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  auto sys_s = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt_f(4), rt_s(4);
  cfd::SimConfig cfg;
  cfg.picard_iters = 2;
  cfg.use_fused_momentum = true;
  cfd::Simulation sim_f(sys_f, cfg, rt_f);
  cfg.use_fused_momentum = false;
  cfd::Simulation sim_s(sys_s, cfg, rt_s);

  *iters_fused = 0;
  *iters_seq = 0;
  *rebinds = 0;
  bool ok = true;
  for (int s = 0; s < 2; ++s) {
    sim_f.step();
    sim_s.step();
    const int itf = sim_f.momentum_stats().gmres_iterations;
    const int its = sim_s.momentum_stats().gmres_iterations;
    *iters_fused += itf;
    *iters_seq += its;
    *rebinds += sim_f.momentum_stats().smoother_rebinds +
                sim_f.scalar_stats().smoother_rebinds;
    if (itf != its) {
      std::fprintf(stderr,
                   "FAIL: fused momentum iterations drifted at step %d: "
                   "%d (fused) vs %d (sequential)\n", s, itf, its);
      ok = false;
    }
    if (sim_f.velocity_rms() != sim_s.velocity_rms() ||
        sim_f.divergence_rms() != sim_s.divergence_rms()) {
      std::fprintf(stderr,
                   "FAIL: fused vs sequential fields differ at step %d\n", s);
      ok = false;
    }
  }
  if (*rebinds == 0) {
    std::fprintf(stderr, "FAIL: fused run never rebound the smoother\n");
    ok = false;
  }
  return ok;
}

int run() {
  const int n = static_cast<int>(env_long("EXW_BENCH_N", 12));
  const int nranks = static_cast<int>(env_long("EXW_BENCH_RANKS", 8));
  const int solves = static_cast<int>(env_long("EXW_BENCH_SOLVES", 6));
  const double min_reduction =
      env_double("EXW_BENCH_MIN_INDEX_REDUCTION", 2.0);

  par::Runtime rt(nranks);
  const auto nn = static_cast<std::size_t>(n) * n * n;
  const auto rows = par::RowPartition::even(
      GlobalIndex{static_cast<std::int64_t>(nn)}, nranks);
  const auto a = linalg::ParCsr::from_serial(rt, momentum_like(n), rows, rows);

  // Three distinct RHS lanes (u/v/w stand-ins).
  std::vector<RealVector> bd;
  {
    Rng rng(41);
    for (std::size_t c = 0; c < kLanes; ++c) {
      RealVector g(nn);
      for (auto& v : g) v = rng.uniform(-1.0, 1.0);
      bd.push_back(std::move(g));
    }
  }

  solver::GmresOptions opts;
  opts.rel_tol = 1e-6;
  solver::SmootherPrecond m(a, amg::SmootherType::kSgs2, 2, 2);

  // --- sequential: 3 scalar solves per repetition -----------------------
  rt.tracer().reset();
  rt.tracer().push_phase("seq");
  std::vector<int> seq_iters(kLanes, 0);
  std::vector<RealVector> seq_x(kLanes);
  const auto s0 = std::chrono::steady_clock::now();
  for (int it = 0; it < solves; ++it) {
    for (std::size_t c = 0; c < kLanes; ++c) {
      linalg::ParVector bc(rt, rows), xc(rt, rows);
      bc.scatter(bd[c]);
      xc.fill(0.0);
      const auto st = solver::gmres_solve(a, bc, xc, m, opts);
      if (!st.converged) {
        std::fprintf(stderr, "FAIL: sequential lane %zu did not converge\n",
                     c);
        return 1;
      }
      seq_iters[c] = st.iterations;
      if (it == 0) seq_x[c] = xc.gather();
    }
  }
  const auto s1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  // --- fused: one 3-lane multi-RHS solve per repetition -----------------
  rt.tracer().push_phase("fused");
  std::vector<int> fused_iters(kLanes, 0);
  std::vector<RealVector> fused_x(kLanes);
  std::vector<std::size_t> allocs_per_solve;
  const auto f0 = std::chrono::steady_clock::now();
  for (int it = 0; it < solves; ++it) {
    linalg::ParVector b(rt, rows, kLanes), x(rt, rows, kLanes);
    for (std::size_t c = 0; c < kLanes; ++c) {
      linalg::ParVector bc(rt, rows);
      bc.scatter(bd[c]);
      b.set_lane(c, bc);
    }
    x.fill(0.0);
    const auto a0 = bench::alloc_count();
    const auto st = solver::gmres_solve_multi(a, b, x, m, opts);
    allocs_per_solve.push_back(
        static_cast<std::size_t>(bench::alloc_count() - a0));
    if (!st.all_converged()) {
      std::fprintf(stderr, "FAIL: fused solve did not converge\n");
      return 1;
    }
    for (std::size_t c = 0; c < kLanes; ++c) {
      fused_iters[c] = st.lane[c].iterations;
      if (it == 0) {
        linalg::ParVector xc(rt, rows);
        x.extract_lane(c, xc);
        fused_x[c] = xc.gather();
      }
    }
  }
  const auto f1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  // --- invariants -------------------------------------------------------
  bool iters_flat = true;
  for (std::size_t c = 0; c < kLanes; ++c) {
    if (fused_iters[c] != seq_iters[c]) iters_flat = false;
  }
  bool bitwise = true;
  for (std::size_t c = 0; c < kLanes; ++c) {
    if (!same_span(fused_x[c], seq_x[c])) bitwise = false;
  }
  bool alloc_growth = false;
  for (std::size_t i = 2; i < allocs_per_solve.size(); ++i) {
    if (allocs_per_solve[i] > allocs_per_solve[1]) alloc_growth = true;
  }

  const auto& seq_ph = rt.tracer().phase("seq");
  const auto& fused_ph = rt.tracer().phase("fused");
  const auto model = perf::MachineModel::summit_gpu();
  const double seq_wall = std::chrono::duration<double>(s1 - s0).count();
  const double fused_wall = std::chrono::duration<double>(f1 - f0).count();
  const double index_reduction =
      seq_ph.total_index_bytes() /
      std::max(fused_ph.total_index_bytes(), 1.0);
  const double modeled_speedup = seq_ph.modeled_time(model) /
                                 std::max(fused_ph.modeled_time(model), 1e-12);

  int cfd_iters_fused = 0, cfd_iters_seq = 0, cfd_rebinds = 0;
  const bool cfd_ok =
      cfd_paths_agree(&cfd_iters_fused, &cfd_iters_seq, &cfd_rebinds);

  // Non-allowlisted allocations inside the warm fused-kernel and
  // smoother-rebind purity regions. The contract pins this to zero.
  const long long warm_disallowed =
      bench::disallowed_allocs("multivector-scale-lanes") +
      bench::disallowed_allocs("multivector-axpy-lanes") +
      bench::disallowed_allocs("multivector-dots") +
      bench::disallowed_allocs("smoother-rebind");

  std::printf("{\n");
  std::printf("  \"bench\": \"momentum_fused\",\n");
  std::printf("  \"rows\": %zu, \"ranks\": %d, \"solves\": %d, \"lanes\": "
              "%zu,\n",
              nn, nranks, solves, kLanes);
  std::printf("  \"seq\": {\"wall_s\": %.6f, \"modeled_s\": %.6f, "
              "\"kernels\": %ld, \"collectives\": %ld, \"index_bytes\": "
              "%.3e, \"value_bytes\": %.3e},\n",
              seq_wall, seq_ph.modeled_time(model), seq_ph.total_kernels(),
              seq_ph.collectives, seq_ph.total_index_bytes(),
              seq_ph.total_value_bytes());
  std::printf("  \"fused\": {\"wall_s\": %.6f, \"modeled_s\": %.6f, "
              "\"kernels\": %ld, \"collectives\": %ld, \"index_bytes\": "
              "%.3e, \"value_bytes\": %.3e},\n",
              fused_wall, fused_ph.modeled_time(model),
              fused_ph.total_kernels(), fused_ph.collectives,
              fused_ph.total_index_bytes(), fused_ph.total_value_bytes());
  std::printf("  \"index_traffic_reduction\": %.2f, \"modeled_speedup\": "
              "%.2f,\n",
              index_reduction, modeled_speedup);
  std::printf("  \"iterations\": {\"seq\": [%d, %d, %d], \"fused\": "
              "[%d, %d, %d]},\n",
              seq_iters[0], seq_iters[1], seq_iters[2], fused_iters[0],
              fused_iters[1], fused_iters[2]);
  std::printf("  \"solutions_bitwise\": %s,\n", bitwise ? "true" : "false");
  std::printf("  \"fused_allocs_per_solve\": [");
  for (std::size_t i = 0; i < allocs_per_solve.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", allocs_per_solve[i]);
  }
  std::printf("],\n");
  std::printf("  \"alloc_steady_state\": %s,\n",
              alloc_growth ? "false" : "true");
  std::printf("  \"warm_disallowed_allocs\": %lld,\n", warm_disallowed);
  std::printf("  \"cfd\": {\"fused_iters\": %d, \"seq_iters\": %d, "
              "\"smoother_rebinds\": %d}\n",
              cfd_iters_fused, cfd_iters_seq, cfd_rebinds);
  std::printf("}\n");

  if (min_reduction > 0 && index_reduction < min_reduction) {
    std::fprintf(stderr, "FAIL: modeled index-traffic reduction %.2f < "
                         "required %.2f\n", index_reduction, min_reduction);
    return 1;
  }
  if (!iters_flat) {
    std::fprintf(stderr, "FAIL: fused per-component iteration counts differ "
                         "from sequential\n");
    return 1;
  }
  if (!bitwise) {
    std::fprintf(stderr, "FAIL: fused solutions are not bitwise-identical "
                         "to sequential\n");
    return 1;
  }
  if (fused_ph.collectives >= seq_ph.collectives) {
    std::fprintf(stderr, "FAIL: fused path charged %ld collectives >= "
                         "sequential %ld\n",
                 fused_ph.collectives, seq_ph.collectives);
    return 1;
  }
  if (alloc_growth) {
    std::fprintf(stderr, "FAIL: fused solve allocation count grows after "
                         "steady state\n");
    return 1;
  }
  if (perf::purity::enabled() && warm_disallowed != 0) {
    std::fprintf(stderr, "FAIL: %lld non-allowlisted allocation(s) inside "
                         "warm purity regions\n", warm_disallowed);
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
