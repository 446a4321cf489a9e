#pragma once
/// Shared harness for the figure-reproduction benchmarks.
///
/// Each bench binary regenerates one table/figure of the paper: it runs
/// the real simulation at a sweep of simulated rank counts, collects the
/// recorded per-phase work, and prints the same rows/series the paper
/// plots. Modeled times come from perf::MachineModel (see DESIGN.md for
/// what is measured vs modeled).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cfd/simulation.hpp"
#include "perf/purity.hpp"

namespace exw::bench {

/// Process-wide heap-allocation count, read from the purity sanitizer's
/// interposition (perf/purity.hpp). Replaces the hand-rolled operator-new
/// probes the reuse benches used to carry — one allocator owner per
/// program. Always zero when EXW_PURITY_CHECKS=OFF, so steadiness checks
/// built on deltas of this value stay vacuously true there; benches that
/// need a hard floor should guard on perf::purity::enabled().
inline unsigned long long alloc_count() {
  return perf::purity::totals().allocs;
}

/// Count of non-allowlisted allocations recorded inside the named purity
/// region so far (the quantity the warm-path contract pins to zero).
inline long long disallowed_allocs(const char* region) {
  return perf::purity::region(region).allocs;
}

/// Result of running `steps` time steps at one configuration.
struct RunResult {
  int ranks = 0;
  double nli_mean = 0;  ///< modeled NLI seconds per step (mean over steps)
  double nli_std = 0;
  /// Pressure-equation breakdown (modeled seconds per step, last step):
  double prs_physics = 0, prs_local = 0, prs_global = 0, prs_setup = 0,
         prs_solve = 0;
  double mom_total = 0, scl_total = 0;
  int prs_iters = 0;
  int mom_iters = 0;
  std::vector<double> pressure_nnz;  ///< per-rank pressure nnz (all meshes)
};

/// Run the case at `nranks` simulated ranks and price phases under `m`.
inline RunResult run_case(mesh::OversetSystem& sys, const cfd::SimConfig& cfg,
                          int nranks, const perf::MachineModel& m,
                          int steps) {
  par::Runtime rt(nranks);
  cfd::Simulation sim(sys, cfg, rt);
  RunResult res;
  res.ranks = nranks;
  std::vector<double> nli_times;
  for (int s = 0; s < steps; ++s) {
    rt.tracer().reset();
    sim.step();
    auto& tr = rt.tracer();
    nli_times.push_back(tr.phase("nli").modeled_time(m));
    res.prs_physics = tr.phase("nli/continuity/physics").modeled_time(m);
    res.prs_local = tr.phase("nli/continuity/local").modeled_time(m);
    res.prs_global = tr.phase("nli/continuity/global").modeled_time(m);
    res.prs_setup = tr.phase("nli/continuity/setup").modeled_time(m);
    res.prs_solve = tr.phase("nli/continuity/solve").modeled_time(m);
    res.mom_total = tr.phase("nli/momentum").modeled_time(m);
    res.scl_total = tr.phase("nli/scalar").modeled_time(m);
    res.prs_iters = sim.continuity_stats().gmres_iterations;
    res.mom_iters = sim.momentum_stats().gmres_iterations;
  }
  double sum = 0;
  for (double t : nli_times) sum += t;
  res.nli_mean = sum / static_cast<double>(nli_times.size());
  double var = 0;
  for (double t : nli_times) var += (t - res.nli_mean) * (t - res.nli_mean);
  res.nli_std = std::sqrt(var / static_cast<double>(nli_times.size()));
  res.pressure_nnz.assign(static_cast<std::size_t>(nranks), 0.0);
  for (std::size_t mi = 0; mi < sys.meshes.size(); ++mi) {
    const auto nnz = sim.pressure_nnz_per_rank(static_cast<int>(mi));
    for (std::size_t r = 0; r < nnz.size(); ++r) {
      res.pressure_nnz[r] += nnz[r];
    }
  }
  return res;
}

/// Header shared by the strong-scaling benches.
inline void print_scaling_header(const char* series) {
  std::printf("%-22s %6s %6s %12s %10s %8s %8s\n", series, "nodes", "ranks",
              "NLI[s/step]", "stddev", "prs_it", "mom_it");
}

inline void print_scaling_row(const char* series, double nodes,
                              const RunResult& r) {
  std::printf("%-22s %6.1f %6d %12.4f %10.4f %8d %8d\n", series, nodes,
              r.ranks, r.nli_mean, r.nli_std, r.prs_iters, r.mom_iters);
}

/// Log-log slope between first and last points of a series (ideal = -1).
inline double scaling_slope(const std::vector<double>& ranks,
                            const std::vector<double>& times) {
  if (ranks.size() < 2) return 0;
  return std::log(times.back() / times.front()) /
         std::log(ranks.back() / ranks.front());
}

/// Scale a machine model's per-rank throughput by the workload-size
/// ratio S = paper mesh nodes / reproduction mesh nodes. The reproduction
/// runs a ~1:100 mesh, so at a given rank count each rank holds S x fewer
/// DoFs than on Summit; dividing the compute rates by S restores the
/// paper's work-per-rank-to-overhead ratio (per-message latency and
/// kernel-launch costs are size-independent). DESIGN.md discusses the
/// halo-bytes approximation this entails.
inline perf::MachineModel scaled_model(perf::MachineModel m, double s) {
  m.flops_per_s /= s;
  m.bytes_per_s /= s;
  return m;
}

/// The optimized configuration as a bench that prices paper-scale work
/// through scaled_model runs it: coarse-level agglomeration off. The
/// mini mesh's coarse levels hold a few rows per rank where the paper's
/// hold thousands, so grouping them by the mini mesh's row counts would
/// pile S times the real work onto each leader (DESIGN.md §6).
inline cfd::SimConfig scaled_optimized() {
  cfd::SimConfig cfg = cfd::SimConfig::optimized();
  cfg.pressure_amg.min_coarse_rows_per_rank = 0;
  return cfg;
}

/// Workload scale factor for a case vs the paper's Table 1.
inline double paper_scale(mesh::TurbineCase which, GlobalIndex actual_nodes) {
  const double paper = which == mesh::TurbineCase::kSingle ? 23022027.0
                       : which == mesh::TurbineCase::kDual ? 44233109.0
                                                           : 634469604.0;
  return paper / static_cast<double>(actual_nodes.value());
}

inline int env_steps(int fallback) {
  if (const char* s = std::getenv("EXW_BENCH_STEPS")) {
    return std::max(1, std::atoi(s));
  }
  return fallback;
}

inline double env_refine(double fallback) {
  if (const char* s = std::getenv("EXW_BENCH_REFINE")) {
    return std::atof(s);
  }
  return fallback;
}

}  // namespace exw::bench
