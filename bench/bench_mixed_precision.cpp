// Mixed-precision preconditioning A/B (DESIGN.md §16): the optimized
// configuration with FP32 preconditioner storage vs the same run pinned
// to full FP64, on the single-turbine case.
//
// The per-precision value-byte ledger (Tracer::kernel_split_prec) and the
// nested "precond" phases let the bench isolate exactly the streams the
// mixed path claims to halve: smoother/V-cycle value traffic, halo
// payloads, and coarse-level collective payloads inside the
// preconditioner applications. It prints one JSON object and exits
// nonzero when any floor fails:
//   * modeled preconditioner value-stream reduction (FP64 bytes / mixed
//     bytes) >= EXW_BENCH_MIN_STREAM_REDUCTION (default 1.8; the
//     demote/promote boundary copies keep it under the ideal 2x),
//   * halo + collective payload reduction inside the preconditioner
//     >= EXW_BENCH_MIN_PAYLOAD_REDUCTION (default 1.5),
//   * iteration neutrality: pressure and momentum GMRES iterations under
//     the FP32 preconditioner within +1 *per solve* of the FP64 run (the
//     per-step stats aggregate picard_iters pressure solves and
//     3 * picard_iters momentum lane-solves),
//   * the mixed run's preconditioner work actually carries an FP32
//     ledger (guards against silently running everything in FP64).
//
// Knobs: EXW_BENCH_REFINE (0.4), EXW_BENCH_STEPS (2), EXW_BENCH_RANKS
// (8), and the two floor overrides above (0 disables).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace exw {
namespace {

double env_double(const char* name, double fallback) {
  if (const char* s = std::getenv(name)) return std::atof(s);
  return fallback;
}

/// Work recorded inside the leaf "precond" phases (every preconditioner
/// application pushes one; nesting charges work to each open phase, so
/// summing only the leaves avoids double counting).
struct PrecondWork {
  double value_f64 = 0;
  double value_f32 = 0;
  double value_total = 0;
  double msg_bytes = 0;
  double coll_bytes = 0;
  long blocking_colls = 0;
};

PrecondWork precond_work(perf::Tracer& tr) {
  PrecondWork w;
  const std::string leaf = "precond";
  for (const auto& name : tr.phase_names()) {
    if (name.size() < leaf.size() ||
        name.compare(name.size() - leaf.size(), leaf.size(), leaf) != 0) {
      continue;
    }
    if (name.size() > leaf.size() &&
        name[name.size() - leaf.size() - 1] != '/') {
      continue;  // e.g. "...precond_setup" is not a precond leaf
    }
    const auto& ph = tr.phase(name);
    w.value_f64 += ph.total_value_bytes_f64();
    w.value_f32 += ph.total_value_bytes_f32();
    w.value_total += ph.total_value_bytes();
    for (const auto& rw : ph.rank) w.msg_bytes += rw.msg_bytes;
    w.coll_bytes += ph.coll_bytes;
    w.blocking_colls += ph.collectives;
  }
  return w;
}

struct RunOut {
  PrecondWork precond;
  double nli_modeled = 0;
  std::vector<int> prs_iters;  ///< per step
  std::vector<int> mom_iters;
};

RunOut run_variant(Precision p, double refine, int nranks, int steps,
                   const perf::MachineModel& model) {
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  par::Runtime rt(nranks);
  cfd::SimConfig cfg = cfd::SimConfig::optimized();
  cfg.precond_precision = p;
  cfd::Simulation sim(sys, cfg, rt);
  RunOut out;
  rt.tracer().reset();
  for (int s = 0; s < steps; ++s) {
    sim.step();
    out.prs_iters.push_back(sim.continuity_stats().gmres_iterations);
    out.mom_iters.push_back(sim.momentum_stats().gmres_iterations);
  }
  out.precond = precond_work(rt.tracer());
  out.nli_modeled = rt.tracer().phase("nli").modeled_time(model);
  return out;
}

void print_iters(const char* key, const std::vector<int>& v) {
  std::printf("  \"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", v[i]);
  }
  std::printf("],\n");
}

int run() {
  const double refine = bench::env_refine(0.4);
  const int steps = bench::env_steps(2);
  int nranks = 8;
  if (const char* s = std::getenv("EXW_BENCH_RANKS")) nranks = std::atoi(s);
  const double min_stream = env_double("EXW_BENCH_MIN_STREAM_REDUCTION", 1.8);
  const double min_payload =
      env_double("EXW_BENCH_MIN_PAYLOAD_REDUCTION", 1.5);

  const auto model = perf::MachineModel::summit_gpu();
  const auto full = run_variant(Precision::kF64, refine, nranks, steps, model);
  const auto mixed =
      run_variant(Precision::kF32, refine, nranks, steps, model);

  const double stream_reduction =
      full.precond.value_total / std::max(mixed.precond.value_total, 1.0);
  const double payload_full = full.precond.msg_bytes + full.precond.coll_bytes;
  const double payload_mixed =
      mixed.precond.msg_bytes + mixed.precond.coll_bytes;
  const double payload_reduction = payload_full / std::max(payload_mixed, 1.0);

  // "+1 iteration per solve": the per-step counters aggregate
  // picard_iters pressure solves and 3 * picard_iters fused momentum
  // lane-solves, so the per-step allowance is the solve count.
  const int picard = cfd::SimConfig::optimized().picard_iters;
  bool iters_ok = true;
  for (std::size_t s = 0; s < full.prs_iters.size(); ++s) {
    if (mixed.prs_iters[s] > full.prs_iters[s] + picard ||
        mixed.mom_iters[s] > full.mom_iters[s] + 3 * picard) {
      iters_ok = false;
    }
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"mixed_precision\",\n");
  std::printf("  \"refine\": %.2f, \"ranks\": %d, \"steps\": %d,\n", refine,
              nranks, steps);
  std::printf("  \"f64\": {\"precond_value_bytes\": %.3e, \"value_f32\": "
              "%.3e, \"msg_bytes\": %.3e, \"coll_bytes\": %.3e, "
              "\"blocking_collectives\": %ld, \"nli_modeled_s\": %.4f},\n",
              full.precond.value_total, full.precond.value_f32,
              full.precond.msg_bytes, full.precond.coll_bytes,
              full.precond.blocking_colls, full.nli_modeled);
  std::printf("  \"mixed\": {\"precond_value_bytes\": %.3e, \"value_f32\": "
              "%.3e, \"msg_bytes\": %.3e, \"coll_bytes\": %.3e, "
              "\"blocking_collectives\": %ld, \"nli_modeled_s\": %.4f},\n",
              mixed.precond.value_total, mixed.precond.value_f32,
              mixed.precond.msg_bytes, mixed.precond.coll_bytes,
              mixed.precond.blocking_colls, mixed.nli_modeled);
  std::printf("  \"stream_reduction\": %.3f, \"payload_reduction\": %.3f,\n",
              stream_reduction, payload_reduction);
  print_iters("pressure_iters_f64", full.prs_iters);
  print_iters("pressure_iters_mixed", mixed.prs_iters);
  print_iters("momentum_iters_f64", full.mom_iters);
  print_iters("momentum_iters_mixed", mixed.mom_iters);
  std::printf("  \"iterations_within_one\": %s\n", iters_ok ? "true"
                                                            : "false");
  std::printf("}\n");

  if (min_stream > 0 && stream_reduction < min_stream) {
    std::fprintf(stderr, "FAIL: preconditioner value-stream reduction %.3f "
                         "< required %.3f\n", stream_reduction, min_stream);
    return 1;
  }
  if (min_payload > 0 && payload_reduction < min_payload) {
    std::fprintf(stderr, "FAIL: halo+collective payload reduction %.3f < "
                         "required %.3f\n", payload_reduction, min_payload);
    return 1;
  }
  if (!iters_ok) {
    std::fprintf(stderr, "FAIL: FP32 preconditioner cost more than one "
                         "extra GMRES iteration\n");
    return 1;
  }
  if (mixed.precond.value_f32 <= 0) {
    std::fprintf(stderr, "FAIL: mixed run recorded no FP32 value traffic "
                         "in the preconditioner\n");
    return 1;
  }
  if (full.precond.value_f32 != 0) {
    std::fprintf(stderr, "FAIL: FP64 run recorded FP32 value traffic\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace exw

int main() { return exw::run(); }
