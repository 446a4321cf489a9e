// Benchmark runner: runs one turbine workload through cfd::Simulation and
// prints its metrics as one JSON line. perfbench/run.py builds it, fixes
// the pool size, checks the recorded reference and prints the result.
//
//   perfbench_runner --workload turbine1 --seed 0 --seconds 10 --trace 0
//
// --trace 0: end-to-end metrics (set-up, warm step, modeled NLI, peak RSS).
// --trace 1: the per-layer metrics of layers.cpp, with spans around every
//            timed call, Simulation construction and each step().

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "perf/machine_model.hpp"

namespace perfbench {

namespace {

using exw::cfd::SimConfig;
using exw::mesh::TurbineCase;

constexpr Workload kWorkloads[] = {
    {"turbine1", TurbineCase::kSingle, 0.5, 24, false, 0.95, 0.3, 4},
    {"turbine1-baseline", TurbineCase::kSingle, 0.5, 24, true, 1.05, 0.3, 4},
    {"turbine2-strong", TurbineCase::kDual, 0.3, 96, false, 2.8, 0.25, 8},
};

/// Upper bound on warm steps, whatever --seconds asks for.
constexpr int kMaxWarmSteps = 200;

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int seed_class(std::uint64_t seed) { return static_cast<int>(seed % 11); }

CaseSpec make_case_spec(const Workload& w, const Options& opts) {
  CaseSpec s;
  s.workload = &w;
  s.kase = w.kase;
  s.refine = opts.smoke ? w.smoke_refine : w.refine;
  s.nranks = opts.smoke ? w.smoke_ranks : w.nranks;
  s.cfg = w.baseline ? SimConfig::baseline() : SimConfig::optimized();
  s.cfg.picard_iters = 4;
  const int k = seed_class(opts.seed);
  const int pct = k <= 5 ? k : k - 11;  // -5 .. +5
  s.cfg.inflow_speed = 8.0 * (1.0 + 0.01 * pct);
  s.cfg.pressure_amg.pmis_seed = 42 + static_cast<std::uint64_t>(k);
  if (opts.max_iters > 0) {
    s.cfg.pressure_gmres.max_iters = opts.max_iters;
    s.cfg.momentum_gmres.max_iters = opts.max_iters;
  }
  return s;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

long voluntary_ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw;
}

Diagnostics diagnostics(const exw::cfd::Simulation& sim) {
  return {sim.velocity_rms(), sim.divergence_rms(), sim.scalar_mean()};
}

void Health::check_step(const exw::cfd::Simulation& sim, const Diagnostics& d) {
  attempted += 1;
  const std::string at = "step " + std::to_string(sim.step_count()) + ": ";
  bool ok = true;
  if (!std::isfinite(d.velocity_rms) || !std::isfinite(d.divergence_rms) ||
      !std::isfinite(d.scalar_mean)) {
    failures.push_back(at + "non-finite diagnostics");
    ok = false;
  }
  const SimConfig& cfg = sim.config();
  const struct {
    const char* name;
    const exw::cfd::EquationStats& st;
    int max_iters;
  } eqs[] = {
      {"momentum", sim.momentum_stats(), cfg.momentum_gmres.max_iters},
      {"continuity", sim.continuity_stats(), cfg.pressure_gmres.max_iters},
      {"scalar", sim.scalar_stats(), cfg.momentum_gmres.max_iters},
  };
  for (const auto& e : eqs) {
    if (e.st.solves > 0 && e.st.gmres_iterations >= e.st.solves * e.max_iters) {
      failures.push_back(at + e.name + " used its whole iteration budget (" +
                         std::to_string(e.st.gmres_iterations) + ")");
      ok = false;
    }
  }
  if (!ok) failed += 1;
}

void Health::check_solve(const char* what, bool converged) {
  attempted += 1;
  if (!converged) {
    failed += 1;
    failures.push_back(std::string(what) + " did not converge");
  }
}

void StepCounts::add(const exw::cfd::Simulation& sim,
                     const exw::perf::Tracer& tracer) {
  const auto& m = sim.momentum_stats();
  const auto& p = sim.continuity_stats();
  const auto& s = sim.scalar_stats();
  pressure_iters += p.gmres_iterations;
  momentum_iters += m.gmres_iterations;
  scalar_iters += s.gmres_iterations;
  amg_rebuilds += p.amg_rebuilds;
  amg_refreshes += p.amg_refreshes;
  sgs2_rebuilds += m.smoother_rebuilds + s.smoother_rebuilds;
  sgs2_rebinds += m.smoother_rebinds + s.smoother_rebinds;
  const exw::perf::PhaseStats& all = tracer.phase("");
  kernels += static_cast<double>(all.total_kernels());
  messages += static_cast<double>(all.messages);
  collectives += static_cast<double>(all.collectives + all.overlapped_collectives);
  bytes += all.total_bytes();
  nli_model_s += tracer.phase("nli").modeled_time(
      exw::perf::MachineModel::summit_gpu());
  steps += 1;
}

StepCounts StepCounts::per_step() const {
  StepCounts r = *this;
  const double n = steps > 0 ? steps : 1;
  for (double* f : {&r.pressure_iters, &r.momentum_iters, &r.scalar_iters,
                    &r.amg_rebuilds, &r.amg_refreshes, &r.sgs2_rebuilds,
                    &r.sgs2_rebinds, &r.kernels, &r.messages, &r.collectives,
                    &r.bytes, &r.nli_model_s}) {
    *f /= n;
  }
  r.steps = 1;
  return r;
}

int SpanLog::begin(const std::string& name, int parent) {
  spans_.push_back({name, now_s(), 0.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }

bool SpanLog::write(const std::string& path,
                    const std::string& extra_json) const {
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
        << ", \"name\": " << json_str(s.name)
        << ", \"start_s\": " << json_num(s.start - t0)
        << ", \"end_s\": " << json_num(s.end - t0)
        << ", \"parent\": " << s.parent << "}";
  }
  out << "\n], " << extra_json << "}\n";
  return static_cast<bool>(out);
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

/// One simulation: the overset system it borrows, its runtime, and itself.
struct SimInstance {
  std::unique_ptr<exw::mesh::OversetSystem> system;
  std::unique_ptr<exw::par::Runtime> rt;
  std::unique_ptr<exw::cfd::Simulation> sim;

  /// Destroy borrowers before what they borrow.
  void release() {
    sim.reset();
    rt.reset();
    system.reset();
  }
};

struct RunResult {
  Health health;
  std::vector<Metric> metrics;
  std::vector<std::string> bypassed;
  Diagnostics reference{};
  Diagnostics final_diag{};
  bool have_reference = false;
  long steps_timed = 0;
  StepCounts per_step;
};

/// Run one step, check it, and note the reference diagnostics.
void after_step(const SimInstance& s, RunResult& res) {
  const Diagnostics d = diagnostics(*s.sim);
  res.health.check_step(*s.sim, d);
  res.final_diag = d;
  if (s.sim->step_count() == kReferenceStep) {
    res.reference = d;
    res.have_reference = true;
  }
}

/// Warm steps a run of `seconds` measures: the workload's nominal step
/// time sets the count, so every run of one length and seed does the same
/// work (step cost drifts with the step index as the rotor turns).
int warm_step_count(const CaseSpec& spec, const Options& opts, double seconds) {
  if (opts.smoke) return kCountedSteps + 1;
  const int n = static_cast<int>(std::ceil(seconds / spec.workload->nominal_step_s));
  return std::clamp(n, kCountedSteps, kMaxWarmSteps);
}

/// Run `n` warm steps through `on_step(i)`, checking each; the first
/// kCountedSteps feed the counts.
template <typename OnStep>
void warm_steps(SimInstance& s, RunResult& res, int n, StepCounts& counts,
                OnStep&& on_step) {
  for (int i = 0; i < n; ++i) {
    s.rt->tracer().reset();
    on_step(i);
    if (counts.steps < kCountedSteps) counts.add(*s.sim, s.rt->tracer());
    after_step(s, res);
  }
}

RunResult run_untraced(const CaseSpec& spec, const Options& opts) {
  RunResult res;
  SimInstance s;
  std::vector<double> setup;
  auto set_up = [&] {
    s.release();  // free the previous set-up first
    const double t0 = now_s();
    s.system = std::make_unique<exw::mesh::OversetSystem>(
        exw::mesh::make_turbine_case(spec.kase, spec.refine));
    s.rt = std::make_unique<exw::par::Runtime>(spec.nranks);
    s.sim = std::make_unique<exw::cfd::Simulation>(*s.system, spec.cfg, *s.rt);
    s.rt->tracer().reset();
    s.sim->step();
    setup.push_back(now_s() - t0);
    after_step(s, res);
  };
  // Half the set-ups run before the warm steps and half after, so their
  // median samples the host over the whole run, as step_s does.
  const int reps = std::max(1, opts.setup_reps);
  const int before = std::max(1, reps / 2);
  for (int rep = 0; rep < before; ++rep) set_up();

  StepCounts counts;
  std::vector<double> steps;
  warm_steps(s, res, warm_step_count(spec, opts, opts.seconds), counts, [&](int) {
    const double t0 = now_s();
    s.sim->step();
    steps.push_back(now_s() - t0);
  });
  const Diagnostics last_warm = res.final_diag;
  for (int rep = before; rep < reps; ++rep) set_up();
  res.final_diag = last_warm;
  res.steps_timed = static_cast<long>(steps.size());
  res.per_step = counts.per_step();
  res.metrics = {
      {"step_s", median(steps), "s"},
      {"setup_s", median(setup), "s"},
      {"nli_model_s", res.per_step.nli_model_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  std::printf("setup_s reps (%d before, %d after the warm steps):", before,
              reps - before);
  for (double t : setup) std::printf(" %.4f", t);
  std::printf("\nstep_s over %zu warm steps: min %.4f median %.4f max %.4f\n",
              steps.size(), *std::min_element(steps.begin(), steps.end()),
              median(steps), *std::max_element(steps.begin(), steps.end()));
  const StepCounts& c = res.per_step;
  std::printf("per warm step: iterations pressure %g momentum %g scalar %g, "
              "AMG rebuilds %g refreshes %g\n",
              c.pressure_iters, c.momentum_iters, c.scalar_iters,
              c.amg_rebuilds, c.amg_refreshes);
  return res;
}

/// Tracer charge and phase push/pop cost with the simulation's own
/// 4-deep phase stack (nli/continuity/solve/precond) and phase registry.
void time_tracer(exw::perf::Tracer& tracer, SpanLog& spans, int parent,
                 std::vector<Metric>& out) {
  using exw::perf::PhaseScope;
  constexpr int kCharges = 200000;
  constexpr int kPhases = 20000;
  std::vector<double> charge, phase;
  for (int rep = 0; rep < 5; ++rep) {
    PhaseScope a(tracer, "nli");
    PhaseScope b(tracer, "continuity");
    PhaseScope c(tracer, "solve");
    {
      const int id = spans.begin("perf.phase", parent);
      for (int i = 0; i < kPhases; ++i) {
        tracer.push_phase("precond");
        tracer.pop_phase();
      }
      spans.end(id);
      phase.push_back(spans.duration(id) / kPhases * 1e9);
    }
    PhaseScope d(tracer, "precond");
    const int id = spans.begin("perf.charge", parent);
    for (int i = 0; i < kCharges; ++i) {
      tracer.kernel(exw::RankId{0}, 1.0, 8.0);
    }
    spans.end(id);
    charge.push_back(spans.duration(id) / kCharges * 1e9);
  }
  tracer.reset();
  out.push_back({"perf.charge_ns", median(charge), "ns"});
  out.push_back({"perf.phase_ns", median(phase), "ns"});
}

RunResult run_traced(const CaseSpec& spec, const Options& opts) {
  RunResult res;
  SpanLog spans;
  const int run = spans.begin("run");
  SimInstance s;
  s.system = std::make_unique<exw::mesh::OversetSystem>(
      exw::mesh::make_turbine_case(spec.kase, spec.refine));
  s.rt = std::make_unique<exw::par::Runtime>(spec.nranks);
  {
    const int id = spans.begin("cfd.Simulation", run);
    s.sim = std::make_unique<exw::cfd::Simulation>(*s.system, spec.cfg, *s.rt);
    spans.end(id);
  }
  s.rt->tracer().reset();
  {
    const int id = spans.begin("cfd.Simulation.step", run);
    s.sim->step();
    spans.end(id);
  }
  after_step(s, res);

  // Warm steps alternate with and without a span around step(); the
  // difference of the two medians is the tracing overhead.
  StepCounts counts;
  std::vector<double> traced, untraced;
  const long csw0 = voluntary_ctx_switches();
  const int n = std::max(2 * kCountedSteps,
                         warm_step_count(spec, opts, 0.4 * opts.seconds));
  warm_steps(s, res, n, counts, [&](int i) {
    if (i % 2 == 0) {
      const int id = spans.begin("cfd.Simulation.step", run);
      s.sim->step();
      spans.end(id);
      traced.push_back(spans.duration(id));
    } else {
      const double t0 = now_s();
      s.sim->step();
      untraced.push_back(now_s() - t0);
    }
  });
  const double ctx = static_cast<double>(voluntary_ctx_switches() - csw0) / n;
  res.steps_timed = n;
  res.per_step = counts.per_step();
  const double step_s = median(untraced);

  std::vector<Metric>& m = res.metrics;
  const StepCounts& c = res.per_step;
  m.push_back({"trace.step_s", median(traced), "s"});
  m.push_back({"trace.overhead_s", median(traced) - step_s, "s"});
  m.push_back({"par.ctx_switches", ctx, "count"});
  m.push_back({"cfd.pressure_iters", c.pressure_iters, "count"});
  m.push_back({"cfd.momentum_iters", c.momentum_iters, "count"});
  m.push_back({"cfd.scalar_iters", c.scalar_iters, "count"});
  m.push_back({"cfd.amg_rebuilds", c.amg_rebuilds, "count"});
  m.push_back({"cfd.amg_refreshes", c.amg_refreshes, "count"});
  m.push_back({"cfd.sgs2_rebuilds", c.sgs2_rebuilds, "count"});
  m.push_back({"cfd.sgs2_rebinds", c.sgs2_rebinds, "count"});
  m.push_back({"cfd.kernels", c.kernels, "count"});
  m.push_back({"cfd.messages", c.messages, "count"});
  m.push_back({"cfd.collectives", c.collectives, "count"});
  m.push_back({"cfd.bytes", c.bytes, "B"});
  m.push_back({"cfd.nli_model_s", c.nli_model_s, "s"});
  time_tracer(s.rt->tracer(), spans, run, m);
  s.release();

  LayerResult layers = time_layers(spec, spans, run, c, step_s);
  m.insert(m.end(), layers.metrics.begin(), layers.metrics.end());
  res.bypassed = layers.bypassed;
  for (const auto& [name, converged] : layers.solves) {
    res.health.check_solve(name.c_str(), converged);
  }
  spans.end(run);

  std::ostringstream extra;
  extra << "\"workload\": " << json_str(spec.workload->name)
        << ", \"seed\": " << opts.seed << ", \"counts_per_step\": {";
  bool first = true;
  for (const Metric& x : m) {
    if (x.name.rfind("cfd.", 0) != 0) continue;
    extra << (first ? "" : ", ") << json_str(x.name) << ": " << json_num(x.value);
    first = false;
  }
  extra << "}";
  if (!opts.trace_out.empty() && !spans.write(opts.trace_out, extra.str())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opts.trace_out.c_str());
  }
  return res;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--max-iters") o.max_iters = std::atoi(v);
    else if (a == "--setup-reps") o.setup_reps = std::atoi(v);
    else if (a == "--trace-out") o.trace_out = v;
    else return false;
  }
  return !o.workload.empty();
}

void print_result(const CaseSpec& spec, const Options& opts,
                  const RunResult& r) {
  std::ostringstream j;
  j << "{\"workload\": " << json_str(spec.workload->name)
    << ", \"seed\": " << opts.seed << ", \"seed_class\": " << seed_class(opts.seed)
    << ", \"smoke\": " << (opts.smoke ? "true" : "false")
    << ", \"trace\": " << (opts.trace ? 1 : 0)
    << ", \"nranks\": " << spec.nranks
    << ", \"inflow_speed\": " << json_num(spec.cfg.inflow_speed)
    << ", \"pool_threads\": " << exw::par::ThreadPool::instance().num_threads()
    << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
    << ", \"checks\": {\"contract\": " << EXW_CONTRACT_CHECKS_ENABLED
    << ", \"purity\": " << EXW_PURITY_CHECKS_ENABLED
    << ", \"comm_audit\": " << EXW_COMM_AUDIT_ENABLED
    << ", \"index\": " << EXW_INDEX_CHECKS_ENABLED << "}"
    << ", \"steps_timed\": " << r.steps_timed
    << ", \"attempted\": " << r.health.attempted
    << ", \"failed\": " << r.health.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < r.health.failures.size(); ++i) {
    j << (i ? ", " : "") << json_str(r.health.failures[i]);
  }
  auto diag = [&](const Diagnostics& d) {
    j << "[" << json_num(d.velocity_rms) << ", " << json_num(d.divergence_rms)
      << ", " << json_num(d.scalar_mean) << "]";
  };
  j << "], \"reference_step\": " << kReferenceStep << ", \"reference\": ";
  if (r.have_reference) diag(r.reference); else j << "null";
  j << ", \"final\": ";
  diag(r.final_diag);
  j << ", \"bypassed\": [";
  for (std::size_t i = 0; i < r.bypassed.size(); ++i) {
    j << (i ? ", " : "") << json_str(r.bypassed[i]);
  }
  j << "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    j << (i ? ", " : "") << json_str(m.name) << ": {\"value\": "
      << json_num(m.value) << ", \"unit\": " << json_str(m.unit) << "}";
  }
  j << "}}";
  std::printf("%s\n", j.str().c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  if (!parse(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--max-iters N] "
                 "[--setup-reps N] [--trace-out PATH]\n");
    return 2;
  }
  const Workload* w = find_workload(opts.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  const CaseSpec spec = make_case_spec(*w, opts);
  std::printf("workload %s: refine %.2f, %d ranks, %s config, seed %llu "
              "(class %d, inflow %.2f m/s)\n",
              w->name, spec.refine, spec.nranks,
              w->baseline ? "baseline" : "optimized",
              static_cast<unsigned long long>(opts.seed), seed_class(opts.seed),
              spec.cfg.inflow_speed);
  try {
    const RunResult r = opts.trace ? run_traced(spec, opts)
                                   : run_untraced(spec, opts);
    for (const auto& f : r.health.failures) std::printf("FAILED %s\n", f.c_str());
    print_result(spec, opts, r);
    return r.health.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
