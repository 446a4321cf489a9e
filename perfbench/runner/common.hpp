#pragma once
// Shared pieces of the benchmark runner: workload table, clock, spans,
// per-step counts and the small JSON writer (see perfbench/README.md).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cfd/config.hpp"
#include "cfd/simulation.hpp"
#include "mesh/generators.hpp"
#include "par/runtime.hpp"

namespace perfbench {

/// One benchmark workload: a turbine case, its size, rank count and
/// configuration. `smoke_*` give the reduced size the self-tests run.
struct Workload {
  const char* name;
  exw::mesh::TurbineCase kase;
  double refine;
  int nranks;
  bool baseline;  ///< SimConfig::baseline() instead of optimized()
  /// Warm-step wall time on a 4-vCPU host; --seconds / nominal_step_s
  /// warm steps make a run.
  double nominal_step_s;
  double smoke_refine;
  int smoke_ranks;
};

/// The step whose diagnostics are compared with the recorded reference
/// (cold step 1 plus two warm steps). Every run reaches it.
inline constexpr int kReferenceStep = 3;
/// Warm steps (steps 2..kReferenceStep) whose counts and modeled NLI time
/// are reported; fixed so these repeat exactly whatever the run length.
inline constexpr int kCountedSteps = kReferenceStep - 1;

const Workload* find_workload(const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  int max_iters = 0;   ///< > 0 overrides every GMRES budget (forced failure)
  int setup_reps = 5;  ///< set-ups per run; setup_s is their median
  std::string trace_out;
};

/// What a run builds: case, size, ranks and the seeded configuration.
struct CaseSpec {
  const Workload* workload = nullptr;
  exw::mesh::TurbineCase kase = exw::mesh::TurbineCase::kSingle;
  double refine = 1;
  int nranks = 1;
  exw::cfd::SimConfig cfg;
};

/// Seed -> inputs. Seeds fall into 11 classes (seed mod 11); class k moves
/// the inflow speed by -5..+5 % of 8 m/s and sets AmgConfig::pmis_seed to
/// 42 + k. Class 0 (seed 0) reproduces the SimConfig defaults.
CaseSpec make_case_spec(const Workload& w, const Options& opts);
int seed_class(std::uint64_t seed);

double now_s();
double median(std::vector<double> v);
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();
/// Voluntary context switches of this process (all threads) so far.
long voluntary_ctx_switches();

/// Diagnostics the correctness gate reads after each step.
struct Diagnostics {
  double velocity_rms = 0;
  double divergence_rms = 0;
  double scalar_mean = 0;
};
Diagnostics diagnostics(const exw::cfd::Simulation& sim);

/// Step health: non-finite diagnostics, or an equation whose iterations
/// reached its whole budget (solves x max_iters), fail the step.
struct Health {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void check_step(const exw::cfd::Simulation& sim, const Diagnostics& d);
  void check_solve(const char* what, bool converged);
};

/// Per-warm-step counts from EquationStats and the tracer ledger, summed
/// over counted steps; per_step() divides by their number.
struct StepCounts {
  double pressure_iters = 0, momentum_iters = 0, scalar_iters = 0;
  double amg_rebuilds = 0, amg_refreshes = 0;
  double sgs2_rebuilds = 0, sgs2_rebinds = 0;
  double kernels = 0, messages = 0, collectives = 0, bytes = 0;
  double nli_model_s = 0;
  int steps = 0;

  /// Add the step that just ran (tracer reset right before it).
  void add(const exw::cfd::Simulation& sim, const exw::perf::Tracer& tracer);
  StepCounts per_step() const;
};

/// Spans: name, start, end and parent, kept in memory and written at exit.
class SpanLog {
 public:
  int begin(const std::string& name, int parent = -1);
  void end(int id);
  double duration(int id) const { return spans_[id].end - spans_[id].start; }
  bool write(const std::string& path, const std::string& extra_json) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer timings of the traced run (layers.cpp).
struct LayerResult {
  std::vector<Metric> metrics;
  std::vector<std::string> bypassed;
  /// Direct solves of the layer timings: name and SolveStats::converged.
  std::vector<std::pair<std::string, bool>> solves;
};
/// Time every layer's public calls on the workload's own mesh, partition,
/// ranks and configuration; `per_step` and `step_s` (untraced warm step)
/// feed the layer accounting (cfd.unexplained_share).
LayerResult time_layers(const CaseSpec& spec, SpanLog& spans, int parent,
                        const StepCounts& per_step, double step_s);

/// Minimal JSON helpers (numbers keep all their digits).
std::string json_num(double v);
std::string json_str(const std::string& s);

}  // namespace perfbench
