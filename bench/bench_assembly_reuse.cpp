// Assembly-plan reuse bench: cold stage-3 global assembly vs warm
// in-place value refill through a frozen AssemblyPlan (hypre's
// SetValues2/AddToValues2 fast path, paper §3.3).
//
// The bench fills an edge-Laplacian on a box mesh, then reassembles it
// EXW_BENCH_REFILLS times two ways:
//   cold  — full Algorithm 1/2 every iteration (sort + reduce + split),
//   warm  — AssemblyPlan built once, every iteration a pure value
//           pipeline (pack, exchange, permuted segmented reduce,
//           scatter) with no sort, no searches, no steady-state
//           allocation.
// It prints one JSON object with wall-clock and modeled (FLOPs/bytes)
// costs and exits nonzero if the warm path charges any kernel beyond one
// copy kernel per sending rank and three value passes per rank (a
// modeled sort, say) or allocates a growing amount of heap per refill.
//
// Knobs: EXW_BENCH_N (box cells/side), EXW_BENCH_RANKS, EXW_BENCH_REFILLS,
// EXW_BENCH_MIN_SPEEDUP (wall-clock floor asserted; 0 disables, the CI
// smoke run uses 0 because timing at tiny sizes is noise-dominated).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "assembly/global.hpp"
#include "assembly/graph.hpp"
#include "assembly/plan.hpp"
#include "bench_util.hpp"
#include "mesh/meshdb.hpp"
#include "perf/tracer.hpp"

// Heap probe: deltas of bench::alloc_count() (the purity sanitizer's
// process-wide interposition — see perf/purity.hpp) bracket exactly the
// stage-3 value pipeline so the steady-state warm refill can be checked
// for allocation growth.

namespace exw {
namespace {

struct BoxCase {
  mesh::MeshDB db;
  std::vector<std::uint8_t> dirichlet;
};

BoxCase make_box(GlobalIndex n) {
  BoxCase c;
  mesh::StructuredBlockBuilder block(n, n, n);
  block.emit(c.db, [&](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
    return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                static_cast<Real>(k.value())};
  });
  c.db.coords = c.db.ref_coords;
  c.db.compute_dual_quantities();
  c.dirichlet.assign(static_cast<std::size_t>(c.db.num_nodes()), 0);
  for (GlobalIndex k{0}; k <= n; ++k) {
    for (GlobalIndex j{0}; j <= n; ++j) {
      for (GlobalIndex i{0}; i <= n; ++i) {
        if (i == GlobalIndex{0} || i == n || j == GlobalIndex{0} || j == n ||
            k == GlobalIndex{0} || k == n) {
          c.dirichlet[static_cast<std::size_t>(block.node_id(i, j, k))] = 1;
        }
      }
    }
  }
  return c;
}

/// Refill the graph's values on the frozen pattern, scaled by `s` so
/// every iteration writes genuinely different numbers.
void fill_values(assembly::EquationGraph& graph, const BoxCase& c, Real s) {
  graph.zero_values();
  for (std::size_t e = 0; e < c.db.edges.size(); ++e) {
    const Real g = c.db.edges[e].coeff * s;
    graph.add_edge(e, {g, -g, -g, g}, {0.1 * s, -0.2 * s}, false);
  }
  for (GlobalIndex node{0}; node < c.db.num_nodes(); ++node) {
    graph.add_node(node,
                   c.dirichlet[static_cast<std::size_t>(node)] ? 1.0 : 0.0,
                   0.5 * s, false);
  }
}

long env_long(const char* name, long fallback) {
  if (const char* s = std::getenv(name)) return std::atol(s);
  return fallback;
}

double env_double(const char* name, double fallback) {
  if (const char* s = std::getenv(name)) return std::atof(s);
  return fallback;
}

int run() {
  const auto n = GlobalIndex{env_long("EXW_BENCH_N", 20)};
  const int nranks = static_cast<int>(env_long("EXW_BENCH_RANKS", 8));
  const int refills = static_cast<int>(env_long("EXW_BENCH_REFILLS", 20));
  const double min_speedup = env_double("EXW_BENCH_MIN_SPEEDUP", 2.0);

  auto box = make_box(n);
  par::Runtime rt(nranks);
  const auto layout =
      assembly::make_layout(box.db, nranks, assembly::PartitionMethod::kGraph);
  assembly::EquationGraph graph(box.db, layout, box.dirichlet);
  const auto& rows = layout.numbering.rows;
  const auto algo = assembly::GlobalAssemblyAlgo::kSortReduce;

  // --- cold: full Algorithm 1/2 every refill -----------------------------
  rt.tracer().reset();
  rt.tracer().push_phase("cold");
  const auto c0 = std::chrono::steady_clock::now();
  linalg::ParCsr cold_a;
  linalg::ParVector cold_b;
  for (int it = 0; it < refills; ++it) {
    fill_values(graph, box, 1.0 + 0.37 * static_cast<Real>(it));
    const auto views = assembly::system_views(graph);
    const auto span = std::span<const assembly::SystemView>(views);
    cold_a = assembly::assemble_matrix(rt, rows, rows, span, algo);
    cold_b = assembly::assemble_vector(rt, rows, span, algo);
  }
  const auto c1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  // --- warm: plan built once, then value-only refills --------------------
  rt.tracer().push_phase("plan_build");
  const auto b0 = std::chrono::steady_clock::now();
  const auto build_views = assembly::system_views(graph);
  const auto plan = assembly::AssemblyPlan::build(
      rt, rows, rows, std::span<const assembly::SystemView>(build_views));
  auto warm_a = plan.create_matrix(rt);
  auto warm_b = plan.create_vector(rt);
  const auto b1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  rt.tracer().push_phase("warm");
  std::vector<std::size_t> allocs_per_refill;
  const auto w0 = std::chrono::steady_clock::now();
  for (int it = 0; it < refills; ++it) {
    fill_values(graph, box, 1.0 + 0.37 * static_cast<Real>(it));
    const auto views = assembly::system_views(graph);
    const auto span = std::span<const assembly::SystemView>(views);
    const auto a0 = bench::alloc_count();
    plan.refill_matrix(rt, span, warm_a);
    plan.refill_vector(rt, span, warm_b);
    allocs_per_refill.push_back(
        static_cast<std::size_t>(bench::alloc_count() - a0));
  }
  const auto w1 = std::chrono::steady_clock::now();
  rt.tracer().pop_phase();

  // Self-check: the last warm refill must equal the last cold assembly
  // bitwise (same values were filled).
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& wd = warm_a.block(r).diag.vals();
    const auto& cd = cold_a.block(r).diag.vals();
    const auto& wo = warm_a.block(r).offd.vals();
    const auto& co = cold_a.block(r).offd.vals();
    if (wd.size() != cd.size() || wo.size() != co.size() ||
        std::memcmp(wd.data(), cd.data(), wd.size() * sizeof(Real)) != 0 ||
        std::memcmp(wo.data(), co.data(), wo.size() * sizeof(Real)) != 0 ||
        std::memcmp(warm_b.local(r).data(), cold_b.local(r).data(),
                    warm_b.local(r).size() * sizeof(Real)) != 0) {
      std::fprintf(stderr, "FAIL: warm refill differs from cold assembly "
                           "on rank %d\n", r.value());
      return 1;
    }
  }

  const auto& cold_ph = rt.tracer().phase("cold");
  const auto& warm_ph = rt.tracer().phase("warm");
  const auto& build_ph = rt.tracer().phase("plan_build");
  const auto model = perf::MachineModel::summit_gpu();
  const double cold_wall = std::chrono::duration<double>(c1 - c0).count();
  const double warm_wall = std::chrono::duration<double>(w1 - w0).count();
  const double build_wall = std::chrono::duration<double>(b1 - b0).count();
  const double wall_speedup = cold_wall / std::max(warm_wall, 1e-12);
  const double modeled_speedup = cold_ph.modeled_time(model) /
                                 std::max(warm_ph.modeled_time(model), 1e-12);

  // Exact warm charge accounting (assembly/plan.cpp + *_from_plan): per
  // refill, a rank that sends matrix values charges one copy kernel for
  // all its slices, and so does a rank that sends RHS values; each rank
  // charges exactly 3 fixed kernels (stacked stream, matrix scatter, RHS
  // scatter). A modeled sort would add 8 kernels (assembly/charges.hpp),
  // so any excess over this identity is sort work leaking into the warm
  // path.
  long senders = 0;
  for (const auto& v : build_views) {
    senders += (v.shared->nnz() > 0 ? 1 : 0) +
               (v.rhs_shared->size() > 0 ? 1 : 0);
  }
  const long warm_expected = (senders + 3L * nranks) * refills;
  const long warm_excess = warm_ph.total_kernels() - warm_expected;
  const bool warm_sorts = warm_excess != 0;

  // Steady state: from the second refill on, the per-refill allocation
  // count must be flat. It reads zero from the first refill on: build()
  // sizes the persistent channel buffers (assembly/plan.hpp).
  bool alloc_growth = false;
  for (std::size_t i = 2; i < allocs_per_refill.size(); ++i) {
    if (allocs_per_refill[i] > allocs_per_refill[1]) alloc_growth = true;
  }
  // Hard floor (purity builds only): the refill regions must have
  // recorded zero non-allowlisted allocations across every warm refill.
  const long long warm_disallowed =
      bench::disallowed_allocs("assembly-refill-matrix") +
      bench::disallowed_allocs("assembly-refill-vector");

  std::printf("{\n");
  std::printf("  \"bench\": \"assembly_reuse\",\n");
  std::printf("  \"nodes\": %lld, \"ranks\": %d, \"refills\": %d,\n",
              static_cast<long long>(box.db.num_nodes().value()), nranks,
              refills);
  std::printf("  \"cold\": {\"wall_s\": %.6f, \"modeled_s\": %.6f, "
              "\"kernels\": %ld, \"flops\": %.3e, \"bytes\": %.3e},\n",
              cold_wall, cold_ph.modeled_time(model), cold_ph.total_kernels(),
              cold_ph.total_flops(), cold_ph.total_bytes());
  std::printf("  \"plan_build\": {\"wall_s\": %.6f, \"modeled_s\": %.6f},\n",
              build_wall, build_ph.modeled_time(model));
  std::printf("  \"warm\": {\"wall_s\": %.6f, \"modeled_s\": %.6f, "
              "\"kernels\": %ld, \"flops\": %.3e, \"bytes\": %.3e},\n",
              warm_wall, warm_ph.modeled_time(model), warm_ph.total_kernels(),
              warm_ph.total_flops(), warm_ph.total_bytes());
  std::printf("  \"wall_speedup\": %.2f, \"modeled_speedup\": %.2f,\n",
              wall_speedup, modeled_speedup);
  std::printf("  \"warm_excess_kernels\": %ld,\n", warm_excess);
  std::printf("  \"warm_allocs_per_refill\": [");
  for (std::size_t i = 0; i < allocs_per_refill.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", allocs_per_refill[i]);
  }
  std::printf("],\n");
  std::printf("  \"alloc_steady_state\": %s,\n", alloc_growth ? "false"
                                                              : "true");
  std::printf("  \"warm_disallowed_allocs\": %lld\n", warm_disallowed);
  std::printf("}\n");

  if (warm_sorts) {
    std::fprintf(stderr, "FAIL: warm path charged %ld unexpected kernels "
                         "(%ld total, %ld expected) - modeled sort work "
                         "leaked into the refill\n",
                 warm_excess, warm_ph.total_kernels(), warm_expected);
    return 1;
  }
  if (alloc_growth) {
    std::fprintf(stderr, "FAIL: warm refill allocation count grows after "
                         "steady state\n");
    return 1;
  }
  if (perf::purity::enabled() && warm_disallowed != 0) {
    std::fprintf(stderr, "FAIL: warm refill made %lld non-allowlisted "
                         "allocations inside the assembly-refill purity "
                         "regions\n", warm_disallowed);
    return 1;
  }
  if (min_speedup > 0 && wall_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: warm wall-clock speedup %.2f < required "
                         "%.2f\n", wall_speedup, min_speedup);
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
