// Tests for the warm-path allocation-purity sanitizer (perf/purity.hpp):
// region/allow scoping and attribution, fatal-mode diagnostics naming the
// region and its open site, propagation through par::ThreadPool workers,
// and the zero-allocation steady-state contract of every warm cache
// (assembly-plan refill, AMG reuse check, smoother
// rebind, fused momentum kernels, AMG V-cycle, guess projection) and of
// a warm Picard iteration's physics and local assembly.
// Everything must also compile and pass — vacuously — when
// EXW_PURITY_CHECKS=OFF.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "amg/cache.hpp"
#include "amg/hierarchy.hpp"
#include "amg/smoothers.hpp"
#include "assembly/graph.hpp"
#include "assembly/layout.hpp"
#include "assembly/plan.hpp"
#include "cfd/simulation.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "linalg/value_check.hpp"
#include "mesh/generators.hpp"
#include "mesh/meshdb.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"
#include "par/thread_pool.hpp"
#include "perf/purity.hpp"
#include "perf/tracer.hpp"
#include "solver/gmres.hpp"
#include "solver/precond.hpp"
#include "solver/projection.hpp"
#include "test_util.hpp"

namespace exw {
namespace {

namespace purity = perf::purity;
using testutil::laplace3d;
using testutil::random_spd_ish;
using testutil::random_vector;

// --- API available in every configuration --------------------------------

TEST(Purity, EnabledMatchesBuildConfiguration) {
  EXPECT_EQ(purity::enabled(), EXW_PURITY_CHECKS_ENABLED != 0);
  // These must be callable (and benign) in both configurations.
  purity::reset();
  const auto t = purity::totals();
  const auto rep = purity::report();
  EXPECT_EQ(rep.violations, 0);
  EXPECT_FALSE(purity::summary().empty());
  if (!purity::enabled()) {
    EXPECT_EQ(t.allocs, 0u);
    EXPECT_EQ(purity::region("nope").entries, 0);
    EXPECT_TRUE(purity::region_names().empty());
  }
}

#if EXW_PURITY_CHECKS_ENABLED

// Inside the guard: with the sanitizer compiled out this helper has no
// callers, and Release + -Werror rejects unused file-static functions.
linalg::ParCsr distribute(par::Runtime& rt, const sparse::Csr& a) {
  const auto rows =
      par::RowPartition::even(GlobalIndex{a.nrows().value()}, rt.nranks());
  return linalg::ParCsr::from_serial(rt, a, rows, rows);
}

/// Restore fatal mode on scope exit so a failing test can't poison the
/// rest of the binary.
struct FatalModeGuard {
  bool prev = purity::fatal_mode();
  ~FatalModeGuard() { purity::set_fatal(prev); }
};

/// Volatile sink: storing a just-new'ed pointer here makes the allocation
/// observable, defeating -O2 allocation elision of new/delete pairs.
double* volatile g_sink = nullptr;

void observed_alloc(std::size_t n) {
  g_sink = new double[n];
  delete[] g_sink;
}

TEST(Purity, InterpositionCountsEveryHeapAllocation) {
  const auto before = purity::totals();
  auto p = std::make_unique<std::vector<double>>(1000);
  const auto after = purity::totals();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_GE(after.bytes - before.bytes, 1000 * sizeof(double));
  p.reset();
  EXPECT_GT(purity::totals().frees, before.frees);
}

TEST(Purity, NestedRegionsEachSeeTheAllocation) {
  purity::reset();
  FatalModeGuard guard;  // this test's allocations are deliberate
  purity::set_fatal(false);
  {
    EXW_PURITY_REGION("purity-test-outer");
    {
      EXW_PURITY_REGION("purity-test-inner");
      observed_alloc(32);
    }
  }
  const auto outer = purity::region("purity-test-outer");
  const auto inner = purity::region("purity-test-inner");
  EXPECT_EQ(outer.entries, 1);
  EXPECT_EQ(inner.entries, 1);
  EXPECT_EQ(outer.allocs, 1);
  EXPECT_EQ(inner.allocs, 1);
  EXPECT_EQ(outer.frees, 1);
  EXPECT_EQ(inner.frees, 1);
  EXPECT_GE(outer.bytes, 32 * sizeof(double));
}

TEST(Purity, AllowScopeReclassifiesButStillCounts) {
  purity::reset();
  FatalModeGuard guard;  // the out-of-allow allocation is deliberate
  purity::set_fatal(false);
  {
    EXW_PURITY_REGION("purity-test-allow");
    {
      EXW_PURITY_ALLOW("test payload staging");
      observed_alloc(1);
    }
    // Outside the allow scope again: this one is disallowed.
    observed_alloc(1);
  }
  const auto r = purity::region("purity-test-allow");
  EXPECT_EQ(r.allowed_allocs, 1);
  EXPECT_EQ(r.allocs, 1);
  EXPECT_EQ(r.frees, 2);
  const auto rep = purity::report();
  EXPECT_EQ(rep.allowed_allocs, 1);
  EXPECT_EQ(rep.disallowed_allocs, 1);
}

TEST(Purity, AllocationOutsideAnyRegionIsUntracked) {
  purity::reset();
  observed_alloc(1);
  EXPECT_EQ(purity::report().disallowed_allocs, 0);
  EXPECT_TRUE(purity::region_names().empty());
}

TEST(Purity, FatalModeThrowsNamingRegionAndOpenSite) {
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  std::string msg;
  try {
    EXW_PURITY_REGION("purity-test-fatal");
    observed_alloc(1);
    ADD_FAILURE() << "expected a purity violation, none was thrown";
  } catch (const Error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("purity contract violated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("purity-test-fatal"), std::string::npos) << msg;
  // The diagnostic points at the region's open site, i.e. this file.
  EXPECT_NE(msg.find("test_purity.cpp"), std::string::npos) << msg;
  EXPECT_GE(purity::report().violations, 1);
}

TEST(Purity, FatalModeSparesAllowedScopes) {
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  EXPECT_NO_THROW({
    EXW_PURITY_REGION("purity-test-fatal-allow");
    EXW_PURITY_ALLOW("test payload staging");
    observed_alloc(8);
  });
  EXPECT_EQ(purity::region("purity-test-fatal-allow").allocs, 0);
}

// --- propagation through the thread pool ---------------------------------

TEST(Purity, ThreadPoolWorkersInheritTheRegion) {
  purity::reset();
  FatalModeGuard guard;  // per-body allocations are deliberate
  purity::set_fatal(false);
  std::atomic<int> bodies{0};
  {
    EXW_PURITY_REGION("purity-test-pool");
    par::parallel_for(8, [&](int) {
      // One deliberate allocation per body, on whichever thread runs it.
      volatile auto* p = new std::vector<double>(64);
      delete p;
      bodies.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(bodies.load(), 8);
  const auto r = purity::region("purity-test-pool");
  // Worker frames merge into the same named region as the orchestrator's,
  // so all 8 bodies' allocations are attributed regardless of scheduling.
  EXPECT_GE(r.allocs, 8);
  EXPECT_GE(r.frees, 8);
}

TEST(Purity, ThreadPoolDispatchItselfDoesNotAllocate) {
  // FunctionRef replaced std::function in parallel_for precisely so warm
  // dispatch stays off the heap. Warm up once (contract registries and
  // pool state do cold first-touch work), then demand a clean region.
  std::atomic<int> sink{0};
  par::parallel_for(8, [&](int i) { sink.fetch_add(i); });
  purity::reset();
  {
    EXW_PURITY_REGION("purity-test-dispatch");
    par::parallel_for(8, [&](int i) { sink.fetch_add(i); });
  }
  EXPECT_EQ(purity::region("purity-test-dispatch").allocs, 0);
  EXPECT_EQ(purity::region("purity-test-dispatch").allowed_allocs, 0);
}

// --- the warm caches' steady-state zero-allocation contract --------------
//
// Pattern: run the warm path once to prime first-refill scratch, then
// reset the counters, run it again and demand zero disallowed
// allocations in its region (allowed collective staging may remain where
// a test does not also demand zero allowed allocations).

TEST(PurityWarmPath, AssemblyPlanRefillIsAllocationPure) {
  using namespace assembly;
  par::Runtime rt(4);
  // Small box mesh with a Dirichlet shell (mirrors test_assembly.cpp).
  mesh::MeshDB db;
  const GlobalIndex n{5};
  mesh::StructuredBlockBuilder block(n, n, n);
  block.emit(db, [&](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
    return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                static_cast<Real>(k.value())};
  });
  db.coords = db.ref_coords;
  db.compute_dual_quantities();
  std::vector<std::uint8_t> dirichlet(
      static_cast<std::size_t>(db.num_nodes()), 0);
  for (GlobalIndex k{0}; k <= n; ++k) {
    for (GlobalIndex j{0}; j <= n; ++j) {
      for (GlobalIndex i{0}; i <= n; ++i) {
        if (i == GlobalIndex{0} || i == n || j == GlobalIndex{0} || j == n ||
            k == GlobalIndex{0} || k == n) {
          dirichlet[static_cast<std::size_t>(block.node_id(i, j, k))] = 1;
        }
      }
    }
  }
  const MeshLayout layout =
      make_layout(db, rt.nranks(), PartitionMethod::kGraph);
  EquationGraph graph(db, layout, dirichlet);
  graph.zero_values();
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    const Real g = db.edges[e].coeff;
    graph.add_edge(e, {g, -g, -g, g}, {0.1, -0.2});
  }
  for (GlobalIndex node{0}; node < db.num_nodes(); ++node) {
    graph.add_node(node, dirichlet[static_cast<std::size_t>(node)] ? 1.0 : 0.0,
                   0.5);
  }
  const auto& rows = layout.numbering.rows;
  const auto views = system_views(graph);
  const auto span = std::span<const SystemView>(views);
  const auto plan = AssemblyPlan::build(rt, rows, rows, span);
  auto a = plan.create_matrix(rt);
  auto b = plan.create_vector(rt);

  // build() sized the channel buffers; the first use registers each
  // channel with the check layers (allowlisted allocations).
  plan.refill_matrix(rt, span, a);
  plan.refill_vector(rt, span, b);
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);  // a violation fails loudly, not just by count
  plan.refill_matrix(rt, span, a);
  plan.refill_vector(rt, span, b);
  // The slices travel on persistent channels, so nothing is allocated at
  // all — not even allowlisted message staging.
  for (const char* name : {"assembly-refill-matrix", "assembly-refill-vector"}) {
    const auto r = purity::region(name);
    EXPECT_EQ(r.allocs, 0) << name;
    EXPECT_EQ(r.allowed_allocs, 0) << name;
  }
}

TEST(PurityWarmPath, PicardPhysicsAndAssemblyAreAllocationPure) {
  // The first step builds the plans and sizes the channels and the
  // per-block scratch; in two warm steps the physics, the local assembly
  // and the warm plan refills allocate nothing at all.
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(4);
  cfd::SimConfig cfg;
  cfg.picard_iters = 2;
  cfd::Simulation sim(sys, cfg, rt);
  sim.step();
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  sim.step();
  sim.step();
  for (const char* name :
       {"picard-physics", "picard-local", "picard-warm-assemble"}) {
    const auto r = purity::region(name);
    EXPECT_EQ(r.entries > 0, purity::enabled()) << name;
    EXPECT_EQ(r.allocs, 0) << name;
    EXPECT_EQ(r.allowed_allocs, 0) << name;
  }
}

TEST(PurityWarmPath, AmgCacheReuseCheckIsAllocationPure) {
  // The value check before every cached solve: comparing unchanged
  // values, and storing changed ones ahead of the rebuild they trigger,
  // allocates nothing once the first call has sized the copy.
  using namespace amg;
  par::Runtime rt(4);
  const auto a0 = distribute(rt, laplace3d(8, 0.0));
  const auto a1 = distribute(rt, laplace3d(8, 0.5));
  AmgConfig cfg;
  HierarchyCache cache;
  linalg::ValueCheck check;
  const auto update = [&](const linalg::ParCsr& m) {
    return cache.update(m, cfg, 1, true, check.values_changed(m, 1));
  };
  ASSERT_EQ(update(a0), CacheAction::kRebuild);
  ASSERT_EQ(update(a1), CacheAction::kRebuild);

  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  EXPECT_EQ(update(a1), CacheAction::kReuse);
  EXPECT_EQ(update(a0), CacheAction::kRebuild);
  EXPECT_GE(purity::region("amg-reuse-check").entries, 2);
  EXPECT_EQ(purity::region("amg-reuse-check").allocs, 0);
}

TEST(PurityWarmPath, SmootherRebindIsAllocationPure) {
  par::Runtime rt(3);
  auto a = distribute(rt, random_spd_ish(LocalIndex{150}, 6, 53));
  solver::SmootherPrecond m(a, amg::SmootherType::kSgs2, 2, 2);

  rt.parallel_for_ranks([&](RankId r) {
    auto& blk = a.block_mut(r);
    for (auto& v : blk.diag.vals_mut()) v *= 1.25;
    for (auto& v : blk.offd.vals_mut()) v *= 1.25;
  });
  m.refresh_values();  // prime
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  m.refresh_values();
  EXPECT_EQ(purity::region("smoother-precond-rebind").allocs, 0);
  EXPECT_EQ(purity::region("smoother-rebind").allocs, 0);
}

TEST(PurityWarmPath, FusedMomentumKernelsAreAllocationPure) {
  par::Runtime rt(4);
  const auto a = distribute(rt, random_spd_ish(LocalIndex{160}, 5, 47));
  linalg::ParVector b(rt, a.rows(), 3), x(rt, a.rows(), 3);
  for (std::size_t c = 0; c < 3; ++c) {
    linalg::ParVector bc(rt, a.rows());
    bc.scatter(random_vector(160, 11 + c));
    b.set_lane(c, bc);
  }
  solver::SmootherPrecond m(a, amg::SmootherType::kSgs2, 1, 1);
  solver::GmresOptions opts;
  opts.rel_tol = 1e-8;

  x.fill(0.0);
  ASSERT_TRUE(solver::gmres_solve_multi(a, b, x, m, opts).all_converged());
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  x.fill(0.0);
  ASSERT_TRUE(solver::gmres_solve_multi(a, b, x, m, opts).all_converged());
  EXPECT_EQ(purity::region("multivector-scale-lanes").allocs, 0);
  EXPECT_EQ(purity::region("multivector-axpy-lanes").allocs, 0);
  EXPECT_EQ(purity::region("multivector-dots").allocs, 0);
}

TEST(PurityWarmPath, HaloTransposeAndSweepsAreAllocationPure) {
  // The persistent ParCsr channels and the smoother scratch are sized on
  // first use; from then on an AMG-preconditioned GMRES solve (halo
  // exchange, restriction by the transpose product, two-stage GS
  // sweeps), a fused 3-lane SGS2 solve and a hybrid GS sweep allocate
  // nothing at all in those regions — not even allowlisted staging.
  par::Runtime rt(4);
  const auto a = distribute(rt, laplace3d(8, 0.05));
  linalg::ParVector b(rt, a.rows()), x(rt, a.rows());
  b.scatter(random_vector(512, 7));
  linalg::ParVector b3(rt, a.rows(), 3), x3(rt, a.rows(), 3);
  for (std::size_t c = 0; c < 3; ++c) {
    b3.scatter(random_vector(512, 21 + c), c);
  }
  solver::AmgPrecond amg_m(a, amg::AmgConfig{});
  solver::SmootherPrecond sgs2(a, amg::SmootherType::kSgs2, 2, 2);
  const amg::Smoother hybrid(a, amg::SmootherType::kHybridGs, 1);
  solver::GmresOptions opts;
  opts.rel_tol = 1e-8;
  const auto solve_all = [&] {
    x.fill(0.0);
    EXPECT_TRUE(solver::gmres_solve(a, b, x, amg_m, opts).converged);
    x3.fill(0.0);
    EXPECT_TRUE(
        solver::gmres_solve_multi(a, b3, x3, sgs2, opts).all_converged());
    hybrid.apply(b, x, 2);
  };
  solve_all();  // first use sizes the channels and the sweep scratch
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  solve_all();
  for (const char* name :
       {"parcsr-halo-exchange", "parcsr-matvec-transpose",
        "smoother-sweep-two-stage", "smoother-sweep-sgs2",
        "smoother-sweep-hybrid-gs"}) {
    const auto r = purity::region(name);
    EXPECT_GT(r.entries, 0) << name;
    EXPECT_EQ(r.allocs, 0) << name;
    EXPECT_EQ(r.allowed_allocs, 0) << name;
  }
}

TEST(PurityWarmPath, AmgVcycleIsAllocationPure) {
  // An agglomerated hierarchy (coarse levels on group leaders, ranks with
  // zero rows) after one V-cycle has sized the channels and the sweep
  // scratch: two more V-cycles, the coarse gather and direct solve
  // included, allocate nothing at all.
  par::Runtime rt(8);
  const auto a = distribute(rt, laplace3d(8, 0.05));
  amg::AmgConfig cfg;
  cfg.min_coarse_rows_per_rank = 16;
  amg::AmgHierarchy h(a, cfg);
  linalg::ParVector b(rt, a.rows()), x(rt, a.rows());
  b.scatter(random_vector(512, 9));
  x.fill(0.0);
  h.vcycle(b, x);  // first use sizes the channels and the sweep scratch
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  h.vcycle(b, x);
  h.vcycle(b, x);
  const auto r = purity::region("amg-vcycle");
  EXPECT_EQ(r.entries > 0, purity::enabled());
  EXPECT_EQ(r.allocs, 0);
  EXPECT_EQ(r.allowed_allocs, 0);
}

TEST(PurityWarmPath, GuessProjectionIsAllocationPure) {
  // The basis and scratch are sized in the first round; three
  // project/solve/absorb rounds later — the basis growing, then
  // restarting — neither projection region allocates.
  par::Runtime rt(4);
  const auto a = distribute(rt, laplace3d(8, 0.05));
  solver::AmgPrecond amg_m(a, amg::AmgConfig{});
  solver::GmresOptions opts;
  opts.rel_tol = 1e-8;
  solver::GuessProjector proj(2);
  linalg::ParVector b(rt, a.rows()), x(rt, a.rows());
  const auto round = [&](std::uint64_t seed) {
    b.scatter(random_vector(512, seed));
    x.fill(0.0);
    proj.project(a, b, x, false);
    const auto st = solver::gmres_solve(a, b, x, amg_m, opts);
    EXPECT_TRUE(st.converged);
    proj.absorb(a, x, st);
  };
  round(41);  // first use sizes the basis and the scratch
  purity::reset();
  FatalModeGuard guard;
  purity::set_fatal(true);
  for (std::uint64_t seed : {42, 43, 44}) round(seed);
  EXPECT_EQ(proj.size(), 2U);  // 1, 2, then restarted at 1, then 2
  for (const char* name :
       {"projector-project", "projector-absorb", "multivector-dots-against",
        "multivector-axpy-combination"}) {
    const auto r = purity::region(name);
    EXPECT_GT(r.entries, 0) << name;
    EXPECT_EQ(r.allocs, 0) << name;
  }
}

TEST(PurityWarmPath, TracerFoldsAllocDeltasIntoPhases) {
  perf::Tracer tr(2);
  tr.push_phase("alloc-probe");
  observed_alloc(128);
  tr.pop_phase();
  const auto& s = tr.phase("alloc-probe");
  EXPECT_GE(s.allocs, 1);
  EXPECT_GE(s.alloc_bytes, 128 * sizeof(double));
}

#endif  // EXW_PURITY_CHECKS_ENABLED

}  // namespace
}  // namespace exw
