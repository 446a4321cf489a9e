// Tests for the incompressible-flow solver: uniform-flow preservation,
// projection behavior, turbine-case stepping, phase accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "cfd/simulation.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace exw::cfd {
namespace {

/// Background-only system (no turbine, no holes): uniform inflow must be
/// an exact steady state of the discretization.
mesh::OversetSystem box_only_system(GlobalIndex n) {
  mesh::OversetSystem sys;
  mesh::BackgroundParams bg;
  bg.nx = n;
  bg.ny = n;
  bg.nz = n;
  sys.meshes.push_back(mesh::make_background_mesh(bg, "bg"));
  sys.motion.push_back(mesh::RotationSpec{});
  sys.name = "box";
  return sys;
}

TEST(Cfd, UniformInflowIsSteadyState) {
  auto sys = box_only_system(GlobalIndex{8});
  par::Runtime rt(3);
  SimConfig cfg;
  cfg.picard_iters = 2;
  Simulation sim(sys, cfg, rt);
  sim.step();
  // A constant velocity field has zero divergence and zero advective /
  // diffusive imbalance: it must persist to solver tolerance.
  Real max_dev = 0;
  // velocity_rms of a uniform (U, 0, 0) field is exactly U.
  max_dev = std::abs(sim.velocity_rms() - cfg.inflow_speed);
  EXPECT_LT(max_dev, 1e-3 * cfg.inflow_speed);
  EXPECT_LT(sim.divergence_rms(), 1e-6);
}

TEST(Cfd, ProjectionReducesDivergenceOfPerturbedField) {
  // Start from a uniform state, one step keeps divergence tiny; the test
  // of the projection mechanism: a turbine case's divergence stays
  // bounded while the solution develops.
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(4);
  SimConfig cfg;
  cfg.picard_iters = 2;
  Simulation sim(sys, cfg, rt);
  sim.step();
  const Real d1 = sim.divergence_rms();
  for (int s = 0; s < 3; ++s) {
    sim.step();
  }
  const Real d4 = sim.divergence_rms();
  EXPECT_LT(d4, 50.0 * std::max(d1, Real{1e-8}));  // bounded, no blow-up
  EXPECT_LT(sim.velocity_rms(), 10.0 * cfg.inflow_speed);
}

TEST(Cfd, TurbineStepSolvesAllEquations) {
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(4);
  SimConfig cfg;
  cfg.picard_iters = 2;
  Simulation sim(sys, cfg, rt);
  sim.step();
  EXPECT_GT(sim.momentum_stats().solves, 0);
  EXPECT_GT(sim.continuity_stats().solves, 0);
  EXPECT_GT(sim.scalar_stats().solves, 0);
  EXPECT_GT(sim.continuity_stats().amg_levels, 1);
  EXPECT_GT(sim.momentum_stats().gmres_iterations, 0);
  EXPECT_EQ(sim.momentum_stats().unconverged_solves, 0);
  EXPECT_EQ(sim.continuity_stats().unconverged_solves, 0);
  EXPECT_EQ(sim.scalar_stats().unconverged_solves, 0);
  // Paper: momentum converges in a handful of SGS2-preconditioned
  // iterations (3 solves per mesh per Picard iteration here).
  EXPECT_LT(sim.momentum_stats().gmres_iterations / sim.momentum_stats().solves,
            20);
}

TEST(Cfd, PhaseBreakdownIsPopulated) {
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(4);
  SimConfig cfg;
  cfg.picard_iters = 1;
  Simulation sim(sys, cfg, rt);
  rt.tracer().reset();
  sim.step();
  auto& tr = rt.tracer();
  const auto gpu = perf::MachineModel::summit_gpu();
  // All five stages of the paper's Figs. 6-7 breakdown exist and carry
  // nonzero modeled time for the pressure equation.
  for (const char* phase :
       {"nli/continuity/physics", "nli/continuity/local",
        "nli/continuity/global", "nli/continuity/setup",
        "nli/continuity/solve"}) {
    ASSERT_TRUE(tr.has_phase(phase)) << phase;
    EXPECT_GT(tr.phase_time(phase, gpu), 0.0) << phase;
  }
  // Sub-phases sum to less than the equation total (which includes both).
  const double total = tr.phase_time("nli", gpu);
  EXPECT_GT(total, tr.phase_time("nli/continuity/solve", gpu));
  // Pressure-Poisson dominates the NLI (paper: 60-70% at scale; at least
  // a plurality holds at any size).
  EXPECT_GT(tr.phase_time("nli/continuity", gpu), 0.2 * total);
}

TEST(Cfd, FringeExchangePreservesConstantFields) {
  // Donor weights sum to one, so interpolating a constant donor field
  // must reproduce the constant exactly at every fringe node.
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(2);
  SimConfig cfg;
  Simulation sim(sys, cfg, rt);
  // At construction all fields are uniform (inflow everywhere except
  // walls/holes); the initial fringe exchange ran in the constructor.
  // Check: scalar is the ambient constant at all fringe nodes of the
  // rotor (donors are background interior points with ambient value).
  const auto& rotor = sys.meshes[1];
  bool checked = false;
  for (const auto& c : sys.constraints) {
    if (c.mesh != 1) continue;
    bool donor_clean = true;
    for (auto d : c.donors) {
      const auto role = sys.meshes[0].roles[static_cast<std::size_t>(d)];
      if (role == mesh::NodeRole::kHole || role == mesh::NodeRole::kWall) {
        donor_clean = false;
      }
    }
    if (donor_clean) {
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
  (void)rotor;
}

TEST(Cfd, BaselineConfigDiffersAndRuns) {
  auto cfg = SimConfig::baseline();
  EXPECT_EQ(cfg.partition, assembly::PartitionMethod::kRcb);
  EXPECT_EQ(cfg.assembly_algo, assembly::GlobalAssemblyAlgo::kGeneral);
  EXPECT_EQ(cfg.sgs_inner_sweeps, 1);
  auto sys = box_only_system(GlobalIndex{6});
  par::Runtime rt(2);
  cfg.picard_iters = 1;
  Simulation sim(sys, cfg, rt);
  EXPECT_NO_THROW(sim.step());
}

TEST(Cfd, AssemblyPlanCacheIsBitwiseIdenticalToColdPath) {
  // The plan cache must be invisible to the solution: warm in-place
  // refills replay the cold kSortReduce reduction order exactly, so
  // every field diagnostic matches bitwise across multiple steps (and
  // across Picard iterations within each step, where the warm path is
  // actually exercised).
  auto sys_plan = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  auto sys_cold = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt_plan(4);
  par::Runtime rt_cold(4);
  SimConfig cfg;
  cfg.picard_iters = 2;
  cfg.use_assembly_plan = true;
  Simulation warm(sys_plan, cfg, rt_plan);
  cfg.use_assembly_plan = false;
  Simulation cold(sys_cold, cfg, rt_cold);
  for (int s = 0; s < 2; ++s) {
    warm.step();
    cold.step();
    EXPECT_EQ(warm.velocity_rms(), cold.velocity_rms()) << "step " << s;
    EXPECT_EQ(warm.divergence_rms(), cold.divergence_rms()) << "step " << s;
    EXPECT_EQ(warm.scalar_mean(), cold.scalar_mean()) << "step " << s;
  }
  EXPECT_TRUE(rt_plan.transport().drained());
}

TEST(Cfd, AtomicAssemblyMatchesOrdered) {
  auto sys_a = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  auto sys_b = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt_a(3), rt_b(3);
  SimConfig cfg;
  cfg.picard_iters = 1;
  SimConfig cfg_atomic = cfg;
  cfg_atomic.atomic_local_assembly = true;
  Simulation sim_a(sys_a, cfg, rt_a);
  Simulation sim_b(sys_b, cfg_atomic, rt_b);
  sim_a.step();
  sim_b.step();
  // Single-threaded simulated ranks: atomic and ordered adds produce the
  // same sums, so the physics must agree to solver tolerance.
  EXPECT_NEAR(sim_a.velocity_rms(), sim_b.velocity_rms(), 1e-8);
  EXPECT_NEAR(sim_a.scalar_mean(), sim_b.scalar_mean(), 1e-10);
}

TEST(Cfd, SolverStatsAccumulateAcrossPicardLoop) {
  // Regression: the per-equation counters used to be reset inside every
  // solve, so a step always reported solves == 1 regardless of the Picard
  // count. They must accumulate over the step's Picard loop and reset
  // only at the next step.
  auto sys = box_only_system(GlobalIndex{6});
  par::Runtime rt(2);
  SimConfig cfg;
  cfg.picard_iters = 3;
  Simulation sim(sys, cfg, rt);
  sim.step();
  // Momentum solves one system per velocity component.
  EXPECT_EQ(sim.momentum_stats().solves, 3 * 3);
  EXPECT_EQ(sim.continuity_stats().solves, 3);
  EXPECT_EQ(sim.scalar_stats().solves, 3);
  EXPECT_GE(sim.continuity_stats().gmres_iterations,
            sim.continuity_stats().solves);
  sim.step();  // fresh counters each step, not accumulated forever
  EXPECT_EQ(sim.continuity_stats().solves, 3);
}

TEST(Cfd, AmgCacheReusesHierarchyWhileRotorTurns) {
  // Rigid rotation keeps every pressure coefficient, so the pressure
  // matrix never changes: the cache sets up once per mesh block in the
  // first step and reuses that hierarchy untouched from then on, with
  // results bitwise-equal to rebuilding it for every solve. Should a
  // change make the pressure values move, this fails first.
  for (const mesh::TurbineCase kind :
       {mesh::TurbineCase::kSingle, mesh::TurbineCase::kDual}) {
    auto sys_on = mesh::make_turbine_case(kind, 0.3);
    auto sys_off = mesh::make_turbine_case(kind, 0.3);
    par::Runtime rt_on(4), rt_off(4);
    SimConfig cfg;
    cfg.picard_iters = 2;
    ASSERT_TRUE(cfg.use_amg_cache);
    Simulation on(sys_on, cfg, rt_on);
    cfg.use_amg_cache = false;
    Simulation off(sys_off, cfg, rt_off);
    const int blocks = static_cast<int>(sys_on.meshes.size());
    ASSERT_EQ(blocks, kind == mesh::TurbineCase::kSingle ? 2 : 3);
    for (int s = 1; s <= 3; ++s) {
      on.step();
      off.step();
      const EquationStats& st = on.continuity_stats();
      EXPECT_EQ(st.amg_rebuilds, s == 1 ? blocks : 0)
          << blocks << " blocks, step " << s;
      EXPECT_EQ(st.amg_reuses, st.solves - st.amg_rebuilds)
          << blocks << " blocks, step " << s;
      EXPECT_EQ(off.continuity_stats().amg_rebuilds, st.solves)
          << blocks << " blocks, step " << s;
      EXPECT_EQ(on.velocity_rms(), off.velocity_rms())
          << blocks << " blocks, step " << s;
      EXPECT_EQ(on.divergence_rms(), off.divergence_rms())
          << blocks << " blocks, step " << s;
      EXPECT_EQ(on.scalar_mean(), off.scalar_mean())
          << blocks << " blocks, step " << s;
    }
  }
}

TEST(Cfd, UnconvergedSolvesAreCounted) {
  // One GMRES iteration per solve, against a tolerance at rounding level.
  // A solve that starts converged spends no iteration (in the first step
  // the background mesh's uniform inflow is an exact steady state of its
  // momentum system); every other solve spends its one iteration without
  // reaching the tolerance. So each equation — each fused momentum lane
  // and each sequential component alike — counts exactly as many
  // unconverged solves as it spent iterations.
  for (const bool fused : {true, false}) {
    auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
    par::Runtime rt(4);
    SimConfig cfg;
    cfg.picard_iters = 1;
    cfg.use_fused_momentum = fused;
    for (solver::GmresOptions* g : {&cfg.pressure_gmres, &cfg.momentum_gmres}) {
      g->max_iters = 1;
      g->rel_tol = 1e-15;
    }
    Simulation sim(sys, cfg, rt);
    sim.step();
    for (const EquationStats* st : {&sim.momentum_stats(),
                                    &sim.continuity_stats(),
                                    &sim.scalar_stats()}) {
      EXPECT_GT(st->unconverged_solves, 0) << "fused " << fused;
      EXPECT_EQ(st->unconverged_solves, st->gmres_iterations)
          << "fused " << fused;
    }
  }
}

TEST(Cfd, FailedPressureSolvesNeverSeedTheProjection) {
  // The setup of UnconvergedSolvesAreCounted: solves that fail their
  // tolerance flush the projection basis instead of entering it, so it
  // stays empty and every solve starts from the unprojected guess. Any
  // direction left in the basis would move the next guess, so the run
  // must match the one without a projector bit for bit.
  auto failing = [](int projection_size) {
    SimConfig cfg;
    cfg.picard_iters = 2;
    cfg.pressure_projection_size = projection_size;
    for (solver::GmresOptions* g : {&cfg.pressure_gmres, &cfg.momentum_gmres}) {
      g->max_iters = 1;
      g->rel_tol = 1e-15;
    }
    return cfg;
  };
  auto sys_on = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  auto sys_off = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt_on(4), rt_off(4);
  Simulation on(sys_on, failing(16), rt_on);
  Simulation off(sys_off, failing(0), rt_off);
  for (int s = 0; s < 2; ++s) {
    on.step();
    off.step();
    ASSERT_GT(on.continuity_stats().unconverged_solves, 0);
    EXPECT_EQ(on.continuity_stats().gmres_iterations,
              off.continuity_stats().gmres_iterations) << "step " << s;
    EXPECT_EQ(on.velocity_rms(), off.velocity_rms()) << "step " << s;
    EXPECT_EQ(on.divergence_rms(), off.divergence_rms()) << "step " << s;
    EXPECT_EQ(on.scalar_mean(), off.scalar_mean()) << "step " << s;
  }
}

TEST(Cfd, PressureProjectionCutsIterationsWhileRotorTurns) {
  // Rigid rotation keeps the pressure matrix, so each mesh block's basis
  // grows by one correction per Picard iteration and later solves start
  // closer to their solution; the other equations see the same step.
  auto sys_on = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  auto sys_off = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt_on(4), rt_off(4);
  SimConfig cfg;
  cfg.picard_iters = 2;
  ASSERT_EQ(cfg.pressure_projection_size, 16);
  Simulation on(sys_on, cfg, rt_on);
  cfg.pressure_projection_size = 0;
  Simulation off(sys_off, cfg, rt_off);
  for (int s = 1; s <= 2; ++s) {
    on.step();
    off.step();
    const EquationStats& st = on.continuity_stats();
    EXPECT_EQ(st.unconverged_solves, 0) << "step " << s;
    EXPECT_LT(st.gmres_iterations, off.continuity_stats().gmres_iterations)
        << "step " << s;
    EXPECT_EQ(on.momentum_stats().gmres_iterations,
              off.momentum_stats().gmres_iterations) << "step " << s;
    EXPECT_EQ(on.scalar_stats().gmres_iterations,
              off.scalar_stats().gmres_iterations) << "step " << s;
  }
}

TEST(Cfd, AmgCacheDisabledRebuildsEverySolve) {
  auto sys = box_only_system(GlobalIndex{6});
  par::Runtime rt(2);
  SimConfig cfg;
  cfg.picard_iters = 3;
  cfg.use_amg_cache = false;
  Simulation sim(sys, cfg, rt);
  sim.step();
  EXPECT_EQ(sim.continuity_stats().amg_rebuilds, 3);
  EXPECT_EQ(sim.continuity_stats().amg_reuses, 0);
}

TEST(Cfd, RankParallelStepMatchesSerialBitwise) {
  // The physics, the local assembly and the field copies run as rank
  // bodies: three steps on the pool and three inline must leave every
  // nodal field bitwise equal, with fused and sequential momentum, plan
  // and general assembly.
  const bool was_serial = par::serial_mode();
  for (const SimConfig& cfg : {SimConfig::optimized(), SimConfig::baseline()}) {
    std::vector<RealVector> fields[2];
    for (const bool serial : {true, false}) {
      par::set_serial_mode(serial);
      auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
      par::Runtime rt(24);
      Simulation sim(sys, cfg, rt);
      for (int s = 0; s < 3; ++s) sim.step();
      for (int m = 0; m < static_cast<int>(sys.meshes.size()); ++m) {
        for (const auto f :
             {Simulation::Field::kU, Simulation::Field::kV, Simulation::Field::kW,
              Simulation::Field::kP, Simulation::Field::kScalar}) {
          fields[serial ? 0 : 1].push_back(sim.field(m, f));
        }
      }
    }
    par::set_serial_mode(was_serial);
    ASSERT_EQ(fields[0].size(), 10U);
    for (std::size_t k = 0; k < fields[0].size(); ++k) {
      EXPECT_EQ(fields[0][k], fields[1][k])
          << "field " << k << (cfg.use_fused_momentum ? " (optimized)"
                                                       : " (baseline)");
    }
  }
}

TEST(Cfd, NodeGatherMatchesEdgeLoopBitwise) {
  // The nodal sums gather over each node's edges; the edge-loop scatter
  // they replaced stays here as their reference. Node values come from
  // an irregular field so that no addend is zero or repeated.
  const auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  for (const mesh::MeshDB& db : sys.meshes) {
    const auto n = static_cast<std::size_t>(db.num_nodes());
    RealVector q(n);
    for (std::size_t i = 0; i < n; ++i) {
      q[i] = std::sin(0.37 * static_cast<Real>(i)) + 1e-3 * static_cast<Real>(i);
    }
    std::vector<Vec3> grad(n, Vec3{});
    RealVector net(n, 0.0);
    for (std::size_t e = 0; e < db.edges.size(); ++e) {
      const auto& edge = db.edges[e];
      const auto a = static_cast<std::size_t>(edge.a);
      const auto b = static_cast<std::size_t>(edge.b);
      const Real pf = 0.5 * (q[a] + q[b]);
      grad[a] += edge.area * pf;
      grad[b] += edge.area * (-pf);
      const Real f = q[a] * edge.coeff / 1.225;
      net[a] += f;
      net[b] -= f;
    }
    const auto inc = mesh::make_node_edge_incidence(db);
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3 g = mesh::gather_area_sum(
          db, inc, i, [&](std::size_t a, std::size_t b) {
            return 0.5 * (q[a] + q[b]);
          });
      ASSERT_EQ(g.x, grad[i].x) << db.name << " node " << i;
      ASSERT_EQ(g.y, grad[i].y) << db.name << " node " << i;
      ASSERT_EQ(g.z, grad[i].z) << db.name << " node " << i;
      const Real d = mesh::gather_net(db, inc, i, [&](std::uint32_t e) {
        const auto& edge = db.edges[e];
        return q[static_cast<std::size_t>(edge.a)] * edge.coeff / 1.225;
      });
      ASSERT_EQ(d, net[i]) << db.name << " node " << i;
    }
  }
}

TEST(Cfd, WarmStepLedgerIsPinned) {
  // A warm step's modeled ledger, re-recorded when GMRES started
  // finishing each lane from its kept z_j = M^-1 v_j (no preconditioner
  // application after the last iteration) and computing one residual at
  // entry, then when halo packs, transpose adds and plan refills became
  // one kernel per rank and exchange (kernels only) and when a norm
  // started streaming its vector once (bytes only). Any charge that
  // moves, appears or goes missing changes these figures.
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(24);
  Simulation sim(sys, SimConfig::optimized(), rt);
  sim.step();
  rt.tracer().reset();
  sim.step();
  const auto& nli = rt.tracer().phase("nli");
  EXPECT_EQ(nli.total_kernels(), 90395);
  EXPECT_EQ(nli.messages, 71873);
  EXPECT_EQ(nli.collectives, 377);
  EXPECT_EQ(nli.total_bytes(), 308583804.0);
  EXPECT_EQ(nli.total_index_bytes(), 25567224.0);
  EXPECT_EQ(nli.total_value_bytes_f32(), 62424844.0);
  EXPECT_EQ(nli.modeled_time(perf::MachineModel::summit_gpu()),
            0.18448444853703705);
}

TEST(Cfd, PressurePrecondIsKeptUntilARebuild) {
  // Across warm steps the pressure solves reuse the block's AmgPrecond
  // and its FP32 boundary vectors, data pointers included.
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(8);
  const SimConfig cfg = SimConfig::optimized();
  ASSERT_EQ(cfg.precond_precision, Precision::kF32);
  Simulation sim(sys, cfg, rt);
  sim.step();
  const solver::AmgPrecond* pc = sim.pressure_precond(0);
  ASSERT_NE(pc, nullptr);
  ASSERT_NE(pc->boundary_residual(), nullptr);
  const Real* data = pc->boundary_residual()->local(RankId{0}).data();
  for (int s = 2; s <= 3; ++s) {
    sim.step();
    EXPECT_EQ(sim.pressure_precond(0), pc) << "step " << s;
    EXPECT_EQ(pc->boundary_residual()->local(RankId{0}).data(), data)
        << "step " << s;
  }
  EXPECT_EQ(sim.continuity_stats().amg_rebuilds, 0);

  // Changed values and a new graph generation each rebuild the
  // hierarchy, which replaces the one the kept preconditioner borrowed:
  // it rebinds to the new one. A reuse keeps it.
  const auto rows = par::RowPartition::even(GlobalIndex{1000}, rt.nranks());
  const auto a = linalg::ParCsr::from_serial(
      rt, testutil::laplace3d(10, 0.05), rows, rows);
  solver::KeptAmgPrecond kept;
  amg::AmgConfig acfg = cfg.pressure_amg;
  acfg.precision = Precision::kF32;
  EXPECT_EQ(kept.update(a, acfg, 1, true, true), amg::CacheAction::kRebuild);
  const solver::AmgPrecond* first = kept.get();
  EXPECT_EQ(kept.update(a, acfg, 1, true, false), amg::CacheAction::kReuse);
  EXPECT_EQ(kept.get(), first);
  EXPECT_EQ(kept.update(a, acfg, 1, true, true), amg::CacheAction::kRebuild);
  const solver::AmgPrecond* second = kept.get();
  EXPECT_NE(second, first);
  EXPECT_EQ(&second->hierarchy(), &kept.cache().hierarchy());
  EXPECT_EQ(kept.update(a, acfg, 2, true, false), amg::CacheAction::kRebuild);
  EXPECT_NE(kept.get(), second);
  EXPECT_EQ(&kept.get()->hierarchy(), &kept.cache().hierarchy());
  ASSERT_NE(kept.get()->boundary_residual(), nullptr);
}

TEST(Cfd, FailedPressureRebuildDropsTheKeptPrecond) {
  // A rebuild releases the old hierarchy before it builds the new one,
  // so a build that throws (here the FP32 demotion of values beyond
  // float range) leaves no hierarchy: the kept preconditioner, which
  // borrowed the released one, is not handed out, and the next update
  // rebuilds and rebinds.
  par::Runtime rt(4);
  const auto rows = par::RowPartition::even(GlobalIndex{1000}, rt.nranks());
  auto huge = testutil::laplace3d(10, 0.05);
  for (Real& v : huge.vals_vec()) v *= 1e39;
  const auto a = linalg::ParCsr::from_serial(
      rt, testutil::laplace3d(10, 0.05), rows, rows);
  const auto a_huge = linalg::ParCsr::from_serial(rt, huge, rows, rows);
  amg::AmgConfig cfg = SimConfig::optimized().pressure_amg;
  cfg.precision = Precision::kF32;
  solver::KeptAmgPrecond kept;
  EXPECT_EQ(kept.update(a, cfg, 1, true, true), amg::CacheAction::kRebuild);
  ASSERT_NE(kept.get(), nullptr);
  EXPECT_THROW(kept.update(a_huge, cfg, 1, true, true), Error);
  EXPECT_FALSE(kept.cache().valid());
  EXPECT_EQ(kept.get(), nullptr);
  EXPECT_EQ(kept.update(a, cfg, 1, true, false), amg::CacheAction::kRebuild);
  ASSERT_NE(kept.get(), nullptr);
  EXPECT_EQ(&kept.get()->hierarchy(), &kept.cache().hierarchy());
}

TEST(Cfd, PhaseWallClockNestsInItsParent) {
  // Every phase of a warm step reads a non-negative host wall time, and
  // no sub-phase more than the phase it is nested in.
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(8);
  Simulation sim(sys, SimConfig::optimized(), rt);
  sim.step();
  rt.tracer().reset();
  sim.step();
  const auto& tr = rt.tracer();
  EXPECT_GT(tr.phase("nli").wall_s, 0.0);
  for (const std::string& name : tr.phase_names()) {
    const double wall = tr.phase(name).wall_s;
    EXPECT_GE(wall, 0.0) << name;
    const auto cut = name.rfind('/');
    if (cut == std::string::npos) continue;
    EXPECT_LE(wall, tr.phase(name.substr(0, cut)).wall_s) << name;
  }
}

TEST(Cfd, WarmDualStepRunsAtMost3075Regions) {
  // The turbine2-strong shape (two turbines, 96 ranks): every
  // preconditioner application starts from a zero-guess sweep that packs
  // its result for the next consumer, each V-cycle level runs four
  // bodies, and GMRES applies no preconditioner after its last iteration,
  // so the first three warm steps take at most 3,075 rank-pool regions
  // each on average (2,929 measured: 3,207, 2,913 and 2,667; 3,495
  // before the last change).
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kDual, 0.3);
  par::Runtime rt(96);
  Simulation sim(sys, SimConfig::optimized(), rt);
  sim.step();
  const auto& pool = par::ThreadPool::instance();
  const std::uint64_t before = pool.regions();
  for (int s = 0; s < 3; ++s) sim.step();
  EXPECT_LE(pool.regions() - before, 3u * 3075u);
}

TEST(Cfd, RotorRotationAdvancesWithTime) {
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  const Vec3 before = sys.meshes[1].coords[100];
  par::Runtime rt(2);
  SimConfig cfg;
  cfg.picard_iters = 1;
  Simulation sim(sys, cfg, rt);
  sim.step();
  const Vec3 after = sys.meshes[1].coords[100];
  EXPECT_GT((after - before).norm(), 1e-6);
  EXPECT_DOUBLE_EQ(sim.time(), cfg.dt);
}

}  // namespace
}  // namespace exw::cfd
