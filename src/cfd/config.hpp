#pragma once
/// \file config.hpp
/// Simulation configuration: physics, Picard iteration, solver settings,
/// and the implementation knobs the paper's §5.1 optimization story turns
/// (partitioner, assembly variant, inner smoother sweeps, AMG params).

#include "amg/config.hpp"
#include "assembly/global.hpp"
#include "assembly/layout.hpp"
#include "solver/gmres.hpp"

namespace exw::cfd {

struct SimConfig {
  // Physics (NREL 5-MW-like operating point: 8 m/s uniform inflow).
  Real dt = 0.05;
  Real density = 1.225;
  Real viscosity = 1.0;  ///< effective (turbulent) dynamic viscosity
  Real inflow_speed = 8.0;
  Real scalar_inflow = 0.1;
  Real scalar_source = 0.01;
  int picard_iters = 4;  ///< nonlinear iterations per time step (paper: 4)

  // Decomposition / assembly (the paper's optimization axes).
  assembly::PartitionMethod partition = assembly::PartitionMethod::kGraph;
  assembly::GlobalAssemblyAlgo assembly_algo =
      assembly::GlobalAssemblyAlgo::kSortReduce;
  /// Ignored: each rank body adds its own local assembly in order.
  /// Kept only because perfbench/runner/layers.cpp still reads it; goes
  /// once that reader drops it.
  bool atomic_local_assembly = false;
  /// Cache the stage-3 assembly structure per equation graph and refill
  /// values in place on later Picard iterations (hypre's SetValues2 /
  /// AddToValues2 fast path). Only engages with kSortReduce, whose
  /// result it reproduces bitwise; other algos always assemble cold.
  bool use_assembly_plan = true;

  /// Storage precision of *both* preconditioners (pressure AMG hierarchy
  /// and momentum/scalar SGS2 twin). kF32 is the mixed-precision
  /// configuration (DESIGN.md §16): FP64 outer GMRES, FP32 preconditioner
  /// storage, demote/promote only at the preconditioner boundary —
  /// roughly halving the smoother value streams, V-cycle halo payloads,
  /// and coarse-level collective bytes that dominate the strong-scaling
  /// limit. kF64 is the classic full-precision setup (baseline()).
  Precision precond_precision = Precision::kF32;

  // Pressure-Poisson: AMG-preconditioned one-reduce GMRES (§4.2). Coarse
  // levels averaging under 128 rows per rank move onto group leaders
  // (DESIGN.md §18; T = 128 earned by the A/B in EXPERIMENTS.md).
  amg::AmgConfig pressure_amg{.min_coarse_rows_per_rank = 128};
  solver::GmresOptions pressure_gmres{
      .max_iters = 100, .restart = 50, .rel_tol = 1e-5,
      .ortho = solver::OrthoMethod::kOneReduce};
  /// Cache the pressure AMG hierarchy across solves (amg/cache.hpp):
  /// reuse it untouched while the key (equation-graph generation,
  /// pressure_amg) matches and the matrix values are bitwise unchanged,
  /// and rebuild it otherwise. Bitwise-identical V-cycles to a rebuild
  /// at the same values. Off: rebuild every solve.
  bool use_amg_cache = true;
  /// Earlier pressure corrections kept per mesh block to project each
  /// pressure solve's initial guess onto (solver/projection.hpp): while
  /// the matrix stays bitwise the same, the guess starts closer to the
  /// solution and GMRES needs fewer iterations. 0 turns it off.
  int pressure_projection_size = 16;

  // Momentum / scalar transport: SGS2-preconditioned GMRES.
  int sgs_outer_sweeps = 2;
  int sgs_inner_sweeps = 2;
  solver::GmresOptions momentum_gmres{
      .max_iters = 60, .restart = 40, .rel_tol = 1e-5,
      .ortho = solver::OrthoMethod::kOneReduce};
  /// Solve the three momentum components as one fused 3-lane multi-RHS
  /// GMRES: the u/v/w systems share the matrix, so the fused path reads
  /// its index structure once per SpMV/smoother sweep for all lanes and
  /// batches the orthogonalization payloads into one allreduce. Each
  /// component's iterates stay bitwise-identical to the sequential
  /// three-solve path, with per-component convergence tracked
  /// independently (solver/gmres.hpp).
  bool use_fused_momentum = true;

  /// The paper's *baseline* GPU configuration (Fig. 3): the earlier
  /// implementation before the second-order optimizations — general
  /// (sparse-add style) assembly, a single inner GS sweep, default AMG
  /// parameters, RCB decomposition.
  static SimConfig baseline();
  /// The optimized configuration (current implementation).
  static SimConfig optimized();
};

}  // namespace exw::cfd
