#pragma once
/// \file simulation.hpp
/// Incompressible-flow solver over an overset mesh system (the Nalu-Wind
/// stand-in).
///
/// Governing equations (paper §1): mass-continuity Poisson-type equation
/// for pressure and Helmholtz-type equations for momentum and scalar
/// transport, discretized edge-based finite-volume on the node-centered
/// dual mesh, advanced with implicit Euler inside a nonlinear Picard
/// iteration (4 per time step in the paper's runs).
///
/// Per-mesh systems are built through the three-stage assembly (§3) and
/// solved independently; overset coupling happens through the outer
/// Picard iterations via fringe-value exchange (additive Schwarz, §2).
/// Every stage runs inside a named tracer phase so the per-equation time
/// breakdowns of Figs. 6-7 fall out of one run:
///   <equation>/physics   graph computation & physics evaluation (purple)
///   <equation>/local     Nalu-Wind local assembly             (green)
///   <equation>/global    hypre global assembly                (red)
///   <equation>/setup     preconditioner setup                 (blue)
///   <equation>/solve     GMRES solve                          (orange)
/// with equations "momentum", "continuity", "scalar", all nested under
/// "nli" (the paper's nonlinear-iteration time).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "amg/cache.hpp"
#include "assembly/graph.hpp"
#include "assembly/plan.hpp"
#include "cfd/config.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "linalg/value_check.hpp"
#include "mesh/generators.hpp"
#include "mesh/motion.hpp"
#include "par/runtime.hpp"
#include "solver/precond.hpp"
#include "solver/projection.hpp"

namespace exw::cfd {

/// Solver statistics of the last time step, per equation: counters
/// (solves, iterations, rebuilds/refreshes/reuses) accumulate over all
/// Picard iterations and mesh blocks of the step — a 3-Picard step
/// reports solves == 3 per single-mesh equation — while final_residual
/// and the AMG shape fields reflect the step's last solve. For the
/// pressure equation amg_rebuilds + amg_refreshes + amg_reuses == solves.
struct EquationStats {
  int gmres_iterations = 0;
  int solves = 0;
  /// Solves that ended without reaching their tolerance
  /// (SolveStats::converged false; each fused momentum lane counts).
  int unconverged_solves = 0;
  Real final_residual = 0;
  int amg_levels = 0;
  double amg_operator_complexity = 0;
  int amg_rebuilds = 0;   ///< structural AMG setups this step
  int amg_refreshes = 0;  ///< value-only hierarchy refreshes this step
  int amg_reuses = 0;     ///< solves on the hierarchy reused untouched
  int smoother_rebuilds = 0;  ///< SGS2 L/D/U splits built this step
  int smoother_rebinds = 0;   ///< value-only smoother rebinds this step
};

class Simulation {
 public:
  /// The overset system is borrowed and mutated (rotor motion).
  Simulation(mesh::OversetSystem& system, const SimConfig& cfg,
             par::Runtime& rt);

  /// Advance one time step (mesh motion + Picard iterations).
  void step();

  int step_count() const { return step_count_; }
  Real time() const { return time_; }
  const SimConfig& config() const { return cfg_; }
  par::Runtime& runtime() { return *rt_; }

  const EquationStats& momentum_stats() const { return mom_stats_; }
  const EquationStats& continuity_stats() const { return prs_stats_; }
  const EquationStats& scalar_stats() const { return scl_stats_; }

  /// Pressure-system nonzero counts per rank for one mesh (Figs. 5, 10).
  std::vector<double> pressure_nnz_per_rank(int mesh_index) const;

  /// Write each component mesh with its current fields as legacy VTK:
  /// <prefix>_<meshname>_<step>.vtk. Returns false on any I/O failure.
  bool write_vtk(const std::string& prefix) const;

  /// Mean/RMS diagnostics over all meshes (tests & examples).
  Real velocity_rms() const;
  Real divergence_rms() const;
  Real scalar_mean() const;

  /// One nodal field of one mesh, in mesh node order (tests compare
  /// runs with it).
  enum class Field { kU, kV, kW, kP, kScalar };
  const RealVector& field(int mesh_index, Field f) const;

 private:
  /// Assembly-plan cache for one equation graph: the stage-3 structure
  /// (AssemblyPlan) plus the ParCsr/ParVector it refills in place. One
  /// cold build per (graph pattern, partition); every later Picard
  /// iteration reassembles values only. `generation` keys the cache on
  /// EquationGraph::generation() so a rebuilt graph invalidates it.
  struct EquationCache {
    /// Per-rank views of the graph's stage-2 buffers, taken once.
    std::vector<assembly::SystemView> views;
    assembly::AssemblyPlan plan;
    linalg::ParCsr matrix;
    linalg::ParVector rhs;
    std::uint64_t generation = 0;
    bool valid = false;
    /// Bumped whenever `matrix` is replaced (cold assembly / plan
    /// rebuild), i.e. whenever its sparsity or storage may have changed.
    /// Consumers holding matrix-derived state (the SGS2 smoother's L/D/U
    /// split) key on it: same epoch means the values changed in place
    /// and a cheap rebind suffices; a new epoch forces reconstruction.
    std::uint64_t structure_epoch = 0;
  };

  struct MeshBlock {
    mesh::MeshDB* db = nullptr;
    int mesh_index = 0;
    assembly::MeshLayout layout;
    std::vector<std::uint8_t> mom_dirichlet, prs_dirichlet;
    std::unique_ptr<assembly::EquationGraph> mom_graph;  // momentum+scalar
    std::unique_ptr<assembly::EquationGraph> prs_graph;
    EquationCache mom_cache;  // shared by momentum and scalar (same graph)
    EquationCache prs_cache;
    /// SGS2 preconditioner kept across momentum/scalar solves on
    /// mom_cache.matrix: while the cached matrix keeps its structure
    /// (epoch unchanged), later solves rebind the L/D/U split to the
    /// refreshed values instead of rebuilding it.
    struct SmootherSlot {
      std::unique_ptr<solver::SmootherPrecond> precond;
      std::uint64_t epoch = 0;
    };
    SmootherSlot mom_smoother;
    /// Pressure AMG hierarchy kept across Picard solves and time steps;
    /// HierarchyCache::update decides rebuild, refresh or reuse.
    amg::HierarchyCache prs_precond;
    /// Whether prs_cache.matrix changed since the last pressure solve,
    /// checked once per solve for both the hierarchy cache and the
    /// projector.
    linalg::ValueCheck prs_values;
    /// Earlier pressure corrections the next solve's guess projects onto.
    solver::GuessProjector prs_projector;
    /// Solve vectors over the block's rows, sized once in setup_block and
    /// overwritten whole by every solve: the pressure solve's p_old and
    /// iterate, the fused momentum solve's 3-lane rhs and iterate (only
    /// with use_fused_momentum), and the 1-lane iterate the scalar and
    /// sequential momentum solves share.
    linalg::ParVector prs_old, prs_x;
    linalg::ParVector mom_b, mom_x;
    linalg::ParVector scl_x;
    // Nodal fields (indexed by mesh node id).
    RealVector u, v, w, p, scl;
    RealVector u_old, v_old, w_old, scl_old;
    // Cached per-edge mass flux of the latest momentum state.
    RealVector edge_flux;
    /// The nodal sums gather over each node's edges (built once).
    mesh::NodeEdgeIncidence incidence;
    /// Per-node scratch kept across calls, three planes of one value per
    /// node: the momentum RHS's pressure gradient (plane c holds component
    /// c), then the continuity divergence and pressure correction (plane
    /// 0).
    RealVector node_scratch;
  };

  void setup_block(MeshBlock& blk);

  /// Stage-3 global assembly of matrix + RHS through the plan cache:
  /// warm in-place refill when the cached plan matches the graph's
  /// generation, cold assembly (and plan build, if enabled) otherwise.
  /// `cache.views` must view `g`. Results land in cache.matrix /
  /// cache.rhs.
  void assemble_system(EquationCache& cache, const assembly::EquationGraph& g);
  /// RHS-only reassembly (momentum v/w components: matrix unchanged).
  void assemble_rhs(EquationCache& cache, const assembly::EquationGraph& g);
  /// The block's SGS2 preconditioner for mom_cache.matrix, rebound to
  /// the current values (or rebuilt after a structural change); counts
  /// the outcome in `stats`. Call inside a "setup" phase, after
  /// assemble_system.
  solver::SmootherPrecond& momentum_smoother(MeshBlock& blk,
                                             EquationStats& stats);
  void exchange_fringe_values();
  Vec3 mesh_velocity(const MeshBlock& blk, const Vec3& x) const;
  Vec3 boundary_velocity(const MeshBlock& blk, GlobalIndex node) const;

  /// Physics evaluation + assembly + solve for each equation.
  void solve_momentum(MeshBlock& blk);
  void solve_continuity(MeshBlock& blk);
  void solve_scalar(MeshBlock& blk);

  /// Per-edge mass fluxes of edges [begin, end) from the current
  /// velocity.
  void compute_fluxes(MeshBlock& blk, std::size_t begin,
                      std::size_t end) const;
  /// Upwinded advection + diffusion stencils of `edges` into the
  /// momentum/scalar graph (call from the edges' rank's body).
  void add_transport_edges(MeshBlock& blk,
                           std::span<const std::uint32_t> edges) const;
  /// Rank r's part of the momentum RHS for one velocity component, added
  /// over r's own nodes (call from r's body).
  void fill_momentum_rhs(MeshBlock& blk, RankId r,
                         std::size_t component) const;

  mesh::OversetSystem* system_;
  SimConfig cfg_;
  par::Runtime* rt_;
  std::vector<MeshBlock> blocks_;
  int step_count_ = 0;
  Real time_ = 0;
  EquationStats mom_stats_, prs_stats_, scl_stats_;
};

}  // namespace exw::cfd
