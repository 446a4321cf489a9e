#include "cfd/simulation.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "assembly/global.hpp"
#include "assembly/plan.hpp"
#include "common/error.hpp"
#include "mesh/vtk_writer.hpp"
#include "linalg/parvector.hpp"
#include "perf/purity.hpp"
#include "solver/precond.hpp"

namespace exw::cfd {

namespace {

using mesh::NodeRole;

/// Rank r's share [begin, end) of `count` items split into one contiguous
/// range per rank. The edge- and node-local physics passes run on these
/// ranges rather than on each rank's own items: a rank's edges and nodes
/// are scattered through the mesh arrays, so per-rank passes would share
/// cache lines between threads.
struct Range {
  std::size_t begin, end;
};
Range chunk(std::size_t count, RankId r, int nranks) {
  const auto i = static_cast<std::size_t>(r);
  const auto n = static_cast<std::size_t>(nranks);
  return {count * i / n, count * (i + 1) / n};
}

/// Rank r's hand-set charge for `items` edges or nodes (none for zero
/// items), made from r's body.
void charge_items(perf::Tracer& tracer, RankId r, std::size_t items,
                  double flops_per_item, double bytes_per_item) {
  if (items == 0) return;
  const auto n = static_cast<double>(items);
  tracer.kernel(r, n * flops_per_item, n * bytes_per_item);
}

void charge_per_rank(perf::Tracer& tracer, const std::vector<double>& items,
                     double flops_per_item, double bytes_per_item) {
  for (std::size_t r = 0; r < items.size(); ++r) {
    if (items[r] > 0) {
      tracer.kernel(checked_narrow<RankId>(r), items[r] * flops_per_item,
                    items[r] * bytes_per_item);
    }
  }
}

/// Fold one solve's outcome into the step's counters.
void count_solve(EquationStats& stats, const solver::SolveStats& st) {
  stats.gmres_iterations += st.iterations;
  stats.solves += 1;
  stats.unconverged_solves += st.converged ? 0 : 1;
  stats.final_residual = st.final_residual;
}

}  // namespace

void Simulation::assemble_system(EquationCache& cache,
                                 const assembly::EquationGraph& g) {
  const auto& rows = g.layout().numbering.rows;
  const auto span = std::span<const assembly::SystemView>(cache.views);
  const bool plan_path =
      cfg_.use_assembly_plan &&
      cfg_.assembly_algo == assembly::GlobalAssemblyAlgo::kSortReduce;
  if (!plan_path) {
    cache.valid = false;
    cache.matrix = assembly::assemble_matrix(*rt_, rows, rows, span,
                                             cfg_.assembly_algo);
    cache.rhs = assembly::assemble_vector(*rt_, rows, span, cfg_.assembly_algo);
    cache.structure_epoch += 1;  // fresh matrix: derived state is stale
    return;
  }
  if (!cache.valid || cache.generation != g.generation()) {
    // Cold: one structural pass freezes the whole stage-3 pipeline.
    cache.plan = assembly::AssemblyPlan::build(*rt_, rows, rows, span);
    cache.matrix = cache.plan.create_matrix(*rt_);
    cache.rhs = cache.plan.create_vector(*rt_);
    cache.generation = g.generation();
    cache.valid = true;
    cache.structure_epoch += 1;
  }
  // Warm: value-only exchange + segmented sums, bitwise-identical to
  // cold kSortReduce assembly. The purity region opens after the cold
  // branch, which may allocate; the refills themselves must not.
  // (Runtime-only check: this caller is not EXW_WARM_FN-annotated
  // because it owns the cold fallback too — see DESIGN.md §14.)
  {
    EXW_PURITY_REGION("picard-warm-assemble");
    cache.plan.refill_matrix(*rt_, span, cache.matrix);
    cache.plan.refill_vector(*rt_, span, cache.rhs);
  }
}

void Simulation::assemble_rhs(EquationCache& cache,
                              const assembly::EquationGraph& g) {
  const auto& rows = g.layout().numbering.rows;
  const auto span = std::span<const assembly::SystemView>(cache.views);
  if (cache.valid && cache.generation == g.generation()) {
    EXW_PURITY_REGION("picard-warm-assemble");
    cache.plan.refill_vector(*rt_, span, cache.rhs);
    return;
  }
  cache.rhs = assembly::assemble_vector(*rt_, rows, span, cfg_.assembly_algo);
}

solver::SmootherPrecond& Simulation::momentum_smoother(MeshBlock& blk,
                                                       EquationStats& stats) {
  MeshBlock::SmootherSlot& slot = blk.mom_smoother;
  if (!slot.precond || slot.epoch != blk.mom_cache.structure_epoch) {
    slot.precond = std::make_unique<solver::SmootherPrecond>(
        blk.mom_cache.matrix, amg::SmootherType::kSgs2, cfg_.sgs_outer_sweeps,
        cfg_.sgs_inner_sweeps, cfg_.precond_precision);
    slot.epoch = blk.mom_cache.structure_epoch;
    stats.smoother_rebuilds += 1;
  } else {
    // Same sparsity, refreshed values: one value-only streaming pass over
    // the cached L/D/U split instead of reconstruction.
    EXW_PURITY_REGION("picard-smoother-rebind");
    slot.precond->refresh_values();
    stats.smoother_rebinds += 1;
  }
  return *slot.precond;
}

Simulation::Simulation(mesh::OversetSystem& system, const SimConfig& cfg,
                       par::Runtime& rt)
    : system_(&system), cfg_(cfg), rt_(&rt) {
  blocks_.resize(system.meshes.size());
  for (std::size_t m = 0; m < system.meshes.size(); ++m) {
    blocks_[m].db = &system.meshes[m];
    blocks_[m].mesh_index = checked_narrow<int>(m);
    setup_block(blocks_[m]);
  }
  exchange_fringe_values();
}

void Simulation::setup_block(MeshBlock& blk) {
  const mesh::MeshDB& db = *blk.db;
  const auto n = static_cast<std::size_t>(db.num_nodes());

  // Stage 0: domain decomposition + DoF renumbering.
  blk.layout = assembly::make_layout(db, rt_->nranks(), cfg_.partition);
  blk.prs_projector = solver::GuessProjector(
      checked_narrow<std::size_t>(cfg_.pressure_projection_size));
  const auto& rows = blk.layout.numbering.rows;
  blk.prs_old = linalg::ParVector(*rt_, rows);
  blk.prs_x = linalg::ParVector(*rt_, rows);
  if (cfg_.use_fused_momentum) {
    blk.mom_b = linalg::ParVector(*rt_, rows, 3);
    blk.mom_x = linalg::ParVector(*rt_, rows, 3);
  }
  blk.scl_x = linalg::ParVector(*rt_, rows);

  // Dirichlet masks per equation family (paper §3.1: "periodic, Dirichlet,
  // and overset DoFs are accounted for precisely").
  blk.mom_dirichlet.assign(n, 0);
  blk.prs_dirichlet.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    switch (db.roles[i]) {
      case NodeRole::kInterior:
        break;
      case NodeRole::kInflow:
      case NodeRole::kSymmetry:
      case NodeRole::kWall:
        blk.mom_dirichlet[i] = 1;  // velocity fixed, pressure Neumann
        break;
      case NodeRole::kOutflow:
        blk.prs_dirichlet[i] = 1;  // pressure fixed, velocity Neumann
        break;
      case NodeRole::kFringe:
      case NodeRole::kHole:
        blk.mom_dirichlet[i] = 1;
        blk.prs_dirichlet[i] = 1;
        break;
    }
  }

  // Stage 1: graph computation (pattern is a topology invariant: built
  // once, reused every Picard iteration).
  {
    perf::PhaseScope scope(rt_->tracer(), "graph");
    blk.mom_graph = std::make_unique<assembly::EquationGraph>(
        db, blk.layout, blk.mom_dirichlet);
    blk.prs_graph = std::make_unique<assembly::EquationGraph>(
        db, blk.layout, blk.prs_dirichlet);
    charge_per_rank(rt_->tracer(), blk.mom_graph->pattern_nnz_per_rank(), 16.0,
                    64.0);
    charge_per_rank(rt_->tracer(), blk.prs_graph->pattern_nnz_per_rank(), 16.0,
                    64.0);
  }
  blk.mom_cache.views = assembly::system_views(*blk.mom_graph);
  blk.prs_cache.views = assembly::system_views(*blk.prs_graph);

  blk.incidence = mesh::make_node_edge_incidence(db);
  blk.node_scratch.assign(3 * n, 0.0);

  // Initial condition: uniform inflow, ambient scalar; boundary values on
  // their Dirichlet nodes.
  blk.u.assign(n, cfg_.inflow_speed);
  blk.v.assign(n, 0.0);
  blk.w.assign(n, 0.0);
  blk.p.assign(n, 0.0);
  blk.scl.assign(n, cfg_.scalar_inflow);
  for (std::size_t i = 0; i < n; ++i) {
    if (db.roles[i] == NodeRole::kWall || db.roles[i] == NodeRole::kHole) {
      const Vec3 bc = boundary_velocity(blk, checked_narrow<GlobalIndex>(i));
      blk.u[i] = bc.x;
      blk.v[i] = bc.y;
      blk.w[i] = bc.z;
      blk.scl[i] = 0.0;
    }
  }
  blk.u_old = blk.u;
  blk.v_old = blk.v;
  blk.w_old = blk.w;
  blk.scl_old = blk.scl;
  blk.edge_flux.assign(static_cast<std::size_t>(db.num_edges()), 0.0);
}

Vec3 Simulation::mesh_velocity(const MeshBlock& blk, const Vec3& x) const {
  const mesh::RotationSpec& spec =
      system_->motion[static_cast<std::size_t>(blk.mesh_index)];
  if (!spec.rotating) {
    return Vec3{};
  }
  const Vec3 axis = spec.axis * (1.0 / spec.axis.norm());
  return axis.cross(x - spec.center) * spec.omega;
}

Vec3 Simulation::boundary_velocity(const MeshBlock& blk,
                                   GlobalIndex node) const {
  const mesh::MeshDB& db = *blk.db;
  const auto i = static_cast<std::size_t>(node);
  switch (db.roles[i]) {
    case NodeRole::kInflow:
    case NodeRole::kSymmetry:
      return Vec3{cfg_.inflow_speed, 0, 0};
    case NodeRole::kWall:
      return mesh_velocity(blk, db.coords[i]);  // no-slip on rotating blade
    case NodeRole::kFringe:
      return Vec3{blk.u[i], blk.v[i], blk.w[i]};  // donor-interpolated
    case NodeRole::kHole:
      return Vec3{};
    default:
      return Vec3{blk.u[i], blk.v[i], blk.w[i]};
  }
}

void Simulation::exchange_fringe_values() {
  // Overset (additive Schwarz) coupling: every fringe node takes the
  // donor-interpolated field values, used as Dirichlet data by the next
  // per-mesh solves.
  perf::PhaseScope scope(rt_->tracer(), "overset");
  for (const auto& c : system_->constraints) {
    MeshBlock& rec = blocks_[static_cast<std::size_t>(c.mesh)];
    const MeshBlock& don = blocks_[static_cast<std::size_t>(c.donor_mesh)];
    Real su = 0, sv = 0, sw = 0, sp = 0, ss = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      const auto d = static_cast<std::size_t>(c.donors[static_cast<std::size_t>(k)]);
      const Real wk = c.weights[static_cast<std::size_t>(k)];
      su += wk * don.u[d];
      sv += wk * don.v[d];
      sw += wk * don.w[d];
      sp += wk * don.p[d];
      ss += wk * don.scl[d];
    }
    const auto i = static_cast<std::size_t>(c.node);
    rec.u[i] = su;
    rec.v[i] = sv;
    rec.w[i] = sw;
    rec.p[i] = sp;
    rec.scl[i] = ss;
  }
  // Charge: the TIOGA-style exchange moves 5 fields x 8 donors per
  // constraint between ranks.
  const auto nc = static_cast<double>(system_->constraints.size());
  rt_->tracer().kernel(RankId{0}, 80.0 * nc, 320.0 * nc);
  rt_->tracer().collective(8.0);
}

void Simulation::compute_fluxes(MeshBlock& blk, std::size_t begin,
                                std::size_t end) const {
  const mesh::MeshDB& db = *blk.db;
  for (std::size_t e = begin; e < end; ++e) {
    const auto& edge = db.edges[e];
    const auto a = static_cast<std::size_t>(edge.a);
    const auto b = static_cast<std::size_t>(edge.b);
    const Vec3 uavg{0.5 * (blk.u[a] + blk.u[b]), 0.5 * (blk.v[a] + blk.v[b]),
                    0.5 * (blk.w[a] + blk.w[b])};
    const Vec3 um = mesh_velocity(
        blk, (db.coords[a] + db.coords[b]) * 0.5);
    blk.edge_flux[e] = cfg_.density * (uavg - um).dot(edge.area);
  }
}

void Simulation::add_transport_edges(
    MeshBlock& blk, std::span<const std::uint32_t> edges) const {
  const mesh::MeshDB& db = *blk.db;
  for (const std::uint32_t e : edges) {
    const auto& edge = db.edges[e];
    const Real diff = cfg_.viscosity * edge.coeff;
    const Real f = blk.edge_flux[e];
    // Upwinded advection + diffusion, rows a and b.
    const std::array<Real, 4> m{std::max(f, 0.0) + diff,
                                std::min(f, 0.0) - diff,
                                std::min(-f, 0.0) - diff,
                                std::max(-f, 0.0) + diff};
    blk.mom_graph->add_edge(e, m, {0.0, 0.0}, cfg_.atomic_local_assembly);
  }
}

void Simulation::fill_momentum_rhs(MeshBlock& blk, RankId r,
                                   std::size_t component) const {
  const mesh::MeshDB& db = *blk.db;
  const std::size_t n = blk.u.size();
  const auto nodes = blk.layout.nodes_of(r);
  for (const GlobalIndex node : nodes) {
    const auto i = static_cast<std::size_t>(node);
    if (blk.mom_dirichlet[i]) {
      const Vec3 bc = boundary_velocity(blk, node);
      const Real val = component == 0 ? bc.x : (component == 1 ? bc.y : bc.z);
      blk.mom_graph->add_node_rhs(node, val, cfg_.atomic_local_assembly);
    } else {
      const Real vol = db.node_volume[i];
      const Real mass = cfg_.density * vol / cfg_.dt;
      const Real uo = component == 0 ? blk.u_old[i]
                      : component == 1 ? blk.v_old[i] : blk.w_old[i];
      const Real gp = blk.node_scratch[component * n + i];
      blk.mom_graph->add_node_rhs(node, mass * uo - vol * gp,
                                  cfg_.atomic_local_assembly);
    }
  }
  charge_items(rt_->tracer(), r, nodes.size(), 8.0, 48.0);
}

// The physics passes and the local assembly below are rank bodies. The
// physics splits edges and nodes into contiguous ranges (see chunk());
// the local assembly has each rank add its own edges in global order,
// then its own nodes, into its own RankSystem, which is the serial
// loop's addend order at every slot. Each body makes its rank's share of
// the hand-set charges, so the modeled ledger is the serial one.

void Simulation::solve_momentum(MeshBlock& blk) {
  perf::Tracer& tracer = rt_->tracer();
  perf::PhaseScope eq(tracer, "momentum");
  const mesh::MeshDB& db = *blk.db;
  const assembly::MeshLayout& layout = blk.layout;
  const int nranks = rt_->nranks();
  const Real rho = cfg_.density;

  // Fluxes, then the nodal pressure gradient (for the momentum RHS).
  {
    perf::PhaseScope ph(tracer, "physics");
    EXW_PURITY_REGION("picard-physics");
    rt_->parallel_for_ranks([&](RankId r) {
      const Range edges = chunk(db.edges.size(), r, nranks);
      compute_fluxes(blk, edges.begin, edges.end);  // exw-comm-ok: Vec3::dot, a 3-vector product
      const std::size_t n = blk.p.size();
      const Range nodes = chunk(n, r, nranks);
      for (std::size_t i = nodes.begin; i < nodes.end; ++i) {
        Vec3 g = mesh::gather_area_sum(db, blk.incidence, i,
                                       [&](std::size_t ia, std::size_t ib) {
                                         return 0.5 * (blk.p[ia] + blk.p[ib]);
                                       });
        g += db.node_boundary_area[i] * blk.p[i];
        const Real vol = std::max(db.node_volume[i], Real{1e-30});
        g = g * (1.0 / vol);
        blk.node_scratch[i] = g.x;
        blk.node_scratch[n + i] = g.y;
        blk.node_scratch[2 * n + i] = g.z;
      }
      charge_items(tracer, r, layout.edges_of(r).size(), 60.0, 200.0);
      charge_items(tracer, r, layout.nodes_of(r).size(), 10.0, 60.0);
    });
  }

  // Local assembly: matrix once + RHS for the u component.
  {
    perf::PhaseScope ph(tracer, "local");
    EXW_PURITY_REGION("picard-local");
    rt_->parallel_for_ranks([&](RankId r) {
      blk.mom_graph->rank(r).zero_values();
      const auto edges = layout.edges_of(r);
      add_transport_edges(blk, edges);
      const auto nodes = layout.nodes_of(r);
      for (const GlobalIndex node : nodes) {
        const auto i = static_cast<std::size_t>(node);
        if (blk.mom_dirichlet[i]) {
          blk.mom_graph->add_node(node, 1.0, 0.0, cfg_.atomic_local_assembly);
        } else {
          // Time term plus the boundary advection closure (outflow faces
          // of the node's dual cell); together with the edge fluxes this
          // makes constant velocity an exact steady state.
          const Vec3 ui{blk.u[i], blk.v[i], blk.w[i]};
          const Real fb = rho * (ui - mesh_velocity(blk, db.coords[i]))
                                    .dot(db.node_boundary_area[i]);  // exw-comm-ok: Vec3::dot, a 3-vector product
          blk.mom_graph->add_node(node, rho * db.node_volume[i] / cfg_.dt + fb,
                                  0.0, cfg_.atomic_local_assembly);
        }
      }
      fill_momentum_rhs(blk, r, 0);
      charge_items(tracer, r, edges.size(), 30.0, 160.0);
      charge_items(tracer, r, nodes.size(), 6.0, 40.0);
    });
  }

  {
    perf::PhaseScope ph(tracer, "global");
    assemble_system(blk.mom_cache, *blk.mom_graph);
  }
  linalg::ParCsr& a = blk.mom_cache.matrix;
  linalg::ParVector& rhs = blk.mom_cache.rhs;

  solver::SmootherPrecond* precond = nullptr;
  {
    perf::PhaseScope ph(tracer, "setup");
    precond = &momentum_smoother(blk, mom_stats_);
  }

  // RHS-only pass per remaining component: the matrix (and its
  // value-fill plan) is reused across the three velocity components.
  auto assemble_component_rhs = [&](std::size_t component) {
    {
      perf::PhaseScope ph(tracer, "local");
      EXW_PURITY_REGION("picard-local");
      rt_->parallel_for_ranks([&](RankId r) {
        blk.mom_graph->rank(r).zero_rhs();
        fill_momentum_rhs(blk, r, component);
      });
    }
    perf::PhaseScope ph(tracer, "global");
    assemble_rhs(blk.mom_cache, *blk.mom_graph);
  };

  if (cfg_.use_fused_momentum) {
    // Fused path: one 3-lane multi-RHS GMRES reads the matrix's index
    // structure once per fused SpMV / smoother sweep for all components
    // and batches the reduction payloads into one allreduce each —
    // bitwise-identical per component to the sequential branch below.
    linalg::ParVector& b = blk.mom_b;
    linalg::ParVector& x = blk.mom_x;
    assembly::field_to_lane(layout, blk.u, x, 0);
    assembly::field_to_lane(layout, blk.v, x, 1);
    assembly::field_to_lane(layout, blk.w, x, 2);
    b.set_lane(0, rhs);
    for (std::size_t component = 1; component < 3; ++component) {
      assemble_component_rhs(component);
      b.set_lane(component, rhs);
    }
    solver::MultiSolveStats st;
    {
      perf::PhaseScope ph(tracer, "solve");
      st = solver::gmres_solve_multi(a, b, x, *precond, cfg_.momentum_gmres);
    }
    for (const auto& lane : st.lane) {
      count_solve(mom_stats_, lane);
    }
    assembly::lane_to_field(layout, x, 0, blk.u);
    assembly::lane_to_field(layout, x, 1, blk.v);
    assembly::lane_to_field(layout, x, 2, blk.w);
    return;
  }

  linalg::ParVector& x = blk.scl_x;
  auto solve_component = [&](RealVector& field) {
    assembly::field_to_lane(layout, field, x, 0);
    solver::SolveStats st;
    {
      perf::PhaseScope ph(tracer, "solve");
      st = solver::gmres_solve(a, rhs, x, *precond, cfg_.momentum_gmres);
    }
    count_solve(mom_stats_, st);
    assembly::lane_to_field(layout, x, 0, field);
  };

  solve_component(blk.u);
  for (std::size_t component = 1; component < 3; ++component) {
    assemble_component_rhs(component);
    solve_component(component == 1 ? blk.v : blk.w);
  }
}

void Simulation::solve_continuity(MeshBlock& blk) {
  perf::Tracer& tracer = rt_->tracer();
  perf::PhaseScope eq(tracer, "continuity");
  const mesh::MeshDB& db = *blk.db;
  const assembly::MeshLayout& layout = blk.layout;
  const int nranks = rt_->nranks();
  const Real rho = cfg_.density;
  const auto n = static_cast<std::size_t>(db.num_nodes());
  RealVector& div = blk.node_scratch;

  // Physics: volume divergence of the predicted velocity.
  {
    perf::PhaseScope ph(tracer, "physics");
    EXW_PURITY_REGION("picard-physics");
    rt_->parallel_for_ranks([&](RankId r) {
      const Range edges = chunk(db.edges.size(), r, nranks);
      compute_fluxes(blk, edges.begin, edges.end);  // exw-comm-ok: Vec3::dot, a 3-vector product
    });
    // Every flux is in place at the region barrier.
    rt_->parallel_for_ranks([&](RankId r) {
      const Range nodes = chunk(n, r, nranks);
      for (std::size_t i = nodes.begin; i < nodes.end; ++i) {
        const Real d = mesh::gather_net(db, blk.incidence, i,
                                        [&](std::uint32_t e) {
                                          return blk.edge_flux[e] / rho;
                                        });
        const Vec3 ui{blk.u[i], blk.v[i], blk.w[i]};
        div[i] = d + (ui - mesh_velocity(blk, db.coords[i]))
                         .dot(db.node_boundary_area[i]);  // exw-comm-ok: Vec3::dot, a 3-vector product
      }
      charge_items(tracer, r, layout.edges_of(r).size(), 20.0, 120.0);
    });
  }

  {
    perf::PhaseScope ph(tracer, "local");
    EXW_PURITY_REGION("picard-local");
    rt_->parallel_for_ranks([&](RankId r) {
      blk.prs_graph->rank(r).zero_values();
      const auto edges = layout.edges_of(r);
      for (const std::uint32_t e : edges) {
        const Real g = db.edges[e].coeff;
        blk.prs_graph->add_edge(e, {g, -g, -g, g}, {0.0, 0.0},
                                cfg_.atomic_local_assembly);
      }
      const auto nodes = layout.nodes_of(r);
      for (const GlobalIndex node : nodes) {
        const auto i = static_cast<std::size_t>(node);
        if (blk.prs_dirichlet[i]) {
          // Solve for total pressure: Dirichlet rows pin p_new; since the
          // RHS later gains A p_old, store (p_bc - p_old) here.
          Real p_bc = 0.0;  // outflow and hole reference pressure
          if (db.roles[i] == NodeRole::kFringe) {
            p_bc = blk.p[i];  // donor-interpolated
          }
          blk.prs_graph->add_node(node, 1.0, p_bc - blk.p[i],
                                  cfg_.atomic_local_assembly);
        } else {
          blk.prs_graph->add_node(node, 0.0, -(rho / cfg_.dt) * div[i],
                                  cfg_.atomic_local_assembly);
        }
      }
      charge_items(tracer, r, edges.size(), 16.0, 120.0);
      charge_items(tracer, r, nodes.size(), 6.0, 40.0);
    });
  }
  linalg::ParVector& p_old_vec = blk.prs_old;
  {
    perf::PhaseScope ph(tracer, "global");
    assemble_system(blk.prs_cache, *blk.prs_graph);
  }
  linalg::ParCsr& a = blk.prs_cache.matrix;
  // The in-place matvec below makes rhs state-dependent; the next
  // assemble_system overwrites it entirely, so aliasing the cache is safe.
  linalg::ParVector& rhs = blk.prs_cache.rhs;
  {
    perf::PhaseScope ph(tracer, "global");
    // Total-pressure form: rhs += A p_old.
    assembly::field_to_lane(layout, blk.p, p_old_vec, 0);
    a.matvec(p_old_vec, rhs, 1.0, 1.0);
  }

  // Preconditioner: the hierarchy cache decides between rebuild, refresh
  // and reuse (amg/cache.hpp); this only counts its answer. Whether the
  // matrix changed is checked once, here, for the cache and the projector
  // alike, and only when one of them keeps state across solves.
  amg::HierarchyCache& pc = blk.prs_precond;
  solver::GuessProjector& proj = blk.prs_projector;
  bool changed = true;
  {
    perf::PhaseScope ph(tracer, "setup");
    if (cfg_.use_amg_cache || proj.max_size() > 0) {
      changed = blk.prs_values.values_changed(a, blk.prs_graph->generation());
    }
    // The sim-level precision knob rides into the AMG config here so it
    // participates in the cache key: toggling it forces a rebuild.
    amg::AmgConfig acfg = cfg_.pressure_amg;
    acfg.precision = cfg_.precond_precision;
    switch (pc.update(a, acfg, blk.prs_graph->generation(),
                      cfg_.use_amg_cache, changed)) {
      case amg::CacheAction::kRebuild:
        prs_stats_.amg_rebuilds += 1;
        break;
      case amg::CacheAction::kRefresh:
        prs_stats_.amg_refreshes += 1;
        break;
      case amg::CacheAction::kReuse:
        prs_stats_.amg_reuses += 1;
        break;
    }
  }
  solver::AmgPrecond precond(pc.hierarchy());
  prs_stats_.amg_levels = pc.hierarchy().num_levels();
  prs_stats_.amg_operator_complexity = pc.hierarchy().operator_complexity();

  linalg::ParVector& x = blk.prs_x;
  x.copy_from(p_old_vec);
  solver::SolveStats st;
  {
    perf::PhaseScope ph(tracer, "solve");
    if (proj.max_size() > 0) {
      perf::PhaseScope pj(tracer, "project");
      proj.project(a, rhs, x, changed);
    }
    st = solver::gmres_solve(a, rhs, x, precond, cfg_.pressure_gmres);
    if (proj.max_size() > 0) {
      perf::PhaseScope pj(tracer, "project");
      proj.absorb(a, x, st);
    }
  }
  pc.note_solve(st.iterations);
  count_solve(prs_stats_, st);

  // Projection: u -= (dt / rho) grad(p_new - p_old); p := p_new.
  {
    perf::PhaseScope ph(tracer, "physics");
    EXW_PURITY_REGION("picard-physics");
    RealVector& dp = blk.node_scratch;
    // The correction, copied out of each rank's rows.
    rt_->parallel_for_ranks([&](RankId r) {
      const auto nodes = layout.nodes_of(r);
      const auto xr = std::as_const(x).lane_span(r, 0);
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const auto i = static_cast<std::size_t>(nodes[k]);
        dp[i] = xr[k] - blk.p[i];
        blk.p[i] += dp[i];
      }
    });
    // Every correction is in place at the region barrier: gather its
    // gradient and correct the velocity node by node.
    const Real c = cfg_.dt / rho;
    rt_->parallel_for_ranks([&](RankId r) {
      const Range nodes = chunk(n, r, nranks);
      for (std::size_t i = nodes.begin; i < nodes.end; ++i) {
        if (blk.mom_dirichlet[i]) continue;  // keep boundary velocities
        Vec3 g = mesh::gather_area_sum(db, blk.incidence, i,
                                       [&](std::size_t ia, std::size_t ib) {
                                         return 0.5 * (dp[ia] + dp[ib]);
                                       });
        g += db.node_boundary_area[i] * dp[i];
        const Real vol = std::max(db.node_volume[i], Real{1e-30});
        blk.u[i] -= c * g.x / vol;
        blk.v[i] -= c * g.y / vol;
        blk.w[i] -= c * g.z / vol;
      }
      charge_items(tracer, r, layout.edges_of(r).size(), 30.0, 160.0);
      charge_items(tracer, r, layout.nodes_of(r).size(), 10.0, 60.0);
    });
  }
}

void Simulation::solve_scalar(MeshBlock& blk) {
  perf::Tracer& tracer = rt_->tracer();
  perf::PhaseScope eq(tracer, "scalar");
  const mesh::MeshDB& db = *blk.db;
  const assembly::MeshLayout& layout = blk.layout;
  const int nranks = rt_->nranks();
  const Real rho = cfg_.density;

  {
    perf::PhaseScope ph(tracer, "physics");
    EXW_PURITY_REGION("picard-physics");
    rt_->parallel_for_ranks([&](RankId r) {
      const Range edges = chunk(db.edges.size(), r, nranks);
      compute_fluxes(blk, edges.begin, edges.end);  // exw-comm-ok: Vec3::dot, a 3-vector product
      charge_items(tracer, r, layout.edges_of(r).size(), 30.0, 150.0);
    });
  }
  {
    perf::PhaseScope ph(tracer, "local");
    EXW_PURITY_REGION("picard-local");
    rt_->parallel_for_ranks([&](RankId r) {
      blk.mom_graph->rank(r).zero_values();
      const auto edges = layout.edges_of(r);
      add_transport_edges(blk, edges);
      const auto nodes = layout.nodes_of(r);
      for (const GlobalIndex node : nodes) {
        const auto i = static_cast<std::size_t>(node);
        if (blk.mom_dirichlet[i]) {
          Real bc = cfg_.scalar_inflow;
          if (db.roles[i] == NodeRole::kFringe) bc = blk.scl[i];
          if (db.roles[i] == NodeRole::kWall || db.roles[i] == NodeRole::kHole) bc = 0.0;
          blk.mom_graph->add_node(node, 1.0, bc, cfg_.atomic_local_assembly);
        } else {
          const Real vol = db.node_volume[i];
          const Real mass = rho * vol / cfg_.dt;
          const Vec3 ui{blk.u[i], blk.v[i], blk.w[i]};
          const Real fb = rho * (ui - mesh_velocity(blk, db.coords[i]))
                                    .dot(db.node_boundary_area[i]);  // exw-comm-ok: Vec3::dot, a 3-vector product
          // Shear-production-like source keeps the scalar field nontrivial.
          blk.mom_graph->add_node(node, mass + fb,
                                  mass * blk.scl_old[i] + cfg_.scalar_source * vol,
                                  cfg_.atomic_local_assembly);
        }
      }
      charge_items(tracer, r, edges.size(), 30.0, 160.0);
      charge_items(tracer, r, nodes.size(), 8.0, 48.0);
    });
  }

  {
    perf::PhaseScope ph(tracer, "global");
    // The scalar system shares the momentum graph (same pattern), so it
    // reuses the momentum plan cache; only values differ.
    assemble_system(blk.mom_cache, *blk.mom_graph);
  }
  linalg::ParCsr& a = blk.mom_cache.matrix;
  linalg::ParVector& rhs = blk.mom_cache.rhs;
  solver::SmootherPrecond* precond = nullptr;
  {
    perf::PhaseScope ph(tracer, "setup");
    // Same matrix slot as momentum (shared graph): this is always a
    // value rebind unless the scalar assembly went cold.
    precond = &momentum_smoother(blk, scl_stats_);
  }
  linalg::ParVector& x = blk.scl_x;
  assembly::field_to_lane(layout, blk.scl, x, 0);
  solver::SolveStats st;
  {
    perf::PhaseScope ph(tracer, "solve");
    st = solver::gmres_solve(a, rhs, x, *precond, cfg_.momentum_gmres);
  }
  count_solve(scl_stats_, st);
  assembly::lane_to_field(layout, x, 0, blk.scl);
}

void Simulation::step() {
  perf::Tracer& tracer = rt_->tracer();
  time_ += cfg_.dt;
  step_count_ += 1;

  {
    // Mesh motion + overset connectivity update (outside NLI, as in the
    // paper's breakdowns).
    perf::PhaseScope scope(tracer, "motion");
    mesh::advance_motion(*system_, time_);
    const auto nc = static_cast<double>(system_->constraints.size());
    tracer.kernel(RankId{0}, 200.0 * nc, 400.0 * nc);
  }

  for (auto& blk : blocks_) {
    blk.u_old = blk.u;
    blk.v_old = blk.v;
    blk.w_old = blk.w;
    blk.scl_old = blk.scl;
  }

  // Per-step stats: reset once here, accumulated across the Picard loop
  // (resetting inside the solve routines made every step report only its
  // last Picard iteration — solves was always 1).
  mom_stats_ = EquationStats{};
  prs_stats_ = EquationStats{};
  scl_stats_ = EquationStats{};

  perf::PhaseScope nli(tracer, "nli");
  for (std::int64_t picard = 0; picard < cfg_.picard_iters; ++picard) {
    exchange_fringe_values();
    for (auto& blk : blocks_) {
      solve_momentum(blk);
    }
    for (auto& blk : blocks_) {
      solve_continuity(blk);
    }
    for (auto& blk : blocks_) {
      solve_scalar(blk);
    }
  }
}

std::vector<double> Simulation::pressure_nnz_per_rank(int mesh_index) const {
  const MeshBlock& blk = blocks_[static_cast<std::size_t>(mesh_index)];
  std::vector<double> nnz(static_cast<std::size_t>(rt_->nranks()), 0.0);
  for (RankId r{0}; r.value() < blk.prs_graph->nranks(); ++r) {
    nnz[static_cast<std::size_t>(r)] +=
        static_cast<double>(blk.prs_graph->rank(r).owned.nnz());
  }
  return nnz;
}

bool Simulation::write_vtk(const std::string& prefix) const {
  bool ok = true;
  for (const auto& blk : blocks_) {
    mesh::VtkFields fields;
    fields.scalars["pressure"] = blk.p;
    fields.scalars["scalar"] = blk.scl;
    std::vector<Real> vel(3 * blk.u.size());
    for (std::size_t i = 0; i < blk.u.size(); ++i) {
      vel[3 * i] = blk.u[i];
      vel[3 * i + 1] = blk.v[i];
      vel[3 * i + 2] = blk.w[i];
    }
    fields.vectors["velocity"] = std::move(vel);
    const std::string path = prefix + "_" + blk.db->name + "_" +
                             std::to_string(step_count_) + ".vtk";
    ok = mesh::write_vtk(*blk.db, fields, path) && ok;
  }
  return ok;
}

Real Simulation::velocity_rms() const {
  double sum = 0;
  double count = 0;
  for (const auto& blk : blocks_) {
    for (std::size_t i = 0; i < blk.u.size(); ++i) {
      sum += blk.u[i] * blk.u[i] + blk.v[i] * blk.v[i] + blk.w[i] * blk.w[i];
      count += 1;
    }
  }
  return std::sqrt(sum / std::max(count, 1.0));
}

Real Simulation::divergence_rms() const {
  double sum = 0;
  double count = 0;
  for (const auto& blk : blocks_) {
    const mesh::MeshDB& db = *blk.db;
    RealVector div(static_cast<std::size_t>(db.num_nodes()), 0.0);
    for (std::size_t e = 0; e < db.edges.size(); ++e) {
      const auto& edge = db.edges[e];
      const auto a = static_cast<std::size_t>(edge.a);
      const auto b = static_cast<std::size_t>(edge.b);
      const Vec3 uavg{0.5 * (blk.u[a] + blk.u[b]), 0.5 * (blk.v[a] + blk.v[b]),
                      0.5 * (blk.w[a] + blk.w[b])};
      const Vec3 um = mesh_velocity(blk, (db.coords[a] + db.coords[b]) * 0.5);
      const Real f = (uavg - um).dot(edge.area);
      div[a] += f;
      div[b] -= f;
    }
    for (std::size_t i = 0; i < div.size(); ++i) {
      const Vec3 ui{blk.u[i], blk.v[i], blk.w[i]};
      div[i] += (ui - mesh_velocity(blk, db.coords[i]))
                    .dot(db.node_boundary_area[i]);
    }
    for (std::size_t i = 0; i < div.size(); ++i) {
      if (blk.prs_dirichlet[i] || blk.mom_dirichlet[i]) continue;
      const Real d = div[i] / std::max(db.node_volume[i], Real{1e-30});
      sum += d * d;
      count += 1;
    }
  }
  return std::sqrt(sum / std::max(count, 1.0));
}

const RealVector& Simulation::field(int mesh_index, Field f) const {
  const MeshBlock& blk = blocks_[static_cast<std::size_t>(mesh_index)];
  switch (f) {
    case Field::kU:
      return blk.u;
    case Field::kV:
      return blk.v;
    case Field::kW:
      return blk.w;
    case Field::kP:
      return blk.p;
    case Field::kScalar:
      break;
  }
  return blk.scl;
}

Real Simulation::scalar_mean() const {
  double sum = 0;
  double count = 0;
  for (const auto& blk : blocks_) {
    for (Real s : blk.scl) {
      sum += s;
      count += 1;
    }
  }
  return sum / std::max(count, 1.0);
}

}  // namespace exw::cfd
