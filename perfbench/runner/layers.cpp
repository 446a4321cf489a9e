// Per-layer timings of the traced run: each metric is the median of
// repeated calls into one module's public functions, on the workload's own
// mesh, partition, rank count, pool and configuration. One call covers
// every mesh block of the case, as one Picard pass of the simulation does.
// A layer the workload's step path never calls is still timed, and listed
// as bypassed.

#include <algorithm>
#include <cmath>

#include "amg/cache.hpp"
#include "amg/rap.hpp"
#include "assembly/global.hpp"
#include "assembly/graph.hpp"
#include "assembly/layout.hpp"
#include "assembly/plan.hpp"
#include "common.hpp"
#include "linalg/multivector.hpp"
#include "mesh/motion.hpp"
#include "par/tags.hpp"
#include "solver/gmres.hpp"
#include "solver/precond.hpp"

namespace perfbench {

namespace {

using namespace exw;
using mesh::NodeRole;

/// One mesh block's assembled systems and preconditioners.
struct Block {
  const mesh::MeshDB* db = nullptr;
  assembly::MeshLayout layout;
  std::vector<std::uint8_t> mom_dirichlet, prs_dirichlet;
  std::unique_ptr<assembly::EquationGraph> mom_graph, prs_graph;
  assembly::AssemblyPlan prs_plan, mom_plan;
  linalg::ParCsr a_p, a_m;
  linalg::ParVector b_p, b_m;
  amg::HierarchyCache amg;
  std::unique_ptr<solver::SmootherPrecond> sgs2;
};

/// Dirichlet masks per equation family, as cfd::Simulation sets them up.
void dirichlet_masks(Block& b) {
  const std::size_t n = b.db->roles.size();
  b.mom_dirichlet.assign(n, 0);
  b.prs_dirichlet.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    switch (b.db->roles[i]) {
      case NodeRole::kInterior:
        break;
      case NodeRole::kInflow:
      case NodeRole::kSymmetry:
      case NodeRole::kWall:
        b.mom_dirichlet[i] = 1;
        break;
      case NodeRole::kOutflow:
        b.prs_dirichlet[i] = 1;
        break;
      case NodeRole::kFringe:
      case NodeRole::kHole:
        b.mom_dirichlet[i] = 1;
        b.prs_dirichlet[i] = 1;
        break;
    }
  }
}

/// Stage-2 fill of the pressure-Poisson system: edge Laplacian, Dirichlet
/// identity rows, and a smooth source on the other rows.
void fill_pressure(Block& b, const cfd::SimConfig& cfg) {
  const mesh::MeshDB& db = *b.db;
  assembly::EquationGraph& g = *b.prs_graph;
  g.zero_values();
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    const Real c = db.edges[e].coeff;
    g.add_edge(e, {c, -c, -c, c}, {0.0, 0.0}, cfg.atomic_local_assembly);
  }
  const Real scale = cfg.density / cfg.dt;
  for (GlobalIndex node{0}; node < db.num_nodes(); ++node) {
    const auto i = static_cast<std::size_t>(node);
    if (b.prs_dirichlet[i]) {
      g.add_node(node, 1.0, 0.0, cfg.atomic_local_assembly);
    } else {
      const Real src = scale * db.node_volume[i] * std::cos(db.coords[i].x / 20.0);
      g.add_node(node, 0.0, src, cfg.atomic_local_assembly);
    }
  }
}

/// Stage-2 fill of the momentum system for uniform inflow: upwinded
/// advection plus diffusion on edges, time term on the diagonal.
void fill_momentum(Block& b, const cfd::SimConfig& cfg) {
  const mesh::MeshDB& db = *b.db;
  assembly::EquationGraph& g = *b.mom_graph;
  const Real rho = cfg.density;
  const Real u = cfg.inflow_speed;
  g.zero_values();
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    const Real diff = cfg.viscosity * db.edges[e].coeff;
    const Real f = rho * u * db.edges[e].area.x;
    g.add_edge(e,
               {std::max(f, 0.0) + diff, std::min(f, 0.0) - diff,
                std::min(-f, 0.0) - diff, std::max(-f, 0.0) + diff},
               {0.0, 0.0}, cfg.atomic_local_assembly);
  }
  for (GlobalIndex node{0}; node < db.num_nodes(); ++node) {
    const auto i = static_cast<std::size_t>(node);
    if (b.mom_dirichlet[i]) {
      g.add_node(node, 1.0, u, cfg.atomic_local_assembly);
    } else {
      const Real mass = rho * db.node_volume[i] / cfg.dt;
      const Real fb = rho * u * db.node_boundary_area[i].x;
      g.add_node(node, mass + fb, mass * u, cfg.atomic_local_assembly);
    }
  }
}

/// Times repeated calls of one layer: at least `min_reps` calls and
/// `min_total` seconds (capped at `max_reps` calls), one span per call.
class LayerTimer {
 public:
  LayerTimer(SpanLog& spans, int parent) : spans_(spans), parent_(parent) {}

  template <typename F>
  double median_s(const char* name, F&& fn, int min_reps = 3,
                  double min_total = 0.2, int max_reps = 200) {
    std::vector<double> t;
    double total = 0;
    while (static_cast<int>(t.size()) < min_reps ||
           (total < min_total && static_cast<int>(t.size()) < max_reps)) {
      const int id = spans_.begin(name, parent_);
      fn();
      spans_.end(id);
      t.push_back(spans_.duration(id));
      total += t.back();
    }
    return median(t);
  }

 private:
  SpanLog& spans_;
  int parent_;
};

}  // namespace

LayerResult time_layers(const CaseSpec& spec, SpanLog& spans, int parent,
                        const StepCounts& c, double step_s) {
  const cfd::SimConfig& cfg = spec.cfg;
  const bool plan_path = cfg.use_assembly_plan &&
                         cfg.assembly_algo == assembly::GlobalAssemblyAlgo::kSortReduce;
  const bool fused = cfg.use_fused_momentum;
  LayerResult res;
  auto put = [&](const char* name, double v, const char* unit) {
    res.metrics.push_back({name, v, unit});
  };
  // Bypassed layers are still timed on the workload's data; the layer
  // accounting gives them no calls per step.
  auto bypassed_if = [&](bool off_path, const char* name) {
    if (off_path) res.bypassed.emplace_back(name);
  };
  const int root = spans.begin("layers", parent);
  LayerTimer timer(spans, root);

  // --- mesh ---------------------------------------------------------------
  mesh::OversetSystem sys;
  put("mesh.case_build_s", timer.median_s("mesh.make_turbine_case", [&] {
        sys = mesh::make_turbine_case(spec.kase, spec.refine);
      }, 3, 0.0), "s");
  double t = 0;
  put("mesh.motion_s", timer.median_s("mesh.advance_motion", [&] {
        t += cfg.dt;
        mesh::advance_motion(sys, t);
      }), "s");

  par::Runtime rt(spec.nranks);
  std::vector<Block> blocks(sys.meshes.size());
  for (std::size_t m = 0; m < blocks.size(); ++m) {
    blocks[m].db = &sys.meshes[m];
    dirichlet_masks(blocks[m]);
  }

  // --- partition and assembly --------------------------------------------
  put("part.layout_s", timer.median_s("assembly.make_layout", [&] {
        for (Block& b : blocks) {
          b.layout = assembly::make_layout(*b.db, spec.nranks, cfg.partition);
        }
      }), "s");
  put("assembly.graph_s", timer.median_s("assembly.EquationGraph", [&] {
        for (Block& b : blocks) {
          b.mom_graph = std::make_unique<assembly::EquationGraph>(
              *b.db, b.layout, b.mom_dirichlet);
          b.prs_graph = std::make_unique<assembly::EquationGraph>(
              *b.db, b.layout, b.prs_dirichlet);
        }
      }), "s");
  put("assembly.local_s", timer.median_s("assembly.local", [&] {
        for (Block& b : blocks) fill_pressure(b, cfg);
      }), "s");
  for (Block& b : blocks) fill_momentum(b, cfg);

  auto views = [](const Block& b, bool prs) {
    return assembly::system_views(prs ? *b.prs_graph : *b.mom_graph);
  };
  // Plan refills and cold assembly (either algorithm) give the same
  // matrices, so later layers see the same systems on both paths.
  put("assembly.plan_build_s", timer.median_s("assembly.AssemblyPlan.build", [&] {
        for (Block& b : blocks) {
          const auto& rows = b.layout.numbering.rows;
          b.prs_plan = assembly::AssemblyPlan::build(rt, rows, rows, views(b, true));
          b.a_p = b.prs_plan.create_matrix(rt);
        }
      }), "s");
  bypassed_if(!plan_path, "assembly.plan_build_s");
  for (Block& b : blocks) {
    const auto& rows = b.layout.numbering.rows;
    b.b_p = b.prs_plan.create_vector(rt);
    b.mom_plan = assembly::AssemblyPlan::build(rt, rows, rows, views(b, false));
    b.a_m = b.mom_plan.create_matrix(rt);
    b.b_m = b.mom_plan.create_vector(rt);
    b.mom_plan.refill_matrix(rt, views(b, false), b.a_m);
    b.mom_plan.refill_vector(rt, views(b, false), b.b_m);
  }
  put("assembly.refill_s", timer.median_s("assembly.refill", [&] {
        for (Block& b : blocks) {
          const auto v = views(b, true);
          b.prs_plan.refill_matrix(rt, v, b.a_p);
          b.prs_plan.refill_vector(rt, v, b.b_p);
        }
      }), "s");
  bypassed_if(!plan_path, "assembly.refill_s");
  put("assembly.cold_s", timer.median_s("assembly.assemble", [&] {
        for (Block& b : blocks) {
          const auto v = views(b, true);
          const auto& rows = b.layout.numbering.rows;
          b.a_p = assembly::assemble_matrix(rt, rows, rows, v, cfg.assembly_algo);
          b.b_p = assembly::assemble_vector(rt, rows, v, cfg.assembly_algo);
        }
      }), "s");
  bypassed_if(plan_path, "assembly.cold_s");

  // --- linalg: 3-lane vectors over the momentum rows -----------------------
  std::vector<linalg::ParMultiVector> x3, y3;
  for (Block& b : blocks) {
    const auto& rows = b.layout.numbering.rows;
    x3.emplace_back(rt, rows, 3);
    y3.emplace_back(rt, rows, 3);
    for (std::size_t lane = 0; lane < 3; ++lane) x3.back().set_lane(lane, b.b_m);
    x3.back().scale_lanes(std::vector<Real>{1.0, 1.25, 1.5});
  }
  std::vector<linalg::ParVector> y1;
  for (Block& b : blocks) y1.emplace_back(rt, b.layout.numbering.rows);
  put("linalg.spmv_s", timer.median_s("linalg.ParCsr.matvec", [&] {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          blocks[k].a_p.matvec(blocks[k].b_p, y1[k]);
        }
      }), "s");
  put("linalg.spmv_multi_s", timer.median_s("linalg.ParCsr.matvec_multi", [&] {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          blocks[k].a_m.matvec_multi(x3[k], y3[k]);
        }
      }), "s");
  bypassed_if(!fused, "linalg.spmv_multi_s");
  put("linalg.dots_s", timer.median_s("linalg.ParMultiVector.dots", [&] {
        for (std::size_t k = 0; k < blocks.size(); ++k) (void)x3[k].dots(x3[k]);
      }), "s");

  // --- AMG ------------------------------------------------------------------
  amg::AmgConfig acfg = cfg.pressure_amg;
  acfg.precision = cfg.precond_precision;
  put("amg.setup_s", timer.median_s("amg.HierarchyCache.rebuild", [&] {
        for (Block& b : blocks) {
          b.amg.rebuild(b.a_p, acfg, b.prs_graph->generation(), cfg.use_amg_cache);
        }
      }), "s");
  if (!cfg.use_amg_cache) {
    // Refresh needs the replay plans a caching setup freezes; the frozen
    // hierarchy is the same one, so the layers below are unaffected.
    for (Block& b : blocks) {
      b.amg.rebuild(b.a_p, acfg, b.prs_graph->generation(), /*freeze=*/true);
    }
  }
  put("amg.refresh_s", timer.median_s("amg.HierarchyCache.refresh", [&] {
        for (Block& b : blocks) b.amg.refresh(b.a_p);
      }), "s");
  bypassed_if(!cfg.use_amg_cache, "amg.refresh_s");
  put("amg.rap_s", timer.median_s("amg.galerkin_rap", [&] {
        for (Block& b : blocks) {
          const amg::AmgLevel& l0 = b.amg.hierarchy().level(0);
          if (l0.has_p) (void)amg::galerkin_rap(b.a_p, l0.p, acfg.spgemm);
        }
      }), "s");
  std::vector<linalg::ParVector> z1;
  for (Block& b : blocks) z1.emplace_back(rt, b.layout.numbering.rows);
  put("amg.vcycle_s", timer.median_s("amg.AmgHierarchy.vcycle", [&] {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          solver::AmgPrecond pc(blocks[k].amg.hierarchy());
          pc.apply(blocks[k].b_p, z1[k]);
        }
      }), "s");
  double levels = 0, complexity = 0;
  for (Block& b : blocks) {
    levels = std::max(levels, double(b.amg.hierarchy().num_levels()));
    complexity = std::max(complexity, b.amg.hierarchy().operator_complexity());
  }
  put("amg.levels", levels, "count");
  put("amg.operator_complexity", complexity, "ratio");
  const double amg_solves = c.amg_rebuilds + c.amg_refreshes;
  put("amg.refresh_ratio", amg_solves > 0 ? c.amg_refreshes / amg_solves : 0.0,
      "ratio");

  // --- SGS2 smoother preconditioner -----------------------------------------
  put("solver.sgs2_setup_s", timer.median_s("solver.SmootherPrecond", [&] {
        for (Block& b : blocks) {
          b.sgs2 = std::make_unique<solver::SmootherPrecond>(
              b.a_m, amg::SmootherType::kSgs2, cfg.sgs_outer_sweeps,
              cfg.sgs_inner_sweeps, cfg.precond_precision);
        }
      }), "s");
  put("solver.sgs2_rebind_s", timer.median_s("solver.SmootherPrecond.refresh_values", [&] {
        for (Block& b : blocks) b.sgs2->refresh_values();
      }), "s");
  // Cold assembly replaces the matrix, so the smoother is rebuilt instead.
  bypassed_if(!plan_path, "solver.sgs2_rebind_s");
  put("solver.sgs2_apply_s", timer.median_s("solver.SmootherPrecond.apply", [&] {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          if (fused) {
            blocks[k].sgs2->apply_multi(x3[k], y3[k]);
          } else {
            blocks[k].sgs2->apply(blocks[k].b_m, y1[k]);
          }
        }
      }), "s");

  // --- Krylov solves at the workload's tolerances ---------------------------
  auto solve_timer = [&](const char* span, const char* what, auto&& solve) {
    double iters = 0;
    bool converged = true;
    const double s = timer.median_s(span, [&] {
      iters = 0;
      converged = true;
      solve(iters, converged);
    }, 3, 0.0);
    res.solves.emplace_back(what, converged);
    return std::pair<double, double>{s, iters};
  };
  const auto [p_s, p_it] = solve_timer("solver.gmres_solve.pressure", "pressure solve",
      [&](double& it, bool& ok) {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          solver::AmgPrecond pc(blocks[k].amg.hierarchy());
          z1[k].fill(0.0);
          const auto st = solver::gmres_solve(blocks[k].a_p, blocks[k].b_p, z1[k],
                                              pc, cfg.pressure_gmres);
          it += st.iterations;
          ok = ok && st.converged;
        }
      });
  put("solver.pressure_solve_s", p_s, "s");
  put("solver.pressure_iters", p_it, "count");
  const auto [m_s, m_it] = solve_timer(
      fused ? "solver.gmres_solve_multi.momentum" : "solver.gmres_solve.momentum",
      "momentum solve", [&](double& it, bool& ok) {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          if (fused) {
            y3[k].fill(0.0);
            const auto st = solver::gmres_solve_multi(
                blocks[k].a_m, x3[k], y3[k], *blocks[k].sgs2, cfg.momentum_gmres);
            for (const auto& l : st.lane) it += l.iterations;
            ok = ok && st.all_converged();
            continue;
          }
          linalg::ParVector rhs(rt, blocks[k].layout.numbering.rows);
          for (std::size_t lane = 0; lane < 3; ++lane) {
            x3[k].extract_lane(lane, rhs);
            y1[k].fill(0.0);
            const auto st = solver::gmres_solve(blocks[k].a_m, rhs, y1[k],
                                                *blocks[k].sgs2, cfg.momentum_gmres);
            it += st.iterations;
            ok = ok && st.converged;
          }
        }
      });
  put("solver.momentum_solve_s", m_s, "s");
  put("solver.momentum_iters", m_it, "count");
  const auto [s_s, s_it] = solve_timer("solver.gmres_solve.scalar", "scalar solve",
      [&](double& it, bool& ok) {
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          y1[k].fill(0.0);
          const auto st = solver::gmres_solve(blocks[k].a_m, blocks[k].b_m, y1[k],
                                              *blocks[k].sgs2, cfg.momentum_gmres);
          it += st.iterations;
          ok = ok && st.converged;
        }
      });
  put("solver.scalar_solve_s", s_s, "s");
  put("solver.scalar_iters", s_it, "count");

  // --- simulated runtime ------------------------------------------------------
  put("par.dispatch_us", 1e6 * timer.median_s("par.parallel_for_ranks", [&] {
        rt.parallel_for_ranks([](RankId) {});
      }, 3, 0.05, 2000), "us");
  std::size_t halo = 0;
  for (int r = 0; r < spec.nranks; ++r) {
    halo += blocks[0].a_p.block(RankId{r}).col_map.size();
  }
  const std::vector<double> payload(std::max<std::size_t>(1, halo / spec.nranks), 1.0);
  const int n = spec.nranks;
  put("par.message_us", 1e6 * timer.median_s("par.Transport.ring", [&] {
        rt.parallel_for_ranks([&](RankId r) {
          rt.transport().send(r, RankId{(r.value() + 1) % n},
                              par::tags::kTestRing, payload);
        });
        rt.parallel_for_ranks([&](RankId r) {
          (void)rt.transport().recv<double>(r, RankId{(r.value() + n - 1) % n},
                                            par::tags::kTestRing);
        });
      }, 3, 0.05, 2000), "us");
  const std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(n), std::vector<double>{1.0, 2.0, 3.0});
  put("par.allreduce_us", 1e6 * timer.median_s("par.allreduce_sum_vec", [&] {
        (void)rt.allreduce_sum_vec(partial);
      }, 3, 0.05, 2000), "us");

  // --- layer accounting: explained share of an untraced warm step ----------
  const double nb = static_cast<double>(blocks.size());
  const double fills = 3.0 * cfg.picard_iters;  // momentum, continuity, scalar
  auto get = [&](const char* name) {
    for (const Metric& m : res.metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  auto per_iter = [](double s, double it) { return it > 0 ? s / it : 0.0; };
  const double explained =
      get("mesh.motion_s") + fills * get("assembly.local_s") +
      fills * (plan_path ? get("assembly.refill_s") : get("assembly.cold_s")) +
      (c.amg_rebuilds * get("amg.setup_s") + c.amg_refreshes * get("amg.refresh_s") +
       c.sgs2_rebuilds * get("solver.sgs2_setup_s") +
       c.sgs2_rebinds * get("solver.sgs2_rebind_s")) / nb +
      per_iter(p_s, p_it) * c.pressure_iters +
      per_iter(m_s, m_it) * c.momentum_iters +
      per_iter(s_s, s_it) * c.scalar_iters;
  put("cfd.explained_s", explained, "s");
  put("cfd.unexplained_share", step_s > 0 ? 1.0 - explained / step_s : 0.0, "ratio");
  spans.end(root);
  return res;
}

}  // namespace perfbench
