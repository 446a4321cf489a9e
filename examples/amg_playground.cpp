// AMG playground: builds the actual turbine pressure-Poisson matrix and
// sweeps two BoomerAMG-style knobs of paper §4.1 — interpolation
// operator and aggressive-coarsening depth — printing hierarchy
// complexities and measured V-cycle convergence factors. The strength
// threshold column shows the default it runs at. Complexities and
// convergence factors print at %.17g, so comparing two runs' output
// (serial vs threaded, or two commits) sees a last-bit change in setup.
//
//   ./build/examples/amg_playground [refine] [nranks]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "cfd/simulation.hpp"
#include "solver/gmres.hpp"

using namespace exw;

namespace {

/// Assemble the pressure matrix of the background mesh of a turbine case.
linalg::ParCsr pressure_matrix(par::Runtime& rt, mesh::OversetSystem& sys) {
  const auto& db = sys.meshes[0];
  const auto layout =
      assembly::make_layout(db, rt.nranks(), assembly::PartitionMethod::kGraph);
  std::vector<std::uint8_t> dirichlet(static_cast<std::size_t>(db.num_nodes()), 0);
  for (std::size_t i = 0; i < dirichlet.size(); ++i) {
    const auto role = db.roles[i];
    dirichlet[i] = role == mesh::NodeRole::kOutflow ||
                   role == mesh::NodeRole::kFringe ||
                   role == mesh::NodeRole::kHole;
  }
  assembly::EquationGraph graph(db, layout, dirichlet);
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    const Real g = db.edges[e].coeff;
    graph.add_edge(e, {g, -g, -g, g}, {0, 0});
  }
  for (GlobalIndex node{0}; node < db.num_nodes(); ++node) {
    graph.add_node(node, dirichlet[static_cast<std::size_t>(node)] ? 1.0 : 0.0,
                   1.0);
  }
  std::vector<sparse::Coo> owned, shared;
  for (RankId r{0}; r.value() < graph.nranks(); ++r) {
    owned.push_back(graph.rank(r).owned);
    shared.push_back(graph.rank(r).shared);
  }
  const auto& rows = layout.numbering.rows;
  return assembly::assemble_matrix(rt, rows, rows, owned, shared);
}

const char* interp_name(amg::InterpType t) {
  switch (t) {
    case amg::InterpType::kDirect: return "direct";
    case amg::InterpType::kBamg: return "BAMG";
    case amg::InterpType::kMmExt: return "MM-ext";
    case amg::InterpType::kMmExtI: return "MM-ext+i";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const double refine = argc > 1 ? std::atof(argv[1]) : 0.5;
  const int nranks = argc > 2 ? std::atoi(argv[2]) : 8;

  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  par::Runtime rt(nranks);
  const auto a = pressure_matrix(rt, sys);
  std::printf("pressure matrix: %lld rows, %lld nnz (avg %.1f/row)\n\n",
              static_cast<long long>(a.global_rows().value()),
              static_cast<long long>(a.global_nnz().value()),
              static_cast<double>(a.global_nnz().value()) /
                  static_cast<double>(a.global_rows().value()));

  linalg::ParVector b(rt, a.rows()), x(rt, a.rows()), r(rt, a.rows());
  b.fill(1.0);

  std::printf("%-10s %5s %6s %7s %24s %24s %7s\n", "interp", "agg", "theta",
              "levels", "opC", "rho", "iters");
  for (auto interp : {amg::InterpType::kDirect, amg::InterpType::kBamg,
                      amg::InterpType::kMmExt, amg::InterpType::kMmExtI}) {
    for (int agg : {0, 2}) {
      amg::AmgConfig cfg;
      cfg.interp = interp;
      cfg.agg_levels = agg;
      amg::AmgHierarchy h(a, cfg);

      // Measured V-cycle convergence factor.
      x.fill(0.0);
      a.residual(b, x, r);
      const Real r0 = r.norm2();
      const int cycles = 12;
      for (int it = 0; it < cycles; ++it) {
        h.vcycle(b, x);
      }
      a.residual(b, x, r);
      const double rho = std::pow(static_cast<double>(r.norm2() / r0), 1.0 / cycles);

      // Iterations as a GMRES preconditioner.
      x.fill(0.0);
      solver::AmgPrecond precond(a, cfg);
      solver::GmresOptions opts;
      opts.rel_tol = 1e-8;
      const auto stats = solver::gmres_solve(a, b, x, precond, opts);

      std::printf("%-10s %5d %6.2f %7d %24.17g %24.17g %7d\n", interp_name(interp),
                  agg, static_cast<double>(cfg.strong_threshold), h.num_levels(),
                  h.operator_complexity(), rho, stats.iterations);
    }
  }
  std::printf("\n(paper §4.1: MM-ext repairs PMIS F-points without C "
              "neighbors; aggressive coarsening trades convergence for "
              "complexity)\n");
  return 0;
}
