// Tests for the three-stage assembly (paper §3): graph computation, local
// fill (ordered vs atomic), global Algorithms 1-2, IJ interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include <span>

#include "assembly/global.hpp"
#include "assembly/graph.hpp"
#include "assembly/ij.hpp"
#include "assembly/plan.hpp"
#include "mesh/meshdb.hpp"
#include "par/tags.hpp"
#include "test_util.hpp"

namespace exw::assembly {
namespace {

using testutil::matrix_diff;
using testutil::max_diff;

/// Small box mesh fixture with a Dirichlet shell.
struct BoxFixture {
  mesh::MeshDB db;
  std::vector<std::uint8_t> dirichlet;

  explicit BoxFixture(GlobalIndex n) {
    mesh::StructuredBlockBuilder block(n, n, n);
    block.emit(db, [&](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
      return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                  static_cast<Real>(k.value())};
    });
    db.coords = db.ref_coords;
    db.compute_dual_quantities();
    dirichlet.assign(static_cast<std::size_t>(db.num_nodes()), 0);
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
  }
};

/// Assemble the Laplacian of the fixture serially as a reference.
sparse::Csr serial_reference(const BoxFixture& fx,
                             const MeshLayout& layout) {
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  const auto& db = fx.db;
  for (GlobalIndex node{0}; node < db.num_nodes(); ++node) {
    const auto row = checked_narrow<LocalIndex>(layout.row_of(node));
    ti.push_back(row);
    tj.push_back(row);
    tv.push_back(fx.dirichlet[static_cast<std::size_t>(node)] ? 1.0 : 0.0);
  }
  for (const auto& e : db.edges) {
    const auto ra = checked_narrow<LocalIndex>(layout.row_of(e.a));
    const auto rb = checked_narrow<LocalIndex>(layout.row_of(e.b));
    if (!fx.dirichlet[static_cast<std::size_t>(e.a)]) {
      ti.push_back(ra);
      tj.push_back(ra);
      tv.push_back(e.coeff);
      ti.push_back(ra);
      tj.push_back(rb);
      tv.push_back(-e.coeff);
    }
    if (!fx.dirichlet[static_cast<std::size_t>(e.b)]) {
      ti.push_back(rb);
      tj.push_back(rb);
      tv.push_back(e.coeff);
      ti.push_back(rb);
      tj.push_back(ra);
      tv.push_back(-e.coeff);
    }
  }
  const auto n = checked_narrow<LocalIndex>(db.num_nodes());
  return sparse::Csr::from_triples(n, n, std::move(ti), std::move(tj),
                                   std::move(tv));
}

void fill_laplacian(EquationGraph& graph, const BoxFixture& fx, bool atomic) {
  graph.zero_values();
  for (std::size_t e = 0; e < fx.db.edges.size(); ++e) {
    const Real g = fx.db.edges[e].coeff;
    graph.add_edge(e, {g, -g, -g, g}, {0.1, -0.2}, atomic);
  }
  for (GlobalIndex node{0}; node < fx.db.num_nodes(); ++node) {
    graph.add_node(node,
                   fx.dirichlet[static_cast<std::size_t>(node)] ? 1.0 : 0.0,
                   0.5, atomic);
  }
}

class AssemblyRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(AssemblyRankSweep, GlobalAssemblyMatchesSerialReference) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{6});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  EquationGraph graph(fx.db, layout, fx.dirichlet);
  fill_laplacian(graph, fx, false);

  std::vector<sparse::Coo> owned, shared;
  for (RankId r{0}; r.value() < nranks; ++r) {
    owned.push_back(graph.rank(r).owned);
    shared.push_back(graph.rank(r).shared);
  }
  const auto& rows = layout.numbering.rows;
  for (auto algo :
       {GlobalAssemblyAlgo::kSortReduce, GlobalAssemblyAlgo::kSparseAdd,
        GlobalAssemblyAlgo::kGeneral}) {
    const auto a = assemble_matrix(rt, rows, rows, owned, shared, algo);
    EXPECT_LT(matrix_diff(a.to_serial(), serial_reference(fx, layout)), 1e-12)
        << "algo " << static_cast<int>(algo);
  }
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(AssemblyRankSweep, VectorAssemblyMatchesSerialReference) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{5});
  const MeshLayout layout = make_layout(fx.db, nranks, PartitionMethod::kRcb);
  EquationGraph graph(fx.db, layout, fx.dirichlet);
  fill_laplacian(graph, fx, false);

  std::vector<RealVector> rhs_owned;
  std::vector<sparse::CooVector> rhs_shared;
  for (RankId r{0}; r.value() < nranks; ++r) {
    rhs_owned.push_back(graph.rank(r).rhs_owned);
    rhs_shared.push_back(graph.rank(r).rhs_shared);
  }
  const auto& rows = layout.numbering.rows;
  const auto rhs = assemble_vector(rt, rows, rhs_owned, rhs_shared);

  // Serial reference RHS.
  RealVector ref(static_cast<std::size_t>(fx.db.num_nodes()), 0.0);
  for (std::size_t e = 0; e < fx.db.edges.size(); ++e) {
    const auto& edge = fx.db.edges[e];
    if (!fx.dirichlet[static_cast<std::size_t>(edge.a)]) {
      ref[static_cast<std::size_t>(layout.row_of(edge.a))] += 0.1;
    }
    if (!fx.dirichlet[static_cast<std::size_t>(edge.b)]) {
      ref[static_cast<std::size_t>(layout.row_of(edge.b))] += -0.2;
    }
  }
  for (GlobalIndex node{0}; node < fx.db.num_nodes(); ++node) {
    ref[static_cast<std::size_t>(layout.row_of(node))] += 0.5;
  }
  EXPECT_LT(max_diff(rhs.gather(), ref), 1e-12);
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(AssemblyRankSweep, AtomicFillMatchesOrderedFill) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{5});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  EquationGraph ordered(fx.db, layout, fx.dirichlet);
  EquationGraph atomic(fx.db, layout, fx.dirichlet);
  fill_laplacian(ordered, fx, false);
  fill_laplacian(atomic, fx, true);
  for (RankId r{0}; r.value() < nranks; ++r) {
    EXPECT_LT(max_diff(ordered.rank(r).owned.vals, atomic.rank(r).owned.vals),
              1e-12);
    EXPECT_LT(max_diff(ordered.rank(r).rhs_owned, atomic.rank(r).rhs_owned),
              1e-12);
  }
}

TEST_P(AssemblyRankSweep, RankBodyFillMatchesSerialFillBitwise) {
  // Each rank body adds its own edges in ascending id, then its own
  // nodes, as the simulation's local assembly does: every slot must get
  // the serial loop's sum to the bit. Irregular values make the sums
  // order-sensitive.
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{5});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  EquationGraph serial(fx.db, layout, fx.dirichlet);
  EquationGraph ranked(fx.db, layout, fx.dirichlet);
  const auto edge_values = [&](std::size_t e) {
    const Real g = fx.db.edges[e].coeff * (1.0 + 1e-3 * static_cast<Real>(e));
    return std::array<Real, 4>{g, -0.7 * g, -1.3 * g, 0.9 * g};
  };
  const auto node_value = [](GlobalIndex node) {
    return 0.3 + 1e-3 * static_cast<Real>(node.value());
  };
  serial.zero_values();
  for (std::size_t e = 0; e < fx.db.edges.size(); ++e) {
    serial.add_edge(e, edge_values(e), {0.1, -0.2});
  }
  for (GlobalIndex node{0}; node < fx.db.num_nodes(); ++node) {
    serial.add_node(node, node_value(node), 0.5);
  }
  ranked.zero_values();
  rt.parallel_for_ranks([&](RankId r) {
    for (const std::uint32_t e : layout.edges_of(r)) {
      ranked.add_edge(e, edge_values(e), {0.1, -0.2});
    }
    for (const GlobalIndex node : layout.nodes_of(r)) {
      ranked.add_node(node, node_value(node), 0.5);
    }
  });
  for (RankId r{0}; r.value() < nranks; ++r) {
    EXPECT_EQ(serial.rank(r).owned.vals, ranked.rank(r).owned.vals);
    EXPECT_EQ(serial.rank(r).shared.vals, ranked.rank(r).shared.vals);
    EXPECT_EQ(serial.rank(r).rhs_owned, ranked.rank(r).rhs_owned);
    EXPECT_EQ(serial.rank(r).rhs_shared.vals, ranked.rank(r).rhs_shared.vals);
  }
}

TEST_P(AssemblyRankSweep, DirichletRowsAreIdentityOnly) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{5});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  EquationGraph graph(fx.db, layout, fx.dirichlet);
  fill_laplacian(graph, fx, false);
  std::vector<sparse::Coo> owned, shared;
  for (RankId r{0}; r.value() < nranks; ++r) {
    owned.push_back(graph.rank(r).owned);
    shared.push_back(graph.rank(r).shared);
  }
  const auto& rows = layout.numbering.rows;
  const auto a =
      assemble_matrix(rt, rows, rows, owned, shared).to_serial();
  for (GlobalIndex node{0}; node < fx.db.num_nodes(); ++node) {
    if (!fx.dirichlet[static_cast<std::size_t>(node)]) continue;
    const auto row = checked_narrow<LocalIndex>(layout.row_of(node));
    EXPECT_EQ(a.row_nnz(row), LocalIndex{1});
    EXPECT_DOUBLE_EQ(a.at(row, row), 1.0);
  }
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(AssemblyRankSweep, RhsOnlyRefillMatchesFullFill) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{4});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  EquationGraph graph(fx.db, layout, fx.dirichlet);
  fill_laplacian(graph, fx, false);
  std::vector<RealVector> ref_owned;
  for (RankId r{0}; r.value() < nranks; ++r) {
    ref_owned.push_back(graph.rank(r).rhs_owned);
  }
  // Refill only the RHS; matrix values must be untouched, RHS identical.
  const auto mat_vals = graph.rank(RankId{0}).owned.vals;
  graph.zero_rhs();
  for (std::size_t e = 0; e < fx.db.edges.size(); ++e) {
    graph.add_edge_rhs(e, {0.1, -0.2});
  }
  for (GlobalIndex node{0}; node < fx.db.num_nodes(); ++node) {
    graph.add_node_rhs(node, 0.5);
  }
  EXPECT_LT(max_diff(graph.rank(RankId{0}).owned.vals, mat_vals), 0.0 + 1e-300);
  for (RankId r{0}; r.value() < nranks; ++r) {
    EXPECT_LT(max_diff(graph.rank(r).rhs_owned, ref_owned[static_cast<std::size_t>(r)]),
              1e-13);
  }
}

/// Laplacian fill with iteration-dependent values on the frozen pattern
/// (what Picard iterations do: same graph, new values each pass).
void fill_scaled(EquationGraph& graph, const BoxFixture& fx, Real s) {
  graph.zero_values();
  for (std::size_t e = 0; e < fx.db.edges.size(); ++e) {
    const Real g = fx.db.edges[e].coeff * s;
    graph.add_edge(e, {g, -g, -g, g}, {0.1 * s, -0.2 * s}, false);
  }
  for (GlobalIndex node{0}; node < fx.db.num_nodes(); ++node) {
    const auto i = static_cast<std::size_t>(node);
    graph.add_node(node, fx.dirichlet[i] ? 1.0 : 0.1 * s, 0.5 - 0.03 * s,
                   false);
  }
}

void expect_bitwise(const RealVector& got, const RealVector& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Real)),
              0);
  }
}

TEST_P(AssemblyRankSweep, PlanRefillIsBitwiseIdenticalToColdAssembly) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{5});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  EquationGraph graph(fx.db, layout, fx.dirichlet);
  const auto& rows = layout.numbering.rows;

  fill_laplacian(graph, fx, false);
  const auto views = system_views(graph);
  const auto span = std::span<const SystemView>(views);
  const auto plan = AssemblyPlan::build(rt, rows, rows, span);
  auto warm_a = plan.create_matrix(rt);
  auto warm_b = plan.create_vector(rt);

  // Three warm refills with changed values, each checked bitwise against
  // a cold assembly of the same values under both exact cold variants.
  for (int refill = 0; refill < 3; ++refill) {
    fill_scaled(graph, fx, 1.0 + 0.37 * refill);
    plan.refill_matrix(rt, span, warm_a);
    plan.refill_vector(rt, span, warm_b);
    for (auto algo :
         {GlobalAssemblyAlgo::kSortReduce, GlobalAssemblyAlgo::kGeneral}) {
      const auto cold_a = assemble_matrix(rt, rows, rows, span, algo);
      const auto cold_b = assemble_vector(rt, rows, span, algo);
      for (RankId r{0}; r.value() < nranks; ++r) {
        const auto& wb = warm_a.block(r);
        const auto& cb = cold_a.block(r);
        ASSERT_EQ(wb.col_map, cb.col_map);
        ASSERT_EQ(wb.diag.nnz(), cb.diag.nnz());
        ASSERT_EQ(wb.offd.nnz(), cb.offd.nnz());
        expect_bitwise(
            RealVector(wb.diag.vals().begin(), wb.diag.vals().end()),
            RealVector(cb.diag.vals().begin(), cb.diag.vals().end()));
        expect_bitwise(
            RealVector(wb.offd.vals().begin(), wb.offd.vals().end()),
            RealVector(cb.offd.vals().begin(), cb.offd.vals().end()));
        expect_bitwise(warm_b.local(r), cold_b.local(r));
      }
    }
    // The sparse-add variant reduces in a different order; values agree
    // to rounding, not bitwise.
    const auto approx =
        assemble_matrix(rt, rows, rows, span, GlobalAssemblyAlgo::kSparseAdd);
    EXPECT_LT(matrix_diff(approx.to_serial(), warm_a.to_serial()), 1e-12);
  }
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(AssemblyRankSweep, PlanRejectsMismatchedSystems) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{4});
  BoxFixture other(GlobalIndex{5});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  const MeshLayout other_layout =
      make_layout(other.db, nranks, PartitionMethod::kGraph);
  EquationGraph graph(fx.db, layout, fx.dirichlet);
  EquationGraph other_graph(other.db, other_layout, other.dirichlet);
  fill_laplacian(graph, fx, false);
  fill_laplacian(other_graph, other, false);

  const auto views = system_views(graph);
  const auto plan = AssemblyPlan::build(
      rt, layout.numbering.rows, layout.numbering.rows,
      std::span<const SystemView>(views));
  auto a = plan.create_matrix(rt);
  auto b = plan.create_vector(rt);

  // A rebuilt graph (different pattern sizes) must be rejected, not
  // silently assembled through the stale structure.
  const auto stale = system_views(other_graph);
  const auto stale_span = std::span<const SystemView>(stale);
  EXPECT_THROW(plan.refill_matrix(rt, stale_span, a), Error);
  EXPECT_THROW(plan.refill_vector(rt, stale_span, b), Error);
}

TEST(AssemblyPlanCache, GraphGenerationIsUniquePerBuild) {
  // The Simulation-side cache keys plans on the graph generation: two
  // graphs built from identical inputs must still get distinct ids.
  BoxFixture fx(GlobalIndex{3});
  const MeshLayout layout = make_layout(fx.db, 2, PartitionMethod::kGraph);
  EquationGraph g1(fx.db, layout, fx.dirichlet);
  EquationGraph g2(fx.db, layout, fx.dirichlet);
  EXPECT_NE(g1.generation(), g2.generation());
  EXPECT_NE(g1.generation(), 0u);
}

TEST(AssemblyPlanCache, WarmRefillChargesNoSortKernels) {
  // The cost-model contract of the warm path: a refill charges exactly
  // one copy kernel per sending rank (all its slices at once) plus two
  // streaming kernels per rank for the matrix (stacking, fill) and one
  // for the RHS (fill) — never the 8-pass modeled sort the cold path
  // pays.
  const int nranks = 4;
  par::Runtime rt(nranks);
  BoxFixture fx(GlobalIndex{5});
  const MeshLayout layout =
      make_layout(fx.db, nranks, PartitionMethod::kGraph);
  EquationGraph graph(fx.db, layout, fx.dirichlet);
  const auto& rows = layout.numbering.rows;
  fill_laplacian(graph, fx, false);
  const auto views = system_views(graph);
  const auto span = std::span<const SystemView>(views);
  const auto plan = AssemblyPlan::build(rt, rows, rows, span);
  auto a = plan.create_matrix(rt);
  auto b = plan.create_vector(rt);

  rt.tracer().push_phase("warm_mat");
  plan.refill_matrix(rt, span, a);
  rt.tracer().pop_phase();
  rt.tracer().push_phase("warm_rhs");
  plan.refill_vector(rt, span, b);
  rt.tracer().pop_phase();
  rt.tracer().push_phase("cold_mat");
  const auto cold_a =
      assemble_matrix(rt, rows, rows, span, GlobalAssemblyAlgo::kSortReduce);
  rt.tracer().pop_phase();
  rt.tracer().push_phase("cold_rhs");
  const auto cold_b =
      assemble_vector(rt, rows, span, GlobalAssemblyAlgo::kSortReduce);
  rt.tracer().pop_phase();

  const auto warm_mat = rt.tracer().phase("warm_mat").total_kernels();
  const auto warm_rhs = rt.tracer().phase("warm_rhs").total_kernels();
  const auto cold_mat = rt.tracer().phase("cold_mat").total_kernels();
  const auto cold_rhs = rt.tracer().phase("cold_rhs").total_kernels();
  // Some rank sends to several peers, and still charges one copy kernel.
  long mat_senders = 0;
  long rhs_senders = 0;
  std::size_t most_peers = 0;
  for (const auto& v : views) {
    mat_senders += v.shared->nnz() > 0 ? 1 : 0;
    rhs_senders += v.rhs_shared->size() > 0 ? 1 : 0;
    std::vector<RankId> peers;
    for (const GlobalIndex row : v.shared->rows) {
      const RankId owner = rows.rank_of(row);
      if (std::find(peers.begin(), peers.end(), owner) == peers.end()) {
        peers.push_back(owner);
      }
    }
    most_peers = std::max(most_peers, peers.size());
  }
  ASSERT_GE(most_peers, 2U);
  EXPECT_EQ(warm_mat, mat_senders + 2 * nranks);
  EXPECT_EQ(warm_rhs, rhs_senders + nranks);
  // Both are below one modeled sort's 8 passes per rank; the cold path
  // pays at least the full sort per rank.
  EXPECT_LT(warm_mat, 8 * nranks);
  EXPECT_LT(warm_rhs, 8 * nranks);
  EXPECT_GE(cold_mat, 8 * nranks);
  EXPECT_GT(cold_mat, warm_mat);
  EXPECT_GT(cold_rhs, warm_rhs);
  EXPECT_TRUE(rt.transport().drained());
}

INSTANTIATE_TEST_SUITE_P(Ranks, AssemblyRankSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(IjInterface, SixCallPatternAssembles) {
  // The paper's six-call hypre pattern on a tiny 2-rank system.
  par::Runtime rt(2);
  const auto rows = par::RowPartition::even(GlobalIndex{4}, 2);
  IJMatrix mat(rt, rows, rows);
  IJVector vec(rt, rows);

  // Rank 0 owns rows {0,1}: sets its rows, adds into rank 1's row 2.
  const std::vector<GlobalIndex> r0{GlobalIndex{0}, GlobalIndex{0}, GlobalIndex{1}};
  const std::vector<GlobalIndex> c0{GlobalIndex{0}, GlobalIndex{1}, GlobalIndex{1}};
  const std::vector<Real> v0{2.0, -1.0, 2.0};
  mat.SetValues2(RankId{0}, r0, c0, v0);
  const std::vector<GlobalIndex> r0s{GlobalIndex{2}};
  const std::vector<GlobalIndex> c0s{GlobalIndex{0}};
  const std::vector<Real> v0s{-0.5};
  mat.AddToValues2(RankId{0}, r0s, c0s, v0s);
  // Rank 1 owns rows {2,3}.
  const std::vector<GlobalIndex> r1{GlobalIndex{2}, GlobalIndex{3}};
  const std::vector<GlobalIndex> c1{GlobalIndex{2}, GlobalIndex{3}};
  const std::vector<Real> v1{2.0, 2.0};
  mat.SetValues2(RankId{1}, r1, c1, v1);
  // Duplicate contribution to (2,0) from rank 1 itself.
  const std::vector<GlobalIndex> r1o{GlobalIndex{2}};
  const std::vector<Real> v1o{-0.5};
  mat.SetValues2(RankId{1}, r1o, r0s /*col 2? no: cols*/, v1o);

  const auto a = mat.Assemble().to_serial();
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{0}, LocalIndex{0}), 2.0);
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{0}, LocalIndex{1}), -1.0);
  // (2,2) got 2.0 from SetValues2 and -0.5 from rank 1's own SetValues2
  // at (2,2)? — rank 1 used cols {2}: entry (2,2) = 2.0 - 0.5.
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{2}, LocalIndex{2}), 1.5);
  // Off-rank AddToValues2 landed at (2,0).
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{2}, LocalIndex{0}), -0.5);

  const std::vector<GlobalIndex> vr0{GlobalIndex{0}, GlobalIndex{1}};
  const std::vector<Real> vv0{1.0, 2.0};
  vec.SetValues2(RankId{0}, vr0, vv0);
  const std::vector<GlobalIndex> vr0s{GlobalIndex{3}};
  const std::vector<Real> vv0s{10.0};
  vec.AddToValues2(RankId{0}, vr0s, vv0s);
  const std::vector<GlobalIndex> vr1{GlobalIndex{3}};
  const std::vector<Real> vv1{0.5};
  vec.SetValues2(RankId{1}, vr1, vv1);
  const auto b = vec.Assemble().gather();
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 0.0);
  EXPECT_DOUBLE_EQ(b[3], 10.5);
  EXPECT_TRUE(rt.transport().drained());
}

TEST(IjInterface, RejectsWrongOwnership) {
  par::Runtime rt(2);
  const auto rows = par::RowPartition::even(GlobalIndex{4}, 2);
  IJMatrix mat(rt, rows, rows);
  const std::vector<GlobalIndex> r{GlobalIndex{3}};
  const std::vector<GlobalIndex> c{GlobalIndex{0}};
  const std::vector<Real> v{1.0};
  EXPECT_THROW(mat.SetValues2(RankId{0}, r, c, v), Error);
  const std::vector<GlobalIndex> r2{GlobalIndex{0}};
  EXPECT_THROW(mat.AddToValues2(RankId{0}, r2, c, v), Error);
}

TEST(Exchange, StrongIdCooRoundTripIsBitwise) {
  // Algorithm 1's A_send exchange ships COO triples through the byte
  // transport; GlobalIndex columns past 2^32 and sentinel values must
  // round-trip bit-for-bit.
  par::Runtime rt(2);
  auto& t = rt.transport();
  const std::vector<GlobalIndex> rows{
      GlobalIndex{0}, GlobalIndex{(std::int64_t{1} << 40) + 3}, kInvalidGlobal};
  const std::vector<Real> vals{1.5, -2.25, 0.0};
  t.send<GlobalIndex>(RankId{0}, RankId{1}, par::tags::kTestRows, rows);
  t.send<Real>(RankId{0}, RankId{1}, par::tags::kTestVals, vals);
  const auto got_rows = t.recv<GlobalIndex>(RankId{1}, RankId{0}, par::tags::kTestRows);
  const auto got_vals = t.recv<Real>(RankId{1}, RankId{0}, par::tags::kTestVals);
  ASSERT_EQ(got_rows.size(), rows.size());
  EXPECT_EQ(std::memcmp(got_rows.data(), rows.data(),
                        rows.size() * sizeof(GlobalIndex)),
            0);
  EXPECT_EQ(got_vals, vals);
  EXPECT_TRUE(t.drained());
}

}  // namespace
}  // namespace exw::assembly
