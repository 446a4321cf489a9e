// Tests for the fused multi-RHS momentum path: multi-lane ParVector ops,
// SpMV / smoother sweeps, the batched multi-lane GMRES, and the
// cfd-level fused-vs-sequential A/B — every lane pinned to be
// bitwise-identical to a 1-lane call on that lane alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "amg/smoothers.hpp"
#include "cfd/simulation.hpp"
#include "solver/gmres.hpp"
#include "test_util.hpp"

namespace exw {
namespace {

using testutil::laplace3d;
using testutil::random_spd_ish;
using testutil::random_vector;

constexpr std::size_t kLanes = 3;

linalg::ParCsr make_par(par::Runtime& rt, const sparse::Csr& mat) {
  const auto part =
      par::RowPartition::even(GlobalIndex{mat.nrows().value()}, rt.nranks());
  return linalg::ParCsr::from_serial(rt, mat, part, part);
}

/// Three deterministic dense lanes for a given size.
std::vector<RealVector> lane_data(std::size_t n, std::uint64_t seed) {
  std::vector<RealVector> lanes;
  for (std::size_t c = 0; c < kLanes; ++c) {
    lanes.push_back(random_vector(n, seed + 10 * c));
  }
  return lanes;
}

void fill_lanes(linalg::ParVector& x, const std::vector<RealVector>& data) {
  for (std::size_t c = 0; c < data.size(); ++c) {
    x.scatter(data[c], c);
  }
}

void expect_bitwise(const RealVector& a, const RealVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// ---------------------------------------------------------------------------
// Multi-lane BLAS-1 vs 1-lane calls, bitwise.

class FusedRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(FusedRankSweep, MultiVectorOpsMatchParVectorBitwise) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const std::size_t n = 97;
  const auto part = par::RowPartition::even(GlobalIndex{97}, nranks);
  const auto xd = lane_data(n, 5);
  const auto yd = lane_data(n, 6);

  linalg::ParVector x(rt, part, kLanes), y(rt, part, kLanes);
  fill_lanes(x, xd);
  fill_lanes(y, yd);
  std::vector<linalg::ParVector> xs, ys;
  for (std::size_t c = 0; c < kLanes; ++c) {
    xs.emplace_back(rt, part);
    ys.emplace_back(rt, part);
    xs[c].scatter(xd[c]);
    ys[c].scatter(yd[c]);
  }

  // dots / norms: the batched allreduce must reproduce each lane's
  // scalar reduction exactly.
  const auto dots = x.dots(y);
  const auto norms = x.norms();
  for (std::size_t c = 0; c < kLanes; ++c) {
    EXPECT_EQ(dots[c], xs[c].dot(ys[c]));
    EXPECT_EQ(norms[c], xs[c].norm2());
    EXPECT_EQ(x.lane_norm2(c), xs[c].norm2());
  }

  // axpy / scale with distinct per-lane coefficients.
  const std::vector<Real> alpha{0.5, -1.25, 2.0};
  x.axpy_lanes(alpha, y);
  x.scale_lanes(alpha);
  for (std::size_t c = 0; c < kLanes; ++c) {
    xs[c].axpy(alpha[c], ys[c]);
    xs[c].scale(alpha[c]);
    expect_bitwise(x.gather(c), xs[c].gather());
  }
}

TEST_P(FusedRankSweep, MaskedLanesStayFrozen) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto part = par::RowPartition::even(GlobalIndex{64}, nranks);
  const auto xd = lane_data(64, 7);
  linalg::ParVector x(rt, part, kLanes), y(rt, part, kLanes);
  fill_lanes(x, xd);
  y.fill(3.0);
  const std::vector<Real> alpha{2.0, 0.0, -1.0};
  const std::vector<std::uint8_t> mask{0, 1, 0};  // only lane 1 active
  x.axpy_lanes(alpha, y, mask);
  x.scale_lanes(alpha, mask);
  // Masked-out lanes are untouched (not even multiplied by alpha).
  expect_bitwise(x.gather(0), xd[0]);
  expect_bitwise(x.gather(2), xd[2]);
  // The active lane saw alpha = 0: axpy adds nothing, scale zeroes it.
  for (Real v : x.gather(1)) EXPECT_EQ(v, 0.0);
}

TEST_P(FusedRankSweep, SpmvMatchesPerComponentBitwise) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto mat = random_spd_ish(LocalIndex{210}, 7, 31);
  const auto a = make_par(rt, mat);
  const auto xd = lane_data(210, 11);

  linalg::ParVector x(rt, a.cols(), kLanes), y(rt, a.rows(), kLanes);
  fill_lanes(x, xd);
  a.matvec(x, y, 1.5, 0.0);

  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector xc(rt, a.cols()), yc(rt, a.rows());
    xc.scatter(xd[c]);
    a.matvec(xc, yc, 1.5, 0.0);
    expect_bitwise(y.gather(c), yc.gather());
  }

  // And the beta != 0 / residual forms.
  linalg::ParVector b(rt, a.rows(), kLanes), r(rt, a.rows(), kLanes);
  const auto bd = lane_data(210, 12);
  fill_lanes(b, bd);
  a.residual(b, x, r);
  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector xc(rt, a.cols()), bc(rt, a.rows()), rc(rt, a.rows());
    xc.scatter(xd[c]);
    bc.scatter(bd[c]);
    a.residual(bc, xc, rc);
    expect_bitwise(r.gather(c), rc.gather());
  }
}

TEST_P(FusedRankSweep, SmootherMatchesPerComponentBitwise) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto mat = random_spd_ish(LocalIndex{180}, 6, 37);
  const auto a = make_par(rt, mat);
  const auto bd = lane_data(180, 13);

  // Every smoother type sweeps all lanes in one pass.
  for (const auto type :
       {amg::SmootherType::kJacobi, amg::SmootherType::kL1Jacobi,
        amg::SmootherType::kSgs2, amg::SmootherType::kTwoStageGs,
        amg::SmootherType::kHybridGs}) {
    const amg::Smoother sm(a, type, /*inner_sweeps=*/2, /*jacobi_weight=*/0.8);
    linalg::ParVector b(rt, a.rows(), kLanes), z(rt, a.rows(), kLanes);
    fill_lanes(b, bd);
    sm.apply_zero(b, z, /*sweeps=*/2);
    for (std::size_t c = 0; c < kLanes; ++c) {
      linalg::ParVector bc(rt, a.rows()), zc(rt, a.rows());
      bc.scatter(bd[c]);
      sm.apply_zero(bc, zc, /*sweeps=*/2);
      expect_bitwise(z.gather(c), zc.gather());
    }
  }
}

TEST_P(FusedRankSweep, GmresMultiBitwiseMatchesSequential) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  // A stiff enough system that lanes converge at different iteration
  // counts (distinct RHS magnitudes), exercising the lane masks.
  const auto mat = laplace3d(6, 0.05);
  const auto a = make_par(rt, mat);
  const auto n = static_cast<std::size_t>(mat.nrows());
  auto bd = lane_data(n, 17);
  for (std::size_t i = 0; i < n; ++i) bd[2][i] *= 1e3;
  // A zero lane converges at entry: exercises the immediate-done path
  // and the lane masks the whole run through.
  std::fill(bd[1].begin(), bd[1].end(), 0.0);

  solver::GmresOptions opts;
  opts.rel_tol = 1e-7;
  opts.restart = 25;  // force at least one restart
  solver::SmootherPrecond m(a, amg::SmootherType::kSgs2, 2, 2);

  linalg::ParVector b(rt, a.rows(), kLanes), x(rt, a.rows(), kLanes);
  fill_lanes(b, bd);
  x.fill(0.0);
  const auto multi = solver::gmres_solve_multi(a, b, x, m, opts);
  EXPECT_TRUE(multi.all_converged());

  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector bc(rt, a.rows()), xc(rt, a.rows());
    bc.scatter(bd[c]);
    xc.fill(0.0);
    const auto st = solver::gmres_solve(a, bc, xc, m, opts);
    EXPECT_TRUE(st.converged);
    EXPECT_EQ(st.iterations, multi.lane[c].iterations) << "lane " << c;
    EXPECT_EQ(st.final_residual, multi.lane[c].final_residual) << "lane " << c;
    expect_bitwise(x.gather(c), xc.gather());
  }
}

TEST_P(FusedRankSweep, GmresMultiMgsAlsoMatches) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto mat = random_spd_ish(LocalIndex{160}, 6, 41);
  const auto a = make_par(rt, mat);
  const auto bd = lane_data(160, 19);

  solver::GmresOptions opts;
  opts.ortho = solver::OrthoMethod::kMgs;
  opts.rel_tol = 1e-8;
  solver::IdentityPrecond m;

  linalg::ParVector b(rt, a.rows(), kLanes), x(rt, a.rows(), kLanes);
  fill_lanes(b, bd);
  x.fill(0.0);
  const auto multi = solver::gmres_solve_multi(a, b, x, m, opts);
  EXPECT_TRUE(multi.all_converged());
  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector bc(rt, a.rows()), xc(rt, a.rows());
    bc.scatter(bd[c]);
    xc.fill(0.0);
    const auto st = solver::gmres_solve(a, bc, xc, m, opts);
    EXPECT_EQ(st.iterations, multi.lane[c].iterations);
    expect_bitwise(x.gather(c), xc.gather());
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, FusedRankSweep, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Fewer collectives: the point of batching the reduction payloads.

TEST(FusedGmres, BatchesCollectivesAcrossLanes) {
  const auto mat = laplace3d(7, 0.1);
  par::Runtime rt_seq(4), rt_fused(4);
  const auto a_seq = make_par(rt_seq, mat);
  const auto a_fused = make_par(rt_fused, mat);
  const auto n = static_cast<std::size_t>(mat.nrows());
  const auto bd = lane_data(n, 23);
  solver::GmresOptions opts;
  opts.rel_tol = 1e-7;

  solver::IdentityPrecond m;
  rt_seq.tracer().reset();
  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector bc(rt_seq, a_seq.rows()), xc(rt_seq, a_seq.rows());
    bc.scatter(bd[c]);
    xc.fill(0.0);
    solver::gmres_solve(a_seq, bc, xc, m, opts);
  }
  const auto seq_coll = rt_seq.tracer().phase("").collectives;

  linalg::ParVector b(rt_fused, a_fused.rows(), kLanes);
  linalg::ParVector x(rt_fused, a_fused.rows(), kLanes);
  fill_lanes(b, bd);
  x.fill(0.0);
  rt_fused.tracer().reset();
  solver::gmres_solve_multi(a_fused, b, x, m, opts);
  const auto fused_coll = rt_fused.tracer().phase("").collectives;

  // Identical iteration structure, one batched payload instead of three.
  EXPECT_LT(2.0 * static_cast<double>(fused_coll),
            static_cast<double>(seq_coll));
}

// ---------------------------------------------------------------------------
// Index-traffic accounting: fused SpMV reads structure once per 3 lanes.

TEST(FusedSpmv, ChargesIndexBytesOncePerLaneSet) {
  const auto mat = random_spd_ish(LocalIndex{300}, 8, 43);
  par::Runtime rt(2);
  const auto a = make_par(rt, mat);
  const auto xd = lane_data(300, 29);

  rt.tracer().reset();
  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector xc(rt, a.cols()), yc(rt, a.rows());
    xc.scatter(xd[c]);
    a.matvec(xc, yc);
  }
  const double seq_index = rt.tracer().phase("").total_index_bytes();

  rt.tracer().reset();
  linalg::ParVector x(rt, a.cols(), kLanes), y(rt, a.rows(), kLanes);
  fill_lanes(x, xd);
  a.matvec(x, y);
  const double fused_index = rt.tracer().phase("").total_index_bytes();

  EXPECT_GT(fused_index, 0.0);
  // 3 structure reads collapse to 1 (halo pack kernels carry no index
  // traffic, so the ratio is exact).
  EXPECT_NEAR(seq_index / fused_index, 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Shape / lane mismatches throw.

TEST(FusedShapes, MismatchesThrow) {
  par::Runtime rt(2);
  const auto part = par::RowPartition::even(GlobalIndex{40}, 2);
  const auto part2 = par::RowPartition::even(GlobalIndex{44}, 2);
  linalg::ParVector x(rt, part, 3), y2(rt, part, 2), z(rt, part2, 3);
  linalg::ParVector v2(rt, part2);

  EXPECT_THROW(x.copy_from(y2), Error);             // lane count
  EXPECT_THROW(x.copy_from(z), Error);              // row partition
  EXPECT_THROW(x.dots(y2), Error);                  // lane count
  const std::vector<Real> a2{1.0, 2.0};
  EXPECT_THROW(x.scale_lanes(a2), Error);           // coefficient count
  EXPECT_THROW(x.set_lane(3, v2), Error);           // lane out of range
  EXPECT_THROW(x.set_lane(0, v2), Error);           // size mismatch
  EXPECT_THROW(x.dot(x), Error);                    // 1-lane form

  const auto mat = random_spd_ish(LocalIndex{40}, 4, 47);
  const auto a = make_par(rt, mat);
  linalg::ParVector b(rt, a.rows(), 3);
  solver::IdentityPrecond m;
  EXPECT_THROW(solver::gmres_solve_multi(a, b, y2, m, solver::GmresOptions{}),
               Error);  // b/x lane mismatch
  EXPECT_THROW(solver::gmres_solve_multi(a, z, z, m, solver::GmresOptions{}),
               Error);  // wrong global size
  // The residual trace records one lane's history; a multi-lane solve
  // rejects it instead of leaving it empty.
  std::vector<Real> trace;
  solver::GmresOptions traced;
  traced.residual_trace = &trace;
  linalg::ParVector x3(rt, a.rows(), 3);
  EXPECT_THROW(solver::gmres_solve_multi(a, b, x3, m, traced), Error);
}

// ---------------------------------------------------------------------------
// Smoother value rebind == fresh build.

TEST(SmootherRebind, MatchesFreshBuildBitwise) {
  par::Runtime rt(3);
  const auto mat = random_spd_ish(LocalIndex{150}, 6, 53);
  auto a = make_par(rt, mat);

  solver::SmootherPrecond cached(a, amg::SmootherType::kSgs2, 2, 2);

  // Perturb the values in place (same structure), as a Picard refill does.
  rt.parallel_for_ranks([&](RankId r) {
    auto& blk = a.block_mut(r);
    for (auto& v : blk.diag.vals_mut()) v *= 1.25;
    for (auto& v : blk.offd.vals_mut()) v *= 1.25;
  });

  cached.refresh_values();
  solver::SmootherPrecond fresh(a, amg::SmootherType::kSgs2, 2, 2);

  linalg::ParVector b(rt, a.rows()), z1(rt, a.rows()), z2(rt, a.rows());
  b.scatter(random_vector(150, 59));
  cached.apply(b, z1);
  fresh.apply(b, z2);
  const auto g1 = z1.gather();
  const auto g2 = z2.gather();
  for (std::size_t i = 0; i < g1.size(); ++i) {
    ASSERT_EQ(g1[i], g2[i]);
  }
}

// ---------------------------------------------------------------------------
// cfd level: fused on/off is bitwise-invisible in the solution.

TEST(CfdFused, MomentumFusedMatchesSequentialBitwise) {
  auto run = [](bool fused) {
    auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
    par::Runtime rt(4);
    cfd::SimConfig cfg;
    cfg.picard_iters = 2;
    cfg.use_fused_momentum = fused;
    cfd::Simulation sim(sys, cfg, rt);
    sim.step();
    sim.step();
    return std::tuple{sim.velocity_rms(), sim.divergence_rms(),
                      sim.scalar_mean(), sim.momentum_stats()};
  };
  const auto [rms_s, div_s, scl_s, mom_s] = run(false);
  const auto [rms_f, div_f, scl_f, mom_f] = run(true);
  EXPECT_EQ(rms_s, rms_f);
  EXPECT_EQ(div_s, div_f);
  EXPECT_EQ(scl_s, scl_f);
  // Identical per-component iteration counts and residuals.
  EXPECT_EQ(mom_s.gmres_iterations, mom_f.gmres_iterations);
  EXPECT_EQ(mom_s.final_residual, mom_f.final_residual);
  EXPECT_EQ(mom_s.solves, mom_f.solves);
}

TEST(CfdFused, SmootherRebindsInsteadOfRebuilding) {
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.3);
  par::Runtime rt(4);
  cfd::SimConfig cfg;
  cfg.picard_iters = 3;
  cfd::Simulation sim(sys, cfg, rt);
  sim.step();
  // First Picard iteration builds each block's split once (cold assembly
  // epoch); every later momentum/scalar solve rebinds values in place.
  const auto& mom = sim.momentum_stats();
  const auto& scl = sim.scalar_stats();
  EXPECT_GT(mom.smoother_rebuilds, 0);
  EXPECT_GT(mom.smoother_rebinds + scl.smoother_rebinds, 0);
  EXPECT_EQ(mom.smoother_rebuilds + scl.smoother_rebuilds +
                mom.smoother_rebinds + scl.smoother_rebinds,
            mom.solves / 3 + scl.solves);
  sim.step();
  // Steady state: the graph is stable, so step 2 is all rebinds.
  EXPECT_EQ(sim.momentum_stats().smoother_rebuilds, 0);
  EXPECT_EQ(sim.scalar_stats().smoother_rebuilds, 0);
}

}  // namespace
}  // namespace exw
