// Tests for the relaxation schemes of paper §4.2.
#include <gtest/gtest.h>

#include "amg/smoothers.hpp"
#include "test_util.hpp"

namespace exw::amg {
namespace {

using testutil::laplace3d;
using testutil::random_vector;

struct Problem {
  par::Runtime rt;
  linalg::ParCsr a;
  linalg::ParVector b, x, r;

  Problem(int nranks, const sparse::Csr& mat)
      : rt(nranks),
        a(linalg::ParCsr::from_serial(
            rt, mat, par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks),
            par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks))),
        b(rt, a.rows()),
        x(rt, a.rows()),
        r(rt, a.rows()) {
    b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 3));
    x.fill(0.0);
  }

  Real residual_norm() {
    a.residual(b, x, r);
    return r.norm2();
  }
};

class SmootherSweep
    : public ::testing::TestWithParam<std::tuple<SmootherType, int>> {};

TEST_P(SmootherSweep, ReducesResidualMonotonically) {
  const auto [type, nranks] = GetParam();
  Problem prob(nranks, laplace3d(8, 0.2));
  Smoother smoother(prob.a, type, /*inner_sweeps=*/2);
  Real prev = prob.residual_norm();
  for (int sweep = 0; sweep < 8; ++sweep) {
    smoother.apply(prob.b, prob.x, 1);
    const Real now = prob.residual_norm();
    EXPECT_LT(now, prev * 1.0001) << "sweep " << sweep;
    prev = now;
  }
  EXPECT_LT(prev, 0.5 * prob.residual_norm() + prev);  // sanity
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndRanks, SmootherSweep,
    ::testing::Combine(::testing::Values(SmootherType::kHybridGs,
                                         SmootherType::kTwoStageGs,
                                         SmootherType::kSgs2),
                       ::testing::Values(1, 3, 5)));

/// One two-stage or SGS2 sweep as a residual followed by the sweep: the
/// residual by copy_from and matvec, then, rank by rank, the inner
/// Jacobi-Richardson solves (Eqs. 5-7, 11-14) and the update.
void reference_sweep(const linalg::ParCsr& a, const LduSplit& ldu,
                     SmootherType type, int inner, const linalg::ParVector& b,
                     linalg::ParVector& x, linalg::ParVector& r) {
  const Precision pr = a.value_precision();
  const std::size_t lanes = x.ncomp();
  r.copy_from(b);
  a.matvec(x, r, -1.0, 1.0);
  for (RankId rk{0}; rk.value() < a.nranks(); ++rk) {
    const auto& d = ldu.dinv[static_cast<std::size_t>(rk)];
    const std::size_t n = d.size();
    const auto jr = [&](const sparse::Csr& tri, const RealVector& rhs) {
      RealVector g(lanes * n), tg(lanes * n);
      for (std::size_t i = 0; i < lanes * n; ++i) {
        g[i] = store_value(d[i % n] * rhs[i], pr);
      }
      for (int j = 0; j < inner; ++j) {
        tri.spmv_multi(g, n, tg, n, lanes);
        for (std::size_t i = 0; i < lanes * n; ++i) {
          g[i] = store_value(d[i % n] * (rhs[i] - tg[i]), pr);
        }
      }
      return g;
    };
    RealVector& t = r.local(rk);
    RealVector g = jr(ldu.lower[static_cast<std::size_t>(rk)], t);
    if (type == SmootherType::kSgs2) {
      for (std::size_t i = 0; i < lanes * n; ++i) {
        t[i] = store_value(g[i] / d[i % n], pr);
      }
      g = jr(ldu.upper[static_cast<std::size_t>(rk)], t);
    }
    RealVector& xl = x.local(rk);
    for (std::size_t i = 0; i < xl.size(); ++i) {
      xl[i] = store_value(xl[i] + g[i], pr);
    }
  }
}

TEST(Smoother, FusedSweepsMatchResidualThenSweep) {
  // A two-stage or SGS2 sweep packs the halo, then runs each rank's
  // residual rows, JR solves and update in one body. Two sweeps must
  // leave x bitwise where the residual-then-sweep sequence leaves it, on
  // any rank count, at 1 and 3 lanes, on FP64 and FP32 operators.
  const sparse::Csr mat = laplace3d(6, 0.1);
  const auto n = static_cast<std::size_t>(mat.nrows());
  for (const int nranks : {1, 3, 4}) {
    for (const Precision prec : {Precision::kF64, Precision::kF32}) {
      par::Runtime rt(nranks);
      const auto rows =
          par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks);
      auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
      if (prec == Precision::kF32) a.demote_values();
      const LduSplit ldu = LduSplit::build(a);
      for (const SmootherType type :
           {SmootherType::kTwoStageGs, SmootherType::kSgs2}) {
        const Smoother sm(a, type, /*inner_sweeps=*/2);
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
          SCOPED_TRACE(testing::Message()
                       << nranks << " ranks, " << lanes << " lanes, "
                       << (type == SmootherType::kSgs2 ? "sgs2" : "two-stage")
                       << (prec == Precision::kF32 ? ", fp32" : ", fp64"));
          linalg::ParVector b(rt, rows, lanes, prec), x(rt, rows, lanes, prec),
              xr(rt, rows, lanes, prec), r(rt, rows, lanes, prec);
          for (std::size_t c = 0; c < lanes; ++c) {
            b.scatter(random_vector(n, 50 + c), c);
            x.scatter(random_vector(n, 60 + c), c);
            xr.scatter(random_vector(n, 60 + c), c);
          }
          sm.apply(b, x, 2);
          for (int s = 0; s < 2; ++s) reference_sweep(a, ldu, type, 2, b, xr, r);
          for (std::size_t c = 0; c < lanes; ++c) {
            EXPECT_EQ(x.gather(c), xr.gather(c)) << "lane " << c;
          }
        }
      }
    }
  }
}

TEST(Smoother, TwoStageApproachesHybridGsWithManyInnerSweeps) {
  // The Neumann expansion (I + Dinv L)^-1 converges in finitely many
  // terms, so a two-stage sweep with many inner iterations must act like
  // true local Gauss-Seidel.
  const auto mat = laplace3d(6, 0.3);
  Problem gs(1, mat), ts(1, mat);
  Smoother gs_smoother(gs.a, SmootherType::kHybridGs, 0);
  Smoother ts_smoother(ts.a, SmootherType::kTwoStageGs, 250);
  gs_smoother.apply(gs.b, gs.x, 3);
  ts_smoother.apply(ts.b, ts.x, 3);
  EXPECT_LT(testutil::max_diff(gs.x.gather(), ts.x.gather()), 1e-10);
}

TEST(Smoother, MoreInnerSweepsConvergeFasterPerOuter) {
  // Paper §5.1: "the inclusion of a second inner iteration ... has proven
  // effective at reducing the number of GMRES iterations by roughly 2x".
  // The smoother-level proxy: residual reduction per outer sweep improves
  // with inner sweep count.
  const auto mat = laplace3d(8, 0.1);
  auto reduction = [&](int inner) {
    Problem prob(4, mat);
    Smoother smoother(prob.a, SmootherType::kTwoStageGs, inner);
    const Real r0 = prob.residual_norm();
    smoother.apply(prob.b, prob.x, 4);
    return prob.residual_norm() / r0;
  };
  EXPECT_LT(reduction(2), reduction(0));
  EXPECT_LT(reduction(1), reduction(0));
}

TEST(Smoother, Sgs2ActsSymmetric) {
  // SGS2 on one rank with converged inner solves equals exact SGS; the
  // preconditioner action on a symmetric matrix should be symmetric:
  // <M^-1 u, v> == <u, M^-1 v>.
  const auto mat = laplace3d(5, 0.4);
  par::Runtime rt(1);
  const auto rows = par::RowPartition::even(GlobalIndex{mat.nrows().value()}, 1);
  const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  Smoother sgs(a, SmootherType::kSgs2, 200);
  linalg::ParVector u(rt, rows), v(rt, rows), mu(rt, rows), mv(rt, rows);
  u.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 5));
  v.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 6));
  sgs.apply_zero(u, mu, 1);
  sgs.apply_zero(v, mv, 1);
  EXPECT_NEAR(mu.dot(v), u.dot(mv), 1e-8 * std::abs(mu.dot(v)));
}

TEST(Smoother, ThrowsOnZeroDiagonal) {
  sparse::Csr bad = sparse::Csr::from_triples(LocalIndex{2}, LocalIndex{2},
                                        {LocalIndex{0}, LocalIndex{1}},
                                        {LocalIndex{1}, LocalIndex{0}}, {1.0, 1.0});
  par::Runtime rt(1);
  const auto rows = par::RowPartition::even(GlobalIndex{2}, 1);
  const auto a = linalg::ParCsr::from_serial(rt, bad, rows, rows);
  EXPECT_THROW(Smoother(a, SmootherType::kTwoStageGs, 1), Error);
}

TEST(LduSplit, SplitsDiagBlock) {
  par::Runtime rt(2);
  const auto mat = laplace3d(4, 0.5);
  const auto rows = par::RowPartition::even(GlobalIndex{mat.nrows().value()}, 2);
  const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  const auto ldu = LduSplit::build(a);
  for (RankId r{0}; r.value() < 2; ++r) {
    const auto& lo = ldu.lower[static_cast<std::size_t>(r)];
    const auto& up = ldu.upper[static_cast<std::size_t>(r)];
    for (LocalIndex i{0}; i < lo.nrows(); ++i) {
      for (EntryOffset k = lo.row_begin(i); k < lo.row_end(i); ++k) {
        EXPECT_LT(lo.cols()[k], i);
      }
      for (EntryOffset k = up.row_begin(i); k < up.row_end(i); ++k) {
        EXPECT_GT(up.cols()[k], i);
      }
    }
    // L + D + U accounts for every diag-block entry.
    EXPECT_EQ(lo.nnz() + up.nnz() + static_cast<std::size_t>(lo.nrows()),
              a.block(r).diag.nnz());
  }
}

}  // namespace
}  // namespace exw::amg
