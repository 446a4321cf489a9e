// Property tests: distributed vectors/matrices must reproduce their
// serial counterparts for every rank count.
#include <gtest/gtest.h>

#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "test_util.hpp"

namespace exw::linalg {
namespace {

using testutil::laplace3d;
using testutil::matrix_diff;
using testutil::max_diff;
using testutil::random_rect;
using testutil::random_spd_ish;
using testutil::random_vector;

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, VectorOpsMatchSerial) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto rows = par::RowPartition::even(GlobalIndex{101}, nranks);
  ParVector x(rt, rows), y(rt, rows);
  const RealVector xs = random_vector(101, 1);
  const RealVector ys = random_vector(101, 2);
  x.scatter(xs);
  y.scatter(ys);

  double ref_dot = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) ref_dot += xs[i] * ys[i];
  EXPECT_NEAR(x.dot(y), ref_dot, 1e-11);

  x.axpy(2.5, y);
  RealVector ref = xs;
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] += 2.5 * ys[i];
  EXPECT_LT(max_diff(x.gather(), ref), 1e-13);

  x.scale(-0.5);
  for (auto& v : ref) v *= -0.5;
  EXPECT_LT(max_diff(x.gather(), ref), 1e-13);
}

TEST_P(RankSweep, SerialRoundtrip) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_spd_ish(LocalIndex{97}, 6, 5);
  const auto rows = par::RowPartition::even(GlobalIndex{97}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  EXPECT_LT(matrix_diff(pa.to_serial(), a), 1e-15);
  EXPECT_EQ(pa.global_nnz(), GlobalIndex{a.nnz()});
}

TEST_P(RankSweep, MatvecMatchesSerial) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_spd_ish(LocalIndex{120}, 7, 6);
  const auto rows = par::RowPartition::even(GlobalIndex{120}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);

  ParVector x(rt, rows), y(rt, rows);
  const RealVector xs = random_vector(120, 7);
  x.scatter(xs);
  pa.matvec(x, y);

  RealVector ref(120, 0.0);
  a.spmv(xs, ref);
  EXPECT_LT(max_diff(y.gather(), ref), 1e-11);
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(RankSweep, RectangularMatvecAndTranspose) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_rect(LocalIndex{90}, LocalIndex{40}, 5, 8);
  const auto rows = par::RowPartition::even(GlobalIndex{90}, nranks);
  const auto cols = par::RowPartition::even(GlobalIndex{40}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, cols);

  ParVector x(rt, cols), y(rt, rows);
  const RealVector xs = random_vector(40, 9);
  x.scatter(xs);
  pa.matvec(x, y);
  RealVector ref(90, 0.0);
  a.spmv(xs, ref);
  EXPECT_LT(max_diff(y.gather(), ref), 1e-11);

  // Transpose matvec.
  ParVector xt(rt, rows), yt(rt, cols);
  const RealVector ts = random_vector(90, 10);
  xt.scatter(ts);
  pa.matvec_transpose(xt, yt);
  RealVector reft(40, 0.0);
  a.spmv_transpose(ts, reft);
  EXPECT_LT(max_diff(yt.gather(), reft), 1e-11);
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(RankSweep, ResidualIsExact) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = laplace3d(5, 0.3);
  const auto rows = par::RowPartition::even(GlobalIndex{125}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  ParVector x(rt, rows), b(rt, rows), r(rt, rows);
  x.scatter(random_vector(125, 11));
  b.scatter(random_vector(125, 12));
  pa.residual(b, x, r);
  RealVector ax(125, 0.0);
  a.spmv(x.gather(), ax);
  const RealVector bs = b.gather();
  RealVector ref(125);
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = bs[i] - ax[i];
  EXPECT_LT(max_diff(r.gather(), ref), 1e-12);
}

TEST_P(RankSweep, FetchExternalRows) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_spd_ish(LocalIndex{64}, 5, 13);
  const auto rows = par::RowPartition::even(GlobalIndex{64}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);

  // Each rank requests three rows owned by other ranks.
  std::vector<std::vector<GlobalIndex>> needed(static_cast<std::size_t>(nranks));
  for (RankId r{0}; r.value() < nranks; ++r) {
    for (GlobalIndex g{0}; g < GlobalIndex{64}; g += 23) {
      if (!rows.owns(r, g)) {
        needed[static_cast<std::size_t>(r)].push_back(g);
      }
    }
  }
  const auto ext = fetch_external_rows(pa, needed);
  for (RankId r{0}; r.value() < nranks; ++r) {
    for (GlobalIndex g : needed[static_cast<std::size_t>(r)]) {
      const auto idx = ext[static_cast<std::size_t>(r)].find(g);
      ASSERT_NE(idx, static_cast<std::size_t>(-1));
      const auto& e = ext[static_cast<std::size_t>(r)];
      // Row content matches the serial matrix.
      const auto gi = checked_narrow<LocalIndex>(g);
      const auto len = e.row_ptr[idx + 1] - e.row_ptr[idx];
      EXPECT_EQ(checked_narrow<LocalIndex>(len), a.row_nnz(gi));
      for (std::size_t k = e.row_ptr[idx]; k < e.row_ptr[idx + 1]; ++k) {
        EXPECT_NEAR(e.vals[k], a.at(gi, checked_narrow<LocalIndex>(e.cols[k])), 1e-15);
      }
    }
  }
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(RankSweep, NnzPerRankSumsToGlobal) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = laplace3d(5);
  const auto rows = par::RowPartition::even(GlobalIndex{125}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  double total = 0;
  for (double v : pa.nnz_per_rank()) total += v;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(a.nnz()));
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 3, 5, 8));

TEST(ParCsr, MatvecChargesHaloMessages) {
  par::Runtime rt(4);
  const sparse::Csr a = laplace3d(6, 0.1);
  const auto rows = par::RowPartition::even(GlobalIndex{216}, 4);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  ParVector x(rt, rows), y(rt, rows);
  x.fill(1.0);
  rt.tracer().reset();
  pa.matvec(x, y);
  // A block-partitioned 3D Laplacian has neighbor couplings: messages
  // must have been charged.
  EXPECT_GT(rt.tracer().phase("").total_messages(), 0);
}

}  // namespace
}  // namespace exw::linalg
