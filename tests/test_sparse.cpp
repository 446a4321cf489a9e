// Unit + property tests: CSR kernels, SpGEMM (hash vs sort), dense LU.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "sparse/dense.hpp"
#include "sparse/spgemm.hpp"
#include "test_util.hpp"

namespace exw::sparse {
namespace {

using testutil::laplace3d;
using testutil::matrix_diff;
using testutil::max_diff;
using testutil::random_rect;
using testutil::random_spd_ish;
using testutil::random_vector;

TEST(Csr, FromTriplesSumsDuplicates) {
  const Csr a = Csr::from_triples(LocalIndex{2}, LocalIndex{2},
                                  {LocalIndex{0}, LocalIndex{0}, LocalIndex{1}, LocalIndex{0}},
                                  {LocalIndex{1}, LocalIndex{1}, LocalIndex{0}, LocalIndex{0}},
                                  {1.0, 2.0, 5.0, 4.0});
  EXPECT_EQ(a.nnz(), 3u);
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{0}, LocalIndex{1}), 3.0);
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{0}, LocalIndex{0}), 4.0);
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{1}, LocalIndex{0}), 5.0);
  EXPECT_DOUBLE_EQ(a.at(LocalIndex{1}, LocalIndex{1}), 0.0);
}

TEST(Csr, IdentitySpmv) {
  const Csr eye = Csr::identity(LocalIndex{5});
  const RealVector x = random_vector(5, 3);
  RealVector y(5, 0.0);
  eye.spmv(x, y);
  EXPECT_NEAR(max_diff(x, y), 0.0, 0.0);
}

TEST(Csr, SpmvAlphaBeta) {
  const Csr a = random_spd_ish(LocalIndex{40}, 5, 11);
  const RealVector x = random_vector(40, 4);
  RealVector y = random_vector(40, 5);
  RealVector y2 = y;
  a.spmv(x, y, 2.0, 3.0);
  // Reference.
  RealVector ax(40, 0.0);
  a.spmv(x, ax);
  for (std::size_t i = 0; i < y2.size(); ++i) {
    y2[i] = 3.0 * y2[i] + 2.0 * ax[i];
  }
  EXPECT_LT(max_diff(y, y2), 1e-12);
}

TEST(Csr, SpmvMultiMatchesSpmvBitwise) {
  // Every lane count (one template instance each) against the serial
  // spmv, lane by lane, with strides that leave padding between lanes.
  const LocalIndex nr{37}, nc{29};
  const Csr a = random_rect(nr, nc, 5, 13);
  const auto rows = static_cast<std::size_t>(nr);
  const auto cols = static_cast<std::size_t>(nc);
  const std::size_t xs = cols + 3, ys = rows + 5;
  const std::pair<Real, Real> coeffs[] = {
      {1.0, 0.0}, {1.5, 0.0}, {-1.0, 1.0}, {0.5, 2.0}};
  for (std::size_t lanes = 1; lanes <= Csr::kMaxLanes; ++lanes) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    // x padding is NaN: reading it would poison the result.
    RealVector x(lanes * xs, std::numeric_limits<Real>::quiet_NaN());
    RealVector y0(lanes * ys);
    for (std::size_t c = 0; c < lanes; ++c) {
      const RealVector xc = random_vector(cols, 100 + c);
      std::copy(xc.begin(), xc.end(),
                x.begin() + static_cast<std::ptrdiff_t>(c * xs));
      const RealVector yc = random_vector(ys, 200 + c);
      std::copy(yc.begin(), yc.end(),
                y0.begin() + static_cast<std::ptrdiff_t>(c * ys));
    }
    for (const auto& [alpha, beta] : coeffs) {
      RealVector y = y0;
      a.spmv_multi(x, xs, y, ys, lanes, alpha, beta);
      for (std::size_t c = 0; c < lanes; ++c) {
        RealVector ref(y0.begin() + static_cast<std::ptrdiff_t>(c * ys),
                       y0.begin() + static_cast<std::ptrdiff_t>((c + 1) * ys));
        a.spmv(std::span<const Real>(x).subspan(c * xs, cols), ref, alpha,
               beta);
        for (std::size_t i = 0; i < ys; ++i) {
          // Rows match bitwise; the padding past them is untouched.
          ASSERT_EQ(y[c * ys + i], ref[i]) << "lane " << c << " row " << i;
        }
      }
    }
  }
  RealVector x(9 * xs), y(9 * ys);
  EXPECT_THROW(a.spmv_multi(x, xs, y, ys, 0), Error);
  EXPECT_THROW(a.spmv_multi(x, xs, y, ys, Csr::kMaxLanes + 1), Error);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  const Csr a = random_rect(LocalIndex{30}, LocalIndex{17}, 4, 7);
  const Csr att = a.transpose().transpose();
  EXPECT_LT(matrix_diff(a, att), 1e-15);
}

TEST(Csr, TransposeMatchesSpmvTranspose) {
  const Csr a = random_rect(LocalIndex{25}, LocalIndex{33}, 5, 9);
  const Csr at = a.transpose();
  const RealVector x = random_vector(25, 10);
  RealVector y1(33, 0.0), y2(33, 0.0);
  a.spmv_transpose(x, y1);
  at.spmv(x, y2);
  EXPECT_LT(max_diff(y1, y2), 1e-12);
}

TEST(Csr, DiagonalAndScaleRows) {
  const Csr a = random_spd_ish(LocalIndex{15}, 4, 21);
  const auto d = a.diagonal();
  for (LocalIndex i{0}; i < LocalIndex{15}; ++i) {
    EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)], a.at(i, i));
  }
}

// --- SpGEMM -------------------------------------------------------------

class SpGemmProperty
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SpGemmProperty, HashEqualsSortEqualsDense) {
  const auto [m, n, seed] = GetParam();
  const Csr a = random_rect(static_cast<LocalIndex>(m), static_cast<LocalIndex>(n), 5, seed);
  const Csr b = random_rect(static_cast<LocalIndex>(n), static_cast<LocalIndex>(m), 4, seed + 1);
  const Csr ch = spgemm_hash(a, b);
  const Csr cs = spgemm_sort(a, b);
  EXPECT_LT(matrix_diff(ch, cs), 1e-11);
  // Dense reference on a few random rows.
  Rng rng(seed + 2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto i = static_cast<LocalIndex>(rng.index(static_cast<std::uint64_t>(m)));
    const auto j = static_cast<LocalIndex>(rng.index(static_cast<std::uint64_t>(m)));
    Real ref = 0;
    for (LocalIndex k{0}; k < LocalIndex{n}; ++k) {
      ref += a.at(i, k) * b.at(k, j);
    }
    EXPECT_NEAR(ch.at(i, j), ref, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpGemmProperty,
    ::testing::Values(std::tuple{20, 30, 1ull}, std::tuple{64, 64, 2ull},
                      std::tuple{100, 40, 3ull}, std::tuple{7, 150, 4ull},
                      std::tuple{128, 128, 5ull}));

TEST(SpGemm, IdentityIsNeutral) {
  const Csr a = random_rect(LocalIndex{30}, LocalIndex{30}, 5, 42);
  const Csr eye = Csr::identity(LocalIndex{30});
  EXPECT_LT(matrix_diff(spgemm(a, eye), a), 1e-15);
  EXPECT_LT(matrix_diff(spgemm(eye, a), a), 1e-15);
}

TEST(SpGemm, RapEqualsTripleProduct) {
  const Csr a = laplace3d(4);
  const Csr p = random_rect(LocalIndex{64}, LocalIndex{20}, 3, 17);
  const Csr c1 = rap(a, p);
  const Csr c2 = triple_product(p.transpose(), a, p);
  EXPECT_LT(matrix_diff(c1, c2), 1e-11);
}

TEST(SpGemm, FlopCountMatchesExpansionSize) {
  const Csr a = random_rect(LocalIndex{25}, LocalIndex{25}, 3, 8);
  const Csr b = random_rect(LocalIndex{25}, LocalIndex{25}, 3, 9);
  double expansion = 0;
  for (LocalIndex i{0}; i < a.nrows(); ++i) {
    for (EntryOffset k = a.row_begin(i); k < a.row_end(i); ++k) {
      expansion += static_cast<double>(b.row_nnz(a.cols()[k]).value());
    }
  }
  EXPECT_DOUBLE_EQ(spgemm_flops(a, b), 2.0 * expansion);
}

// --- Dense LU -----------------------------------------------------------

TEST(DenseLu, SolvesLaplacian) {
  const Csr a = laplace3d(3, 0.2);
  const DenseLu lu(a);
  const RealVector b = random_vector(27, 5);
  const auto x = lu.solve(b);
  EXPECT_LT(residual_inf_norm(a, x, b), 1e-10);
}

TEST(DenseLu, PivotingHandlesZeroLeadingDiag) {
  // [[0 1],[1 0]] requires a pivot swap.
  const DenseLu lu(LocalIndex{2}, {0.0, 1.0, 1.0, 0.0});
  const auto x = lu.solve(RealVector{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(DenseLu, ThrowsOnSingular) {
  const std::vector<Real> singular{1.0, 2.0, 2.0, 4.0};
  EXPECT_THROW(DenseLu lu(LocalIndex{2}, singular), Error);
}

TEST(Csr, EntryOffsetsSurvivePast32Bits) {
  // Regression for 32-bit nnz overflow: row offsets are 64-bit EntryOffset,
  // so a rank whose entry count passes 2^31 keeps exact row bounds. The
  // probe plants synthetic >32-bit offsets directly in row_ptr instead of
  // allocating 2^31 entries.
  Csr m(LocalIndex{2}, LocalIndex{4});
  auto& rp = m.row_ptr_mut();
  const std::int64_t base = (std::int64_t{1} << 35) + 7;
  rp[0] = EntryOffset{base};
  rp[1] = EntryOffset{base + 3};
  rp[2] = EntryOffset{base + 5};
  EXPECT_EQ(m.row_begin(LocalIndex{0}), EntryOffset{base});
  EXPECT_EQ(m.row_end(LocalIndex{1}), EntryOffset{base + 5});
  // Differences stay in 64-bit space; the per-row count narrows safely.
  EXPECT_EQ(m.row_nnz(LocalIndex{0}), LocalIndex{3});
  EXPECT_EQ(m.row_nnz(LocalIndex{1}), LocalIndex{2});
  EXPECT_EQ((m.row_end(LocalIndex{1}) - m.row_begin(LocalIndex{0})).value(),
            std::int64_t{5});
}

}  // namespace
}  // namespace exw::sparse
