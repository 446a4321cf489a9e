// Unit + property tests: CSR kernels, SpGEMM (hash vs sort), dense LU.
#include <gtest/gtest.h>

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
