// Tests for the BoomerAMG-mini setup pipeline (paper §4.1): strength of
// connection, PMIS, coarse-level agglomeration, interpolation operators,
// distributed Galerkin RAP, hierarchy construction, and V-cycle
// convergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "amg/coarsen.hpp"
#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/rap.hpp"
#include "amg/soc.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace exw::amg {
namespace {

using testutil::aniso2d;
using testutil::laplace3d;
using testutil::matrix_diff;
using testutil::random_rect;
using testutil::random_vector;

linalg::ParCsr distribute(par::Runtime& rt, const sparse::Csr& a) {
  const auto rows = par::RowPartition::even(GlobalIndex{a.nrows().value()}, rt.nranks());
  return linalg::ParCsr::from_serial(rt, a, rows, rows);
}

TEST(Strength, ThresholdSelectsAnisotropicDirection) {
  // eps = 0.01: only the unit-strength y-couplings are strong at
  // theta = 0.25.
  par::Runtime rt(2);
  const auto a = distribute(rt, aniso2d(8, 0.01));
  const Strength s = compute_strength(a, 0.25);
  double strong = 0;
  for (double c : strong_counts(s)) strong += c;
  // Each interior point has exactly 2 strong neighbors (up/down);
  // boundary points 1: total = 2*(n*(n-1)) directed edges.
  EXPECT_DOUBLE_EQ(strong, 2.0 * 8 * 7);
}

TEST(Strength, DiagonalNeverStrong) {
  par::Runtime rt(1);
  const auto a = distribute(rt, laplace3d(4));
  const Strength s = compute_strength(a, 0.0);
  const auto& b = a.block(RankId{0});
  for (LocalIndex i{0}; i < b.diag.nrows(); ++i) {
    for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
      if (b.diag.cols()[k] == i) {
        EXPECT_FALSE(s.strong_diag(RankId{0}, static_cast<std::size_t>(k)));
      }
    }
  }
}

class AmgRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(AmgRankSweep, PmisProducesValidSplitting) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto a = distribute(rt, laplace3d(8));
  const Strength s = compute_strength(a, 0.25);
  const Coarsening c = pmis(a, s, 7);
  // Nontrivial coarsening.
  EXPECT_GT(c.coarse_size(), GlobalIndex{0});
  EXPECT_LT(c.coarse_size(), a.global_rows());
  // Every point decided; coarse ids contiguous per rank.
  for (RankId r{0}; r.value() < nranks; ++r) {
    GlobalIndex expect = c.coarse_rows.first_row(r);
    for (std::size_t i = 0; i < c.cf[static_cast<std::size_t>(r)].size(); ++i) {
      EXPECT_NE(c.cf[static_cast<std::size_t>(r)][i], CF::kUndecided);
      if (c.cf[static_cast<std::size_t>(r)][i] == CF::kCoarse) {
        EXPECT_EQ(c.coarse_id[static_cast<std::size_t>(r)][i], expect++);
      } else {
        EXPECT_EQ(c.coarse_id[static_cast<std::size_t>(r)][i], kInvalidGlobal);
      }
    }
    EXPECT_EQ(expect, c.coarse_rows.end_row(r));
  }
}

TEST_P(AmgRankSweep, PmisIndependentOfRankCount) {
  // The measure hashes *global* ids, so the C/F splitting must be
  // identical for any partitioning into contiguous blocks.
  const int nranks = GetParam();
  par::Runtime rt1(1), rtn(nranks);
  const auto a1 = distribute(rt1, laplace3d(7));
  const auto an = distribute(rtn, laplace3d(7));
  const Coarsening c1 = pmis(a1, compute_strength(a1, 0.25), 3);
  const Coarsening cn = pmis(an, compute_strength(an, 0.25), 3);
  ASSERT_EQ(c1.coarse_size(), cn.coarse_size());
  for (GlobalIndex g{0}; g < a1.global_rows(); ++g) {
    EXPECT_EQ(static_cast<int>(c1.cf_of(a1.rows(), g)),
              static_cast<int>(cn.cf_of(an.rows(), g)));
  }
}

TEST_P(AmgRankSweep, InterpolationPreservesConstants) {
  // For zero-row-sum M-matrix rows (pure Neumann-free interior), the
  // interpolation of the constant vector must be exact: P * 1_C = 1 on
  // every F row with at least one strong C neighbor.
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  // Laplacian without shift has zero row sums in the interior only; use
  // aniso2d which has zero row sums everywhere (pure Neumann would be
  // singular, but interpolation only looks at rows).
  const auto a = distribute(rt, aniso2d(10, 0.2));
  const Strength s = compute_strength(a, 0.25);
  const Coarsening c = pmis(a, s, 11);
  for (auto interp : {InterpType::kDirect, InterpType::kBamg,
                      InterpType::kMmExt, InterpType::kMmExtI}) {
    AmgConfig cfg;
    cfg.interp = interp;
    cfg.pmax = 0;  // no truncation: exactness is only guaranteed untruncated
    const auto p = build_interpolation(a, s, c, cfg);
    linalg::ParVector ones_c(rt, p.cols());
    linalg::ParVector result(rt, p.rows());
    ones_c.fill(1.0);
    p.matvec(ones_c, result);
    const auto res = result.gather();
    for (RankId r{0}; r.value() < nranks; ++r) {
      for (LocalIndex i{0}; i < a.rows().local_size(r); ++i) {
        const auto g = static_cast<std::size_t>(a.rows().first_row(r) + i.value());
        const bool empty_row =
            p.block(r).diag.row_nnz(i).value() + p.block(r).offd.row_nnz(i).value() == 0;
        if (!empty_row) {
          EXPECT_NEAR(res[g], 1.0, 1e-10)
              << "interp " << static_cast<int>(interp) << " row " << g;
        }
      }
    }
  }
}

TEST_P(AmgRankSweep, RapMatchesSerialTripleProduct) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto a = distribute(rt, laplace3d(6, 0.05));
  const Strength s = compute_strength(a, 0.25);
  const Coarsening c = pmis(a, s, 5);
  AmgConfig cfg;
  const auto p = build_interpolation(a, s, c, cfg);
  const auto ac = galerkin_rap(a, p);
  // Serial reference.
  const auto a_serial = a.to_serial();
  const auto p_serial = p.to_serial();
  const auto ref = sparse::rap(a_serial, p_serial);
  EXPECT_LT(matrix_diff(ac.to_serial(), ref), 1e-10);
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(AmgRankSweep, ParMatmatMatchesSerial) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr as = testutil::random_spd_ish(LocalIndex{60}, 4, 31);
  const sparse::Csr bs = random_rect(LocalIndex{60}, LocalIndex{25}, 3, 32);
  const auto rows = par::RowPartition::even(GlobalIndex{60}, nranks);
  const auto cols = par::RowPartition::even(GlobalIndex{25}, nranks);
  const auto a = linalg::ParCsr::from_serial(rt, as, rows, rows);
  const auto b = linalg::ParCsr::from_serial(rt, bs, rows, cols);
  const auto c = par_matmat(a, b);
  EXPECT_LT(matrix_diff(c.to_serial(), sparse::spgemm(as, bs)), 1e-11);
}

TEST_P(AmgRankSweep, VcycleConvergesOnLaplacian) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto a = distribute(rt, laplace3d(12, 0.01));
  AmgConfig cfg;
  AmgHierarchy h(a, cfg);
  EXPECT_GE(h.num_levels(), 2);
  EXPECT_LT(h.operator_complexity(), 3.0);

  linalg::ParVector b(rt, a.rows()), x(rt, a.rows()), r(rt, a.rows());
  b.scatter(random_vector(static_cast<std::size_t>(a.global_rows()), 2));
  x.fill(0.0);
  a.residual(b, x, r);
  const Real r0 = r.norm2();
  for (int it = 0; it < 10; ++it) {
    h.vcycle(b, x);
  }
  a.residual(b, x, r);
  EXPECT_LT(r.norm2(), 1e-3 * r0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, AmgRankSweep, ::testing::Values(1, 2, 4, 6));

// ----------------------------------------------- coarse-level agglomeration --

class AgglomerateRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(AgglomerateRankSweep, KeepsSplitAndIdsAndMovesGroupsToFirstRank) {
  // Agglomeration changes only coarse_rows: the C/F split and every
  // coarse id stay as pmis made them, and each group of
  // k = ceil(T / average) consecutive ranks' rows lands on the group's
  // first rank. The thresholds cover no-op, groups that divide the rank
  // count, a short last group and one group of every rank.
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto a = distribute(rt, laplace3d(10));
  const Coarsening ref = pmis(a, compute_strength(a, 0.25), 7);
  const std::int64_t n = ref.coarse_size().value();
  ASSERT_GT(n, 0);
  for (int t : {0, 1, 7, 32, 100, 100000}) {
    Coarsening c = ref;
    agglomerate(c, t);
    EXPECT_EQ(c.cf, ref.cf) << "T=" << t;
    EXPECT_EQ(c.coarse_id, ref.coarse_id) << "T=" << t;
    ASSERT_EQ(c.coarse_size(), ref.coarse_size());
    const std::int64_t k =
        t == 0 ? 1
               : std::min<std::int64_t>(nranks, (std::int64_t{t} * nranks + n - 1) / n);
    for (RankId r{0}; r.value() < nranks; ++r) {
      const RankId leader{r.value() / k * k};
      if (r == leader) {
        const RankId end{std::min<std::int64_t>(r.value() + k, nranks)};
        EXPECT_EQ(c.coarse_rows.first_row(r), ref.coarse_rows.first_row(r));
        EXPECT_EQ(c.coarse_rows.end_row(r), ref.coarse_rows.first_row(end));
      } else {
        EXPECT_EQ(c.coarse_rows.local_size(r), LocalIndex{0})
            << "T=" << t << " rank " << r.value();
      }
      for (const GlobalIndex g : c.coarse_id[static_cast<std::size_t>(r)]) {
        if (g != kInvalidGlobal) {
          EXPECT_EQ(c.coarse_rows.rank_of(g), leader);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AgglomerateRankSweep,
                         ::testing::Values(4, 24, 96));

TEST(Agglomerate, VcycleMatchesBetweenInlineExecutorAndPool) {
  // At T = 64 on 24 ranks the coarse levels live on a few group leaders;
  // every other rank owns zero rows there and runs empty kernels, sends
  // and receives. Two V-cycles must give the same bits on the inline
  // executor and on the pool, in FP64 and FP32.
  const auto mat = laplace3d(12, 0.01);
  for (Precision prec : {Precision::kF64, Precision::kF32}) {
    const auto run = [&] {
      par::Runtime rt(24);
      const auto a = distribute(rt, mat);
      AmgConfig cfg;
      cfg.min_coarse_rows_per_rank = 64;
      cfg.precision = prec;
      AmgHierarchy h(a, cfg);
      bool empty_rank = false;
      for (int l = 1; l < h.num_levels(); ++l) {
        const auto& rows = h.level(l).a.rows();
        for (RankId r{0}; r.value() < rows.nranks(); ++r) {
          empty_rank = empty_rank || rows.local_size(r) == LocalIndex{0};
        }
      }
      EXPECT_TRUE(empty_rank) << "no coarse level was agglomerated";
      linalg::ParVector b(rt, a.rows()), x(rt, a.rows());
      b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 5));
      x.fill(0.0);
      h.vcycle(b, x);
      h.vcycle(b, x);
      return x.gather();
    };
    const bool saved = par::serial_mode();
    par::set_serial_mode(true);
    const auto ref = run();
    par::set_serial_mode(false);
    const auto got = run();
    par::set_serial_mode(saved);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(Real)), 0)
        << "agglomerated V-cycle differs between the inline executor and the "
           "pool, precision "
        << static_cast<int>(prec);
  }
}

TEST(Interp, CoarseRowsAreIdentity) {
  par::Runtime rt(3);
  const auto a = distribute(rt, laplace3d(6));
  const Strength s = compute_strength(a, 0.25);
  const Coarsening c = pmis(a, s, 9);
  AmgConfig cfg;
  const auto p = build_interpolation(a, s, c, cfg);
  const auto ps = p.to_serial();
  for (RankId r{0}; r.value() < 3; ++r) {
    for (LocalIndex i{0}; i < a.rows().local_size(r); ++i) {
      if (c.cf[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] !=
          CF::kCoarse) {
        continue;
      }
      const auto g = checked_narrow<LocalIndex>(a.rows().first_row(r) + i.value());
      EXPECT_EQ(ps.row_nnz(g), LocalIndex{1});
      EXPECT_DOUBLE_EQ(
          ps.at(g, checked_narrow<LocalIndex>(
                       c.coarse_id[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)])),
          1.0);
    }
  }
}

TEST(Interp, TruncationRespectsPmaxAndRowSum) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(8));
  const Strength s = compute_strength(a, 0.1);
  const Coarsening c = pmis(a, s, 13);
  AmgConfig cfg;
  cfg.interp = InterpType::kMmExt;
  cfg.pmax = 0;
  auto p = build_interpolation(a, s, c, cfg);
  // Record row sums before truncation.
  const auto before = p.to_serial();
  truncate_interpolation(p, 3);
  const auto after = p.to_serial();
  for (LocalIndex i{0}; i < after.nrows(); ++i) {
    EXPECT_LE(after.row_nnz(i), LocalIndex{3});
    Real sb = 0, sa = 0;
    for (EntryOffset k = before.row_begin(i); k < before.row_end(i); ++k) {
      sb += before.vals()[k];
    }
    for (EntryOffset k = after.row_begin(i); k < after.row_end(i); ++k) {
      sa += after.vals()[k];
    }
    if (before.row_nnz(i) > LocalIndex{0}) {
      EXPECT_NEAR(sa, sb, 1e-9 * std::max<Real>(1.0, std::abs(sb)));
    }
  }
}

TEST(Hierarchy, AggressiveCoarseningReducesComplexity) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(14, 0.01));
  AmgConfig standard;
  standard.agg_levels = 0;
  AmgConfig aggressive;
  aggressive.agg_levels = 2;
  AmgHierarchy hs(a, standard);
  AmgHierarchy ha(a, aggressive);
  // Aggressive coarsening: smaller level-1 grid and lower complexity
  // (paper §4.1: "can reduce the grid and operator complexities").
  EXPECT_LT(ha.level(1).a.global_rows(), hs.level(1).a.global_rows());
  EXPECT_LE(ha.operator_complexity(), hs.operator_complexity() + 0.05);
}

TEST(Hierarchy, MmExtBeatsDirectOnConvergence) {
  // The paper's motivation for extended interpolation: better convergence
  // where PMIS leaves F points without C neighbors.
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(12, 0.01));
  auto factor = [&](InterpType interp) {
    AmgConfig cfg;
    cfg.interp = interp;
    AmgHierarchy h(a, cfg);
    linalg::ParVector b(rt, a.rows()), x(rt, a.rows()), r(rt, a.rows());
    b.scatter(random_vector(static_cast<std::size_t>(a.global_rows()), 4));
    x.fill(0.0);
    a.residual(b, x, r);
    const Real r0 = r.norm2();
    for (int it = 0; it < 8; ++it) {
      h.vcycle(b, x);
    }
    a.residual(b, x, r);
    return std::pow(r.norm2() / r0, 1.0 / 8.0);
  };
  EXPECT_LT(factor(InterpType::kMmExt), factor(InterpType::kDirect) + 0.02);
}

TEST(Hierarchy, DescribeListsLevels) {
  par::Runtime rt(1);
  const auto a = distribute(rt, laplace3d(8, 0.01));
  AmgHierarchy h(a, AmgConfig{});
  const std::string desc = h.describe();
  EXPECT_NE(desc.find("levels"), std::string::npos);
  EXPECT_NE(desc.find("operator complexity"), std::string::npos);
}

TEST(Hierarchy, VcycleRunsTenRegionsPerLevel) {
  // The fused region structure of a V-cycle level: each two-stage sweep
  // is a halo pack plus one body (residual, JR solve, update), the
  // residual a pack plus one body, the restriction the transpose send
  // plus the owners' pass (which zeroes the next level's iterate), and
  // the prolongation a pack plus one body that also applies the
  // correction: 2 + 2 + 2 + 2 + 2. The coarse solve gathers and
  // scatters.
  par::Runtime rt(4);
  const auto a = distribute(rt, laplace3d(10, 0.05));
  AmgConfig cfg;
  cfg.agg_levels = 0;  // standard coarsening: more levels from 1000 rows
  AmgHierarchy h(a, cfg);
  ASSERT_GE(h.num_levels(), 3);
  linalg::ParVector b(rt, a.rows()), x(rt, a.rows());
  b.scatter(random_vector(1000, 5));
  h.vcycle(b, x);  // first use sizes the channels and the sweep scratch
  const auto& pool = par::ThreadPool::instance();
  const std::uint64_t before = pool.regions();
  h.vcycle(b, x);
  EXPECT_EQ(pool.regions() - before,
            10u * static_cast<std::uint64_t>(h.num_levels() - 1) + 2u);
}

}  // namespace
}  // namespace exw::amg
