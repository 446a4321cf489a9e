// Tests for the BoomerAMG-mini setup pipeline (paper §4.1): strength of
// connection, PMIS, coarse-level agglomeration, interpolation operators,
// distributed Galerkin RAP, hierarchy construction, and V-cycle
// convergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>

#include "amg/coarsen.hpp"
#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/rap.hpp"
#include "amg/soc.hpp"
#include "assembly/global.hpp"
#include "assembly/graph.hpp"
#include "assembly/layout.hpp"
#include "mesh/generators.hpp"
#include "par/thread_pool.hpp"
#include "perf/tracer.hpp"
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

TEST(Hierarchy, VcycleRunsFourRegionsPerLevel) {
  // The fused region structure of a V-cycle from a zero guess: a boundary
  // body runs level 0's pre-sweep from b alone and packs its result; then
  // every level above the coarsest runs four bodies: the residual with
  // the restriction's send share, the owners' pass with the next level's
  // zero-guess pre-sweep and pack, the prolongation with the correction
  // and the pack for the post-sweep, and the post-sweep with the pack for
  // the parent's prolongation. The coarse solve gathers, then scatters
  // and packs: 1 + 4 per level + 2. From a caller's guess, level 0's
  // pre-sweep is a pack and a body and its residual needs a pack of its
  // own: two more.
  par::Runtime rt(4);
  const auto a = distribute(rt, laplace3d(10, 0.05));
  AmgConfig cfg;
  cfg.agg_levels = 0;  // standard coarsening: more levels from 1000 rows
  AmgHierarchy h(a, cfg);
  ASSERT_GE(h.num_levels(), 3);
  linalg::ParVector b(rt, a.rows()), x(rt, a.rows());
  b.scatter(random_vector(1000, 5));
  h.vcycle(b, x);  // first use sizes the channels and the sweep scratch
  const auto levels = static_cast<std::uint64_t>(h.num_levels() - 1);
  const auto& pool = par::ThreadPool::instance();
  std::uint64_t before = pool.regions();
  h.vcycle_zero(b, x);
  EXPECT_EQ(pool.regions() - before, 4u * levels + 3u);
  before = pool.regions();
  h.vcycle(b, x);
  EXPECT_EQ(pool.regions() - before, 4u * levels + 5u);
}

TEST(Hierarchy, ZeroGuessVcycleSkipsOneHaloExchangePerLevel) {
  // A V-cycle whose every sweep exchanged x's halo sends, per level
  // above the coarsest, three halo exchanges of A (pre-sweep, residual,
  // post-sweep) and two of P (restriction and prolongation; the
  // transpose product sends one message per halo run): each pre-sweep
  // from the zero guess drops exactly one, so vcycle_zero's message
  // count falls by the sum of those levels' halo sends. Levels below
  // the first always start from zero, so a V-cycle from a caller's guess
  // falls by the same sum less level 0's. vcycle_zero leaves x
  // memcmp-equal to fill(0) and vcycle(), whatever x held, with as many
  // collectives. An FP32 hierarchy is run behind the FP64 boundary too,
  // against demote, zero fill, V-cycle and promote.
  const bool saved = par::serial_mode();
  for (const bool serial : {true, false}) {
    par::set_serial_mode(serial);
    for (const Precision prec : {Precision::kF64, Precision::kF32}) {
      SCOPED_TRACE(testing::Message() << (serial ? "inline, " : "pool, ")
                                      << (prec == Precision::kF32 ? "fp32"
                                                                  : "fp64"));
      par::Runtime rt(4);
      const auto a = distribute(rt, laplace3d(10, 0.05));
      AmgConfig cfg;
      cfg.agg_levels = 0;
      cfg.precision = prec;
      AmgHierarchy h(a, cfg);
      ASSERT_GE(h.num_levels(), 3);
      const auto halo_sends = [](const linalg::ParCsr& m) {
        long n = 0;
        for (const auto& s : m.comm().sends) n += static_cast<long>(s.size());
        return n;
      };
      long every_sweep = 0;  // messages when every sweep exchanged
      long skipped = 0;      // one exchange of A per level above the coarsest
      for (int l = 0; l + 1 < h.num_levels(); ++l) {
        every_sweep +=
            3 * halo_sends(h.level(l).a) + 2 * halo_sends(h.level(l).p);
        skipped += halo_sends(h.level(l).a);
      }
      linalg::ParVector b(rt, a.rows()), x(rt, a.rows()), xr(rt, a.rows());
      linalg::ParVector bp(rt, a.rows(), 1, prec), xp(rt, a.rows(), 1, prec);
      b.scatter(random_vector(1000, 15));
      x.scatter(random_vector(1000, 16));
      bp.copy_from(b);
      xp.fill(0.0);
      auto& tracer = rt.tracer();
      tracer.reset();
      h.vcycle(bp, xp);
      EXPECT_EQ(tracer.phase("").messages,
                every_sweep - skipped + halo_sends(a));
      const long guess_collectives = tracer.phase("").collectives;
      xr.copy_from(xp);
      tracer.reset();
      h.vcycle_zero(b, x);
      EXPECT_EQ(tracer.phase("").messages, every_sweep - skipped);
      EXPECT_EQ(tracer.phase("").collectives, guess_collectives);
      for (RankId r{0}; r.value() < rt.nranks(); ++r) {
        const RealVector& got = x.local(r);
        const RealVector& want = xr.local(r);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(Real)),
                  0)
            << "rank " << r;
      }
    }
  }
  par::set_serial_mode(saved);
}

// ------------------------------------------------------ pinned cold setup --



namespace setup_pin {

/// FNV-1a over 64-bit words: any flipped bit of any word moves it.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/// Row partition, col_map, CSR structure and value bits of `m`.
void add_matrix(Digest& d, const linalg::ParCsr& m) {
  d.add(m.rows().global_size().value());
  d.add(m.cols().global_size().value());
  for (RankId r{0}; r.value() < m.nranks(); ++r) {
    d.add(m.rows().first_row(r).value());
    d.add(m.cols().first_row(r).value());
    const auto& b = m.block(r);
    d.add(static_cast<std::uint64_t>(b.col_map.size()));
    for (const GlobalIndex g : b.col_map) d.add(g.value());
    for (const sparse::Csr* c : {&b.diag, &b.offd}) {
      d.add(static_cast<std::int64_t>(c->ncols().value()));
      for (const EntryOffset e : c->row_ptr().raw()) d.add(e.value());
      for (const LocalIndex j : c->cols().raw()) {
        d.add(static_cast<std::int64_t>(j.value()));
      }
      for (const Real v : c->vals().raw()) d.add(v);
    }
  }
}

/// Every level's A and P.
void add_hierarchy(Digest& d, const AmgHierarchy& h) {
  d.add(static_cast<std::int64_t>(h.num_levels()));
  for (int l = 0; l < h.num_levels(); ++l) {
    add_matrix(d, h.level(l).a);
    if (h.level(l).has_p) add_matrix(d, h.level(l).p);
  }
}

/// The phase's per-rank work and its message and collective counts.
void add_ledger(Digest& d, const perf::PhaseStats& ph) {
  for (const auto& w : ph.rank) {
    d.add(w.flops);
    d.add(w.bytes);
    d.add(w.index_bytes);
    d.add(w.value_bytes_f32);
    d.add(static_cast<std::int64_t>(w.kernels));
    d.add(w.msg_bytes);
    d.add(static_cast<std::int64_t>(w.msgs));
    d.add(w.max_kernel_flops);
  }
  d.add(static_cast<std::int64_t>(ph.messages));
  d.add(static_cast<std::int64_t>(ph.collectives));
  d.add(ph.coll_bytes);
}

/// The pressure-Poisson matrix of the single-turbine case's background
/// mesh (Dirichlet identity rows at outflow, fringe and hole nodes).
sparse::Csr pressure_matrix(Real refine) {
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  const auto& db = sys.meshes[0];
  par::Runtime rt(1);
  const auto layout =
      assembly::make_layout(db, 1, assembly::PartitionMethod::kGraph);
  std::vector<std::uint8_t> dirichlet(static_cast<std::size_t>(db.num_nodes()),
                                      0);
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
  const auto& rows = layout.numbering.rows;
  const std::vector<sparse::Coo> owned{graph.rank(RankId{0}).owned};
  const std::vector<sparse::Coo> shared{graph.rank(RankId{0}).shared};
  return assembly::assemble_matrix(rt, rows, rows, owned, shared).to_serial();
}

}  // namespace setup_pin

TEST(Hierarchy, Fp64LevelZeroHoldsNoWorkVectors) {
  // Level 0 runs on the caller's vectors, so an FP64 hierarchy holds no
  // level-0 x or b; an FP32 one keeps them as its precision boundary.
  // V-cycles from zero and from a guess leave the bits recorded while
  // every hierarchy still allocated them (digests of x).
  const std::uint64_t want[2][2] = {
      {2343548701435786993ull, 7087861998912339ull},               // fp64
      {17320150235185710692ull, 12505887102223248369ull}};  // fp32
  for (const Precision prec : {Precision::kF64, Precision::kF32}) {
    SCOPED_TRACE(prec == Precision::kF32 ? "fp32" : "fp64");
    par::Runtime rt(4);
    const auto a = distribute(rt, laplace3d(10, 0.05));
    AmgConfig cfg;
    cfg.agg_levels = 0;
    cfg.precision = prec;
    AmgHierarchy h(a, cfg);
    ASSERT_GE(h.num_levels(), 3);
    const bool boundary = prec == Precision::kF32;
    EXPECT_EQ(h.level(0).x != nullptr, boundary);
    EXPECT_EQ(h.level(0).b != nullptr, boundary);
    EXPECT_NE(h.level(0).r, nullptr);
    for (int l = 1; l < h.num_levels(); ++l) {
      EXPECT_NE(h.level(l).x, nullptr) << "level " << l;
      EXPECT_NE(h.level(l).b, nullptr) << "level " << l;
    }
    const auto digest = [](const linalg::ParVector& v) {
      setup_pin::Digest d;
      for (const Real x : v.gather()) d.add(x);
      return d.h;
    };
    linalg::ParVector b(rt, a.rows()), x(rt, a.rows());
    b.scatter(random_vector(1000, 25));
    h.vcycle_zero(b, x);
    // From a guess: the hierarchy's own precision on both sides.
    linalg::ParVector bg(rt, a.rows(), 1, prec), xg(rt, a.rows(), 1, prec);
    bg.copy_from(b);
    linalg::ParVector guess(rt, a.rows());
    guess.scatter(random_vector(1000, 26));
    xg.copy_from(guess);
    h.vcycle(bg, xg);
    const auto i = static_cast<std::size_t>(boundary);
    EXPECT_EQ(digest(x), want[i][0]) << "from zero: " << digest(x);
    EXPECT_EQ(digest(xg), want[i][1]) << "from a guess: " << digest(xg);
  }
}

TEST(Hierarchy, ColdSetupIsPinned) {
  // Every level's row partition, col_map, CSR structure and value bits
  // of A and P, and the setup phase's per-rank ledger, over the four
  // interpolations, both coarsening depths, agglomeration off and on,
  // and FP64 and FP32: one digest per input and rank count, the same on
  // the inline executor and on the pool. A changed addend order, a
  // flipped -0.0 or a moved charge changes a digest.
  struct Pin {
    int input;  // 0: laplace3d(8, 0.05), 1: single-turbine pressure
    int nranks;
    std::uint64_t setup, ledger;
  };
  const Pin pins[] = {
      {0, 1, 8169797608911366333ull, 8583497754368902037ull},
      {0, 4, 7300208704519112545ull, 3986813035881977906ull},
      {0, 24, 14363648510821626756ull, 4221431935086131631ull},
      {0, 96, 11146409167075312664ull, 10111148491477287248ull},
      {1, 1, 6517829015991610837ull, 1110553107312883425ull},
      {1, 4, 3237021715195806573ull, 13076767222990648463ull},
      {1, 24, 13037861049167017515ull, 4969774473492298125ull},
      {1, 96, 13657581522385208482ull, 4597614292575961742ull},
  };
  const sparse::Csr inputs[] = {laplace3d(8, 0.05),
                                setup_pin::pressure_matrix(0.2)};
  const bool saved = par::serial_mode();
  for (const bool serial : {true, false}) {
    par::set_serial_mode(serial);
    for (const Pin& pin : pins) {
      setup_pin::Digest setup, ledger;
      par::Runtime rt(pin.nranks);
      const auto a =
          distribute(rt, inputs[static_cast<std::size_t>(pin.input)]);
      for (const InterpType interp :
           {InterpType::kDirect, InterpType::kBamg, InterpType::kMmExt,
            InterpType::kMmExtI}) {
        for (const int agg : {0, 2}) {
          for (const int t : {0, 16}) {
            for (const Precision precision :
                 {Precision::kF64, Precision::kF32}) {
              AmgConfig cfg;
              cfg.interp = interp;
              cfg.pmax = interp == InterpType::kDirect ? 0 : 4;
              cfg.agg_levels = agg;
              cfg.min_coarse_rows_per_rank = t;
              cfg.precision = precision;
              rt.tracer().reset();
              std::unique_ptr<AmgHierarchy> h;
              {
                perf::PhaseScope scope(rt.tracer(), "setup");
                h = std::make_unique<AmgHierarchy>(a, cfg);
              }
              setup_pin::add_hierarchy(setup, *h);
              setup_pin::add_ledger(ledger, rt.tracer().phase("setup"));
            }
          }
        }
      }
      EXPECT_EQ(setup.h, pin.setup)
          << (serial ? "inline" : "pool") << ", input " << pin.input << ", "
          << pin.nranks << " ranks: setup digest " << setup.h;
      EXPECT_EQ(ledger.h, pin.ledger)
          << (serial ? "inline" : "pool") << ", input " << pin.input << ", "
          << pin.nranks << " ranks: ledger digest " << ledger.h;
    }
  }
  par::set_serial_mode(saved);
}

}  // namespace
}  // namespace exw::amg
