// Tests for the AMG hierarchy cache: the value-only refresh of a frozen
// hierarchy (bitwise against rebuilds and against cold Galerkin
// products), stale-structure detection, and the HierarchyCache
// rebuild/refresh/reuse decision on linalg::ValueCheck's verdict, with
// the check's charges.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "amg/cache.hpp"
#include "amg/hierarchy.hpp"
#include "amg/rap.hpp"
#include "linalg/value_check.hpp"
#include "sparse/spgemm.hpp"
#include "test_util.hpp"

namespace exw::amg {
namespace {

using testutil::laplace3d;
using testutil::random_vector;

linalg::ParCsr distribute(par::Runtime& rt, const sparse::Csr& a) {
  const auto rows =
      par::RowPartition::even(GlobalIndex{a.nrows().value()}, rt.nranks());
  return linalg::ParCsr::from_serial(rt, a, rows, rows);
}

bool same_span(std::span<const Real> a, std::span<const Real> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

bool same_vals(const std::vector<Real>& a, const std::vector<Real>& b) {
  return same_span(a, b);
}

/// Bitwise comparison of every rank block's diag/offd values.
bool bitwise_equal(const linalg::ParCsr& a, const linalg::ParCsr& b) {
  if (a.nranks() != b.nranks()) return false;
  for (RankId r{0}; r.value() < a.nranks(); ++r) {
    const auto& ab = a.block(r);
    const auto& bb = b.block(r);
    if (!same_span(ab.diag.vals().raw(), bb.diag.vals().raw()) ||
        !same_span(ab.offd.vals().raw(), bb.offd.vals().raw())) {
      return false;
    }
  }
  return true;
}

/// Build a frozen hierarchy on A(shift=0), refresh it through three
/// value changes ending back at the original values, and demand the
/// result is bitwise indistinguishable from a cold rebuild: identical
/// level operators and an identical V-cycle (which also exercises the
/// refreshed smoother splits and the retained coarse LU).
void expect_refresh_round_trip_matches_rebuild(int nranks,
                                               const AmgConfig& cfg) {
  par::Runtime rt(nranks);
  const auto a0 = distribute(rt, laplace3d(8, 0.0));
  const auto a1 = distribute(rt, laplace3d(8, 0.5));
  const auto a2 = distribute(rt, laplace3d(8, 0.01));

  AmgHierarchy h(a0, cfg, /*freeze_replay=*/true);
  ASSERT_TRUE(h.frozen());
  h.refresh_values(a1);
  h.refresh_values(a2);
  h.refresh_values(a0);

  AmgHierarchy fresh(a0, cfg);
  ASSERT_EQ(h.num_levels(), fresh.num_levels());
  for (int l = 0; l < h.num_levels(); ++l) {
    EXPECT_TRUE(bitwise_equal(h.level(l).a, fresh.level(l).a))
        << "level " << l << " operator differs after refresh round trip";
  }

  linalg::ParVector b(rt, a0.rows()), x_ref(rt, a0.rows()),
      x_fresh(rt, a0.rows());
  b.scatter(random_vector(512, 17));
  x_ref.fill(0.0);
  x_fresh.fill(0.0);
  h.vcycle(b, x_ref);
  fresh.vcycle(b, x_fresh);
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& lr = x_ref.local(r);
    const auto& lf = x_fresh.local(r);
    ASSERT_EQ(lr.size(), lf.size());
    EXPECT_TRUE(same_vals(lr, lf)) << "V-cycle differs on rank " << r.value();
  }
}

class AmgCacheRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(AmgCacheRankSweep, RefreshRoundTripMatchesRebuildBitwise) {
  expect_refresh_round_trip_matches_rebuild(GetParam(), AmgConfig{});
}

TEST_P(AmgCacheRankSweep, RefreshedCoarseOperatorsMatchColdGalerkin) {
  // After a refresh with genuinely different values, every coarse operator
  // must equal the cold Galerkin product of the refreshed finer level with
  // the frozen interpolation — bitwise, not just to rounding.
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto a0 = distribute(rt, laplace3d(8, 0.0));
  const auto a1 = distribute(rt, laplace3d(8, 0.25));
  AmgConfig cfg;

  AmgHierarchy h(a0, cfg, /*freeze_replay=*/true);
  h.refresh_values(a1);
  ASSERT_GE(h.num_levels(), 2);
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    ASSERT_TRUE(h.level(l).has_p);
    const auto cold = galerkin_rap(h.level(l).a, h.level(l).p, cfg.spgemm);
    EXPECT_TRUE(bitwise_equal(cold, h.level(l + 1).a))
        << "transition " << l << " -> " << l + 1
        << " replay differs from the cold product";
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AmgCacheRankSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(AmgRefresh, AgglomeratedRoundTripMatchesRebuildBitwise) {
  // Coarse levels agglomerated onto group leaders, some ranks owning no
  // coarse rows: the frozen replay plans follow the agglomerated
  // partition, so a refresh still equals a rebuild bit for bit.
  AmgConfig cfg;
  cfg.min_coarse_rows_per_rank = 16;
  for (int nranks : {8, 24}) {
    par::Runtime rt(nranks);
    const AmgHierarchy h(distribute(rt, laplace3d(8, 0.0)), cfg);
    ASSERT_GE(h.num_levels(), 2);
    const auto& coarse = h.level(1).a.rows();
    int active = 0;
    for (RankId r{0}; r.value() < nranks; ++r) {
      active += coarse.local_size(r) > LocalIndex{0} ? 1 : 0;
    }
    EXPECT_LT(active, nranks) << "level 1 was not agglomerated";
    expect_refresh_round_trip_matches_rebuild(nranks, cfg);
  }
}

TEST(AmgRefresh, ThrowsOnStalePatternOrUnfrozenHierarchy) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  AmgHierarchy frozen(a, cfg, /*freeze_replay=*/true);
  // Different fine shape: the frozen plans no longer apply.
  const auto bigger = distribute(rt, laplace3d(7, 0.0));
  EXPECT_THROW(frozen.refresh_values(bigger), Error);
  // A hierarchy built without freeze_replay cannot refresh at all.
  AmgHierarchy plain(a, cfg);
  EXPECT_FALSE(plain.frozen());
  EXPECT_THROW(plain.refresh_values(a), Error);
}

TEST(AmgHierarchyComplexity, SingleLevelIsExactlyOne) {
  // With coarsening disabled the hierarchy is its own fine grid; both
  // complexity ratios must be exactly 1 (and must not divide by an empty
  // level list — the accessors are guarded).
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  cfg.max_levels = 1;
  AmgHierarchy h(a, cfg);
  ASSERT_EQ(h.num_levels(), 1);
  EXPECT_DOUBLE_EQ(h.grid_complexity(), 1.0);
  EXPECT_DOUBLE_EQ(h.operator_complexity(), 1.0);
}

TEST(HierarchyCache, KeysOnGenerationAndConfig) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  HierarchyCache cache;
  EXPECT_FALSE(cache.valid());
  EXPECT_TRUE(cache.stale(1, cfg));

  cache.rebuild(a, cfg, /*generation=*/1, /*freeze=*/true);
  EXPECT_TRUE(cache.valid());
  EXPECT_EQ(cache.rebuilds(), 1);
  EXPECT_FALSE(cache.stale(1, cfg));
  EXPECT_TRUE(cache.stale(2, cfg));  // graph regenerated
  AmgConfig other = cfg;
  other.strong_threshold = 0.5;
  EXPECT_TRUE(cache.stale(1, other));  // knob changed
  cache.invalidate();
  EXPECT_TRUE(cache.stale(1, cfg));
}

TEST(HierarchyCache, CountsSolvesAndDetectsStagnation) {
  par::Runtime rt(2);
  const auto a0 = distribute(rt, laplace3d(6, 0.0));
  const auto a1 = distribute(rt, laplace3d(6, 0.1));
  AmgConfig cfg;
  HierarchyCache cache;
  cache.rebuild(a0, cfg, 1, /*freeze=*/true);

  cache.note_solve(10);  // sets the post-rebuild baseline
  EXPECT_FALSE(cache.stagnating());
  cache.refresh(a1);
  EXPECT_EQ(cache.refreshes(), 1);
  cache.note_solve(12);
  EXPECT_FALSE(cache.stagnating());  // 12 <= 1.5 * 10
  cache.note_solve(16);
  EXPECT_TRUE(cache.stagnating());  // 16 > 1.5 * 10

  // A rebuild resets the baseline.
  cache.rebuild(a1, cfg, 1, /*freeze=*/true);
  EXPECT_EQ(cache.rebuilds(), 2);
  EXPECT_FALSE(cache.stagnating());
}

/// Copy of `a` with one diag/offd value of one rank replaced.
linalg::ParCsr with_value(const linalg::ParCsr& a, RankId r, bool offd,
                          Real value) {
  linalg::ParCsr c = a;
  linalg::RankBlock& blk = c.block_mut(r);
  (offd ? blk.offd : blk.diag).vals_vec().front() = value;
  return c;
}

TEST(HierarchyCache, DecidesRebuildRefreshOrReuse) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  const linalg::ParCsr same = a;  // another matrix, identical values
  const Real d = a.block(RankId{1}).diag.vals().raw().front();
  const auto ulp = with_value(a, RankId{1}, /*offd=*/false,
                              std::nextafter(d, 2 * d));
  const auto pos_zero = with_value(a, RankId{0}, /*offd=*/true, +0.0);
  const auto neg_zero = with_value(a, RankId{0}, /*offd=*/true, -0.0);
  AmgConfig cfg;
  AmgConfig other = cfg;
  other.strong_threshold = 0.5;
  HierarchyCache cache;
  linalg::ValueCheck check;
  auto update = [&](const linalg::ParCsr& m, std::uint64_t gen = 1,
                    const AmgConfig* c = nullptr, bool use_cache = true) {
    return cache.update(m, c != nullptr ? *c : cfg, gen, use_cache,
                        check.values_changed(m, gen));
  };

  EXPECT_EQ(update(a), CacheAction::kRebuild);         // empty cache
  EXPECT_EQ(update(same), CacheAction::kReuse);        // identical values
  EXPECT_EQ(update(ulp), CacheAction::kRefresh);       // one ULP, one rank
  EXPECT_EQ(update(a), CacheAction::kRefresh);         // and back
  EXPECT_EQ(update(pos_zero), CacheAction::kRefresh);  // entry set to +0.0
  EXPECT_EQ(update(neg_zero), CacheAction::kRefresh);  // -0.0 for +0.0
  EXPECT_EQ(update(neg_zero), CacheAction::kReuse);    // -0.0 again
  cache.note_solve(10);  // post-rebuild baseline
  cache.note_solve(16);  // 16 > 1.5 * 10: stagnating
  EXPECT_EQ(update(neg_zero), CacheAction::kReuse);   // unchanged, stagnating
  EXPECT_EQ(update(a), CacheAction::kRebuild);        // changed, stagnating
  EXPECT_EQ(update(a, 2), CacheAction::kRebuild);     // new generation
  EXPECT_EQ(update(a, 2, &other), CacheAction::kRebuild);  // new AmgConfig
  EXPECT_EQ(update(a, 2, &other, false), CacheAction::kRebuild);  // cache off
  EXPECT_EQ(update(a, 2, &other), CacheAction::kRebuild);  // unfrozen: rebuild
  EXPECT_EQ(update(a, 2, &other), CacheAction::kReuse);

  EXPECT_EQ(cache.rebuilds(), 6);
  EXPECT_EQ(cache.refreshes(), 4);
  EXPECT_EQ(cache.reuses(), 4);
}

TEST(HierarchyCache, ReuseCheckChargesOneStreamPerRankAndOneAllreduce) {
  par::Runtime rt(4);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  HierarchyCache cache;
  linalg::ValueCheck check;
  const auto update = [&] {
    return cache.update(a, AmgConfig{}, 1, true, check.values_changed(a, 1));
  };
  ASSERT_EQ(update(), CacheAction::kRebuild);
  rt.tracer().reset();
  rt.tracer().push_phase("check");
  ASSERT_EQ(update(), CacheAction::kReuse);
  rt.tracer().pop_phase();
  const perf::PhaseStats& ph = rt.tracer().phase("check");
  EXPECT_EQ(ph.total_kernels(), rt.nranks());
  EXPECT_EQ(ph.collectives, 1);
  EXPECT_EQ(ph.total_messages(), 0);
  // One compare per stored value: the value stream reads the matrix and
  // the copy once each.
  EXPECT_EQ(ph.total_flops(), static_cast<double>(a.global_nnz().value()));
}

TEST(HierarchyCache, RefreshWithoutFreezeThrows) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  HierarchyCache cache;
  cache.rebuild(a, cfg, 1, /*freeze=*/false);
  EXPECT_THROW(cache.refresh(a), Error);
}

}  // namespace
}  // namespace exw::amg
