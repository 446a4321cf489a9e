// Tests for the AMG hierarchy cache: its key, the HierarchyCache
// rebuild/reuse decision on linalg::ValueCheck's verdict, and the
// check's charges.
#include <gtest/gtest.h>

#include <cmath>

#include "amg/cache.hpp"
#include "amg/hierarchy.hpp"
#include "linalg/value_check.hpp"
#include "test_util.hpp"

namespace exw::amg {
namespace {

using testutil::laplace3d;

linalg::ParCsr distribute(par::Runtime& rt, const sparse::Csr& a) {
  const auto rows =
      par::RowPartition::even(GlobalIndex{a.nrows().value()}, rt.nranks());
  return linalg::ParCsr::from_serial(rt, a, rows, rows);
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

  cache.rebuild(a, cfg, /*generation=*/1);
  EXPECT_TRUE(cache.valid());
  EXPECT_EQ(cache.rebuilds(), 1);
  EXPECT_FALSE(cache.stale(1, cfg));
  EXPECT_TRUE(cache.stale(2, cfg));  // graph regenerated
  AmgConfig other = cfg;
  other.strong_threshold = 0.5;
  EXPECT_TRUE(cache.stale(1, other));  // knob changed
}

/// Copy of `a` with one diag/offd value of one rank replaced.
linalg::ParCsr with_value(const linalg::ParCsr& a, RankId r, bool offd,
                          Real value) {
  linalg::ParCsr c = a;
  linalg::RankBlock& blk = c.block_mut(r);
  (offd ? blk.offd : blk.diag).vals_vec().front() = value;
  return c;
}

TEST(HierarchyCache, DecidesRebuildOrReuse) {
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
  EXPECT_EQ(update(ulp), CacheAction::kRebuild);       // one ULP, one rank
  EXPECT_EQ(update(a), CacheAction::kRebuild);         // and back
  EXPECT_EQ(update(pos_zero), CacheAction::kRebuild);  // entry set to +0.0
  EXPECT_EQ(update(neg_zero), CacheAction::kRebuild);  // -0.0 for +0.0
  EXPECT_EQ(update(neg_zero), CacheAction::kReuse);    // -0.0 again
  EXPECT_EQ(update(a, 2), CacheAction::kRebuild);      // new generation
  EXPECT_EQ(update(a, 2, &other), CacheAction::kRebuild);  // new AmgConfig
  EXPECT_EQ(update(a, 2, &other, false), CacheAction::kRebuild);  // cache off
  EXPECT_EQ(update(a, 2, &other), CacheAction::kReuse);  // same key, values

  EXPECT_EQ(cache.rebuilds(), 8);
  EXPECT_EQ(cache.reuses(), 3);
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

}  // namespace
}  // namespace exw::amg
