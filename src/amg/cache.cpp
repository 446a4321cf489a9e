#include "amg/cache.hpp"

#include <algorithm>
#include <utility>

#include "amg/charges.hpp"
#include "common/error.hpp"
#include "par/runtime.hpp"
#include "perf/purity.hpp"

namespace exw::amg {

std::unique_ptr<LevelReplay> freeze_level_replay(
    par::Runtime& rt, RapRecord&& record, const par::RowPartition& coarse) {
  auto lr = std::make_unique<LevelReplay>();
  lr->record = std::move(record);

  const auto nranks = static_cast<std::size_t>(rt.nranks());
  EXW_REQUIRE(lr->record.ranks.size() == nranks &&
                  lr->record.owned.size() == nranks &&
                  lr->record.shared.size() == nranks,
              "amg hierarchy cache: RAP record does not cover all ranks");

  // RAP is matrix-only; AssemblyPlan views carry an RHS half too, so park
  // permanent zero vectors / empty sparse adds alongside the triples.
  lr->rhs_owned.resize(nranks);
  lr->rhs_shared.resize(nranks);
  lr->views.resize(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    lr->rhs_owned[r].assign(
        static_cast<std::size_t>(coarse.local_size(RankId{checked_narrow<int>(r)})), 0.0);
    lr->views[r] = assembly::SystemView{&lr->record.owned[r],
                                        &lr->record.shared[r],
                                        &lr->rhs_owned[r], &lr->rhs_shared[r]};
  }
  lr->scratch.resize(nranks);

  // One cold structural pass over the frozen coarse triples (charged as
  // such by AssemblyPlan::build) — paid once per rebuild, never on refresh.
  lr->plan = assembly::AssemblyPlan::build(rt, coarse, coarse, lr->views);
  return lr;
}

EXW_WARM_FN
void replay_level(par::Runtime& rt, LevelReplay& lr,
                  const linalg::ParCsr& fine_a, linalg::ParCsr& coarse_a) {
  EXW_PURITY_REGION("amg-replay-level");
  perf::Tracer& tracer = rt.tracer();
  rt.parallel_for_ranks([&](RankId r) {
    const auto ri = static_cast<std::size_t>(r);
    const RapRecord::Rank& rec = lr.record.ranks[ri];
    const linalg::RankBlock& blk = fine_a.block(r);
    EXW_REQUIRE(blk.diag.nnz() == rec.a_diag_nnz &&
                    blk.offd.nnz() == rec.a_offd_nnz,
                "amg hierarchy plan is stale: fine-level structure changed");

    LevelReplay::Scratch& sc = lr.scratch[ri];
    // Gather the fine values into the frozen [diag | offd] slot layout.
    {
      // Both resizes below are no-ops after the first replay.
      EXW_PURITY_ALLOW("first-refill scratch priming");
      sc.a_flat.resize(rec.a_diag_nnz + rec.a_offd_nnz);
      sc.ap_vals.resize(rec.ap.outputs());
    }
    const auto dspan = blk.diag.vals().raw();
    const auto ospan = blk.offd.vals().raw();
    std::copy(dspan.begin(), dspan.end(), sc.a_flat.begin());
    std::copy(ospan.begin(), ospan.end(),
              sc.a_flat.begin() + static_cast<std::ptrdiff_t>(rec.a_diag_nnz));
    detail::charge_value_stream(tracer, r, sc.a_flat.size());

    // AP, then the coarse triples, through the frozen term plans.
    rec.ap.replay(sc.a_flat, rec.p_flat, sc.ap_vals);
    detail::charge_replay(tracer, r, rec.ap.flops(), rec.ap.outputs());

    sparse::Coo& ow = lr.record.owned[ri];
    sparse::Coo& sh = lr.record.shared[ri];
    rec.owned.replay(rec.p_flat, sc.ap_vals, ow.vals);
    rec.shared.replay(rec.p_flat, sc.ap_vals, sh.vals);
    detail::charge_replay(tracer, r, rec.owned.flops() + rec.shared.flops(),
                          rec.owned.outputs() + rec.shared.outputs());
  });

  // Value-only global assembly of the coarse operator (bitwise equal to
  // the cold sort/reduce the rebuild used).
  lr.plan.refill_matrix(rt, lr.views, coarse_a);
}

CacheAction HierarchyCache::update(const linalg::ParCsr& a,
                                   const AmgConfig& cfg,
                                   std::uint64_t generation, bool use_cache,
                                   bool values_changed) {
  if (!use_cache || stale(generation, cfg) || !hierarchy_->frozen()) {
    rebuild(a, cfg, generation, /*freeze=*/use_cache);
    return CacheAction::kRebuild;
  }
  if (!values_changed) {
    ++reuses_;
    return CacheAction::kReuse;
  }
  if (stagnating()) {
    rebuild(a, cfg, generation, /*freeze=*/true);
    return CacheAction::kRebuild;
  }
  refresh(a);
  return CacheAction::kRefresh;
}

void HierarchyCache::rebuild(const linalg::ParCsr& a, const AmgConfig& cfg,
                             std::uint64_t generation, bool freeze) {
  hierarchy_ = std::make_unique<AmgHierarchy>(a, cfg, freeze);
  cfg_ = cfg;
  generation_ = generation;
  valid_ = true;
  ++rebuilds_;
  baseline_iters_ = -1;
  last_iters_ = -1;
}

EXW_WARM_FN
void HierarchyCache::refresh(const linalg::ParCsr& a) {
  EXW_PURITY_REGION("amg-cache-refresh");
  EXW_REQUIRE(valid_ && hierarchy_ != nullptr,
              "hierarchy cache: refresh without a valid rebuild");
  hierarchy_->refresh_values(a);
  ++refreshes_;
}

void HierarchyCache::note_solve(int iterations) {
  last_iters_ = iterations;
  if (baseline_iters_ < 0) {
    baseline_iters_ = iterations;  // first solve after a rebuild
  }
}

bool HierarchyCache::stagnating() const {
  if (baseline_iters_ < 0 || last_iters_ < 0) {
    return false;
  }
  return static_cast<double>(last_iters_) >
         kStagnationRatio * static_cast<double>(std::max(baseline_iters_, 1));
}

}  // namespace exw::amg
