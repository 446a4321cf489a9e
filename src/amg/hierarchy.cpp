#include "amg/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.hpp"

#include "amg/cache.hpp"
#include "amg/charges.hpp"
#include "amg/coarsen.hpp"
#include "amg/interp.hpp"
#include "amg/rap.hpp"
#include "common/error.hpp"
#include "perf/purity.hpp"

namespace exw::amg {

namespace {

/// One coarsening round: S -> PMIS -> agglomeration -> P. Returns false
/// if coarsening stalled (no F points / empty coarse grid).
bool coarsen_once(const linalg::ParCsr& a, const AmgConfig& cfg,
                  std::uint64_t seed, linalg::ParCsr& p_out,
                  GlobalIndex& coarse_size) {
  const Strength s = compute_strength(a, cfg.strong_threshold);
  Coarsening c = pmis(a, s, seed);
  agglomerate(c, cfg.min_coarse_rows_per_rank);
  coarse_size = c.coarse_size();
  if (coarse_size == GlobalIndex{0} || coarse_size >= a.global_rows()) {
    return false;
  }
  p_out = build_interpolation(a, s, c, cfg);
  return true;
}

}  // namespace

AmgHierarchy::AmgHierarchy(const linalg::ParCsr& a, AmgConfig cfg,
                           bool freeze_replay)
    : cfg_(cfg), frozen_(freeze_replay) {
  setup(a);
}

AmgHierarchy::~AmgHierarchy() = default;

void AmgHierarchy::setup(const linalg::ParCsr& a) {
  par::Runtime& rt = a.runtime();
  levels_.emplace_back();
  levels_.back().a = a;

  std::uint64_t seed = cfg_.pmis_seed;
  while (checked_narrow<int>(levels_.size()) < cfg_.max_levels &&
         levels_.back().a.global_rows() > cfg_.max_coarse_size) {
    AmgLevel& lvl = levels_.back();
    const int level_index = checked_narrow<int>(levels_.size()) - 1;
    const bool aggressive = level_index < cfg_.agg_levels;

    linalg::ParCsr p1;
    GlobalIndex n1{0};
    seed = hash64(seed + 1);
    if (!coarsen_once(lvl.a, cfg_, seed, p1, n1)) {
      break;
    }
    // When freezing, record the value-replay structure of the *final* RAP
    // for this transition (galerkin_rap resets the record at entry, so the
    // aggressive path's second product simply overwrites the first).
    RapRecord record;
    RapRecord* rec = frozen_ ? &record : nullptr;
    linalg::ParCsr a1 = galerkin_rap(lvl.a, p1, cfg_.spgemm, rec);

    if (aggressive && a1.global_rows() > cfg_.max_coarse_size) {
      // Second stage: coarsen the first-stage grid again and combine the
      // interpolations (P = P1 * P2) — distance-2 coarsening with
      // two-stage interpolation.
      linalg::ParCsr p2;
      GlobalIndex n2{0};
      seed = hash64(seed + 2);
      if (coarsen_once(a1, cfg_, seed, p2, n2)) {
        p1 = par_matmat(p1, p2, cfg_.spgemm);
        truncate_interpolation(p1, cfg_.pmax);
        a1 = galerkin_rap(lvl.a, p1, cfg_.spgemm, rec);
      }
    }
    if (frozen_) {
      replays_.push_back(freeze_level_replay(rt, std::move(record),
                                             a1.rows()));
    }

    lvl.p = std::move(p1);
    lvl.has_p = true;
    levels_.emplace_back();
    levels_.back().a = std::move(a1);
  }

  // Mixed-precision hierarchy (DESIGN.md §16): the whole setup above ran
  // in FP64; demote every level's operator and transfer in one pass here,
  // so the stored hierarchy is round(FP64 Galerkin chain) — the same
  // values refresh_values reproduces. Must happen before the smoothers
  // are built: their diagonal splits capture the demoted values.
  if (cfg_.precision == Precision::kF32) {
    for (auto& lvl : levels_) {
      lvl.a.demote_values();
      if (lvl.has_p) {
        lvl.p.demote_values();
      }
    }
  }

  // Smoothers + work vectors per level; dense LU on the coarsest. Level 0
  // runs on the caller's vectors: its x and b exist only as the FP32
  // boundary of a mixed-precision hierarchy (vcycle_zero).
  for (auto& lvl : levels_) {
    lvl.smoother = std::make_unique<Smoother>(lvl.a, SmootherType::kTwoStageGs,
                                              /*inner_sweeps=*/1);
    if (&lvl != &levels_.front() || cfg_.precision == Precision::kF32) {
      lvl.x = std::make_unique<linalg::ParVector>(rt, lvl.a.rows(), 1,
                                                  cfg_.precision);
      lvl.b = std::make_unique<linalg::ParVector>(rt, lvl.a.rows(), 1,
                                                  cfg_.precision);
    }
    lvl.r = std::make_unique<linalg::ParVector>(rt, lvl.a.rows(), 1,
                                                cfg_.precision);
  }
  const auto& coarsest = levels_.back().a;
  coarse_lu_ = sparse::DenseLu(coarsest.to_serial());
  coarse_rhs_.assign(static_cast<std::size_t>(coarsest.global_rows()), 0.0);
  // Rebuild-only cost: refresh_values never re-factorizes (amg/charges.hpp).
  detail::charge_dense_lu(rt.tracer(), coarsest.global_rows().value());
}

EXW_WARM_FN
void AmgHierarchy::refresh_values(const linalg::ParCsr& a) {
  EXW_PURITY_REGION("amg-refresh");
  EXW_REQUIRE(frozen_,
              "amg hierarchy: refresh_values requires freeze_replay setup");
  EXW_REQUIRE(!levels_.empty(), "amg hierarchy: refresh before setup");
  linalg::ParCsr& fine = levels_.front().a;
  EXW_REQUIRE(a.global_rows() == fine.global_rows() &&
                  a.nranks() == fine.nranks(),
              "amg hierarchy plan is stale: fine matrix shape changed");

  // Level 0: copy the new values into the retained fine operator (one
  // streaming kernel per rank; structure fingerprint checked first).
  par::Runtime& rt = a.runtime();
  rt.parallel_for_ranks([&](RankId r) {
    const linalg::RankBlock& src = a.block(r);
    linalg::RankBlock& dst = fine.block_mut(r);
    EXW_REQUIRE(src.diag.nnz() == dst.diag.nnz() &&
                    src.offd.nnz() == dst.offd.nnz() &&
                    src.col_map.size() == dst.col_map.size(),
                "amg hierarchy plan is stale: fine-level structure changed");
    const auto dspan = src.diag.vals().raw();
    const auto ospan = src.offd.vals().raw();
    std::copy(dspan.begin(), dspan.end(), dst.diag.vals_vec().begin());
    std::copy(ospan.begin(), ospan.end(), dst.offd.vals_vec().begin());
    detail::charge_value_stream(rt.tracer(), r,
                                src.diag.nnz() + src.offd.nnz());
  });

  // Replay each transition: level l's refreshed operator feeds l+1.
  // In mixed mode the chain runs in FP64 — replay t reads the fresh FP64
  // values replay t-1 just wrote, not the rounded stores — and every
  // level demotes once at the end. The FP32 storage invariant is broken
  // only inside this call, and the result is bitwise-identical to a cold
  // rebuild at the same values (round of the same FP64 Galerkin chain).
  for (std::size_t t = 0; t < replays_.size(); ++t) {
    replay_level(rt, *replays_[t], levels_[t].a, levels_[t + 1].a);
  }
  if (cfg_.precision == Precision::kF32) {
    for (auto& lvl : levels_) {
      lvl.a.demote_values();
    }
  }

  // Re-split the smoothers against the refreshed operators. The coarse
  // LU keeps its factorization (rebuild-only O(n^3); see class comment).
  for (auto& lvl : levels_) {
    lvl.smoother->refresh_values();
  }
}

EXW_WARM_FN
void AmgHierarchy::vcycle(const linalg::ParVector& b, linalg::ParVector& x) {
  EXW_PURITY_REGION("amg-vcycle");
  EXW_REQUIRE(b.ncomp() == 1 && x.ncomp() == 1, "AMG V-cycle runs one lane");
  if (levels_.size() == 1) {
    coarse_solve(b, x);
    return;
  }
  AmgLevel& l0 = levels_.front();
  l0.smoother->apply(b, x, /*sweeps=*/1);
  l0.a.halo_pack(x);
  cycle(b, x, nullptr);
}

EXW_WARM_FN
void AmgHierarchy::vcycle_zero(const linalg::ParVector& b,
                               linalg::ParVector& x) {
  EXW_PURITY_REGION("amg-vcycle");
  EXW_REQUIRE(b.ncomp() == 1 && x.ncomp() == 1, "AMG V-cycle runs one lane");
  EXW_REQUIRE(b.value_precision() == x.value_precision(),
              "AMG V-cycle rhs and iterate precision mismatch");
  AmgLevel& l0 = levels_.front();
  par::Runtime& rt = l0.a.runtime();
  const bool mixed = x.value_precision() != l0.a.value_precision();
  EXW_REQUIRE(!mixed || cfg_.precision == Precision::kF32,
              "AMG V-cycle: only an FP32 hierarchy takes FP64 vectors");
  const linalg::ParVector& bs = mixed ? *l0.b : b;
  linalg::ParVector& xs = mixed ? *l0.x : x;
  if (levels_.size() == 1) {
    if (mixed) l0.b->copy_from(b);
    coarse_solve(bs, xs);
    if (mixed) x.copy_from(xs);
    return;
  }
  // The boundary body: each rank demotes its rows of b, runs level 0's
  // pre-sweep from the zero guess and packs its rows of the result for
  // the residual.
  l0.a.halo_begin(xs);
  rt.parallel_for_ranks([&](RankId rk) {
    if (mixed) l0.b->copy_from(rk, b);
    l0.smoother->sweep_zero(rk, bs, xs, *l0.r);
    l0.a.halo_pack(rk, xs);
  });
  cycle(bs, xs, mixed ? &x : nullptr);
}

void AmgHierarchy::cycle(const linalg::ParVector& b0, linalg::ParVector& x0,
                         linalg::ParVector* promoted) {
  par::Runtime& rt = levels_.front().a.runtime();
  const std::size_t coarsest = levels_.size() - 1;
  const auto rhs = [&](std::size_t l) -> const linalg::ParVector& {
    return l == 0 ? b0 : *levels_[l].b;
  };
  const auto iterate = [&](std::size_t l) -> linalg::ParVector& {
    return l == 0 ? x0 : *levels_[l].x;
  };
  // Descent. Level l's residual body also sends its share of the
  // restriction R = P^T; the owners' pass receives it and, above the
  // coarsest level, runs level l + 1's pre-sweep from the zero guess and
  // packs its rows of the result for that level's residual.
  for (std::size_t l = 0; l < coarsest; ++l) {
    AmgLevel& lvl = levels_[l];
    AmgLevel& next = levels_[l + 1];
    lvl.p.transpose_begin();
    rt.parallel_for_ranks([&](RankId rk) {
      lvl.a.residual(rk, rhs(l), iterate(l), *lvl.r);
      lvl.p.transpose_send(rk, *lvl.r, *next.b);
    });
    const bool smooth = l + 1 < coarsest;
    if (smooth) next.a.halo_begin(*next.x);
    rt.parallel_for_ranks([&](RankId rk) {
      lvl.p.transpose_receive(rk, *next.b);
      if (smooth) {
        next.smoother->sweep_zero(rk, *next.b, *next.x, *next.r);
        next.a.halo_pack(rk, *next.x);
      }
    });
  }
  coarse_solve(*levels_[coarsest].b, *levels_[coarsest].x);
  // Ascent. The prolongation body adds the correction and packs the
  // corrected rows for the post-sweep; the post-sweep packs its result
  // for the parent level's prolongation (at level 0 it stores it into
  // `promoted`, when given).
  for (std::size_t l = coarsest; l-- > 0;) {
    AmgLevel& lvl = levels_[l];
    const AmgLevel& next = levels_[l + 1];
    linalg::ParVector& x = iterate(l);
    lvl.a.halo_begin(x);
    rt.parallel_for_ranks([&](RankId rk) {
      lvl.p.matvec(rk, *next.x, *lvl.r);
      x.axpy(rk, 1.0, *lvl.r);
      lvl.a.halo_pack(rk, x);
    });
    const linalg::ParCsr* parent = l > 0 ? &levels_[l - 1].p : nullptr;
    if (parent != nullptr) parent->halo_begin(x);
    rt.parallel_for_ranks([&](RankId rk) {
      lvl.smoother->sweep(rk, rhs(l), x, *lvl.r,
                          parent != nullptr ? nullptr : promoted);
      if (parent != nullptr) parent->halo_pack(rk, x);
    });
  }
}

void AmgHierarchy::coarse_solve(const linalg::ParVector& b,
                                linalg::ParVector& x) {
  // Gather, solve directly, scatter. Charged as one small collective plus
  // an O(n^2) triangular-solve kernel on one rank. A mixed hierarchy
  // gathers/scatters float payloads (the vectors are FP32-tagged), so the
  // collective bytes halve; the LU back-substitution itself stays FP64.
  par::Runtime& rt = levels_.back().a.runtime();
  const auto n = static_cast<double>(b.global_size().value());
  rt.tracer().collective(n * bytes_of(b.value_precision()));
  b.gather(coarse_rhs_);
  coarse_lu_.solve_in_place(coarse_rhs_);
  rt.tracer().kernel(RankId{0}, 2.0 * n * n, 8.0 * n * n);
  rt.tracer().collective(n * bytes_of(x.value_precision()));
  const linalg::ParCsr* parent =
      levels_.size() > 1 ? &levels_[levels_.size() - 2].p : nullptr;
  if (parent != nullptr) parent->halo_begin(x);
  rt.parallel_for_ranks([&](RankId rk) {
    x.scatter(rk, coarse_rhs_);
    if (parent != nullptr) parent->halo_pack(rk, x);
  });
}

double AmgHierarchy::grid_complexity() const {
  EXW_REQUIRE(!levels_.empty(), "amg hierarchy: complexity before setup");
  double sum = 0;
  for (const auto& lvl : levels_) {
    sum += static_cast<double>(lvl.a.global_rows().value());
  }
  return sum / static_cast<double>(levels_.front().a.global_rows().value());
}

double AmgHierarchy::operator_complexity() const {
  EXW_REQUIRE(!levels_.empty(), "amg hierarchy: complexity before setup");
  double sum = 0;
  for (const auto& lvl : levels_) {
    sum += static_cast<double>(lvl.a.global_nnz().value());
  }
  return sum / static_cast<double>(levels_.front().a.global_nnz().value());
}

std::string AmgHierarchy::describe() const {
  std::ostringstream os;
  os << "AMG hierarchy: " << levels_.size() << " levels\n";
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto& a = levels_[l].a;
    int active = 0;
    for (RankId r{0}; r.value() < a.nranks(); ++r) {
      active += a.rows().local_size(r) > LocalIndex{0} ? 1 : 0;
    }
    os << "  level " << l << ": rows=" << a.global_rows()
       << " nnz=" << a.global_nnz() << " avg_row="
       << static_cast<double>(a.global_nnz().value()) /
              static_cast<double>(std::max<std::int64_t>(1, a.global_rows().value()))
       << " active_ranks=" << active << "\n";
  }
  os << "  grid complexity " << grid_complexity() << ", operator complexity "
     << operator_complexity();
  return os.str();
}

}  // namespace exw::amg
