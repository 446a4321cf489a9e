#pragma once
/// \file cache.hpp
/// AMG hierarchy cache: setup's structural outputs frozen once, then
/// reused untouched while the fine values stay the same and refreshed
/// value-only when they change.
///
/// AMG setup — SoC, PMIS, interpolation, and the Galerkin SpGEMMs — is a
/// pure function of the fine matrix's *pattern* plus its values (and the
/// PMIS seed). The pressure-Poisson pattern is frozen for as long as the
/// equation graph lives, so every solve after the first re-derives the
/// same coarsening, the same interpolation pattern and the same product
/// structures. The cache freezes those once (AmgHierarchy's freeze_replay
/// mode records a RapRecord per level and converts it into a LevelReplay
/// here) and then replays frozen ProductPlans to refill every level's
/// values in place: no graph traversal, no hashing, no steady-state
/// allocation, bitwise-identical to re-running setup against the frozen
/// coarsening. When the fine values have not changed at all — rigid rotor
/// motion keeps every pressure coefficient — even the refresh is skipped.
/// This is the setup half of the algorithmic-scalability program of "Alya
/// towards Exascale" (PAPERS.md) applied to our §4 pressure solve.
///
/// What is frozen vs refilled per level, and the key -> reuse -> refresh
/// -> rebuild order HierarchyCache::update follows, are documented in
/// DESIGN.md §12.

#include <cstdint>
#include <memory>
#include <vector>

#include "amg/config.hpp"
#include "amg/hierarchy.hpp"
#include "amg/rap.hpp"
#include "assembly/plan.hpp"
#include "linalg/parcsr.hpp"

namespace exw::amg {

/// Frozen value-replay state for one level transition l -> l+1: the
/// RapRecord's term plans plus the AssemblyPlan that turns the replayed
/// coarse COO triples into the coarse ParCsr's values in place.
struct LevelReplay {
  RapRecord record;
  assembly::AssemblyPlan plan;
  /// AssemblyPlan views require all four pieces; RAP has no RHS, so dense
  /// zero vectors and empty sparse adds back the RHS half permanently.
  std::vector<RealVector> rhs_owned;
  std::vector<sparse::CooVector> rhs_shared;
  std::vector<assembly::SystemView> views;
  /// Per-rank warm scratch, sized on the first refresh and reused (rank
  /// r's body touches only entry r, per the threading contract).
  struct Scratch {
    RealVector a_flat;   ///< [diag vals | offd vals] of the fine level
    RealVector ap_vals;  ///< replayed intermediate AP values
  };
  std::vector<Scratch> scratch;
};

/// Convert a RapRecord into a LevelReplay: build the coarse-operator
/// AssemblyPlan over the frozen normalized triples (charged like the one
/// cold structural pass it is) and wire up the views.
std::unique_ptr<LevelReplay> freeze_level_replay(par::Runtime& rt,
                                                 RapRecord&& record,
                                                 const par::RowPartition& coarse);

/// Replay one transition: gather the fine level's values, run the frozen
/// AP and outer-product term plans, and refill `coarse_a`'s values via the
/// AssemblyPlan. Streaming charges only — never the setup SpGEMM or sort
/// charges (see amg/charges.hpp).
void replay_level(par::Runtime& rt, LevelReplay& lr,
                  const linalg::ParCsr& fine_a, linalg::ParCsr& coarse_a);

/// What HierarchyCache::update did to make the hierarchy fit the matrix.
enum class CacheAction { kRebuild, kRefresh, kReuse };

/// A solve stagnates when its GMRES iterations exceed this multiple of
/// the first post-rebuild solve's count (preconditioner gone stale
/// through value drift); the next value change then rebuilds instead of
/// refreshing.
inline constexpr double kStagnationRatio = 1.5;

/// Pressure-preconditioner cache: one AmgHierarchy kept across Picard
/// solves and time steps, keyed on (equation-graph generation, AmgConfig).
/// update() is the one place that decides between a structural rebuild,
/// a value-only refresh and reusing the hierarchy untouched.
class HierarchyCache {
 public:
  bool valid() const { return valid_; }
  std::uint64_t generation() const { return generation_; }
  const AmgConfig& config() const { return cfg_; }
  AmgHierarchy& hierarchy() { return *hierarchy_; }

  long rebuilds() const { return rebuilds_; }
  long refreshes() const { return refreshes_; }
  long reuses() const { return reuses_; }

  /// True when the key no longer matches (invalid cache, new graph
  /// generation, or changed AMG configuration).
  bool stale(std::uint64_t generation, const AmgConfig& cfg) const {
    return !valid_ || generation_ != generation || !(cfg_ == cfg);
  }

  /// Make the hierarchy fit `a` for the next solve, deciding in order:
  ///   1. rebuild when `use_cache` is false (every solve; no value copy
  ///      is kept), or when the key is stale;
  ///   2. reuse, untouched, when a's diag/offd values equal bit for bit
  ///      the values the hierarchy was last set up from;
  ///   3. otherwise refresh — or rebuild, if the last solve stagnated
  ///      (see stagnating()).
  /// Stagnation never forces a rebuild on its own: a rebuild from
  /// unchanged values reproduces the same hierarchy.
  CacheAction update(const linalg::ParCsr& a, const AmgConfig& cfg,
                     std::uint64_t generation, bool use_cache);

  /// Structural rebuild from `a`. `freeze` additionally records the
  /// replay plans so later solves can refresh() instead, and keeps an
  /// FP64 copy of a's values for update()'s reuse check.
  void rebuild(const linalg::ParCsr& a, const AmgConfig& cfg,
               std::uint64_t generation, bool freeze);

  /// Value-only refresh; requires a frozen, valid hierarchy with an
  /// unchanged fine structure (throws exw::Error otherwise).
  void refresh(const linalg::ParCsr& a);

  void invalidate() { valid_ = false; }

  /// Record one preconditioned solve against the current hierarchy. The
  /// first solve after a rebuild sets the iteration baseline the
  /// stagnation policy compares against.
  void note_solve(int iterations);

  /// True when the last solve's iterations drifted kStagnationRatio x
  /// above the post-rebuild baseline — the preconditioner has gone stale
  /// enough that a value change should rebuild rather than refresh.
  bool stagnating() const;

 private:
  /// True unless every rank's diag/offd values match fine_values_ bit for
  /// bit. All ranks must agree to reuse, so the per-rank verdicts meet in
  /// one allreduce.
  bool values_changed(const linalg::ParCsr& a);
  /// Copy a's values into fine_values_ (sized by rebuild()).
  void store_values(const linalg::ParCsr& a);

  std::unique_ptr<AmgHierarchy> hierarchy_;
  AmgConfig cfg_;
  std::uint64_t generation_ = 0;
  bool valid_ = false;
  long rebuilds_ = 0;
  long refreshes_ = 0;
  long reuses_ = 0;
  int baseline_iters_ = -1;
  int last_iters_ = -1;
  /// Per rank, the FP64 [diag | offd] values the frozen hierarchy was last
  /// set up from; empty for an unfrozen hierarchy.
  std::vector<RealVector> fine_values_;
  /// Per-rank reuse-check verdicts (1 = changed), the allreduce payload.
  std::vector<double> changed_;
};

}  // namespace exw::amg
