#pragma once
/// \file hierarchy.hpp
/// BoomerAMG-style multilevel hierarchy and V-cycle (paper §4).
///
/// Setup builds "a multilevel hierarchy that consists of linear systems
/// with exponentially decreasing sizes on coarser levels": SoC -> PMIS ->
/// interpolation -> Galerkin RAP per level. On the first `agg_levels`
/// levels, aggressive coarsening is applied as two back-to-back
/// coarsening rounds whose interpolations are combined as P = P1 * P2
/// (two-stage interpolation; this realizes the distance-2 coarsening rate
/// of the paper's S^2 + S construction — DESIGN.md records the
/// equivalence). The coarsest system is solved directly.
///
/// The pressure-Poisson configuration of §4.2 — aggressive PMIS on the
/// first two levels, MM-based second-stage interpolation — is the
/// default AmgConfig; the V-cycle always smooths with two-stage GS.

#include <memory>
#include <string>
#include <vector>

#include "amg/config.hpp"
#include "amg/smoothers.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "sparse/dense.hpp"

namespace exw::amg {

struct LevelReplay;  // amg/cache.hpp — frozen value-replay state

struct AmgLevel {
  linalg::ParCsr a;
  linalg::ParCsr p;  ///< to the next coarser level (unused on coarsest)
  std::unique_ptr<Smoother> smoother;
  // Work vectors (allocated once at setup). Level 0 has x and b only in
  // an FP32 hierarchy, where they are the precision boundary.
  std::unique_ptr<linalg::ParVector> x, b, r;
  bool has_p = false;
};

class AmgHierarchy {
 public:
  /// Build the hierarchy for `a` (setup phase; charge via an enclosing
  /// PhaseScope, e.g. "precond_setup"). With `freeze_replay`, setup
  /// additionally freezes per-transition value-replay plans (amg/cache.hpp)
  /// so refresh_values() can refill every level from new fine values.
  AmgHierarchy(const linalg::ParCsr& a, AmgConfig cfg,
               bool freeze_replay = false);
  ~AmgHierarchy();  // out of line: LevelReplay is incomplete here

  /// True when setup froze the replay plans (refresh_values available).
  bool frozen() const { return frozen_; }

  /// Refill every level's values in place from new values of `a`, which
  /// must have the exact structure setup saw: level-0 values are copied,
  /// each coarse operator is refilled by replaying the frozen Galerkin
  /// product plans against the frozen interpolation, and the smoothers
  /// re-split. No graph traversal, no hashing, no steady-state
  /// allocation; bitwise-identical to rebuilding against the frozen
  /// coarsening. The coarse direct solver keeps its factorization — the
  /// O(n^3) charge is rebuild-only; the resulting (slight) coarse-solve
  /// lag is bounded by the stagnation rule of HierarchyCache::update.
  /// Throws exw::Error if the hierarchy is not frozen or the structure
  /// changed.
  void refresh_values(const linalg::ParCsr& a);

  /// One V-cycle for A x = b (x is both initial guess and result).
  void vcycle(const linalg::ParVector& b, linalg::ParVector& x);
  /// One V-cycle from a zero guess, x = M^-1 b: the preconditioner
  /// application, bitwise what fill(0) and vcycle() leave. With an FP64
  /// b and x and an FP32 hierarchy (AmgConfig::precision) this is the
  /// precision boundary, iterative-refinement style: the first body
  /// demotes b into level 0's FP32 right-hand side, the whole cycle runs
  /// on FP32 storage, and the last body promotes the correction into x.
  void vcycle_zero(const linalg::ParVector& b, linalg::ParVector& x);

  int num_levels() const { return checked_narrow<int>(levels_.size()); }
  const AmgLevel& level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }
  const AmgConfig& config() const { return cfg_; }

  /// Sum of rows over levels / fine rows.
  double grid_complexity() const;
  /// Sum of nnz over levels / fine nnz.
  double operator_complexity() const;
  /// One line per level: rows, nnz, avg row size, ranks holding rows.
  std::string describe() const;

 private:
  void setup(const linalg::ParCsr& a);
  /// The V-cycle after level 0's pre-sweep, with x0's halo packed for
  /// level 0's residual: the descent, the coarse solve and the ascent.
  /// With `promoted`, level 0's post-sweep stores its result there,
  /// promoted, instead of into x0.
  void cycle(const linalg::ParVector& b0, linalg::ParVector& x0,
             linalg::ParVector* promoted);
  /// Gather + dense-LU solve on the coarsest level, each rank packing
  /// its scattered rows for the parent level's prolongation.
  void coarse_solve(const linalg::ParVector& b, linalg::ParVector& x);

  AmgConfig cfg_;
  std::vector<AmgLevel> levels_;
  sparse::DenseLu coarse_lu_;
  RealVector coarse_rhs_;  ///< the coarse solve's gather buffer
  /// Frozen replay plans, one per level transition (empty unless frozen).
  std::vector<std::unique_ptr<LevelReplay>> replays_;
  bool frozen_ = false;
};

}  // namespace exw::amg
