#pragma once
/// \file smoothers.hpp
/// Relaxation methods of paper §4.2.
///
/// The hybrid Gauss-Seidel family: ranks exchange boundary values once,
/// then relax independently on their local rows (off-rank couplings use
/// the frozen halo — Jacobi across ranks, GS within). The *two-stage* GS
/// replaces the sequential local triangular solve with `s` inner
/// Jacobi-Richardson sweeps (Eqs. 5-7), i.e. a degree-s Neumann expansion
/// of (L+D)^-1 — every step is a sparse product, so the smoother is
/// massively parallel. SGS2 (Eqs. 11-14) is the symmetric two-stage
/// variant used to precondition the momentum GMRES solve; "two outer and
/// two inner iterations often leads to rapid convergence in less than
/// five preconditioned GMRES iterations."

#include <memory>
#include <vector>

#include "amg/config.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"

namespace exw::amg {

/// Per-rank L/D/U split of the diag block, shared by the GS variants.
struct LduSplit {
  std::vector<sparse::Csr> lower;  ///< strictly lower triangles
  std::vector<sparse::Csr> upper;  ///< strictly upper triangles
  std::vector<RealVector> dinv;    ///< 1 / a_ii

  static LduSplit build(const linalg::ParCsr& a);

  /// Refill lower/upper/dinv values in place from new values of
  /// `a` (same structure as the build; throws otherwise). The warm half
  /// of the hierarchy cache: one streaming pass, no allocation.
  void refresh_values(const linalg::ParCsr& a);
};

class Smoother {
 public:
  Smoother(const linalg::ParCsr& a, SmootherType type, int inner_sweeps);

  SmootherType type() const { return type_; }

  /// Refresh the L/D/U split from the matrix's current values; the
  /// structure must be unchanged.
  void refresh_values();

  /// Apply `sweeps` relaxation steps to A x = b in place, lane by lane:
  /// every lane of x is relaxed as it would be alone (bitwise), with the
  /// sparse structure of each sweep read once for all lanes.
  void apply(const linalg::ParVector& b, linalg::ParVector& x,
             int sweeps) const;

  /// x = M^-1 b: `sweeps` steps from a zero guess (preconditioner
  /// application), bitwise what fill(0) and apply() leave, signed zeros
  /// included. A two-stage or SGS2 first sweep reads only b's rows
  /// (sweep_zero: no halo exchange, no residual SpMV) and packs its
  /// result for the second sweep in the same body. With an FP64 b and x
  /// and an FP32 matrix (the mixed-precision boundary of
  /// solver::SmootherPrecond) the first body also demotes b into FP32
  /// scratch, the iterate lives in FP32 scratch, and the last sweep
  /// stores its result promoted into x.
  void apply_zero(const linalg::ParVector& b, linalg::ParVector& x,
                  int sweeps) const;

  // Rank rk's body of a two-stage or SGS2 sweep, for a caller that runs
  // sweeps inside its own regions (the V-cycle). `r` is residual scratch
  // with x's lanes at the matrix's precision; only rk's rows of it are
  // touched. With `promoted` (an FP64 vector) the update is stored
  // there, promoted, instead of into x.

  /// The sweep after the smoother's matrix ran halo_begin(x) and every
  /// owner's halo_pack of x: the halo's receipt, rk's residual rows, the
  /// JR solve(s) and the update of rk's rows of x.
  void sweep(RankId rk, const linalg::ParVector& b, linalg::ParVector& x,
             linalg::ParVector& r,
             linalg::ParVector* promoted = nullptr) const;
  /// The sweep from x = 0: the JR solve(s) straight from rk's rows of b
  /// (b - A 0 is b, bit for bit) and x = 0.0 + g; x is neither read nor
  /// exchanged, and b must be at the matrix's precision.
  void sweep_zero(RankId rk, const linalg::ParVector& b, linalg::ParVector& x,
                  linalg::ParVector& r,
                  linalg::ParVector* promoted = nullptr) const;

 private:
  void sweep_hybrid_gs(const linalg::ParVector& b, linalg::ParVector& x) const;
  /// The JR solve(s) of a two-stage or SGS2 sweep from `rhs` (rank rk's
  /// residual rows, which may be rk's rows of r) and the update x + g of
  /// rk's rows, x taken as zero (and not read) with `zero_guess`; SGS2's
  /// backward stage takes its rhs in rk's rows of r.
  void relax(RankId rk, const RealVector& rhs, bool zero_guess,
             linalg::ParVector& x, linalg::ParVector& r,
             linalg::ParVector* promoted) const;

  /// Inner Jacobi-Richardson approximation of (T+D)^-1 rhs for one of
  /// the rank's triangles T (Eqs. 5-7); `rhs` and the result `g` are
  /// SoA blocks of `lanes` planes of rank-local size, and T is streamed
  /// once per inner sweep for all lanes. `tg` is scratch for T g.
  void jr_solve(RankId r, const sparse::Csr& tri, const RealVector& rhs,
                std::size_t lanes, RealVector& g, RealVector& tg) const;

  /// The residual vector of a two-stage or SGS2 sweep at `lanes` lanes,
  /// sized on first use.
  linalg::ParVector& residual_scratch(std::size_t lanes) const;

  /// The FP32 right-hand side and iterate of apply_zero's
  /// mixed-precision boundary at one lane count.
  struct Boundary {
    linalg::ParVector b, x;
  };
  /// The boundary scratch for `lanes`, made on first use. One smoother
  /// serves 3-lane momentum and 1-lane scalar solves alternately every
  /// Picard iteration, so each lane count keeps its own pair.
  Boundary& boundary_scratch(std::size_t lanes) const;

  /// One rank's sweep scratch: the JR iterate and T times it.
  struct RankScratch {
    RealVector g, tg;
  };

  const linalg::ParCsr* a_;
  SmootherType type_;
  int inner_sweeps_;
  LduSplit ldu_;
  // Sweep scratch, sized on first use at a lane count and reused by every
  // later sweep (vectors only grow): one residual and one boundary pair
  // per lane count (SGS2 reuses the residual for the backward stage's
  // rhs), and per-rank JR buffers that only rank r's body touches.
  mutable std::vector<linalg::ParVector> residual_;  ///< [lanes]
  mutable std::vector<Boundary> boundary_;           ///< [lanes]
  mutable std::vector<RankScratch> scratch_;         ///< [rank]
};

}  // namespace exw::amg
