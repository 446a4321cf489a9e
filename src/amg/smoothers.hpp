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
  std::vector<sparse::Csr> lower;   ///< strictly lower triangles
  std::vector<sparse::Csr> upper;   ///< strictly upper triangles
  std::vector<RealVector> dinv;     ///< 1 / a_ii
  std::vector<RealVector> l1_dinv;  ///< 1 / (a_ii + sum_j |a_ij, j off-rank|)

  static LduSplit build(const linalg::ParCsr& a);

  /// Refill lower/upper/dinv/l1_dinv values in place from new values of
  /// `a` (same structure as the build; throws otherwise). The warm half
  /// of the hierarchy cache: one streaming pass, no allocation.
  void refresh_values(const linalg::ParCsr& a);
};

class Smoother {
 public:
  Smoother(const linalg::ParCsr& a, SmootherType type, int inner_sweeps,
           Real jacobi_weight);

  SmootherType type() const { return type_; }

  /// Refresh the L/D/U split from the matrix's current values; the
  /// structure must be unchanged.
  void refresh_values();

  /// Apply `sweeps` relaxation steps to A x = b in place, lane by lane:
  /// every lane of x is relaxed as it would be alone (bitwise), with the
  /// sparse structure of each sweep read once for all lanes.
  void apply(const linalg::ParVector& b, linalg::ParVector& x,
             int sweeps) const;

  /// z = M^-1 r with x starting from zero (preconditioner application).
  void apply_zero(const linalg::ParVector& r, linalg::ParVector& z,
                  int sweeps) const;

 private:
  void sweep_jacobi(const linalg::ParVector& b, linalg::ParVector& x,
                    bool l1) const;
  void sweep_hybrid_gs(const linalg::ParVector& b, linalg::ParVector& x) const;
  void sweep_two_stage(const linalg::ParVector& b, linalg::ParVector& x) const;
  void sweep_sgs2(const linalg::ParVector& b, linalg::ParVector& x) const;

  /// Inner Jacobi-Richardson approximation of (T+D)^-1 rhs for one of
  /// the rank's triangles T (Eqs. 5-7); `rhs` and the result `g` are
  /// SoA blocks of `lanes` planes of rank-local size, and T is streamed
  /// once per inner sweep for all lanes.
  void jr_solve(RankId r, const sparse::Csr& tri, const RealVector& rhs,
                std::size_t lanes, RealVector& g) const;

  const linalg::ParCsr* a_;
  SmootherType type_;
  int inner_sweeps_;
  Real weight_;
  LduSplit ldu_;
};

}  // namespace exw::amg
