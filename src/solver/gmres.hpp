#pragma once
/// \file gmres.hpp
/// Right-preconditioned flexible GMRES with classical (MGS) and
/// one-reduce orthogonalization.
///
/// "The Nalu-Wind time integrator employs the one-reduce GMRES linear
/// solver for the momentum and pressure-Poisson governing equations"
/// (paper §4.2, citing the low-synchronization Gram-Schmidt work [39]).
/// The one-reduce variant fuses the j projection dot products and the
/// candidate norm into a single allreduce per iteration, using the
/// Pythagorean identity ||w - V h||^2 = ||w||^2 - ||h||^2 to recover the
/// corrected norm without a second reduction. Because the identity only
/// holds for an orthonormal basis — and single-pass classical
/// Gram-Schmidt loses orthogonality precisely when the projections
/// dominate (a strong preconditioner makes each new Krylov direction
/// small) — the implementation applies Rutishauser's "twice is enough"
/// test: when a pass removes more than half of ||w||^2, a second fused
/// reduction reorthogonalizes before the norm is trusted. Collective
/// counts drive the strong-scaling model, so the distinction is charged
/// faithfully: MGS costs j+2 reductions per iteration, one-reduce costs
/// 1 (2 when reorthogonalization triggers).

#include <cstdint>
#include <vector>

#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "solver/precond.hpp"

namespace exw::solver {

enum class OrthoMethod : std::uint8_t {
  kMgs,        ///< modified Gram-Schmidt, one reduction per basis vector
  kOneReduce,  ///< fused CGS with Pythagorean norm update
};

struct GmresOptions {
  int max_iters = 200;
  int restart = 60;
  Real rel_tol = 1e-6;  ///< stop at rel_tol * ||b|| (||r0|| for b = 0)
  OrthoMethod ortho = OrthoMethod::kOneReduce;
  /// Optional per-iteration residual-estimate trace (the Givens value
  /// |g_{j+1}| each accepted iteration appends). Not owned; cleared by
  /// the solver at entry. 1-lane solves only: setting it on a solve with
  /// more than one lane throws exw::Error.
  std::vector<Real>* residual_trace = nullptr;
};

struct SolveStats {
  int iterations = 0;
  Real initial_residual = 0;
  Real final_residual = 0;
  bool converged = false;
};

/// Per-lane outcome of a multi-lane solve.
struct MultiSolveStats {
  std::vector<SolveStats> lane;
  bool all_converged() const {
    for (const auto& s : lane) {
      if (!s.converged) return false;
    }
    return true;
  }
};

/// Solve A x_c = b_c for every lane c of `x` (x holds the initial guess)
/// with right preconditioning. Each iteration keeps its preconditioned
/// basis vector z_j = M^-1 v_j, and a lane finishes with x += Z y
/// (flexible GMRES): M is applied once per iteration and never after the
/// last one. Lanes share the operator (one SpMV /
/// preconditioner application reads the sparse structure once for all
/// lanes) and their reduction payloads ride one batched allreduce per
/// orthogonalization — but each lane's convergence is tracked
/// independently, and every lane's iterates are bitwise-identical to a
/// 1-lane solve of that lane alone (the rank-ordered element-wise
/// reductions of par::Runtime make the batched collectives exact).
/// Lanes that converge drop out of the fused work via lane masks; lanes
/// whose true-residual confirmation fails rejoin at the next restart.
/// The u/v/w momentum systems solve as one 3-lane call.
MultiSolveStats gmres_solve_multi(const linalg::ParCsr& a,
                                  const linalg::ParVector& b,
                                  linalg::ParVector& x, Preconditioner& m,
                                  const GmresOptions& opts);

/// The 1-lane case: solve A x = b and return its statistics.
SolveStats gmres_solve(const linalg::ParCsr& a, const linalg::ParVector& b,
                       linalg::ParVector& x, Preconditioner& m,
                       const GmresOptions& opts);

}  // namespace exw::solver
