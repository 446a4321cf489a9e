#pragma once
/// \file gmres.hpp
/// Right-preconditioned GMRES with classical (MGS) and one-reduce
/// orthogonalization.
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
  /// Depth-1 pipelined one-reduce (Ghysels-style): the fused
  /// [V^T w ; ||w||^2] reduction is *initiated*, then the next
  /// SpMV + preconditioner application runs on the un-orthogonalized
  /// candidate while the reduction is in flight — legal because
  /// A M^-1 v_{j+1} is recovered from the auxiliary basis
  /// q_i = A M^-1 v_i by the same linear recurrence that builds v_{j+1},
  /// so nothing downstream blocks on the dots until the matvec is done.
  /// Per iteration this removes the last blocking collective from the
  /// critical path (its bandwidth is still paid; see
  /// MachineModel::allreduce_overlapped_time); the reorthogonalization
  /// fallback, when Rutishauser's test triggers, stays a blocking
  /// reduce. Costs one extra basis (Q) of storage and one extra axpy
  /// fan per iteration — the classic pipelined-GMRES trade.
  /// Iterates agree with kOneReduce to rounding (the q recurrence
  /// reassociates A M^-1), not bitwise. The recurrence amplifies
  /// rounding error by ~||q_j||/h_{j+1,j} per iteration, so every
  /// kPipelineSyncPeriod-th iteration synchronizes: the reduction
  /// blocks and q_{j+1} is recomputed directly (residual replacement),
  /// bounding the drift that would otherwise inflate iteration counts
  /// under strong preconditioners.
  kPipelined,
};

/// kPipelined: every N-th iteration of a restart cycle is a
/// synchronization point — blocking fused reduction plus a direct
/// recompute of q_{j+1} = A M^-1 v_{j+1} — resetting q-recurrence drift
/// (residual replacement). Keyed off the in-cycle iteration index alone,
/// so every lane of a multi-lane solve chooses as its 1-lane solve would.
inline constexpr int kPipelineSyncPeriod = 8;

struct GmresOptions {
  int max_iters = 200;
  int restart = 60;
  Real rel_tol = 1e-6;
  Real abs_tol = 0.0;
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
/// with right preconditioning. Lanes share the operator (one SpMV /
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
