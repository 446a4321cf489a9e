#pragma once
/// \file projection.hpp
/// Initial guesses projected onto earlier corrections: the successive
/// right-hand-side projection of Fischer (CMAME 163, 1998) that Nek5000
/// and nekRS apply to their pressure solves (Min et al., PAPERS.md).
///
/// GMRES stops at rel_tol * ||b||, so a guess closer to the solution
/// removes iterations directly. While the matrix A stays bitwise the same
/// — the pressure matrix under rigid rotor motion — the corrections of
/// earlier solves span most of the next one. The projector keeps up to K
/// of them as an A-orthonormal basis X (x_i^T A x_j = delta_ij for
/// j >= i), together with A X, as lanes [0, size) of two K-lane vectors.
///
///   project: x <- x + X (X^T (b - A x)), the A-norm-best correction in
///            span X for SPD A: one residual, one batched allreduce of
///            the size() dots and one lane-combination kernel.
///   absorb:  after a converged solve, A-orthogonalize its correction
///            e = x - x_projected against X in two passes (one batched
///            allreduce each), then append e / sqrt(e^T A e) after one
///            SpMV and one A-norm dot.
///
/// The pressure matrix is nonsymmetric through its Dirichlet identity
/// rows, so e^T A e need not be positive: such a direction is dropped.
/// A full basis restarts at the next absorb (a window dropping the oldest
/// direction did worse, DESIGN.md §17). The basis is flushed when the
/// caller's linalg::ValueCheck reports a changed matrix, when a solve
/// failed to converge, and when a correction's A-norm is not finite, so a
/// bad solve never seeds the next guess.

#include <cstddef>
#include <optional>

#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "solver/gmres.hpp"

namespace exw::solver {

class GuessProjector {
 public:
  /// Keep up to `max_size` corrections; 0 turns the projector off, and
  /// then project() and absorb() do nothing and charge nothing.
  explicit GuessProjector(std::size_t max_size = 0) : max_size_(max_size) {}

  std::size_t max_size() const { return max_size_; }
  /// Directions in the basis now.
  std::size_t size() const { return size_; }

  /// Before a solve of A x = b: flush the basis if `matrix_changed` (the
  /// solve's linalg::ValueCheck verdict), then add to x its projection
  /// onto the basis, and remember the projected guess for absorb(). The
  /// basis and scratch are sized at the first call.
  void project(const linalg::ParCsr& a, const linalg::ParVector& b,
               linalg::ParVector& x, bool matrix_changed);

  /// After that solve: absorb its correction x - (projected guess) when
  /// `st` converged after at least one iteration; flush the basis when
  /// it did not converge.
  void absorb(const linalg::ParCsr& a, const linalg::ParVector& x,
              const SolveStats& st);

 private:
  void flush() { size_ = 0; }

  /// The basis and the scratch of one projector, all over A's rows.
  struct Planes {
    Planes(const linalg::ParCsr& a, std::size_t max_size);
    linalg::ParVector x;   ///< X, lanes [0, size_)
    linalg::ParVector ax;  ///< A X, same lanes
    /// The projected guess; in absorb(), the new direction.
    linalg::ParVector guess;
    /// The residual in project(); A times the new direction in absorb().
    linalg::ParVector work;
  };

  std::size_t max_size_ = 0;
  std::size_t size_ = 0;
  std::optional<Planes> planes_;
};

}  // namespace exw::solver
