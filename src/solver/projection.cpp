#include "solver/projection.hpp"

#include <cmath>

#include "common/error.hpp"
#include "perf/purity.hpp"

namespace exw::solver {

GuessProjector::Planes::Planes(const linalg::ParCsr& a, std::size_t max_size)
    : x(a.runtime(), a.rows(), max_size),
      ax(a.runtime(), a.rows(), max_size),
      guess(a.runtime(), a.rows()),
      work(a.runtime(), a.rows()) {}

EXW_WARM_FN
void GuessProjector::project(const linalg::ParCsr& a,
                             const linalg::ParVector& b, linalg::ParVector& x,
                             bool matrix_changed) {
  if (max_size_ == 0) return;
  EXW_PURITY_REGION("projector-project");
  if (matrix_changed) flush();
  if (!planes_) {
    EXW_PURITY_ALLOW("first-use scratch priming");
    planes_.emplace(a, max_size_);  // exw-warm-ok: first-use scratch priming
  }
  Planes& p = *planes_;
  if (size_ > 0) {
    a.residual(b, x, p.work);
    const auto alpha = p.x.dots_against(p.work, size_);
    x.axpy_combination(alpha, p.x);
  }
  p.guess.copy_from(x);
}

EXW_WARM_FN
void GuessProjector::absorb(const linalg::ParCsr& a,
                            const linalg::ParVector& x, const SolveStats& st) {
  if (max_size_ == 0) return;
  EXW_PURITY_REGION("projector-absorb");
  EXW_REQUIRE(planes_.has_value(), "absorb needs a projected guess");
  if (!st.converged) {
    flush();
    return;
  }
  // A solve that did not iterate left x at the projected guess: there
  // is no correction, and a full basis is worth keeping.
  if (st.iterations == 0) return;
  Planes& p = *planes_;
  // The new direction is guess - x: the solve's correction with its sign
  // flipped, which spans the same line.
  p.guess.axpy(-1.0, x);
  if (size_ == max_size_) flush();
  a.matvec(p.guess, p.work);
  // Two passes of classical Gram-Schmidt in the A-inner product: the
  // second removes what rounding left of the first.
  for (std::size_t pass = 0; pass < 2 && size_ > 0; ++pass) {
    auto c = p.x.dots_against(p.work, size_);
    for (double& v : c) v = -v;
    p.guess.axpy_combination(c, p.x);
    p.work.axpy_combination(c, p.ax);
  }
  const double anorm2 = p.guess.dot(p.work);
  if (!std::isfinite(anorm2)) {
    flush();
    return;
  }
  if (anorm2 <= 0.0) return;
  const Real s = 1.0 / std::sqrt(anorm2);
  p.guess.scale(s);
  p.work.scale(s);
  p.x.set_lane(size_, p.guess);
  p.ax.set_lane(size_, p.work);
  ++size_;
}

}  // namespace exw::solver
