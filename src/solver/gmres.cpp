#include "solver/gmres.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace exw::solver {

namespace {

/// Per-rank partial dots of w against v[0..count), plus ||w||^2, fused
/// into ONE allreduce — the kernel of the one-reduce orthogonalization.
/// With `overlapped` the same payload rides the non-blocking collective
/// (charged so its latency hides behind whatever the caller computes
/// next); the returned values are identical either way, because both
/// reductions sum rank partials element-wise in rank order.
std::vector<double> fused_dots(const std::vector<linalg::ParVector>& v,
                               std::size_t count, const linalg::ParVector& w,
                               bool overlapped = false) {
  par::Runtime& rt = w.runtime();
  const int nranks = w.nranks();
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(nranks),
      std::vector<double>(count + 1, 0.0));
  rt.parallel_for_ranks([&](RankId r) {
    const auto& wl = w.local(r);
    auto& p = partial[static_cast<std::size_t>(r)];
    for (std::size_t j = 0; j < count; ++j) {
      const auto& vl = v[j].local(r);
      double s = 0;
      for (std::size_t i = 0; i < wl.size(); ++i) {
        s += vl[i] * wl[i];
      }
      p[j] = s;
    }
    double s = 0;
    for (double x : wl) s += x * x;
    p[count] = s;
    rt.tracer().kernel(
        r, 2.0 * static_cast<double>((count + 1) * wl.size()),
        static_cast<double>((count + 2) * wl.size()) * sizeof(Real));
  });
  return overlapped ? rt.allreduce_sum_vec_overlapped(partial)
                    : rt.allreduce_sum_vec(partial);
}

/// Depth-1 pipelined cycles (OrthoMethod::kPipelined). Entered after the
/// initial-residual bookkeeping of gmres_solve; carries the same restart
/// structure and Givens machinery, but each iteration's fused reduction
/// is overlapped with the next SpMV + preconditioner application on the
/// un-orthogonalized candidate. The auxiliary basis q_i = A M^-1 v_i
/// turns that early matvec into the next candidate without a second
/// operator application.
SolveStats pipelined_cycles(const linalg::ParCsr& a,
                            const linalg::ParVector& b, linalg::ParVector& x,
                            Preconditioner& m, const GmresOptions& opts,
                            Real target, SolveStats stats) {
  par::Runtime& rt = a.runtime();
  const int restart = opts.restart;

  linalg::ParVector r(rt, a.rows());
  linalg::ParVector w(rt, a.rows());
  linalg::ParVector z(rt, a.rows());
  linalg::ParVector t(rt, a.rows());
  linalg::ParVector tq(rt, a.rows());

  std::vector<linalg::ParVector> v;  // Krylov basis
  std::vector<linalg::ParVector> q;  // q_i = A M^-1 v_i
  std::vector<std::vector<Real>> h;
  std::vector<Real> cs(static_cast<std::size_t>(restart) + 1);
  std::vector<Real> sn(static_cast<std::size_t>(restart) + 1);
  std::vector<Real> g(static_cast<std::size_t>(restart) + 1);

  while (stats.iterations < opts.max_iters) {
    a.residual(b, x, r);
    Real beta = r.norm2();
    stats.final_residual = beta;
    if (beta <= target) {
      stats.converged = true;
      return stats;
    }
    v.clear();
    q.clear();
    h.assign(static_cast<std::size_t>(restart),
             std::vector<Real>(static_cast<std::size_t>(restart) + 1, 0.0));
    v.emplace_back(rt, a.rows());
    v[0].copy_from(r);
    v[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;
    // Prime the pipeline: q_0 = A M^-1 v_0 (the only per-cycle operator
    // application outside the overlapped iteration body).
    m.apply(v[0], z);
    q.emplace_back(rt, a.rows());
    a.matvec(z, q[0]);
    // Running amplification of q-recurrence rounding error this cycle
    // (see GmresOptions::pipeline_drift_limit).
    double drift = 1.0;

    int j = 0;
    for (; j < restart && stats.iterations < opts.max_iters; ++j) {
      stats.iterations += 1;
      const auto ju = static_cast<std::size_t>(j);
      // The q recurrence amplifies rounding error by ~||q_j|| / h_last
      // per iteration — ruinous under a strong preconditioner, where the
      // candidate is nearly parallel to the basis. Every sync_period-th
      // iteration is therefore a synchronization point: the reduction
      // blocks (there is no pipeline stage to hide it behind) and
      // q_{j+1} is recomputed directly from v_{j+1}, resetting the
      // drift. Keyed off j alone so the multi-RHS solver makes the
      // identical choice lane-for-lane.
      const bool sync = opts.pipeline_sync_period > 0 &&
                        (j + 1) % opts.pipeline_sync_period == 0;
      // Initiate the fused reduction on the un-orthogonalized candidate
      // q_j, then immediately run the next pipeline stage t = A M^-1 q_j
      // — the work that hides the collective's latency.
      const auto dots = fused_dots(v, ju + 1, q[ju], /*overlapped=*/!sync);
      if (!sync) {
        m.apply(q[ju], z);
        a.matvec(z, t);
      }

      // Consume the reduction: CGS coefficients + Pythagorean norm.
      auto& hj = h[ju];
      w.copy_from(q[ju]);
      if (!sync) tq.copy_from(t);
      double h_norm2 = 0;
      for (std::size_t i = 0; i < ju + 1; ++i) {
        hj[i] = dots[i];
        h_norm2 += dots[i] * dots[i];
        w.axpy(-hj[i], v[i]);
        if (!sync) tq.axpy(-hj[i], q[i]);
      }
      const double w_norm2 = dots[ju + 1];
      double corrected = w_norm2 - h_norm2;
      if (!(corrected > 0.5 * w_norm2)) {
        // Rutishauser fallback: one *blocking* reduction, folded into h
        // and into the q recurrence so both bases stay consistent.
        const auto dots2 = fused_dots(v, ju + 1, w);
        double c_norm2 = 0;
        for (std::size_t i = 0; i < ju + 1; ++i) {
          const double c = dots2[i];
          hj[i] += c;
          c_norm2 += c * c;
          w.axpy(-c, v[i]);
          if (!sync) tq.axpy(-c, q[i]);
        }
        const double w_norm2_2 = dots2[ju + 1];
        corrected = w_norm2_2 - c_norm2;
        hj[ju + 1] = corrected > 1e-4 * w_norm2_2 ? std::sqrt(corrected)
                                                  : w.norm2();
      } else {
        hj[ju + 1] = std::sqrt(corrected);
      }

      const Real hlast = hj[ju + 1];
      // Drift bookkeeping: this iteration multiplied any error already
      // in the q basis by ~||q_j||/h_last. Resync once the running
      // product threatens the usable precision.
      const double amp =
          hlast > 0.0 ? std::sqrt(std::max(w_norm2, 0.0)) / hlast : 0.0;
      drift *= std::max(amp, 1.0);
      const bool resync = sync || drift > opts.pipeline_drift_limit;
      if (resync) drift = 1.0;
      if (hlast > 0.0) {
        v.emplace_back(rt, a.rows());
        v.back().copy_from(w);
        v.back().scale(1.0 / hlast);
        q.emplace_back(rt, a.rows());
        if (resync) {
          // Synchronization point (periodic or drift-triggered):
          // recompute q_{j+1} = A M^-1 v_{j+1} directly, discarding
          // accumulated recurrence drift.
          m.apply(v.back(), z);
          a.matvec(z, q.back());
        } else {
          // q_{j+1} = A M^-1 v_{j+1} by linearity: same combination of
          // the already-computed t and the q basis — no second matvec.
          q.back().copy_from(tq);
          q.back().scale(1.0 / hlast);
        }
      }

      for (std::int64_t i = 0; i < j; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        const Real tg = cs[iu] * hj[iu] + sn[iu] * hj[iu + 1];
        hj[iu + 1] = -sn[iu] * hj[iu] + cs[iu] * hj[iu + 1];
        hj[iu] = tg;
      }
      const Real denom = std::hypot(hj[ju], hlast);
      if (denom == 0.0) {
        ++j;
        break;
      }
      cs[ju] = hj[ju] / denom;
      sn[ju] = hlast / denom;
      hj[ju] = denom;
      hj[ju + 1] = 0.0;
      g[ju + 1] = -sn[ju] * g[ju];
      g[ju] = cs[ju] * g[ju];

      stats.final_residual = std::abs(g[ju + 1]);
      if (opts.residual_trace) {
        opts.residual_trace->push_back(stats.final_residual);
      }
      if (stats.final_residual <= target || hlast == 0.0) {
        ++j;
        break;
      }
    }

    std::vector<Real> y(static_cast<std::size_t>(j), 0.0);
    for (std::int64_t i = j - 1; i >= 0; --i) {
      Real acc = g[static_cast<std::size_t>(i)];
      for (std::int64_t k = i + 1; k < j; ++k) {
        acc -= h[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
               y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] =
          acc / h[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
    }
    w.fill(0.0);
    for (std::int64_t i = 0; i < j; ++i) {
      w.axpy(y[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)]);
    }
    m.apply(w, z);
    x.axpy(1.0, z);

    if (stats.final_residual <= target) {
      a.residual(b, x, r);
      stats.final_residual = r.norm2();
      if (stats.final_residual <= 1.5 * std::max(target, Real{1e-300})) {
        stats.converged = true;
        return stats;
      }
    }
  }
  return stats;
}

}  // namespace

SolveStats gmres_solve(const linalg::ParCsr& a, const linalg::ParVector& b,
                       linalg::ParVector& x, Preconditioner& m,
                       const GmresOptions& opts) {
  par::Runtime& rt = a.runtime();
  const int restart = opts.restart;
  SolveStats stats;

  linalg::ParVector r(rt, a.rows());
  linalg::ParVector w(rt, a.rows());
  linalg::ParVector z(rt, a.rows());

  if (opts.residual_trace) opts.residual_trace->clear();

  // Convergence target follows hypre's convention: relative to ||b||.
  const Real bnorm = b.norm2();
  a.residual(b, x, r);
  Real beta = r.norm2();
  stats.initial_residual = beta;
  stats.final_residual = beta;
  const Real target =
      std::max(opts.rel_tol * (bnorm > 0.0 ? bnorm : beta), opts.abs_tol);
  if (beta <= target || beta == 0.0) {
    stats.converged = true;
    return stats;
  }

  if (opts.ortho == OrthoMethod::kPipelined) {
    return pipelined_cycles(a, b, x, m, opts, target, stats);
  }

  std::vector<linalg::ParVector> v;  // Krylov basis
  // Hessenberg (column-major by iteration), Givens rotations, rhs.
  std::vector<std::vector<Real>> h;
  std::vector<Real> cs(static_cast<std::size_t>(restart) + 1);
  std::vector<Real> sn(static_cast<std::size_t>(restart) + 1);
  std::vector<Real> g(static_cast<std::size_t>(restart) + 1);

  while (stats.iterations < opts.max_iters) {
    // (Re)start.
    a.residual(b, x, r);
    beta = r.norm2();
    stats.final_residual = beta;
    if (beta <= target) {
      stats.converged = true;
      return stats;
    }
    v.clear();
    h.assign(static_cast<std::size_t>(restart),
             std::vector<Real>(static_cast<std::size_t>(restart) + 1, 0.0));
    v.emplace_back(rt, a.rows());
    v[0].copy_from(r);
    v[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < restart && stats.iterations < opts.max_iters; ++j) {
      stats.iterations += 1;
      // w = A M^-1 v_j.
      m.apply(v[static_cast<std::size_t>(j)], z);
      a.matvec(z, w);

      auto& hj = h[static_cast<std::size_t>(j)];
      if (opts.ortho == OrthoMethod::kMgs) {
        // One reduction per projection + one for the norm.
        for (std::size_t i = 0; i < static_cast<std::size_t>(j) + 1; ++i) {
          hj[i] = w.dot(v[i]);
          w.axpy(-hj[i], v[i]);
        }
        hj[static_cast<std::size_t>(j) + 1] = w.norm2();
      } else {
        // One fused reduction: [V^T w ; ||w||^2].
        const auto dots = fused_dots(v, static_cast<std::size_t>(j) + 1, w);
        double h_norm2 = 0;
        for (std::size_t i = 0; i < static_cast<std::size_t>(j) + 1; ++i) {
          hj[i] = dots[i];
          h_norm2 += dots[i] * dots[i];
          w.axpy(-hj[i], v[i]);
        }
        const double w_norm2 = dots[static_cast<std::size_t>(j) + 1];
        double corrected = w_norm2 - h_norm2;
        // The Pythagorean identity ||w - V h||^2 = ||w||^2 - ||h||^2 only
        // holds for an orthonormal V. A single classical Gram-Schmidt pass
        // loses orthogonality exactly when the projections dominate (e.g.
        // under a strong preconditioner the new Krylov direction is tiny),
        // and a corrupted h stalls the Givens residual estimate above the
        // target while the true residual keeps falling. Rutishauser's
        // "twice is enough" criterion: if the pass removed more than half
        // of ||w||^2, reorthogonalize with a second fused reduction.
        if (!(corrected > 0.5 * w_norm2)) {
          const auto dots2 =
              fused_dots(v, static_cast<std::size_t>(j) + 1, w);
          double c_norm2 = 0;
          for (std::size_t i = 0; i < static_cast<std::size_t>(j) + 1; ++i) {
            const double c = dots2[i];
            hj[i] += c;
            c_norm2 += c * c;
            w.axpy(-c, v[i]);
          }
          // The second pass removes only O(eps)-sized components, so its
          // own Pythagorean update is reliable unless w vanished entirely.
          const double w_norm2_2 = dots2[static_cast<std::size_t>(j) + 1];
          corrected = w_norm2_2 - c_norm2;
          if (corrected > 1e-4 * w_norm2_2) {
            hj[static_cast<std::size_t>(j) + 1] = std::sqrt(corrected);
          } else {
            // Happy breakdown / full cancellation: take the explicit norm.
            hj[static_cast<std::size_t>(j) + 1] = w.norm2();
          }
        } else {
          hj[static_cast<std::size_t>(j) + 1] = std::sqrt(corrected);
        }
      }

      const Real hlast = hj[static_cast<std::size_t>(j) + 1];
      if (hlast > 0.0) {
        v.emplace_back(rt, a.rows());
        v.back().copy_from(w);
        v.back().scale(1.0 / hlast);
      }

      // Apply accumulated Givens rotations to the new column.
      for (std::int64_t i = 0; i < j; ++i) {
        const Real t = cs[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i)] +
                       sn[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i) + 1];
        hj[static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i) + 1];
        hj[static_cast<std::size_t>(i)] = t;
      }
      const Real denom = std::hypot(hj[static_cast<std::size_t>(j)], hlast);
      if (denom == 0.0) {
        ++j;
        break;  // exact solution reached
      }
      cs[static_cast<std::size_t>(j)] = hj[static_cast<std::size_t>(j)] / denom;
      sn[static_cast<std::size_t>(j)] = hlast / denom;
      hj[static_cast<std::size_t>(j)] = denom;
      hj[static_cast<std::size_t>(j) + 1] = 0.0;
      g[static_cast<std::size_t>(j) + 1] = -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] = cs[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];

      stats.final_residual = std::abs(g[static_cast<std::size_t>(j) + 1]);
      if (opts.residual_trace) {
        opts.residual_trace->push_back(stats.final_residual);
      }
      if (stats.final_residual <= target || hlast == 0.0) {
        ++j;
        break;
      }
    }

    // Back-substitute y and update x += M^-1 (V y).
    std::vector<Real> y(static_cast<std::size_t>(j), 0.0);
    for (std::int64_t i = j - 1; i >= 0; --i) {
      Real acc = g[static_cast<std::size_t>(i)];
      for (std::int64_t k = i + 1; k < j; ++k) {
        acc -= h[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
               y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] =
          acc / h[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
    }
    w.fill(0.0);
    for (std::int64_t i = 0; i < j; ++i) {
      w.axpy(y[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)]);
    }
    m.apply(w, z);
    x.axpy(1.0, z);

    if (stats.final_residual <= target) {
      // Confirm with a true residual before declaring victory.
      a.residual(b, x, r);
      stats.final_residual = r.norm2();
      if (stats.final_residual <= 1.5 * std::max(target, Real{1e-300})) {
        stats.converged = true;
        return stats;
      }
    }
  }
  return stats;
}

}  // namespace exw::solver
