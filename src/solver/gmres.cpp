/// \file gmres.cpp
/// Right-preconditioned flexible GMRES over the lanes of a ParVector:
/// every pressure, scalar and momentum solve runs this one implementation
/// (a plain solve is the 1-lane case, fused u/v/w momentum the 3-lane
/// case).
///
/// All lanes march in lockstep through one shared restart cycle: every
/// inner iteration runs ONE fused preconditioner application, ONE fused
/// SpMV, and ONE batched orthogonalization allreduce carrying every
/// active lane's [V^T w ; ||w||^2] payload. Per-lane Hessenberg/Givens
/// state is host-side scalar work. Each application z_j = M^-1 v_j is
/// kept (Saad's flexible GMRES), and a lane leaving the cycle after k
/// iterations finishes with x += Z y, y from its k Givens columns: no
/// preconditioner application follows the last iteration, and the finish
/// is exact for a preconditioner that is not bitwise linear (the FP32
/// V-cycle and SGS2 round their stores).
///
/// Lane independence is the invariant everything rests on: every fused
/// kernel (spmv_multi, the smoother sweeps, the masked BLAS-1 ops)
/// computes lane c from lane c alone, and the batched reductions of
/// par::Runtime reduce element-wise in rank order — so each lane's
/// entire iterate sequence is bitwise-identical to a 1-lane solve of
/// that lane (pinned by test_fused across 1/2/4/8 ranks). Three
/// consequences the code leans on:
///  * Converged lanes are masked out of fused ops (never touched again —
///    even an alpha = 0 axpy could flip a -0.0) while full-width
///    scratch ops may scribble on their dead planes freely.
///  * Lanes that leave the cycle at the same step (converged, happy
///    breakdown, budget or restart exhausted) finish together: one
///    masked update of x, then one fused confirmation residual and one
///    batched norm for those whose Givens estimate says converged. Lane
///    c of x gets the same addends in the same order as in a 1-lane
///    solve.
///  * A lane whose true-residual confirmation fails waits, frozen, and
///    rejoins at the next shared restart — the same arithmetic a 1-lane
///    solve performs, just later in wall-clock.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "solver/gmres.hpp"

namespace exw::solver {

namespace {

enum class LaneState : std::uint8_t {
  kIterating,  ///< inside the current shared restart cycle
  kWaiting,    ///< needs a (re)start
  kDone,       ///< finished, converged or budget-exhausted
};

/// Per-rank partial sums of the batched reductions, one row per rank,
/// kept for a whole solve: a reduction refills each row in place.
using Partials = std::vector<std::vector<double>>;

/// Batched one-reduce payload: for each lane in `lanes` (ascending), the
/// partial dots of its w plane against v[0..count) plus ||w||^2, all in
/// ONE allreduce — the kernel of the one-reduce orthogonalization.
std::vector<double> fused_dots(const std::vector<linalg::ParVector>& v,
                               std::size_t count, const linalg::ParVector& w,
                               const std::vector<std::size_t>& lanes,
                               Partials& partial) {
  par::Runtime& rt = w.runtime();
  const std::size_t seg = count + 1;
  rt.parallel_for_ranks([&](RankId r) {
    auto& p = partial[static_cast<std::size_t>(r)];
    p.assign(lanes.size() * seg, 0.0);
    double n = 0.0;
    for (std::size_t li = 0; li < lanes.size(); ++li) {
      const std::size_t c = lanes[li];
      const auto wl = w.lane_span(r, c);
      n = static_cast<double>(wl.size());
      for (std::size_t j = 0; j < count; ++j) {
        const auto vl = v[j].lane_span(r, c);
        double s = 0;
        for (std::size_t i = 0; i < wl.size(); ++i) {
          s += vl[i] * wl[i];
        }
        p[li * seg + j] = s;
      }
      double s = 0;
      for (double xv : wl) s += xv * xv;
      p[li * seg + count] = s;
    }
    const auto nl = static_cast<double>(lanes.size());
    rt.tracer().kernel(r, nl * 2.0 * static_cast<double>(count + 1) * n,
                       nl * static_cast<double>(count + 2) * n * sizeof(Real));
  });
  return rt.allreduce_sum_vec(partial);
}

/// Every lane's ||b|| and ||r||, in that order (2 * ncomp values), from
/// one kernel per rank and ONE allreduce. Each value sums its squares in
/// the same order as ParVector::norms, so it is bitwise the value a
/// separate b.norms() or r.norms() returns.
std::vector<double> paired_norms(const linalg::ParVector& b,
                                 const linalg::ParVector& r,
                                 Partials& partial) {
  par::Runtime& rt = r.runtime();
  const std::size_t nc = r.ncomp();
  rt.parallel_for_ranks([&](RankId rk) {
    auto& p = partial[static_cast<std::size_t>(rk)];
    p.assign(2 * nc, 0.0);
    double n = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
      const auto bl = b.lane_span(rk, c);
      const auto rl = r.lane_span(rk, c);
      n = static_cast<double>(rl.size());
      double sb = 0;
      for (double v : bl) sb += v * v;
      double sr = 0;
      for (double v : rl) sr += v * v;
      p[c] = sb;
      p[nc + c] = sr;
    }
    const double m = static_cast<double>(nc) * n;
    double f64 = 0, f32 = 0;
    split_value_bytes(b.value_precision(), bytes_of(b.value_precision()) * m,
                      f64, f32);
    split_value_bytes(r.value_precision(), bytes_of(r.value_precision()) * m,
                      f64, f32);
    rt.tracer().kernel_split_prec(rk, 4.0 * m, f64, f32, 0.0);
  });
  auto out = rt.allreduce_sum_vec(partial);
  for (double& v : out) v = std::sqrt(v);
  return out;
}

}  // namespace

MultiSolveStats gmres_solve_multi(const linalg::ParCsr& a,
                                  const linalg::ParVector& b,
                                  linalg::ParVector& x, Preconditioner& m,
                                  const GmresOptions& opts) {
  par::Runtime& rt = a.runtime();
  const std::size_t nc = x.ncomp();
  EXW_REQUIRE(b.ncomp() == nc, "gmres lane count mismatch");
  EXW_REQUIRE(b.global_size() == a.global_rows() &&
                  x.global_size() == a.global_cols(),
              "gmres shape mismatch");
  EXW_REQUIRE(opts.residual_trace == nullptr || nc == 1,
              "gmres residual_trace records 1-lane solves only");
  if (opts.residual_trace) opts.residual_trace->clear();
  const auto restart = static_cast<std::size_t>(opts.restart);

  MultiSolveStats out;
  out.lane.assign(nc, SolveStats{});

  linalg::ParVector r(rt, a.rows(), nc);
  linalg::ParVector w(rt, a.rows(), nc);
  // Room for the widest payload, the one-reduce dots of a full cycle:
  // (restart + 1) * nc values per rank.
  Partials partial(static_cast<std::size_t>(a.nranks()));
  for (auto& p : partial) p.reserve((restart + 1) * nc);

  // Per-lane convergence targets (hypre convention: relative to ||b||).
  // The one entry residual and both norms (one batched reduction) also
  // serve the first shared start.
  a.residual(b, x, r);
  const auto norms0 = paired_norms(b, r, partial);
  std::vector<double> betas(norms0.begin() + static_cast<std::ptrdiff_t>(nc),
                            norms0.end());
  bool r_current = true;  // r and betas hold b - A x

  std::vector<LaneState> state(nc, LaneState::kWaiting);
  std::vector<Real> target(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    auto& s = out.lane[c];
    const Real beta = betas[c];
    s.initial_residual = beta;
    s.final_residual = beta;
    target[c] = opts.rel_tol * (norms0[c] > 0.0 ? norms0[c] : beta);
    if (beta <= target[c] || beta == 0.0) {
      s.converged = true;
      state[c] = LaneState::kDone;
    }
  }

  std::vector<linalg::ParVector> v;  // shared Krylov basis planes
  std::vector<linalg::ParVector> z;  // z_i = M^-1 v_i, allocated with use
  // Per-lane Hessenberg, Givens and rhs, sized once per solve and
  // zero-filled at each (re)start. A lane's Hessenberg is one flat
  // buffer of `restart` columns of restart + 1 entries: H(i, j) is at
  // j * hcol + i, and hcolumn(c, j) is lane c's column j.
  const std::size_t hcol = restart + 1;
  std::vector<std::vector<Real>> h(nc, std::vector<Real>(restart * hcol));
  std::vector<std::vector<Real>> cs(nc, std::vector<Real>(hcol));
  std::vector<std::vector<Real>> sn(nc, std::vector<Real>(hcol));
  std::vector<std::vector<Real>> g(nc, std::vector<Real>(hcol));
  auto hcolumn = [&](std::size_t c, std::size_t j) {
    return std::span<Real>(h[c]).subspan(j * hcol, hcol);
  };
  std::vector<Real> hlast(nc, 0.0);

  // Scratch masks / per-lane coefficient vectors for the fused ops, and
  // the coefficients of one basis combination: row i holds every lane's
  // coefficient of v_i (or of z_i in a finish), so one region applies
  // all of them.
  std::vector<std::uint8_t> mask(nc, 0);
  std::vector<Real> coef(nc, 0.0);
  std::vector<Real> basis_coef(restart * nc, 0.0);
  auto row = [&](std::size_t i) {
    return std::span<const Real>(basis_coef).subspan(i * nc, nc);
  };
  // w += sum over i <= j of row(i) * v_i, lanes in `lanes` only: one
  // region, each rank applying the terms in order i = 0..j, as j + 1
  // axpy_lanes would.
  auto update_basis = [&](std::size_t j, std::span<const std::uint8_t> lanes) {
    rt.parallel_for_ranks([&](RankId rk) {
      for (std::size_t i = 0; i <= j; ++i) {
        w.axpy_lanes(rk, row(i), v[i], lanes);
      }
    });
  };

  // True while x's halo holds a pack that no residual has consumed yet
  // (a finish packs ahead for the residual that follows it).
  bool x_packed = false;
  auto residual_from_packed = [&] {
    rt.parallel_for_ranks([&](RankId rk) { a.residual(rk, b, x, r); });
    x_packed = false;
  };

  auto any_state = [&](LaneState want) {
    return std::any_of(state.begin(), state.end(),
                       [want](LaneState sc) { return sc == want; });
  };

  // Lanes leaving the restart cycle at the current step, finished
  // together by finish().
  std::vector<std::uint8_t> leaving(nc, 0);
  std::vector<std::uint8_t> confirm(nc, 0);
  // The exit of the `leaving` lanes (if any) after `jcols` iterations of
  // the cycle: back-substitute each lane's y, x += Z y in one region, and
  // — for lanes whose Givens estimate says converged — confirm against
  // one fused true residual before declaring victory. A lane that fails
  // the confirmation goes back to kWaiting and rejoins at the next
  // shared restart.
  auto finish = [&](std::size_t jcols) {
    if (std::find(leaving.begin(), leaving.end(), 1) == leaving.end()) return;
    bool any_confirm = false;
    bool will_wait = false;  // some lane will wait for a restart it can run
    bool stays = false;      // some lane stays in the cycle
    for (std::size_t c = 0; c < nc; ++c) {
      const auto& s = out.lane[c];
      const bool budget = s.iterations < opts.max_iters;
      confirm[c] = 0;
      if (!leaving[c]) {
        stays = stays || state[c] == LaneState::kIterating;
        will_wait = will_wait || (state[c] == LaneState::kWaiting && budget);
        continue;
      }
      for (std::size_t i = jcols; i-- > 0;) {
        Real acc = g[c][i];
        for (std::size_t k = i + 1; k < jcols; ++k) {
          acc -= hcolumn(c, k)[i] * basis_coef[k * nc + c];
        }
        basis_coef[i * nc + c] = acc / hcolumn(c, i)[i];
      }
      if (s.final_residual <= target[c]) {
        confirm[c] = 1;
        any_confirm = true;
      } else {
        will_wait = will_wait || budget;
      }
    }
    // A residual on x follows at once for the confirmation, or for the
    // next shared restart when no lane stays in the cycle; each rank
    // packs its corrected rows for it in the body that adds them.
    x_packed = any_confirm || (will_wait && !stays);
    if (x_packed) a.halo_begin(x);
    rt.parallel_for_ranks([&](RankId rk) {
      for (std::size_t i = 0; i < jcols; ++i) {
        x.axpy_lanes(rk, row(i), z[i], leaving);
      }
      if (x_packed) a.halo_pack(rk, x);
    });
    std::vector<double> rnorms;
    if (any_confirm) {
      residual_from_packed();
      rnorms = r.norms();
    }
    for (std::size_t c = 0; c < nc; ++c) {
      if (!leaving[c]) continue;
      leaving[c] = 0;
      auto& s = out.lane[c];
      if (confirm[c]) {
        s.final_residual = rnorms[c];
        if (s.final_residual <= 1.5 * std::max(target[c], Real{1e-300})) {
          s.converged = true;
          state[c] = LaneState::kDone;
          continue;
        }
      }
      state[c] = LaneState::kWaiting;
    }
  };

  while (any_state(LaneState::kWaiting)) {
    // Budget-exhausted lanes are finished (their x already holds the
    // last finish's update).
    for (std::size_t c = 0; c < nc; ++c) {
      if (state[c] == LaneState::kWaiting &&
          out.lane[c].iterations >= opts.max_iters) {
        state[c] = LaneState::kDone;
      }
    }
    if (!any_state(LaneState::kWaiting)) break;

    // --- shared (re)start for every waiting lane ------------------------
    if (!r_current) {
      if (x_packed) {
        residual_from_packed();
      } else {
        a.residual(b, x, r);
      }
      betas = r.norms();
    }
    r_current = false;
    std::fill(mask.begin(), mask.end(), 0);
    std::fill(coef.begin(), coef.end(), 0.0);
    bool any_active = false;
    for (std::size_t c = 0; c < nc; ++c) {
      if (state[c] != LaneState::kWaiting) continue;
      auto& s = out.lane[c];
      const Real beta = betas[c];
      s.final_residual = beta;
      if (beta <= target[c]) {
        s.converged = true;
        state[c] = LaneState::kDone;
        continue;
      }
      state[c] = LaneState::kIterating;
      any_active = true;
      mask[c] = 1;
      coef[c] = 1.0 / beta;
      for (std::vector<Real>* lane : {&h[c], &cs[c], &sn[c], &g[c]}) {
        std::fill(lane->begin(), lane->end(), 0.0);
      }
      g[c][0] = beta;
    }
    if (!any_active) continue;
    if (v.empty()) {
      v.emplace_back(rt, a.rows(), nc);
    }
    rt.parallel_for_ranks([&](RankId rk) {
      v[0].copy_from(rk, r);
      v[0].scale_lanes(rk, coef, mask);
    });

    std::size_t j = 0;
    while (j < restart && any_state(LaneState::kIterating)) {
      // Lanes out of budget leave here with the columns they have, and
      // are finalized at the top of the outer loop.
      for (std::size_t c = 0; c < nc; ++c) {
        if (state[c] == LaneState::kIterating &&
            out.lane[c].iterations >= opts.max_iters) {
          leaving[c] = 1;
        }
      }
      finish(j);
      std::vector<std::size_t> act;
      for (std::size_t c = 0; c < nc; ++c) {
        if (state[c] == LaneState::kIterating) act.push_back(c);
      }
      if (act.empty()) break;
      std::fill(mask.begin(), mask.end(), 0);
      for (std::size_t c : act) {
        mask[c] = 1;
        out.lane[c].iterations += 1;
      }

      // w = A z_j with z_j = M^-1 v_j, fused across all lanes (dead
      // planes are scribble space: matvec's beta = 0 and apply_zero
      // overwrite them fully). z_j is kept for the finish.
      if (z.size() <= j) {
        z.emplace_back(rt, a.rows(), nc);
      }
      m.apply(v[j], z[j]);
      a.matvec(z[j], w);

      if (opts.ortho == OrthoMethod::kMgs) {
        // One batched reduction per projection + one for the norm.
        for (std::size_t i = 0; i <= j; ++i) {
          const auto dots = w.dots(v[i]);
          for (std::size_t c : act) {
            hcolumn(c, j)[i] = dots[c];
            coef[c] = -dots[c];
          }
          w.axpy_lanes(coef, v[i], mask);
        }
        const auto norms = w.norms();
        for (std::size_t c : act) {
          hlast[c] = norms[c];
          hcolumn(c, j)[j + 1] = norms[c];
        }
      } else {
        // One fused reduction for every active lane: [V^T w ; ||w||^2].
        const std::size_t seg = j + 2;
        const auto dots = fused_dots(v, j + 1, w, act, partial);
        std::vector<double> w_norm2(nc, 0.0);
        std::vector<double> h_norm2(nc, 0.0);
        for (std::size_t li = 0; li < act.size(); ++li) {
          const std::size_t c = act[li];
          const auto hj = hcolumn(c, j);
          for (std::size_t i = 0; i <= j; ++i) {
            hj[i] = dots[li * seg + i];
            h_norm2[c] += hj[i] * hj[i];
          }
          w_norm2[c] = dots[li * seg + j + 1];
        }
        for (std::size_t i = 0; i <= j; ++i) {
          for (std::size_t c : act) {
            basis_coef[i * nc + c] = -hcolumn(c, j)[i];
          }
        }
        update_basis(j, mask);
        // Rutishauser "twice is enough", per lane; lanes that trigger
        // share one second fused reduction.
        std::vector<std::size_t> reo;
        std::vector<double> corrected(nc, 0.0);
        for (std::size_t c : act) {
          corrected[c] = w_norm2[c] - h_norm2[c];
          if (!(corrected[c] > 0.5 * w_norm2[c])) reo.push_back(c);
        }
        for (std::size_t c : act) {
          if (corrected[c] > 0.5 * w_norm2[c]) {
            hlast[c] = std::sqrt(corrected[c]);
            hcolumn(c, j)[j + 1] = hlast[c];
          }
        }
        if (!reo.empty()) {
          const auto dots2 = fused_dots(v, j + 1, w, reo, partial);
          std::vector<std::uint8_t> rmask(nc, 0);
          for (std::size_t c : reo) rmask[c] = 1;
          std::vector<double> c_norm2(nc, 0.0);
          for (std::size_t li = 0; li < reo.size(); ++li) {
            const std::size_t c = reo[li];
            const auto hj = hcolumn(c, j);
            for (std::size_t i = 0; i <= j; ++i) {
              const double cv = dots2[li * seg + i];
              hj[i] += cv;
              c_norm2[c] += cv * cv;
            }
          }
          for (std::size_t i = 0; i <= j; ++i) {
            for (std::size_t li = 0; li < reo.size(); ++li) {
              basis_coef[i * nc + reo[li]] = -dots2[li * seg + i];
            }
          }
          update_basis(j, rmask);
          for (std::size_t li = 0; li < reo.size(); ++li) {
            const std::size_t c = reo[li];
            const double w_norm2_2 = dots2[li * seg + j + 1];
            const double corr2 = w_norm2_2 - c_norm2[c];
            if (corr2 > 1e-4 * w_norm2_2) {
              hlast[c] = std::sqrt(corr2);
            } else {
              // Happy breakdown / full cancellation: explicit norm.
              hlast[c] = w.lane_norm2(c);
            }
            hcolumn(c, j)[j + 1] = hlast[c];
          }
        }
      }

      // v_{j+1} = w / hlast for every lane with hlast > 0 (a lane with
      // hlast == 0 always breaks below, so its unscaled plane is dead).
      if (v.size() <= j + 1) {
        v.emplace_back(rt, a.rows(), nc);
      }
      std::fill(coef.begin(), coef.end(), 0.0);
      std::vector<std::uint8_t> pmask(nc, 0);
      bool any_push = false;
      for (std::size_t c : act) {
        if (hlast[c] > 0.0) {
          pmask[c] = 1;
          coef[c] = 1.0 / hlast[c];
          any_push = true;
        }
      }
      if (any_push) {
        // Copy, scale and scrub in one body per rank. The scrub zeroes
        // the scribble planes: dead-lane values cycle through A M^-1
        // every iteration via the fused w product, and the operator's
        // norm can exceed 1, so left alone they grow geometrically until
        // the FP32 demote boundary inside a mixed-precision
        // preconditioner overflows. Zeroing is invisible to live lanes —
        // every fused kernel is lane-wise — and keeps the scratch planes
        // bounded.
        rt.parallel_for_ranks([&](RankId rk) {
          v[j + 1].copy_from(rk, w);
          v[j + 1].scale_lanes(rk, coef, pmask);
          for (std::size_t c = 0; c < nc; ++c) {
            if (!pmask[c]) v[j + 1].lane_fill(rk, c, 0.0);
          }
        });
      }

      // Givens update + convergence test, per lane on the host.
      for (std::size_t c : act) {
        const auto hj = hcolumn(c, j);
        for (std::size_t i = 0; i < j; ++i) {
          const Real tg = cs[c][i] * hj[i] + sn[c][i] * hj[i + 1];
          hj[i + 1] = -sn[c][i] * hj[i] + cs[c][i] * hj[i + 1];
          hj[i] = tg;
        }
        const Real denom = std::hypot(hj[j], hlast[c]);
        if (denom == 0.0) {
          leaving[c] = 1;  // exact solution reached
          continue;
        }
        cs[c][j] = hj[j] / denom;
        sn[c][j] = hlast[c] / denom;
        hj[j] = denom;
        hj[j + 1] = 0.0;
        g[c][j + 1] = -sn[c][j] * g[c][j];
        g[c][j] = cs[c][j] * g[c][j];
        out.lane[c].final_residual = std::abs(g[c][j + 1]);
        if (opts.residual_trace) {
          opts.residual_trace->push_back(out.lane[c].final_residual);
        }
        if (out.lane[c].final_residual <= target[c] || hlast[c] == 0.0) {
          leaving[c] = 1;
        }
      }
      ++j;
      finish(j);
    }

    // Restart exhausted: remaining lanes update x and go back to waiting.
    for (std::size_t c = 0; c < nc; ++c) {
      if (state[c] == LaneState::kIterating) leaving[c] = 1;
    }
    finish(j);
  }
  return out;
}

SolveStats gmres_solve(const linalg::ParCsr& a, const linalg::ParVector& b,
                       linalg::ParVector& x, Preconditioner& m,
                       const GmresOptions& opts) {
  EXW_REQUIRE(x.ncomp() == 1, "gmres_solve takes 1-lane vectors");
  return gmres_solve_multi(a, b, x, m, opts).lane.front();
}

}  // namespace exw::solver
