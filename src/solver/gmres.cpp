/// \file gmres.cpp
/// Right-preconditioned GMRES over the lanes of a ParVector: every
/// pressure, scalar and momentum solve runs this one implementation
/// (a plain solve is the 1-lane case, fused u/v/w momentum the 3-lane
/// case).
///
/// All lanes march in lockstep through one shared restart cycle: every
/// inner iteration runs ONE fused preconditioner application, ONE fused
/// SpMV, and ONE batched orthogonalization allreduce carrying every
/// active lane's [V^T w ; ||w||^2] payload. Per-lane Hessenberg/Givens
/// state is host-side scalar work.
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
///  * A lane that exits the inner loop early (converged or happy
///    breakdown) runs its epilogue immediately with single-lane ops;
///    the shared scratch planes it used are fully overwritten before
///    any other lane reads them (matvec beta = 0, apply_zero).
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

/// kPipelined: the q recurrence multiplies accumulated rounding error by
/// ~||q_j||/h_{j+1,j} each iteration (~sqrt(2) when the Rutishauser test
/// does not fire, orders of magnitude when it does). The solver tracks
/// the running product per lane and restart cycle and resynchronizes
/// q_{j+1} by direct recompute once it exceeds this limit, holding the
/// basis error near limit * machine-epsilon (~1e-9) at the cost of one
/// extra preconditioner + SpMV application per resync. Every lane tracks
/// it from bitwise-identical reduced quantities, so a lane resyncs
/// exactly when its 1-lane solve would.
constexpr double kPipelineDriftLimit = 1e7;

enum class LaneState : std::uint8_t {
  kIterating,  ///< inside the current shared restart cycle
  kWaiting,    ///< needs a (re)start
  kDone,       ///< finished, converged or budget-exhausted
};

/// Batched one-reduce payload: for each lane in `lanes` (ascending), the
/// partial dots of its w plane against v[0..count) plus ||w||^2, all in
/// ONE allreduce — the kernel of the one-reduce orthogonalization. With
/// `overlapped` the same payload rides the non-blocking collective
/// (charged so its latency hides behind whatever the caller computes
/// next); the returned values are identical either way, because both
/// reductions sum rank partials element-wise in rank order.
std::vector<double> fused_dots(const std::vector<linalg::ParVector>& v,
                               std::size_t count, const linalg::ParVector& w,
                               const std::vector<std::size_t>& lanes,
                               bool overlapped = false) {
  par::Runtime& rt = w.runtime();
  const int nranks = w.nranks();
  const std::size_t seg = count + 1;
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(nranks),
      std::vector<double>(lanes.size() * seg, 0.0));
  rt.parallel_for_ranks([&](RankId r) {
    auto& p = partial[static_cast<std::size_t>(r)];
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
  return overlapped ? rt.allreduce_sum_vec_overlapped(partial)
                    : rt.allreduce_sum_vec(partial);
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

  const bool pipe = opts.ortho == OrthoMethod::kPipelined;

  linalg::ParVector r(rt, a.rows(), nc);
  linalg::ParVector w(rt, a.rows(), nc);
  linalg::ParVector z(rt, a.rows(), nc);
  // Pipelined auxiliary planes: t = A M^-1 q_j and the running
  // combination that becomes q_{j+1} (allocated only when used).
  linalg::ParVector t;
  linalg::ParVector tq;
  if (pipe) {
    t = linalg::ParVector(rt, a.rows(), nc);
    tq = linalg::ParVector(rt, a.rows(), nc);
  }
  // A 1-lane solve updates its own vectors in place; a multi-lane solve
  // runs each lane's epilogue through this 1-lane scratch.
  linalg::ParVector ws, zs, xs, bs, rs;
  if (nc > 1) {
    ws = linalg::ParVector(rt, a.rows());
    zs = linalg::ParVector(rt, a.rows());
    xs = linalg::ParVector(rt, a.rows());
    bs = linalg::ParVector(rt, a.rows());
    rs = linalg::ParVector(rt, a.rows());
  }

  // Per-lane convergence targets (hypre convention: relative to ||b||),
  // batched into one reduction each for ||b|| and the initial residual.
  const auto bnorms = b.norms();
  a.residual(b, x, r);
  auto betas = r.norms();

  std::vector<LaneState> state(nc, LaneState::kWaiting);
  std::vector<Real> target(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    auto& s = out.lane[c];
    const Real beta = betas[c];
    s.initial_residual = beta;
    s.final_residual = beta;
    target[c] = opts.rel_tol * (bnorms[c] > 0.0 ? bnorms[c] : beta);
    if (beta <= target[c] || beta == 0.0) {
      s.converged = true;
      state[c] = LaneState::kDone;
    }
  }

  std::vector<linalg::ParVector> v;  // shared Krylov basis planes
  std::vector<linalg::ParVector> q;  // pipelined: q_i = A M^-1 v_i
  // Per-lane running q-recurrence error amplification (see
  // kPipelineDriftLimit), reset at every shared restart.
  std::vector<double> drift(nc, 1.0);
  // Per-lane Hessenberg (column-major by iteration), Givens, rhs.
  std::vector<std::vector<std::vector<Real>>> h(nc);
  std::vector<std::vector<Real>> cs(nc);
  std::vector<std::vector<Real>> sn(nc);
  std::vector<std::vector<Real>> g(nc);
  std::vector<Real> hlast(nc, 0.0);

  // Scratch masks / per-lane coefficient vectors for the fused ops, and
  // the coefficients of one basis update: row i holds every lane's
  // coefficient of v_i, so one region applies all of them.
  std::vector<std::uint8_t> mask(nc, 0);
  std::vector<Real> coef(nc, 0.0);
  std::vector<Real> basis_coef(restart * nc, 0.0);
  auto row = [&](std::size_t i) {
    return std::span<const Real>(basis_coef).subspan(i * nc, nc);
  };
  // w += sum over i <= j of row(i) * v_i (and the same combination of the
  // q_i into tq when `also_tq`), lanes in `lanes` only: one region, each
  // rank applying the terms in order i = 0..j, as j + 1 axpy_lanes would.
  auto update_basis = [&](std::size_t j, std::span<const std::uint8_t> lanes,
                          bool also_tq) {
    rt.parallel_for_ranks([&](RankId rk) {
      for (std::size_t i = 0; i <= j; ++i) {
        w.axpy_lanes(rk, row(i), v[i], lanes);
        if (also_tq) tq.axpy_lanes(rk, row(i), q[i], lanes);
      }
    });
  };

  // True while x's halo holds a pack that no residual has consumed yet
  // (a 1-lane epilogue packs ahead for the residual that follows it).
  bool x_packed = false;
  auto residual_from_packed = [&] {
    rt.parallel_for_ranks([&](RankId rk) { a.residual(rk, b, x, r); });
    x_packed = false;
  };

  auto any_state = [&](LaneState want) {
    return std::any_of(state.begin(), state.end(),
                       [want](LaneState sc) { return sc == want; });
  };

  // A lane's exit from the restart cycle: back-substitute its y,
  // x += M^-1 (V y), and — when the Givens estimate says converged —
  // confirm against a true residual before declaring victory. A lane
  // that fails the confirmation goes back to kWaiting and rejoins at
  // the next shared restart.
  auto epilogue = [&](std::size_t c, std::size_t jcols) {
    auto& s = out.lane[c];
    std::vector<Real> y(jcols, 0.0);
    for (std::size_t i = jcols; i-- > 0;) {
      Real acc = g[c][i];
      for (std::size_t k = i + 1; k < jcols; ++k) {
        acc -= h[c][k][i] * y[k];
      }
      y[i] = acc / h[c][i][i];
    }
    rt.parallel_for_ranks([&](RankId rk) {
      w.lane_fill(rk, c, 0.0);
      for (std::size_t i = 0; i < jcols; ++i) {
        w.lane_axpy(rk, c, y[i], v[i]);
      }
    });
    const bool confirm = s.final_residual <= target[c];
    if (nc == 1) {
      // The scratch planes are the lane's own: z and r are fully
      // rewritten before their next use. When a residual on x follows
      // (the confirmation, or the next restart's), each rank packs its
      // corrected rows for it in the body that adds the correction.
      m.apply(w, z);
      x_packed = confirm || s.iterations < opts.max_iters;
      if (x_packed) a.halo_begin(x);
      rt.parallel_for_ranks([&](RankId rk) {
        x.axpy(rk, 1.0, z);
        if (x_packed) a.halo_pack(rk, x);
      });
      if (confirm) {
        residual_from_packed();
        s.final_residual = r.norm2();
      }
    } else {
      // The same through the 1-lane scratch: the body that adds lane c's
      // correction also copies out lane c of b and packs its rows of xs
      // for the confirmation residual.
      w.extract_lane(c, ws);
      m.apply(ws, zs);
      if (confirm) a.halo_begin(xs);
      rt.parallel_for_ranks([&](RankId rk) {
        x.extract_lane(rk, c, xs);
        xs.axpy(rk, 1.0, zs);
        x.set_lane(rk, c, xs);
        if (confirm) {
          b.extract_lane(rk, c, bs);
          a.halo_pack(rk, xs);
        }
      });
      if (confirm) {
        rt.parallel_for_ranks([&](RankId rk) { a.residual(rk, bs, xs, rs); });
        s.final_residual = rs.norm2();
      }
    }
    if (confirm &&
        s.final_residual <= 1.5 * std::max(target[c], Real{1e-300})) {
      s.converged = true;
      state[c] = LaneState::kDone;
      return;
    }
    state[c] = LaneState::kWaiting;
  };

  while (any_state(LaneState::kWaiting)) {
    // Budget-exhausted lanes are finished (their x already holds the
    // last epilogue's update).
    for (std::size_t c = 0; c < nc; ++c) {
      if (state[c] == LaneState::kWaiting &&
          out.lane[c].iterations >= opts.max_iters) {
        state[c] = LaneState::kDone;
      }
    }
    if (!any_state(LaneState::kWaiting)) break;

    // --- shared (re)start for every waiting lane ------------------------
    if (x_packed) {
      residual_from_packed();
    } else {
      a.residual(b, x, r);
    }
    betas = r.norms();
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
      h[c].assign(restart, std::vector<Real>(restart + 1, 0.0));
      cs[c].assign(restart + 1, 0.0);
      sn[c].assign(restart + 1, 0.0);
      g[c].assign(restart + 1, 0.0);
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
    if (pipe) {
      // Prime the pipeline: q_0 = A M^-1 v_0, fused across lanes (dead
      // planes are scribble space, exactly like the w planes below).
      if (q.empty()) {
        q.emplace_back(rt, a.rows(), nc);
      }
      m.apply(v[0], z);
      a.matvec(z, q[0]);
      std::fill(drift.begin(), drift.end(), 1.0);
    }

    std::size_t j = 0;
    while (j < restart && any_state(LaneState::kIterating)) {
      // A lane out of budget exits here, runs its epilogue with the
      // columns it has, and is finalized at the top of the outer loop.
      for (std::size_t c = 0; c < nc; ++c) {
        if (state[c] == LaneState::kIterating &&
            out.lane[c].iterations >= opts.max_iters) {
          epilogue(c, j);
        }
      }
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

      // w = A M^-1 v_j, fused across all lanes (dead planes are scribble
      // space: matvec's beta = 0 and apply_zero overwrite them fully).
      // Pipelined: the candidate IS q_j — initiate the batched fused
      // reduction on it, then run the next pipeline stage t = A M^-1 q_j
      // while the collective is in flight.
      // Synchronization point (see kPipelineSyncPeriod): keyed off j
      // alone, so every lane stays bitwise-identical to its 1-lane solve.
      const bool sync =
          pipe &&
          (j + 1) % static_cast<std::size_t>(kPipelineSyncPeriod) == 0;
      std::vector<double> pdots;
      if (pipe) {
        pdots = fused_dots(v, j + 1, q[j], act, /*overlapped=*/!sync);
        if (!sync) {
          m.apply(q[j], z);
          a.matvec(z, t);
          tq.copy_from(t);
        }
        w.copy_from(q[j]);
      } else {
        m.apply(v[j], z);
        a.matvec(z, w);
      }

      // Pipelined lanes whose drift crossed kPipelineDriftLimit this
      // iteration: their q_{j+1} is recomputed directly below instead of
      // continuing the recurrence. Per-lane, exactly as a 1-lane solve of
      // that lane would decide, preserving bitwise lane equivalence.
      std::vector<std::uint8_t> rsync(nc, 0);
      bool any_rsync = false;
      if (opts.ortho == OrthoMethod::kMgs) {
        // One batched reduction per projection + one for the norm.
        for (std::size_t i = 0; i <= j; ++i) {
          const auto dots = w.dots(v[i]);
          for (std::size_t c : act) {
            h[c][j][i] = dots[c];
            coef[c] = -dots[c];
          }
          w.axpy_lanes(coef, v[i], mask);
        }
        const auto norms = w.norms();
        for (std::size_t c : act) {
          hlast[c] = norms[c];
          h[c][j][j + 1] = norms[c];
        }
      } else {
        // One fused reduction for every active lane: [V^T w ; ||w||^2]
        // (already in flight — and consumed here — when pipelined).
        const std::size_t seg = j + 2;
        const auto dots =
            pipe ? std::move(pdots) : fused_dots(v, j + 1, w, act);
        std::vector<double> w_norm2(nc, 0.0);
        std::vector<double> h_norm2(nc, 0.0);
        for (std::size_t li = 0; li < act.size(); ++li) {
          const std::size_t c = act[li];
          auto& hj = h[c][j];
          for (std::size_t i = 0; i <= j; ++i) {
            hj[i] = dots[li * seg + i];
            h_norm2[c] += hj[i] * hj[i];
          }
          w_norm2[c] = dots[li * seg + j + 1];
        }
        for (std::size_t i = 0; i <= j; ++i) {
          for (std::size_t c : act) {
            basis_coef[i * nc + c] = -h[c][j][i];
          }
        }
        // The q recurrence gets the same combination so that
        // q_{j+1} = A M^-1 v_{j+1} keeps holding by linearity.
        update_basis(j, mask, pipe && !sync);
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
            h[c][j][j + 1] = hlast[c];
          }
        }
        if (!reo.empty()) {
          const auto dots2 = fused_dots(v, j + 1, w, reo);
          std::vector<std::uint8_t> rmask(nc, 0);
          for (std::size_t c : reo) rmask[c] = 1;
          std::vector<double> c_norm2(nc, 0.0);
          for (std::size_t li = 0; li < reo.size(); ++li) {
            const std::size_t c = reo[li];
            auto& hj = h[c][j];
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
          // Fold the (blocking) reorthogonalization into the q
          // recurrence too, keeping both bases consistent. (Lanes that
          // resync below overwrite this — the fold is only live for
          // lanes still on the recurrence.)
          update_basis(j, rmask, pipe && !sync);
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
            h[c][j][j + 1] = hlast[c];
          }
        }
        if (pipe) {
          // Drift bookkeeping: this iteration multiplied any error already
          // in the lane's q basis by ~||q_j||/h_last.
          for (std::size_t c : act) {
            const double amp =
                hlast[c] > 0.0
                    ? std::sqrt(std::max(w_norm2[c], 0.0)) / hlast[c]
                    : 0.0;
            drift[c] *= std::max(amp, 1.0);
            if (sync || drift[c] > kPipelineDriftLimit) {
              drift[c] = 1.0;
              if (!sync) {
                rsync[c] = 1;
                any_rsync = true;
              }
            }
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
        // every iteration (directly in the pipelined q recurrence,
        // via the fused w product otherwise) and the operator's norm can
        // exceed 1, so left alone they grow geometrically until the FP32
        // demote boundary inside a mixed-precision preconditioner
        // overflows. Zeroing is invisible to live lanes — every fused
        // kernel is lane-wise — and keeps the scratch planes bounded.
        rt.parallel_for_ranks([&](RankId rk) {
          v[j + 1].copy_from(rk, w);
          v[j + 1].scale_lanes(rk, coef, pmask);
          for (std::size_t c = 0; c < nc; ++c) {
            if (!pmask[c]) v[j + 1].lane_fill(rk, c, 0.0);
          }
        });
      }
      if (pipe) {
        if (q.size() <= j + 1) {
          q.emplace_back(rt, a.rows(), nc);
        }
        if (any_push) {
          if (sync || (nc == 1 && any_rsync)) {
            // Synchronization point (periodic, or a 1-lane drift
            // resync): recompute q_{j+1} = A M^-1 v_{j+1} directly (the
            // operator application this iteration skipped), discarding
            // accumulated recurrence drift for every lane at once.
            m.apply(v[j + 1], z);
            a.matvec(z, q[j + 1]);
          } else {
            // q_{j+1} = A M^-1 v_{j+1} by linearity: the
            // already-computed t minus the same basis combination,
            // scaled by the same 1/hlast — no second operator
            // application.
            q[j + 1].copy_from(tq);
            q[j + 1].scale_lanes(coef, pmask);
            if (any_rsync) {
              // Drift resync of some lanes: overwrite exactly those
              // lanes with a direct recompute, leaving the others'
              // recurrence values untouched (a 1-lane solve of each lane
              // makes the identical choice).
              std::vector<std::uint8_t> rsmask(nc, 0);
              for (std::size_t c = 0; c < nc; ++c) {
                if (rsync[c] && pmask[c]) rsmask[c] = 1;
              }
              m.apply(v[j + 1], z);
              a.matvec(z, t);
              q[j + 1].copy_lanes(t, rsmask);
            }
          }
          // Same scribble scrub as v[j+1] above: q planes feed the
          // preconditioner every iteration, so unbounded dead-lane
          // values would hit the FP32 demote boundary first.
          for (std::size_t c = 0; c < nc; ++c) {
            if (!pmask[c]) q[j + 1].lane_fill(c, 0.0);
          }
        }
      }

      // Givens update + convergence test, per lane on the host.
      for (std::size_t c : act) {
        auto& hj = h[c][j];
        for (std::size_t i = 0; i < j; ++i) {
          const Real tg = cs[c][i] * hj[i] + sn[c][i] * hj[i + 1];
          hj[i + 1] = -sn[c][i] * hj[i] + cs[c][i] * hj[i + 1];
          hj[i] = tg;
        }
        const Real denom = std::hypot(hj[j], hlast[c]);
        if (denom == 0.0) {
          epilogue(c, j + 1);  // exact solution reached
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
          epilogue(c, j + 1);
        }
      }
      ++j;
    }

    // Restart exhausted: remaining lanes update x and go back to waiting.
    for (std::size_t c = 0; c < nc; ++c) {
      if (state[c] == LaneState::kIterating) {
        epilogue(c, j);
      }
    }
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
