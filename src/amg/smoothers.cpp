#include "amg/smoothers.hpp"

#include <cstdint>

#include "common/error.hpp"
#include "perf/purity.hpp"

namespace exw::amg {

LduSplit LduSplit::build(const linalg::ParCsr& a) {
  LduSplit out;
  const Precision pr = a.value_precision();
  const int nranks = a.nranks();
  out.lower.resize(static_cast<std::size_t>(nranks));
  out.upper.resize(static_cast<std::size_t>(nranks));
  out.dinv.resize(static_cast<std::size_t>(nranks));
  a.runtime().parallel_for_ranks([&](RankId r) {
    const auto& b = a.block(r);
    const LocalIndex n = b.diag.nrows();
    sparse::Csr lo(n, n), up(n, n);
    auto& dinv = out.dinv[static_cast<std::size_t>(r)];
    dinv.assign(static_cast<std::size_t>(n), 0.0);
    for (LocalIndex i{0}; i < n; ++i) {
      Real d = 0;
      for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
        const LocalIndex c = b.diag.cols()[k];
        const Real v = b.diag.vals()[k];
        if (c < i) {
          lo.cols_vec().push_back(c);
          lo.vals_vec().push_back(v);
        } else if (c > i) {
          up.cols_vec().push_back(c);
          up.vals_vec().push_back(v);
        } else {
          d = v;
        }
      }
      lo.row_ptr_mut()[static_cast<std::size_t>(i) + 1] =
          EntryOffset{lo.cols_vec().size()};
      up.row_ptr_mut()[static_cast<std::size_t>(i) + 1] =
          EntryOffset{up.cols_vec().size()};
      EXW_REQUIRE(d != 0.0, "zero diagonal in smoother setup");
      // The split shares the matrix's storage plane: an FP32 operator
      // gets FP32-rounded reciprocals (L/U values are copies of already
      // rounded entries, so only the divisions need the store round).
      dinv[static_cast<std::size_t>(i)] = store_value(1.0 / d, pr);
    }
    out.lower[static_cast<std::size_t>(r)] = std::move(lo);
    out.upper[static_cast<std::size_t>(r)] = std::move(up);
  });
  return out;
}

EXW_WARM_FN
void LduSplit::refresh_values(const linalg::ParCsr& a) {
  const Precision pr = a.value_precision();
  a.runtime().parallel_for_ranks([&](RankId r) {
    const auto& b = a.block(r);
    const LocalIndex n = b.diag.nrows();
    auto& lo = lower[static_cast<std::size_t>(r)];
    auto& up = upper[static_cast<std::size_t>(r)];
    auto& di = dinv[static_cast<std::size_t>(r)];
    EXW_REQUIRE(di.size() == static_cast<std::size_t>(n),
                "smoother refresh: matrix structure changed");
    auto& lo_vals = lo.vals_vec();
    auto& up_vals = up.vals_vec();
    std::size_t lo_k = 0, up_k = 0;
    for (LocalIndex i{0}; i < n; ++i) {
      Real d = 0;
      for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
        const LocalIndex c = b.diag.cols()[k];
        const Real v = b.diag.vals()[k];
        if (c < i) {
          lo_vals[lo_k++] = v;
        } else if (c > i) {
          up_vals[up_k++] = v;
        } else {
          d = v;
        }
      }
      EXW_REQUIRE(d != 0.0, "zero diagonal in smoother refresh");
      di[static_cast<std::size_t>(i)] = store_value(1.0 / d, pr);
    }
    EXW_REQUIRE(lo_k == lo.nnz() && up_k == up.nnz(),
                "smoother refresh: triangular structure changed");
  });
}

Smoother::Smoother(const linalg::ParCsr& a, SmootherType type,
                   int inner_sweeps)
    : a_(&a), type_(type), inner_sweeps_(inner_sweeps),
      ldu_(LduSplit::build(a)),
      scratch_(static_cast<std::size_t>(a.nranks())) {}

EXW_WARM_FN
void Smoother::refresh_values() {
  EXW_PURITY_REGION("smoother-rebind");
  ldu_.refresh_values(*a_);
}

EXW_WARM_FN
void Smoother::apply(const linalg::ParVector& b, linalg::ParVector& x,
                     int sweeps) const {
  EXW_REQUIRE(b.ncomp() == x.ncomp(), "smoother lane count mismatch");
  for (std::int64_t s = 0; s < sweeps; ++s) {
    if (type_ == SmootherType::kHybridGs) {
      sweep_hybrid_gs(b, x);
      continue;
    }
    // The halo pack, then one body per rank for its residual rows, the
    // JR solve(s) and the update (its own rows of x, which no other body
    // reads: they see x's off-rank values through the packed halo).
    linalg::ParVector& r = residual_scratch(x.ncomp());
    a_->halo_pack(x);
    a_->runtime().parallel_for_ranks(
        [&](RankId rk) { sweep(rk, b, x, r); });
  }
}

EXW_WARM_FN
void Smoother::apply_zero(const linalg::ParVector& b, linalg::ParVector& x,
                          int sweeps) const {
  EXW_REQUIRE(b.ncomp() == x.ncomp(), "smoother lane count mismatch");
  EXW_REQUIRE(b.value_precision() == x.value_precision(),
              "smoother rhs and iterate precision mismatch");
  EXW_REQUIRE(sweeps >= 1, "apply_zero runs at least one sweep");
  const bool mixed = x.value_precision() != a_->value_precision();
  Boundary* bd = mixed ? &boundary_scratch(x.ncomp()) : nullptr;
  const linalg::ParVector& bs = mixed ? bd->b : b;
  linalg::ParVector& xs = mixed ? bd->x : x;
  if (type_ == SmootherType::kHybridGs) {
    // The test reference keeps the zero fill and the full sweeps.
    if (mixed) bd->b.copy_from(b);
    xs.fill(0.0);
    apply(bs, xs, sweeps);
    if (mixed) x.copy_from(xs);
    return;
  }
  linalg::ParVector& r = residual_scratch(x.ncomp());
  linalg::ParVector* promoted = mixed ? &x : nullptr;
  // The first body demotes b's rows at the boundary, runs the sweep from
  // the zero guess and packs its rows of the result for the second
  // sweep; the last sweep promotes its result at the boundary.
  if (sweeps > 1) a_->halo_begin(xs);
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    if (mixed) bd->b.copy_from(rk, b);
    sweep_zero(rk, bs, xs, r, sweeps == 1 ? promoted : nullptr);
    if (sweeps > 1) a_->halo_pack(rk, xs);
  });
  for (std::int64_t s = 1; s < sweeps; ++s) {
    if (s > 1) a_->halo_pack(xs);
    linalg::ParVector* out = s + 1 == sweeps ? promoted : nullptr;
    a_->runtime().parallel_for_ranks(
        [&](RankId rk) { sweep(rk, bs, xs, r, out); });
  }
}

linalg::ParVector& Smoother::residual_scratch(std::size_t lanes) const {
  const Precision pr = a_->value_precision();
  if (residual_.size() <= lanes || residual_[lanes].ncomp() != lanes ||
      residual_[lanes].value_precision() != pr) {
    EXW_PURITY_ALLOW("first-use scratch priming");
    if (residual_.size() <= lanes) {
      residual_.resize(lanes + 1);  // exw-warm-ok: first-use scratch priming
    }
    residual_[lanes] =
        linalg::ParVector(a_->runtime(), a_->rows(), lanes, pr);
  }
  return residual_[lanes];
}

Smoother::Boundary& Smoother::boundary_scratch(std::size_t lanes) const {
  const Precision pr = a_->value_precision();
  if (boundary_.size() <= lanes || boundary_[lanes].x.ncomp() != lanes) {
    EXW_PURITY_ALLOW("first-use scratch priming");
    if (boundary_.size() <= lanes) {
      boundary_.resize(lanes + 1);  // exw-warm-ok: first-use scratch priming
    }
    boundary_[lanes].b =
        linalg::ParVector(a_->runtime(), a_->rows(), lanes, pr);
    boundary_[lanes].x =
        linalg::ParVector(a_->runtime(), a_->rows(), lanes, pr);
  }
  return boundary_[lanes];
}

EXW_WARM_FN
void Smoother::sweep_hybrid_gs(const linalg::ParVector& b,
                               linalg::ParVector& x) const {
  // One round of neighbor communication, then a true sequential forward
  // GS sweep on the local rows (off-rank values frozen), every lane
  // relaxed row by row from the same pass over the row structure.
  EXW_PURITY_REGION("smoother-sweep-hybrid-gs");
  const Precision pr = a_->value_precision();
  const std::size_t lanes = x.ncomp();
  a_->halo_pack(x);
  auto& tracer = a_->runtime().tracer();
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    const auto& el = a_->halo_receive(rk, x);
    const auto& blk = a_->block(rk);
    auto& xl = x.local(rk);
    const auto& bl = b.local(rk);
    const auto n = static_cast<std::size_t>(blk.diag.nrows());
    const std::size_t m = blk.col_map.size();
    for (LocalIndex i{0}; i < blk.diag.nrows(); ++i) {
      const auto iu = static_cast<std::size_t>(i);
      for (std::size_t c = 0; c < lanes; ++c) {
        Real acc = bl[c * n + iu];
        Real diag = 1.0;
        for (EntryOffset k = blk.diag.row_begin(i); k < blk.diag.row_end(i);
             ++k) {
          const LocalIndex col = blk.diag.cols()[k];
          const Real v = blk.diag.vals()[k];
          if (col == i) {
            diag = v;
          } else {
            acc -= v * xl[c * n + static_cast<std::size_t>(col)];
          }
        }
        for (EntryOffset k = blk.offd.row_begin(i); k < blk.offd.row_end(i);
             ++k) {
          acc -= blk.offd.vals()[k] *
                 el[c * m + static_cast<std::size_t>(blk.offd.cols()[k])];
        }
        xl[c * n + iu] = store_value(acc / diag, pr);
      }
    }
    const auto nnz = static_cast<double>(blk.diag.nnz() + blk.offd.nnz());
    const auto nl = static_cast<double>(lanes);
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, nl * nnz * bytes_of(pr), f64, f32);
    tracer.kernel_split_prec(rk, 2.0 * nnz * nl, f64, f32,
                             nnz * sizeof(LocalIndex));
  });
}

void Smoother::jr_solve(RankId r, const sparse::Csr& tri,
                        const RealVector& rhs, std::size_t lanes,
                        RealVector& g, RealVector& tg) const {
  // Eqs. (5)-(7), lane by lane: g_0 = Dinv rhs; g_{j+1} = Dinv (rhs -
  // T g_j). The JR iterate is a smoother-internal stream: stores round
  // through the matrix's storage plane and the value bytes price
  // accordingly — this is the stream the mixed hierarchy halves.
  const Precision pr = a_->value_precision();
  const auto& d = ldu_.dinv[static_cast<std::size_t>(r)];
  const std::size_t n = d.size();
  EXW_ASSERT(rhs.size() == lanes * n);
  if (g.size() != lanes * n || tg.size() != lanes * n) {
    EXW_PURITY_ALLOW("first-use scratch priming");
    g.resize(lanes * n);   // exw-warm-ok: first-use scratch priming
    tg.resize(lanes * n);  // exw-warm-ok: first-use scratch priming
  }
  // Writes every entry of g, so reused scratch carries nothing over.
  for (std::size_t c = 0; c < lanes; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      g[c * n + i] = store_value(d[i] * rhs[c * n + i], pr);
    }
  }
  auto& tracer = a_->runtime().tracer();
  const auto nl = static_cast<double>(lanes);
  for (std::int64_t j = 0; j < inner_sweeps_; ++j) {
    tri.spmv_multi(g, n, tg, n, lanes);
    for (std::size_t c = 0; c < lanes; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        g[c * n + i] =
            store_value(d[i] * (rhs[c * n + i] - tg[c * n + i]), pr);
      }
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr,
                      nl * bytes_of(pr) * (static_cast<double>(tri.nnz()) +
                                           4.0 * static_cast<double>(n)),
                      f64, f32);
    tracer.kernel_split_prec(
        r,
        nl * (2.0 * static_cast<double>(tri.nnz()) +
              3.0 * static_cast<double>(n)),
        f64, f32, sizeof(LocalIndex) * static_cast<double>(tri.nnz()));
  }
}

EXW_WARM_FN
void Smoother::sweep(RankId rk, const linalg::ParVector& b,
                     linalg::ParVector& x, linalg::ParVector& r,
                     linalg::ParVector* promoted) const {
  EXW_PURITY_REGION(type_ == SmootherType::kSgs2 ? "smoother-sweep-sgs2"
                                                 : "smoother-sweep-two-stage");
  a_->residual(rk, b, x, r);
  relax(rk, r.local(rk), /*zero_guess=*/false, x, r, promoted);
}

EXW_WARM_FN
void Smoother::sweep_zero(RankId rk, const linalg::ParVector& b,
                          linalg::ParVector& x, linalg::ParVector& r,
                          linalg::ParVector* promoted) const {
  EXW_PURITY_REGION(type_ == SmootherType::kSgs2 ? "smoother-sweep-sgs2"
                                                 : "smoother-sweep-two-stage");
  EXW_ASSERT(b.value_precision() == a_->value_precision());
  relax(rk, b.local(rk), /*zero_guess=*/true, x, r, promoted);
}

void Smoother::relax(RankId rk, const RealVector& rhs, bool zero_guess,
                     linalg::ParVector& x, linalg::ParVector& r,
                     linalg::ParVector* promoted) const {
  // Two-stage: x += Mtilde^-1 (b - A x) with Mtilde^-1 ~ (L+D)^-1 by
  // inner JR. SGS2, the symmetric variant: M = (L+D) D^-1 (D+U), both
  // triangular solves approximated by inner JR sweeps (compact form of
  // Eqs. 11-14), the forward and backward stages streaming L/U once per
  // inner sweep for all lanes.
  const Precision pr = a_->value_precision();
  const std::size_t lanes = x.ncomp();
  auto& [g, tg] = scratch_[static_cast<std::size_t>(rk)];
  const auto& d = ldu_.dinv[static_cast<std::size_t>(rk)];
  const std::size_t n = d.size();
  jr_solve(rk, ldu_.lower[static_cast<std::size_t>(rk)], rhs, lanes, g, tg);
  const bool sgs2 = type_ == SmootherType::kSgs2;
  if (sgs2) {
    // rhs for the backward stage: D * g, lane by lane, into rk's rows of
    // the residual, which the forward stage has finished reading.
    auto& t = r.local(rk);
    for (std::size_t c = 0; c < lanes; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        t[c * n + i] = store_value(g[c * n + i] / d[i], pr);
      }
    }
    jr_solve(rk, ldu_.upper[static_cast<std::size_t>(rk)], t, lanes, g, tg);
  }
  // 0.0 + g, not g: a -0.0 in g stores +0.0, as x + g from a zero fill.
  const Real* x0 = zero_guess ? nullptr : x.local(rk).data();
  RealVector& out = promoted != nullptr ? promoted->local(rk) : x.local(rk);
  for (std::size_t i = 0; i < lanes * n; ++i) {
    out[i] = store_value((x0 != nullptr ? x0[i] : 0.0) + g[i], pr);
  }
  // The update reads g (SGS2's backward rhs streams it once more) and x
  // unless it starts from zero, and writes x, or the promoted result.
  const double nln = static_cast<double>(lanes * n);
  const double reads = (sgs2 ? 2.0 : 1.0) + (zero_guess ? 0.0 : 1.0);
  double f64 = 0, f32 = 0;
  split_value_bytes(pr, (promoted != nullptr ? reads : reads + 1.0) *
                            bytes_of(pr) * nln,
                    f64, f32);
  if (promoted != nullptr) {
    const Precision po = promoted->value_precision();
    split_value_bytes(po, bytes_of(po) * nln, f64, f32);
  }
  a_->runtime().tracer().kernel_split_prec(rk, (sgs2 ? 2.0 : 1.0) * nln, f64,
                                           f32, 0.0);
}

}  // namespace exw::amg
