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

void Smoother::apply(const linalg::ParVector& b, linalg::ParVector& x,
                     int sweeps) const {
  EXW_REQUIRE(b.ncomp() == x.ncomp(), "smoother lane count mismatch");
  for (std::int64_t s = 0; s < sweeps; ++s) {
    switch (type_) {
      case SmootherType::kHybridGs: sweep_hybrid_gs(b, x); break;
      case SmootherType::kTwoStageGs:
        sweep_two_stage(b, x, residual_scratch(x.ncomp()));
        break;
      case SmootherType::kSgs2:
        sweep_sgs2(b, x, residual_scratch(x.ncomp()));
        break;
    }
  }
}

void Smoother::apply_zero(const linalg::ParVector& r, linalg::ParVector& z,
                          int sweeps) const {
  z.fill(0.0);
  apply(r, z, sweeps);
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
void Smoother::sweep_two_stage(const linalg::ParVector& b,
                               linalg::ParVector& x,
                               linalg::ParVector& r) const {
  // x += Mtilde^-1 (b - A x) with Mtilde^-1 ~ (L+D)^-1 by inner JR: the
  // halo pack, then one body per rank for its residual rows, the JR
  // solve and the update (its own rows of x, which no other body reads:
  // they see x's off-rank values through the packed halo).
  EXW_PURITY_REGION("smoother-sweep-two-stage");
  const Precision pr = a_->value_precision();
  const auto nl = static_cast<double>(x.ncomp());
  a_->halo_pack(x);
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    a_->residual(rk, b, x, r);
    auto& [g, tg] = scratch_[static_cast<std::size_t>(rk)];
    jr_solve(rk, ldu_.lower[static_cast<std::size_t>(rk)], r.local(rk),
             x.ncomp(), g, tg);
    auto& xl = x.local(rk);
    for (std::size_t i = 0; i < xl.size(); ++i) {
      xl[i] = store_value(xl[i] + g[i], pr);
    }
    const auto n =
        static_cast<double>(ldu_.dinv[static_cast<std::size_t>(rk)].size());
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, 3.0 * bytes_of(pr) * nl * n, f64, f32);
    a_->runtime().tracer().kernel_split_prec(rk, nl * n, f64, f32, 0.0);
  });
}

EXW_WARM_FN
void Smoother::sweep_sgs2(const linalg::ParVector& b, linalg::ParVector& x,
                          linalg::ParVector& r) const {
  // Symmetric two-stage GS: M = (L+D) D^-1 (D+U), both triangular solves
  // approximated by inner JR sweeps (compact form of Eqs. 11-14): one
  // residual, then the forward and backward JR stages stream L/U once
  // per inner sweep for all lanes — all in one body per rank after the
  // halo pack, as in the two-stage sweep.
  EXW_PURITY_REGION("smoother-sweep-sgs2");
  const Precision pr = a_->value_precision();
  const std::size_t lanes = x.ncomp();
  const auto nl = static_cast<double>(lanes);
  a_->halo_pack(x);
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    a_->residual(rk, b, x, r);
    auto& [g, tg] = scratch_[static_cast<std::size_t>(rk)];
    const auto& d = ldu_.dinv[static_cast<std::size_t>(rk)];
    const std::size_t n = d.size();
    auto& t = r.local(rk);
    jr_solve(rk, ldu_.lower[static_cast<std::size_t>(rk)], t, lanes, g, tg);
    // rhs for the backward stage: D * g, lane by lane, into the residual
    // plane the forward stage has finished reading.
    for (std::size_t c = 0; c < lanes; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        t[c * n + i] = store_value(g[c * n + i] / d[i], pr);
      }
    }
    jr_solve(rk, ldu_.upper[static_cast<std::size_t>(rk)], t, lanes, g, tg);
    auto& xl = x.local(rk);
    for (std::size_t i = 0; i < xl.size(); ++i) {
      xl[i] = store_value(xl[i] + g[i], pr);
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, 4.0 * bytes_of(pr) * nl * static_cast<double>(n),
                      f64, f32);
    a_->runtime().tracer().kernel_split_prec(
        rk, 2.0 * nl * static_cast<double>(n), f64, f32, 0.0);
  });
}

}  // namespace exw::amg
