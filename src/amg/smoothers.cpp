#include "amg/smoothers.hpp"

#include <cmath>
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
  out.l1_dinv.resize(static_cast<std::size_t>(nranks));
  a.runtime().parallel_for_ranks([&](RankId r) {
    const auto& b = a.block(r);
    const LocalIndex n = b.diag.nrows();
    sparse::Csr lo(n, n), up(n, n);
    auto& dinv = out.dinv[static_cast<std::size_t>(r)];
    auto& l1 = out.l1_dinv[static_cast<std::size_t>(r)];
    dinv.assign(static_cast<std::size_t>(n), 0.0);
    l1.assign(static_cast<std::size_t>(n), 0.0);
    for (LocalIndex i{0}; i < n; ++i) {
      Real d = 0, off_rank_l1 = 0;
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
      for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
        off_rank_l1 += std::abs(b.offd.vals()[k]);
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
      l1[static_cast<std::size_t>(i)] =
          store_value(1.0 / (d + off_rank_l1), pr);
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
    auto& l1 = l1_dinv[static_cast<std::size_t>(r)];
    EXW_REQUIRE(di.size() == static_cast<std::size_t>(n),
                "smoother refresh: matrix structure changed");
    auto& lo_vals = lo.vals_vec();
    auto& up_vals = up.vals_vec();
    std::size_t lo_k = 0, up_k = 0;
    for (LocalIndex i{0}; i < n; ++i) {
      Real d = 0, off_rank_l1 = 0;
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
      for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
        off_rank_l1 += std::abs(b.offd.vals()[k]);
      }
      EXW_REQUIRE(d != 0.0, "zero diagonal in smoother refresh");
      di[static_cast<std::size_t>(i)] = store_value(1.0 / d, pr);
      l1[static_cast<std::size_t>(i)] =
          store_value(1.0 / (d + off_rank_l1), pr);
    }
    EXW_REQUIRE(lo_k == lo.nnz() && up_k == up.nnz(),
                "smoother refresh: triangular structure changed");
  });
}

Smoother::Smoother(const linalg::ParCsr& a, SmootherType type,
                   int inner_sweeps, Real jacobi_weight)
    : a_(&a), type_(type), inner_sweeps_(inner_sweeps), weight_(jacobi_weight),
      ldu_(LduSplit::build(a)) {}

EXW_WARM_FN
void Smoother::refresh_values() {
  EXW_PURITY_REGION("smoother-rebind");
  ldu_.refresh_values(*a_);
}

void Smoother::apply(const linalg::ParVector& b, linalg::ParVector& x,
                     int sweeps) const {
  for (std::int64_t s = 0; s < sweeps; ++s) {
    switch (type_) {
      case SmootherType::kJacobi: sweep_jacobi(b, x, false); break;
      case SmootherType::kL1Jacobi: sweep_jacobi(b, x, true); break;
      case SmootherType::kHybridGs: sweep_hybrid_gs(b, x); break;
      case SmootherType::kTwoStageGs: sweep_two_stage(b, x); break;
      case SmootherType::kSgs2: sweep_sgs2(b, x); break;
    }
  }
}

void Smoother::apply_zero(const linalg::ParVector& r, linalg::ParVector& z,
                          int sweeps) const {
  z.fill(0.0);
  apply(r, z, sweeps);
}

void Smoother::apply_multi(const linalg::ParMultiVector& b,
                           linalg::ParMultiVector& x, int sweeps) const {
  EXW_REQUIRE(b.ncomp() == x.ncomp(), "smoother lane count mismatch");
  switch (type_) {
    case SmootherType::kJacobi:
    case SmootherType::kL1Jacobi:
    case SmootherType::kSgs2:
      for (std::int64_t s = 0; s < sweeps; ++s) {
        if (type_ == SmootherType::kSgs2) {
          sweep_sgs2_multi(b, x);
        } else {
          sweep_jacobi_multi(b, x, type_ == SmootherType::kL1Jacobi);
        }
      }
      return;
    default: {
      // Per-lane fallback through scratch vectors: correct for every
      // type, fused traffic savings only where a native sweep exists.
      linalg::ParVector bl(a_->runtime(), a_->rows());
      linalg::ParVector xl(a_->runtime(), a_->rows());
      for (std::size_t c = 0; c < x.ncomp(); ++c) {
        b.extract_lane(c, bl);
        x.extract_lane(c, xl);
        apply(bl, xl, sweeps);
        x.set_lane(c, xl);
      }
      return;
    }
  }
}

void Smoother::apply_zero_multi(const linalg::ParMultiVector& r,
                                linalg::ParMultiVector& z, int sweeps) const {
  z.fill(0.0);
  apply_multi(r, z, sweeps);
}

void Smoother::sweep_jacobi(const linalg::ParVector& b, linalg::ParVector& x,
                            bool l1) const {
  // x += w * Dinv * (b - A x). The update arithmetic is FP64; stores into
  // x round through the smoother's storage plane (the matrix precision).
  const Precision pr = a_->value_precision();
  linalg::ParVector r(a_->runtime(), a_->rows());
  r.set_value_precision(pr);
  a_->residual(b, x, r);
  auto& tracer = a_->runtime().tracer();
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    auto& xl = x.local(rk);
    const auto& rl = r.local(rk);
    const auto& d = l1 ? ldu_.l1_dinv[static_cast<std::size_t>(rk)]
                       : ldu_.dinv[static_cast<std::size_t>(rk)];
    for (std::size_t i = 0; i < xl.size(); ++i) {
      xl[i] = store_value(xl[i] + weight_ * d[i] * rl[i], pr);
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, 4.0 * bytes_of(pr) * static_cast<double>(xl.size()),
                      f64, f32);
    tracer.kernel_split_prec(rk, 3.0 * static_cast<double>(xl.size()), f64,
                             f32, 0.0);
  });
}

void Smoother::sweep_jacobi_multi(const linalg::ParMultiVector& b,
                                  linalg::ParMultiVector& x, bool l1) const {
  // Lane c: x_c += w * Dinv * (b_c - A x_c), residual fused across lanes.
  const Precision pr = a_->value_precision();
  linalg::ParMultiVector r(a_->runtime(), a_->rows(), x.ncomp());
  r.set_value_precision(pr);
  a_->residual_multi(b, x, r);
  auto& tracer = a_->runtime().tracer();
  const auto nl = static_cast<double>(x.ncomp());
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    const auto& d = l1 ? ldu_.l1_dinv[static_cast<std::size_t>(rk)]
                       : ldu_.dinv[static_cast<std::size_t>(rk)];
    const std::size_t n = d.size();
    auto& xl = x.local(rk);
    const auto& rl = r.local(rk);
    for (std::size_t c = 0; c < x.ncomp(); ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        xl[c * n + i] =
            store_value(xl[c * n + i] + weight_ * d[i] * rl[c * n + i], pr);
      }
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, 4.0 * bytes_of(pr) * nl * static_cast<double>(n),
                      f64, f32);
    tracer.kernel_split_prec(rk, 3.0 * nl * static_cast<double>(n), f64, f32,
                             0.0);
  });
}

void Smoother::sweep_hybrid_gs(const linalg::ParVector& b,
                               linalg::ParVector& x) const {
  // One round of neighbor communication, then a true sequential forward
  // GS sweep on the local rows (off-rank values frozen).
  const Precision pr = a_->value_precision();
  const auto ext = a_->halo_exchange(x);
  auto& tracer = a_->runtime().tracer();
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    const auto& blk = a_->block(rk);
    auto& xl = x.local(rk);
    const auto& bl = b.local(rk);
    const auto& el = ext[static_cast<std::size_t>(rk)];
    for (LocalIndex i{0}; i < blk.diag.nrows(); ++i) {
      Real acc = bl[static_cast<std::size_t>(i)];
      Real diag = 1.0;
      for (EntryOffset k = blk.diag.row_begin(i); k < blk.diag.row_end(i); ++k) {
        const LocalIndex c = blk.diag.cols()[k];
        const Real v = blk.diag.vals()[k];
        if (c == i) {
          diag = v;
        } else {
          acc -= v * xl[static_cast<std::size_t>(c)];
        }
      }
      for (EntryOffset k = blk.offd.row_begin(i); k < blk.offd.row_end(i); ++k) {
        acc -= blk.offd.vals()[k] *
               el[static_cast<std::size_t>(
                   blk.offd.cols()[k])];
      }
      xl[static_cast<std::size_t>(i)] = store_value(acc / diag, pr);
    }
    const auto nnz = static_cast<double>(blk.diag.nnz() + blk.offd.nnz());
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, nnz * bytes_of(pr), f64, f32);
    tracer.kernel_split_prec(rk, 2.0 * nnz, f64, f32,
                             nnz * sizeof(LocalIndex));
  });
}

void Smoother::jr_lower(RankId r, const RealVector& rhs, RealVector& g) const {
  // Eqs. (5)-(7): g_0 = Dinv rhs; g_{j+1} = Dinv (rhs - L g_j). The JR
  // iterate is a smoother-internal stream: stores round through the
  // matrix's storage plane and the value bytes price accordingly — this
  // is the stream the mixed hierarchy halves.
  const Precision pr = a_->value_precision();
  const auto& lo = ldu_.lower[static_cast<std::size_t>(r)];
  const auto& d = ldu_.dinv[static_cast<std::size_t>(r)];
  const std::size_t n = rhs.size();
  g.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = store_value(d[i] * rhs[i], pr);
  }
  RealVector lg(n);
  auto& tracer = a_->runtime().tracer();
  for (std::int64_t j = 0; j < inner_sweeps_; ++j) {
    lo.spmv(g, lg);
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = store_value(d[i] * (rhs[i] - lg[i]), pr);
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr,
                      bytes_of(pr) * (static_cast<double>(lo.nnz()) +
                                      4.0 * static_cast<double>(n)),
                      f64, f32);
    tracer.kernel_split_prec(
        r, 2.0 * static_cast<double>(lo.nnz()) + 3.0 * static_cast<double>(n),
        f64, f32, sizeof(LocalIndex) * static_cast<double>(lo.nnz()));
  }
}

void Smoother::jr_lower_multi(RankId r, const RealVector& rhs,
                              std::size_t lanes, RealVector& g) const {
  // Fused Eqs. (5)-(7): every lane runs the scalar recurrence g_0 =
  // Dinv rhs, g_{j+1} = Dinv (rhs - L g_j) bitwise-identically; the L
  // structure is streamed once per sweep for all lanes.
  const Precision pr = a_->value_precision();
  const auto& lo = ldu_.lower[static_cast<std::size_t>(r)];
  const auto& d = ldu_.dinv[static_cast<std::size_t>(r)];
  const std::size_t n = d.size();
  EXW_ASSERT(rhs.size() == lanes * n);
  g.resize(lanes * n);
  for (std::size_t c = 0; c < lanes; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      g[c * n + i] = store_value(d[i] * rhs[c * n + i], pr);
    }
  }
  RealVector lg(lanes * n);
  auto& tracer = a_->runtime().tracer();
  const auto nl = static_cast<double>(lanes);
  for (std::int64_t j = 0; j < inner_sweeps_; ++j) {
    lo.spmv_multi(g, n, lg, n, lanes);
    for (std::size_t c = 0; c < lanes; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        g[c * n + i] =
            store_value(d[i] * (rhs[c * n + i] - lg[c * n + i]), pr);
      }
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr,
                      nl * bytes_of(pr) * (static_cast<double>(lo.nnz()) +
                                           4.0 * static_cast<double>(n)),
                      f64, f32);
    tracer.kernel_split_prec(
        r,
        nl * (2.0 * static_cast<double>(lo.nnz()) + 3.0 * static_cast<double>(n)),
        f64, f32, sizeof(LocalIndex) * static_cast<double>(lo.nnz()));
  }
}

void Smoother::jr_upper(RankId r, const RealVector& rhs, RealVector& g) const {
  const Precision pr = a_->value_precision();
  const auto& up = ldu_.upper[static_cast<std::size_t>(r)];
  const auto& d = ldu_.dinv[static_cast<std::size_t>(r)];
  const std::size_t n = rhs.size();
  g.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = store_value(d[i] * rhs[i], pr);
  }
  RealVector ug(n);
  auto& tracer = a_->runtime().tracer();
  for (std::int64_t j = 0; j < inner_sweeps_; ++j) {
    up.spmv(g, ug);
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = store_value(d[i] * (rhs[i] - ug[i]), pr);
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr,
                      bytes_of(pr) * (static_cast<double>(up.nnz()) +
                                      4.0 * static_cast<double>(n)),
                      f64, f32);
    tracer.kernel_split_prec(
        r, 2.0 * static_cast<double>(up.nnz()) + 3.0 * static_cast<double>(n),
        f64, f32, sizeof(LocalIndex) * static_cast<double>(up.nnz()));
  }
}

void Smoother::jr_upper_multi(RankId r, const RealVector& rhs,
                              std::size_t lanes, RealVector& g) const {
  const Precision pr = a_->value_precision();
  const auto& up = ldu_.upper[static_cast<std::size_t>(r)];
  const auto& d = ldu_.dinv[static_cast<std::size_t>(r)];
  const std::size_t n = d.size();
  EXW_ASSERT(rhs.size() == lanes * n);
  g.resize(lanes * n);
  for (std::size_t c = 0; c < lanes; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      g[c * n + i] = store_value(d[i] * rhs[c * n + i], pr);
    }
  }
  RealVector ug(lanes * n);
  auto& tracer = a_->runtime().tracer();
  const auto nl = static_cast<double>(lanes);
  for (std::int64_t j = 0; j < inner_sweeps_; ++j) {
    up.spmv_multi(g, n, ug, n, lanes);
    for (std::size_t c = 0; c < lanes; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        g[c * n + i] =
            store_value(d[i] * (rhs[c * n + i] - ug[c * n + i]), pr);
      }
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr,
                      nl * bytes_of(pr) * (static_cast<double>(up.nnz()) +
                                           4.0 * static_cast<double>(n)),
                      f64, f32);
    tracer.kernel_split_prec(
        r,
        nl * (2.0 * static_cast<double>(up.nnz()) + 3.0 * static_cast<double>(n)),
        f64, f32, sizeof(LocalIndex) * static_cast<double>(up.nnz()));
  }
}

void Smoother::sweep_two_stage(const linalg::ParVector& b,
                               linalg::ParVector& x) const {
  // x += Mtilde^-1 (b - A x) with Mtilde^-1 ~ (L+D)^-1 by inner JR.
  const Precision pr = a_->value_precision();
  linalg::ParVector r(a_->runtime(), a_->rows());
  r.set_value_precision(pr);
  a_->residual(b, x, r);
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    RealVector g;
    jr_lower(rk, r.local(rk), g);
    auto& xl = x.local(rk);
    for (std::size_t i = 0; i < xl.size(); ++i) {
      xl[i] = store_value(xl[i] + g[i], pr);
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, 3.0 * bytes_of(pr) * static_cast<double>(xl.size()),
                      f64, f32);
    a_->runtime().tracer().kernel_split_prec(
        rk, static_cast<double>(xl.size()), f64, f32, 0.0);
  });
}

void Smoother::sweep_sgs2(const linalg::ParVector& b,
                          linalg::ParVector& x) const {
  // Symmetric two-stage GS: M = (L+D) D^-1 (D+U), both triangular solves
  // approximated by inner JR sweeps (compact form of Eqs. 11-14).
  const Precision pr = a_->value_precision();
  linalg::ParVector r(a_->runtime(), a_->rows());
  r.set_value_precision(pr);
  a_->residual(b, x, r);
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    RealVector g, h, t;
    const auto& d = ldu_.dinv[static_cast<std::size_t>(rk)];
    jr_lower(rk, r.local(rk), g);
    // rhs for the backward stage: D * g.
    t.resize(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      t[i] = store_value(g[i] / d[i], pr);
    }
    jr_upper(rk, t, h);
    auto& xl = x.local(rk);
    for (std::size_t i = 0; i < xl.size(); ++i) {
      xl[i] = store_value(xl[i] + h[i], pr);
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, 4.0 * bytes_of(pr) * static_cast<double>(xl.size()),
                      f64, f32);
    a_->runtime().tracer().kernel_split_prec(
        rk, 2.0 * static_cast<double>(xl.size()), f64, f32, 0.0);
  });
}

void Smoother::sweep_sgs2_multi(const linalg::ParMultiVector& b,
                                linalg::ParMultiVector& x) const {
  // Fused symmetric two-stage GS: one multi-residual, then the forward
  // and backward JR stages stream L/U once per inner sweep for all
  // lanes. Each lane's arithmetic is exactly sweep_sgs2's.
  const Precision pr = a_->value_precision();
  linalg::ParMultiVector r(a_->runtime(), a_->rows(), x.ncomp());
  r.set_value_precision(pr);
  a_->residual_multi(b, x, r);
  const std::size_t lanes = x.ncomp();
  const auto nl = static_cast<double>(lanes);
  a_->runtime().parallel_for_ranks([&](RankId rk) {
    RealVector g, h, t;
    const auto& d = ldu_.dinv[static_cast<std::size_t>(rk)];
    const std::size_t n = d.size();
    jr_lower_multi(rk, r.local(rk), lanes, g);
    // rhs for the backward stage: D * g, lane by lane.
    t.resize(g.size());
    for (std::size_t c = 0; c < lanes; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        t[c * n + i] = store_value(g[c * n + i] / d[i], pr);
      }
    }
    jr_upper_multi(rk, t, lanes, h);
    auto& xl = x.local(rk);
    for (std::size_t i = 0; i < xl.size(); ++i) {
      xl[i] = store_value(xl[i] + h[i], pr);
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(pr, 4.0 * bytes_of(pr) * nl * static_cast<double>(n),
                      f64, f32);
    a_->runtime().tracer().kernel_split_prec(
        rk, 2.0 * nl * static_cast<double>(n), f64, f32, 0.0);
  });
}

}  // namespace exw::amg
