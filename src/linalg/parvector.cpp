#include "linalg/parvector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "perf/purity.hpp"
#include "sparse/prim.hpp"

namespace exw::linalg {

namespace {
// Bytes moved per element for streaming BLAS-1 kernels.
constexpr double kRead = sizeof(Real);

std::size_t active_lanes(std::size_t ncomp,
                         std::span<const std::uint8_t> mask) {
  if (mask.empty()) {
    return ncomp;
  }
  std::size_t n = 0;
  for (std::uint8_t m : mask) {
    if (m != 0) ++n;
  }
  return n;
}
}  // namespace

ParVector::ParVector(par::Runtime& rt, par::RowPartition rows,
                     std::size_t ncomp, Precision prec)
    : rt_(&rt), rows_(std::move(rows)), ncomp_(ncomp), prec_(prec) {
  EXW_REQUIRE(ncomp >= 1, "vector needs at least one lane");
  EXW_REQUIRE(rows_.nranks() == rt.nranks(),
              "vector partition does not match runtime rank count");
  // Warm code constructs vectors only to prime scratch on first use
  // (Smoother::residual_scratch, Smoother::boundary_scratch), under
  // EXW_PURITY_ALLOW; the runtime purity check polices any other
  // construction inside a warm region.
  local_.resize(  // exw-warm-ok: first-use scratch priming
      static_cast<std::size_t>(rows_.nranks()));
  for (RankId r{0}; r.value() < rows_.nranks(); ++r) {
    local_[static_cast<std::size_t>(r)].assign(  // exw-warm-ok: first-use scratch priming
        ncomp_ * local_n(r), 0.0);
  }
}

std::span<Real> ParVector::lane_span(RankId r, std::size_t lane) {
  EXW_CONTRACT_CHECK_WRITE(r, "ParVector::lane_span(r)");
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  const std::size_t n = local_n(r);
  return std::span<Real>(local_[static_cast<std::size_t>(r)])
      .subspan(lane * n, n);
}

std::span<const Real> ParVector::lane_span(RankId r, std::size_t lane) const {
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  const std::size_t n = local_n(r);
  return std::span<const Real>(local_[static_cast<std::size_t>(r)])
      .subspan(lane * n, n);
}

Real& ParVector::at(std::size_t lane, GlobalIndex g) {
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  const RankId r = rows_.rank_of(g);
  return local_[static_cast<std::size_t>(r)]
               [lane * local_n(r) +
                static_cast<std::size_t>(rows_.to_local(r, g))];
}

Real ParVector::at(std::size_t lane, GlobalIndex g) const {
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  const RankId r = rows_.rank_of(g);
  return local_[static_cast<std::size_t>(r)]
               [lane * local_n(r) +
                static_cast<std::size_t>(rows_.to_local(r, g))];
}

EXW_WARM_FN
void ParVector::set_values_from_plan(RankId r, std::span<const Real> owned,
                                     const VectorFillPlan& plan,
                                     std::span<const Real> recv) {
  EXW_PURITY_REGION("parvector-value-fill");
  EXW_CONTRACT_CHECK_WRITE(r, "ParVector::set_values_from_plan(r)");
  EXW_REQUIRE(prec_ == Precision::kF64,
              "value-fill plans refill fp64 vectors (assembly plane)");
  auto& x = local_[static_cast<std::size_t>(r)];
  EXW_REQUIRE(owned.size() == x.size(),
              "owned RHS must be dense over local rows");
  EXW_REQUIRE(plan.seg_ptr.size() == plan.dest.size() + 1 &&
                  (plan.perm.empty() || plan.seg_ptr.back() == plan.perm.size()),
              "RHS-fill plan shape mismatch");
  EXW_REQUIRE(recv.size() == plan.perm.size(),
              "received value stream does not match plan");
  std::copy(owned.begin(), owned.end(), x.begin());
  sparse::prim::segmented_reduce<Real>(
      recv, plan.perm, plan.seg_ptr, [&](std::size_t u, Real acc) {
        x[static_cast<std::size_t>(plan.dest[u])] += acc;
      });
  const auto n = static_cast<double>(x.size());
  const auto nr = static_cast<double>(recv.size());
  rt_->tracer().kernel(r, nr, 2.0 * kRead * n +
                                  nr * (kRead + sizeof(std::size_t)));
}

void ParVector::fill(Real value) {
  rt_->parallel_for_ranks([&](RankId r) { fill(r, value); });
}

void ParVector::fill(RankId r, Real value) {
  EXW_CONTRACT_CHECK_WRITE(r, "ParVector::fill(r)");
  auto& x = local_[static_cast<std::size_t>(r)];
  std::fill(x.begin(), x.end(), store_value(value, prec_));
  double f64 = 0, f32 = 0;
  split_value_bytes(prec_, bytes_of(prec_) * static_cast<double>(x.size()),
                    f64, f32);
  rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
}

void ParVector::copy_from(const ParVector& other) {
  rt_->parallel_for_ranks([&](RankId r) { copy_from(r, other); });
}

void ParVector::copy_from(RankId r, const ParVector& other) {
  EXW_REQUIRE(other.ncomp_ == ncomp_, "vector lane count mismatch");
  EXW_REQUIRE(other.global_size() == global_size(), "vector size mismatch");
  EXW_CONTRACT_CHECK_WRITE(r, "ParVector::copy_from(r)");
  auto& y = local_[static_cast<std::size_t>(r)];
  const auto& xs = other.local_[static_cast<std::size_t>(r)];
  if (prec_ == Precision::kF32 && other.prec_ == Precision::kF64) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = demote_value(xs[i]);
    }
  } else {
    // Same precision, or f64 <- f32: source values already representable
    // in the destination storage.
    y = xs;
  }
  const auto n = static_cast<double>(y.size());
  double f64 = 0, f32 = 0;
  split_value_bytes(other.prec_, bytes_of(other.prec_) * n, f64, f32);
  split_value_bytes(prec_, bytes_of(prec_) * n, f64, f32);
  rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
}

EXW_WARM_FN
void ParVector::copy_lanes(const ParVector& src,
                           std::span<const std::uint8_t> mask) {
  EXW_PURITY_REGION("multivector-copy-lanes");
  EXW_REQUIRE(src.ncomp_ == ncomp_, "vector lane count mismatch");
  EXW_REQUIRE(src.global_size() == global_size(), "vector size mismatch");
  EXW_REQUIRE(mask.empty() || mask.size() == ncomp_,
              "lane mask size mismatch");
  EXW_REQUIRE(prec_ == Precision::kF64 && src.prec_ == Precision::kF64,
              "copy_lanes runs on fp64 vectors");
  const auto na = static_cast<double>(active_lanes(ncomp_, mask));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    auto& y = local_[static_cast<std::size_t>(r)];
    const auto& xs = src.local_[static_cast<std::size_t>(r)];
    for (std::size_t c = 0; c < ncomp_; ++c) {
      if (!mask.empty() && mask[c] == 0) continue;
      for (std::size_t i = 0; i < n; ++i) {
        y[c * n + i] = xs[c * n + i];
      }
    }
    rt_->tracer().kernel(r, 0.0, 2.0 * kRead * na * static_cast<double>(n));
  });
}

EXW_WARM_FN
void ParVector::scale_lanes(std::span<const Real> alpha,
                            std::span<const std::uint8_t> mask) {
  EXW_PURITY_REGION("multivector-scale-lanes");
  rt_->parallel_for_ranks([&](RankId r) { scale_lanes(r, alpha, mask); });
}

void ParVector::scale_lanes(RankId r, std::span<const Real> alpha,
                            std::span<const std::uint8_t> mask) {
  EXW_REQUIRE(alpha.size() == ncomp_, "one scale factor per lane required");
  EXW_REQUIRE(mask.empty() || mask.size() == ncomp_,
              "lane mask size mismatch");
  EXW_REQUIRE(prec_ == Precision::kF64, "scale_lanes runs on fp64 vectors");
  EXW_CONTRACT_CHECK_WRITE(r, "ParVector::scale_lanes(r)");
  const std::size_t n = local_n(r);
  auto& x = local_[static_cast<std::size_t>(r)];
  for (std::size_t c = 0; c < ncomp_; ++c) {
    if (!mask.empty() && mask[c] == 0) continue;
    const Real a = alpha[c];
    for (std::size_t i = 0; i < n; ++i) {
      x[c * n + i] *= a;
    }
  }
  const double m =
      static_cast<double>(active_lanes(ncomp_, mask)) * static_cast<double>(n);
  rt_->tracer().kernel(r, m, 2.0 * kRead * m);
}

EXW_WARM_FN
void ParVector::axpy_lanes(std::span<const Real> alpha, const ParVector& x,
                           std::span<const std::uint8_t> mask) {
  EXW_PURITY_REGION("multivector-axpy-lanes");
  rt_->parallel_for_ranks([&](RankId r) { axpy_lanes(r, alpha, x, mask); });
}

void ParVector::axpy_lanes(RankId r, std::span<const Real> alpha,
                           const ParVector& x,
                           std::span<const std::uint8_t> mask) {
  EXW_REQUIRE(alpha.size() == ncomp_, "one axpy factor per lane required");
  EXW_REQUIRE(mask.empty() || mask.size() == ncomp_,
              "lane mask size mismatch");
  EXW_REQUIRE(x.ncomp_ == ncomp_, "vector lane count mismatch");
  EXW_REQUIRE(x.global_size() == global_size(), "vector size mismatch");
  EXW_CONTRACT_CHECK_WRITE(r, "ParVector::axpy_lanes(r)");
  const std::size_t n = local_n(r);
  auto& y = local_[static_cast<std::size_t>(r)];
  const auto& xs = x.local_[static_cast<std::size_t>(r)];
  for (std::size_t c = 0; c < ncomp_; ++c) {
    if (!mask.empty() && mask[c] == 0) continue;
    const Real a = alpha[c];
    for (std::size_t i = 0; i < n; ++i) {
      y[c * n + i] = store_value(y[c * n + i] + a * xs[c * n + i], prec_);
    }
  }
  const auto na = static_cast<double>(active_lanes(ncomp_, mask));
  double f64 = 0, f32 = 0;
  split_value_bytes(prec_, 2.0 * bytes_of(prec_) * na * static_cast<double>(n),
                    f64, f32);
  split_value_bytes(x.prec_, bytes_of(x.prec_) * na * static_cast<double>(n),
                    f64, f32);
  rt_->tracer().kernel_split_prec(r, 2.0 * na * static_cast<double>(n), f64,
                                  f32, 0.0);
}

EXW_WARM_FN
std::vector<double> ParVector::dots(const ParVector& other) const {
  EXW_PURITY_REGION("multivector-dots");
  EXW_REQUIRE(other.ncomp_ == ncomp_, "vector lane count mismatch");
  EXW_REQUIRE(other.global_size() == global_size(), "vector size mismatch");
  // Per-rank partial sums and the reduced result are the collective's
  // payload — MPI library buffers in a real run, not warm-path state.
  EXW_PURITY_ALLOW("collective payload staging");
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(nranks()), std::vector<double>(ncomp_, 0.0));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    const auto& x = local_[static_cast<std::size_t>(r)];
    const auto& y = other.local_[static_cast<std::size_t>(r)];
    auto& p = partial[static_cast<std::size_t>(r)];
    for (std::size_t c = 0; c < ncomp_; ++c) {
      double s = 0;
      for (std::size_t i = 0; i < n; ++i) {
        s += x[c * n + i] * y[c * n + i];
      }
      p[c] = s;
    }
    const double nc = static_cast<double>(ncomp_) * static_cast<double>(n);
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * nc, f64, f32);
    split_value_bytes(other.prec_, bytes_of(other.prec_) * nc, f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * nc, f64, f32, 0.0);
  });
  return rt_->allreduce_sum_vec(partial);
}

EXW_WARM_FN
std::vector<double> ParVector::dots_against(const ParVector& y,
                                            std::size_t count) const {
  EXW_PURITY_REGION("multivector-dots-against");
  EXW_REQUIRE(y.ncomp_ == 1, "dots_against takes a 1-lane vector");
  EXW_REQUIRE(count >= 1 && count <= ncomp_, "vector lane out of range");
  EXW_REQUIRE(y.global_size() == global_size(), "vector size mismatch");
  EXW_REQUIRE(prec_ == Precision::kF64 && y.prec_ == Precision::kF64,
              "dots_against runs on fp64 vectors");
  EXW_PURITY_ALLOW("collective payload staging");
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(nranks()), std::vector<double>(count, 0.0));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    const auto& x = local_[static_cast<std::size_t>(r)];
    const auto& ys = y.local_[static_cast<std::size_t>(r)];
    auto& p = partial[static_cast<std::size_t>(r)];
    for (std::size_t c = 0; c < count; ++c) {
      double s = 0;
      for (std::size_t i = 0; i < n; ++i) {
        s += x[c * n + i] * ys[i];
      }
      p[c] = s;
    }
    const auto m = static_cast<double>(count) * static_cast<double>(n);
    rt_->tracer().kernel(r, 2.0 * m, kRead * (m + static_cast<double>(n)));
  });
  return rt_->allreduce_sum_vec(partial);
}

EXW_WARM_FN
void ParVector::axpy_combination(std::span<const Real> coef,
                                 const ParVector& x) {
  EXW_PURITY_REGION("multivector-axpy-combination");
  EXW_REQUIRE(ncomp_ == 1, "axpy_combination updates a 1-lane vector");
  EXW_REQUIRE(!coef.empty() && coef.size() <= x.ncomp_,
              "vector lane out of range");
  EXW_REQUIRE(x.global_size() == global_size(), "vector size mismatch");
  EXW_REQUIRE(prec_ == Precision::kF64 && x.prec_ == Precision::kF64,
              "axpy_combination runs on fp64 vectors");
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    auto& y = local_[static_cast<std::size_t>(r)];
    const auto& xs = x.local_[static_cast<std::size_t>(r)];
    for (std::size_t c = 0; c < coef.size(); ++c) {
      const Real a = coef[c];
      for (std::size_t i = 0; i < n; ++i) {
        y[i] += a * xs[c * n + i];
      }
    }
    const auto m = static_cast<double>(coef.size()) * static_cast<double>(n);
    rt_->tracer().kernel(r, 2.0 * m,
                         kRead * (m + 2.0 * static_cast<double>(n)));
  });
}

std::vector<double> ParVector::norms() const {
  auto out = dots(*this);
  for (double& v : out) {
    v = std::sqrt(v);
  }
  return out;
}

double ParVector::dot(const ParVector& other) const {
  EXW_REQUIRE(ncomp_ == 1, "dot() reduces a 1-lane vector; use dots()");
  return dots(other).front();
}

double ParVector::norm2() const { return std::sqrt(dot(*this)); }

void ParVector::lane_fill(RankId r, std::size_t lane, Real value) {
  EXW_REQUIRE(prec_ == Precision::kF64, "lane_fill runs on fp64 vectors");
  auto s = lane_span(r, lane);
  std::fill(s.begin(), s.end(), value);
  rt_->tracer().kernel(r, 0.0, kRead * static_cast<double>(s.size()));
}

double ParVector::lane_norm2(std::size_t lane) const {
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  std::vector<double> partial(static_cast<std::size_t>(nranks()), 0.0);
  rt_->parallel_for_ranks([&](RankId r) {
    const auto x = lane_span(r, lane);
    double s = 0;
    for (double v : x) {
      s += v * v;
    }
    partial[static_cast<std::size_t>(r)] = s;
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_,
                      2.0 * bytes_of(prec_) * static_cast<double>(x.size()),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * static_cast<double>(x.size()),
                                    f64, f32, 0.0);
  });
  return std::sqrt(rt_->allreduce_sum(partial));
}

void ParVector::set_lane(std::size_t lane, const ParVector& src) {
  rt_->parallel_for_ranks([&](RankId r) { set_lane(r, lane, src); });
}

void ParVector::set_lane(RankId r, std::size_t lane, const ParVector& src) {
  EXW_REQUIRE(src.ncomp_ == 1, "set_lane copies from a 1-lane vector");
  EXW_REQUIRE(src.global_size() == global_size(), "vector size mismatch");
  EXW_REQUIRE(prec_ == Precision::kF64 && src.prec_ == Precision::kF64,
              "set_lane runs on fp64 vectors");
  auto dst = lane_span(r, lane);
  const auto& s = src.local(r);
  std::copy(s.begin(), s.end(), dst.begin());
  rt_->tracer().kernel(r, 0.0, 2.0 * kRead * static_cast<double>(s.size()));
}

void ParVector::extract_lane(std::size_t lane, ParVector& dst) const {
  rt_->parallel_for_ranks([&](RankId r) { extract_lane(r, lane, dst); });
}

void ParVector::extract_lane(RankId r, std::size_t lane,
                             ParVector& dst) const {
  EXW_REQUIRE(dst.ncomp_ == 1, "extract_lane copies into a 1-lane vector");
  EXW_REQUIRE(dst.global_size() == global_size(), "vector size mismatch");
  EXW_REQUIRE(prec_ == Precision::kF64 && dst.prec_ == Precision::kF64,
              "extract_lane runs on fp64 vectors");
  const auto s = lane_span(r, lane);
  auto& d = dst.local(r);
  std::copy(s.begin(), s.end(), d.begin());
  rt_->tracer().kernel(r, 0.0, 2.0 * kRead * static_cast<double>(s.size()));
}

RealVector ParVector::gather(std::size_t lane) const {
  RealVector out(static_cast<std::size_t>(global_size()));
  gather(out, lane);
  return out;
}

void ParVector::gather(RealVector& out, std::size_t lane) const {
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  EXW_REQUIRE(out.size() == static_cast<std::size_t>(global_size()),
              "vector size mismatch");
  // Ranks write disjoint [first_row, end_row) slices.
  rt_->parallel_for_ranks([&](RankId r) {
    const auto x = lane_span(r, lane);
    std::copy(x.begin(), x.end(),
              out.begin() + static_cast<std::ptrdiff_t>(rows_.first_row(r).value()));
  });
}

void ParVector::scatter(const RealVector& global, std::size_t lane) {
  rt_->parallel_for_ranks([&](RankId r) { scatter(r, global, lane); });
}

void ParVector::scatter(RankId r, const RealVector& global, std::size_t lane) {
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  EXW_REQUIRE(global.size() == static_cast<std::size_t>(global_size()),
              "vector size mismatch");
  auto x = lane_span(r, lane);
  const auto first = static_cast<std::ptrdiff_t>(rows_.first_row(r).value());
  const auto end = static_cast<std::ptrdiff_t>(rows_.end_row(r).value());
  std::copy(global.begin() + first, global.begin() + end, x.begin());
  if (prec_ == Precision::kF32) {
    for (Real& v : x) v = demote_value(v);
  }
}

}  // namespace exw::linalg
