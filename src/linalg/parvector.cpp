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
}  // namespace

void ParVector::set_value_precision(Precision p) {
  if (p == prec_) {
    return;
  }
  prec_ = p;
  if (p == Precision::kF32) {
    // Establish the storage invariant on whatever is already held.
    // Cold (re)tagging, not a modeled kernel: no charge.
    rt_->parallel_for_ranks([&](RankId r) {
      for (Real& v : local_[static_cast<std::size_t>(r)]) {
        v = demote_value(v);
      }
    });
  }
}

ParVector::ParVector(par::Runtime& rt, par::RowPartition rows)
    : rt_(&rt), rows_(std::move(rows)) {
  EXW_REQUIRE(rows_.nranks() == rt.nranks(),
              "vector partition does not match runtime rank count");
  local_.resize(static_cast<std::size_t>(rows_.nranks()));
  for (RankId r{0}; r.value() < rows_.nranks(); ++r) {
    local_[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(rows_.local_size(r)), 0.0);
  }
}

Real& ParVector::at(GlobalIndex g) {
  const RankId r = rows_.rank_of(g);
  return local_[static_cast<std::size_t>(r)][static_cast<std::size_t>(
      rows_.to_local(r, g))];
}

Real ParVector::at(GlobalIndex g) const {
  const RankId r = rows_.rank_of(g);
  return local_[static_cast<std::size_t>(r)][static_cast<std::size_t>(
      rows_.to_local(r, g))];
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
  const Real sv = store_value(value, prec_);
  rt_->parallel_for_ranks([&](RankId r) {
    auto& x = local_[static_cast<std::size_t>(r)];
    std::fill(x.begin(), x.end(), sv);
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * static_cast<double>(x.size()),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

void ParVector::copy_from(const ParVector& other) {
  EXW_REQUIRE(other.global_size() == global_size(), "vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    auto& y = local_[static_cast<std::size_t>(r)];
    const auto& xs = other.local_[static_cast<std::size_t>(r)];
    if (prec_ == Precision::kF32 && other.prec_ == Precision::kF64) {
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = demote_value(xs[i]);
      }
    } else {
      // Same precision, or f64 <- f32: source values already
      // representable in the destination storage.
      y = xs;
    }
    const auto n = static_cast<double>(y.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(other.prec_, bytes_of(other.prec_) * n, f64, f32);
    split_value_bytes(prec_, bytes_of(prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

void ParVector::scale(Real alpha) {
  rt_->parallel_for_ranks([&](RankId r) {
    auto& x = local_[static_cast<std::size_t>(r)];
    for (auto& v : x) v = store_value(v * alpha, prec_);
    double f64 = 0, f32 = 0;
    split_value_bytes(
        prec_, 2.0 * bytes_of(prec_) * static_cast<double>(x.size()), f64,
        f32);
    rt_->tracer().kernel_split_prec(r, static_cast<double>(x.size()), f64,
                                    f32, 0.0);
  });
}

void ParVector::axpy(Real alpha, const ParVector& x) {
  EXW_REQUIRE(x.global_size() == global_size(), "vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    auto& y = local_[static_cast<std::size_t>(r)];
    const auto& xs = x.local_[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = store_value(y[i] + alpha * xs[i], prec_);
    }
    const auto n = static_cast<double>(y.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, 2.0 * bytes_of(prec_) * n, f64, f32);
    split_value_bytes(x.prec_, bytes_of(x.prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * n, f64, f32, 0.0);
  });
}

double ParVector::dot(const ParVector& other) const {
  EXW_REQUIRE(other.global_size() == global_size(), "vector size mismatch");
  std::vector<double> partial(static_cast<std::size_t>(nranks()), 0.0);
  rt_->parallel_for_ranks([&](RankId r) {
    const auto& x = local_[static_cast<std::size_t>(r)];
    const auto& y = other.local_[static_cast<std::size_t>(r)];
    double s = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      s += x[i] * y[i];
    }
    partial[static_cast<std::size_t>(r)] = s;
    const auto n = static_cast<double>(x.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * n, f64, f32);
    split_value_bytes(other.prec_, bytes_of(other.prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * n, f64, f32, 0.0);
  });
  return rt_->allreduce_sum(partial);
}

double ParVector::norm2() const { return std::sqrt(dot(*this)); }

RealVector ParVector::gather() const {
  RealVector out(static_cast<std::size_t>(global_size()));
  // Ranks write disjoint [first_row, end_row) slices.
  rt_->parallel_for_ranks([&](RankId r) {
    const auto& x = local_[static_cast<std::size_t>(r)];
    std::copy(x.begin(), x.end(),
              out.begin() + static_cast<std::ptrdiff_t>(rows_.first_row(r).value()));
  });
  return out;
}

void ParVector::scatter(const RealVector& global) {
  EXW_REQUIRE(global.size() == static_cast<std::size_t>(global_size()),
              "vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    auto& x = local_[static_cast<std::size_t>(r)];
    std::copy(global.begin() +
                  static_cast<std::ptrdiff_t>(rows_.first_row(r).value()),
              global.begin() + static_cast<std::ptrdiff_t>(rows_.end_row(r).value()),
              x.begin());
    if (prec_ == Precision::kF32) {
      for (Real& v : x) v = demote_value(v);
    }
  });
}

}  // namespace exw::linalg
